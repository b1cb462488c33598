"""The serving front end: coalescing parity, backpressure, deadlines, drain.

The heart of the suite is the parity matrix: concurrent single-query
requests — across coalescing configurations and mixed per-request
``k``/budget/``exact`` options — must come back **bit-identical** to what
a direct per-query ``Searcher.search`` returns for the same query and
options.  The robustness contracts (504 on deadline, 429 on a full
queue, graceful drain on shutdown) are pinned deterministically with a
gate-blocked stub index, not with sleeps and luck.  So is group commit:
which requests share a flush is fixed by holding the compute thread
while the queue fills (:func:`_queued_behind_held_flush`).
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.api import SearchOptions, Searcher, build_index
from repro.core.results import SearchResult, SearchStats
from repro.serve import (
    BackgroundServer,
    SearchServer,
    ServeClient,
    ServeConfig,
    ServeError,
    options_signature,
)
from repro.serve.http import HttpError, json_body, response_bytes


# ----------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def fitted_index():
    rng = np.random.default_rng(7)
    points = rng.normal(size=(400, 8))
    return build_index("bc_tree", leaf_size=25, random_state=0).fit(points)


@pytest.fixture(scope="module")
def hyperplanes():
    rng = np.random.default_rng(11)
    return rng.normal(size=(48, 9))


class GatedIndex:
    """A stub index whose every search blocks until ``gate`` is set.

    ``started`` is set the moment a search enters the stub, so tests can
    deterministically wait for "the compute thread is now busy" instead
    of sleeping and hoping.
    """

    num_points = 8

    def __init__(self) -> None:
        self.gate = threading.Event()
        self.started = threading.Event()

    def search(self, query, k=1, **kwargs):
        self.started.set()
        assert self.gate.wait(timeout=30), "test forgot to open the gate"
        k = int(k)
        return SearchResult(
            indices=np.arange(k),
            distances=np.zeros(k, dtype=np.float64),
            stats=SearchStats(),
        )

    def _batch_kernel(self, queries, k, **kwargs):
        return [self.search(query, k, **kwargs) for query in queries]


def _run(coro):
    return asyncio.run(coro)


def _serve(searcher, config, scenario):
    """Run ``await scenario(server)`` against a started in-loop server."""

    async def main():
        server = SearchServer(searcher, config)
        await server.start()
        try:
            return await scenario(server)
        finally:
            await server.stop()

    return _run(main())


def _search(port, query, **options):
    """A zero-argument coroutine function: one ``/search``, own connection."""

    async def call():
        async with ServeClient("127.0.0.1", port) as client:
            return await client.search(query, **options)

    return call


async def _until(predicate, what):
    for _ in range(2000):
        if predicate():
            return
        await asyncio.sleep(0.005)
    raise AssertionError(f"timed out waiting until {what}")


async def _queued_behind_held_flush(server, first, rest):
    """Answer ``first()``, then every ``rest`` call queued behind its flush.

    The compute thread is held (``run_serialized`` on an event) until
    ``first``'s request has been cut into a flush of its own and every
    ``rest`` request sits in the queue behind it.  Releasing the thread
    lets group commit cut that queue at once, ``max_batch`` at a time, so
    which requests share a flush is fixed by the test, not by timing.
    Returns ``(first_answer, rest_answers)``.
    """
    gate = threading.Event()
    hold = asyncio.ensure_future(
        server.backend.run_serialized(lambda: gate.wait(timeout=30))
    )
    await asyncio.sleep(0)  # the hold now heads the compute thread's queue
    coalescer = server.coalescer
    try:
        head = asyncio.ensure_future(first())
        await _until(
            lambda: coalescer.flushes == 1 and coalescer.depth == 0,
            "the first request's flush is waiting on the compute thread",
        )
        tail = [asyncio.ensure_future(call()) for call in rest]
        await _until(
            lambda: coalescer.depth == len(rest), "every other request is queued"
        )
    finally:
        gate.set()
    await hold
    return await head, list(await asyncio.gather(*tail))


# ------------------------------------------------------------------- parity


@pytest.mark.parametrize(
    "max_batch,max_wait_ms",
    [(1, 0.0), (4, 2.0), (16, 8.0), (64, 1.0)],
)
def test_concurrent_parity_across_configs(fitted_index, hyperplanes, max_batch, max_wait_ms):
    """Coalesced answers are bit-identical to direct per-query search."""
    with Searcher(fitted_index, SearchOptions(k=5)) as searcher:
        direct = [searcher.search(q) for q in hyperplanes]
        config = ServeConfig(max_batch=max_batch, max_wait_ms=max_wait_ms)
        with BackgroundServer(searcher, config) as server:
            async def drive():
                async def one(q):
                    async with ServeClient("127.0.0.1", server.port) as client:
                        return await client.search(q)
                return await asyncio.gather(*[one(q) for q in hyperplanes])

            answers = _run(drive())
    for answer, expected in zip(answers, direct):
        assert answer["indices"] == [int(i) for i in expected.indices]
        assert answer["distances"] == [float(d) for d in expected.distances]


def test_mixed_options_parity(fitted_index, hyperplanes):
    """Mixed k/budget/exact requests share flushes, group correctly and
    stay bit-identical."""
    variants = [
        {},
        {"k": 1},
        {"k": 8},
        {"max_candidates": 60},
        {"candidate_fraction": 0.3},
        {"exact": False},
        {"k": 3, "max_candidates": 40},
    ]
    specs = [
        (i, variants[i % len(variants)]) for i in range(len(hyperplanes))
    ]
    with Searcher(fitted_index, SearchOptions(k=5)) as searcher:
        direct = [
            searcher.search(hyperplanes[i], **options) for i, options in specs
        ]

        async def scenario(server):
            calls = []
            for i, options in specs:
                options = dict(options)
                k = options.pop("k", None)
                calls.append(_search(server.port, hyperplanes[i], k=k, **options))
            first, rest = await _queued_behind_held_flush(
                server, calls[0], calls[1:]
            )
            return [first, *rest], server.coalescer

        answers, coalescer = _serve(
            searcher, ServeConfig(max_batch=16), scenario
        )
    # 47 queued requests cut 16 at a time: three flushes after the first.
    # No option variant has more than 7 requests, so each of those
    # flushes runs at least 3 option groups.
    assert coalescer.flushes == 4
    assert coalescer.batches_executed >= 1 + 3 * 3
    for answer, expected in zip(answers, direct):
        assert answer["indices"] == [int(i) for i in expected.indices]
        assert answer["distances"] == [float(d) for d in expected.distances]


def test_coalescing_actually_batches(fitted_index, hyperplanes):
    """Requests queued behind a busy flush ride the next flush together."""
    with Searcher(fitted_index, SearchOptions(k=5)) as searcher:
        async def scenario(server):
            calls = [_search(server.port, q) for q in hyperplanes]
            first, rest = await _queued_behind_held_flush(
                server, calls[0], calls[1:]
            )
            async with ServeClient("127.0.0.1", server.port) as client:
                return [first, *rest], await client.get("/stats")

        answers, stats = _serve(
            searcher, ServeConfig(max_batch=32), scenario
        )
    assert max(answer["batch_size"] for answer in answers) > 1
    assert stats["largest_batch"] > 1
    assert stats["requests_executed"] == len(hyperplanes)
    assert stats["batches_executed"] < len(hyperplanes)


@pytest.mark.parametrize(
    "count,max_batch", [(12, 32), (100, 128)], ids=["12-rows", "100-rows"]
)
def test_fast_mode_requests_share_a_flush(fitted_index, count, max_batch):
    """exact=False requests queued behind a busy flush ride the next one
    together, and each answers exactly as its one-row fast search — also
    in a flush taller than 64 rows, which is answered in slices."""
    queries = np.random.default_rng(13).normal(size=(count, 9))
    with Searcher(fitted_index, SearchOptions(k=5)) as searcher:
        direct = [searcher.search(q, exact=False) for q in queries]

        async def scenario(server):
            calls = [_search(server.port, q, exact=False) for q in queries]
            first, rest = await _queued_behind_held_flush(
                server, calls[0], calls[1:]
            )
            return [first, *rest]

        answers = _serve(searcher, ServeConfig(max_batch=max_batch), scenario)
    assert [answer["batch_size"] for answer in answers] == (
        [1] + [count - 1] * (count - 1)
    )
    for answer, expected in zip(answers, direct):
        assert answer["indices"] == [int(i) for i in expected.indices]
        assert answer["distances"] == [float(d) for d in expected.distances]


def test_wrong_dimension_query_fails_alone(fitted_index, hyperplanes):
    """A mis-dimensioned query sharing a flush gets its own 400 without
    hurting its companions."""
    with Searcher(fitted_index, SearchOptions(k=5)) as searcher:
        direct = [searcher.search(q) for q in hyperplanes[:8]]

        async def scenario(server):
            async def bad():
                async with ServeClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ServeError) as err:
                        await client.search([1.0, 2.0, 3.0])
                    return err.value

            good = [_search(server.port, q) for q in hyperplanes[:8]]
            first, rest = await _queued_behind_held_flush(
                server, good[0], [*good[1:], bad]
            )
            return [first, *rest[:-1]], rest[-1], server.coalescer.flushes

        answers, error, flushes = _serve(
            searcher, ServeConfig(max_batch=16), scenario
        )
    assert flushes == 2  # the bad query rode one flush with seven good ones
    assert error.status == 400
    assert "dimension" in error.message
    for answer, expected in zip(answers, direct):
        assert answer["indices"] == [int(i) for i in expected.indices]
        assert answer["distances"] == [float(d) for d in expected.distances]


# ------------------------------------------------------------- group commit


def test_idle_server_answers_a_lone_query_at_once(fitted_index, hyperplanes):
    """Group commit: no request waits for companions, whatever
    ``max_wait_ms`` says (the knob is accepted but has no effect)."""
    with Searcher(fitted_index, SearchOptions(k=5)) as searcher:
        expected = searcher.search(hyperplanes[0])
        with BackgroundServer(searcher, ServeConfig(max_wait_ms=5000.0)) as server:
            async def drive():
                async with ServeClient("127.0.0.1", server.port) as client:
                    tic = time.perf_counter()
                    answer = await client.search(hyperplanes[0])
                    return answer, time.perf_counter() - tic

            answer, elapsed = _run(drive())
    assert elapsed < 1.0
    assert answer["batch_size"] == 1
    assert answer["indices"] == [int(i) for i in expected.indices]


@pytest.mark.parametrize(
    "max_batch,queued,flush_sizes", [(64, 12, [12]), (4, 10, [4, 4, 2])]
)
def test_queue_behind_busy_flush_is_cut_in_max_batch_flushes(
    fitted_index, hyperplanes, max_batch, queued, flush_sizes
):
    """Everything queued while the backend was busy rides the next
    flushes, ``max_batch`` at a time."""
    with Searcher(fitted_index, SearchOptions(k=5)) as searcher:
        async def scenario(server):
            first, rest = await _queued_behind_held_flush(
                server,
                _search(server.port, hyperplanes[0]),
                [_search(server.port, q) for q in hyperplanes[1:1 + queued]],
            )
            async with ServeClient("127.0.0.1", server.port) as client:
                return first, rest, await client.get("/stats")

        first, rest, stats = _serve(
            searcher, ServeConfig(max_batch=max_batch), scenario
        )
    assert first["batch_size"] == 1
    assert sorted(answer["batch_size"] for answer in rest) == sorted(
        size for size in flush_sizes for _ in range(size)
    )
    assert stats["flushes"] == 1 + len(flush_sizes)
    assert stats["batches_by_size"] == Counter(
        str(size) for size in [1, *flush_sizes]
    )


# ----------------------------------------------------- deadlines and pressure


def test_request_timeout_returns_504():
    index = GatedIndex()
    with Searcher(index) as searcher:
        config = ServeConfig(
            max_batch=1, max_wait_ms=0.0,
            request_timeout_ms=80.0, drain_timeout_s=2.0,
        )
        with BackgroundServer(searcher, config) as server:
            async def drive():
                async with ServeClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ServeError) as err:
                        await client.search([1.0, 0.0], k=2)
                    return err.value

            try:
                error = _run(drive())
            finally:
                index.gate.set()  # unblock the compute thread for shutdown
    assert error.status == 504
    assert "request_timeout_ms" in error.message


def test_queue_overflow_returns_429():
    index = GatedIndex()
    with Searcher(index) as searcher:
        config = ServeConfig(
            max_batch=1, max_wait_ms=0.0,
            max_queue_depth=1, drain_timeout_s=2.0,
        )
        with BackgroundServer(searcher, config) as server:
            async def drive():
                loop = asyncio.get_running_loop()
                first_client = ServeClient("127.0.0.1", server.port)
                await first_client.connect()
                first = asyncio.ensure_future(
                    first_client.search([1.0, 0.0], k=1)
                )
                # Deterministic: wait until the first request is *executing*
                # (stub entered), so the next request occupies the queue.
                await loop.run_in_executor(
                    None, lambda: index.started.wait(timeout=10)
                )
                second_client = ServeClient("127.0.0.1", server.port)
                await second_client.connect()
                second = asyncio.ensure_future(
                    second_client.search([2.0, 0.0], k=1)
                )
                await asyncio.sleep(0.1)  # let it enqueue (depth now 1)
                async with ServeClient("127.0.0.1", server.port) as client:
                    with pytest.raises(ServeError) as err:
                        await client.search([3.0, 0.0], k=1)
                index.gate.set()
                first_answer = await first
                second_answer = await second
                await first_client.close()
                await second_client.close()
                return err.value, first_answer, second_answer

            error, first_answer, second_answer = _run(drive())
    assert error.status == 429
    assert "queue is full" in error.message
    # The queued requests were answered once the gate opened.
    assert first_answer["indices"] == [0]
    assert second_answer["indices"] == [0]


def test_graceful_drain_answers_queued_requests():
    """stop() executes what is queued instead of abandoning connections."""
    index = GatedIndex()

    async def scenario():
        with Searcher(index) as searcher:
            server = SearchServer(
                searcher,
                ServeConfig(max_batch=1, max_wait_ms=0.0, drain_timeout_s=10.0),
            )
            await server.start()
            loop = asyncio.get_running_loop()
            clients = []
            requests = []
            for i in range(4):
                client = ServeClient("127.0.0.1", server.port)
                await client.connect()
                clients.append(client)
                requests.append(
                    asyncio.ensure_future(client.search([float(i), 1.0], k=1))
                )
            await loop.run_in_executor(
                None, lambda: index.started.wait(timeout=10)
            )
            # One request is executing (gate-blocked); wait until the
            # other three are actually *queued* before draining, so the
            # test pins "stop answers the queue", not a 503 race.
            for _ in range(1000):
                if server.coalescer.depth >= 3:
                    break
                await asyncio.sleep(0.005)
            assert server.coalescer.depth == 3
            stopper = asyncio.ensure_future(server.stop())
            await asyncio.sleep(0.05)
            index.gate.set()
            answers = await asyncio.gather(*requests)
            await stopper
            for client in clients:
                await client.close()
            return answers

    answers = _run(scenario())
    assert len(answers) == 4
    for answer in answers:
        assert answer["indices"] == [0]


def test_server_refuses_closed_searcher(fitted_index):
    searcher = Searcher(fitted_index)
    searcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        SearchServer(searcher)


def test_server_refuses_an_index_without_a_batch_kernel():
    """Every flush is a batch_search, so an index without the batch
    kernel is refused when the server is built, not on a later flush."""

    class SearchOnly:
        num_points = 1

        def search(self, query, k=1, **kwargs):
            raise AssertionError("never searched")

    with Searcher(SearchOnly()) as searcher:
        with pytest.raises(TypeError, match="SearchOnly has no _batch_kernel"):
            SearchServer(searcher)


# ------------------------------------------------------------------ routing


def test_http_surface_errors(fitted_index):
    with Searcher(fitted_index, SearchOptions(k=5)) as searcher:
        with BackgroundServer(searcher, ServeConfig()) as server:
            async def drive():
                async with ServeClient("127.0.0.1", server.port) as client:
                    failures = {}
                    for label, coro in (
                        ("unknown_path", client.get("/nope")),
                        ("bad_method", client._request("GET", "/search", None)),
                        ("no_query", client._request("POST", "/search", {})),
                        ("bad_query", client._request(
                            "POST", "/search", {"query": "zap"})),
                        ("nan_query", client._request(
                            "POST", "/search",
                            {"query": [1.0, float("nan")]})),
                        ("bad_k", client._request(
                            "POST", "/search", {"query": [1.0, 2.0], "k": 0})),
                        ("unknown_key", client._request(
                            "POST", "/search",
                            {"query": [1.0, 2.0], "mystery": 1})),
                        ("fixed_option", client._request(
                            "POST", "/search",
                            {"query": [1.0, 2.0],
                             "options": {"n_jobs": 4}})),
                        ("bad_options_type", client._request(
                            "POST", "/search",
                            {"query": [1.0, 2.0], "options": [1]})),
                    ):
                        with pytest.raises(ServeError) as err:
                            await coro
                        failures[label] = err.value
                    return failures

            failures = _run(drive())
    assert failures["unknown_path"].status == 404
    assert failures["bad_method"].status == 405
    for label in (
        "no_query", "bad_query", "nan_query", "bad_k",
        "unknown_key", "fixed_option", "bad_options_type",
    ):
        assert failures[label].status == 400, label
    assert "n_jobs" in failures["fixed_option"].message


def test_healthz_and_stats_shape(fitted_index, hyperplanes):
    with Searcher(fitted_index, SearchOptions(k=5)) as searcher:
        config = ServeConfig(max_batch=8, max_wait_ms=1.0)
        with BackgroundServer(searcher, config) as server:
            port = server.port

            async def drive():
                async with ServeClient("127.0.0.1", port) as client:
                    await client.search(hyperplanes[0], k=2)
                    return await client.get("/healthz"), await client.get("/stats")

            health, stats = _run(drive())
    assert health["status"] == "ok"
    assert health["index"] == "BCTree"
    assert health["num_points"] == 400
    assert health["coalescing"] is True
    assert health["config"]["max_batch"] == 8
    assert health["config"]["port"] == port  # the *bound* port, not the spec's 0
    assert stats["requests_total"] == 1
    assert stats["requests_executed"] == 1
    assert stats["rejected_429"] == 0
    assert stats["timeouts_504"] == 0
    assert stats["queue_depth"] == 0
    assert stats["flushes"] == 1
    assert stats["batches_by_size"] == {"1": 1}


def test_stats_batch_histogram_accounts_for_every_query(fitted_index, hyperplanes):
    """``flushes``/``batches_by_size`` reconcile exactly with the load served."""
    with Searcher(fitted_index, SearchOptions(k=5)) as searcher:
        async def scenario(server):
            calls = [_search(server.port, q) for q in hyperplanes]
            await _queued_behind_held_flush(server, calls[0], calls[1:])
            async with ServeClient("127.0.0.1", server.port) as client:
                return await client.get("/stats")

        stats = _serve(searcher, ServeConfig(max_batch=32), scenario)
    histogram = {int(size): count for size, count in stats["batches_by_size"].items()}
    assert stats["flushes"] == sum(histogram.values()) == stats["batches_executed"]
    assert sum(size * count for size, count in histogram.items()) == len(hyperplanes)
    assert max(histogram) == stats["largest_batch"]


def test_float_distances_round_trip_exactly(fitted_index, hyperplanes):
    """JSON uses repr-exact floats: distances survive the wire bit-for-bit."""
    with Searcher(fitted_index, SearchOptions(k=7)) as searcher:
        expected = searcher.search(hyperplanes[0])
        with BackgroundServer(searcher, ServeConfig(max_batch=1)) as server:
            async def drive():
                async with ServeClient("127.0.0.1", server.port) as client:
                    return await client.search(hyperplanes[0])

            answer = _run(drive())
    for got, want in zip(answer["distances"], expected.distances):
        assert got == float(want)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ------------------------------------------------------------- configuration


class TestServeConfig:
    def test_defaults_coalesce(self):
        config = ServeConfig()
        assert config.coalescing is True
        assert config.max_batch > 1

    def test_max_batch_one_disables_coalescing(self):
        assert ServeConfig(max_batch=1).coalescing is False

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"host": ""}, "host"),
            ({"port": -1}, "port"),
            ({"port": 70000}, "port"),
            ({"max_batch": 0}, "max_batch"),
            ({"max_wait_ms": -1.0}, "max_wait_ms"),
            ({"max_queue_depth": 0}, "max_queue_depth"),
            ({"request_timeout_ms": 0.0}, "request_timeout_ms"),
            ({"drain_timeout_s": -0.5}, "drain_timeout_s"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ServeConfig(**kwargs)

    def test_to_dict_round_trips_knobs(self):
        config = ServeConfig(max_batch=3, max_wait_ms=7.0)
        data = config.to_dict()
        assert data["max_batch"] == 3
        assert data["max_wait_ms"] == 7.0


class TestOptionsSignature:
    def test_same_options_share_signature(self):
        a = options_signature(5, {"max_candidates": 10}, 9)
        b = options_signature(5, {"max_candidates": 10}, 9)
        assert a == b

    def test_different_k_split(self):
        assert options_signature(5, {}, 9) != options_signature(6, {}, 9)

    def test_different_dim_split(self):
        assert options_signature(5, {}, 9) != options_signature(5, {}, 8)

    def test_float_budget_exact(self):
        a = options_signature(5, {"candidate_fraction": 0.1}, 9)
        b = options_signature(5, {"candidate_fraction": 0.1 + 1e-18}, 9)
        assert a == b  # same float => same repr
        c = options_signature(5, {"candidate_fraction": 0.2}, 9)
        assert a != c

    def test_bool_int_distinct(self):
        assert options_signature(5, {"exact": True}, 9) != options_signature(
            5, {"exact": 1}, 9
        )


# ------------------------------------------------------------- http framing


class TestHttpFraming:
    def _read(self, raw: bytes):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            from repro.serve.http import read_request
            return await read_request(reader)

        return _run(scenario())

    def test_parses_request_with_body(self):
        raw = (
            b"POST /search HTTP/1.1\r\n"
            b"Content-Length: 2\r\n"
            b"X-Custom: yes\r\n\r\n{}"
        )
        method, path, headers, body = self._read(raw)
        assert (method, path, body) == ("POST", "/search", b"{}")
        assert headers["x-custom"] == "yes"

    def test_clean_eof_returns_none(self):
        assert self._read(b"") is None

    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as err:
            self._read(b"BROKEN\r\n\r\n")
        assert err.value.status == 400

    def test_bad_content_length(self):
        with pytest.raises(HttpError) as err:
            self._read(b"POST / HTTP/1.1\r\nContent-Length: zap\r\n\r\n")
        assert err.value.status == 400

    def test_oversized_body_rejected(self):
        with pytest.raises(HttpError) as err:
            self._read(
                b"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
            )
        assert err.value.status == 413

    def test_chunked_rejected(self):
        with pytest.raises(HttpError) as err:
            self._read(
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert err.value.status == 400

    def test_truncated_body_rejected(self):
        with pytest.raises(HttpError) as err:
            self._read(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}")
        assert err.value.status == 400

    def test_json_body_rejects_non_objects(self):
        with pytest.raises(HttpError):
            json_body(b"")
        with pytest.raises(HttpError):
            json_body(b"[1, 2]")
        with pytest.raises(HttpError):
            json_body(b"{nope")
        assert json_body(b'{"a": 1}') == {"a": 1}

    def test_response_bytes_framing(self):
        raw = response_bytes(200, {"x": 0.1})
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK")
        assert f"Content-Length: {len(body)}".encode() in head
        assert body == b'{"x": 0.1}'
