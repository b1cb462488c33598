"""Traced stand-in for ``repro serve``: the same server, with spans.

Usage: ``python3 perfbench/serve_launcher.py PAYLOAD SPANS_OUT``.  Does
what ``repro serve PAYLOAD`` does with the flags in :data:`SERVE_FLAGS`
(load the payload, open a ``Searcher``, ``run_server`` until SIGINT),
except that the session is a subclass recording a span around every
``search``/``batch_search`` the coalescer makes, keyed by request id, so
the generator can join server compute to its own request spans.  The
spans are written to SPANS_OUT when the server has drained.
"""

from __future__ import annotations

import sys
from pathlib import Path

import config
from common import COUNTERS, Tracer, query_rid

def main(payload: str, spans_out: Path) -> None:
    from repro.api import SearchOptions, Searcher, load_index
    from repro.serve import ServeConfig, run_server

    tracer = Tracer(True)

    class TracedSearcher(Searcher):
        def search(self, query, *, k=None, **overrides):
            rid = query_rid(query)
            with tracer.span("Searcher.search", rid=rid, **overrides) as attrs:
                result = super().search(query, k=k, **overrides)
            attrs["stats"] = {c: getattr(result.stats, c) for c in COUNTERS}
            return result

        def batch_search(self, queries, *, k=None, **overrides):
            rids = [query_rid(row) for row in queries]
            with tracer.span("Searcher.batch_search", rid=rids, **overrides) as attrs:
                batch = super().batch_search(queries, k=k, **overrides)
            attrs["stats"] = {c: getattr(batch.stats, c) for c in COUNTERS}
            return batch

    flags = config.SERVE_FLAGS
    with tracer.span("load_index"):
        index = load_index(payload)
    server_config = ServeConfig(
        host="127.0.0.1",
        port=0,
        max_batch=flags["max_batch"],
        max_wait_ms=flags["max_wait_ms"],
        max_queue_depth=flags["queue_depth"],
        request_timeout_ms=flags["timeout_ms"],
    )

    def announce(server) -> None:
        print(f"serving on http://127.0.0.1:{server.port}", flush=True)

    with TracedSearcher(index, SearchOptions(k=config.K)) as searcher:
        run_server(searcher, server_config, on_start=announce)
    tracer.dump(spans_out)


if __name__ == "__main__":
    main(sys.argv[1], Path(sys.argv[2]))
