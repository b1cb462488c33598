"""Save/load round-trips through the versioned, spec-stamped payloads.

Covers the satellite persistence work of the API redesign:

* ``DynamicP2HIndex`` and ``PartitionedP2HIndex`` gained the
  ``save``/``load`` every static index already had (including full
  dynamic state: buffer, tombstones, id mapping);
* every payload is stamped with a format version and the builder spec, so
  :func:`repro.api.load_index` reconstructs **any** family without naming
  its class;
* version mismatches fail with a clear error instead of corrupt state.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import IndexSpec, build_index, load_index, save_index, saved_spec
from repro.core.dynamic import DynamicP2HIndex
from repro.core.factories import DefaultBCTreeFactory
from repro.core.partitioned import PartitionedP2HIndex
from repro.utils import persistence

RNG = np.random.default_rng(5)
POINTS = RNG.normal(size=(260, 9))
QUERIES = RNG.normal(size=(5, 10))
K = 4


def _assert_same_answers(first, second):
    for query in QUERIES:
        a = first.search(query, k=K)
        b = second.search(query, k=K)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.distances, b.distances)


class TestPartitionedPersistence:
    def test_round_trip_with_default_factory(self, tmp_path):
        index = PartitionedP2HIndex(
            num_partitions=3, strategy="contiguous", random_state=0
        ).fit(POINTS)
        path = tmp_path / "partitioned.idx"
        index.save(path)
        loaded = PartitionedP2HIndex.load(path)
        assert loaded.shard_sizes() == index.shard_sizes()
        _assert_same_answers(index, loaded)

    def test_round_trip_through_api_with_spec(self, tmp_path):
        spec = IndexSpec("partitioned", {
            "num_partitions": 3,
            "strategy": "contiguous",
            "random_state": 0,
            "index": {"kind": "bc_tree",
                      "params": {"leaf_size": 32, "random_state": 0}},
        })
        index = build_index(spec).fit(POINTS)
        path = tmp_path / "partitioned_api.idx"
        save_index(index, path)
        loaded, loaded_spec = load_index(path, with_spec=True)
        assert loaded_spec == spec
        assert saved_spec(path) == spec
        assert isinstance(loaded, PartitionedP2HIndex)
        _assert_same_answers(index, loaded)

    def test_unfitted_save_rejected(self, tmp_path):
        from repro.core.index_base import NotFittedError

        with pytest.raises(NotFittedError):
            PartitionedP2HIndex(num_partitions=2).save(tmp_path / "x.idx")

    def test_load_rejects_wrong_class(self, tmp_path):
        index = PartitionedP2HIndex(
            num_partitions=2, strategy="contiguous", random_state=0
        ).fit(POINTS)
        path = tmp_path / "partitioned.idx"
        index.save(path)
        with pytest.raises(TypeError, match="DynamicP2HIndex"):
            DynamicP2HIndex.load(path)


class TestDynamicPersistence:
    def test_round_trip_preserves_buffer_and_tombstones(self, tmp_path):
        index = DynamicP2HIndex(random_state=0, auto_rebuild=False)
        ids = index.insert(POINTS)
        index.rebuild()
        index.insert(RNG.normal(size=(20, 9)))     # stays in the buffer
        index.delete(ids[:7])                      # stays tombstoned
        assert index.buffer_size == 20 and index.num_tombstones == 7

        path = tmp_path / "dynamic.idx"
        index.save(path)
        loaded = DynamicP2HIndex.load(path)
        assert loaded.buffer_size == index.buffer_size
        assert loaded.num_tombstones == index.num_tombstones
        assert loaded.num_points == index.num_points
        _assert_same_answers(index, loaded)

        # Updates keep working after the reload (factory survived).
        more = loaded.insert(RNG.normal(size=(10, 9)))
        assert more.size == 10
        loaded.rebuild()
        assert loaded.num_tombstones == 0

    def test_payload_with_tombstone_set_layout_loads(self, tmp_path):
        """Payloads pickled before the live masks (a ``_tombstones`` set and
        ``_buffer_ids``/``_buffer_points`` lists; cluster directories saved
        then hold such shards) load with the same state and answers as the
        same history built fresh."""
        factory = DefaultBCTreeFactory(0)
        extra = np.random.default_rng(8).normal(size=(20, 9))
        n = len(POINTS)
        deleted = [0, 1, 2, 3, 4, 5, 6, n + 2, n + 15]
        fresh = DynamicP2HIndex(factory, auto_rebuild=False)
        fresh.insert(POINTS)
        fresh.rebuild()
        fresh.insert(extra)
        fresh.delete(deleted)
        old_state = {
            "index_factory": factory,
            "rebuild_threshold": 0.25,
            "auto_rebuild": False,
            "_static_index": factory().fit(POINTS),
            "_static_ids": np.arange(n, dtype=np.int64),
            "_static_points": POINTS.copy(),
            "_buffer_ids": list(range(n, n + 20)),
            "_buffer_points": [row.copy() for row in extra],
            "_tombstones": set(deleted),
            "_next_id": n + 20,
            "num_rebuilds": 1,
            "_mutation_version": 4,
        }
        old = DynamicP2HIndex.__new__(DynamicP2HIndex)
        old.__dict__.update(old_state)  # pickled as its state, verbatim
        path = tmp_path / "old_layout.idx"
        persistence.dump_index_payload(path, old)
        loaded = [DynamicP2HIndex.load(path), load_index(path)]
        for index in [fresh] + loaded:
            assert isinstance(index, DynamicP2HIndex)
            assert index.num_points == n + 20 - 9
            assert index.buffer_size == 20
            assert index.num_tombstones == 9
        for index in loaded:
            _assert_same_answers(fresh, index)
            with pytest.raises(KeyError, match="deleted"):
                index.point(n + 2)
            np.testing.assert_array_equal(index.point(n + 3), extra[3])
            index.rebuild()
            assert index.num_tombstones == 0 and index.buffer_size == 0
        fresh.rebuild()
        for index in loaded:
            _assert_same_answers(fresh, index)

    def test_round_trip_through_api_with_spec(self, tmp_path):
        spec = IndexSpec("dynamic", {
            "random_state": 0,
            "index": {"kind": "ball_tree",
                      "params": {"leaf_size": 32, "random_state": 0}},
        })
        index = build_index(spec)
        index.insert(POINTS)
        path = tmp_path / "dynamic_api.idx"
        index.save(path)
        loaded, loaded_spec = load_index(path, with_spec=True)
        assert loaded_spec == spec
        assert isinstance(loaded, DynamicP2HIndex)
        assert type(loaded.index_factory()).__name__ == "BallTree"
        _assert_same_answers(index, loaded)


class TestFamilyAgnosticLoad:
    @pytest.mark.parametrize("kind,params", [
        ("bc_tree", {"leaf_size": 32, "random_state": 1}),
        ("nh", {"num_tables": 8, "random_state": 1}),
        ("linear_scan", {}),
    ])
    def test_load_index_reconstructs_without_class(self, tmp_path, kind, params):
        index = build_index(kind, **params).fit(POINTS)
        path = tmp_path / f"{kind}.idx"
        index.save(path)
        loaded, spec = load_index(path, with_spec=True)
        assert spec == IndexSpec(kind, params)
        assert type(loaded) is type(index)
        _assert_same_answers(index, loaded)

    def test_directly_constructed_index_has_no_spec(self, tmp_path):
        from repro.core.bc_tree import BCTree

        index = BCTree(leaf_size=32, random_state=0).fit(POINTS)
        path = tmp_path / "raw.idx"
        index.save(path)
        loaded, spec = load_index(path, with_spec=True)
        assert spec is None
        _assert_same_answers(index, loaded)


class TestFormatVersioning:
    def test_version_mismatch_rejected_with_clear_error(self, tmp_path):
        index = build_index("bc_tree", leaf_size=32).fit(POINTS)
        path = tmp_path / "future.idx"
        index.save(path)
        # Rewrite the header frame with a future version, keeping the
        # index frame intact.
        with path.open("rb") as handle:
            header = pickle.load(handle)
            index_frame = handle.read()
        header["format_version"] = persistence.FORMAT_VERSION + 1
        path.write_bytes(pickle.dumps(header) + index_frame)
        with pytest.raises(ValueError, match="format version"):
            load_index(path)
        with pytest.raises(ValueError, match="format version"):
            saved_spec(path)

    def test_header_frame_carries_format_stamp_and_spec(self, tmp_path):
        index = build_index("bc_tree", leaf_size=32).fit(POINTS)
        path = tmp_path / "stamped.idx"
        index.save(path)
        # The first pickle frame alone holds the stamp and the spec, so
        # inspection never unpickles the index.
        with path.open("rb") as handle:
            header = pickle.load(handle)
        assert header["format"] == persistence.FORMAT_NAME
        assert header["format_version"] == persistence.FORMAT_VERSION
        assert header["spec"]["kind"] == "bc_tree"
        assert saved_spec(path) == IndexSpec("bc_tree", {"leaf_size": 32})

    def test_legacy_raw_pickle_still_loads(self, tmp_path):
        index = build_index("bc_tree", leaf_size=32).fit(POINTS)
        path = tmp_path / "legacy.idx"
        path.write_bytes(pickle.dumps(index))
        loaded, spec = load_index(path, with_spec=True)
        assert spec is None
        assert saved_spec(path) is None
        _assert_same_answers(index, loaded)

    def test_payload_without_index_rejected(self, tmp_path):
        path = tmp_path / "broken.idx"
        path.write_bytes(pickle.dumps({
            "format": persistence.FORMAT_NAME,
            "format_version": persistence.FORMAT_VERSION,
        }))
        with pytest.raises(ValueError, match="no index"):
            load_index(path)
