"""Tests for the pluggable storage layer (:mod:`repro.storage`).

Covers the :class:`StorageSpec` knob, the three backends (resident
float64 / float32, mmap), the row-level I/O helpers behind the chunked
build path, the one-resident-copy contract of the tree families, the
memory-bounded :meth:`fit_chunked` build, and the persistence edge cases
(nested composites with mmap sub-indexes, version mismatches, legacy
payloads without storage headers).
"""

from __future__ import annotations

import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import BallTree, BCTree, KDTree, LinearScan, RPTree
from repro.api import (
    IndexSpec,
    SpecIndexFactory,
    describe_index,
    load_index,
    save_index,
)
from repro.core.chunked import chunked_fit
from repro.core.distances import augment_points
from repro.core.index_base import P2HIndex
from repro.core.dynamic import DynamicP2HIndex
from repro.core.partitioned import PartitionedP2HIndex
from repro.storage import (
    ArrayRowSource,
    MmapStore,
    NpyRowReader,
    RamStore,
    StorageSpec,
    as_row_source,
    balanced_chunks,
    combined_storage_header,
    rows_in_budget,
    sidecar_path,
    take_rows,
)
from repro.storage import chunking
from repro.utils.persistence import (
    FORMAT_NAME,
    FORMAT_VERSION,
    load_index_payload,
    read_storage_header,
)

TREE_FAMILIES = (BallTree, BCTree, RPTree, KDTree)


def _tree(cls, **kwargs):
    """A family instance with a fixed seed where the family takes one."""
    if cls is not KDTree:
        kwargs.setdefault("random_state", 3)
    return cls(**kwargs)


# ---------------------------------------------------------------- StorageSpec


class TestStorageSpec:
    def test_default(self):
        spec = StorageSpec.coerce(None)
        assert (spec.backend, spec.dtype) == ("ram", "float64")

    @pytest.mark.parametrize(
        "alias, expected",
        [
            ("ram", ("ram", "float64")),
            ("float64", ("ram", "float64")),
            ("float32", ("ram", "float32")),
            ("ram32", ("ram", "float32")),
            ("mmap", ("mmap", "float64")),
            ("mmap32", ("mmap", "float32")),
        ],
    )
    def test_string_aliases(self, alias, expected):
        spec = StorageSpec.coerce(alias)
        assert (spec.backend, spec.dtype) == expected

    def test_dict_and_spec_pass_through(self):
        spec = StorageSpec.coerce({"backend": "mmap", "dtype": "float32"})
        assert spec == StorageSpec(backend="mmap", dtype="float32")
        assert StorageSpec.coerce(spec) is spec

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="unknown storage shorthand"):
            StorageSpec.coerce("tape")
        with pytest.raises(ValueError, match="backend"):
            StorageSpec(backend="tape")
        with pytest.raises(ValueError, match="dtype"):
            StorageSpec(dtype="float16")
        with pytest.raises(ValueError, match="unknown storage keys"):
            StorageSpec.coerce({"backend": "ram", "compression": "zstd"})
        with pytest.raises(TypeError):
            StorageSpec.coerce(42)

    def test_directory_is_mmap_only(self, tmp_path):
        spec = StorageSpec(backend="mmap", directory=str(tmp_path))
        assert spec.create_store().backend == "mmap"
        with pytest.raises(ValueError, match="directory"):
            StorageSpec(backend="ram", directory=str(tmp_path))

    def test_to_header_omits_directory(self, tmp_path):
        spec = StorageSpec(backend="mmap", directory=str(tmp_path))
        assert spec.to_header() == {"backend": "mmap", "dtype": "float64"}

    def test_combined_storage_header(self):
        ram = RamStore()
        assert combined_storage_header([ram, RamStore()]) == ram.to_header()
        assert combined_storage_header([ram, RamStore("float32")]) is None
        assert combined_storage_header([]) is None


# ------------------------------------------------------------------- backends


class TestRamStore:
    def test_float64_put_is_identity(self):
        store = RamStore()
        array = np.ascontiguousarray(np.arange(12, dtype=np.float64))
        assert store.put("points", array) is array
        assert store.get("points") is array

    def test_float32_put_casts(self):
        store = RamStore("float32")
        stored = store.put("points", np.arange(6, dtype=np.float64))
        assert stored.dtype == np.float32

    def test_integer_arrays_kept_as_given(self):
        store = RamStore("float32")
        perm = np.arange(5, dtype=np.int64)
        assert store.put("perm", perm).dtype == np.int64

    def test_derive_caches_the_cast(self):
        store = RamStore()
        store.put("points", np.arange(8, dtype=np.float64).reshape(2, 4))
        first = store.derive("points", np.float32)
        assert first.dtype == np.float32
        assert store.derive("points", np.float32) is first
        assert store.derive("points", np.float64) is store.get("points")

    def test_writer_round_trip(self):
        store = RamStore()
        writer = store.writer("block", (4, 3))
        writer.write(2, np.full((2, 3), 7.0))
        writer.write(0, np.full((2, 3), 1.0))
        np.testing.assert_array_equal(writer.read(2, 4), np.full((2, 3), 7.0))
        sealed = writer.close()
        assert sealed is store.get("block")


class TestMmapStore:
    def test_put_get_round_trip(self):
        store = MmapStore()
        data = np.random.default_rng(0).normal(size=(20, 4))
        stored = store.put("points", data)
        assert isinstance(stored, np.memmap)
        assert not stored.flags.writeable
        np.testing.assert_array_equal(np.asarray(stored), data)
        assert "points" in store and store.names() == ("points",)

    def test_create_finalize(self):
        store = MmapStore()
        block = store.create("x", (3, 2))
        block[:] = 5.0
        sealed = store.finalize("x")
        assert not sealed.flags.writeable
        np.testing.assert_array_equal(np.asarray(sealed), np.full((3, 2), 5.0))

    def test_file_writer_round_trip(self):
        store = MmapStore()
        data = np.random.default_rng(1).normal(size=(10, 3))
        writer = store.writer("leaf", (10, 3))
        writer.write(6, data[6:])
        writer.write(0, data[:6])
        np.testing.assert_array_equal(writer.read(2, 7), data[2:7])
        sealed = writer.close()
        assert isinstance(sealed, np.memmap)
        np.testing.assert_array_equal(np.asarray(sealed), data)

    def test_pickle_carries_paths_not_bytes(self):
        store = MmapStore()
        data = np.arange(2000, dtype=np.float64).reshape(100, 20)
        store.put("points", data)
        payload = pickle.dumps(store)
        assert len(payload) < data.nbytes / 10
        clone = pickle.loads(payload)
        np.testing.assert_array_equal(np.asarray(clone.get("points")), data)

    def test_derive_streams_to_disk(self):
        store = MmapStore()
        data = np.random.default_rng(2).normal(size=(50, 8))
        store.put("points", data)
        derived = store.derive("points", np.float32)
        assert isinstance(derived, np.memmap)
        np.testing.assert_array_equal(
            np.asarray(derived), data.astype(np.float32)
        )

    def test_persist_rehomes_into_sidecar(self, tmp_path):
        store = MmapStore()
        data = np.arange(12, dtype=np.float64).reshape(4, 3)
        store.put("points", data)
        store.persist(tmp_path / "idx.bin.arrays", "store0")
        assert (tmp_path / "idx.bin.arrays" / "store0" / "points.npy").is_file()
        np.testing.assert_array_equal(np.asarray(store.get("points")), data)


# ------------------------------------------------------------ row-level I/O


class TestNpyRowIO:
    @pytest.fixture()
    def matrix_file(self, tmp_path):
        data = np.random.default_rng(3).normal(size=(200, 7))
        path = tmp_path / "m.npy"
        np.save(path, data)
        return path, data

    def test_read_ranges(self, matrix_file):
        path, data = matrix_file
        with NpyRowReader(path) as reader:
            assert reader.shape == data.shape
            np.testing.assert_array_equal(reader.read(0, 10), data[:10])
            np.testing.assert_array_equal(reader.read(150, 200), data[150:])

    def test_gather_matches_fancy_indexing(self, matrix_file):
        path, data = matrix_file
        rng = np.random.default_rng(4)
        indices = rng.integers(0, 200, size=75)
        with NpyRowReader(path) as reader:
            np.testing.assert_array_equal(reader.gather(indices), data[indices])
            # A tiny span limit forces many separate reads; result is the same.
            np.testing.assert_array_equal(
                reader.gather(indices, max_span=3), data[indices]
            )

    def test_rejects_non_matrix(self, tmp_path):
        path = tmp_path / "v.npy"
        np.save(path, np.arange(5.0))
        with pytest.raises(ValueError):
            NpyRowReader(path)

    def test_as_row_source_dispatch(self, matrix_file):
        path, data = matrix_file
        assert isinstance(as_row_source(str(path)), NpyRowReader)
        wrapped = as_row_source(data)
        assert isinstance(wrapped, ArrayRowSource)
        np.testing.assert_array_equal(wrapped.gather(np.array([3, 1])), data[[3, 1]])
        reader = NpyRowReader(path)
        assert as_row_source(reader) is reader


class TestChunking:
    def test_balanced_chunks_cover_range(self):
        chunks = balanced_chunks(1000, 170)
        assert chunks[0][0] == 0 and chunks[-1][1] == 1000
        for (_, prev_hi), (lo, _) in zip(chunks, chunks[1:]):
            assert prev_hi == lo
        sizes = [hi - lo for lo, hi in chunks]
        assert max(sizes) <= 170
        assert max(sizes) - min(sizes) <= 1

    def test_rows_in_budget_floor(self):
        assert rows_in_budget(1, 1000) == 1
        assert rows_in_budget(8000, 10) == 100

    @pytest.mark.parametrize("block_bytes", [chunking.TAKE_BLOCK_BYTES, 3 * 9 * 8])
    def test_take_rows_matches_fancy_indexing(
        self, tmp_path, monkeypatch, block_bytes
    ):
        """Full-width and leading-column gathers, from a memory map too,
        through one block or several (3 rows a block here)."""
        monkeypatch.setattr(chunking, "TAKE_BLOCK_BYTES", block_bytes)
        source = np.random.default_rng(2).normal(size=(50, 9))
        np.save(tmp_path / "rows.npy", source)
        mapped = np.load(tmp_path / "rows.npy", mmap_mode="r")
        rows = np.array([49, 0, 7, 7, 31, 2, 18, 40])
        for src in (source, mapped):
            for width in (9, 8, 1):
                out = np.empty((rows.size, width))
                assert take_rows(src, rows, out) is out
                assert out.tobytes() == source[rows, :width].tobytes()
        empty = np.empty((0, 8))
        assert take_rows(source, rows[:0], empty).shape == (0, 8)


# ------------------------------------------------- one-resident-copy contract


class TestOneResidentCopy:
    def test_tree_families_keep_only_leaf_copy(self, small_clustered_data):
        for cls in TREE_FAMILIES:
            index = _tree(cls, leaf_size=32).fit(small_clustered_data)
            assert index._points is None, cls.__name__
            assert index._store.names() == ("points_leaf",), cls.__name__

    def test_points_property_rebuilds_without_caching(self, small_clustered_data):
        index = _tree(BCTree, leaf_size=32).fit(small_clustered_data)
        expected = augment_points(np.asarray(small_clustered_data, dtype=np.float64))
        rebuilt = index.points
        np.testing.assert_array_equal(rebuilt, expected)
        assert index._points is None  # the rebuild is not kept resident
        assert rebuilt is not index.points

    def test_non_tree_indexes_keep_the_matrix(self, small_clustered_data):
        index = LinearScan().fit(small_clustered_data)
        assert index._points is not None
        assert "points" in index._store


# ------------------------------------------------------------ chunked builds


class TestChunkedFit:
    def test_big_budget_is_bit_identical_to_fit(self, small_clustered_data):
        for cls in TREE_FAMILIES:
            fitted = _tree(cls, leaf_size=25).fit(small_clustered_data)
            chunked = _tree(cls, leaf_size=25).fit_chunked(
                small_clustered_data, memory_budget_mb=512.0
            )
            np.testing.assert_array_equal(fitted.tree.perm, chunked.tree.perm)
            np.testing.assert_array_equal(fitted.tree.start, chunked.tree.start)
            np.testing.assert_array_equal(
                fitted.tree.left_child, chunked.tree.left_child
            )
            if cls is KDTree:
                np.testing.assert_array_equal(fitted.tree.lower, chunked.tree.lower)
                np.testing.assert_array_equal(fitted.tree.upper, chunked.tree.upper)
            else:
                np.testing.assert_array_equal(
                    fitted.tree.centers, chunked.tree.centers
                )
                np.testing.assert_array_equal(fitted.tree.radii, chunked.tree.radii)
            np.testing.assert_array_equal(
                np.asarray(fitted._leaf_points()),
                np.asarray(chunked._leaf_points()),
            )
            if cls is BCTree:
                np.testing.assert_array_equal(
                    fitted.point_radius, chunked.point_radius
                )
                np.testing.assert_array_equal(fitted.point_cos, chunked.point_cos)
                np.testing.assert_array_equal(fitted.point_sin, chunked.point_sin)

    @pytest.mark.parametrize("storage", [None, "mmap"])
    def test_small_budget_stays_exact(
        self, small_clustered_data, small_queries, storage
    ):
        truth = LinearScan().fit(small_clustered_data)
        # ~120 rows in the subtree budget => the top splits run streamed.
        dim = small_clustered_data.shape[1] + 1
        tiny_mb = (120 * dim * 8 * 4) / (1 << 20)
        for cls in TREE_FAMILIES:
            index = _tree(cls, leaf_size=25, storage=storage).fit_chunked(
                small_clustered_data, memory_budget_mb=tiny_mb
            )
            for query in small_queries:
                expected = truth.search(query, k=10)
                got = index.search(query, k=10)
                np.testing.assert_allclose(
                    got.distances, expected.distances, rtol=1e-12, atol=1e-12
                )

    def test_small_budget_batch_matches_sequential(
        self, small_clustered_data, small_queries
    ):
        index = _tree(BCTree, leaf_size=25, storage="mmap").fit_chunked(
            small_clustered_data, memory_budget_mb=0.1
        )
        batch = index.batch_search(small_queries, k=10, n_jobs=2)
        for query, got in zip(small_queries, batch):
            expected = index.search(query, k=10)
            np.testing.assert_array_equal(got.indices, expected.indices)

    def test_builds_from_npy_path(self, tmp_path, small_clustered_data, small_queries):
        path = tmp_path / "data.npy"
        np.save(path, np.asarray(small_clustered_data, dtype=np.float64))
        truth = LinearScan().fit(small_clustered_data)
        index = _tree(BCTree, leaf_size=25, storage="mmap").fit_chunked(
            str(path), memory_budget_mb=0.1
        )
        for query in small_queries:
            np.testing.assert_allclose(
                index.search(query, k=5).distances,
                truth.search(query, k=5).distances,
                rtol=1e-12,
                atol=1e-12,
            )

    def test_save_load_round_trip(self, tmp_path, small_clustered_data, small_queries):
        index = _tree(BCTree, leaf_size=25, storage="mmap").fit_chunked(
            small_clustered_data, memory_budget_mb=0.1
        )
        index.save(tmp_path / "idx.bin")
        loaded = BCTree.load(tmp_path / "idx.bin")
        for query in small_queries:
            np.testing.assert_array_equal(
                loaded.search(query, k=5).indices,
                index.search(query, k=5).indices,
            )

    def test_rejects_bad_inputs(self, small_clustered_data):
        with pytest.raises(ValueError, match="memory_budget_mb"):
            _tree(BallTree).fit_chunked(small_clustered_data, memory_budget_mb=0.0)
        with pytest.raises(TypeError, match="tree families"):
            chunked_fit(LinearScan(), small_clustered_data)
        bad = np.array([[0.0, 1.0], [np.nan, 2.0]])
        with pytest.raises(ValueError, match="finite"):
            _tree(BallTree).fit_chunked(bad)
        not_augmented = np.array([[0.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="last column"):
            _tree(BallTree, augment=False).fit_chunked(not_augmented)


# ---------------------------------------------------------- storage migration


class TestToStorage:
    def test_migrate_to_mmap_preserves_results(
        self, small_clustered_data, small_queries
    ):
        index = _tree(BCTree, leaf_size=32).fit(small_clustered_data)
        expected = [index.search(q, k=10) for q in small_queries]
        assert index.to_storage("mmap") is index
        assert index._store.backend == "mmap"
        for query, before in zip(small_queries, expected):
            after = index.search(query, k=10)
            np.testing.assert_array_equal(after.indices, before.indices)
            np.testing.assert_array_equal(after.distances, before.distances)

    def test_same_spec_is_a_no_op(self, small_clustered_data):
        index = _tree(BallTree).fit(small_clustered_data)
        store = index._store
        index.to_storage(None)
        assert index._store is store

    def test_float32_halves_leaf_bytes(self, small_clustered_data):
        index64 = _tree(BallTree).fit(small_clustered_data)
        index32 = _tree(BallTree, storage="float32").fit(small_clustered_data)
        assert (
            np.asarray(index32._leaf_points()).nbytes
            == np.asarray(index64._leaf_points()).nbytes // 2
        )


# ------------------------------------------------------- persistence contracts


class TestPersistenceEdgeCases:
    def test_version_mismatch_raises(self, tmp_path, small_clustered_data):
        index = _tree(BallTree).fit(small_clustered_data)
        path = tmp_path / "future.bin"
        with path.open("wb") as handle:
            pickle.dump(
                {"format": FORMAT_NAME, "format_version": FORMAT_VERSION + 1},
                handle,
            )
            pickle.dump(index, handle)
        with pytest.raises(ValueError, match="format version"):
            load_index_payload(path)
        with pytest.raises(ValueError, match="format version"):
            describe_index(path)

    def test_legacy_payload_without_storage_key(
        self, tmp_path, small_clustered_data, small_queries
    ):
        """Headers from before the storage layer read back with None."""
        index = _tree(BCTree, leaf_size=32).fit(small_clustered_data)
        path = tmp_path / "old.bin"
        with path.open("wb") as handle:
            pickle.dump(
                {"format": FORMAT_NAME, "format_version": FORMAT_VERSION,
                 "spec": None},
                handle,
            )
            pickle.dump(index, handle)
        payload = load_index_payload(path)
        assert payload["storage"] is None
        assert payload["storage_dtype"] is None
        loaded = payload["index"]
        np.testing.assert_array_equal(
            loaded.search(small_queries[0], k=5).indices,
            index.search(small_queries[0], k=5).indices,
        )
        description = describe_index(path)
        assert description.format_version == FORMAT_VERSION
        assert description.storage is None

    def test_legacy_raw_pickle(self, tmp_path, small_clustered_data):
        index = _tree(BallTree).fit(small_clustered_data)
        path = tmp_path / "raw.pkl"
        with path.open("wb") as handle:
            pickle.dump(index, handle)
        loaded = load_index(path)
        assert isinstance(loaded, BallTree)
        description = describe_index(path)
        assert description.format_version is None
        assert description.storage is None

    @pytest.mark.parametrize("composite", ["dynamic", "partitioned"])
    def test_nested_composite_with_mmap_subindexes(
        self, tmp_path, small_clustered_data, small_queries, composite
    ):
        factory = SpecIndexFactory(
            IndexSpec(
                "bc_tree",
                {"leaf_size": 32, "random_state": 0, "storage": "mmap"},
            )
        )
        if composite == "dynamic":
            index = DynamicP2HIndex(index_factory=factory)
            index.insert(small_clustered_data)
            index.rebuild()
        else:
            index = PartitionedP2HIndex(
                num_partitions=2, index_factory=factory, random_state=0
            )
            index.fit(small_clustered_data)
        expected = [index.search(q, k=10) for q in small_queries]

        path = tmp_path / f"{composite}.bin"
        save_index(index, path)
        # The shared storage header survives the composite round trip...
        assert read_storage_header(path) == {"backend": "mmap", "dtype": "float64"}
        # ...and the sidecar holds one sub-directory per mmap sub-store.
        sidecar = sidecar_path(path)
        stores = sorted(p.name for p in sidecar.iterdir())
        assert stores == [f"store{i}" for i in range(len(stores))]
        assert len(stores) == (1 if composite == "dynamic" else 2)

        loaded = load_index(path)
        for query, before in zip(small_queries, expected):
            after = loaded.search(query, k=10)
            np.testing.assert_array_equal(after.indices, before.indices)

    def test_relocated_payload_and_sidecar_still_serve(
        self, tmp_path, small_clustered_data, small_queries
    ):
        index = _tree(BCTree, leaf_size=32, storage="mmap").fit(
            small_clustered_data
        )
        original = tmp_path / "a" / "idx.bin"
        index.save(original)
        expected = index.search(small_queries[0], k=10)

        moved = tmp_path / "b" / "renamed.bin"
        moved.parent.mkdir()
        shutil.move(str(original), str(moved))
        shutil.move(str(sidecar_path(original)), str(sidecar_path(moved)))
        loaded = load_index(moved)
        got = loaded.search(small_queries[0], k=10)
        np.testing.assert_array_equal(got.indices, expected.indices)


class TestStoreHeldMatrixSavedOnce:
    """An index whose store holds its ``"points"`` (``LinearScan``) pickles
    the matrix only through the store, and re-attaches it on load."""

    @staticmethod
    def _assert_same_answers(index, queries, expected):
        for query, before in zip(queries, expected):
            after = index.search(query, k=10)
            np.testing.assert_array_equal(after.indices, before.indices)
            assert after.distances.tobytes() == before.distances.tobytes()

    @pytest.mark.parametrize("storage", ["ram", "mmap"])
    def test_round_trip(
        self, tmp_path, small_clustered_data, small_queries, storage
    ):
        index = LinearScan(storage=storage).fit(small_clustered_data)
        expected = [index.search(query, k=10) for query in small_queries]
        path = tmp_path / "scan.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded._points is loaded._store.get("points")
        if storage == "mmap":
            # Only the sidecar holds the matrix, and the loaded index
            # serves straight from it.
            assert path.stat().st_size < index._points.nbytes / 10
            assert Path(loaded._points.filename).resolve().is_relative_to(
                sidecar_path(path).resolve()
            )
        self._assert_same_answers(loaded, small_queries, expected)

    @pytest.mark.parametrize("storage", ["ram", "mmap"])
    def test_payload_that_pickled_the_matrix_still_loads(
        self, tmp_path, monkeypatch, small_clustered_data, small_queries, storage
    ):
        index = LinearScan(storage=storage).fit(small_clustered_data)
        expected = [index.search(query, k=10) for query in small_queries]
        path = tmp_path / "old.bin"
        with monkeypatch.context() as patch:
            # The earlier layout: every attribute but the engine cache.
            patch.setattr(
                P2HIndex,
                "__getstate__",
                lambda self: dict(self.__dict__, _engine_cache=None),
            )
            save_index(index, path)
        loaded = load_index(path)
        assert loaded._points is loaded._store.get("points")
        self._assert_same_answers(loaded, small_queries, expected)


class TestDescribeIndex:
    def test_describes_saved_mmap_index(self, tmp_path, small_clustered_data):
        index = _tree(BCTree, leaf_size=32, storage="mmap").fit(
            small_clustered_data
        )
        path = tmp_path / "idx.bin"
        index.save(path)
        description = describe_index(path)
        assert description.format_version == FORMAT_VERSION
        assert description.storage == {"backend": "mmap", "dtype": "float64"}
        assert description.payload_bytes > 0
        n, d = small_clustered_data.shape
        assert description.sidecar_bytes >= n * (d + 1) * 8

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            describe_index(tmp_path / "absent.bin")


class TestSidecarVerification:
    """describe_index must refuse half-copied mmap artifacts, by name."""

    def _saved_mmap_payload(self, tmp_path, data):
        index = _tree(BCTree, leaf_size=32, storage="mmap").fit(data)
        path = tmp_path / "idx.bin"
        index.save(path)
        return path

    def test_missing_sidecar_directory_named(
        self, tmp_path, small_clustered_data
    ):
        path = self._saved_mmap_payload(tmp_path, small_clustered_data)
        sidecar = sidecar_path(path)
        shutil.rmtree(sidecar)
        with pytest.raises(ValueError, match="missing") as err:
            describe_index(path)
        assert str(sidecar) in str(err.value)

    def test_truncated_sidecar_array_named(
        self, tmp_path, small_clustered_data
    ):
        path = self._saved_mmap_payload(tmp_path, small_clustered_data)
        victim = next(sidecar_path(path).rglob("*.npy"))
        complete = victim.stat().st_size
        with victim.open("rb+") as handle:
            handle.truncate(complete - 64)
        with pytest.raises(ValueError, match="truncated") as err:
            describe_index(path)
        assert str(victim) in str(err.value)
        assert str(complete) in str(err.value)  # expected size is reported

    def test_empty_sidecar_directory_rejected(
        self, tmp_path, small_clustered_data
    ):
        path = self._saved_mmap_payload(tmp_path, small_clustered_data)
        sidecar = sidecar_path(path)
        for file in sidecar.rglob("*.npy"):
            file.unlink()
        with pytest.raises(ValueError, match="no .npy arrays"):
            describe_index(path)

    def test_corrupt_npy_header_rejected(self, tmp_path, small_clustered_data):
        path = self._saved_mmap_payload(tmp_path, small_clustered_data)
        victim = next(sidecar_path(path).rglob("*.npy"))
        victim.write_bytes(b"not a numpy file")
        with pytest.raises(ValueError, match="corrupt") as err:
            describe_index(path)
        assert str(victim) in str(err.value)

    def test_ram_payload_needs_no_sidecar(self, tmp_path, small_clustered_data):
        index = _tree(BCTree, leaf_size=32).fit(small_clustered_data)
        path = tmp_path / "ram.bin"
        index.save(path)
        assert not sidecar_path(path).exists()
        description = describe_index(path)
        assert description.sidecar_bytes == 0

    def test_intact_mmap_payload_still_describes(
        self, tmp_path, small_clustered_data
    ):
        path = self._saved_mmap_payload(tmp_path, small_clustered_data)
        description = describe_index(path)
        assert description.storage == {"backend": "mmap", "dtype": "float64"}

    def test_missing_sidecar_file_named_on_first_access(
        self, tmp_path, small_clustered_data, small_queries
    ):
        """The lazy mmap open names the lost file and the one-artifact rule."""
        path = self._saved_mmap_payload(tmp_path, small_clustered_data)
        loaded = load_index(path)
        for file in sidecar_path(path).rglob("*.npy"):
            file.unlink()
        with pytest.raises(FileNotFoundError, match="one artifact"):
            loaded.search(small_queries[0], k=5)
