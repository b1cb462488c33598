"""Tests for the declarative public API: specs, registry, options.

The parity of the :class:`repro.api.Searcher` session against the per-call
batch path lives in ``tests/test_searcher.py``; persistence round-trips in
``tests/test_api_persistence.py``.  This module covers the declarative
layer itself:

* the registry builds **every** index family from a kind string, an
  :class:`IndexSpec`, a plain dict, and a JSON string;
* ``spec -> build -> to_dict -> from_dict -> build`` is an equivalence
  (the rebuilt index searches identically);
* :class:`SearchOptions` centralizes validation of the previously
  family-dependent bad combinations.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.api import (
    IndexSpec,
    SearchOptions,
    SpecIndexFactory,
    available_indexes,
    build_index,
    index_family,
    register_index,
)

RNG = np.random.default_rng(11)
POINTS = RNG.normal(size=(300, 12))
QUERIES = RNG.normal(size=(6, 13))

#: One representative constructor configuration per registered family.
FAMILY_SPECS = {
    "ball_tree": {"leaf_size": 32, "random_state": 3},
    "bc_tree": {"leaf_size": 32, "random_state": 3},
    "kd_tree": {"leaf_size": 32},
    "rp_tree": {"leaf_size": 32, "random_state": 3},
    "linear_scan": {},
    "mips": {"leaf_size": 32, "random_state": 3},
    "nh": {"num_tables": 8, "random_state": 3},
    "fh": {"num_tables": 8, "num_partitions": 2, "random_state": 3},
    "bh": {"num_tables": 8, "bits_per_table": 4, "random_state": 3},
    "mh": {"num_tables": 8, "order": 2, "bits_per_table": 4, "random_state": 3},
    "ah": {"num_tables": 8, "bits_per_table": 4, "random_state": 3},
    "eh": {"num_tables": 8, "bits_per_table": 4, "random_state": 3},
    "dynamic": {
        "random_state": 3,
        "index": {"kind": "bc_tree", "params": {"leaf_size": 32,
                                                "random_state": 3}},
    },
    "partitioned": {
        "num_partitions": 3,
        "strategy": "contiguous",
        "random_state": 3,
        "index": {"kind": "bc_tree", "params": {"leaf_size": 32,
                                                "random_state": 3}},
    },
}


def _fit(kind, index):
    """Fit the built index on the shared point set, per family contract."""
    if kind == "dynamic":
        index.insert(POINTS)
        return index
    return index.fit(POINTS)


def _reference_search(kind, index):
    query = QUERIES[0] if kind != "mips" else POINTS[0]
    result = index.search(query, k=5)
    return np.asarray(result.indices), np.asarray(result.distances)


class TestRegistry:
    def test_every_family_is_registered(self):
        assert set(FAMILY_SPECS) == set(available_indexes())

    @pytest.mark.parametrize("kind", sorted(FAMILY_SPECS))
    def test_build_from_kind_string(self, kind):
        index = build_index(kind, **FAMILY_SPECS[kind])
        assert index is not None
        assert index._api_spec["kind"] == kind

    @pytest.mark.parametrize("kind", sorted(FAMILY_SPECS))
    def test_spec_dict_json_round_trip_builds_equivalent_index(self, kind):
        spec = IndexSpec(kind, FAMILY_SPECS[kind])
        rebuilt_spec = IndexSpec.from_json(spec.to_json())
        assert rebuilt_spec == spec
        assert IndexSpec.from_dict(spec.to_dict()) == spec

        first = _fit(kind, build_index(spec))
        second = _fit(kind, build_index(rebuilt_spec))
        idx1, d1 = _reference_search(kind, first)
        idx2, d2 = _reference_search(kind, second)
        np.testing.assert_array_equal(idx1, idx2)
        np.testing.assert_array_equal(d1, d2)

    def test_build_from_plain_dict_and_inline_params(self):
        full = build_index({"kind": "bc_tree",
                            "params": {"leaf_size": 32, "random_state": 0}})
        compact = build_index({"kind": "bc_tree", "leaf_size": 32,
                               "random_state": 0})
        assert full.leaf_size == compact.leaf_size == 32

    def test_hyphen_and_case_normalization(self):
        index = build_index("BC-Tree", leaf_size=32)
        assert type(index).__name__ == "BCTree"

    def test_unknown_kind_names_available_kinds(self):
        with pytest.raises(ValueError, match="unknown index kind.*bc_tree"):
            build_index("annoy")

    def test_unknown_param_names_the_family(self):
        with pytest.raises(TypeError, match="bc_tree"):
            build_index("bc_tree", leafsize=32)

    def test_spec_with_params_rejects_extra_kwargs(self):
        with pytest.raises(ValueError, match="keyword params"):
            build_index(IndexSpec("bc_tree"), leaf_size=32)

    def test_nested_spec_rejected_for_non_composite(self):
        with pytest.raises(ValueError, match="nested"):
            build_index({"kind": "bc_tree",
                         "index": {"kind": "ball_tree"}})

    def test_register_index_rejects_duplicates_and_accepts_overwrite(self):
        marker = object()
        with pytest.raises(ValueError, match="already registered"):
            register_index("bc_tree", lambda **kw: marker)
        # Decorator form plus overwrite round-trip on a scratch name.
        @register_index("scratch_family", description="test-only")
        def build_scratch(**kwargs):
            return ("scratch", kwargs)

        try:
            assert build_index("scratch_family", a=1) == ("scratch", {"a": 1})
            register_index("scratch_family", lambda **kw: ("v2", kw),
                           overwrite=True)
            assert build_index("scratch_family") == ("v2", {})
        finally:
            from repro.api.registry import _REGISTRY
            _REGISTRY.pop("scratch_family", None)

    def test_index_family_metadata(self):
        family = index_family("partitioned")
        assert family.composite
        assert "shard" in family.description.lower()

    def test_composite_sub_index_factory_is_spec_driven(self):
        spec = IndexSpec("partitioned", FAMILY_SPECS["partitioned"])
        index = build_index(spec)
        assert isinstance(index.index_factory, SpecIndexFactory)
        assert index.index_factory.spec.kind == "bc_tree"
        sub = index.index_factory()
        assert type(sub).__name__ == "BCTree"
        assert sub.leaf_size == 32


class TestIndexSpec:
    def test_specs_are_picklable_and_hashable(self):
        spec = IndexSpec("partitioned", FAMILY_SPECS["partitioned"])
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert len({spec, clone}) == 1

    def test_hash_is_consistent_with_equality(self):
        # dict equality treats 64 and 64.0 as equal; the hash must agree.
        int_spec = IndexSpec("bc_tree", {"leaf_size": 64})
        float_spec = IndexSpec("bc_tree", {"leaf_size": 64.0})
        assert int_spec == float_spec
        assert hash(int_spec) == hash(float_spec)
        assert {int_spec: "hit"}[float_spec] == "hit"

    def test_params_are_immutable(self):
        spec = IndexSpec("bc_tree", {"leaf_size": 32})
        with pytest.raises(TypeError):
            spec.params["leaf_size"] = 64

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(ValueError, match="kind"):
            IndexSpec.from_dict({"params": {}})
        with pytest.raises(ValueError, match="not both"):
            IndexSpec.from_dict({"kind": "bc_tree", "params": {},
                                 "leaf_size": 3})
        with pytest.raises(ValueError, match="mapping"):
            IndexSpec.from_dict(["bc_tree"])
        with pytest.raises(ValueError, match="non-empty string"):
            IndexSpec("")

    def test_numpy_scalar_params_stay_hashable_and_json_safe(self):
        spec = IndexSpec("bc_tree", {
            "leaf_size": np.int64(64),
            "random_state": np.int32(7),
        })
        assert isinstance(spec.params["leaf_size"], int)
        hash(spec)  # must not raise
        assert IndexSpec.from_json(spec.to_json()) == spec
        assert build_index(spec).leaf_size == 64

    def test_nested_dict_normalized_to_spec(self):
        spec = IndexSpec("dynamic", {"index": {"kind": "ball_tree"}})
        assert isinstance(spec.params["index"], IndexSpec)
        assert spec.to_dict()["params"]["index"] == {"kind": "ball_tree",
                                                     "params": {}}


class TestSearchOptionsValidation:
    """All previously family-dependent bad combos fail in one place."""

    def test_defaults_are_valid_and_inert(self):
        options = SearchOptions()
        assert options.search_kwargs() == {}
        assert options.k == 1

    def test_both_budget_knobs_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            SearchOptions(candidate_fraction=0.5, max_candidates=10)

    def test_bad_n_jobs_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            SearchOptions(n_jobs=0)
        with pytest.raises(ValueError, match="n_jobs"):
            SearchOptions(n_jobs=-2)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            SearchOptions(executor="gevent")

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError, match="k"):
            SearchOptions(k=0)
        with pytest.raises(TypeError):
            SearchOptions(k="ten")

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="candidate_fraction"):
            SearchOptions(candidate_fraction=1.5)
        with pytest.raises(ValueError, match="candidate_fraction"):
            SearchOptions(candidate_fraction=0.0)

    def test_extra_must_not_shadow_typed_fields(self):
        with pytest.raises(ValueError, match="shadow"):
            SearchOptions(extra={"k": 3})

    def test_non_bool_flags_rejected(self):
        with pytest.raises(TypeError, match="profile"):
            SearchOptions(profile=1)

    def test_from_kwargs_lifts_known_fields(self):
        options = SearchOptions.from_kwargs(
            k=5, n_jobs=2, candidate_fraction=0.2, branch_preference="center"
        )
        assert options.k == 5
        assert options.candidate_fraction == 0.2
        assert options.extra == {"branch_preference": "center"}
        assert options.search_kwargs() == {
            "branch_preference": "center", "candidate_fraction": 0.2,
        }

    def test_replace_revalidates(self):
        options = SearchOptions(candidate_fraction=0.2)
        with pytest.raises(ValueError, match="not both"):
            options.replace(max_candidates=5)

    def test_dict_round_trip(self):
        options = SearchOptions(k=7, max_candidates=30, n_jobs=2,
                                executor="process", profile=True,
                                extra={"branch_preference": "center"})
        clone = SearchOptions.from_dict(options.to_dict())
        assert clone == options
        with pytest.raises(ValueError, match="unknown"):
            SearchOptions.from_dict({"k": 2, "jobs": 3})


class TestMemoryBudgetedBuilds:
    """``memory_budget_mb`` on IndexSpec / build_index (the chunked wiring)."""

    def test_spec_round_trips_budget(self):
        spec = IndexSpec("ball_tree", {"leaf_size": 32}, memory_budget_mb=64)
        assert spec.memory_budget_mb == 64.0
        data = spec.to_dict()
        assert data["memory_budget_mb"] == 64.0
        clone = IndexSpec.from_dict(data)
        assert clone == spec
        assert clone.memory_budget_mb == 64.0

    def test_unbudgeted_spec_dict_is_unchanged(self):
        """No budget => no key, so pre-budget spec files read back equal."""
        spec = IndexSpec("ball_tree", {"leaf_size": 32})
        assert "memory_budget_mb" not in spec.to_dict()
        assert IndexSpec.from_dict(spec.to_dict()) == spec

    def test_budget_participates_in_equality_and_hash(self):
        plain = IndexSpec("ball_tree", {"leaf_size": 32})
        budgeted = IndexSpec("ball_tree", {"leaf_size": 32},
                             memory_budget_mb=64.0)
        assert plain != budgeted
        assert hash(plain) != hash(budgeted)

    @pytest.mark.parametrize("bad", [0, -1.5, "64", True])
    def test_invalid_budget_rejected(self, bad):
        with pytest.raises((TypeError, ValueError)):
            IndexSpec("ball_tree", {}, memory_budget_mb=bad)

    def test_budgeted_build_matches_resident_build(self):
        resident = build_index(
            "ball_tree", leaf_size=32, random_state=3
        ).fit(POINTS)
        budgeted = build_index(
            "ball_tree", leaf_size=32, random_state=3, memory_budget_mb=64.0
        ).fit(POINTS)
        for query in QUERIES:
            a = resident.search(query, k=5)
            b = budgeted.search(query, k=5)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.distances, b.distances)

    def test_kwarg_overrides_spec_budget(self):
        spec = IndexSpec("bc_tree", {"leaf_size": 32, "random_state": 3},
                         memory_budget_mb=128.0)
        index = build_index(spec.to_dict(), memory_budget_mb=64.0)
        assert index.memory_budget_mb == 64.0

    def test_budget_refused_for_families_without_chunked_build(self):
        with pytest.raises(ValueError, match="fit_chunked"):
            build_index("linear_scan", memory_budget_mb=64.0)
        with pytest.raises(ValueError, match="fit_chunked"):
            build_index("nh", num_tables=8, random_state=3,
                        memory_budget_mb=64.0)
