"""Tests for the lower bounds of Theorems 2-4 and the KD box bound."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.bounds import (
    cone_envelope_may_prune,
    cone_prune_mask_block,
    kd_box_bound,
    node_ball_bound,
    point_ball_bound,
    point_cone_bound,
    query_angle_terms,
)
from repro.core.distances import augment_points


def _random_ball(rng, num_points=40, dim=6):
    """A random set of augmented points plus its center / radius / query."""
    raw = rng.normal(size=(num_points, dim)) * rng.uniform(0.5, 3.0)
    points = augment_points(raw + rng.normal(size=dim) * 2.0)
    center = points.mean(axis=0)
    radius = float(np.max(np.linalg.norm(points - center, axis=1)))
    query = rng.normal(size=dim + 1)
    query[:-1] /= np.linalg.norm(query[:-1])
    query[-1] = rng.normal() * 0.2
    return points, center, radius, query


class TestNodeBallBound:
    @pytest.mark.parametrize("seed", range(10))
    def test_bound_never_exceeds_true_minimum(self, seed):
        """Theorem 2: the bound is a valid lower bound on min |<x, q>|."""
        rng = np.random.default_rng(seed)
        points, center, radius, query = _random_ball(rng)
        true_min = float(np.min(np.abs(points @ query)))
        bound = node_ball_bound(float(center @ query), float(np.linalg.norm(query)), radius)
        assert bound <= true_min + 1e-9

    def test_bound_is_nonnegative(self):
        assert node_ball_bound(-0.1, 1.0, 5.0) == 0.0
        assert node_ball_bound(0.0, 1.0, 0.0) == 0.0

    def test_bound_positive_when_ball_misses_hyperplane(self):
        # Center far from the hyperplane, tiny radius: bound must be positive.
        assert node_ball_bound(10.0, 1.0, 2.0) == pytest.approx(8.0)

    def test_zero_radius_bound_equals_center_distance(self):
        assert node_ball_bound(-3.5, 1.0, 0.0) == pytest.approx(3.5)

    @settings(max_examples=100, deadline=None)
    @given(
        ip=st.floats(-100, 100),
        qnorm=st.floats(0.0, 10),
        radius=st.floats(0.0, 50),
    )
    def test_bound_formula_properties(self, ip, qnorm, radius):
        bound = node_ball_bound(ip, qnorm, radius)
        assert bound >= 0.0
        assert bound <= abs(ip) + 1e-12
        # Monotone: larger radius can only weaken the bound.
        assert bound >= node_ball_bound(ip, qnorm, radius + 1.0) - 1e-12


class TestPointBallBound:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_per_point_lower_bound(self, seed):
        """Corollary 1: the per-point bound never exceeds |<x, q>|."""
        rng = np.random.default_rng(seed)
        points, center, _, query = _random_ball(rng)
        radii = np.linalg.norm(points - center, axis=1)
        bounds = point_ball_bound(
            float(center @ query), float(np.linalg.norm(query)), radii
        )
        actual = np.abs(points @ query)
        assert (bounds <= actual + 1e-9).all()

    def test_scalar_input(self):
        value = point_ball_bound(5.0, 1.0, 2.0)
        assert float(value) == pytest.approx(3.0)

    def test_decreasing_in_radius(self):
        """The bound decreases as r_x grows (basis of the batch pruning)."""
        radii = np.array([0.0, 1.0, 2.0, 5.0])
        bounds = point_ball_bound(4.0, 1.0, radii)
        assert (np.diff(bounds) <= 1e-12).all()


class TestQueryAngleTerms:
    def test_decomposition_recovers_norm(self):
        rng = np.random.default_rng(1)
        center = rng.normal(size=8)
        query = rng.normal(size=8)
        ip = float(center @ query)
        q_cos, q_sin = query_angle_terms(ip, float(np.linalg.norm(query)),
                                         float(np.linalg.norm(center)))
        assert q_sin >= 0.0
        assert q_cos**2 + q_sin**2 == pytest.approx(np.linalg.norm(query) ** 2, rel=1e-9)

    def test_degenerate_center(self):
        q_cos, q_sin = query_angle_terms(0.0, 2.0, 0.0)
        assert q_cos == 0.0
        assert q_sin == 2.0

    def test_clamps_negative_radicand(self):
        # cos slightly exceeding the norm due to rounding must not produce NaN.
        q_cos, q_sin = query_angle_terms(1.0 + 1e-12, 1.0, 1.0)
        assert q_sin == 0.0


class TestPointConeBound:
    @pytest.mark.parametrize("seed", range(10))
    def test_valid_lower_bound(self, seed):
        """Theorem 3: the cone bound never exceeds |<x, q>|."""
        rng = np.random.default_rng(seed)
        points, center, _, query = _random_ball(rng)
        center_norm = float(np.linalg.norm(center))
        q_cos, q_sin = query_angle_terms(
            float(center @ query), float(np.linalg.norm(query)), center_norm
        )
        norms = np.linalg.norm(points, axis=1)
        x_cos = (points @ center) / center_norm
        x_sin = np.sqrt(np.maximum(norms**2 - x_cos**2, 0.0))
        bounds = point_cone_bound(q_cos, q_sin, x_cos, x_sin)
        actual = np.abs(points @ query)
        assert (np.asarray(bounds) <= actual + 1e-8).all()

    @pytest.mark.parametrize("seed", range(10))
    def test_cone_tighter_than_ball(self, seed):
        """Theorem 4: the cone bound dominates the ball bound point-wise."""
        rng = np.random.default_rng(100 + seed)
        points, center, _, query = _random_ball(rng)
        center_norm = float(np.linalg.norm(center))
        query_norm = float(np.linalg.norm(query))
        ip_center = float(center @ query)

        radii = np.linalg.norm(points - center, axis=1)
        ball_bounds = point_ball_bound(ip_center, query_norm, radii)

        q_cos, q_sin = query_angle_terms(ip_center, query_norm, center_norm)
        norms = np.linalg.norm(points, axis=1)
        x_cos = (points @ center) / center_norm
        x_sin = np.sqrt(np.maximum(norms**2 - x_cos**2, 0.0))
        cone_bounds = point_cone_bound(q_cos, q_sin, x_cos, x_sin)

        assert (np.asarray(cone_bounds) >= np.asarray(ball_bounds) - 1e-8).all()

    def test_scalar_path(self):
        value = point_cone_bound(1.0, 0.0, 2.0, 0.0)
        assert isinstance(value, float)
        assert value == pytest.approx(2.0)

    def test_orthogonal_case_gives_zero(self):
        # theta + phi straddles pi/2 with neither cosine condition met.
        assert point_cone_bound(0.0, 1.0, 0.0, 1.0) == pytest.approx(0.0)


class TestKDBoxBound:
    @pytest.mark.parametrize("seed", range(8))
    def test_valid_lower_bound_over_box(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(50, 5)) * rng.uniform(0.5, 2.0)
        lower = points.min(axis=0)
        upper = points.max(axis=0)
        query = rng.normal(size=5)
        bound = kd_box_bound(query, lower, upper)
        actual = np.abs(points @ query)
        assert bound <= actual.min() + 1e-9

    def test_zero_when_interval_straddles_zero(self):
        query = np.array([1.0, -1.0])
        assert kd_box_bound(query, np.array([-1.0, -1.0]), np.array([1.0, 1.0])) == 0.0

    def test_positive_when_box_off_hyperplane(self):
        query = np.array([1.0, 0.0])
        bound = kd_box_bound(query, np.array([2.0, -1.0]), np.array([3.0, 1.0]))
        assert bound == pytest.approx(2.0)


_FINITE = dict(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(
    min_value=0.0, max_value=100.0, exclude_min=True, **_FINITE
)


@st.composite
def _leaf_and_query(draw):
    """A random leaf (descending radii, ``point_sin >= 0``), query terms
    with ``q_cos`` of either sign, and a positive threshold drawn, most of
    the time, from one of the leaf's own bound values so that ties occur."""
    m = draw(st.integers(1, 24))
    unit = st.lists(st.floats(-1.0, 1.0, **_FINITE), min_size=m, max_size=m)

    def spread_values():
        # a center plus a spread: leaves whose x_cos all share one sign
        # are common, as in real leaves around their center direction
        center = draw(st.floats(-20.0, 20.0, **_FINITE))
        spread = draw(st.floats(0.0, 20.0, **_FINITE))
        return center + spread * np.array(draw(unit))

    radii = np.sort(np.abs(spread_values()))[::-1].copy()
    x_cos = spread_values()
    x_sin = np.abs(spread_values())
    q_cos = draw(st.floats(-5.0, 5.0, **_FINITE))
    q_sin = draw(st.floats(0.0, 5.0, **_FINITE))
    abs_ip = draw(st.floats(0.0, 50.0, **_FINITE))
    query_norm = draw(_POSITIVE)
    i = draw(st.integers(0, m - 1))
    source = draw(st.sampled_from(["ball", "case1", "case2", "free"]))
    # the same float operations, in the same order, as the leaf scans
    threshold = {
        "ball": abs_ip - query_norm * radii[i],
        "case1": q_cos * x_cos[i] - q_sin * x_sin[i],
        "case2": -(q_cos * x_cos[i] + q_sin * x_sin[i]),
        "free": 0.0,
    }[source]
    if not threshold > 0.0:
        # a scanned leaf always has a positive threshold
        threshold = draw(_POSITIVE)
    threshold = float(threshold)
    return radii, x_cos, x_sin, q_cos, q_sin, abs_ip, query_norm, threshold


class TestLeafEnvelope:
    """The per-leaf envelopes that let the BC-Tree leaf scans skip bound
    passes: a pass may be skipped only when it could not prune."""

    @settings(max_examples=300, deadline=None)
    @given(case=_leaf_and_query())
    @example(
        # a case-1 tie on the point with the largest x_cos: an envelope
        # tested at cos_min instead of cos_max would miss it
        case=(
            np.array([2.0, 1.0]), np.array([1.0, 3.0]), np.array([0.0, 0.0]),
            1.0, 0.0, 0.5, 1.0, 3.0,
        )
    )
    def test_envelope_no_means_no_point_pruned(self, case):
        radii, x_cos, x_sin, q_cos, q_sin, abs_ip, query_norm, thr = case
        # ball: the last point has the leaf's largest bound
        if abs_ip - query_norm * float(radii[-1]) < thr:
            ball = abs_ip - query_norm * radii
            assert int(ball.searchsorted(thr, side="left")) == radii.shape[0]
        # cone: the extremes bound every point's rounded test value
        may = cone_envelope_may_prune(
            q_cos, q_sin, float(x_cos.max()), float(x_cos.min()),
            float(x_sin.min()), thr,
        )
        mask = cone_prune_mask_block(
            np.array([q_cos]), np.array([q_sin]), x_cos, x_sin,
            x_cos > 0.0, np.array([thr]),
        )
        if not may:
            assert not mask.any()

    @settings(max_examples=100, deadline=None)
    @given(
        cases=st.lists(_leaf_and_query(), min_size=1, max_size=6),
        bounds=st.tuples(
            st.floats(-20.0, 20.0, **_FINITE),
            st.floats(-20.0, 20.0, **_FINITE),
            st.floats(0.0, 20.0, **_FINITE),
        ),
    )
    def test_block_form_matches_one_query_form(self, cases, bounds):
        """Group scans call the helper on arrays: row ``i`` must be the
        one-query answer for query ``i``."""
        cos_a, cos_b, sin_min = bounds
        cos_max, cos_min = max(cos_a, cos_b), min(cos_a, cos_b)
        q_cos = np.array([c[3] for c in cases])
        q_sin = np.array([c[4] for c in cases])
        thr = np.array([c[7] for c in cases])
        block = cone_envelope_may_prune(
            q_cos, q_sin, cos_max, cos_min, sin_min, thr
        )
        rows = [
            cone_envelope_may_prune(
                float(a), float(b), cos_max, cos_min, sin_min, float(t)
            )
            for a, b, t in zip(q_cos, q_sin, thr)
        ]
        assert block.tolist() == rows

    @pytest.mark.parametrize("leaf_size", [1, 7, 64])
    def test_engine_envelopes_are_the_leaf_extremes(self, leaf_size):
        from repro import BCTree

        data = np.random.default_rng(leaf_size).normal(size=(300, 6))
        index = BCTree(leaf_size=leaf_size, random_state=0).fit(data)
        engine = index._engine()
        last_radius, cos_max, cos_min, sin_min = engine._leaf_envelope
        leaves = 0
        for node in range(engine.num_nodes):
            s, e = engine._start[node], engine._end[node]
            if engine._left[node] >= 0 or e == s:
                continue
            leaves += 1
            assert last_radius[node] == engine._point_radius[e - 1]
            assert cos_max[node] == engine._point_cos[s:e].max()
            assert cos_min[node] == engine._point_cos[s:e].min()
            assert sin_min[node] == engine._point_sin[s:e].min()
        assert leaves > 1
