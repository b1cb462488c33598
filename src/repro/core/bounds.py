"""Lower bounds on the absolute inner product ``|<x, q>|``.

These are the three bounds the paper derives:

* :func:`node_ball_bound` — Theorem 2, the node-level ball bound used by
  both Ball-Tree and BC-Tree to prune whole subtrees.
* :func:`point_ball_bound` — Corollary 1, the point-level ball bound used by
  BC-Tree leaves for batch pruning (data sorted by descending per-point
  radius).
* :func:`point_cone_bound` — Theorem 3, the tighter point-level cone bound
  used by BC-Tree leaves for per-point pruning.

All functions accept either scalars or NumPy arrays for the per-point
quantities so the BC-Tree leaf scan can evaluate them in a single
vectorized pass.  :func:`cone_envelope_may_prune` evaluates the cone
bound's prune tests once per leaf, on the leaf's extremes, to tell whether
the per-point pass can prune anything at all.
"""

from __future__ import annotations

import math

import numpy as np


def node_ball_bound(ip_center: float, query_norm: float, radius: float) -> float:
    """Node-level ball bound (Theorem 2).

    For a node with center ``c`` and radius ``r`` and a query ``q``,

        min_{x in N} |<x, q>|  >=  max(|<q, c>| - ||q|| * r, 0).

    Parameters
    ----------
    ip_center:
        The inner product ``<q, c>`` (signed).
    query_norm:
        ``||q||``.
    radius:
        The node radius ``r`` (max distance from the center to any point).

    Returns
    -------
    float
        The lower bound (always non-negative).
    """
    return max(abs(ip_center) - query_norm * radius, 0.0)


def point_ball_bound(
    ip_center: float, query_norm: float, point_radius
) -> np.ndarray:
    """Point-level ball bound (Corollary 1).

    Each leaf point ``x`` lies in a virtual ball centered at the leaf center
    ``c`` with radius ``r_x = ||x - c||``, hence

        |<x, q>|  >=  max(|<q, c>| - ||q|| * r_x, 0).

    Parameters
    ----------
    ip_center:
        ``<q, c>`` for the leaf center ``c``.
    query_norm:
        ``||q||``.
    point_radius:
        Scalar or array of per-point radii ``r_x``.

    Returns
    -------
    numpy.ndarray or float
        The bound, elementwise over ``point_radius``.
    """
    bound = np.abs(ip_center) - query_norm * np.asarray(point_radius, dtype=np.float64)
    return np.maximum(bound, 0.0)


def query_angle_terms(
    ip_center: float, query_norm: float, center_norm: float
) -> tuple:
    """Decompose the query against the leaf-center direction.

    Returns ``(q_cos, q_sin)`` where ``q_cos = ||q|| cos(theta)`` and
    ``q_sin = ||q|| sin(theta)`` with ``theta`` the angle between the query
    and the leaf center.  These are the two O(1)-per-leaf quantities needed
    by the cone bound (the paper computes them at the top of
    ``ScanWithPruning``, Algorithm 5 line 19).

    Numerical care: ``q_sin`` is clamped at zero when rounding makes the
    radicand slightly negative.
    """
    if center_norm <= 0.0:
        # Degenerate leaf whose center is the origin: the angle is undefined,
        # treat the query as orthogonal so the cone bound falls back to 0.
        return 0.0, query_norm
    q_cos = ip_center / center_norm
    radicand = query_norm * query_norm - q_cos * q_cos
    # math.sqrt and np.sqrt are both correctly rounded: same bits
    q_sin = math.sqrt(radicand) if radicand > 0.0 else 0.0
    return float(q_cos), q_sin


def point_cone_bound(q_cos: float, q_sin: float, x_cos, x_sin) -> np.ndarray:
    """Point-level cone bound (Theorem 3).

    Each leaf point ``x`` is described by its cone structure relative to the
    leaf center ``c``: ``x_cos = ||x|| cos(phi_x)`` and
    ``x_sin = ||x|| sin(phi_x)`` where ``phi_x`` is the angle between ``x``
    and ``c``.  Together with the query terms from
    :func:`query_angle_terms` the bound is

        |<x, q>| >=  ||x|| ||q|| cos(theta + phi_x)   if that cosine > 0 and
                                                      cos(theta) > 0 and
                                                      cos(phi_x) > 0
                  >= -||x|| ||q|| cos(|theta - phi_x|) if that cosine < 0
                  >=  0                                 otherwise

    using the expansions
    ``||x|| ||q|| cos(theta + phi_x) = q_cos * x_cos - q_sin * x_sin`` and
    ``||x|| ||q|| cos(|theta - phi_x|) = q_cos * x_cos + q_sin * x_sin``.

    Parameters
    ----------
    q_cos, q_sin:
        ``||q|| cos(theta)`` and ``||q|| sin(theta)`` (``q_sin >= 0``).
    x_cos, x_sin:
        Scalars or arrays ``||x|| cos(phi_x)`` and ``||x|| sin(phi_x)``
        (``x_sin >= 0``).

    Returns
    -------
    numpy.ndarray or float
        The bound, elementwise.
    """
    x_cos = np.asarray(x_cos, dtype=np.float64)
    x_sin = np.asarray(x_sin, dtype=np.float64)
    cos_sum = q_cos * x_cos - q_sin * x_sin
    cos_diff = q_cos * x_cos + q_sin * x_sin

    bound = np.zeros_like(cos_sum)
    # Case 1: cos(theta + phi) > 0 with both cos(theta) > 0 and cos(phi) > 0.
    case1 = (cos_sum > 0.0) & (q_cos > 0.0) & (x_cos > 0.0)
    # Case 2: cos(|theta - phi|) < 0.
    case2 = (~case1) & (cos_diff < 0.0)
    bound = np.where(case1, cos_sum, bound)
    bound = np.where(case2, -cos_diff, bound)
    if np.ndim(x_cos) == 0:
        return float(bound)
    return bound


def query_angle_terms_block(
    ip_center: np.ndarray, query_norms: np.ndarray, center_norm: float
) -> tuple:
    """:func:`query_angle_terms` for a block of queries against one center.

    Every operation is the elementwise image of the scalar function —
    division, the radicand, and the guarded square root — so each row of
    the result is bit-identical to calling :func:`query_angle_terms` with
    that query's scalars (the block traversal kernel relies on this to stay
    bit-identical to per-query search).
    """
    query_norms = np.asarray(query_norms, dtype=np.float64)
    if center_norm <= 0.0:
        return np.zeros_like(query_norms), query_norms.copy()
    q_cos = np.asarray(ip_center, dtype=np.float64) / center_norm
    radicand = query_norms * query_norms - q_cos * q_cos
    q_sin = np.where(radicand > 0.0, np.sqrt(np.maximum(radicand, 0.0)), 0.0)
    return q_cos, q_sin


def cone_prune_mask_block(
    q_cos: np.ndarray,
    q_sin: np.ndarray,
    x_cos: np.ndarray,
    x_sin: np.ndarray,
    x_cos_pos: np.ndarray,
    thresholds: np.ndarray,
) -> np.ndarray:
    """Cone-bound prune decisions for a block of queries over one leaf.

    Row ``i`` of the returned boolean matrix marks the leaf points whose
    cone bound (Theorem 3) meets or exceeds ``thresholds[i]`` — the points
    the vectorized ``ScanWithPruning`` skips.  The case analysis matches
    the per-query scan exactly (simplified for ``threshold > 0``): case 1,
    ``cos(theta + phi)``, prunes only when ``q_cos > 0`` and ``x_cos > 0``;
    case 2, ``-cos(theta - phi)``, prunes when it reaches the threshold
    (and then rules case 1 out since ``cos_sum <= cos_diff``).  All
    operations are elementwise, so each row is bit-identical to the
    per-query evaluation.

    Parameters
    ----------
    q_cos, q_sin:
        Per-query angle terms from :func:`query_angle_terms_block`,
        shape ``(g,)``.
    x_cos, x_sin:
        Leaf cone structures, shape ``(m,)``.
    x_cos_pos:
        Precomputed ``x_cos > 0`` mask, shape ``(m,)``.
    thresholds:
        Per-query pruning thresholds, shape ``(g,)`` (finite, positive).
    """
    prod = q_cos[:, None] * x_cos[None, :]
    scaled = q_sin[:, None] * x_sin[None, :]
    sum_le = prod + scaled <= -thresholds[:, None]
    pos_rows = q_cos > 0.0
    if not pos_rows.any():
        return sum_le
    diff = prod
    diff -= scaled  # in place: prod is not needed past this point
    return np.where(
        pos_rows[:, None],
        (x_cos_pos[None, :] & (diff >= thresholds[:, None])) | sum_le,
        sum_le,
    )


def cone_envelope_may_prune(
    q_cos, q_sin, cos_max, cos_min, sin_min, threshold
):
    """Whether the cone prune tests can fire for any point of a leaf.

    ``cos_max``/``cos_min`` are the largest and smallest ``x_cos`` of the
    leaf's points and ``sin_min`` the smallest ``x_sin``.  The tests of
    :func:`cone_prune_mask_block` (and of the one-query scan) are
    re-evaluated on these extremes with the same float operations in the
    same order: case 1, ``q_cos * x_cos - q_sin * x_sin >= threshold``
    (only when ``q_cos > 0``), is largest at ``cos_max`` and ``sin_min``;
    case 2, ``q_cos * x_cos + q_sin * x_sin <= -threshold``, is smallest
    at ``sin_min`` and at whichever ``x_cos`` extreme minimizes the product
    (both are tested).  IEEE rounding is monotone, so each rounded
    extreme bounds every point's rounded value, ties included: when this
    returns false the per-point mask has no true entry.

    Works elementwise on a block of queries (arrays ``q_cos``, ``q_sin``,
    ``threshold``) and on one query's plain floats alike.
    """
    scaled = q_sin * sin_min
    at_max = q_cos * cos_max
    neg_threshold = -threshold
    return (
        ((q_cos > 0.0) & (at_max - scaled >= threshold))
        | (q_cos * cos_min + scaled <= neg_threshold)
        | (at_max + scaled <= neg_threshold)
    )


def kd_box_bound(query: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> float:
    """Lower bound of ``|<x, q>|`` over an axis-aligned box (KD-Tree baseline).

    For ``x`` constrained to ``lower <= x <= upper`` the inner product
    ``<x, q>`` ranges over ``[lo, hi]`` with

        lo = sum_i min(q_i * lower_i, q_i * upper_i)
        hi = sum_i max(q_i * lower_i, q_i * upper_i)

    so ``min |<x, q>| = 0`` if the interval straddles zero and otherwise the
    nearer endpoint's magnitude.  This is the "bounding box" bound the paper
    argues is more cumbersome than the ball bound (Section III-A, point 2);
    we implement it for the KD-Tree comparison baseline.
    """
    prod_lower = query * lower
    prod_upper = query * upper
    lo = float(np.minimum(prod_lower, prod_upper).sum())
    hi = float(np.maximum(prod_lower, prod_upper).sum())
    if lo <= 0.0 <= hi:
        return 0.0
    return min(abs(lo), abs(hi))
