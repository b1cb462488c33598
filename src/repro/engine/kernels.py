"""Compiled (Numba) top-k offer kernel for the fast search mode, with a
pure-NumPy fallback.

Only :data:`offer_rows` remains here: the per-candidate top-k offers of a
fast-mode group leaf event (:mod:`repro.engine.fast`), a Python-loop hot
spot the exact engine must keep per query for its bit-identity contract.
The fast mode has no such contract, so the loop is compiled with
:func:`numba.njit` when Numba is importable; when it is not (Numba is an
optional dependency), an equivalent pure-NumPy implementation runs
instead.  The fast kernel's per-query leaf sweep needs neither: it is
NumPy code on both backends (one GEMV per contiguous run of leaves and
one top-k selection per query).

Both implementations maintain the same data structure: per-query arrays
``top_d``/``top_i`` of shape ``(B, k)`` holding the current best distances
(ascending, padded with ``+inf``) and their point ids (padded with ``-1``),
plus the per-query pruning threshold ``thr[q] <= top_d[q, k - 1]``.  The
Numba and NumPy variants keep the same top-k *set* (tie-breaking at the
k-th boundary may differ — fast mode makes no ordering promise between
equal distances), so the fast-mode recall guarantee is implementation
independent; the CI matrix runs one leg with Numba installed and one
without to keep both variants honest.

Import cost: Numba compilation is lazy (first call per signature), so
importing this module never triggers LLVM.
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only on the numba CI leg
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - trivially hit on numba-less builds
    NUMBA_AVAILABLE = False

    def _njit(*args, **kwargs):
        """No-op ``@njit`` stand-in so the kernel bodies stay importable."""
        if args and callable(args[0]):
            return args[0]

        def decorate(fn):
            return fn

        return decorate


_INF = np.inf


# --------------------------------------------------------------- numba bodies
#
# The body is written in plain-loop style so it compiles under nopython
# mode; without Numba it is never called (the NumPy fallback below is).


@_njit(cache=True)
def _offer_rows_numba(D, live, width, ids, top_d, top_i, thr):  # pragma: no cover
    """Merge a leaf-event distance block into the per-query top-k arrays.

    ``D`` is the ``(g, width)`` |distance| block of one leaf event, ``live``
    the query ids of its rows, ``ids`` the point ids of its columns.  For
    every entry below the owning query's threshold, an insertion into the
    sorted ``top_d[q]`` row replaces the current worst and updates
    ``thr[q]``.
    """
    g = live.shape[0]
    k = top_d.shape[1]
    for i in range(g):
        q = live[i]
        t = thr[q]
        for j in range(width):
            d = D[i, j]
            # <= (not <): the threshold may be a warm-start upper bound
            # that equals the true k-th distance exactly (the warm leaf
            # holds the k-th neighbor), and that candidate must still
            # enter the top-k.
            if d <= t:
                # insertion: drop the worst, shift, place (k is small)
                pos = k - 1
                while pos > 0 and top_d[q, pos - 1] > d:
                    top_d[q, pos] = top_d[q, pos - 1]
                    top_i[q, pos] = top_i[q, pos - 1]
                    pos -= 1
                top_d[q, pos] = d
                top_i[q, pos] = ids[j]
                # min: until the top-k fills, its k-th slot is +inf and
                # must not loosen a finite warm-start threshold.
                if top_d[q, k - 1] < t:
                    t = top_d[q, k - 1]
        thr[q] = t


# -------------------------------------------------------------- numpy bodies


def _offer_rows_numpy(D, live, width, ids, top_d, top_i, thr):
    """NumPy fallback of :func:`_offer_rows_numba` (no per-candidate loop).

    Two-stage vectorized merge sized to keep every intermediate narrow:
    rows whose best candidate cannot beat their threshold are dropped on a
    single ``min`` pass, the survivors are cut to their k smallest leaf
    candidates with one partial select over the leaf width, and only the
    resulting ``(rows, 2k)`` strip is partitioned and sorted against the
    current top-k.  A candidate at or above the row's threshold equals or
    exceeds the current k-th best, so masking it to ``+inf`` before the
    merge never changes the surviving set.
    """
    k = top_d.shape[1]
    Dw = D if D.shape[1] == width else D[:, :width]
    # <= (not <): a warm-start threshold may equal the true k-th distance
    # exactly, and that candidate must still enter the top-k.
    rows_local = np.nonzero(Dw.min(axis=1) <= thr[live])[0]
    if rows_local.shape[0] == 0:
        return
    if rows_local.shape[0] == Dw.shape[0]:
        rows = live
        sub = Dw
    else:
        rows = live[rows_local]
        sub = Dw[rows_local]
    leaf_ids = ids[:width]
    if width > k:
        part = np.argpartition(sub, k - 1, axis=1)[:, :k]
        cand_d = np.take_along_axis(sub, part, axis=1)
        cand_i = leaf_ids[part]
    else:
        cand_d = sub
        cand_i = np.broadcast_to(leaf_ids, sub.shape)
    cand_d = np.where(cand_d <= thr[rows, None], cand_d, _INF)
    comb_d = np.concatenate([top_d[rows], cand_d], axis=1)
    comb_i = np.concatenate([top_i[rows], cand_i], axis=1)
    part = np.argpartition(comb_d, k - 1, axis=1)[:, :k]
    vals = np.take_along_axis(comb_d, part, axis=1)
    order = np.argsort(vals, axis=1, kind="stable")
    top_d[rows] = np.take_along_axis(vals, order, axis=1)
    top_i[rows] = np.take_along_axis(
        np.take_along_axis(comb_i, part, axis=1), order, axis=1
    )
    # min: an unfilled top-k row still has +inf in its k-th slot, which
    # must not loosen a finite warm-start threshold.
    thr[rows] = np.minimum(thr[rows], top_d[rows, k - 1])


# ------------------------------------------------------------------ dispatch

if NUMBA_AVAILABLE:  # pragma: no cover - numba CI leg only
    offer_rows = _offer_rows_numba
else:
    offer_rows = _offer_rows_numpy


def kernel_backend() -> str:
    """``"numba"`` when the compiled kernels are active, else ``"numpy"``."""
    return "numba" if NUMBA_AVAILABLE else "numpy"
