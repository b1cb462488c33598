"""Typed, centrally-validated search options for the public API.

Historically every layer re-validated (or silently ignored) its own slice
of the search knobs: ``k`` in ``index.search``, ``n_jobs``/``executor``
deep inside :func:`repro.engine.batch.execute_batch`, the candidate-budget
pair inside :func:`repro.engine.budget.resolve_budget`, and family-specific
kwargs whenever an index happened to look at them.  Bad combinations (both
budget knobs set, ``n_jobs=0``, a typo'd executor string) surfaced late,
with family-dependent behavior, or not at all.

:class:`SearchOptions` is the one place these combinations are checked.
Every entry point of :mod:`repro.api` — the :class:`~repro.api.Searcher`
session, the CLI, and the eval runner — constructs one, so a bad
configuration fails immediately with a descriptive :class:`ValueError` no
matter which index family it targets.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.engine.batch import EXECUTORS
from repro.storage import StorageSpec
from repro.utils.validation import check_fraction, check_positive_int

#: Option names with a dedicated typed field (everything else is ``extra``).
_FIELD_KWARGS = ("candidate_fraction", "max_candidates", "profile", "exact",
                 "dtype")

#: Storage dtypes the fast execution mode accepts.
_FAST_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class SearchOptions:
    """Declarative, validated configuration of one search workload.

    Parameters
    ----------
    k:
        Top-k size for every query (>= 1).
    candidate_fraction:
        Approximate-search budget as a fraction of the indexed points in
        ``(0, 1]``, or None for exact search.  Mutually exclusive with
        ``max_candidates``.
    max_candidates:
        Approximate-search budget as an absolute candidate count (>= 1),
        or None for exact search.
    n_jobs:
        Worker-pool size for batched execution; None or 1 runs inline.
    executor:
        ``"thread"`` or ``"process"`` — the pool flavor batched execution
        dispatches on.
    profile:
        Collect per-stage wall timers (``"lower_bounds"`` and
        ``"verification"`` in ``SearchStats.stage_seconds``) on the tree
        indexes.  Batches still run the block traversal kernel; results
        and work counters are unchanged.  Incompatible with
        ``exact=False`` — the stage timers are defined by the exact
        traversal.
    exact:
        True (default) runs the bit-exact engine.  False opts into the
        approximate fast mode on the tree families: reduced-precision
        storage and leaves admitted by their own bounds, verified with
        per-row GEMVs in blocks of at most 64 rows and with GEMMs above,
        holding recall@k >= 0.999 against the exact oracle (see
        :mod:`repro.engine.fast`).
    dtype:
        Storage dtype for the fast mode (``"float32"``, the default when
        ``exact=False``, or ``"float64"``).  Only meaningful with
        ``exact=False``; setting it alongside ``exact=True`` is an error.
    storage:
        Session-level storage override — anything
        :meth:`repro.storage.StorageSpec.coerce` accepts (``"mmap"``, a
        ``{"backend", "dtype"}`` dict, a spec).  **Not** a per-search
        kwarg: it is consumed by :class:`~repro.api.Searcher`, which
        migrates the index's point arrays once at session start (so a
        process-executor session ships mmap paths to its workers instead
        of pickled array bytes).  Plain ``index.search`` calls ignore it.
    extra:
        Index-family-specific search kwargs forwarded verbatim (e.g.
        ``branch_preference`` for the trees).  Keys must not shadow the
        typed fields above.

    Examples
    --------
    >>> options = SearchOptions(k=10, candidate_fraction=0.1, n_jobs=4)
    >>> options.search_kwargs()
    {'candidate_fraction': 0.1}
    >>> SearchOptions(k=10, candidate_fraction=0.1, max_candidates=50)
    Traceback (most recent call last):
        ...
    ValueError: pass either candidate_fraction or max_candidates, not both
    """

    k: int = 1
    candidate_fraction: Optional[float] = None
    max_candidates: Optional[int] = None
    n_jobs: Optional[int] = None
    executor: str = "thread"
    profile: bool = False
    exact: bool = True
    dtype: Optional[str] = None
    storage: Optional[StorageSpec] = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "k", check_positive_int(self.k, name="k")
        )
        object.__setattr__(
            self,
            "candidate_fraction",
            check_fraction(self.candidate_fraction, name="candidate_fraction"),
        )
        if self.max_candidates is not None:
            object.__setattr__(
                self,
                "max_candidates",
                check_positive_int(self.max_candidates, name="max_candidates"),
            )
        if self.candidate_fraction is not None and self.max_candidates is not None:
            raise ValueError(
                "pass either candidate_fraction or max_candidates, not both"
            )
        if self.n_jobs is not None:
            object.__setattr__(
                self, "n_jobs", check_positive_int(self.n_jobs, name="n_jobs")
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if not isinstance(self.profile, bool):
            raise TypeError(f"profile must be a bool, got {type(self.profile)!r}")
        if not isinstance(self.exact, bool):
            raise TypeError(f"exact must be a bool, got {type(self.exact)!r}")
        if self.dtype is not None:
            if self.exact:
                raise ValueError(
                    "dtype selects the fast mode's storage precision and "
                    "requires exact=False; the exact path always computes "
                    "in float64"
                )
            if self.dtype not in _FAST_DTYPES:
                raise ValueError(
                    f"dtype must be one of {_FAST_DTYPES}, got {self.dtype!r}"
                )
        if not self.exact and self.profile:
            raise ValueError(
                "profile=True requires the exact path (exact=True): the "
                "per-stage profiling counters are defined by the exact "
                "traversal, which the fast mode does not run"
            )
        if self.storage is not None:
            object.__setattr__(
                self, "storage", StorageSpec.coerce(self.storage)
            )
        extra = dict(self.extra or {})
        reserved = set(_FIELD_KWARGS) | {
            "k", "n_jobs", "executor", "storage",
        }
        shadowed = sorted(reserved & set(extra))
        if shadowed:
            raise ValueError(
                "extra must not shadow typed option fields: "
                + ", ".join(shadowed)
            )
        object.__setattr__(self, "extra", extra)

    # --------------------------------------------------------------- derived

    @classmethod
    def from_kwargs(cls, *, k: int = 1, n_jobs: Optional[int] = None,
                    executor: str = "thread",
                    **search_kwargs: Any) -> "SearchOptions":
        """Build options from a flat kwarg dict (the legacy calling style).

        Knobs with a dedicated field (``candidate_fraction``,
        ``max_candidates``, ``profile``) are lifted out of
        ``search_kwargs``; everything else lands in ``extra``.
        """
        fields: Dict[str, Any] = {}
        for name in _FIELD_KWARGS:
            if name in search_kwargs:
                fields[name] = search_kwargs.pop(name)
        return cls(
            k=k,
            n_jobs=n_jobs,
            executor=executor,
            extra=search_kwargs,
            **fields,
        )

    def replace(self, **changes: Any) -> "SearchOptions":
        """A copy with ``changes`` applied (re-validated on construction)."""
        return dataclasses.replace(self, **changes)

    def search_kwargs(self) -> Dict[str, Any]:
        """Per-search kwargs to forward to ``index.search`` / the kernels.

        Only knobs that deviate from their inert defaults are included, so
        families that do not understand a knob (``LinearScan`` rejects any
        option; the hashing baselines have no ``profile``) are unaffected
        by defaults they never see.
        """
        kwargs: Dict[str, Any] = dict(self.extra)
        if self.candidate_fraction is not None:
            kwargs["candidate_fraction"] = self.candidate_fraction
        if self.max_candidates is not None:
            kwargs["max_candidates"] = self.max_candidates
        if self.profile:
            kwargs["profile"] = True
        if not self.exact:
            kwargs["exact"] = False
            if self.dtype is not None:
                kwargs["dtype"] = self.dtype
        return kwargs

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dictionary (round-trips through :meth:`from_dict`)."""
        out: Dict[str, Any] = {
            "k": self.k,
            "executor": self.executor,
            "profile": self.profile,
            "exact": self.exact,
        }
        if self.dtype is not None:
            out["dtype"] = self.dtype
        if self.candidate_fraction is not None:
            out["candidate_fraction"] = self.candidate_fraction
        if self.max_candidates is not None:
            out["max_candidates"] = self.max_candidates
        if self.n_jobs is not None:
            out["n_jobs"] = self.n_jobs
        if self.storage is not None:
            out["storage"] = self.storage.to_header()
        if self.extra:
            out["extra"] = dict(self.extra)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SearchOptions":
        """Rebuild options from :meth:`to_dict` output (or a JSON config)."""
        data = dict(data)
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(
                "unknown SearchOptions keys: " + ", ".join(sorted(unknown))
            )
        return cls(**data)
