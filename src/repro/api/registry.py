"""String-keyed registry of every index family, and the factory behind it.

The registry maps a stable ``kind`` string to a builder for each index
family the library ships — the paper's trees, the exact and hashing
baselines, the MIPS adapter, and the dynamic / partitioned composites —
so callers construct indexes declaratively::

    from repro.api import build_index

    tree = build_index("bc_tree", leaf_size=64, random_state=7)
    shards = build_index({
        "kind": "partitioned",
        "params": {
            "num_partitions": 8,
            "strategy": "ball",
            "index": {"kind": "bc_tree", "params": {"leaf_size": 64}},
        },
    })

Every index built here is stamped with its spec dictionary (attribute
``_api_spec``), which the persistence envelope
(:mod:`repro.utils.persistence`) writes next to the pickled index so
:func:`repro.api.load_index` can report how any saved file was configured.

Third-party families plug in with :func:`register_index` (usable as a
decorator) and immediately work with specs, JSON configs, the CLI, and
persistence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.api.specs import (
    NESTED_SPEC_KEY,
    IndexSpec,
    SpecIndexFactory,
    normalize_kind,
)


@dataclass(frozen=True)
class IndexFamily:
    """One registry entry: the builder plus metadata for listings."""

    name: str
    builder: Callable[..., Any]
    description: str = ""
    composite: bool = False


_REGISTRY: Dict[str, IndexFamily] = {}


def register_index(
    name: str,
    builder: Optional[Callable[..., Any]] = None,
    *,
    description: str = "",
    composite: bool = False,
    overwrite: bool = False,
) -> Any:
    """Register an index family under ``name`` (also usable as a decorator).

    Parameters
    ----------
    name:
        Registry key; normalized (lower-case, ``-`` to ``_``) before
        insertion.
    builder:
        Callable accepting the family's constructor kwargs and returning
        an unfitted index.  A class works directly.  When omitted the
        function returns a decorator.
    description:
        One-line summary shown by :func:`available_indexes` listings.
    composite:
        True for families whose ``index`` param nests a sub-index spec.
    overwrite:
        Allow replacing an existing registration (default False: a
        duplicate key raises, catching accidental shadowing).

    Notes
    -----
    Registered indexes work with specs, JSON configs and persistence.
    Batched search — ``batch_search``, :class:`~repro.api.Searcher`
    sessions, the server and the cluster — calls the index's
    ``_batch_kernel(queries, k, **options)``; a family gets one by
    subclassing :class:`~repro.core.index_base.P2HIndex` (whose default
    kernel answers each row with ``_search_one``), and an index without
    one raises ``TypeError`` there.  A family whose fitted state
    can change (refits, inserts, deletes) should maintain an integer
    ``_mutation_version`` attribute bumped on every mutation — process
    sessions use it to invalidate their worker-side snapshot; without it
    the index is assumed immutable while a session is open.
    """
    key = normalize_kind(name)

    def _register(build_callable: Callable[..., Any]) -> Callable[..., Any]:
        if not callable(build_callable):
            raise TypeError(f"builder for {key!r} must be callable")
        if key in _REGISTRY and not overwrite:
            raise ValueError(
                f"index kind {key!r} is already registered; "
                "pass overwrite=True to replace it"
            )
        _REGISTRY[key] = IndexFamily(
            name=key,
            builder=build_callable,
            description=description,
            composite=composite,
        )
        return build_callable

    if builder is None:
        return _register
    return _register(builder)


def available_indexes() -> List[str]:
    """Sorted registry keys of every buildable index family."""
    return sorted(_REGISTRY)


def index_family(kind: str) -> IndexFamily:
    """The registry entry for ``kind`` (raising a helpful error if absent)."""
    key = normalize_kind(kind)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown index kind {kind!r}; available kinds: "
            + ", ".join(available_indexes())
        ) from None


def build_index(
    spec: Union[str, IndexSpec, Mapping[str, Any]],
    /,
    *,
    memory_budget_mb: Optional[float] = None,
    **params: Any,
) -> Any:
    """Construct an unfitted index from a kind string, spec, or spec dict.

    ``build_index("bc_tree", leaf_size=64)`` and
    ``build_index(IndexSpec("bc_tree", {"leaf_size": 64}))`` are
    equivalent; keyword ``params`` are only accepted with the string form
    (a spec already carries its parameters).  The built index is stamped
    with its spec dictionary for the persistence envelope.

    ``memory_budget_mb`` (accepted with every form, overriding the spec's
    own field when both are given) routes the index's ``fit`` through the
    memory-bounded chunked build — tree families only; a budget on a
    family without ``fit_chunked`` raises a :class:`ValueError` instead of
    being silently dropped.
    """
    if isinstance(spec, str):
        spec = IndexSpec(spec, params, memory_budget_mb=memory_budget_mb)
    else:
        if params:
            raise ValueError(
                "keyword params are only accepted with a kind string; "
                "an IndexSpec/dict already carries its parameters"
            )
        spec = IndexSpec.from_dict(spec)
        if memory_budget_mb is not None:
            spec = IndexSpec(
                spec.kind, spec.params, memory_budget_mb=memory_budget_mb
            )
    family = index_family(spec.kind)
    kwargs = dict(spec.params)
    nested = kwargs.get(NESTED_SPEC_KEY)
    if isinstance(nested, IndexSpec):
        if not family.composite:
            raise ValueError(
                f"index kind {spec.kind!r} does not accept a nested "
                f"{NESTED_SPEC_KEY!r} spec"
            )
        kwargs[NESTED_SPEC_KEY] = nested
    try:
        index = family.builder(**kwargs)
    except TypeError as exc:
        # Re-raise with the registry context: a typo'd param name should
        # name the family, not an anonymous lambda/partial frame.
        raise TypeError(f"building index kind {spec.kind!r}: {exc}") from exc
    if spec.memory_budget_mb is not None:
        if not callable(getattr(index, "fit_chunked", None)):
            raise ValueError(
                f"index kind {spec.kind!r} does not support memory-budgeted "
                "builds (no fit_chunked); memory_budget_mb applies to the "
                "tree families only"
            )
        # fit() consults this attribute and delegates to fit_chunked, so
        # spec-driven callers (CLI, Searcher factories, composites) get
        # the out-of-core build without a second fit entry point.
        index.memory_budget_mb = spec.memory_budget_mb
    # Stamped as a plain dict (not an IndexSpec) so pickled indexes never
    # drag the api layer into their payload.
    try:
        index._api_spec = spec.to_dict()
    except AttributeError:  # pragma: no cover - exotic __slots__ builders
        pass
    return index


# --------------------------------------------------------------- built-ins


def _register_builtins() -> None:
    """Populate the registry with every family the library ships."""
    from repro.core.ball_tree import BallTree
    from repro.core.bc_tree import BCTree
    from repro.core.dynamic import DynamicP2HIndex
    from repro.core.kd_tree import KDTree
    from repro.core.linear_scan import LinearScan
    from repro.core.mips import BallTreeMIPS
    from repro.core.partitioned import PartitionedP2HIndex
    from repro.core.rp_tree import RPTree
    from repro.hashing.angular import AngularHyperplaneHash
    from repro.hashing.fh import FHIndex
    from repro.hashing.multilinear import MultilinearHyperplaneHash
    from repro.hashing.nh import NHIndex

    register_index(
        "ball_tree", BallTree,
        description="Ball-Tree with node-level ball/cone bounds (paper, Alg. 3)",
    )
    register_index(
        "bc_tree", BCTree,
        description="BC-Tree: Ball-Tree plus point-level bounds (paper, Alg. 4-5)",
    )
    register_index(
        "kd_tree", KDTree, description="KD-Tree comparison point"
    )
    register_index(
        "rp_tree", RPTree, description="Random-projection tree comparison point"
    )
    register_index(
        "linear_scan", LinearScan, description="Exact exhaustive baseline"
    )
    register_index(
        "mips", BallTreeMIPS,
        description="Ball-Tree maximum-inner-product adapter",
    )
    register_index(
        "nh", NHIndex, description="Nearest-hyperplane hashing baseline (NH)"
    )
    register_index(
        "fh", FHIndex, description="Furthest-hyperplane hashing baseline (FH)"
    )

    def _multilinear(scheme: str) -> Callable[..., Any]:
        def build(**params: Any) -> Any:
            return MultilinearHyperplaneHash(scheme, **params)
        return build

    def _angular(scheme: str) -> Callable[..., Any]:
        def build(**params: Any) -> Any:
            return AngularHyperplaneHash(scheme, **params)
        return build

    register_index(
        "bh", _multilinear("bh"),
        description="Bilinear hyperplane hashing baseline (BH)",
    )
    register_index(
        "mh", _multilinear("mh"),
        description="Multilinear hyperplane hashing baseline (MH)",
    )
    register_index(
        "ah", _angular("ah"),
        description="Angle hyperplane hashing baseline (AH)",
    )
    register_index(
        "eh", _angular("eh"),
        description="Embedding hyperplane hashing baseline (EH)",
    )

    def _composite(cls: Callable[..., Any]) -> Callable[..., Any]:
        def build(index: Any = None, **params: Any) -> Any:
            if index is not None:
                params["index_factory"] = SpecIndexFactory(index)
            return cls(**params)
        return build

    register_index(
        "dynamic", _composite(DynamicP2HIndex),
        description=(
            "Insert/delete wrapper around a static index "
            "(nested 'index' spec selects the sub-index)"
        ),
        composite=True,
    )
    register_index(
        "partitioned", _composite(PartitionedP2HIndex),
        description=(
            "Sharded index: one sub-index per partition, merged top-k "
            "(nested 'index' spec selects the shard index)"
        ),
        composite=True,
    )


_register_builtins()
