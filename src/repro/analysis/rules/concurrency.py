"""Concurrency-safety rules (REP3xx).

Two contracts from the batching and serving layers:

* **Worker purity (REP301).**  ``execute_batch`` runs the same task
  callable from thread pools, process pools and inline — batch ==
  sequential parity holds only if workers are pure with respect to
  shared state.  A task callable handed to ``.map(...)``/``.submit(...)``
  must not declare ``global``/``nonlocal`` or assign to ``self.<attr>``.
  Pool ``initializer=`` callables are exempt: mutating per-process
  globals is exactly their job (that is how ``engine/batch.py`` plants
  ``_WORKER_INDEX``).
* **Non-blocking coroutines (REP302).**  ``async def`` bodies in the
  serve tier run on the event loop; one blocking call stalls every
  connection.  Flagged: ``time.sleep``, synchronous ``searcher.*search*``
  calls and the servers' block helper ``search_rows`` (those belong on
  the compute executor via ``run_in_executor``/coalescer), and
  ``subprocess``/``requests`` calls.
  Code inside a nested ``def`` is not flagged — that is the standard way
  to package blocking work for an executor.
* **Non-blocking cluster coroutines (REP303).**  The same contract as
  REP302, scoped to the distributed tier (``repro/cluster/``): the
  router's event loop multiplexes every shard connection, so one
  blocking call degrades the whole cluster.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.framework import ModuleContext, Rule, register_rule
from repro.analysis.rules.determinism import _attribute_chain

#: Executor methods whose positional-first callable is a task callable.
_DISPATCH_METHODS = ("map", "submit")

#: Keyword names carrying per-process initializers (exempt from REP301).
_INITIALIZER_KEYWORDS = ("initializer",)


def _local_function_defs(tree: ast.Module) -> Dict[str, ast.FunctionDef]:
    """Module-level ``def`` statements by name (dispatch targets we can see)."""
    return {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _dispatched_names(tree: ast.Module) -> Dict[str, ast.Call]:
    """Names of same-module callables dispatched as pool/batch tasks."""
    dispatched: Dict[str, ast.Call] = {}
    initializers: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        for keyword in node.keywords:
            if keyword.arg in _INITIALIZER_KEYWORDS and isinstance(
                keyword.value, ast.Name
            ):
                initializers.add(keyword.value.id)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DISPATCH_METHODS
            and node.args
            and isinstance(node.args[0], ast.Name)
        ):
            dispatched.setdefault(node.args[0].id, node)
    for name in initializers:
        dispatched.pop(name, None)
    return dispatched


def _mutations(fn: ast.FunctionDef) -> List[ast.stmt]:
    """Statements in ``fn`` mutating shared state (globals or ``self``)."""
    offending: List[ast.stmt] = []
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            offending.append(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    offending.append(node)
    return offending


@register_rule
class WorkerMutatesSharedState(Rule):
    """REP301: pool/batch task callables must not mutate shared state."""

    rule_id = "REP301"
    name = "worker-shared-mutation"
    description = (
        "callables dispatched via executor .map/.submit must not declare "
        "global/nonlocal or assign to self.<attr>"
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        defs = _local_function_defs(context.tree)
        for name in _dispatched_names(context.tree):
            fn = defs.get(name)
            if fn is None:
                continue
            for statement in _mutations(fn):
                yield context.finding(
                    self.rule_id,
                    statement,
                    f"dispatched worker {name!r} mutates shared state",
                )


#: ``(module, function)`` suffixes that always block.
_BLOCKING_CALLS = {
    ("time", "sleep"),
    ("subprocess", "run"),
    ("subprocess", "call"),
    ("subprocess", "check_output"),
    ("subprocess", "check_call"),
    ("requests", "get"),
    ("requests", "post"),
    ("requests", "request"),
}

#: Attribute calls that are blocking searches when made on a searcher.
_BLOCKING_SEARCH_ATTRS = ("search", "batch_search", "stream")

#: Functions that run a blocking search whatever they are called on
#: (``repro.serve.coalescer.search_rows`` answers a served block).
_BLOCKING_SEARCH_HELPERS = ("search_rows",)


def _receiver_mentions_searcher(chain: Optional[tuple]) -> bool:
    if chain is None:
        return False
    return any("searcher" in part.lower() for part in chain[:-1])


class _AsyncBodyVisitor(ast.NodeVisitor):
    """Collect blocking calls lexically inside async bodies.

    Nested synchronous ``def``s are skipped: wrapping blocking work in a
    closure handed to an executor is the sanctioned pattern.
    """

    def __init__(self) -> None:
        self.blocking: List[ast.Call] = []
        self._async_depth = 0

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._async_depth += 1
        self.generic_visit(node)
        self._async_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # sync island: its blocking calls run on an executor

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return  # same: lambdas are handed to executors, not awaited

    def visit_Call(self, node: ast.Call) -> None:
        if self._async_depth > 0:
            chain = _attribute_chain(node.func)
            if chain is not None and (
                chain[-2:] in _BLOCKING_CALLS
                or chain[-1] in _BLOCKING_SEARCH_HELPERS
                or (
                    chain[-1] in _BLOCKING_SEARCH_ATTRS
                    and _receiver_mentions_searcher(chain)
                )
            ):
                self.blocking.append(node)
        self.generic_visit(node)


def _blocking_async_findings(
    rule: Rule, context: ModuleContext
) -> Iterator[Finding]:
    """Shared body of REP302/REP303: flag blocking calls in async defs."""
    visitor = _AsyncBodyVisitor()
    visitor.visit(context.tree)
    for call in visitor.blocking:
        chain = _attribute_chain(call.func)
        label = ".".join(chain) if chain else "call"
        yield context.finding(
            rule.rule_id,
            call,
            f"blocking call {label}() inside an async def body",
        )


@register_rule
class BlockingCallInCoroutine(Rule):
    """REP302: serve-tier coroutines must not make blocking calls."""

    rule_id = "REP302"
    name = "serve-blocking-in-async"
    description = (
        "async def bodies in serve/ must not call time.sleep, synchronous "
        "searcher searches, subprocess or requests; use the compute executor"
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if not context.is_serve_scope:
            return
        yield from _blocking_async_findings(self, context)


@register_rule
class BlockingCallInClusterCoroutine(Rule):
    """REP303: cluster-tier coroutines must not make blocking calls.

    The router and manager coroutines multiplex every shard connection on
    one event loop; a single blocking call there stalls the whole
    cluster's front door — the same contract REP302 pins for the serve
    tier, scoped to ``repro/cluster/``.
    """

    rule_id = "REP303"
    name = "cluster-blocking-in-async"
    description = (
        "async def bodies in cluster/ must not call time.sleep, synchronous "
        "searcher searches, subprocess or requests; use the compute executor"
    )

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        if not context.is_cluster_scope:
            return
        yield from _blocking_async_findings(self, context)
