"""The typestate abstract interpreter over the exception-edge CFG.

Per function, the checker tracks every resource acquired through the
:data:`~repro.analysis.typestate.protocols.KNOWN_PROTOCOLS` table as a
*possible-state set* drawn from ``{open, released, escaped}``:

* ``open`` — acquired, this function still owns it;
* ``released`` — a release method/function ran;
* ``escaped`` — ownership was transferred somewhere sanctioned
  (returned, stored in an attribute/registry/container, passed to a
  callee the escape index says keeps or releases it, or managed by a
  ``with`` statement).

The analysis is a forward fixpoint over the function's CFG with
set-union joins; exception edges propagate the source block's *entry*
state (the raising statement never completed). Because the builder isolates every
may-raise statement in a singleton block, the entry state is exactly
the pre-statement state for all protocol-relevant operations (which
are calls, hence always may-raise).

Findings (consumed by rules ROP017–ROP020):

* ``leak`` — ``open`` survives to a function exit. Normal-path exits
  and the implicit exception exit are distinguished in the message,
  since the latter is precisely the defect class the upgraded CFG
  exists to expose;
* ``use-after-release`` — a non-release, non-neutral method call on a
  resource that is released on *every* path reaching it (a must-fact,
  so joins cannot produce false positives);
* ``double-release`` — a release on a resource possibly already
  released, reported only for protocols whose release is not
  idempotent (``SharedMemory.unlink`` raises the second time);
* ``unowned`` — an acquired resource never bound to a name nor
  transferred: dropped on the floor (``ProcessPoolExecutor().submit``)
  or passed straight into an external call with no local owner.

Everything unknown is optimistic: resources handed to unresolvable
callees are treated as ownership escapes, and names captured by nested
functions or lambdas escape too (the closure may release them later).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.analysis.cfg import ControlFlowGraph, build_cfg
from repro.analysis.rules.base import dotted_name
from repro.analysis.typestate.escape import (
    RELEASES,
    EscapeIndex,
    build_escape_index,
    parameter_names,
)
from repro.analysis.typestate.protocols import (
    KNOWN_PROTOCOLS,
    RELEASE_FUNCTIONS,
    ResourceProtocol,
    match_acquire,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.effects.project import EffectProject, FunctionInfo

OPEN = "open"
RELEASED = "released"
ESCAPED = "escaped"

#: Finding categories, keyed by the rule that reports them.
LEAK = "leak"
USE_AFTER_RELEASE = "use-after-release"
DOUBLE_RELEASE = "double-release"
UNOWNED = "unowned"

#: External callables that neither retain nor release their arguments.
_TRANSPARENT_CALLS = frozenset(
    {
        "abs",
        "bool",
        "float",
        "format",
        "getattr",
        "hasattr",
        "id",
        "int",
        "isinstance",
        "issubclass",
        "len",
        "max",
        "min",
        "next",
        "print",
        "repr",
        "round",
        "sorted",
        "str",
        "sum",
        "type",
        "vars",
    }
)

#: Tail names of acquire callables; functions whose bodies mention none
#: of these are skipped without building a CFG.
_ACQUIRE_TAILS = frozenset(
    tail.rsplit(".", 1)[-1]
    for protocol in KNOWN_PROTOCOLS
    for tail in protocol.acquire
)

#: Fixpoint safety valve: blocks visited more often than this abort the
#: function's analysis (optimistically, with no findings).
_VISIT_CAP = 100


@dataclass(frozen=True)
class TypestateFinding:
    """One protocol violation, located and categorised."""

    category: str
    path: str
    line: int
    column: int  # 0-based, like ast col_offset
    message: str


@dataclass
class _Resource:
    """One acquire site discovered during the walk."""

    rid: int
    protocol: ResourceProtocol
    line: int
    col: int
    #: Best-known variable name, for messages.
    label: str | None = None


#: env (name -> rid set), states (rid -> possible-state set).
_State = tuple[dict[str, frozenset[int]], dict[int, frozenset[str]]]


def _copy(state: _State) -> tuple[dict, dict]:
    env, states = state
    return dict(env), dict(states)


def _join(left: _State, right: _State) -> _State:
    lenv, lstates = left
    renv, rstates = right
    env = dict(lenv)
    for name, rids in renv.items():
        env[name] = env.get(name, frozenset()) | rids
    states = dict(lstates)
    for rid, values in rstates.items():
        states[rid] = states.get(rid, frozenset()) | values
    return env, states


def _none_branch_name(guard: ast.expr, value: bool) -> str | None:
    """The name proven None/falsy along this guarded edge, if any.

    Recognises ``X is None`` / ``X is not None`` comparisons, bare
    ``if X:`` truthiness tests, and ``if not X:``. On the branch where
    ``X`` is None, resources bound to ``X`` are phantom — the acquire
    that might have produced them returned None instead (the
    ``publish()`` pickle fallback), so nothing exists to leak.
    """
    if isinstance(guard, ast.Compare) and len(guard.ops) == 1:
        left, op = guard.left, guard.ops[0]
        comparator = guard.comparators[0]
        if (
            isinstance(left, ast.Name)
            and isinstance(comparator, ast.Constant)
            and comparator.value is None
        ):
            if isinstance(op, ast.Is) and value:
                return left.id
            if isinstance(op, ast.IsNot) and not value:
                return left.id
        return None
    if isinstance(guard, ast.Name) and not value:
        return guard.id
    if (
        isinstance(guard, ast.UnaryOp)
        and isinstance(guard.op, ast.Not)
        and isinstance(guard.operand, ast.Name)
        and value
    ):
        return guard.operand.id
    return None


def _refine(state: _State, guard: ast.expr | None, value: bool) -> _State:
    """Apply a None-test guard to the state flowing along an edge."""
    if guard is None:
        return state
    name = _none_branch_name(guard, value)
    if name is None:
        return state
    env, states = state
    rids = env.get(name)
    if not rids:
        return state
    env = dict(env)
    env[name] = frozenset()
    states = dict(states)
    for rid in rids:
        states[rid] = frozenset({ESCAPED})
    return env, states


def _mentions_acquire(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            name = dotted_name(child.func)
            if name is not None and name.rsplit(".", 1)[-1] in _ACQUIRE_TAILS:
                return True
    return False


class _Machine:
    """Transfer functions for one function under analysis."""

    def __init__(
        self,
        info: "FunctionInfo",
        project: "EffectProject",
        escape_index: EscapeIndex,
    ) -> None:
        self.info = info
        self.project = project
        self.escape_index = escape_index
        self.imports = info.context.imports
        self.call_sites = {
            id(site.node): site
            for site in info.calls
            if site.node is not None
        }
        #: (line, col, protocol name) -> _Resource; shared across the
        #: fixpoint so re-executing a block maps to the same rid.
        self.resources: dict[tuple[int, int, str], _Resource] = {}
        self.reporting = False
        #: Exceptional mode: the block's statement raised mid-flight.
        #: Acquisitions and ownership transfers did not complete, but a
        #: release that raised still counts as released — flagging
        #: "the unlink itself may fail" on every try/finally release
        #: would bury the genuine leaks this analysis exists for.
        self.exceptional = False
        self.findings: dict[tuple, TypestateFinding] = {}
        # Per-statement scratch, reset in exec_statement.
        self._env: dict[str, frozenset[int]] = {}
        self._states: dict[int, frozenset[str]] = {}
        self._fresh: set[int] = set()

    # -- reporting -----------------------------------------------------
    def _report(
        self, category: str, node: ast.AST, message: str
    ) -> None:
        if not self.reporting or self.exceptional:
            return
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        key = (category, line, col, message)
        if key not in self.findings:
            self.findings[key] = TypestateFinding(
                category=category,
                path=self.info.display_path,
                line=line,
                column=col,
                message=message,
            )

    def _describe(self, rid: int) -> str:
        resource = next(
            r for r in self.resources.values() if r.rid == rid
        )
        label = f" {resource.label!r}" if resource.label else ""
        return f"{resource.protocol.describe}{label}"

    # -- state helpers -------------------------------------------------
    def _resource_at(
        self, node: ast.Call, protocol: ResourceProtocol
    ) -> _Resource:
        key = (node.lineno, node.col_offset, protocol.name)
        resource = self.resources.get(key)
        if resource is None:
            resource = _Resource(
                rid=len(self.resources),
                protocol=protocol,
                line=node.lineno,
                col=node.col_offset,
            )
            self.resources[key] = resource
        return resource

    def _protocol(self, rid: int) -> ResourceProtocol:
        return next(
            r.protocol for r in self.resources.values() if r.rid == rid
        )

    def _release(self, rids: frozenset[int], node: ast.AST) -> None:
        for rid in rids:
            protocol = self._protocol(rid)
            state = self._states.get(rid, frozenset())
            if RELEASED in state and not protocol.double_release_ok:
                self._report(
                    DOUBLE_RELEASE,
                    node,
                    f"{self._describe(rid)} may already be released "
                    f"here; releasing a {protocol.describe} twice "
                    f"raises.",
                )
            self._states[rid] = frozenset({RELEASED})

    def _escape(self, rids: frozenset[int]) -> None:
        if self.exceptional:
            return  # the transferring statement never completed
        for rid in rids:
            self._states[rid] = frozenset({ESCAPED})

    def _use(self, rids: frozenset[int], node: ast.AST, what: str) -> None:
        for rid in rids:
            protocol = self._protocol(rid)
            if not protocol.track_use:
                continue
            if self._states.get(rid) == frozenset({RELEASED}):
                self._report(
                    USE_AFTER_RELEASE,
                    node,
                    f"{what} on {self._describe(rid)} after it was "
                    f"released.",
                )

    def _escape_captured(self, node: ast.AST) -> None:
        """Names captured by a nested def/lambda escape (optimistic)."""
        for child in ast.walk(node):
            if isinstance(child, ast.Name) and child.id in self._env:
                self._escape(self._env[child.id])

    # -- expression evaluation -----------------------------------------
    def eval(self, expr: ast.expr | None) -> frozenset[int]:
        if expr is None:
            return frozenset()
        if isinstance(expr, ast.Name):
            return self._env.get(expr.id, frozenset())
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Attribute):
            # A derived value (``segment.name``) carries the resource:
            # storing or releasing by it counts for the segment itself.
            return self.eval(expr.value)
        if isinstance(expr, (ast.Lambda,)):
            self._escape_captured(expr)
            return frozenset()
        if isinstance(expr, ast.NamedExpr):
            rids = self.eval(expr.value)
            if isinstance(expr.target, ast.Name):
                self._env[expr.target.id] = rids
            return rids
        rids: frozenset[int] = frozenset()
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                rids |= self.eval(child)
        return rids

    def _call(self, call: ast.Call) -> frozenset[int]:
        receiver_rids: frozenset[int] = frozenset()
        if isinstance(call.func, ast.Attribute):
            receiver_rids = self.eval(call.func.value)

        arg_rids = [self.eval(arg) for arg in call.args]
        keyword_rids = [self.eval(kw.value) for kw in call.keywords]

        dotted = dotted_name(call.func)
        canonical = self.imports.resolve(dotted) if dotted else None

        # Release functions: release(segment.name), os.replace(tmp, p).
        release = RELEASE_FUNCTIONS.get(canonical or "")
        if release is not None:
            _, index = release
            if index < len(arg_rids):
                self._release(arg_rids[index], call)
            return frozenset()

        # Acquisitions (skipped in exceptional mode: the constructor
        # raised, so no resource exists on that edge).
        result: frozenset[int] = frozenset()
        acquired = (
            [] if self.exceptional else match_acquire(canonical, call)
        )
        for protocol, bound_arg in acquired:
            resource = self._resource_at(call, protocol)
            self._states[resource.rid] = frozenset({OPEN})
            if bound_arg is not None and isinstance(bound_arg, ast.Name):
                resource.label = bound_arg.id
                self._env[bound_arg.id] = frozenset({resource.rid})
            else:
                self._fresh.add(resource.rid)
                result |= frozenset({resource.rid})

        # Method calls on tracked receivers: release, neutral, or use.
        if isinstance(call.func, ast.Attribute) and receiver_rids:
            attr = call.func.attr
            releases = frozenset(
                rid
                for rid in receiver_rids
                if attr in self._protocol(rid).release_methods
            )
            neutral = frozenset(
                rid
                for rid in receiver_rids
                if attr in self._protocol(rid).neutral_methods
            )
            if self.exceptional:
                # On the exception edge out of a cleanup sequence the
                # neutral step counts as progress: ``close()`` raising
                # inside a ``close(); unlink()`` finally must not read
                # as the segment leaking — the attempted cleanup is the
                # release, same as an attempted release itself.
                releases |= neutral
            if releases:
                self._release(releases, call)
            uses = receiver_rids - releases - neutral
            if uses:
                self._use(uses, call, f"method call '.{attr}()'")

        # Ownership flow of tracked arguments through the call.
        tracked_args = [
            (arg, rids)
            for arg, rids in [
                *zip(call.args, arg_rids),
                *zip([kw.value for kw in call.keywords], keyword_rids),
            ]
            if rids
        ]
        if tracked_args:
            self._flow_arguments(call, canonical, tracked_args)
        return result

    def _flow_arguments(
        self,
        call: ast.Call,
        canonical: str | None,
        tracked_args: list[tuple[ast.expr, frozenset[int]]],
    ) -> None:
        site = self.call_sites.get(id(call))
        callee = None
        if site is not None and site.kind == "name" and site.target:
            callee = self.project.functions.get(site.target)
        if callee is not None:
            dispositions = self.escape_index.get(callee.qualified, {})
            callee_params = parameter_names(callee.node)
            params = list(callee_params)
            if params and params[0] in ("self", "cls"):
                params = params[1:]
            positional = {
                id(arg): params[index]
                for index, arg in enumerate(call.args)
                if index < len(params)
                and not isinstance(arg, ast.Starred)
            }
            by_keyword = {
                id(kw.value): kw.arg
                for kw in call.keywords
                if kw.arg is not None
            }
            for arg, rids in tracked_args:
                param = positional.get(id(arg)) or by_keyword.get(id(arg))
                if param is None:
                    self._escape(rids)
                    continue
                disposition = dispositions.get(param, frozenset())
                if RELEASES in disposition:
                    self._release(rids, call)
                elif disposition:
                    self._escape(rids)
                # An empty disposition: the callee neither keeps nor
                # releases it — the caller still owns the resource.
            return
        if canonical in _TRANSPARENT_CALLS:
            return
        # Unknown external callee: ownership may transfer. A resource
        # acquired in this very statement and never bound has no owner
        # at all — that is ROP020, not a sanctioned escape.
        for arg, rids in tracked_args:
            for rid in rids & self._fresh:
                if OPEN in self._states.get(rid, frozenset()):
                    self._report(
                        UNOWNED,
                        call,
                        f"{self._describe(rid)} is passed straight to "
                        f"an external call without a local owner; "
                        f"nothing can release it if the callee does "
                        f"not.",
                    )
            self._escape(rids)

    # -- statement execution -------------------------------------------
    def _bind(self, target: ast.expr, rids: frozenset[int]) -> None:
        if isinstance(target, ast.Name):
            self._env[target.id] = rids
        elif isinstance(target, ast.Starred):
            self._bind(target.value, rids)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # Stored into an attribute/registry: ownership transfer.
            self.eval(target.value)
            self._escape(rids)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, rids)

    def _assign(self, targets: list[ast.expr], value: ast.expr) -> None:
        rids = self.eval(value)
        for target in targets:
            if (
                isinstance(target, (ast.Tuple, ast.List))
                and isinstance(value, ast.Call)
                and rids
            ):
                # Tuple-unpacked acquire (``_, segment, _ = publish()``):
                # bind only the protocol's result_index element.
                indexed = self._tuple_acquire_binding(value, target, rids)
                if indexed:
                    continue
            self._bind(target, rids)

    def _tuple_acquire_binding(
        self,
        value: ast.Call,
        target: ast.Tuple | ast.List,
        rids: frozenset[int],
    ) -> bool:
        bound = False
        for rid in rids:
            resource = next(
                r for r in self.resources.values() if r.rid == rid
            )
            index = resource.protocol.result_index
            if index is None or index >= len(target.elts):
                continue
            element = target.elts[index]
            if isinstance(element, ast.Name):
                resource.label = element.id
                self._env[element.id] = frozenset({rid})
                for other in target.elts:
                    if other is not element and isinstance(
                        other, ast.Name
                    ):
                        self._env[other.id] = frozenset()
                bound = True
        return bound

    def exec_statement(self, statement: ast.stmt) -> None:
        self._fresh = set()
        if isinstance(statement, ast.Assign):
            self._assign(statement.targets, statement.value)
        elif isinstance(statement, ast.AnnAssign):
            if statement.value is not None:
                self._assign([statement.target], statement.value)
        elif isinstance(statement, ast.AugAssign):
            rids = self.eval(statement.value)
            if isinstance(statement.target, (ast.Attribute, ast.Subscript)):
                self._escape(rids)
        elif isinstance(statement, ast.Expr):
            self.eval(statement.value)
        elif isinstance(statement, ast.Return):
            self._escape(self.eval(statement.value))
        elif isinstance(statement, (ast.Raise,)):
            self.eval(statement.exc)
            self.eval(statement.cause)
        elif isinstance(statement, ast.Assert):
            self.eval(statement.test)
            self.eval(statement.msg)
        elif isinstance(statement, ast.Delete):
            for target in statement.targets:
                if isinstance(target, ast.Name):
                    self._env.pop(target.id, None)
        elif isinstance(statement, (ast.With, ast.AsyncWith)):
            # Only the header lives in this block; the body is
            # sequenced into its own blocks by the CFG builder.
            for item in statement.items:
                rids = self.eval(item.context_expr)
                # The context manager owns whatever it wraps — both a
                # fresh ``with open(...)`` and ``with existing_pool:``.
                self._escape(rids)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, rids)
        elif isinstance(statement, (ast.For, ast.AsyncFor)):
            self.eval(statement.iter)
            self._bind(statement.target, frozenset())
        elif isinstance(statement, ast.Match):
            self.eval(statement.subject)
        elif isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            self._escape_captured(statement)
        # Everything else (Pass, Import, Global, ...) is protocol-inert.

        # A resource acquired in this statement that ends it unbound
        # and un-transferred has no owner: nothing can release it.
        for rid in self._fresh:
            if OPEN not in self._states.get(rid, frozenset()):
                continue
            if any(rid in rids for rids in self._env.values()):
                continue
            resource = next(
                r for r in self.resources.values() if r.rid == rid
            )
            self._report(
                UNOWNED,
                statement,
                f"{resource.protocol.describe} acquired here is never "
                f"bound or transferred; it cannot be released "
                f"({resource.protocol.release_hint}).",
            )
            self._states[rid] = frozenset({ESCAPED})

    def transfer(
        self,
        statements: list[ast.stmt],
        state: _State,
        exceptional: bool = False,
    ) -> _State:
        self._env, self._states = _copy(state)
        self.exceptional = exceptional
        try:
            for statement in statements:
                self.exec_statement(statement)
        finally:
            self.exceptional = False
        return self._env, self._states


def check_function(
    info: "FunctionInfo",
    project: "EffectProject",
    escape_index: EscapeIndex,
) -> list[TypestateFinding]:
    """Run the typestate fixpoint over one function."""
    if not _mentions_acquire(info.node):
        return []
    cfg: ControlFlowGraph = build_cfg(info.node)
    machine = _Machine(info, project, escape_index)

    empty: _State = ({}, {})
    in_states: dict[int, _State] = {0: empty}
    visits = [0] * len(cfg.blocks)
    worklist = [0]
    while worklist:
        index = worklist.pop()
        visits[index] += 1
        if visits[index] > _VISIT_CAP:  # pragma: no cover - safety valve
            return []
        successors = cfg.successors(index)
        statements = cfg.blocks[index].statements
        out = machine.transfer(statements, in_states[index])
        out_exc: _State | None = None
        for edge in successors:
            if edge.kind == "exception":
                # The raising statement did not complete — but any
                # release it attempted still counts (see _Machine).
                if out_exc is None:
                    out_exc = machine.transfer(
                        statements, in_states[index], exceptional=True
                    )
                candidate = out_exc
            else:
                candidate = _refine(out, edge.guard, edge.guard_value)
            existing = in_states.get(edge.target)
            joined = (
                candidate
                if existing is None
                else _join(existing, candidate)
            )
            if existing is None or joined != existing:
                in_states[edge.target] = joined
                worklist.append(edge.target)

    # Replay reachable blocks once against the converged states to
    # collect use/double-release/unowned findings deterministically.
    machine.reporting = True
    out_states: dict[int, _State] = {}
    for index in sorted(in_states):
        out_states[index] = machine.transfer(
            cfg.blocks[index].statements, in_states[index]
        )
    machine.reporting = False

    findings = list(machine.findings.values())
    findings.extend(
        _leak_findings(info, cfg, machine, in_states, out_states)
    )
    return findings


def _leak_findings(
    info: "FunctionInfo",
    cfg: ControlFlowGraph,
    machine: _Machine,
    in_states: dict[int, _State],
    out_states: dict[int, _State],
) -> list[TypestateFinding]:
    normal_exit: _State = ({}, {})
    for index, out in out_states.items():
        if index == cfg.exception_exit:
            continue
        # A normal exit is a reachable block with no *normal* outgoing
        # edge — a trailing block or a return site (whose own raise
        # edges do not make it any less of a function exit). Blocks
        # ending in an explicit ``raise`` leave exceptionally and are
        # never normal exits.
        statements = cfg.blocks[index].statements
        if statements and isinstance(statements[-1], ast.Raise):
            continue
        if not any(
            edge.kind == "normal" for edge in cfg.successors(index)
        ):
            normal_exit = _join(normal_exit, out)
    exception_exit = in_states.get(cfg.exception_exit, ({}, {}))

    findings: list[TypestateFinding] = []
    for resource in machine.resources.values():
        label = f" {resource.label!r}" if resource.label else ""
        described = f"{resource.protocol.describe}{label}"
        on_normal = OPEN in normal_exit[1].get(resource.rid, frozenset())
        on_exception = OPEN in exception_exit[1].get(
            resource.rid, frozenset()
        )
        if on_normal:
            where = "on a normal path"
        elif on_exception:
            where = "on an exception path"
        else:
            continue
        findings.append(
            TypestateFinding(
                category=LEAK,
                path=info.display_path,
                line=resource.line,
                column=resource.col,
                message=(
                    f"{described} acquired in '{info.short_name}' may "
                    f"never be released {where}; "
                    f"{resource.protocol.release_hint}."
                ),
            )
        )
    return findings


def check_project(project: "EffectProject") -> list[TypestateFinding]:
    """Typestate findings for every function in the project, sorted."""
    escape_index = build_escape_index(project)
    findings: list[TypestateFinding] = []
    for qualified in sorted(project.functions):
        findings.extend(
            check_function(project.functions[qualified], project, escape_index)
        )
    return sorted(
        findings,
        key=lambda f: (f.path, f.line, f.column, f.category, f.message),
    )


__all__ = [
    "DOUBLE_RELEASE",
    "LEAK",
    "TypestateFinding",
    "UNOWNED",
    "USE_AFTER_RELEASE",
    "check_function",
    "check_project",
]
