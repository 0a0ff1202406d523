"""Per-function control-flow graphs with real exception edges.

One :class:`ControlFlowGraph` is built per ``def``. Blocks hold simple
statements only; branching constructs (``if``/``while``/``for``) end a
block and contribute *guarded edges* — the edge records the test
expression and which boolean outcome takes it, so the typestate
checker can refine resource states along each branch (``if segment is
None:`` means nothing was acquired on the true edge).

Exception flow is modelled explicitly rather than with the historical
"try body flows into handler with no guard" shortcut:

* every statement that **may raise** (it contains a call, a subscript,
  an ``await``, or is a ``raise``/``assert``) gets its own block, with
  ``kind="exception"`` edges to the enclosing handler entries, through
  the enclosing ``finally`` (as a duplicated *exceptional* copy of the
  final body whose exit re-raises outward), and — when no enclosing
  handler is a catch-all — to the function's implicit
  :attr:`~ControlFlowGraph.exception_exit` block;
* an exception edge is taken *before* the raising statement completes,
  so consumers propagate the **entry** state of the source block along
  it (the source block holds exactly the one may-raise statement);
* ``return`` under a ``try``/``finally`` routes through the final body
  first; ``with contextlib.suppress(...)`` additionally lets body
  exceptions resume at the statement after the ``with``.

Deliberate approximations, documented so rule authors can rely on
them: attribute access, arithmetic, and store/delete-context
subscripts are treated as non-raising
(``AttributeError``/``ZeroDivisionError`` sites are legion and almost
never protocol-relevant); except clauses are not matched by exception
*type* — any handler of the nearest enclosing ``try`` may receive any
exception, and propagation past the try stops only at a catch-all
handler (bare ``except``, ``except Exception``/``BaseException``);
``break``/``continue`` jump straight to their loop edges without
running intervening ``finally`` bodies. Nested function/class
definitions are opaque single statements (the analysis is
intraprocedural; inner defs get their own CFGs).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field


@dataclass
class Edge:
    """A directed edge, optionally guarded by a branch condition.

    ``kind`` is ``"normal"`` for fall-through/branch edges and
    ``"exception"`` for edges taken when the source block's statement
    raises. Exception edges are never guarded, and they carry the
    source block's *entry* state (the raising statement did not
    complete).
    """

    source: int
    target: int
    guard: ast.expr | None = None
    guard_value: bool = True
    kind: str = "normal"


@dataclass
class BasicBlock:
    """A straight-line run of simple statements."""

    index: int
    statements: list[ast.stmt] = field(default_factory=list)


@dataclass
class ControlFlowGraph:
    """Blocks plus guarded edges; block 0 is the unique entry.

    ``exception_exit`` indexes the implicit function-exit-via-exception
    block: an empty block that every uncaught raise site reaches. It is
    always allocated (index 1), even for functions that cannot raise —
    it simply stays unreachable there.
    """

    blocks: list[BasicBlock] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)
    exception_exit: int = -1

    def new_block(self) -> BasicBlock:
        block = BasicBlock(index=len(self.blocks))
        self.blocks.append(block)
        return block

    def connect(
        self,
        source: BasicBlock,
        target: BasicBlock,
        guard: ast.expr | None = None,
        guard_value: bool = True,
        kind: str = "normal",
    ) -> None:
        self.edges.append(
            Edge(source.index, target.index, guard, guard_value, kind)
        )

    def predecessors(self, index: int) -> list[Edge]:
        return [edge for edge in self.edges if edge.target == index]

    def successors(self, index: int) -> list[Edge]:
        return [edge for edge in self.edges if edge.source == index]


#: Statements that end a block with no fall-through successor.
_TERMINATORS = (ast.Return, ast.Raise, ast.Break, ast.Continue)

#: ``try`` statement types; ``ast.TryStar`` exists on 3.11+ only.
_TRY_TYPES: tuple[type, ...] = tuple(
    t
    for t in (ast.Try, getattr(ast, "TryStar", None))
    if isinstance(t, type)
)

#: Expression node types whose evaluation may raise. Attribute loads
#: and arithmetic are deliberately excluded (see the module docstring).
_RAISING_EXPRS = (ast.Call, ast.Subscript, ast.Await)

#: Handler type names that catch (effectively) everything.
_CATCH_ALL_TYPES = frozenset({"Exception", "BaseException"})


def _expr_may_raise(node: ast.AST | None) -> bool:
    if node is None:
        return False
    for child in ast.walk(node):
        if not isinstance(child, _RAISING_EXPRS):
            continue
        # Store/delete-context subscripts (``d[k] = v``, ``del d[k]``)
        # are modelled as non-raising, like attribute access: flagging
        # every registry insertion as a raise site would put an
        # exception edge between a resource acquisition and the store
        # that transfers its ownership.
        if isinstance(child, ast.Subscript) and isinstance(
            child.ctx, (ast.Store, ast.Del)
        ):
            continue
        return True
    return False


def _may_raise(statement: ast.stmt) -> bool:
    """Whether executing ``statement`` itself can raise.

    Compound statements are decomposed by the builder before this is
    consulted, so only the *header* expressions of a compound statement
    matter here (a ``With`` item's context expression, a ``Return``
    value) — their bodies are sequenced into their own blocks.
    """
    if isinstance(statement, (ast.Raise, ast.Assert)):
        return True
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return False
    if isinstance(statement, (ast.Pass, ast.Break, ast.Continue,
                              ast.Global, ast.Nonlocal,
                              ast.Import, ast.ImportFrom)):
        return False
    return _expr_may_raise(statement)


def _handler_catches_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (
        handler.type.elts
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    for node in types:
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else None
        )
        if name in _CATCH_ALL_TYPES:
            return True
    return False


def _is_suppress_item(item: ast.withitem) -> bool:
    """``with contextlib.suppress(...)`` (matched on the call's tail name)."""
    expr = item.context_expr
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None
    )
    return name == "suppress"


@dataclass
class _Layer:
    """One ring of exception interception on the builder's stack.

    ``targets`` are the blocks an in-flight exception enters (handler
    entries, or the exceptional copy of a final body). ``catches_all``
    stops outward propagation; ``is_finally`` marks the layer as a
    ``finally`` so ``return`` can route through it.
    """

    targets: list[BasicBlock]
    catches_all: bool
    is_finally: bool = False


class _Builder:
    """Recursive-descent CFG construction with loop/exception bookkeeping."""

    def __init__(self) -> None:
        self.cfg = ControlFlowGraph()
        # (loop_head, loop_exit) stack for break/continue targets.
        self._loops: list[tuple[BasicBlock, BasicBlock]] = []
        self._layers: list[_Layer] = []

    def build(self, body: list[ast.stmt]) -> ControlFlowGraph:
        entry = self.cfg.new_block()
        self.cfg.exception_exit = self.cfg.new_block().index
        self._sequence(body, entry)
        return self.cfg

    # -- exception plumbing --------------------------------------------
    def _raise_edges(self, block: BasicBlock) -> None:
        """Connect a may-raise block to every reachable interceptor.

        Walks the layer stack innermost-first; a catch-all layer stops
        propagation, otherwise the exception may escape the function
        entirely (the implicit exception-exit block).
        """
        for layer in reversed(self._layers):
            for target in layer.targets:
                self.cfg.connect(block, target, kind="exception")
            if layer.catches_all:
                return
        self.cfg.connect(
            block,
            self.cfg.blocks[self.cfg.exception_exit],
            kind="exception",
        )

    def _return_through_finally(self, block: BasicBlock) -> None:
        """Route a ``return`` through the innermost ``finally``.

        The exceptional copy of the final body is reused: its own exit
        re-raises outward, which over-approximates the genuine
        return-after-finally path but keeps every release in the final
        body visible on it.
        """
        for layer in reversed(self._layers):
            if layer.is_finally:
                for target in layer.targets:
                    self.cfg.connect(block, target)
                return

    def _isolated(self, statement: ast.stmt, block: BasicBlock) -> BasicBlock:
        """Put a may-raise statement in its own block with raise edges.

        Returns the block holding the statement; callers decide whether
        a normal fall-through successor exists.
        """
        if block.statements:
            fresh = self.cfg.new_block()
            self.cfg.connect(block, fresh)
            block = fresh
        block.statements.append(statement)
        self._raise_edges(block)
        return block

    # -- sequencing ----------------------------------------------------
    def _sequence(
        self, statements: list[ast.stmt], current: BasicBlock
    ) -> BasicBlock | None:
        """Append ``statements`` starting in ``current``.

        Returns the live fall-through block, or ``None`` when every
        path through the statements terminates (return/raise/...).
        """
        block: BasicBlock | None = current
        for statement in statements:
            if block is None:
                # Unreachable code after a terminator: give it its own
                # disconnected block so rules still see the nodes.
                block = self.cfg.new_block()
            block = self._statement(statement, block)
        return block

    def _statement(
        self, statement: ast.stmt, block: BasicBlock
    ) -> BasicBlock | None:
        if isinstance(statement, ast.If):
            return self._if(statement, block)
        if isinstance(statement, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(statement, block)
        if isinstance(statement, _TRY_TYPES):
            return self._try(statement, block)
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            return self._with(statement, block)
        if isinstance(statement, ast.Match):
            return self._match(statement, block)

        if isinstance(statement, _TERMINATORS):
            if _may_raise(statement):
                block = self._isolated(statement, block)
            else:
                block.statements.append(statement)
            if isinstance(statement, ast.Break) and self._loops:
                self.cfg.connect(block, self._loops[-1][1])
            elif isinstance(statement, ast.Continue) and self._loops:
                self.cfg.connect(block, self._loops[-1][0])
            elif isinstance(statement, ast.Return):
                self._return_through_finally(block)
            return None

        if _may_raise(statement):
            block = self._isolated(statement, block)
            after = self.cfg.new_block()
            self.cfg.connect(block, after)
            return after
        block.statements.append(statement)
        return block

    def _if(self, statement: ast.If, block: BasicBlock) -> BasicBlock | None:
        if _expr_may_raise(statement.test):
            self._raise_edges(block)
        then_entry = self.cfg.new_block()
        self.cfg.connect(block, then_entry, statement.test, True)
        then_exit = self._sequence(statement.body, then_entry)

        if statement.orelse:
            else_entry = self.cfg.new_block()
            self.cfg.connect(block, else_entry, statement.test, False)
            else_exit = self._sequence(statement.orelse, else_entry)
        else:
            else_exit = None

        live = [exit_ for exit_ in (then_exit, else_exit) if exit_ is not None]
        if not statement.orelse:
            # No else: the false edge falls through to the merge block.
            merge = self.cfg.new_block()
            self.cfg.connect(block, merge, statement.test, False)
            for exit_ in live:
                self.cfg.connect(exit_, merge)
            return merge
        if not live:
            return None
        merge = self.cfg.new_block()
        for exit_ in live:
            self.cfg.connect(exit_, merge)
        return merge

    def _loop(
        self,
        statement: ast.While | ast.For | ast.AsyncFor,
        block: BasicBlock,
    ) -> BasicBlock:
        head = self.cfg.new_block()
        exit_block = self.cfg.new_block()
        self.cfg.connect(block, head)

        if isinstance(statement, ast.While):
            guard: ast.expr | None = statement.test
            if _expr_may_raise(guard):
                self._raise_edges(head)
            body_entry = self.cfg.new_block()
            self.cfg.connect(head, body_entry, guard, True)
            self.cfg.connect(head, exit_block, guard, False)
        else:
            # ``for target in iter``: bind the target opaquely in the
            # head, then branch unguarded (iteration count unknown).
            # Evaluating the iterable / advancing the iterator may raise.
            head.statements.append(statement)
            if _expr_may_raise(statement.iter):
                self._raise_edges(head)
            body_entry = self.cfg.new_block()
            self.cfg.connect(head, body_entry)
            self.cfg.connect(head, exit_block)

        self._loops.append((head, exit_block))
        body_exit = self._sequence(statement.body, body_entry)
        self._loops.pop()
        if body_exit is not None:
            self.cfg.connect(body_exit, head)

        if statement.orelse:
            # The else arm runs on normal loop exit; fold it into the
            # exit path conservatively.
            else_exit = self._sequence(statement.orelse, exit_block)
            return else_exit if else_exit is not None else exit_block
        return exit_block

    def _try(self, statement: ast.stmt, block: BasicBlock) -> BasicBlock | None:
        body = getattr(statement, "body", [])
        handlers = getattr(statement, "handlers", [])
        orelse = getattr(statement, "orelse", [])
        finalbody = getattr(statement, "finalbody", [])

        # Exceptional copy of the final body, built against the *outer*
        # layer stack: an exception inside ``finally`` propagates
        # outward, and after the final body runs the original exception
        # re-raises outward too.
        finally_layer: _Layer | None = None
        if finalbody:
            exc_final_entry = self.cfg.new_block()
            exc_final_exit = self._sequence(finalbody, exc_final_entry)
            if exc_final_exit is not None:
                self._raise_edges(exc_final_exit)
            finally_layer = _Layer(
                targets=[exc_final_entry], catches_all=True, is_finally=True
            )
            self._layers.append(finally_layer)

        handler_entries = [self.cfg.new_block() for _ in handlers]
        if handlers:
            catches_all = any(
                _handler_catches_all(handler) for handler in handlers
            )
            self._layers.append(
                _Layer(targets=list(handler_entries), catches_all=catches_all)
            )

        body_entry = self.cfg.new_block()
        self.cfg.connect(block, body_entry)
        body_exit = self._sequence(body, body_entry)
        if handlers:
            # Handler bodies and the else arm are not protected by this
            # try's own handlers.
            self._layers.pop()
        if body_exit is not None and orelse:
            body_exit = self._sequence(orelse, body_exit)

        exits: list[BasicBlock] = []
        if body_exit is not None:
            exits.append(body_exit)
        for handler, handler_entry in zip(handlers, handler_entries):
            handler_exit = self._sequence(handler.body, handler_entry)
            if handler_exit is not None:
                exits.append(handler_exit)

        if finally_layer is not None:
            self._layers.pop()

        if not exits:
            merge: BasicBlock | None = None
        else:
            merge = self.cfg.new_block()
            for exit_ in exits:
                self.cfg.connect(exit_, merge)
        if finalbody:
            # The normal-path copy of the final body. When nothing
            # falls through (every path raised or returned) the
            # exceptional copy above already covers the final body.
            if merge is None:
                return None
            return self._sequence(finalbody, merge)
        return merge

    def _with(
        self, statement: ast.With | ast.AsyncWith, block: BasicBlock
    ) -> BasicBlock | None:
        """``with`` header plus inlined body.

        The header (the ``__enter__`` calls) may raise; the body's
        exceptions propagate to the enclosing layers — except under
        ``contextlib.suppress``, where they resume after the ``with``.
        """
        header_raises = any(
            _expr_may_raise(item.context_expr) for item in statement.items
        )
        if header_raises:
            block = self._isolated(statement, block)
            body_entry = self.cfg.new_block()
            self.cfg.connect(block, body_entry)
        else:
            block.statements.append(statement)
            body_entry = block

        if any(_is_suppress_item(item) for item in statement.items):
            after = self.cfg.new_block()
            self._layers.append(
                _Layer(targets=[after], catches_all=True)
            )
            body_exit = self._sequence(statement.body, body_entry)
            self._layers.pop()
            if body_exit is not None:
                self.cfg.connect(body_exit, after)
            return after
        return self._sequence(statement.body, body_entry)

    def _match(self, statement: ast.Match, block: BasicBlock) -> BasicBlock | None:
        block.statements.append(statement)
        if _expr_may_raise(statement.subject):
            self._raise_edges(block)
        exits: list[BasicBlock] = []
        for case in statement.cases:
            case_entry = self.cfg.new_block()
            self.cfg.connect(block, case_entry)
            case_exit = self._sequence(case.body, case_entry)
            if case_exit is not None:
                exits.append(case_exit)
        merge = self.cfg.new_block()
        # No case may match: fall through.
        self.cfg.connect(block, merge)
        for exit_ in exits:
            self.cfg.connect(exit_, merge)
        return merge


def build_cfg(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> ControlFlowGraph:
    """The control-flow graph of one function body."""
    return _Builder().build(function.body)
