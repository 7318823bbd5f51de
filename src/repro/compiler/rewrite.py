"""Generic AST rewriting utilities shared by the optimisation passes, the
bug models, triage's canonical renaming and the reduction passes.

The rewriters are *pure*: they never mutate their input.  They walk
bottom-up and rebuild a node only when one of its children came back as a
different object (path copying), so a rewritten program shares every
unchanged subtree with its input -- as EMI variants share theirs with their
base (:mod:`repro.emi.pruning`).  Neither may therefore be edited in place
(the contract in :mod:`repro.kernel_lang.ast`).

Identity contract: a rewrite that changes nothing returns its input -- the
very expression, statement, block or function it was given, and, from
:func:`replace_functions` and :func:`rewrite_program`, the input
:class:`~repro.kernel_lang.ast.Program` when every function came back
unchanged.  A pass or bug model with nothing to do therefore allocates
nothing.  Callbacks keep the contract by returning their argument
(``expr_fn``) or ``None`` (``stmt_fn``) when they have nothing to change.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.kernel_lang import ast

ExprRewriter = Callable[[ast.Expr], ast.Expr]
StmtRewriter = Callable[[ast.Stmt], Optional[List[ast.Stmt]]]


def _map_exprs(exprs: Sequence[ast.Expr], fn: ExprRewriter) -> Sequence[ast.Expr]:
    """``exprs`` mapped; the list itself when every element came back as
    the same object."""
    mapped = [map_expr(x, fn) for x in exprs]
    for new, old in zip(mapped, exprs):
        if new is not old:
            return mapped
    return exprs


#: The expression-valued fields of each expression class that has any, in
#: visit order (IntLiteral, VarRef and WorkItemExpr have none).  A field
#: that is not an expression holds a list of them.
_CHILD_FIELDS: Dict[type, Tuple[str, ...]] = {
    ast.VectorLiteral: ("elements",),
    ast.UnaryOp: ("operand",),
    ast.BinaryOp: ("left", "right"),
    ast.Conditional: ("cond", "then", "otherwise"),
    ast.Cast: ("operand",),
    ast.FieldAccess: ("base",),
    ast.IndexAccess: ("base", "index"),
    ast.VectorComponent: ("base",),
    ast.AddressOf: ("operand",),
    ast.Deref: ("operand",),
    ast.Call: ("args",),
    ast.InitList: ("elements",),
    ast.AssignExpr: ("target", "value"),
}


def map_expr(expr: ast.Expr, fn: ExprRewriter) -> ast.Expr:
    """Rewrite ``expr`` bottom-up, applying ``fn`` to every sub-expression.

    ``fn`` receives an expression whose children have already been rewritten
    and returns its replacement (possibly the same object).  A node is
    rebuilt only when a child came back as a different object, so
    ``map_expr`` returns ``expr`` itself when ``fn`` changes nothing.
    """
    changes = None
    for name in _CHILD_FIELDS.get(type(expr), ()):
        child = getattr(expr, name)
        new = map_expr(child, fn) if isinstance(child, ast.Expr) else _map_exprs(child, fn)
        if new is not child:
            if changes is None:
                changes = {}
            changes[name] = new
    if changes:
        expr = dataclasses.replace(expr, **changes)
    return fn(expr)


def map_stmt(
    stmt: ast.Stmt,
    expr_fn: Optional[ExprRewriter] = None,
    stmt_fn: Optional[StmtRewriter] = None,
) -> List[ast.Stmt]:
    """Rewrite ``stmt`` applying ``expr_fn`` to embedded expressions and
    ``stmt_fn`` to statements (bottom-up).

    ``stmt_fn`` returns ``None`` to keep the statement, ``[]`` to delete it,
    or a replacement list.  Returns the list of statements replacing
    ``stmt``: ``[stmt]`` itself when nothing under it changed.
    """

    def fe(e: Optional[ast.Expr]) -> Optional[ast.Expr]:
        if e is None or expr_fn is None:
            return e
        return map_expr(e, expr_fn)

    s: ast.Stmt = stmt
    if isinstance(s, ast.Block):
        s = _map_block(s, expr_fn, stmt_fn)
    elif isinstance(s, ast.DeclStmt):
        init = fe(s.init)
        if init is not s.init:
            s = ast.DeclStmt(s.name, s.type, init, s.address_space, s.volatile)
    elif isinstance(s, ast.AssignStmt):
        target, value = fe(s.target), fe(s.value)
        if target is not s.target or value is not s.value:
            s = ast.AssignStmt(target, value, s.op)
    elif isinstance(s, ast.ExprStmt):
        expr = fe(s.expr)
        if expr is not s.expr:
            s = ast.ExprStmt(expr)
    elif isinstance(s, ast.IfStmt):
        # The visit order -- else, cond, then here; init, update, cond, body
        # below -- is the order stateful callbacks observe (the calibrated
        # miscompile perturbs the first result store it meets).
        else_block = s.else_block
        if else_block is not None:
            else_block = _map_block(else_block, expr_fn, stmt_fn)
        cond = fe(s.cond)
        then_block = _map_block(s.then_block, expr_fn, stmt_fn)
        if (
            cond is not s.cond
            or then_block is not s.then_block
            or else_block is not s.else_block
        ):
            s = ast.IfStmt(
                cond,
                then_block,
                else_block,
                emi_marker=s.emi_marker,
                atomic_section=s.atomic_section,
            )
    elif isinstance(s, ast.ForStmt):
        init = _map_single(s.init, expr_fn, stmt_fn)
        update = _map_single(s.update, expr_fn, stmt_fn)
        cond = fe(s.cond)
        body = _map_block(s.body, expr_fn, stmt_fn)
        if (
            init is not s.init
            or update is not s.update
            or cond is not s.cond
            or body is not s.body
        ):
            s = ast.ForStmt(init, cond, update, body)
    elif isinstance(s, ast.WhileStmt):
        cond = fe(s.cond)
        body = _map_block(s.body, expr_fn, stmt_fn)
        if cond is not s.cond or body is not s.body:
            s = ast.WhileStmt(cond, body)
    elif isinstance(s, ast.ReturnStmt):
        value = fe(s.value)
        if value is not s.value:
            s = ast.ReturnStmt(value)
    # Break/Continue/Barrier carry no children.

    if stmt_fn is not None:
        replacement = stmt_fn(s)
        if replacement is not None:
            return replacement
    return [s]


def _map_single(
    stmt: Optional[ast.Stmt],
    expr_fn: Optional[ExprRewriter],
    stmt_fn: Optional[StmtRewriter],
) -> Optional[ast.Stmt]:
    """Map a for-header clause, which must remain a single statement."""
    if stmt is None:
        return None
    result = map_stmt(stmt, expr_fn, stmt_fn)
    if len(result) == 1:
        return result[0]
    if not result:
        return None
    return ast.Block(result)


def _map_block(
    blk: ast.Block,
    expr_fn: Optional[ExprRewriter],
    stmt_fn: Optional[StmtRewriter],
) -> ast.Block:
    """``blk`` with every statement mapped; ``blk`` itself when each came
    back as ``[the same statement]``."""
    out: List[ast.Stmt] = []
    changed = False
    for s in blk.statements:
        mapped = map_stmt(s, expr_fn, stmt_fn)
        if not changed and (len(mapped) != 1 or mapped[0] is not s):
            changed = True
        out.extend(mapped)
    return ast.Block(out) if changed else blk


def rewrite_function(
    fn: ast.FunctionDecl,
    expr_fn: Optional[ExprRewriter] = None,
    stmt_fn: Optional[StmtRewriter] = None,
) -> ast.FunctionDecl:
    """Rewrite a function's body, preserving its signature; ``fn`` itself
    when the body came back unchanged."""
    if fn.body is None:
        return fn
    body = _map_block(fn.body, expr_fn, stmt_fn)
    if body is fn.body:
        return fn
    return ast.FunctionDecl(fn.name, fn.return_type, list(fn.params), body, fn.is_kernel)


def replace_functions(
    program: ast.Program, functions: Sequence[ast.FunctionDecl]
) -> ast.Program:
    """A copy of ``program`` with ``functions`` swapped in, or ``program``
    itself when ``functions`` are its own function objects in order.

    The single place that knows how to rebuild a Program around a new
    function list (structs/buffers shallow-copied, launch shared, metadata
    copied) -- rewriters, bug models and reduction passes all go through
    it, so adding a Program field only requires updating this helper.
    """
    functions = list(functions)
    if len(functions) == len(program.functions) and all(
        new is old for new, old in zip(functions, program.functions)
    ):
        return program
    return ast.Program(
        structs=list(program.structs),
        functions=functions,
        kernel_name=program.kernel_name,
        buffers=list(program.buffers),
        launch=program.launch,
        metadata=dict(program.metadata),
    )


def rewrite_program(
    program: ast.Program,
    expr_fn: Optional[ExprRewriter] = None,
    stmt_fn: Optional[StmtRewriter] = None,
) -> ast.Program:
    """Rewrite every function of ``program`` (launch/buffers are shared);
    ``program`` itself when no function changed."""
    return replace_functions(
        program, [rewrite_function(f, expr_fn, stmt_fn) for f in program.functions]
    )


def replace_statements(
    program: ast.Program,
    replacements: Iterable[Tuple[ast.Stmt, Sequence[ast.Stmt]]],
) -> ast.Program:
    """A path copy of ``program`` in which each ``(statement, new)`` pair's
    statement -- addressed by object identity -- is replaced by the
    statements ``new`` (``[]`` deletes it).

    The reduction passes derive every candidate through this helper, so a
    candidate shares everything off the paths to its edits with ``program``.
    Identity addresses a position only because a statement object sits at
    one position of a program; a statement met twice, or not met at all
    (for instance, nested inside another addressed statement, which is
    rebuilt before it is visited), raises ``ValueError``.
    """
    targets = {id(stmt): list(new) for stmt, new in replacements}
    met = set()

    def stmt_fn(stmt: ast.Stmt) -> Optional[List[ast.Stmt]]:
        key = id(stmt)
        if key not in targets:
            return None
        if key in met:
            raise ValueError("an addressed statement sits at two positions")
        met.add(key)
        return targets[key]

    result = rewrite_program(program, stmt_fn=stmt_fn)
    if len(met) != len(targets):
        raise ValueError("an addressed statement is not in the program")
    return result


__all__ = [
    "map_expr",
    "map_stmt",
    "rewrite_function",
    "rewrite_program",
    "replace_functions",
    "replace_statements",
    "ExprRewriter",
    "StmtRewriter",
]
