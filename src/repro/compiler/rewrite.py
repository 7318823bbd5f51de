"""Generic AST rewriting utilities shared by the optimisation passes and
the bug models.

The rewriters are *pure*: they never mutate their input.  They rebuild the
statements and expressions they walk bottom-up and reuse every node they do
not rebuild, so a rewritten program shares subtrees with its input -- as EMI
variants share theirs with their base (:mod:`repro.emi.pruning`).  Neither
may therefore be edited in place (the contract in
:mod:`repro.kernel_lang.ast`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.kernel_lang import ast

ExprRewriter = Callable[[ast.Expr], ast.Expr]
StmtRewriter = Callable[[ast.Stmt], Optional[List[ast.Stmt]]]


def map_expr(expr: ast.Expr, fn: ExprRewriter) -> ast.Expr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` to every sub-expression.

    ``fn`` receives an expression whose children have already been rewritten
    and returns its replacement (possibly the same object).
    """
    e = expr
    if isinstance(e, ast.VectorLiteral):
        e = ast.VectorLiteral(e.type, [map_expr(x, fn) for x in e.elements])
    elif isinstance(e, ast.UnaryOp):
        e = ast.UnaryOp(e.op, map_expr(e.operand, fn))
    elif isinstance(e, ast.BinaryOp):
        e = ast.BinaryOp(e.op, map_expr(e.left, fn), map_expr(e.right, fn))
    elif isinstance(e, ast.Conditional):
        e = ast.Conditional(
            map_expr(e.cond, fn), map_expr(e.then, fn), map_expr(e.otherwise, fn)
        )
    elif isinstance(e, ast.Cast):
        e = ast.Cast(e.type, map_expr(e.operand, fn))
    elif isinstance(e, ast.FieldAccess):
        e = ast.FieldAccess(map_expr(e.base, fn), e.field, e.arrow)
    elif isinstance(e, ast.IndexAccess):
        e = ast.IndexAccess(map_expr(e.base, fn), map_expr(e.index, fn))
    elif isinstance(e, ast.VectorComponent):
        e = ast.VectorComponent(map_expr(e.base, fn), e.component)
    elif isinstance(e, ast.AddressOf):
        e = ast.AddressOf(map_expr(e.operand, fn))
    elif isinstance(e, ast.Deref):
        e = ast.Deref(map_expr(e.operand, fn))
    elif isinstance(e, ast.Call):
        e = ast.Call(e.name, [map_expr(a, fn) for a in e.args])
    elif isinstance(e, ast.InitList):
        e = ast.InitList([map_expr(x, fn) for x in e.elements])
    elif isinstance(e, ast.AssignExpr):
        e = ast.AssignExpr(map_expr(e.target, fn), map_expr(e.value, fn), e.op)
    # IntLiteral, VarRef, WorkItemExpr have no expression children.
    return fn(e)


def map_stmt(
    stmt: ast.Stmt,
    expr_fn: Optional[ExprRewriter] = None,
    stmt_fn: Optional[StmtRewriter] = None,
) -> List[ast.Stmt]:
    """Rebuild ``stmt`` applying ``expr_fn`` to embedded expressions and
    ``stmt_fn`` to statements (bottom-up).

    ``stmt_fn`` returns ``None`` to keep the statement, ``[]`` to delete it,
    or a replacement list.  Returns the list of statements replacing ``stmt``.
    """

    def fe(e: ast.Expr) -> ast.Expr:
        return map_expr(e, expr_fn) if expr_fn is not None else e

    s: ast.Stmt = stmt
    if isinstance(s, ast.Block):
        s = ast.Block(_map_block(s, expr_fn, stmt_fn))
    elif isinstance(s, ast.DeclStmt):
        s = ast.DeclStmt(
            s.name,
            s.type,
            fe(s.init) if s.init is not None else None,
            s.address_space,
            s.volatile,
        )
    elif isinstance(s, ast.AssignStmt):
        s = ast.AssignStmt(fe(s.target), fe(s.value), s.op)
    elif isinstance(s, ast.ExprStmt):
        s = ast.ExprStmt(fe(s.expr))
    elif isinstance(s, ast.IfStmt):
        else_block = None
        if s.else_block is not None:
            else_block = ast.Block(_map_block(s.else_block, expr_fn, stmt_fn))
        s = ast.IfStmt(
            fe(s.cond),
            ast.Block(_map_block(s.then_block, expr_fn, stmt_fn)),
            else_block,
            emi_marker=s.emi_marker,
            atomic_section=s.atomic_section,
        )
    elif isinstance(s, ast.ForStmt):
        init = _map_single(s.init, expr_fn, stmt_fn)
        update = _map_single(s.update, expr_fn, stmt_fn)
        s = ast.ForStmt(
            init,
            fe(s.cond) if s.cond is not None else None,
            update,
            ast.Block(_map_block(s.body, expr_fn, stmt_fn)),
        )
    elif isinstance(s, ast.WhileStmt):
        s = ast.WhileStmt(fe(s.cond), ast.Block(_map_block(s.body, expr_fn, stmt_fn)))
    elif isinstance(s, ast.ReturnStmt):
        s = ast.ReturnStmt(fe(s.value) if s.value is not None else None)
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
) -> List[ast.Stmt]:
    out: List[ast.Stmt] = []
    for s in blk.statements:
        out.extend(map_stmt(s, expr_fn, stmt_fn))
    return out


def rewrite_function(
    fn: ast.FunctionDecl,
    expr_fn: Optional[ExprRewriter] = None,
    stmt_fn: Optional[StmtRewriter] = None,
) -> ast.FunctionDecl:
    """Rewrite a function's body, preserving its signature."""
    if fn.body is None:
        return fn
    new_body = ast.Block(_map_block(fn.body, expr_fn, stmt_fn))
    return ast.FunctionDecl(fn.name, fn.return_type, list(fn.params), new_body, fn.is_kernel)


def replace_functions(program: ast.Program, functions) -> ast.Program:
    """A copy of ``program`` with ``functions`` swapped in.

    The single place that knows how to rebuild a Program around a new
    function list (structs/buffers shallow-copied, launch shared, metadata
    copied) -- rewriters and reduction passes all go through it, so adding a
    Program field only requires updating this helper.
    """
    return ast.Program(
        structs=list(program.structs),
        functions=list(functions),
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
    """Rewrite every function of ``program`` (launch/buffers are shared)."""
    return replace_functions(
        program, [rewrite_function(f, expr_fn, stmt_fn) for f in program.functions]
    )


__all__ = [
    "map_expr",
    "map_stmt",
    "rewrite_function",
    "rewrite_program",
    "replace_functions",
    "ExprRewriter",
    "StmtRewriter",
]
