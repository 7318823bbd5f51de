"""Lightweight analyses used by the optimisation passes.

All analyses are conservative: when in doubt they report "has side effects"
or "is used", so that passes relying on them stay semantics-preserving.

Whole-program questions -- the ``uses_*`` feature flags, the named bug
models' patterns, the reduction passes' edit sites and sizes -- read one
:func:`census` of the program: a single walk of its function bodies,
memoised on the program object, that groups every node by class.  A new
whole-program question is a query on it, not another walk.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Set, Tuple

from repro.kernel_lang import ast, builtins


def expr_has_side_effects(expr: ast.Expr) -> bool:
    """True if evaluating ``expr`` may write memory or synchronise.

    Calls to ``safe_*`` and the other scalar builtins are pure; atomic
    builtins and calls to user-defined functions are treated as effectful
    (user functions may write through pointer parameters, as the Figure 1(d)
    and 2(c) kernels do).
    """
    for node in expr.walk():
        if isinstance(node, ast.AssignExpr):
            return True
        if isinstance(node, ast.Call):
            if node.name in builtins.ATOMIC_BUILTINS:
                return True
            if node.name not in builtins.SCALAR_BUILTINS:
                return True
    return False


def stmt_has_side_effects(stmt: ast.Stmt) -> bool:
    """True if executing ``stmt`` may affect state observable after it.

    Declarations count as effect-free (their effect is purely local and a
    dead declaration can be removed once its uses are gone); assignments,
    barriers, returns, breaks and effectful expressions count.
    """
    for node in stmt.walk():
        if isinstance(node, (ast.AssignStmt, ast.BarrierStmt, ast.ReturnStmt,
                             ast.BreakStmt, ast.ContinueStmt)):
            return True
        if isinstance(node, ast.ExprStmt) and expr_has_side_effects(node.expr):
            return True
        if isinstance(node, ast.Expr) and isinstance(node, ast.AssignExpr):
            return True
        if isinstance(node, ast.Expr) and isinstance(node, ast.Call):
            if node.name in builtins.ATOMIC_BUILTINS or (
                node.name not in builtins.SCALAR_BUILTINS
            ):
                return True
        if isinstance(node, ast.DeclStmt) and node.init is not None:
            if expr_has_side_effects(node.init):
                return True
    return False


def variables_read(node: ast.Node) -> Set[str]:
    """Names of all variables referenced anywhere under ``node``."""
    return {n.name for n in node.walk() if isinstance(n, ast.VarRef)}


def variables_assigned(node: ast.Node) -> Set[str]:
    """Names of variables that appear as the base of an assignment target
    or have their address taken (conservatively counted as assigned)."""
    names: Set[str] = set()
    for n in node.walk():
        if isinstance(n, (ast.AssignStmt, ast.AssignExpr)):
            base = _target_base(n.target)
            if base is not None:
                names.add(base)
        if isinstance(n, ast.AddressOf):
            base = _target_base(n.operand)
            if base is not None:
                names.add(base)
    return names


def _target_base(expr: ast.Expr):
    while isinstance(expr, (ast.FieldAccess, ast.IndexAccess, ast.VectorComponent)):
        expr = expr.base
    if isinstance(expr, ast.VarRef):
        return expr.name
    if isinstance(expr, ast.Deref):
        inner = expr.operand
        if isinstance(inner, ast.VarRef):
            return inner.name
    return None


def scope_types(fn: ast.FunctionDecl) -> dict:
    """name -> declared type for a function's parameters and locals.

    Names declared more than once with differing types (shadowing) are
    excluded, so a lookup that succeeds is unambiguous.
    """
    seen: dict = {}
    ambiguous: Set[str] = set()

    def note(name: str, type_) -> None:
        if name in seen and seen[name] != type_:
            ambiguous.add(name)
        seen[name] = type_

    for param in fn.params:
        note(param.name, param.type)
    if fn.body is not None:
        for node in fn.body.walk():
            if isinstance(node, ast.DeclStmt):
                note(node.name, node.type)
    return {name: t for name, t in seen.items() if name not in ambiguous}


def static_value_type(expr: ast.Expr, env: Optional[dict] = None):
    """The type ``expr`` evaluates to, or ``None`` when unknown.

    A conservative mirror of the interpreter's dynamic typing rules
    (:mod:`repro.runtime.ops`): literals carry their own type, casts impose
    theirs, logical operators always -- and comparisons of provably scalar
    operands -- yield ``int``, work-item
    functions yield ``size_t``, scalar arithmetic applies
    :func:`repro.kernel_lang.types.common_scalar_type`, vector/pointer
    operands dominate a binary result, and unary ``- ~`` promote sub-``int``
    operands to ``int``.  ``env`` (see :func:`scope_types`) resolves
    variable references; without it -- and for memory reads and calls --
    the answer is ``None``: passes must treat that as "could be anything".
    """
    from repro.kernel_lang import types as ty

    if isinstance(expr, ast.IntLiteral):
        return expr.type
    if isinstance(expr, ast.VarRef):
        return env.get(expr.name) if env else None
    if isinstance(expr, ast.Cast):
        return expr.type if isinstance(expr.type, (ty.IntType, ty.VectorType)) else None
    if isinstance(expr, ast.VectorLiteral):
        return expr.type
    if isinstance(expr, ast.WorkItemExpr):
        return ty.SIZE_T
    if isinstance(expr, ast.VectorComponent):
        base = static_value_type(expr.base, env)
        return base.element if isinstance(base, ty.VectorType) else None
    if isinstance(expr, ast.UnaryOp):
        operand = static_value_type(expr.operand, env)
        if expr.op == "!":
            # ``!scalar`` yields int; ``!vector`` yields a 0/1 vector of the
            # operand's own type (ops.unary lifts component-wise).
            if isinstance(operand, ty.VectorType):
                return operand
            return ty.INT if isinstance(operand, ty.IntType) else None
        if isinstance(operand, ty.VectorType):
            return operand
        if isinstance(operand, ty.IntType):
            return operand if operand.bits >= 32 else ty.INT
        return None
    if isinstance(expr, ast.BinaryOp):
        if expr.op in ast.LOGICAL_OPERATORS:
            # && and || short-circuit through truthiness and always yield a
            # scalar int, whatever the operands are.
            return ty.INT
        if expr.op in ast.COMPARISON_OPERATORS:
            # Scalar comparisons yield int, but *vector* comparisons yield
            # a -1/0 vector, so the answer is None unless both sides are
            # provably scalar.
            left = static_value_type(expr.left, env)
            right = static_value_type(expr.right, env)
            if isinstance(left, ty.IntType) and isinstance(right, ty.IntType):
                return ty.INT
            return None
        if expr.op == ",":
            return static_value_type(expr.right, env)
        left = static_value_type(expr.left, env)
        right = static_value_type(expr.right, env)
        # Pointer and vector operands dominate the result type.
        for side in (left, right):
            if isinstance(side, (ty.PointerType, ty.VectorType)):
                return side
        if isinstance(left, ty.IntType) and isinstance(right, ty.IntType):
            return ty.common_scalar_type(left, right)
        return None
    if isinstance(expr, ast.Conditional):
        then = static_value_type(expr.then, env)
        otherwise = static_value_type(expr.otherwise, env)
        if then is not None and then == otherwise:
            return then
    return None


def contains_barrier(node: ast.Node) -> bool:
    """True if any barrier statement appears under ``node``."""
    return any(isinstance(n, ast.BarrierStmt) for n in node.walk())


def contains_loop_control(node: ast.Node) -> bool:
    """True if a break or continue appears directly under ``node``'s loops'
    scope (conservative: any break/continue at all)."""
    return any(isinstance(n, (ast.BreakStmt, ast.ContinueStmt)) for n in node.walk())


def called_functions(node: ast.Node) -> Set[str]:
    """Names of user functions (non-builtins) called under ``node``."""
    return {
        n.name
        for n in node.walk()
        if isinstance(n, ast.Call) and not builtins.is_builtin(n.name)
    }


#: Node class -> the ``(function, node)`` pairs of that class.
Census = Dict[type, List[Tuple[ast.FunctionDecl, ast.Node]]]


def census(program: ast.Program) -> Census:
    """Every node of the program's function bodies, grouped by exact class.

    The pairs keep the order :meth:`~repro.kernel_lang.ast.Node.walk` visits
    them in: each function with a body, in ``program.functions`` order,
    walked in pre-order.  One walk per program object, memoised on it
    (:meth:`~repro.kernel_lang.ast.Program.memoised`).  Keying on
    ``type(node)`` is sound because every concrete AST class is a leaf
    (``Expr`` and ``Stmt`` are abstract bases); a query over several classes
    names each one.
    """
    return program.memoised("census", lambda: _take_census(program))


def _take_census(program: ast.Program) -> Census:
    found: Census = defaultdict(list)
    for fn in program.functions:
        if fn.body is not None:
            for node in fn.body.walk():
                found[type(node)].append((fn, node))
    return dict(found)


def nodes(program: ast.Program, kind: type) -> List[ast.Node]:
    """The program's nodes of class ``kind``, in :func:`census` order."""
    return [node for _, node in census(program).get(kind, ())]


def uses_vectors(program: ast.Program) -> bool:
    """True if the program declares or constructs any vector value."""
    from repro.kernel_lang import types as ty

    return (
        ast.VectorLiteral in census(program)
        or any(isinstance(d.type, ty.VectorType) for d in nodes(program, ast.DeclStmt))
        or any(isinstance(f.type, ty.VectorType) for st in program.structs for f in st.fields)
    )


def uses_barriers(program: ast.Program) -> bool:
    """True if any function body holds a barrier."""
    return ast.BarrierStmt in census(program)


def uses_atomics(program: ast.Program) -> bool:
    """True if any function body calls an atomic builtin."""
    return any(n.name in builtins.ATOMIC_BUILTINS for n in nodes(program, ast.Call))


def uses_structs(program: ast.Program) -> bool:
    return bool(program.structs)


__all__ = [
    "expr_has_side_effects",
    "stmt_has_side_effects",
    "scope_types",
    "static_value_type",
    "variables_read",
    "variables_assigned",
    "contains_barrier",
    "contains_loop_control",
    "called_functions",
    "census",
    "nodes",
    "uses_vectors",
    "uses_barriers",
    "uses_atomics",
    "uses_structs",
]
