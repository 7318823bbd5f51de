"""Algebraic simplification.

Rewrites value-preserving identities such as ``x + 0 -> x``,
``safe_mul(x, 1) -> x`` and ``cond ? x : x -> x`` (the latter only for
side-effect free, repeatable operands).

Type discipline: dropping an identity operand may *narrow* the static type
of the expression (``(uchar)e ^ 0`` has promoted type ``int``; plain
``(uchar)e`` is 8 bits wide), and the safe-math wrappers are
width-sensitive -- ``safe_lshift`` clamps the shift amount modulo the
width of its first argument's type, so ``safe_lshift((uchar)e ^ 0, 9)``
shifts by 9 while ``safe_lshift((uchar)e, 9)`` shifts by ``9 % 8``.  An
identity is therefore only applied when
:func:`repro.compiler.analysis.static_value_type` proves the surviving
operand already has the full expression's type; when the operand's type is
unknown (a variable, a memory read, a call) the expression is left alone.
This was found by the test-case reducer dogfooding itself on the
``optimisation level does not change results`` property (REDUCTION.md).
"""

from __future__ import annotations

import functools
from typing import Callable

from repro.compiler import analysis, rewrite
from repro.compiler.passes.base import Pass
from repro.kernel_lang import ast, types as ty


#: A function's variable types (:func:`repro.compiler.analysis.scope_types`),
#: computed on the first call.
Scope = Callable[[], dict]


def _is_zero(e: ast.Expr) -> bool:
    return isinstance(e, ast.IntLiteral) and e.value == 0


def _is_one(e: ast.Expr) -> bool:
    return isinstance(e, ast.IntLiteral) and e.value == 1


def _pure(e: ast.Expr) -> bool:
    return not analysis.expr_has_side_effects(e)


def _keeps_type(kept: ast.Expr, dropped: ast.Expr, scope: Scope) -> bool:
    """True when dropping ``dropped`` from a binary identity provably leaves
    the expression's dynamic value type unchanged.

    Pointer and vector operands dominate a mixed binary result, so dropping
    a scalar identity literal next to them is always type-preserving.  For
    scalar operands the kept type must be known and already equal to the
    usual-arithmetic-conversion result.
    """
    env = scope()
    kept_type = analysis.static_value_type(kept, env)
    if kept_type is None:
        return False
    if isinstance(kept_type, (ty.PointerType, ty.VectorType)):
        return True
    dropped_type = analysis.static_value_type(dropped, env)
    if not isinstance(dropped_type, ty.IntType):
        return False
    return ty.common_scalar_type(kept_type, dropped_type) == kept_type


class SimplifyPass(Pass):
    """Apply value- and type-preserving algebraic identities."""

    name = "simplify"

    def run(self, program: ast.Program) -> ast.Program:
        functions = []
        for fn in program.functions:
            # Scope-aware typing: parameter/local declarations resolve
            # variable references so identities on variables stay available.
            # Built on first need: most functions offer no identity to check.
            scope = functools.cache(functools.partial(analysis.scope_types, fn))
            functions.append(
                rewrite.rewrite_function(
                    fn, expr_fn=lambda e, scope=scope: self._simplify(e, scope)
                )
            )
        return rewrite.replace_functions(program, functions)

    def _simplify(self, expr: ast.Expr, scope: Scope) -> ast.Expr:
        if isinstance(expr, ast.BinaryOp):
            return self._simplify_binary(expr, scope)
        if isinstance(expr, ast.Call):
            return self._simplify_call(expr, scope)
        if isinstance(expr, ast.UnaryOp):
            # Unary plus is the identity only for operands that already have
            # promoted (>= int) width -- on narrower operands it widens the
            # type, which width-sensitive consumers can observe -- or that
            # are vectors (element-wise identity, type preserved).
            # !!x is NOT simplified to x because the values differ.
            if expr.op == "+":
                operand_type = analysis.static_value_type(expr.operand, scope())
                if isinstance(operand_type, ty.VectorType):
                    return expr.operand
                if isinstance(operand_type, ty.IntType) and operand_type.bits >= 32:
                    return expr.operand
        if isinstance(expr, ast.Conditional):
            # cond ? x : x  ->  x   when cond is pure.  The interpreter
            # returns the taken branch's value unconverted, so this never
            # changes the type.
            if _pure(expr.cond) and _exprs_identical(expr.then, expr.otherwise):
                return expr.then
        return expr

    def _simplify_binary(self, expr: ast.BinaryOp, scope: Scope) -> ast.Expr:
        op, left, right = expr.op, expr.left, expr.right
        if op == "+":
            if _is_zero(right) and _keeps_type(left, right, scope):
                return left
            if _is_zero(left) and _keeps_type(right, left, scope):
                return right
        elif op == "-":
            if _is_zero(right) and _keeps_type(left, right, scope):
                return left
        elif op == "*":
            if _is_one(right) and _keeps_type(left, right, scope):
                return left
            if _is_one(left) and _keeps_type(right, left, scope):
                return right
        elif op in ("|", "^"):
            if _is_zero(right) and _keeps_type(left, right, scope):
                return left
            if _is_zero(left) and _keeps_type(right, left, scope):
                return right
        elif op in ("<<", ">>"):
            if _is_zero(right) and _keeps_type(left, right, scope):
                return left
        elif op == ",":
            # The comma's value and type are exactly the right operand's.
            if _pure(left):
                return right
        return expr

    def _simplify_call(self, expr: ast.Call, scope: Scope) -> ast.Expr:
        """Safe-wrapper identities.

        The wrappers compute in (and wrap to) the type of their *first*
        argument (``builtin_result_type``), so dropping a trailing identity
        operand preserves both value and type unconditionally; dropping a
        *leading* identity literal replaces the literal's type with the other
        operand's and needs the static-type proof.
        """
        name, args = expr.name, expr.args
        if name in ("safe_add", "safe_sub", "safe_lshift", "safe_rshift") and len(args) == 2:
            if _is_zero(args[1]):
                return args[0]
            if name == "safe_add" and _is_zero(args[0]) and self._first_arg_type_kept(args, scope):
                return args[1]
        if name == "safe_mul" and len(args) == 2:
            if _is_one(args[1]):
                return args[0]
            if _is_one(args[0]) and self._first_arg_type_kept(args, scope):
                return args[1]
        if name in ("safe_div", "safe_mod") and len(args) == 2:
            # Dividing by zero returns the dividend under safe semantics.
            if _is_zero(args[1]):
                return args[0] if name == "safe_div" else args[0]
        if name == "safe_clamp" and len(args) == 3:
            lo, hi = args[1], args[2]
            if (
                isinstance(lo, ast.IntLiteral)
                and isinstance(hi, ast.IntLiteral)
                and lo.value > hi.value
            ):
                # min > max: the safe wrapper returns x unchanged.
                return args[0]
        return expr

    @staticmethod
    def _first_arg_type_kept(args, scope: Scope) -> bool:
        """For ``safe_op(literal, x) -> x``: the wrapper's result type was the
        literal's; the rewrite is only sound when ``x`` provably has it too,
        or when ``x`` is a vector (the wrapper then computes component-wise
        in the vector's element type and returns the vector unchanged)."""
        env = scope()
        other_type = analysis.static_value_type(args[1], env)
        if isinstance(other_type, ty.VectorType):
            return True
        literal_type = analysis.static_value_type(args[0], env)
        return literal_type is not None and literal_type == other_type


def _exprs_identical(a: ast.Expr, b: ast.Expr) -> bool:
    """Structural equality of two expressions (conservative)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, ast.IntLiteral):
        return a.value == b.value and a.type == b.type
    if isinstance(a, ast.VarRef):
        return a.name == b.name
    if isinstance(a, ast.WorkItemExpr):
        return a.function == b.function and a.dimension == b.dimension
    if isinstance(a, ast.BinaryOp):
        return (
            a.op == b.op
            and _exprs_identical(a.left, b.left)
            and _exprs_identical(a.right, b.right)
        )
    if isinstance(a, ast.UnaryOp):
        return a.op == b.op and _exprs_identical(a.operand, b.operand)
    if isinstance(a, ast.Call):
        return (
            a.name == b.name
            and len(a.args) == len(b.args)
            and all(_exprs_identical(x, y) for x, y in zip(a.args, b.args))
        )
    return False


__all__ = ["SimplifyPass"]
