"""Loop unrolling.

Fully unrolls counted ``for`` loops of the shape the generator produces::

    for (T i = <start>; i < <bound>; i += <step>) { ... }

when the trip count is small (``max_trip_count``), the induction variable is
not written inside the body, and the body contains no ``break``/``continue``
or barriers (barriers could legally be unrolled, but keeping them out keeps
the divergence argument trivial).  The loop variable is re-declared, at its
declared type, with the iteration's constant value in front of each unrolled
copy, so semantics -- including the variable being out of scope afterwards
-- are preserved.  Only loops that declare their induction variable are
unrolled: a loop over an outer variable (``for (i = 0; ...)``) would need
that variable's type, and its exit value stored back.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.compiler import analysis
from repro.compiler.passes.base import Pass
from repro.kernel_lang import ast, types as ty


class LoopUnrollPass(Pass):
    """Fully unroll small counted loops."""

    name = "unroll"

    def __init__(self, max_trip_count: int = 8):
        self.max_trip_count = max_trip_count

    def run(self, program: ast.Program) -> ast.Program:
        from repro.compiler import rewrite

        def stmt_fn(stmt: ast.Stmt) -> Optional[List[ast.Stmt]]:
            if isinstance(stmt, ast.ForStmt):
                unrolled = self._try_unroll(stmt)
                if unrolled is not None:
                    return unrolled
            return None

        return rewrite.rewrite_program(program, stmt_fn=stmt_fn)

    # ------------------------------------------------------------------

    def _try_unroll(self, loop: ast.ForStmt) -> Optional[List[ast.Stmt]]:
        plan = self._analyse(loop)
        if plan is None:
            return None
        var_name, var_type, values = plan
        body_template = loop.body
        if analysis.contains_loop_control(body_template) or analysis.contains_barrier(
            body_template
        ):
            return None
        if var_name in analysis.variables_assigned(body_template):
            return None
        return [
            ast.Block(
                [ast.DeclStmt(var_name, var_type, ast.IntLiteral(value, var_type))]
                + [s.clone() for s in body_template.statements]
            )
            for value in values
        ]

    def _analyse(self, loop: ast.ForStmt) -> Optional[Tuple[str, ty.IntType, List[int]]]:
        # init: "T i = start"
        init = loop.init
        if (
            not isinstance(init, ast.DeclStmt)
            or not isinstance(init.init, ast.IntLiteral)
            or not isinstance(init.type, ty.IntType)
        ):
            return None
        name = init.name
        var_type = init.type
        start = init.init.value
        # cond: "i < bound" or "i <= bound"
        cond = loop.cond
        if (
            not isinstance(cond, ast.BinaryOp)
            or cond.op not in ("<", "<=")
            or not isinstance(cond.left, ast.VarRef)
            or cond.left.name != name
            or not isinstance(cond.right, ast.IntLiteral)
        ):
            return None
        bound = cond.right.value
        inclusive = cond.op == "<="
        # update: "i += step"
        update = loop.update
        if (
            not isinstance(update, ast.AssignStmt)
            or update.op != "+="
            or not isinstance(update.target, ast.VarRef)
            or update.target.name != name
            or not isinstance(update.value, ast.IntLiteral)
        ):
            return None
        step = update.value.value
        if step <= 0:
            return None
        values: List[int] = []
        i = start
        while (i <= bound if inclusive else i < bound):
            values.append(i)
            if len(values) > self.max_trip_count:
                return None
            i += step
        # The final update must stay in range: an increment that wraps or
        # overflows the variable's type would change the trip count.
        if values and not var_type.contains(values[-1] + step):
            return None
        return name, var_type, values


__all__ = ["LoopUnrollPass"]
