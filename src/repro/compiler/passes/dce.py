"""Dead-code elimination.

Removes:

* statements that are unreachable because they follow a ``return``, ``break``
  or ``continue`` in the same block;
* ``if`` statements whose condition is a literal (replacing them with the
  taken branch, if any -- spliced into the enclosing block, or kept as a
  nested block when it declares a variable at its top level, so the
  declaration stays in its own scope);
* loops whose condition is literally false (a declaring init clause is kept,
  in a block of its own for the same reason);
* declarations of variables that are never read and never have their address
  taken anywhere in the enclosing function, provided their initialiser has no
  side effects;
* assignments to such never-read variables.

Barriers are never removed unless the enclosing code is itself unreachable:
removing an executed barrier could introduce a data race, while removing an
unreached one cannot (the EMI argument of paper section 5 relies on this).
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.compiler import analysis, rewrite
from repro.compiler.passes.base import Pass
from repro.kernel_lang import ast


def _is_terminator(stmt: ast.Stmt) -> bool:
    return isinstance(stmt, (ast.ReturnStmt, ast.BreakStmt, ast.ContinueStmt))


class DeadCodeEliminationPass(Pass):
    """Remove statically-dead statements and unused local variables."""

    name = "dce"

    def run(self, program: ast.Program) -> ast.Program:
        return rewrite.replace_functions(
            program,
            [fn if fn.body is None else self._clean_function(fn) for fn in program.functions],
        )

    # ------------------------------------------------------------------

    def _clean_function(self, fn: ast.FunctionDecl) -> ast.FunctionDecl:
        body = fn.body
        assert body is not None
        # Iterate to a fixed point (bounded): removing an assignment can make
        # another variable unused.  The cleaners return what they were given
        # when they change nothing, so the fixed point is an identity test.
        for _ in range(4):
            read = self._read_or_escaping(fn, body)
            new_body = self._clean_block(body, read)
            if new_body is body:
                break
            body = new_body
        if body is fn.body:
            return fn
        return ast.FunctionDecl(fn.name, fn.return_type, list(fn.params), body, fn.is_kernel)

    def _read_or_escaping(self, fn: ast.FunctionDecl, body: ast.Block) -> Set[str]:
        """Variables that are read somewhere or whose address escapes.

        The base variable of a plain assignment target counts as written, not
        read; every other occurrence (including array indices and struct paths
        inside a target, and anything whose address is taken) counts as read.
        """
        read: Set[str] = set()
        self._collect_reads_stmt(body, read)
        # Parameters always stay.
        read |= {p.name for p in fn.params}
        return read

    def _collect_reads_stmt(self, stmt: ast.Stmt, read: Set[str]) -> None:
        if isinstance(stmt, ast.Block):
            for s in stmt.statements:
                self._collect_reads_stmt(s, read)
        elif isinstance(stmt, ast.DeclStmt):
            if stmt.init is not None:
                read |= analysis.variables_read(stmt.init)
        elif isinstance(stmt, ast.AssignStmt):
            read |= analysis.variables_read(stmt.value)
            read |= self._target_reads(stmt.target)
            # A compound assignment also reads its target.
            if stmt.op != "=":
                read |= analysis.variables_read(stmt.target)
        elif isinstance(stmt, ast.ExprStmt):
            read |= analysis.variables_read(stmt.expr)
        elif isinstance(stmt, ast.IfStmt):
            read |= analysis.variables_read(stmt.cond)
            self._collect_reads_stmt(stmt.then_block, read)
            if stmt.else_block is not None:
                self._collect_reads_stmt(stmt.else_block, read)
        elif isinstance(stmt, ast.ForStmt):
            if stmt.init is not None:
                self._collect_reads_stmt(stmt.init, read)
            if stmt.cond is not None:
                read |= analysis.variables_read(stmt.cond)
            if stmt.update is not None:
                self._collect_reads_stmt(stmt.update, read)
            self._collect_reads_stmt(stmt.body, read)
        elif isinstance(stmt, ast.WhileStmt):
            read |= analysis.variables_read(stmt.cond)
            self._collect_reads_stmt(stmt.body, read)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                read |= analysis.variables_read(stmt.value)
        # Break/Continue/Barrier read nothing.

    def _target_reads(self, target: ast.Expr) -> Set[str]:
        """Variables read while evaluating an assignment target (indices,
        pointer bases) -- everything except a plain ``VarRef`` base."""
        if isinstance(target, ast.VarRef):
            return set()
        if isinstance(target, (ast.FieldAccess, ast.VectorComponent)):
            return self._target_reads(target.base)
        if isinstance(target, ast.IndexAccess):
            return self._target_reads(target.base) | analysis.variables_read(target.index)
        return analysis.variables_read(target)

    # ------------------------------------------------------------------

    def _clean_block(self, blk: ast.Block, read: Set[str]) -> ast.Block:
        out: List[ast.Stmt] = []
        changed = False
        for stmt in blk.statements:
            cleaned = self._clean_stmt(stmt, read)
            if len(cleaned) != 1 or cleaned[0] is not stmt:
                changed = True
            out.extend(cleaned)
            if out and _is_terminator(out[-1]):
                break  # everything after is unreachable
        if not changed and len(out) == len(blk.statements):
            return blk
        return ast.Block(out)

    def _clean_stmt(self, stmt: ast.Stmt, read: Set[str]) -> List[ast.Stmt]:
        if isinstance(stmt, ast.Block):
            return [self._clean_block(stmt, read)]
        if isinstance(stmt, ast.DeclStmt):
            if stmt.name not in read and (
                stmt.init is None or not analysis.expr_has_side_effects(stmt.init)
            ):
                return []
            return [stmt]
        if isinstance(stmt, ast.AssignStmt):
            if (
                isinstance(stmt.target, ast.VarRef)
                and stmt.target.name not in read
                and not analysis.expr_has_side_effects(stmt.value)
            ):
                return []
            return [stmt]
        if isinstance(stmt, ast.IfStmt):
            return self._clean_if(stmt, read)
        if isinstance(stmt, ast.ForStmt):
            return self._clean_for(stmt, read)
        if isinstance(stmt, ast.WhileStmt):
            if isinstance(stmt.cond, ast.IntLiteral) and stmt.cond.value == 0:
                return []
            body = self._clean_block(stmt.body, read)
            return [stmt] if body is stmt.body else [ast.WhileStmt(stmt.cond, body)]
        return [stmt]

    def _clean_if(self, stmt: ast.IfStmt, read: Set[str]) -> List[ast.Stmt]:
        then_block = self._clean_block(stmt.then_block, read)
        else_block = (
            self._clean_block(stmt.else_block, read) if stmt.else_block is not None else None
        )
        if isinstance(stmt.cond, ast.IntLiteral):
            taken = then_block if stmt.cond.value != 0 else else_block
            if taken is None:
                return []
            if any(isinstance(s, ast.DeclStmt) for s in taken.statements):
                return [taken]  # its declarations must not leak into our scope
            return list(taken.statements)
        if else_block is not None and not else_block.statements:
            else_block = None
        if then_block is stmt.then_block and else_block is stmt.else_block:
            return [stmt]
        return [
            ast.IfStmt(
                stmt.cond,
                then_block,
                else_block,
                emi_marker=stmt.emi_marker,
                atomic_section=stmt.atomic_section,
            )
        ]

    def _clean_for(self, stmt: ast.ForStmt, read: Set[str]) -> List[ast.Stmt]:
        if (
            stmt.cond is not None
            and isinstance(stmt.cond, ast.IntLiteral)
            and stmt.cond.value == 0
        ):
            # The body never executes; only the init clause remains
            # observable, and a declaration there is scoped to the loop.
            if stmt.init is None:
                return []
            if isinstance(stmt.init, ast.DeclStmt):
                return [ast.Block([stmt.init])]
            return [stmt.init]
        body = self._clean_block(stmt.body, read)
        if body is stmt.body:
            return [stmt]
        return [ast.ForStmt(stmt.init, stmt.cond, stmt.update, body)]


__all__ = ["DeadCodeEliminationPass"]
