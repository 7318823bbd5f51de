"""Base class for optimisation passes."""

from __future__ import annotations

from repro.kernel_lang import ast


class Pass:
    """An AST-to-AST transformation.

    Subclasses implement :meth:`run`; they must not mutate the input program
    (use :mod:`repro.compiler.rewrite`, which rebuilds only what changes),
    and return the input itself when they change nothing.
    """

    #: Human-readable pass name (used in pipeline descriptions and reports).
    name = "pass"

    def run(self, program: ast.Program) -> ast.Program:
        raise NotImplementedError

    def __call__(self, program: ast.Program) -> ast.Program:
        return self.run(program)

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"<{type(self).__name__}>"


__all__ = ["Pass"]
