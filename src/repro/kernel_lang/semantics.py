"""Static well-formedness checks and the undefined-behaviour taxonomy.

The checker is intentionally lighter-weight than a real front end: its role
in the reproduction is (a) to reject malformed programs produced by buggy
tooling in this repository before they reach the interpreter, and (b) to
implement the *barrier uniformity* restriction the paper relies on to avoid
barrier divergence (section 4.2, "Avoiding barrier divergence"): thread ids
must not influence control flow that encloses a barrier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.kernel_lang import ast, builtins, types as ty


class UBKind(enum.Enum):
    """Classes of undefined behaviour tracked by the runtime.

    These mirror the sources listed in paper section 3.1: C99-inherited UB,
    data races, barrier divergence, and builtin-specific UB such as
    ``clamp`` with ``min > max``.
    """

    SIGNED_OVERFLOW = "signed integer overflow"
    DIVISION_BY_ZERO = "division by zero"
    SHIFT_OUT_OF_RANGE = "shift amount out of range"
    OUT_OF_BOUNDS = "out-of-bounds access"
    NULL_DEREFERENCE = "null pointer dereference"
    UNINITIALISED_READ = "read of uninitialised value"
    DATA_RACE = "data race"
    BARRIER_DIVERGENCE = "barrier divergence"
    BUILTIN_UNDEFINED = "builtin with undefined arguments"
    INVALID_FIELD = "invalid struct/union member access"


@dataclass
class Diagnostic:
    """A single static-check finding."""

    message: str
    function: Optional[str] = None
    fatal: bool = True

    def __str__(self) -> str:  # pragma: no cover - convenience
        where = f" in {self.function}" if self.function else ""
        return f"{self.message}{where}"


class ValidationError(Exception):
    """Raised by :func:`validate_program` when fatal diagnostics are present."""

    def __init__(self, diagnostics: List[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


@dataclass
class _FunctionContext:
    name: str
    declared: Set[str]
    loop_depth: int = 0


class Validator:
    """Performs the static checks described in the module docstring."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.diagnostics: List[Diagnostic] = []
        self._functions: Dict[str, ast.FunctionDecl] = {}
        for fn in program.functions:
            # Definitions shadow forward declarations.
            if fn.name not in self._functions or fn.body is not None:
                self._functions[fn.name] = fn
        self._struct_names = {s.name for s in program.structs}

    # -- public API -----------------------------------------------------------

    def validate(self) -> List[Diagnostic]:
        self._check_kernel_exists()
        for fn in self.program.functions:
            if fn.body is not None:
                self._check_function(fn)
        return self.diagnostics

    # -- helpers ----------------------------------------------------------------

    def _error(self, message: str, function: Optional[str] = None) -> None:
        self.diagnostics.append(Diagnostic(message, function))

    def _check_kernel_exists(self) -> None:
        try:
            kernel = self.program.kernel()
        except KeyError:
            self._error(f"no kernel named {self.program.kernel_name!r}")
            return
        buffer_names = {b.name for b in self.program.buffers}
        for param in kernel.params:
            if isinstance(param.type, ty.PointerType) and param.type.address_space in (
                ty.GLOBAL,
                ty.CONSTANT,
            ):
                if param.name not in buffer_names:
                    self._error(
                        f"kernel parameter {param.name!r} has no bound buffer",
                        kernel.name,
                    )

    def _check_function(self, fn: ast.FunctionDecl) -> None:
        declared = {p.name for p in fn.params}
        ctx = _FunctionContext(fn.name, declared)
        self._check_block(fn.body, ctx)
        self._check_barrier_uniformity(fn)

    def _check_block(self, blk: ast.Block, ctx: _FunctionContext) -> None:
        local_names = set(ctx.declared)
        inner = _FunctionContext(ctx.name, local_names, ctx.loop_depth)
        for stmt in blk.statements:
            self._check_stmt(stmt, inner)

    def _check_stmt(self, stmt: ast.Stmt, ctx: _FunctionContext) -> None:
        if isinstance(stmt, ast.DeclStmt):
            if stmt.init is not None:
                self._check_expr(stmt.init, ctx)
            ctx.declared.add(stmt.name)
        elif isinstance(stmt, ast.AssignStmt):
            self._check_expr(stmt.target, ctx)
            self._check_expr(stmt.value, ctx)
        elif isinstance(stmt, ast.ExprStmt):
            self._check_expr(stmt.expr, ctx)
        elif isinstance(stmt, ast.IfStmt):
            self._check_expr(stmt.cond, ctx)
            self._check_block(stmt.then_block, ctx)
            if stmt.else_block is not None:
                self._check_block(stmt.else_block, ctx)
        elif isinstance(stmt, ast.ForStmt):
            loop_ctx = _FunctionContext(ctx.name, set(ctx.declared), ctx.loop_depth + 1)
            if stmt.init is not None:
                self._check_stmt(stmt.init, loop_ctx)
            if stmt.cond is not None:
                self._check_expr(stmt.cond, loop_ctx)
            if stmt.update is not None:
                self._check_stmt(stmt.update, loop_ctx)
            self._check_block(stmt.body, loop_ctx)
        elif isinstance(stmt, ast.WhileStmt):
            loop_ctx = _FunctionContext(ctx.name, set(ctx.declared), ctx.loop_depth + 1)
            self._check_expr(stmt.cond, loop_ctx)
            self._check_block(stmt.body, loop_ctx)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                self._check_expr(stmt.value, ctx)
        elif isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            if ctx.loop_depth == 0:
                self._error("break/continue outside of a loop", ctx.name)
        elif isinstance(stmt, (ast.BarrierStmt, ast.Block)):
            if isinstance(stmt, ast.Block):
                self._check_block(stmt, ctx)
        else:  # pragma: no cover - defensive
            self._error(f"unknown statement kind {type(stmt).__name__}", ctx.name)

    def _check_expr(self, expr: ast.Expr, ctx: _FunctionContext) -> None:
        if isinstance(expr, ast.VarRef):
            if expr.name not in ctx.declared:
                self._error(f"use of undeclared variable {expr.name!r}", ctx.name)
        elif isinstance(expr, ast.Call):
            if builtins.is_builtin(expr.name):
                expected = builtins.builtin_arity(expr.name)
                if len(expr.args) != expected:
                    self._error(
                        f"builtin {expr.name!r} expects {expected} arguments, "
                        f"got {len(expr.args)}",
                        ctx.name,
                    )
            elif expr.name not in self._functions:
                self._error(f"call to undefined function {expr.name!r}", ctx.name)
            for arg in expr.args:
                self._check_expr(arg, ctx)
            return
        for child in expr.children():
            if isinstance(child, ast.Expr):
                self._check_expr(child, ctx)

    # -- barrier uniformity -------------------------------------------------------

    def _check_barrier_uniformity(self, fn: ast.FunctionDecl) -> None:
        """Report barriers nested under control flow that mentions thread ids.

        This is a conservative syntactic check matching the restriction the
        generator enforces (paper section 4.2): sufficient for the programs in
        this repository, not a general divergence analysis.
        """
        self._walk_uniformity(fn.body, False, fn.name)

    def _walk_uniformity(self, stmt: ast.Stmt, divergent: bool, fname: str) -> None:
        if isinstance(stmt, ast.BarrierStmt) and divergent:
            self._error(
                "barrier under thread-id-dependent control flow "
                "(potential barrier divergence)",
                fname,
            )
        elif isinstance(stmt, ast.Block):
            for s in stmt.statements:
                self._walk_uniformity(s, divergent, fname)
        elif isinstance(stmt, ast.IfStmt):
            branch_divergent = divergent or _mentions_thread_id(stmt.cond)
            self._walk_uniformity(stmt.then_block, branch_divergent, fname)
            if stmt.else_block is not None:
                self._walk_uniformity(stmt.else_block, branch_divergent, fname)
        elif isinstance(stmt, ast.ForStmt):
            loop_divergent = divergent or (
                stmt.cond is not None and _mentions_thread_id(stmt.cond)
            )
            self._walk_uniformity(stmt.body, loop_divergent, fname)
        elif isinstance(stmt, ast.WhileStmt):
            loop_divergent = divergent or _mentions_thread_id(stmt.cond)
            self._walk_uniformity(stmt.body, loop_divergent, fname)


def _mentions_thread_id(expr: ast.Expr) -> bool:
    """True if the expression syntactically uses a per-thread id."""
    per_thread = {"get_global_id", "get_local_id", "get_linear_global_id",
                  "get_linear_local_id"}
    return any(
        isinstance(node, ast.WorkItemExpr) and node.function in per_thread
        for node in expr.walk()
    )


def validate_program(program: ast.Program, strict: bool = True) -> List[Diagnostic]:
    """Validate ``program`` and return the diagnostics.

    With ``strict=True`` (the default) a :class:`ValidationError` is raised if
    any fatal diagnostic is found.
    """
    diags = Validator(program).validate()
    if strict and any(d.fatal for d in diags):
        raise ValidationError(diags)
    return diags


def validation_error(program: ast.Program) -> Optional[str]:
    """The front end's verdict on ``program``: ``None`` if it is well formed,
    else the rejection message.

    Memoised on the program object (:meth:`~repro.kernel_lang.ast.Program.
    memoised`, key ``"validation"``), so the reduction pass filter, the
    interestingness predicates and ``CompilerDriver.compile`` ask for one
    verdict and each program object is validated once.
    """

    def verdict() -> Optional[str]:
        try:
            validate_program(program)
        except ValidationError as error:
            return str(error)
        return None

    return program.memoised("validation", verdict)


__all__ = [
    "UBKind",
    "Diagnostic",
    "ValidationError",
    "Validator",
    "validate_program",
    "validation_error",
]
