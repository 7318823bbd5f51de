"""Shared helpers for the miniature workload kernels.

The paper's Table 2 benchmarks are real OpenCL applications; the miniatures
here re-implement each benchmark's characteristic kernel structure against
the kernel language so that EMI injection (experiment E5 / Table 3) has
realistic host kernels to work with.  Floating-point benchmarks are
re-expressed over integers: the kernel language deliberately has no floating
point, mirroring CLsmith itself (paper section 9), and the paper's own
methodology avoids FP-sensitive comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.kernel_lang import ast, printer, types as ty
from repro.kernel_lang.ast import (
    AssignStmt,
    BarrierStmt,
    BinaryOp,
    Block,
    BufferSpec,
    Call,
    Cast,
    DeclStmt,
    ForStmt,
    FunctionDecl,
    IfStmt,
    IndexAccess,
    IntLiteral,
    LaunchSpec,
    ParamDecl,
    Program,
    VarRef,
    WorkItemExpr,
)


@dataclass
class Workload:
    """One Table 2 entry: a named, runnable mini-benchmark."""

    name: str
    suite: str
    description: str
    build: Callable[[], Program]
    uses_floating_point_in_paper: bool
    kernels_in_paper: int
    kernel_lines_in_paper: int
    has_deliberate_race: bool = False

    def program(self) -> Program:
        return self.build()

    def kernel_lines_of_code(self) -> int:
        """Lines of the pretty-printed kernel source of the miniature."""
        return len(printer.print_program(self.build()).splitlines())

    def table_row(self) -> Dict[str, object]:
        return {
            "suite": self.suite,
            "benchmark": self.name,
            "description": self.description,
            "kernels (paper)": self.kernels_in_paper,
            "kernel LoC (paper)": self.kernel_lines_in_paper,
            "uses FP (paper)": "yes" if self.uses_floating_point_in_paper else "no",
            "mini LoC": self.kernel_lines_of_code(),
            "deliberate race": "yes" if self.has_deliberate_race else "no",
        }


def out_param(name: str = "out", element: ty.IntType = ty.ULONG) -> ParamDecl:
    return ParamDecl(name, ty.PointerType(element, ty.GLOBAL))


def in_param(name: str, element: ty.IntType = ty.INT) -> ParamDecl:
    return ParamDecl(name, ty.PointerType(element, ty.GLOBAL))


def local_param(name: str, element: ty.IntType = ty.INT) -> ParamDecl:
    return ParamDecl(name, ty.PointerType(element, ty.LOCAL))


def gid(dim: int = 0) -> ast.Expr:
    return WorkItemExpr("get_global_id", dim)


def tlinear() -> ast.Expr:
    return WorkItemExpr("get_linear_global_id")


def llinear() -> ast.Expr:
    return WorkItemExpr("get_linear_local_id")


def counted_loop(var: str, bound: int, body: Sequence[ast.Stmt]) -> ForStmt:
    """``for (int var = 0; var < bound; var += 1) { body }``."""
    return ForStmt(
        DeclStmt(var, ty.INT, IntLiteral(0)),
        BinaryOp("<", VarRef(var), IntLiteral(bound)),
        AssignStmt(VarRef(var), IntLiteral(1), "+="),
        Block(list(body)),
    )


def safe_add(a: ast.Expr, b: ast.Expr) -> ast.Expr:
    return Call("safe_add", [a, b])


def safe_mul(a: ast.Expr, b: ast.Expr) -> ast.Expr:
    return Call("safe_mul", [a, b])


def safe_sub(a: ast.Expr, b: ast.Expr) -> ast.Expr:
    return Call("safe_sub", [a, b])


def abs_diff(a: ast.Expr, b: ast.Expr) -> ast.Expr:
    """``abs(a - b)`` computed safely."""
    return Call("abs", [Call("safe_sub", [a, b])])


def build_program(
    kernel_body: List[ast.Stmt],
    params: List[ParamDecl],
    buffers: List[BufferSpec],
    launch: LaunchSpec,
    name: str,
    helpers: Optional[List[FunctionDecl]] = None,
    structs: Optional[list] = None,
) -> Program:
    kernel = FunctionDecl("entry", ty.VOID, params, Block(kernel_body), is_kernel=True)
    return Program(
        structs=list(structs or []),
        functions=list(helpers or []) + [kernel],
        kernel_name="entry",
        buffers=buffers,
        launch=launch,
        metadata={"workload": name},
    )


def deterministic_input(size: int, seed: int, modulus: int = 97) -> List[int]:
    """A reproducible pseudo-random input vector (no RNG state needed)."""
    values = []
    state = seed * 2654435761 % (2**32)
    for i in range(size):
        state = (state * 1103515245 + 12345) % (2**31)
        values.append(state % modulus)
    return values


__all__ = [
    "Workload",
    "out_param",
    "in_param",
    "local_param",
    "gid",
    "tlinear",
    "llinear",
    "counted_loop",
    "safe_add",
    "safe_mul",
    "safe_sub",
    "abs_diff",
    "build_program",
    "deterministic_input",
]
