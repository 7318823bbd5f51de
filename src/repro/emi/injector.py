"""Injection of dead-by-construction EMI blocks into existing kernels.

CLsmith-generated kernels can be equipped with EMI blocks at generation time
(``GeneratorOptions.emi_blocks``); this module handles the other case the
paper needs (section 5, "Injecting into real-world kernels"): adding a
``dead`` array parameter and EMI blocks to a kernel that was *not* produced
by the generator -- our miniature Parboil/Rodinia workloads play the role of
the real-world benchmarks.

Free variables of an injected block are handled in one of two ways, mirroring
the paper's *substitutions* toggle:

* substitutions **off**: the block declares its own local variables;
* substitutions **on**: the block's variables are aliased to randomly chosen
  live variables of the host kernel, giving the compiler the opportunity to
  (mis)optimise across the block boundary.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.generator.context import GenContext
from repro.generator.exprgen import ExpressionGenerator
from repro.generator.options import GeneratorOptions, Mode
from repro.generator.rng import GeneratorRandom
from repro.generator.stmtgen import StatementGenerator
from repro.kernel_lang import ast, types as ty

#: Name of the host-initialised array making EMI blocks dead by construction.
DEAD_ARRAY = "dead"


@dataclass
class InjectionReport:
    """What the injector did to a program (recorded in metadata and useful
    for tests and the Table 3 harness)."""

    n_blocks: int
    substitutions: bool
    aliased_variables: List[str]


class EmiInjector:
    """Injects EMI blocks into an existing program."""

    def __init__(
        self,
        seed: int = 0,
        n_blocks: int = 1,
        substitutions: bool = False,
        dead_array_size: int = 16,
        block_statements: int = 4,
    ) -> None:
        self.seed = seed
        self.n_blocks = n_blocks
        self.substitutions = substitutions
        self.dead_array_size = dead_array_size
        self.block_statements = block_statements

    # ------------------------------------------------------------------

    def inject(self, program: ast.Program) -> Tuple[ast.Program, InjectionReport]:
        """Return a copy of ``program`` with EMI blocks and a ``dead`` buffer.

        The copy is a path copy: it rebuilds the kernel (its parameters and
        its top-level statement list), the buffer list and the metadata, and
        shares everything else -- the kernel's own statements and every other
        function included -- with ``program``, which is left as it is.
        """
        rng = GeneratorRandom(self.seed)
        kernel = program.kernel()
        assert kernel.body is not None
        scalars = self._kernel_scalars(kernel)
        aliased: List[str] = []

        statements = list(kernel.body.statements)
        for i in range(self.n_blocks):
            block_rng = rng.fork(f"block-{i}")
            position, visible = self._choose_position(statements, scalars, block_rng)
            block, used = self._build_block(visible, block_rng, marker=i)
            aliased.extend(used)
            statements.insert(position, block)

        params = list(kernel.params)
        if not any(p.name == DEAD_ARRAY for p in params):
            params.append(ast.ParamDecl(DEAD_ARRAY, ty.PointerType(ty.UINT, ty.GLOBAL)))
        buffers = list(program.buffers)
        if not any(b.name == DEAD_ARRAY for b in buffers):
            buffers.append(
                ast.BufferSpec(
                    DEAD_ARRAY,
                    ty.UINT,
                    self.dead_array_size,
                    address_space=ty.GLOBAL,
                    init="iota",
                )
            )
        injected_kernel = dataclasses.replace(
            kernel, params=params, body=ast.Block(statements)
        )
        injected = dataclasses.replace(
            program,
            functions=[injected_kernel if fn is kernel else fn for fn in program.functions],
            buffers=buffers,
            metadata={
                **program.metadata,
                "emi_injected_blocks": self.n_blocks,
                "emi_substitutions": self.substitutions,
            },
        )
        report = InjectionReport(self.n_blocks, self.substitutions, aliased)
        return injected, report

    # ------------------------------------------------------------------

    def _kernel_scalars(self, kernel: ast.FunctionDecl) -> List[Tuple[int, str, ty.IntType]]:
        """``(top-level index, name, type)`` of scalar locals of the kernel."""
        assert kernel.body is not None
        found: List[Tuple[int, str, ty.IntType]] = []
        for index, stmt in enumerate(kernel.body.statements):
            if isinstance(stmt, ast.DeclStmt) and isinstance(stmt.type, ty.IntType):
                found.append((index, stmt.name, stmt.type))
        return found

    def _choose_position(
        self,
        statements: Sequence[ast.Stmt],
        scalars: Sequence[Tuple[int, str, ty.IntType]],
        rng: GeneratorRandom,
    ) -> Tuple[int, List[Tuple[str, ty.IntType]]]:
        """Pick an insertion index into ``statements`` (the kernel's top
        level, with the blocks inserted so far) and the variables visible at
        that point."""
        if scalars:
            # Insert somewhere after the first declaration so substitutions
            # have something to alias.
            first = scalars[0][0] + 1
        else:
            first = 0
        position = rng.randint(first, len(statements))
        visible = [(name, type_) for idx, name, type_ in scalars if idx < position]
        return position, visible

    def _build_block(
        self,
        visible: List[Tuple[str, ty.IntType]],
        rng: GeneratorRandom,
        marker: int,
    ) -> Tuple[ast.IfStmt, List[str]]:
        d = self.dead_array_size
        rnd_2 = rng.randrange(0, d - 1)
        rnd_1 = rng.randrange(rnd_2 + 1, d)
        guard = ast.BinaryOp(
            "<",
            ast.IndexAccess(ast.VarRef(DEAD_ARRAY), ast.IntLiteral(rnd_1)),
            ast.IndexAccess(ast.VarRef(DEAD_ARRAY), ast.IntLiteral(rnd_2)),
        )

        options = GeneratorOptions(mode=Mode.BASIC, max_expr_depth=2, max_block_depth=1)
        launch = ast.LaunchSpec((1, 1, 1), (1, 1, 1))
        ctx = GenContext(options, rng.fork("ctx"), launch)
        exprs = ExpressionGenerator(ctx)
        stmts = StatementGenerator(ctx, exprs)

        decls: List[ast.Stmt] = []
        used: List[str] = []
        if self.substitutions and visible:
            # Alias block variables to live kernel variables.
            chosen = rng.sample(visible, min(len(visible), rng.randint(1, 3)))
            for name, type_ in chosen:
                ctx.add_scalar(name, type_)
                used.append(name)
        else:
            # Declare fresh locals inside the block.
            for i in range(rng.randint(1, 3)):
                type_ = rng.choice([ty.INT, ty.UINT, ty.LONG])
                name = f"emi{marker}_v{i}"
                decls.append(ast.DeclStmt(name, type_, exprs.literal(type_)))
                ctx.add_scalar(name, type_)

        n = rng.randint(1, self.block_statements)
        body_statements = decls + stmts.block(n, 1)
        return ast.IfStmt(guard, ast.Block(body_statements), emi_marker=marker), used


def inject_emi_blocks(
    program: ast.Program,
    seed: int = 0,
    n_blocks: int = 1,
    substitutions: bool = False,
    dead_array_size: int = 16,
) -> ast.Program:
    """Convenience wrapper returning only the injected program."""
    injector = EmiInjector(
        seed=seed,
        n_blocks=n_blocks,
        substitutions=substitutions,
        dead_array_size=dead_array_size,
    )
    injected, _ = injector.inject(program)
    return injected


__all__ = ["EmiInjector", "InjectionReport", "inject_emi_blocks", "DEAD_ARRAY"]
