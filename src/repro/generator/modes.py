"""Mode-specific kernel machinery (paper section 4.2 and section 5).

Each machinery object contributes three things to a kernel under generation:

* extra buffers (host-allocated global/constant memory or per-group local
  memory);
* *setup* statements emitted near the top of the kernel body;
* *fragments* -- statements interleaved at random points in the body -- and
  *finalisation* statements emitted just before the result is written.

The design follows the paper closely; the one deliberate deviation is in
ATOMIC SECTION mode, where the per-group special values are additionally
accumulated into a dedicated atomic output buffer instead of being read
non-atomically by thread 0 at the end of the kernel.  The paper's reading is
not ordered with respect to the atomic sections of other threads; our variant
preserves the structure of the mode (counter-guarded sections, hashes of
section-local state, per-group aggregation) while being deterministic by
construction under any interleaving, which the determinism property tests
(``benchmarks/test_determinism_modes.py``) verify.
"""

from __future__ import annotations

from typing import List, Optional

from repro.generator.context import GenContext
from repro.generator.exprgen import ExpressionGenerator
from repro.generator.stmtgen import StatementGenerator
from repro.kernel_lang import ast, builtins, types as ty


class ModeMachinery:
    """Base class: a feature a mode adds to the kernel."""

    def buffers(self) -> List[ast.BufferSpec]:
        return []

    def setup(self) -> List[ast.Stmt]:
        return []

    def fragment(self) -> List[ast.Stmt]:
        """Statements to inject at a random point of the kernel body."""
        return []

    def fragment_count(self) -> int:
        return 0

    def finalise(self, result_var: str) -> List[ast.Stmt]:
        return []


# ---------------------------------------------------------------------------
# BARRIER mode
# ---------------------------------------------------------------------------


class BarrierMachinery(ModeMachinery):
    """Permutation-based shared-array communication (paper section 4.2).

    A shared array ``A`` (local or global memory) of length ``Wlinear`` per
    group is initialised to 1.  Each thread owns the element selected by its
    ``A_offset``, initially ``permutations[rnd][llinear]``.  At each
    synchronisation point the group barriers and ownership is re-distributed
    with another permutation, after which reads/writes of ``A[A_offset]``
    cannot race.
    """

    def __init__(self, ctx: GenContext, exprs: ExpressionGenerator) -> None:
        self.ctx = ctx
        self.exprs = exprs
        self.rng = ctx.rng.fork("barrier-mode")
        self.options = ctx.options
        self.wlinear = ctx.group_linear_size
        self.d = max(2, self.options.permutation_count)
        self.in_local = self.rng.coin(self.options.probability_array_in_local)
        self.fence = ast.LOCAL_MEM_FENCE if self.in_local else ast.GLOBAL_MEM_FENCE
        self._sync_count = self.rng.randint(
            self.options.min_barrier_syncs, self.options.max_barrier_syncs
        )
        # Flattened permutation table: permutations[i][j] lives at i*Wlinear+j.
        self.permutations: List[int] = []
        for _ in range(self.d):
            self.permutations.extend(self.rng.permutation(self.wlinear))
        self.initial_rnd = self.rng.randrange(0, self.d)

    # -- contributions -----------------------------------------------------

    def buffers(self) -> List[ast.BufferSpec]:
        specs = [
            ast.BufferSpec(
                "permutations",
                ty.UINT,
                self.d * self.wlinear,
                address_space=ty.CONSTANT,
                init=list(self.permutations),
            )
        ]
        if self.in_local:
            specs.append(
                ast.BufferSpec("A", ty.UINT, self.wlinear, address_space=ty.LOCAL, init="one")
            )
        else:
            specs.append(
                ast.BufferSpec(
                    "A",
                    ty.UINT,
                    self.wlinear * self.ctx.total_groups,
                    address_space=ty.GLOBAL,
                    init="one",
                )
            )
        return specs

    def _permutation_index(self, rnd: int) -> ast.Expr:
        return ast.BinaryOp(
            "+",
            ast.IntLiteral(rnd * self.wlinear, ty.UINT),
            ast.Cast(ty.UINT, ast.local_linear_id()),
        )

    def _a_index(self) -> ast.Expr:
        """Index of this thread's owned element of ``A``."""
        offset: ast.Expr = ast.VarRef("A_offset")
        if not self.in_local:
            group_base = ast.BinaryOp(
                "*",
                ast.Cast(ty.UINT, ast.group_linear_id()),
                ast.IntLiteral(self.wlinear, ty.UINT),
            )
            offset = ast.BinaryOp("+", group_base, offset)
        return offset

    def setup(self) -> List[ast.Stmt]:
        return [
            ast.DeclStmt(
                "A_offset",
                ty.UINT,
                ast.IndexAccess(
                    ast.VarRef("permutations"), self._permutation_index(self.initial_rnd)
                ),
            )
        ]

    def fragment_count(self) -> int:
        return self._sync_count

    def fragment(self) -> List[ast.Stmt]:
        """One synchronisation point: barrier, re-distribution, then an owned
        read-modify-write of ``A[A_offset]``."""
        rnd = self.rng.randrange(0, self.d)
        stmts: List[ast.Stmt] = [
            ast.BarrierStmt(self.fence),
            ast.AssignStmt(
                ast.VarRef("A_offset"),
                ast.IndexAccess(ast.VarRef("permutations"), self._permutation_index(rnd)),
            ),
        ]
        update = ast.AssignStmt(
            ast.IndexAccess(ast.VarRef("A"), self._a_index()),
            ast.Call(
                "safe_add",
                [
                    ast.IndexAccess(ast.VarRef("A"), self._a_index()),
                    self.exprs.scalar(ty.UINT, 1),
                ],
            ),
        )
        stmts.append(update)
        return stmts

    def finalise(self, result_var: str) -> List[ast.Stmt]:
        """A final barrier, then fold the owned element into the result."""
        return [
            ast.BarrierStmt(self.fence),
            ast.AssignStmt(
                ast.VarRef(result_var),
                ast.Call(
                    "safe_add",
                    [
                        ast.VarRef(result_var),
                        ast.Cast(ty.ULONG, ast.IndexAccess(ast.VarRef("A"), self._a_index())),
                    ],
                ),
            ),
        ]


# ---------------------------------------------------------------------------
# ATOMIC SECTION mode
# ---------------------------------------------------------------------------


class AtomicSectionMachinery(ModeMachinery):
    """Counter-guarded atomic sections (paper section 4.2).

    The i-th section has the shape::

        if (atomic_inc(&c[k]) == rnd_i) {
            /* declarations with literal initialisers */
            atomic_add(&s[k], hash);
            atomic_add(&atomic_out[glinear], hash);
        }

    where ``hash`` sums the variables declared inside the section.  The
    section-local state is restricted to literal initialisers so the hash is
    identical no matter which thread (or which loop iteration) wins the race
    to be the ``rnd_i``-th incrementer.
    """

    def __init__(self, ctx: GenContext, exprs: ExpressionGenerator) -> None:
        self.ctx = ctx
        self.exprs = exprs
        self.rng = ctx.rng.fork("atomic-section-mode")
        self.options = ctx.options
        self._section_count = self.rng.randint(
            self.options.min_atomic_sections, self.options.max_atomic_sections
        )
        # Each section gets its own (counter, special value) pair.  The paper
        # lets sections share counters, but a shared counter makes *which*
        # section observes the magic value schedule-dependent -- the flaw that
        # forced the authors to discard ~16 % of their ATOMIC SECTION and ALL
        # mode tests (section 7.3).  Dedicated counters keep the mode
        # deterministic under every interleaving.
        self.n_counters = max(
            self._section_count,
            self.rng.randint(self.options.min_atomic_counters, self.options.max_atomic_counters),
        )
        self._emitted = 0

    def buffers(self) -> List[ast.BufferSpec]:
        return [
            ast.BufferSpec("atomic_counters", ty.UINT, self.n_counters,
                           address_space=ty.LOCAL, init="zero"),
            ast.BufferSpec("atomic_specials", ty.UINT, self.n_counters,
                           address_space=ty.LOCAL, init="zero"),
            ast.BufferSpec("atomic_out", ty.ULONG, self.ctx.total_groups,
                           address_space=ty.GLOBAL, init="zero", is_output=True),
        ]

    def fragment_count(self) -> int:
        return self._section_count

    def fragment(self) -> List[ast.Stmt]:
        counter = self._emitted % max(1, self.n_counters)
        self._emitted += 1
        # rnd_i is drawn from [0, Wlinear) so that some thread always enters.
        rnd_i = self.rng.randrange(0, max(1, self.ctx.group_linear_size))
        n_vars = self.rng.randint(1, self.options.max_atomic_section_vars)
        decls: List[ast.Stmt] = []
        names: List[str] = []
        for _ in range(n_vars):
            name = self.ctx.fresh_name("as")
            type_ = self.rng.choice([ty.UINT, ty.INT, ty.USHORT])
            decls.append(ast.DeclStmt(name, type_, self.exprs.literal(type_)))
            names.append(name)
        hash_expr: ast.Expr = ast.Cast(ty.UINT, ast.VarRef(names[0]))
        for name in names[1:]:
            hash_expr = ast.Call("safe_add", [hash_expr, ast.Cast(ty.UINT, ast.VarRef(name))])
        body = decls + [
            ast.ExprStmt(
                ast.Call(
                    "atomic_add",
                    [
                        ast.AddressOf(
                            ast.IndexAccess(ast.VarRef("atomic_specials"), ast.IntLiteral(counter))
                        ),
                        hash_expr,
                    ],
                )
            ),
            ast.ExprStmt(
                ast.Call(
                    "atomic_add",
                    [
                        ast.AddressOf(
                            ast.IndexAccess(
                                ast.VarRef("atomic_out"),
                                ast.Cast(ty.UINT, ast.group_linear_id()),
                            )
                        ),
                        ast.Cast(ty.ULONG, hash_expr.clone()),
                    ],
                )
            ),
        ]
        guard = ast.BinaryOp(
            "==",
            ast.Call(
                "atomic_inc",
                [ast.AddressOf(ast.IndexAccess(ast.VarRef("atomic_counters"), ast.IntLiteral(counter)))],
            ),
            ast.IntLiteral(rnd_i, ty.UINT),
        )
        return [ast.IfStmt(guard, ast.Block(body), atomic_section=True)]


# ---------------------------------------------------------------------------
# ATOMIC REDUCTION mode
# ---------------------------------------------------------------------------


class AtomicReductionMachinery(ModeMachinery):
    """Commutative atomic reductions (paper section 4.2).

    Each reduction atomically combines a uniform expression into a per-group
    shared location, barriers, lets the thread with ``llinear == 0`` fold the
    reduced value into its private running total, and barriers again so the
    location can be reused.
    """

    def __init__(self, ctx: GenContext, exprs: ExpressionGenerator) -> None:
        self.ctx = ctx
        self.exprs = exprs
        self.rng = ctx.rng.fork("atomic-reduction-mode")
        self.options = ctx.options
        self._reduction_count = self.rng.randint(
            self.options.min_reductions, self.options.max_reductions
        )

    def buffers(self) -> List[ast.BufferSpec]:
        return [
            ast.BufferSpec("reduction_loc", ty.UINT, 1, address_space=ty.LOCAL, init="zero"),
        ]

    def setup(self) -> List[ast.Stmt]:
        return [ast.DeclStmt("reduction_total", ty.ULONG, ast.IntLiteral(0, ty.ULONG))]

    def fragment_count(self) -> int:
        return self._reduction_count

    def fragment(self) -> List[ast.Stmt]:
        op = self.rng.choice(list(builtins.REDUCTION_ATOMICS))
        pointer = ast.AddressOf(ast.IndexAccess(ast.VarRef("reduction_loc"), ast.IntLiteral(0)))
        value = self.exprs.scalar(ty.UINT, 1)
        collect = ast.IfStmt(
            ast.BinaryOp("==", ast.Cast(ty.UINT, ast.local_linear_id()), ast.IntLiteral(0, ty.UINT)),
            ast.Block(
                [
                    ast.AssignStmt(
                        ast.VarRef("reduction_total"),
                        ast.Call(
                            "safe_add",
                            [
                                ast.VarRef("reduction_total"),
                                ast.Cast(
                                    ty.ULONG,
                                    ast.IndexAccess(ast.VarRef("reduction_loc"), ast.IntLiteral(0)),
                                ),
                            ],
                        ),
                    )
                ]
            ),
        )
        return [
            ast.ExprStmt(ast.Call(op, [pointer, value])),
            ast.BarrierStmt(ast.LOCAL_MEM_FENCE),
            collect,
            ast.BarrierStmt(ast.LOCAL_MEM_FENCE),
        ]

    def finalise(self, result_var: str) -> List[ast.Stmt]:
        return [
            ast.AssignStmt(
                ast.VarRef(result_var),
                ast.Call("safe_add", [ast.VarRef(result_var), ast.VarRef("reduction_total")]),
            )
        ]


# ---------------------------------------------------------------------------
# EMI blocks (dead-by-construction code, paper section 5)
# ---------------------------------------------------------------------------


class EmiMachinery(ModeMachinery):
    """Injects ``if (dead[i] < dead[j]) { ... }`` blocks with ``j < i``.

    The host initialises ``dead[k] = k``, so the guard is false by
    construction and the block is dynamically unreachable.  The statements
    inside are generated with the ordinary statement generator (so they may
    read and write live variables), which is what makes pruning them a
    meaningful perturbation of the optimiser's view of the program.
    """

    def __init__(self, ctx: GenContext, stmts: StatementGenerator) -> None:
        self.ctx = ctx
        self.stmts = stmts
        self.rng = ctx.rng.fork("emi")
        self.options = ctx.options
        self._block_count = self.options.emi_blocks
        self._next_marker = 0

    def buffers(self) -> List[ast.BufferSpec]:
        if self._block_count <= 0:
            return []
        return [
            ast.BufferSpec(
                "dead",
                ty.UINT,
                self.options.emi_dead_array_size,
                address_space=ty.GLOBAL,
                init="iota",
            )
        ]

    def fragment_count(self) -> int:
        return self._block_count

    def fragment(self) -> List[ast.Stmt]:
        d = self.options.emi_dead_array_size
        rnd_2 = self.rng.randrange(0, d - 1)
        rnd_1 = self.rng.randrange(rnd_2 + 1, d)
        guard = ast.BinaryOp(
            "<",
            ast.IndexAccess(ast.VarRef("dead"), ast.IntLiteral(rnd_1)),
            ast.IndexAccess(ast.VarRef("dead"), ast.IntLiteral(rnd_2)),
        )
        n = self.rng.randint(1, self.options.emi_block_statements)
        body = ast.Block(self.stmts.block(n, max(1, self.options.max_block_depth - 1)))
        marker = self._next_marker
        self._next_marker += 1
        return [ast.IfStmt(guard, body, emi_marker=marker)]


__all__ = [
    "ModeMachinery",
    "BarrierMachinery",
    "AtomicSectionMachinery",
    "AtomicReductionMachinery",
    "EmiMachinery",
]
