"""Hierarchical reduction passes for the test-case reducer.

The paper reports that manually shrinking bug-inducing CLsmith/EMI kernels
was the dominant human cost of the fuzzing campaigns: a minimal reproducer
must preserve the observed defect while *never* introducing undefined
behaviour (section 3.2's determinism requirement).  Each pass here proposes
candidate programs that are strictly smaller than their input; the fixpoint
driver (:mod:`repro.reduction.reducer`) tests each candidate against an
interestingness predicate (:mod:`repro.reduction.interestingness`) and keeps
the first one that still reproduces the defect.

Design contract, property-tested in ``tests/test_reduction_passes.py``:

* every candidate a pass yields **pretty-prints** (the printer accepts it)
  and **re-validates** -- passes filter out candidates that would be
  malformed (e.g. a ddmin chunk that deletes a declaration whose variable is
  still used) instead of handing them to the harness.  The filter asks
  :func:`repro.kernel_lang.semantics.validation_error`, whose verdict is
  memoised on the candidate, so the predicate and the compiler that see the
  candidate next reuse it instead of validating it again;
* every candidate **strictly decreases** the program's :func:`size_key`
  (AST node count + launch threads + buffer cells + struct fields), which
  makes the reduction fixpoint terminate: each accepted step decreases a
  non-negative integer;
* candidate enumeration is **deterministic**: the same program and the same
  seeded ``rng`` produce the same candidate sequence, which is what makes
  whole reductions replayable and backend-independent.

Every candidate is a **path copy** of the current program: a pass addresses
the statements it edits by identity (:func:`repro.compiler.rewrite.
replace_statements`) or swaps a function, struct, parameter list, buffer or
the launch with :func:`dataclasses.replace`, so the candidate shares every
node off the paths to its edits with the current program, which is left as
it is (``tests/test_path_copy_edits.py`` pins the candidate streams and
checks both).

The passes mirror the manual tricks the paper's authors applied by hand:

``compound-delete``   delete a whole ``if``/``for``/``while`` subtree
                      (the EMI *compound* idiom of section 5);
``ddmin-stmts``       delta-debugging chunk deletion over every statement
                      list (Zeller-style ddmin, largest chunks first);
``child-lift``        promote a branch node's children into its parent
                      (the EMI *lift* idiom -- loop bodies are lifted
                      through :func:`repro.emi.pruning.
                      strip_outer_loop_control` exactly as the pruner does);
``function-prune``    inline simple helpers (reusing the optimisation
                      pipeline's :class:`~repro.compiler.passes.inline.
                      InlinePass`), drop uncalled functions and
                      unreferenced struct/union definitions;
``dead-params``       remove kernel parameters (and their host buffers)
                      that no function references;
``loop-shrink``       shrink literal loop trip counts;
``expr-to-literal``   replace statement-level expressions by one of their
                      operands or by a literal ``0``/``1``;
``grid-shrink``       shrink the NDRange (fewer groups, then a single
                      work-item) and over-sized buffers.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.compiler import analysis, rewrite
from repro.compiler.passes.inline import InlinePass
from repro.emi.pruning import strip_outer_loop_control
from repro.kernel_lang import ast, types as ty
from repro.kernel_lang.semantics import validation_error


def node_count(program: ast.Program) -> int:
    """The program's AST node count, :func:`ast.count_nodes` read off its
    census: the Program node, every ``FunctionDecl`` (forward declarations
    included) and every node of the function bodies."""
    census = analysis.census(program)
    return 1 + len(program.functions) + sum(len(pairs) for pairs in census.values())


def size_key(program: ast.Program) -> int:
    """The strictly-decreasing size metric reductions are measured by.

    AST nodes (:func:`node_count`) dominate; launch threads, buffer cells,
    struct fields and literal loop bounds are included so that passes which
    only shrink the launch geometry, the type environment or a trip count
    still make measurable progress.  The bound term sums the literal
    ``for`` bounds (``i < N`` shapes, non-negative): replacing one literal
    with a smaller one leaves the node count unchanged, and without this
    term every loop-shrink candidate would fail the strict-decrease filter.
    Both terms read the program's census (:func:`repro.compiler.analysis.
    census`), the one walk its compiles' bug models reuse.
    """
    bounds = sum(
        abs(node.cond.right.value)
        for node in analysis.nodes(program, ast.ForStmt)
        if isinstance(node.cond, ast.BinaryOp) and isinstance(node.cond.right, ast.IntLiteral)
    )
    return (
        node_count(program)
        + program.launch.total_threads
        + sum(buf.size for buf in program.buffers)
        + sum(1 + len(st.fields) for st in program.structs)
        + bounds
    )


def all_blocks(program: ast.Program) -> List[ast.Block]:
    """Every :class:`~repro.kernel_lang.ast.Block` in deterministic pre-order:
    the order in which the statement-level passes visit their edit sites."""
    return analysis.nodes(program, ast.Block)


_BRANCH_STMTS = (ast.IfStmt, ast.ForStmt, ast.WhileStmt)


def _branch_sites(program: ast.Program) -> List[ast.Stmt]:
    """Every branch statement of a statement list, in :func:`all_blocks`
    order."""
    return [
        stmt
        for block in all_blocks(program)
        for stmt in block.statements
        if isinstance(stmt, _BRANCH_STMTS)
    ]


class ReductionPass:
    """Base class: deterministic candidate proposal + well-formedness filter."""

    name = "reduction-pass"

    # -- to override -----------------------------------------------------

    def propose(
        self, program: ast.Program, rng: random.Random
    ) -> Iterator[ast.Program]:
        """Yield raw candidate programs (possibly invalid / not smaller)."""
        raise NotImplementedError

    # -- public API ------------------------------------------------------

    def candidates(
        self, program: ast.Program, rng: random.Random
    ) -> Iterator[ast.Program]:
        """Yield only candidates that are strictly smaller and well-formed.

        The filter is part of the pass contract (see the module docstring):
        the reducer and the round-trip property tests both consume this
        method, so a pass that builds a malformed AST is caught before any
        kernel executes.
        """
        threshold = size_key(program)
        for candidate in self.propose(program, rng):
            if size_key(candidate) < threshold and validation_error(candidate) is None:
                yield candidate


# ---------------------------------------------------------------------------
# Statement-level passes
# ---------------------------------------------------------------------------


class CompoundDeletionPass(ReductionPass):
    """Delete whole ``if``/``for``/``while`` subtrees (largest wins first)."""

    name = "compound-delete"

    def propose(self, program, rng):
        # Biggest subtrees first: deleting them early saves the most work.
        # The sort is stable, so equal sizes keep their site order.
        sites = sorted(_branch_sites(program), key=lambda stmt: -ast.count_nodes(stmt))
        for stmt in sites:
            yield rewrite.replace_statements(program, [(stmt, [])])


class StatementDeletionPass(ReductionPass):
    """ddmin-style chunk deletion over every statement list.

    For each block, candidate deletions remove aligned chunks whose sizes
    sweep from the whole list down through halving powers of two to single
    statements -- the classic delta-debugging schedule, restarted by the
    driver after every accepted candidate.
    """

    name = "ddmin-stmts"

    @staticmethod
    def _chunk_sizes(n: int) -> List[int]:
        sizes = [n]
        size = 1
        while size * 2 <= n:
            size *= 2
        while size >= 1:
            if size != n:
                sizes.append(size)
            size //= 2
        return sizes

    def propose(self, program, rng):
        for block in all_blocks(program):
            statements = block.statements
            n = len(statements)
            if n == 0:
                continue
            for chunk in self._chunk_sizes(n):
                for start in range(0, n, chunk):
                    yield rewrite.replace_statements(
                        program, [(stmt, []) for stmt in statements[start:start + chunk]]
                    )


class ChildLiftPass(ReductionPass):
    """Replace a branch statement by its children (the EMI *lift* idiom)."""

    name = "child-lift"

    def propose(self, program, rng):
        for stmt in _branch_sites(program):
            yield rewrite.replace_statements(program, [(stmt, self._lifted(stmt))])

    @staticmethod
    def _lifted(stmt: ast.Stmt) -> List[ast.Stmt]:
        if isinstance(stmt, ast.IfStmt):
            lifted = list(stmt.then_block.statements)
            if stmt.else_block is not None:
                lifted.extend(stmt.else_block.statements)
            return lifted
        if isinstance(stmt, ast.ForStmt):
            lifted = [] if stmt.init is None else [stmt.init]
            lifted.extend(strip_outer_loop_control(stmt.body).statements)
            return lifted
        if isinstance(stmt, ast.WhileStmt):
            return list(strip_outer_loop_control(stmt.body).statements)
        return [stmt]


# ---------------------------------------------------------------------------
# Declaration-level passes
# ---------------------------------------------------------------------------


def _referenced_type_names(program: ast.Program) -> set:
    """Names of struct/union types referenced by any declaration or cast."""

    def base_type(t: ty.Type) -> ty.Type:
        while isinstance(t, (ty.PointerType, ty.ArrayType)):
            t = t.pointee if isinstance(t, ty.PointerType) else t.element
        return t

    names = set()

    def note(t: ty.Type) -> None:
        base = base_type(t)
        if isinstance(base, (ty.StructType, ty.UnionType)):
            names.add(base.name)

    for fn in program.functions:
        for param in fn.params:
            note(param.type)
        note(fn.return_type)
    for kind in (ast.DeclStmt, ast.Cast, ast.VectorLiteral):
        for node in analysis.nodes(program, kind):
            note(node.type)
    return names


class FunctionPrunePass(ReductionPass):
    """Inline simple helpers, drop uncalled functions and unused structs."""

    name = "function-prune"

    def propose(self, program, rng):
        called = set()
        for fn in program.functions:
            if fn.body is not None:
                called |= analysis.called_functions(fn.body)

        # Drop each individually-uncalled helper (definition or forward decl).
        functions = program.functions
        for idx, fn in enumerate(functions):
            if fn.name == program.kernel_name or fn.name in called:
                continue
            yield rewrite.replace_functions(program, functions[:idx] + functions[idx + 1:])

        # Drop each unreferenced struct/union definition.
        referenced = _referenced_type_names(program)
        structs = program.structs
        for idx, st in enumerate(structs):
            if st.name in referenced:
                continue
            yield dataclasses.replace(program, structs=structs[:idx] + structs[idx + 1:])

        # Inline simple helpers wholesale, then sweep what became uncalled.
        # InlinePass never mutates its input; the sweep happens on its output.
        inlined = InlinePass().run(program)
        still_called = set()
        for fn in inlined.functions:
            if fn.body is not None:
                still_called |= analysis.called_functions(fn.body)
        yield rewrite.replace_functions(
            inlined,
            [
                fn
                for fn in inlined.functions
                if fn.name == inlined.kernel_name or fn.name in still_called
            ],
        )


class DeadParamBufferPass(ReductionPass):
    """Remove kernel parameters (and their buffers) nothing references."""

    name = "dead-params"

    def propose(self, program, rng):
        used = set()
        for fn in program.functions:
            if fn.body is not None:
                used |= analysis.variables_read(fn.body)
                used |= analysis.variables_assigned(fn.body)
        try:
            kernel = program.kernel()
        except KeyError:
            return
        for param in kernel.params:
            if param.name in used:
                continue
            trimmed = dataclasses.replace(
                kernel, params=[p for p in kernel.params if p.name != param.name]
            )
            yield dataclasses.replace(
                program,
                functions=[trimmed if fn is kernel else fn for fn in program.functions],
                buffers=[b for b in program.buffers if b.name != param.name],
            )


# ---------------------------------------------------------------------------
# Expression- and geometry-level passes
# ---------------------------------------------------------------------------

#: Statement fields that hold a reducible top-level expression.
_EXPR_SLOTS = {
    ast.DeclStmt: "init",
    ast.AssignStmt: "value",
    ast.ExprStmt: "expr",
    ast.IfStmt: "cond",
    ast.ForStmt: "cond",
    ast.WhileStmt: "cond",
    ast.ReturnStmt: "value",
}

#: Upper bound on expression sites attempted per sweep; beyond it the seeded
#: rng subsamples (deterministically) so pathological kernels stay bounded.
_MAX_EXPR_SITES = 96


class ExprToLiteralPass(ReductionPass):
    """Replace statement-level expressions by an operand or a literal."""

    name = "expr-to-literal"

    def propose(self, program, rng):
        sites: List[ast.Stmt] = []
        for block in all_blocks(program):
            for stmt in block.statements:
                slot = _EXPR_SLOTS.get(type(stmt))
                if slot is None:
                    continue
                expr = getattr(stmt, slot)
                if expr is None or isinstance(expr, ast.IntLiteral):
                    continue
                sites.append(stmt)
        if len(sites) > _MAX_EXPR_SITES:
            # Sampling positions draws what sampling the sites would; sorting
            # them keeps the sample in site order.
            chosen = sorted(rng.sample(range(len(sites)), _MAX_EXPR_SITES))
            sites = [sites[i] for i in chosen]
        for stmt in sites:
            slot = _EXPR_SLOTS[type(stmt)]
            for replacement in self._replacements(getattr(stmt, slot), stmt):
                edited = dataclasses.replace(stmt, **{slot: replacement})
                yield rewrite.replace_statements(program, [(stmt, [edited])])

    @staticmethod
    def _replacements(expr: ast.Expr, stmt: ast.Stmt) -> List[ast.Expr]:
        literal_type = ty.INT
        if isinstance(stmt, ast.DeclStmt) and isinstance(stmt.type, ty.IntType):
            literal_type = stmt.type
        out: List[ast.Expr] = [ast.IntLiteral(0, literal_type)]
        # No literal-1 for loop conditions: ``while (1)`` / ``for (;1;)``
        # candidates are guaranteed timeouts that burn the full execution
        # budget per cell before the predicate can reject them.
        if not isinstance(stmt, (ast.ForStmt, ast.WhileStmt)):
            out.append(ast.IntLiteral(1, literal_type))
        # Operand hoisting: keep a sub-tree, drop the rest of the expression.
        # The sub-tree moves into the statement that replaces ``stmt``, so it
        # still sits at one position.
        if isinstance(expr, ast.BinaryOp):
            out.append(expr.left)
            out.append(expr.right)
        elif isinstance(expr, (ast.UnaryOp, ast.Cast)):
            out.append(expr.operand)
        elif isinstance(expr, ast.Conditional):
            out.append(expr.then)
            out.append(expr.otherwise)
        return out


class LoopShrinkPass(ReductionPass):
    """Shrink literal loop trip counts (``i < N`` with literal ``N``).

    Only ascending comparisons are touched: lowering the bound of ``i > N``
    / ``i >= N`` / ``i != N`` loops *increases* their trip count, which is
    the opposite of a reduction even though the size metric would shrink.
    """

    name = "loop-shrink"

    def propose(self, program, rng):
        loops = [
            node
            for node in analysis.nodes(program, ast.ForStmt)
            if isinstance(node.cond, ast.BinaryOp)
            and node.cond.op in ("<", "<=")
            and isinstance(node.cond.right, ast.IntLiteral)
        ]
        for loop in loops:
            bound = loop.cond.right
            shrunk = sorted({1, bound.value // 2} - {bound.value})
            for new_value in shrunk:
                if new_value < 0 or new_value >= bound.value:
                    continue
                cond = dataclasses.replace(
                    loop.cond, right=ast.IntLiteral(new_value, bound.type)
                )
                shrunk_loop = dataclasses.replace(loop, cond=cond)
                yield rewrite.replace_statements(program, [(loop, [shrunk_loop])])


class GridShrinkPass(ReductionPass):
    """Shrink the NDRange launch geometry and over-sized buffers."""

    name = "grid-shrink"

    def propose(self, program, rng):
        launch = program.launch
        proposals: List[ast.LaunchSpec] = []

        def add(global_size, local_size):
            try:
                spec = ast.LaunchSpec(tuple(global_size), tuple(local_size))
            except ValueError:
                return
            proposals.append(spec)

        # A single work-item, then a single work-group, then per-dim halving.
        add((1, 1, 1), (1, 1, 1))
        add(launch.local_size, launch.local_size)
        for dim in range(3):
            halved = list(launch.global_size)
            if halved[dim] % 2 != 0:
                continue
            halved[dim] //= 2
            add(halved, launch.local_size)
        seen = {(launch.global_size, launch.local_size)}
        for spec in proposals:
            key = (spec.global_size, spec.local_size)
            if key in seen:
                continue
            seen.add(key)
            yield dataclasses.replace(program, launch=spec)

        # Shrink buffers that are larger than the (possibly already shrunk)
        # thread count; out-of-bounds candidates are vetoed by the UB guard.
        threads = launch.total_threads
        for idx, buf in enumerate(program.buffers):
            if buf.size <= threads:
                continue
            buffers = list(program.buffers)
            buffers[idx] = dataclasses.replace(buf, size=max(threads, 1))
            yield dataclasses.replace(program, buffers=buffers)


#: The default pass schedule: coarsest reductions first.
DEFAULT_PASSES: Tuple[ReductionPass, ...] = (
    CompoundDeletionPass(),
    StatementDeletionPass(),
    ChildLiftPass(),
    FunctionPrunePass(),
    DeadParamBufferPass(),
    LoopShrinkPass(),
    ExprToLiteralPass(),
    GridShrinkPass(),
)


__all__ = [
    "node_count",
    "size_key",
    "all_blocks",
    "ReductionPass",
    "CompoundDeletionPass",
    "StatementDeletionPass",
    "ChildLiftPass",
    "FunctionPrunePass",
    "DeadParamBufferPass",
    "LoopShrinkPass",
    "ExprToLiteralPass",
    "GridShrinkPass",
    "DEFAULT_PASSES",
]
