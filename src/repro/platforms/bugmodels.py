"""Semantic bug models reproducing the compiler defects of Figures 1 and 2.

Each model is a small, targeted transformation (or front-end rejection) that
fires when a program exhibits the syntactic pattern the real bug depended on.
The models are applied by the compiler driver *after* the regular
optimisation pipeline, so a buggy configuration genuinely produces a
different executable program -- which is what random differential testing and
EMI testing then detect through execution, exactly as in the paper.

Fidelity notes:

* Wrong-code models reproduce the *observable symptom class* of the reported
  bug (a silently wrong value, a lost store, a crash, a hang).  Where the real
  bug produced a thread-dependent result (Figures 2(c) and 2(d)) the model
  produces a uniform wrong result instead -- differential/EMI detection is
  unaffected, only the per-thread pattern differs.
* Machine-crash behaviour (section 6, "Machine crashes") and segmentation
  faults are modelled as :class:`RuntimeCrash` execution flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.compiler import analysis, rewrite
from repro.kernel_lang import ast, types as ty
from repro.runtime.errors import BuildFailure, CompileTimeout

Flags = Dict[str, bool]

FRONTEND = "frontend"
MISCOMPILE = "miscompile"
EXECUTION = "execution"


class BugModel:
    """Base class for injected compiler defects.

    ``matches`` looks only at the program: whether the syntactic pattern the
    real bug depended on occurs in it.  :meth:`triggers` adds the
    optimisation-level requirement and asks ``matches`` at most once per
    program object and model class -- the verdict is memoised on the
    program (:meth:`~repro.kernel_lang.ast.Program.memoised`), so a
    campaign compiling one program for many configurations and both levels
    decides once per model.  ``matches`` reads the program's census
    (:func:`repro.compiler.analysis.census`, one memoised walk shared by
    every model and flag) instead of walking the program itself.  A model
    whose decision needs more than the program (the calibrated models
    depend on the configuration and the level) overrides ``triggers``
    instead, and is never memoised.
    """

    name = "bug"
    description = ""
    #: One of FRONTEND, MISCOMPILE, EXECUTION.
    stage = MISCOMPILE
    #: Require optimisations on (True), off (False) or either (None).
    requires_optimisations: Optional[bool] = None

    def triggers(self, program: ast.Program, optimisations: bool, config) -> bool:
        if self.requires_optimisations is not None:
            if optimisations != self.requires_optimisations:
                return False
        return program.memoised(("bug-model", type(self)), lambda: self.matches(program))

    # -- to override -----------------------------------------------------

    def matches(self, program: ast.Program) -> bool:
        raise NotImplementedError

    def apply(
        self, program: ast.Program, optimisations: bool, config
    ) -> Tuple[ast.Program, Flags]:
        """Transform the program and/or return execution flags."""
        return program, {}

    def raise_failure(self, program: ast.Program, optimisations: bool, config) -> None:
        """Front-end models override this to raise BuildFailure/CompileTimeout."""
        raise BuildFailure(f"{self.name}: {self.description}")


# ---------------------------------------------------------------------------
# Pattern helpers
# ---------------------------------------------------------------------------


def _structs_char_first(program: ast.Program) -> List[ty.StructType]:
    """Structs whose first field is a 1-byte type followed by a larger field."""
    found = []
    for st in program.structs:
        if not isinstance(st, ty.StructType) or len(st.fields) < 2:
            continue
        first, second = st.fields[0], st.fields[1]
        if (
            isinstance(first.type, ty.IntType)
            and first.type.bits == 8
            and second.type.sizeof() > 1
        ):
            found.append(st)
    return found


def _structs_with_vector_field(program: ast.Program) -> List[ty.StructType]:
    found = []
    for st in program.structs:
        for f in st.fields:
            if isinstance(f.type, ty.VectorType):
                found.append(st)
                break
    return found


def _unions_uint_over_short(program: ast.Program) -> List[ty.UnionType]:
    """Unions whose first member is 4 bytes and that also contain a struct
    member starting with a 2-byte field (the Figure 2(a) shape)."""
    found = []
    for st in program.structs:
        if not isinstance(st, ty.UnionType) or len(st.fields) < 2:
            continue
        first = st.fields[0]
        if not (isinstance(first.type, ty.IntType) and first.type.sizeof() == 4):
            continue
        for other in st.fields[1:]:
            if isinstance(other.type, ty.StructType) and other.type.fields:
                lead = other.type.fields[0].type
                if isinstance(lead, ty.IntType) and lead.sizeof() == 2:
                    found.append(st)
                    break
    return found


def _has_forward_declaration(program: ast.Program) -> bool:
    defined = {f.name for f in program.functions if f.body is not None}
    return any(f.body is None and f.name in defined for f in program.functions)


def _largest_struct_size(program: ast.Program) -> int:
    sizes = [st.sizeof() for st in program.structs if isinstance(st, (ty.StructType, ty.UnionType))]
    return max(sizes) if sizes else 0


def _helper_nodes(program: ast.Program, kind: type) -> List[Tuple[ast.FunctionDecl, ast.Node]]:
    """The census pairs of class ``kind`` whose function is not the kernel."""
    pairs = analysis.census(program).get(kind, ())
    return [(fn, node) for fn, node in pairs if not fn.is_kernel]


def _uses_comma_operator(program: ast.Program) -> bool:
    return any(node.op == "," for node in analysis.nodes(program, ast.BinaryOp))


def _group_id_in_condition_of_helper(program: ast.Program) -> bool:
    group_fns = {"get_group_id", "get_linear_group_id"}
    return any(
        isinstance(n, ast.WorkItemExpr) and n.function in group_fns
        for _, node in _helper_nodes(program, ast.IfStmt)
        for n in node.cond.walk()
    )


def _mixes_size_t_and_int_bitwise(program: ast.Program) -> bool:
    """Detects the ``int x; x |= gx;`` pattern configuration 15 rejects."""
    size_t_fns = {
        "get_group_id",
        "get_global_size",
        "get_local_size",
        "get_num_groups",
        "get_linear_group_id",
    }
    operands = [
        operand
        for node in analysis.nodes(program, ast.BinaryOp)
        if node.op in ("|", "&", "^", "%")
        for operand in (node.left, node.right)
    ] + [
        node.value
        for node in analysis.nodes(program, ast.AssignStmt)
        if node.op in ("|=", "&=", "^=", "%=")
    ]
    return any(
        isinstance(op, ast.WorkItemExpr) and op.function in size_t_fns for op in operands
    )


def _whole_struct_copies(program: ast.Program) -> bool:
    """``s = t;`` where both sides are plain variables (struct copy shape)."""
    struct_decls = {
        node.name
        for node in analysis.nodes(program, ast.DeclStmt)
        if isinstance(node.type, (ty.StructType, ty.UnionType))
    }
    return any(
        node.op == "="
        and isinstance(node.target, ast.VarRef)
        and isinstance(node.value, ast.VarRef)
        and node.target.name in struct_decls
        for node in analysis.nodes(program, ast.AssignStmt)
    )


def _literal_only(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.IntLiteral):
        return True
    if isinstance(expr, ast.VectorLiteral):
        return all(_literal_only(e) for e in expr.elements)
    return False


# ---------------------------------------------------------------------------
# Figure 1 -- bugs in below-threshold configurations
# ---------------------------------------------------------------------------


class AmdCharFirstStructBug(BugModel):
    """Figure 1(a): AMD configurations 5+, 6+, 16+ miscompile any struct whose
    first member is a ``char`` followed by a larger member (result 1 instead
    of 2).  Modelled as the initialiser of the char field being lost."""

    name = "amd-char-first-struct"
    description = "structs starting with char followed by a larger member are laid out wrongly"
    stage = MISCOMPILE
    requires_optimisations = True

    def matches(self, program):
        affected = _structs_char_first(program)
        if not affected:
            return False
        names = {st.name for st in affected}
        return any(
            isinstance(node.type, ty.StructType)
            and node.type.name in names
            and isinstance(node.init, ast.InitList)
            for node in analysis.nodes(program, ast.DeclStmt)
        )

    def apply(self, program, optimisations, config):
        names = {st.name for st in _structs_char_first(program)}

        def stmt_fn(stmt: ast.Stmt):
            if (
                isinstance(stmt, ast.DeclStmt)
                and isinstance(stmt.type, ty.StructType)
                and stmt.type.name in names
                and isinstance(stmt.init, ast.InitList)
                and stmt.init.elements
            ):
                broken = ast.InitList(
                    [ast.IntLiteral(0, ty.CHAR)] + stmt.init.elements[1:]
                )
                return [ast.DeclStmt(stmt.name, stmt.type, broken, stmt.address_space, stmt.volatile)]
            return None

        return rewrite.rewrite_program(program, stmt_fn=stmt_fn), {}


class AnonStructCopyBug(BugModel):
    """Figure 1(b): anonymous GPU configurations 10-, 11- miscompile whole
    struct assignment (``s = t``) when ``Nx = 1``, losing array members."""

    name = "anon-struct-copy"
    description = "whole-struct copies drop array members when Nx = 1 (opts off)"
    stage = MISCOMPILE
    requires_optimisations = False

    def matches(self, program):
        if program.launch.global_size[0] != 1:
            return False
        has_array_field = any(
            isinstance(st, ty.StructType)
            and any(isinstance(f.type, ty.ArrayType) for f in st.fields)
            for st in program.structs
        )
        return has_array_field and _whole_struct_copies(program)

    def apply(self, program, optimisations, config):
        struct_names = {
            node.name
            for node in analysis.nodes(program, ast.DeclStmt)
            if isinstance(node.type, ty.StructType)
            and any(isinstance(f.type, ty.ArrayType) for f in node.type.fields)
        }

        def stmt_fn(stmt: ast.Stmt):
            if (
                isinstance(stmt, ast.AssignStmt)
                and stmt.op == "="
                and isinstance(stmt.target, ast.VarRef)
                and isinstance(stmt.value, ast.VarRef)
                and stmt.target.name in struct_names
            ):
                return []  # the copy is silently dropped
            return None

        return rewrite.rewrite_program(program, stmt_fn=stmt_fn), {}


class AlteraVectorInStructBug(BugModel):
    """Figure 1(c): Altera configurations 20, 21 emit LLVM IR generation
    errors whenever a vector appears inside a struct."""

    name = "altera-vector-in-struct"
    description = "vectors inside structs cause an internal LLVM IR generation error"
    stage = FRONTEND

    def matches(self, program):
        return bool(_structs_with_vector_field(program))

    def raise_failure(self, program, optimisations, config):
        raise BuildFailure("LLVM IR generation failed for struct containing vector", internal=True)


class AnonCpuBarrierStructBug(BugModel):
    """Figure 1(d): anonymous CPU configuration 17 loses stores made through a
    struct pointer inside a helper function when a barrier precedes the call
    (result 2 instead of 3)."""

    name = "anon-cpu-barrier-struct"
    description = "stores through struct pointers in helper functions are lost after a barrier"
    stage = MISCOMPILE

    def matches(self, program):
        if not program.structs or not analysis.uses_barriers(program):
            return False
        return any(
            isinstance(node.target, ast.FieldAccess)
            and node.target.arrow
            and any(
                isinstance(p.type, ty.PointerType)
                and isinstance(p.type.pointee, (ty.StructType, ty.UnionType))
                for p in fn.params
            )
            for fn, node in _helper_nodes(program, ast.AssignStmt)
        )

    def apply(self, program, optimisations, config):
        new_functions = []
        for fn in program.functions:
            if fn.body is None or fn.is_kernel:
                new_functions.append(fn)
                continue

            def stmt_fn(stmt: ast.Stmt):
                if (
                    isinstance(stmt, ast.AssignStmt)
                    and isinstance(stmt.target, ast.FieldAccess)
                    and stmt.target.arrow
                ):
                    return []
                return None

            new_functions.append(rewrite.rewrite_function(fn, stmt_fn=stmt_fn))
        return rewrite.replace_functions(program, new_functions), {}


class IntelGpuCompileHangBug(BugModel):
    """Figure 1(e): Intel HD Graphics configurations 7, 8 never finish
    compiling a kernel with a long counted loop around an infinite loop."""

    name = "intel-gpu-compile-hang"
    description = "compiler loops forever on long counted loops containing while(1)"
    stage = FRONTEND

    def matches(self, program):
        for node in analysis.nodes(program, ast.ForStmt):
            bound = _loop_literal_bound(node)
            if bound is not None and bound >= 197 and _contains_infinite_while(node):
                return True
        return False

    def raise_failure(self, program, optimisations, config):
        raise CompileTimeout("compiler did not terminate (loop bound >= 197 around while(1))")


class XeonPhiSlowCompileBug(BugModel):
    """Figure 1(f): the Xeon Phi configuration 18 takes prohibitively long to
    compile kernels that combine large structs with barriers (opts on)."""

    name = "xeonphi-slow-compile"
    description = "compilation exceeds the timeout for large structs combined with barriers"
    stage = FRONTEND
    requires_optimisations = True

    def matches(self, program):
        return _largest_struct_size(program) > 64 and analysis.uses_barriers(program)

    def raise_failure(self, program, optimisations, config):
        raise CompileTimeout("compilation exceeded 20s for struct+barrier kernel")


# ---------------------------------------------------------------------------
# Figure 2 -- bugs in above-threshold configurations
# ---------------------------------------------------------------------------


class NvidiaUnionInitBug(BugModel):
    """Figure 2(a): NVIDIA configurations 1- to 4- initialise only the first
    two bytes of a union whose first member is a 4-byte integer but whose
    other member starts with a 2-byte field; the remaining bytes contain
    garbage (0xff)."""

    name = "nvidia-union-init"
    description = "brace initialisation of unions writes only the first member of the wrong arm"
    stage = MISCOMPILE
    requires_optimisations = False

    def matches(self, program):
        return bool(_unions_uint_over_short(program))

    def apply(self, program, optimisations, config):
        affected = {u.name for u in _unions_uint_over_short(program)}

        def stmt_fn(stmt: ast.Stmt):
            if not isinstance(stmt, ast.DeclStmt) or not isinstance(stmt.init, ast.InitList):
                return None
            new_init = _corrupt_union_inits(stmt.init, stmt.type, affected)
            if new_init is stmt.init:
                return None
            return [ast.DeclStmt(stmt.name, stmt.type, new_init, stmt.address_space, stmt.volatile)]

        return rewrite.rewrite_program(program, stmt_fn=stmt_fn), {}


def _corrupt_union_inits(init: ast.Expr, target_type: ty.Type, affected: set) -> ast.Expr:
    """Recursively rewrite initialisers of affected unions to the value the
    buggy compiler produces (lower 2 bytes kept, upper 2 bytes 0xff)."""
    if not isinstance(init, ast.InitList):
        return init
    if isinstance(target_type, ty.UnionType) and target_type.name in affected:
        if init.elements and isinstance(init.elements[0], ast.IntLiteral):
            original = init.elements[0].value
            corrupted = (original & 0xFFFF) | 0xFFFF0000
            return ast.InitList([ast.IntLiteral(corrupted, ty.UINT)])
        return init
    if isinstance(target_type, ty.StructType):
        new_elems = []
        changed = False
        for fdecl, elem in zip(target_type.fields, init.elements):
            new_elem = _corrupt_union_inits(elem, fdecl.type, affected)
            changed = changed or (new_elem is not elem)
            new_elems.append(new_elem)
        new_elems.extend(init.elements[len(target_type.fields):])
        return ast.InitList(new_elems) if changed else init
    if isinstance(target_type, ty.ArrayType):
        new_elems = []
        changed = False
        for elem in init.elements:
            new_elem = _corrupt_union_inits(elem, target_type.element, affected)
            changed = changed or (new_elem is not elem)
            new_elems.append(new_elem)
        return ast.InitList(new_elems) if changed else init
    return init


class IntelRotateConstFoldBug(BugModel):
    """Figure 2(b): Intel configuration 14 constant-folds ``rotate`` on
    literal vectors to 0xffffffff."""

    name = "intel-rotate-constfold"
    description = "rotate() with literal arguments is folded to 0xffffffff"
    stage = MISCOMPILE

    def matches(self, program):
        return any(
            node.name in ("rotate", "safe_rotate") and all(_literal_only(a) for a in node.args)
            for node in analysis.nodes(program, ast.Call)
        )

    def apply(self, program, optimisations, config):
        def expr_fn(expr: ast.Expr) -> ast.Expr:
            if isinstance(expr, ast.Call) and expr.name in ("rotate", "safe_rotate"):
                if expr.args and all(_literal_only(a) for a in expr.args):
                    first = expr.args[0]
                    if isinstance(first, ast.VectorLiteral):
                        bad = ast.VectorLiteral(
                            first.type,
                            [ast.IntLiteral(first.type.element.wrap(0xFFFFFFFF), first.type.element)
                             for _ in range(first.type.length)],
                        )
                        return bad
                    if isinstance(first, ast.IntLiteral):
                        return ast.IntLiteral(first.type.wrap(0xFFFFFFFF), first.type)
            return expr

        return rewrite.rewrite_program(program, expr_fn=expr_fn), {}


class IntelBarrierFwdDeclMiscompile(BugModel):
    """Figure 2(c), configurations 12-, 13-: a forward-declared function plus
    barriers inside helper functions makes stores through pointer parameters
    disappear.  (The real bug loses the store for one of the two threads; the
    model loses it uniformly -- see the module docstring.)"""

    name = "intel-barrier-fwddecl-miscompile"
    description = "stores through pointer parameters are lost when helpers contain barriers"
    stage = MISCOMPILE
    requires_optimisations = False

    def matches(self, program):
        return _has_forward_declaration(program) and bool(
            _helper_nodes(program, ast.BarrierStmt)
        )

    def apply(self, program, optimisations, config):
        with_barrier = {id(fn) for fn, _ in _helper_nodes(program, ast.BarrierStmt)}
        new_functions = []
        for fn in program.functions:
            if id(fn) not in with_barrier:
                new_functions.append(fn)
                continue

            def stmt_fn(stmt: ast.Stmt):
                if isinstance(stmt, ast.AssignStmt) and isinstance(stmt.target, ast.Deref):
                    return []
                return None

            new_functions.append(rewrite.rewrite_function(fn, stmt_fn=stmt_fn))
        return rewrite.replace_functions(program, new_functions), {}


class IntelBarrierFwdDeclCrash(BugModel):
    """Figure 2(c), configurations 14-, 15-: the same pattern crashes with a
    segmentation fault at runtime."""

    name = "intel-barrier-fwddecl-crash"
    description = "forward declaration + barrier in helper crashes at runtime"
    stage = EXECUTION
    requires_optimisations = False

    def matches(self, program):
        return IntelBarrierFwdDeclMiscompile().matches(program)

    def apply(self, program, optimisations, config):
        return program, {"force_runtime_crash": True}


class IntelUnreachableLoopBarrierBug(BugModel):
    """Figure 2(d), configurations 14-, 15-: a barrier inside a loop whose
    body is unreachable perturbs the surrounding code (wrong result)."""

    name = "intel-dead-loop-barrier"
    description = "barriers in unreachable loop bodies corrupt neighbouring stores"
    stage = MISCOMPILE
    requires_optimisations = False

    def matches(self, program):
        return any(
            _loop_statically_dead(node) and analysis.contains_barrier(node.body)
            for node in analysis.nodes(program, ast.ForStmt)
        )

    def apply(self, program, optimisations, config):
        def stmt_fn(stmt: ast.Stmt):
            # The final store of the kernel's result is XORed with 1,
            # modelling the corrupted value the paper observed.
            if (
                isinstance(stmt, ast.AssignStmt)
                and isinstance(stmt.target, ast.IndexAccess)
                and isinstance(stmt.target.base, ast.VarRef)
                and stmt.target.base.name == "out"
                and stmt.op == "="
            ):
                return [
                    ast.AssignStmt(
                        stmt.target,
                        ast.BinaryOp("^", stmt.value, ast.IntLiteral(1, ty.ULONG)),
                        "=",
                    )
                ]
            return None

        return rewrite.rewrite_program(program, stmt_fn=stmt_fn), {}


class AnonGpuGroupIdMiscompile(BugModel):
    """Figure 2(e), configuration 9+: conditional guards that mention the
    group id inside helper functions are mis-evaluated, so guarded stores do
    not happen."""

    name = "anon-gpu-groupid-guard"
    description = "if-conditions using the group id in helpers evaluate to false"
    stage = MISCOMPILE
    requires_optimisations = True

    def matches(self, program):
        return _group_id_in_condition_of_helper(program)

    def apply(self, program, optimisations, config):
        group_fns = {"get_group_id", "get_linear_group_id"}
        new_functions = []
        for fn in program.functions:
            if fn.body is None or fn.is_kernel:
                new_functions.append(fn)
                continue

            def stmt_fn(stmt: ast.Stmt):
                if isinstance(stmt, ast.IfStmt) and any(
                    isinstance(n, ast.WorkItemExpr) and n.function in group_fns
                    for n in stmt.cond.walk()
                ):
                    if stmt.else_block is not None:
                        return [stmt.else_block]
                    return []
                return None

            new_functions.append(rewrite.rewrite_function(fn, stmt_fn=stmt_fn))
        return rewrite.replace_functions(program, new_functions), {}


class OclgrindCommaBug(BugModel):
    """Figure 2(f): Oclgrind (configuration 19) mishandles the comma operator;
    the value of ``a , b`` comes out as 0."""

    name = "oclgrind-comma"
    description = "the comma operator yields 0 instead of its right operand"
    stage = EXECUTION

    def matches(self, program):
        return _uses_comma_operator(program)

    def apply(self, program, optimisations, config):
        return program, {"comma_yields_zero": True}


# ---------------------------------------------------------------------------
# Front-end rejections discussed in section 6 ("Build failures")
# ---------------------------------------------------------------------------


class IntelSizeTMixRejection(BugModel):
    """Configuration 15 rejects legal arithmetic mixing ``int`` and ``size_t``
    with certain operators (e.g. ``int x; x |= gx;``)."""

    name = "intel-sizet-mix-reject"
    description = "legal int/size_t operand mixes are rejected by the front end"
    stage = FRONTEND

    def matches(self, program):
        return _mixes_size_t_and_int_bitwise(program)

    def raise_failure(self, program, optimisations, config):
        raise BuildFailure("invalid operands to binary expression ('int' and 'size_t')")


class AlteraVectorLogicalRejection(BugModel):
    """Altera configurations 20, 21 reject logical operations on vectors
    (conformant implementations must accept them)."""

    name = "altera-vector-logical-reject"
    description = "logical operators on vector operands are rejected"
    stage = FRONTEND

    def matches(self, program):
        return any(
            node.op in ("&&", "||")
            and (
                isinstance(node.left, ast.VectorLiteral)
                or isinstance(node.right, ast.VectorLiteral)
            )
            for node in analysis.nodes(program, ast.BinaryOp)
        )

    def raise_failure(self, program, optimisations, config):
        raise BuildFailure("logical operation on vector operands is not supported")


class AmdIrreducibleControlFlowRejection(BugModel):
    """AMD GPU configurations 5+, 6+ report unsupported irreducible control
    flow for some optimised kernels with nested loops and breaks, even though
    the source has none (section 6)."""

    name = "amd-irreducible-cf"
    description = "optimisation introduces irreducible control flow which is then rejected"
    stage = FRONTEND
    requires_optimisations = True

    def matches(self, program):
        loops = analysis.nodes(program, ast.ForStmt) + analysis.nodes(program, ast.WhileStmt)
        return any(
            any(isinstance(n, (ast.ForStmt, ast.WhileStmt)) for n in node.body.walk())
            and analysis.contains_loop_control(node.body)
            for node in loops
        )

    def raise_failure(self, program, optimisations, config):
        raise BuildFailure("unsupported irreducible control flow detected during optimisation")


# ---------------------------------------------------------------------------
# Shared helpers for the figure models
# ---------------------------------------------------------------------------


def _loop_literal_bound(loop: ast.ForStmt) -> Optional[int]:
    cond = loop.cond
    if (
        isinstance(cond, ast.BinaryOp)
        and cond.op in ("<", "<=")
        and isinstance(cond.right, ast.IntLiteral)
    ):
        return cond.right.value
    return None


def _contains_infinite_while(node: ast.Node) -> bool:
    for n in node.walk():
        if isinstance(n, ast.WhileStmt) and isinstance(n.cond, ast.IntLiteral) and n.cond.value != 0:
            return True
    return False


def _loop_statically_dead(loop: ast.ForStmt) -> bool:
    """A loop of the Figure 2(d) shape: ``for (x = 0; x > 0; ...)``."""
    cond = loop.cond
    if isinstance(cond, ast.IntLiteral):
        return cond.value == 0
    if (
        isinstance(cond, ast.BinaryOp)
        and cond.op == ">"
        and isinstance(cond.right, ast.IntLiteral)
        and cond.right.value == 0
        and isinstance(loop.init, ast.AssignStmt)
        and isinstance(loop.init.value, ast.IntLiteral)
        and loop.init.value.value == 0
    ):
        return True
    return False


__all__ = [
    "BugModel",
    "Flags",
    "FRONTEND",
    "MISCOMPILE",
    "EXECUTION",
    "AmdCharFirstStructBug",
    "AnonStructCopyBug",
    "AlteraVectorInStructBug",
    "AnonCpuBarrierStructBug",
    "IntelGpuCompileHangBug",
    "XeonPhiSlowCompileBug",
    "NvidiaUnionInitBug",
    "IntelRotateConstFoldBug",
    "IntelBarrierFwdDeclMiscompile",
    "IntelBarrierFwdDeclCrash",
    "IntelUnreachableLoopBarrierBug",
    "AnonGpuGroupIdMiscompile",
    "OclgrindCommaBug",
    "IntelSizeTMixRejection",
    "AlteraVectorLogicalRejection",
    "AmdIrreducibleControlFlowRejection",
]
