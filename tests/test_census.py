"""One census per program: whole-program questions read one memoised walk.

:func:`repro.compiler.analysis.census` walks a program's function bodies
once, memoised on the program object, and groups every node by its exact
class.  The ``uses_*`` feature flags, the named and synthetic bug models'
``matches``, ``size_key``, the reduction passes' edit sites and the
reducer's node counts read it instead of walking the program themselves.
These tests lock two things:

* an oracle: the walk-based definitions those queries replaced live only
  here, and give the census-backed answers on generated kernels of every
  mode, the Figure 1/2 gallery (raw, optimised and each rewriting model's
  output), one EMI base's variants and the first candidates of every default
  reduction pass;
* one census per program object: compiling one kernel of each mode and the
  gallery on all 21 Table 1 configurations at both levels takes exactly one
  census of every program object it reaches -- the raw program, the
  optimised one and each rewriting model's output.
"""

import inspect
import itertools
import random
from collections import Counter

import pytest

from repro.compiler import analysis
from repro.compiler.driver import CompilerDriver
from repro.compiler.pipeline import default_pipeline
from repro.emi.pruning import count_emi_statements
from repro.emi.variants import generate_variants
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast, builtins, types as ty
from repro.platforms import all_configurations, bugmodels
from repro.reduction import corpus
from repro.reduction.passes import (
    DEFAULT_PASSES,
    _referenced_type_names,
    all_blocks,
    node_count,
    size_key,
)
from repro.runtime.errors import BuildFailure, CompileTimeout
from repro.testing.figures import FIGURE_EXPECTATIONS

#: The CLsmith benchmark workload's generator options.
_OPTIONS = GeneratorOptions(
    min_total_threads=4, max_total_threads=24, max_group_size=8, max_statements=8
)
#: Candidates taken from the front of each reduction pass's stream.
_FIRST_CANDIDATES = 3


# ---------------------------------------------------------------------------
# The walk-based definitions the census replaced (the oracle)
# ---------------------------------------------------------------------------


def _walk(program, helpers_only=False):
    """Every node of every function body, as the replaced loops walked them."""
    for fn in program.functions:
        if fn.body is None or (helpers_only and fn.is_kernel):
            continue
        for node in fn.body.walk():
            yield fn, node


def _any(program, test, helpers_only=False):
    return any(test(fn, node) for fn, node in _walk(program, helpers_only))


def _uses_vectors(program):
    return _any(
        program,
        lambda fn, n: isinstance(n, ast.VectorLiteral)
        or (isinstance(n, ast.DeclStmt) and isinstance(n.type, ty.VectorType)),
    ) or any(isinstance(f.type, ty.VectorType) for st in program.structs for f in st.fields)


def _uses_barriers(program):
    return _any(program, lambda fn, n: isinstance(n, ast.BarrierStmt))


def _uses_atomics(program):
    return _any(
        program,
        lambda fn, n: isinstance(n, ast.Call) and n.name in builtins.ATOMIC_BUILTINS,
    )


_FLAGS = {
    analysis.uses_vectors: _uses_vectors,
    analysis.uses_barriers: _uses_barriers,
    analysis.uses_atomics: _uses_atomics,
}


def _amd_char_first(program):
    names = {st.name for st in bugmodels._structs_char_first(program)}
    return _any(
        program,
        lambda fn, n: isinstance(n, ast.DeclStmt)
        and isinstance(n.type, ty.StructType)
        and n.type.name in names
        and isinstance(n.init, ast.InitList),
    )


def _anon_struct_copy(program):
    if program.launch.global_size[0] != 1:
        return False
    if not any(
        isinstance(st, ty.StructType) and any(isinstance(f.type, ty.ArrayType) for f in st.fields)
        for st in program.structs
    ):
        return False
    struct_decls = {
        n.name
        for _, n in _walk(program)
        if isinstance(n, ast.DeclStmt) and isinstance(n.type, (ty.StructType, ty.UnionType))
    }
    return _any(
        program,
        lambda fn, n: isinstance(n, ast.AssignStmt)
        and n.op == "="
        and isinstance(n.target, ast.VarRef)
        and isinstance(n.value, ast.VarRef)
        and n.target.name in struct_decls,
    )


def _anon_cpu_barrier_struct(program):
    if not program.structs or not _uses_barriers(program):
        return False
    return _any(
        program,
        lambda fn, n: any(
            isinstance(p.type, ty.PointerType)
            and isinstance(p.type.pointee, (ty.StructType, ty.UnionType))
            for p in fn.params
        )
        and isinstance(n, ast.AssignStmt)
        and isinstance(n.target, ast.FieldAccess)
        and n.target.arrow,
        helpers_only=True,
    )


def _intel_gpu_compile_hang(program):
    def hangs(fn, n):
        if not (
            isinstance(n, ast.ForStmt)
            and isinstance(n.cond, ast.BinaryOp)
            and n.cond.op in ("<", "<=")
            and isinstance(n.cond.right, ast.IntLiteral)
            and n.cond.right.value >= 197
        ):
            return False
        return any(
            isinstance(m, ast.WhileStmt) and isinstance(m.cond, ast.IntLiteral) and m.cond.value
            for m in n.walk()
        )

    return _any(program, hangs)


def _barrier_in_helper_after_forward_declaration(program):
    defined = {f.name for f in program.functions if f.body is not None}
    if not any(f.body is None and f.name in defined for f in program.functions):
        return False
    return _any(program, lambda fn, n: isinstance(n, ast.BarrierStmt), helpers_only=True)


def _intel_dead_loop_barrier(program):
    return _any(
        program,
        lambda fn, n: isinstance(n, ast.ForStmt)
        and any(isinstance(m, ast.BarrierStmt) for m in n.body.walk())
        and bugmodels._loop_statically_dead(n),
    )


def _group_id_guard_in_helper(program):
    group_fns = {"get_group_id", "get_linear_group_id"}
    return _any(
        program,
        lambda fn, n: isinstance(n, ast.IfStmt)
        and any(
            isinstance(m, ast.WorkItemExpr) and m.function in group_fns for m in n.cond.walk()
        ),
        helpers_only=True,
    )


def _size_t_int_bitwise_mix(program):
    size_t_fns = {
        "get_group_id", "get_global_size", "get_local_size", "get_num_groups",
        "get_linear_group_id",
    }

    def mixes(fn, n):
        operands = []
        if isinstance(n, ast.BinaryOp) and n.op in ("|", "&", "^", "%"):
            operands = [n.left, n.right]
        elif isinstance(n, ast.AssignStmt) and n.op in ("|=", "&=", "^=", "%="):
            operands = [n.value]
        return any(
            isinstance(op, ast.WorkItemExpr) and op.function in size_t_fns for op in operands
        )

    return _any(program, mixes)


def _vector_logical(program):
    return _any(
        program,
        lambda fn, n: isinstance(n, ast.BinaryOp)
        and n.op in ("&&", "||")
        and (isinstance(n.left, ast.VectorLiteral) or isinstance(n.right, ast.VectorLiteral)),
    )


def _nested_loops_with_control(program):
    loops = (ast.ForStmt, ast.WhileStmt)
    return _any(
        program,
        lambda fn, n: isinstance(n, loops)
        and any(isinstance(m, loops) for m in n.body.walk())
        and any(isinstance(m, (ast.BreakStmt, ast.ContinueStmt)) for m in n.body.walk()),
    )


def _xor_out_store(program):
    outputs = program.output_buffers()
    if not outputs:
        return False
    return any(
        isinstance(n, ast.AssignStmt)
        and isinstance(n.target, ast.IndexAccess)
        and isinstance(n.target.base, ast.VarRef)
        and n.target.base.name == outputs[0].name
        for n in program.walk()
    )


#: Model class -> its ``matches`` as a walk of the whole program.
_MODELS = {
    bugmodels.AmdCharFirstStructBug: _amd_char_first,
    bugmodels.AnonStructCopyBug: _anon_struct_copy,
    bugmodels.AlteraVectorInStructBug: lambda p: bool(bugmodels._structs_with_vector_field(p)),
    bugmodels.AnonCpuBarrierStructBug: _anon_cpu_barrier_struct,
    bugmodels.IntelGpuCompileHangBug: _intel_gpu_compile_hang,
    bugmodels.XeonPhiSlowCompileBug: lambda p: (
        bugmodels._largest_struct_size(p) > 64 and _uses_barriers(p)
    ),
    bugmodels.NvidiaUnionInitBug: lambda p: bool(bugmodels._unions_uint_over_short(p)),
    bugmodels.IntelRotateConstFoldBug: lambda p: _any(
        p,
        lambda fn, n: isinstance(n, ast.Call)
        and n.name in ("rotate", "safe_rotate")
        and all(bugmodels._literal_only(a) for a in n.args),
    ),
    bugmodels.IntelBarrierFwdDeclMiscompile: _barrier_in_helper_after_forward_declaration,
    bugmodels.IntelBarrierFwdDeclCrash: _barrier_in_helper_after_forward_declaration,
    bugmodels.IntelUnreachableLoopBarrierBug: _intel_dead_loop_barrier,
    bugmodels.AnonGpuGroupIdMiscompile: _group_id_guard_in_helper,
    bugmodels.OclgrindCommaBug: lambda p: _any(
        p, lambda fn, n: isinstance(n, ast.BinaryOp) and n.op == ","
    ),
    bugmodels.IntelSizeTMixRejection: _size_t_int_bitwise_mix,
    bugmodels.AlteraVectorLogicalRejection: _vector_logical,
    bugmodels.AmdIrreducibleControlFlowRejection: _nested_loops_with_control,
    corpus.XorOutStoreBug: _xor_out_store,
    corpus.AlwaysCrashBug: lambda p: True,
    corpus.AlwaysTimeoutBug: lambda p: True,
    corpus.EmiParityBug: lambda p: count_emi_statements(p) % 2 == 1 and _xor_out_store(p),
}


def _size_key(program):
    bounds = sum(
        abs(n.cond.right.value)
        for n in program.walk()
        if isinstance(n, ast.ForStmt)
        and isinstance(n.cond, ast.BinaryOp)
        and isinstance(n.cond.right, ast.IntLiteral)
    )
    return (
        ast.count_nodes(program)
        + program.launch.total_threads
        + sum(buf.size for buf in program.buffers)
        + sum(1 + len(st.fields) for st in program.structs)
        + bounds
    )


def _type_names(program):
    def base_name(t):
        while isinstance(t, (ty.PointerType, ty.ArrayType)):
            t = t.pointee if isinstance(t, ty.PointerType) else t.element
        return t.name if isinstance(t, (ty.StructType, ty.UnionType)) else None

    types = [p.type for fn in program.functions for p in fn.params]
    types += [fn.return_type for fn in program.functions]
    types += [
        n.type for _, n in _walk(program)
        if isinstance(n, (ast.DeclStmt, ast.Cast, ast.VectorLiteral))
    ]
    return {name for name in map(base_name, types) if name is not None}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _named_model_outputs(program):
    """What each named model's ``apply`` makes of ``program`` (the program
    itself, for a model with nothing to rewrite)."""
    for model_class in _MODELS:
        if model_class.__module__ == bugmodels.__name__:
            yield model_class().apply(program, True, None)[0]


def _section_6_shapes() -> ast.Program:
    """``x |= get_group_id(0)``, ``(int2)(1, 1) && x`` and a loop holding a
    loop and a ``break``: the section 6 front-end rejections of
    configurations 15, 20/21 and 5+/6+, which no generated or gallery kernel
    holds."""
    mixed = ast.AssignStmt(ast.var("x"), ast.WorkItemExpr("get_group_id"), "|=")
    vector = ast.VectorLiteral(ty.VectorType(ty.INT, 2), [ast.lit(1), ast.lit(1)])
    logical = ast.DeclStmt("y", ty.INT, ast.binop("&&", vector, ast.var("x")))
    inner = ast.ForStmt(None, ast.lit(0), None, ast.block())
    nested = ast.WhileStmt(ast.var("x"), ast.block(inner, ast.BreakStmt()))
    body = ast.block(
        ast.DeclStmt("x", ty.INT, ast.lit(0)), mixed, logical, nested,
        ast.out_write(ast.var("x")),
    )
    out = ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))
    return ast.Program(
        functions=[ast.FunctionDecl("entry", ty.VOID, [out], body, is_kernel=True)],
        buffers=[ast.BufferSpec("out", ty.ULONG, 4, is_output=True)],
        launch=ast.LaunchSpec((4, 1, 1), (2, 1, 1)),
    )


def _programs():
    """Every input program once: generated kernels of every mode, the
    gallery (raw, optimised, each rewriting model's output), the section 6
    shapes, one EMI base and its variants, and the first candidates of every
    reduction pass."""
    generated = [
        generate_kernel(mode, seed, options=_OPTIONS) for mode in Mode for seed in range(10)
    ]
    programs = generated + [_section_6_shapes()]
    for expectation in FIGURE_EXPECTATIONS:
        raw = expectation.builder()
        for program in (raw, default_pipeline().run(raw)):
            programs.append(program)
            programs.extend(_named_model_outputs(program))
    base = generate_kernel(Mode.ALL, 3, options=_OPTIONS, emi_blocks=3)
    programs.append(base)
    programs.extend(generate_variants(base))
    sources = generated[::10] + [expectation.builder() for expectation in FIGURE_EXPECTATIONS]
    for program in sources:
        for pass_ in DEFAULT_PASSES:
            candidates = pass_.candidates(program, random.Random(0))
            programs.extend(itertools.islice(candidates, _FIRST_CANDIDATES))
    unique = {id(program): program for program in programs}
    return list(unique.values())


@pytest.fixture(scope="module")
def programs():
    return _programs()


# ---------------------------------------------------------------------------
# The oracle
# ---------------------------------------------------------------------------


def test_inputs_cover_every_feature_and_model(programs):
    assert len(programs) > 300
    for flag in _FLAGS.values():
        assert {flag(p) for p in programs} == {True, False}
    for model_class, walked in _MODELS.items():
        if model_class not in (corpus.AlwaysCrashBug, corpus.AlwaysTimeoutBug):
            assert {walked(p) for p in programs} == {True, False}, model_class.__name__


def test_every_model_has_a_walk_based_definition():
    defined = {
        cls
        for module in (bugmodels, corpus)
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if issubclass(cls, bugmodels.BugModel)
        and cls is not bugmodels.BugModel
        and cls.__module__ == module.__name__
    }
    assert defined == set(_MODELS)


def test_feature_flags_read_off_the_census_are_the_walks(programs):
    for program in programs:
        for flag, walked in _FLAGS.items():
            assert flag(program) == walked(program), flag.__name__


def test_model_patterns_read_off_the_census_are_the_walks(programs):
    for program in programs:
        for model_class, walked in _MODELS.items():
            assert model_class().matches(program) == walked(program), model_class.__name__


def test_reduction_sizes_and_sites_read_off_the_census_are_the_walks(programs):
    for program in programs:
        assert node_count(program) == ast.count_nodes(program)
        assert size_key(program) == _size_key(program)
        blocks = [n for n in program.walk() if isinstance(n, ast.Block)]
        census_blocks = all_blocks(program)
        assert len(census_blocks) == len(blocks)
        assert all(a is b for a, b in zip(census_blocks, blocks))
        assert _referenced_type_names(program) == _type_names(program)


def test_census_records_every_walked_position_in_walk_order(programs):
    for program in programs[:80]:
        census = analysis.census(program)
        walked = list(_walk(program))
        assert sum(map(len, census.values())) == len(walked)
        for kind, pairs in census.items():
            expected = [(fn, n) for fn, n in walked if type(n) is kind]
            assert len(pairs) == len(expected)
            assert all(a is c and b is d for (a, b), (c, d) in zip(pairs, expected))


# ---------------------------------------------------------------------------
# One census per program object
# ---------------------------------------------------------------------------


def test_compiling_everywhere_takes_one_census_per_program_object(monkeypatch):
    asked = {}
    taken = Counter()
    census, take = analysis.census, analysis._take_census

    def asking(program):
        asked[id(program)] = program
        return census(program)

    def taking(program):
        taken[id(program)] += 1
        return take(program)

    monkeypatch.setattr(analysis, "census", asking)
    monkeypatch.setattr(analysis, "_take_census", taking)

    inputs = []
    kernels = [generate_kernel(mode, 0, options=_OPTIONS) for mode in Mode]
    for raw in kernels + [expectation.builder() for expectation in FIGURE_EXPECTATIONS]:
        inputs += [raw, CompilerDriver().compile(raw, optimisations=True).program]
        for config in all_configurations():
            for optimisations in (False, True):
                try:
                    CompilerDriver(config).compile(raw, optimisations)
                except (BuildFailure, CompileTimeout):
                    continue

    # Each program object asked for its census took exactly one: the raw
    # program (front-end models, the calibrated build check), the optimised
    # one (the bug-model stage at opt+) and each rewriting model's output
    # that a later model in the configuration's list reads.
    assert set(taken) == set(asked)
    assert set(taken.values()) == {1}
    assert all(id(program) in taken for program in inputs)
    assert len(taken) > len({id(program) for program in inputs})
