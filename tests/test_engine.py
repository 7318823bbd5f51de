"""Engine-vs-engine differential tests.

The compile-to-closures backend (``"compiled"``) must be observationally
indistinguishable from the tree-walking reference interpreter
(``"reference"``): same outputs, same final step counts, same race reports,
same outcome classification for timeout / UB / crash results -- including
the exact ``ExecutionTimeout`` payload -- under every schedule order and
bug-model configuration.  These tests apply the paper's own methodology --
differential testing over a generated corpus -- to the repository's two
execution engines.
"""

import random

import pytest

from repro.compiler import compile_program
from repro.emi import PRUNING_GRID, generate_variants, invert_dead_array
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast, builtins, types as ty
from repro.kernel_lang.semantics import UBKind
from repro.orchestration.cache import ResultCache, cached_run
from repro.platforms import get_configuration
from repro.platforms.calibration import execution_cache_key
from repro.runtime.device import Device, KernelResult, run_program
from repro.runtime.engine import (
    DEFAULT_ENGINE,
    ExecutionEngine,
    ReferenceEngine,
    available_engines,
    get_engine,
)
from repro.runtime.errors import (
    DataRaceError,
    ExecutionTimeout,
    UndefinedBehaviourError,
)
from repro.runtime.interpreter import ThreadContext
from repro.runtime.scheduler import ScheduleOrder
from repro.testing.campaign import run_clsmith_campaign
from repro.testing.differential import DifferentialHarness

ENGINES = ("reference", "compiled")
FAST_ENGINES = ("compiled",)

#: Small kernels keep the 50-seed corpus fast without losing coverage.
CORPUS_OPTIONS = GeneratorOptions(
    min_total_threads=4, max_total_threads=24, max_group_size=8, max_statements=8
)


def _observe(program, **kwargs):
    """Everything observable about one execution, exceptions included."""
    try:
        result = run_program(program, **kwargs)
    except Exception as exc:  # noqa: BLE001 - classification is the point
        kind = getattr(exc, "kind", None)
        steps = getattr(exc, "steps", None)
        return ("raise", type(exc).__name__, kind, steps)
    return (
        "ok",
        result.outputs,
        result.steps,
        tuple(result.race_reports),
        result.result_hash(),
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def test_engine_registry_lists_all_engines():
    assert available_engines() == ["compiled", "reference"]
    assert DEFAULT_ENGINE == "reference"


def test_get_engine_resolves_names_and_instances():
    reference = get_engine("reference")
    assert reference.name == "reference"
    assert isinstance(reference, ExecutionEngine)
    # Instances pass through; names resolve to shared singletons.
    assert get_engine(reference) is reference
    assert get_engine("reference") is reference
    assert get_engine(None).name == DEFAULT_ENGINE
    custom = ReferenceEngine()
    assert get_engine(custom) is custom


def test_get_engine_unknown_name_fails_loudly():
    with pytest.raises(KeyError, match="unknown execution engine"):
        get_engine("bytecode-vm")


# ---------------------------------------------------------------------------
# The engine differential property test (the tentpole's acceptance gate)
# ---------------------------------------------------------------------------


def test_engines_agree_on_generated_corpus():
    """50-seed corpus x opt levels x every engine: byte-identical results.

    ``steps`` equality is deliberately part of the contract: the fast
    engines must tick the shared budget at the same AST points, otherwise
    timeout classification could diverge between engines.
    """
    modes = list(Mode)
    for seed in range(50):
        mode = modes[seed % len(modes)]
        base = generate_kernel(mode, seed, options=CORPUS_OPTIONS)
        for optimisations in (False, True):
            program = compile_program(base, optimisations=optimisations).program
            reference = _observe(program, engine="reference")
            for engine in FAST_ENGINES:
                observed = _observe(program, engine=engine)
                assert reference == observed, (
                    f"{engine} disagrees with reference on mode={mode} "
                    f"seed={seed} opt={optimisations}"
                )


def test_engines_agree_under_comma_defect_and_schedule_orders():
    for seed in range(10):
        program = generate_kernel(Mode.ALL, seed, options=CORPUS_OPTIONS)
        for comma in (False, True):
            for order in ScheduleOrder:
                kwargs = dict(
                    schedule_order=order, schedule_seed=seed, comma_yields_zero=comma
                )
                reference = _observe(program, engine="reference", **kwargs)
                for engine in FAST_ENGINES:
                    assert reference == _observe(program, engine=engine, **kwargs)


def test_engines_agree_on_timeout_classification_and_payload():
    """Timeouts classify identically *and* carry identical step payloads.

    The reference walker increments one step at a time, so the first budget
    crossing it can observe is exactly ``max_steps + 1``; the compiled engine
    batches adjacent ticks but must report the same first-crossing value
    (this pins the historically-documented one-step divergence as resolved).
    """
    for seed in range(8):
        program = generate_kernel(Mode.BASIC, seed, options=CORPUS_OPTIONS)
        reference = _observe(program, engine="reference", max_steps=40)
        assert reference[0] == "raise" and reference[1] == "ExecutionTimeout"
        for engine in FAST_ENGINES:
            assert _observe(program, engine=engine, max_steps=40) == reference
        for engine in ENGINES:
            with pytest.raises(ExecutionTimeout) as excinfo:
                run_program(program, engine=engine, max_steps=40)
            assert excinfo.value.steps == 41


# ---------------------------------------------------------------------------
# Undefined behaviour and race parity
# ---------------------------------------------------------------------------


def _single_thread_program(statements):
    kernel = ast.FunctionDecl(
        "entry",
        ty.VOID,
        [ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))],
        ast.Block(statements),
        is_kernel=True,
    )
    return ast.Program(
        functions=[kernel],
        buffers=[ast.BufferSpec("out", ty.ULONG, 1, is_output=True)],
        launch=ast.LaunchSpec((1, 1, 1), (1, 1, 1)),
    )


@pytest.mark.parametrize(
    "statements, kind",
    [
        (
            [ast.out_write(ast.binop("/", ast.lit(1), ast.lit(0)))],
            UBKind.DIVISION_BY_ZERO,
        ),
        (
            [ast.out_write(ast.binop("+", ast.lit(2**31 - 1), ast.lit(1)))],
            UBKind.SIGNED_OVERFLOW,
        ),
        (
            [ast.out_write(ast.binop("<<", ast.lit(1), ast.lit(99)))],
            UBKind.SHIFT_OUT_OF_RANGE,
        ),
        (
            [ast.out_write(ast.call("clamp", ast.lit(1), ast.lit(5), ast.lit(2)))],
            UBKind.BUILTIN_UNDEFINED,
        ),
        (
            [
                ast.DeclStmt("a", ty.ArrayType(ty.INT, 2), ast.InitList([ast.lit(1)])),
                ast.out_write(ast.IndexAccess(ast.var("a"), ast.lit(7))),
            ],
            UBKind.OUT_OF_BOUNDS,
        ),
        (
            [ast.out_write(ast.var("nonexistent"))],
            UBKind.UNINITIALISED_READ,
        ),
        # UB raised inside the compiled engine's typed integer closures.
        (
            [ast.out_write(ast.binop("-", ast.lit(-2**63, ty.LONG), ast.lit(1, ty.LONG)))],
            UBKind.SIGNED_OVERFLOW,
        ),
        (
            [ast.out_write(ast.binop("*", ast.lit(2**62, ty.LONG), ast.lit(2, ty.LONG)))],
            UBKind.SIGNED_OVERFLOW,
        ),
        (
            [ast.out_write(ast.UnaryOp("-", ast.lit(-2**31)))],
            UBKind.SIGNED_OVERFLOW,
        ),
        (
            [ast.out_write(ast.binop("%", ast.lit(1), ast.lit(0)))],
            UBKind.DIVISION_BY_ZERO,
        ),
        (
            [ast.out_write(ast.binop(">>", ast.lit(1), ast.lit(32)))],
            UBKind.SHIFT_OUT_OF_RANGE,
        ),
        (
            # ``out`` has one element; the read after the scheduling point fails.
            [
                ast.ExprStmt(
                    ast.call(
                        "atomic_inc",
                        ast.AddressOf(ast.IndexAccess(ast.var("out"), ast.lit(3))),
                    )
                )
            ],
            UBKind.OUT_OF_BOUNDS,
        ),
        (
            [
                ast.DeclStmt(
                    "p",
                    ty.PointerType(
                        ty.StructType("Pair", (ty.FieldDecl("f", ty.INT),))
                    ),
                    ast.lit(0),
                ),
                ast.out_write(ast.FieldAccess(ast.var("p"), "f", arrow=True)),
            ],
            UBKind.NULL_DEREFERENCE,
        ),
    ],
)
def test_engines_agree_on_ub_kind(statements, kind):
    program = _single_thread_program([s.clone() for s in statements])
    observations = {}
    for engine in ENGINES:
        with pytest.raises(UndefinedBehaviourError) as excinfo:
            run_program(program, engine=engine)
        observations[engine] = excinfo.value.kind
    assert all(observed == kind for observed in observations.values()), observations


def _racy_program():
    """Every thread writes acc[0] without synchronisation."""
    kernel = ast.FunctionDecl(
        "entry",
        ty.VOID,
        [ast.ParamDecl("acc", ty.PointerType(ty.UINT, ty.GLOBAL))],
        ast.Block(
            [
                ast.AssignStmt(
                    ast.IndexAccess(ast.var("acc"), ast.lit(0)),
                    ast.global_linear_id(),
                )
            ]
        ),
        is_kernel=True,
    )
    return ast.Program(
        functions=[kernel],
        buffers=[ast.BufferSpec("acc", ty.UINT, 1, is_output=True)],
        launch=ast.LaunchSpec((4, 1, 1), (4, 1, 1)),
    )


def test_engines_agree_on_race_reports():
    program = _racy_program()
    collected = {
        engine: _observe(
            program, engine=engine, check_races=True, throw_on_race=False
        )
        for engine in ENGINES
    }
    for engine in FAST_ENGINES:
        assert collected[engine] == collected["reference"]
    assert collected["reference"][0] == "ok"
    assert collected["reference"][3], "expected at least one race report"

    for engine in ENGINES:
        with pytest.raises(DataRaceError):
            run_program(program, engine=engine, check_races=True, throw_on_race=True)


# ---------------------------------------------------------------------------
# Scheduler-order invariance (per engine)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", [Mode.BARRIER, Mode.ATOMIC_REDUCTION, Mode.ALL])
def test_schedule_order_invariance_per_engine(engine, mode):
    """Race-free kernels must hash identically under every interleaving."""
    for seed in range(4):
        program = generate_kernel(mode, seed, options=CORPUS_OPTIONS)
        hashes = {
            order: run_program(
                program, engine=engine, schedule_order=order, schedule_seed=3
            ).result_hash()
            for order in ScheduleOrder
        }
        assert len(set(hashes.values())) == 1, (
            f"{engine} results vary across schedule orders for seed {seed}: {hashes}"
        )


# ---------------------------------------------------------------------------
# Harness- and campaign-level agreement
# ---------------------------------------------------------------------------


def _record_view(result):
    return [
        (
            record.config_name,
            record.optimisations,
            record.outcome,
            record.result.result_hash() if record.result is not None else None,
        )
        for record in result.records
    ]


def test_differential_harness_verdicts_are_engine_independent():
    configs = [None] + [get_configuration(i) for i in (1, 9, 14, 19)]
    for seed in range(6):
        program = generate_kernel(Mode.ALL, seed, options=CORPUS_OPTIONS)
        views = {}
        for engine in ENGINES:
            harness = DifferentialHarness(configs, max_steps=300_000, engine=engine)
            views[engine] = _record_view(harness.run(program))
        for engine in FAST_ENGINES:
            assert views[engine] == views["reference"]


def test_execution_cache_key_includes_engine():
    program = generate_kernel(Mode.BASIC, 0, options=CORPUS_OPTIONS)
    reference_key = execution_cache_key(program, {}, 1000, "reference")
    compiled_key = execution_cache_key(program, {}, 1000, "compiled")
    assert reference_key != compiled_key


def test_shared_cache_never_crosses_engines():
    program = generate_kernel(Mode.BASIC, 1, options=CORPUS_OPTIONS)
    compiled = compile_program(program, optimisations=True)
    cache = ResultCache()
    first = cached_run(cache, compiled, 300_000, "reference")
    second = cached_run(cache, compiled, 300_000, "compiled")
    assert first == second
    # Two distinct entries: the compiled lookup must miss, not reuse the
    # reference execution.
    assert cache.stats.misses == 2 and cache.stats.hits == 0 and len(cache) == 2
    assert cached_run(cache, compiled, 300_000, "compiled") == second
    assert cache.stats.hits == 1


def test_campaign_tables_engine_independent_and_parallel_safe():
    configs = [get_configuration(i) for i in (1, 9, 19)]
    campaign = dict(
        kernels_per_mode=2,
        modes=(Mode.BASIC, Mode.BARRIER),
        options=CORPUS_OPTIONS,
        max_steps=300_000,
        seed=7,
    )
    reference = run_clsmith_campaign(configs, engine="reference", **campaign)
    for engine in FAST_ENGINES:
        fast = run_clsmith_campaign(configs, engine=engine, **campaign)
        assert fast.table_rows() == reference.table_rows()

    parallel = run_clsmith_campaign(
        configs, engine="compiled", parallelism=2, **campaign
    )
    assert parallel.table_rows() == reference.table_rows()
    assert parallel.render() == reference.render()


# ---------------------------------------------------------------------------
# Satellite regressions
# ---------------------------------------------------------------------------


def test_kernel_result_is_unhashable():
    result = KernelResult(outputs={"out": [1]}, steps=3)
    with pytest.raises(TypeError):
        hash(result)
    with pytest.raises(TypeError):
        {result}


def test_thread_context_linear_ids_are_precomputed_attributes():
    context = ThreadContext(
        global_id=(5, 1, 0),
        local_id=(1, 1, 0),
        group_id=(1, 0, 0),
        global_size=(8, 2, 1),
        local_size=(4, 2, 1),
    )
    # Plain attributes (precomputed), not properties.
    assert "global_linear_id" in vars(context)
    assert context.num_groups == (2, 1, 1)
    assert context.global_linear_id == 1 * 8 + 5
    assert context.local_linear_id == 1 * 4 + 1
    assert context.group_linear_id == 1


def test_device_accepts_engine_instances():
    program = generate_kernel(Mode.BASIC, 3, options=CORPUS_OPTIONS)
    device = Device(engine=ReferenceEngine())
    assert device.run(program) == run_program(program, engine="compiled")


# ---------------------------------------------------------------------------
# Typed integer closures
# ---------------------------------------------------------------------------

#: The nine integer types, ``size_t`` included.
INT_TYPES = ty.ALL_SCALAR_TYPES + (ty.SIZE_T,)
ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=", "<<=", ">>=", "&=", "|=", "^=")
BUILTINS2 = sorted(n for n, spec in builtins.SCALAR_BUILTINS.items() if spec.arity == 2)
PAIR = ty.StructType("Pair", (ty.FieldDecl("lo", ty.UCHAR), ty.FieldDecl("hi", ty.LONG)))


class _IntKernels:
    """Seeded random single-group, 2-work-item integer kernels.

    They cover every integer type with boundary literals, every binary
    operator (``,``, ``&&`` and ``||`` included), casts, unary operators,
    ternaries whose branches differ in type, 2-argument builtins, compound
    assignments (as statements and as expressions), struct fields read
    directly and through a pointer, loops, atomics and a helper function
    with integer parameters.
    """

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.targets = []

    def literal(self):
        itype = self.rng.choice(INT_TYPES)
        value = self.rng.choice((
            itype.min_value, itype.max_value, itype.min_value + 1,
            itype.max_value - 1, 0, 1, self.rng.randint(-9, 9),
        ))
        return ast.lit(itype.wrap(value), itype)

    def leaf(self, reads):
        pick = self.rng.random()
        if pick < 0.35 or not reads:
            return self.literal()
        if pick < 0.9:
            return self.rng.choice(reads)()
        return ast.WorkItemExpr(self.rng.choice(("get_global_id", "get_linear_local_id")))

    def expr(self, reads, depth):
        rng = self.rng
        if depth == 0 or rng.random() < 0.2:
            return self.leaf(reads)
        kind = rng.randrange(8)
        if kind == 7 and self.targets:
            op = rng.choice(ASSIGN_OPS)
            return ast.AssignExpr(
                rng.choice(self.targets)(), self.operand(op, reads, depth - 1), op
            )
        if kind == 0:
            return ast.Cast(rng.choice(INT_TYPES), self.expr(reads, depth - 1))
        if kind == 1:
            return ast.UnaryOp(rng.choice(ast.UNARY_OPERATORS), self.expr(reads, depth - 1))
        if kind == 2:
            return ast.Conditional(*(self.expr(reads, depth - 1) for _ in range(3)))
        if kind == 3:
            return ast.call(rng.choice(BUILTINS2), *(self.expr(reads, depth - 1) for _ in range(2)))
        op = rng.choice(ast.BINARY_OPERATORS)
        return ast.binop(op, self.expr(reads, depth - 1), self.operand(op, reads, depth - 1))

    def operand(self, op, reads, depth):
        """A right operand; mostly a small positive literal for ``/``, ``%``
        and the shifts, so that most kernels run to completion."""
        if op.rstrip("=") in ("/", "%", "<<", ">>") and self.rng.random() < 0.8:
            return ast.lit(self.rng.randint(1, 7), self.rng.choice(INT_TYPES))
        return self.expr(reads, depth)

    def program(self):
        rng = self.rng
        gid = ast.WorkItemExpr("get_global_id")
        body, reads, functions = [], [], []
        targets = self.targets = []
        if rng.random() < 0.3:
            params = [ast.ParamDecl(f"a{i}", rng.choice(INT_TYPES)) for i in range(2)]
            param_reads = [lambda name=p.name: ast.var(name) for p in params]
            functions.append(ast.FunctionDecl(
                "helper", rng.choice(INT_TYPES), params,
                ast.Block([ast.ReturnStmt(self.expr(param_reads, 2))]),
            ))
        if rng.random() < 0.4:
            body.append(ast.DeclStmt(
                "s", PAIR, ast.InitList([self.expr(reads, 1), self.expr(reads, 1)])
            ))
            body.append(ast.DeclStmt(
                "p", ty.PointerType(PAIR), ast.AddressOf(ast.var("s"))
            ))
            for field in ("lo", "hi"):
                reads.append(lambda f=field: ast.FieldAccess(ast.var("s"), f))
                reads.append(lambda f=field: ast.FieldAccess(ast.var("p"), f, arrow=True))
                targets.append(lambda f=field: ast.FieldAccess(ast.var("s"), f))
        for index in range(rng.randint(1, 3)):
            name = f"v{index}"
            body.append(ast.DeclStmt(name, rng.choice(INT_TYPES), self.expr(reads, 2)))
            reads.append(lambda name=name: ast.var(name))
            targets.append(lambda name=name: ast.var(name))
        if functions:
            reads.append(lambda: ast.call("helper", self.expr(reads[:-1], 1), self.leaf(reads[:-1])))
        for _ in range(rng.randint(1, 4)):
            pick = rng.random()
            if pick < 0.15:
                stmt = ast.ExprStmt(ast.call(
                    rng.choice(("atomic_add", "atomic_xor", "atomic_max")),
                    ast.AddressOf(ast.IndexAccess(ast.var("out"), gid)),
                    self.expr(reads, 2),
                ))
            else:
                op = rng.choice(ASSIGN_OPS)
                stmt = ast.AssignStmt(rng.choice(targets)(), self.operand(op, reads, 3), op)
            if pick > 0.85:
                stmt = ast.ForStmt(
                    ast.DeclStmt("i", ty.INT, ast.lit(0)),
                    ast.binop("<", ast.var("i"), ast.lit(rng.randint(1, 3))),
                    ast.AssignStmt(ast.var("i"), ast.lit(1), "+="),
                    ast.Block([stmt]),
                )
            elif pick > 0.6:
                stmt = ast.IfStmt(self.expr(reads, 2), ast.Block([stmt]))
            body.append(stmt)
        body.append(ast.AssignStmt(ast.IndexAccess(ast.var("out"), gid), self.expr(reads, 3)))
        kernel = ast.FunctionDecl(
            "entry", ty.VOID, [ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))],
            ast.Block(body), is_kernel=True,
        )
        return ast.Program(
            structs=[PAIR],
            functions=functions + [kernel],
            buffers=[ast.BufferSpec("out", ty.ULONG, 2, is_output=True)],
            launch=ast.LaunchSpec((2, 1, 1), (2, 1, 1)),
        )


def test_engines_agree_on_random_integer_kernels():
    """Reference and compiled engines agree on 400 random integer kernels,
    each run plain, under the comma defect and under a small step budget."""
    kernels = _IntKernels(seed=17)
    completed = 0
    for index in range(400):
        program = kernels.program()
        plain = _observe(program, engine="reference")
        # A budget that often runs out part-way through the kernel.
        steps = plain[2] if plain[0] == "ok" else 40
        for kwargs in (
            {},
            {"comma_yields_zero": True},
            {"max_steps": kernels.rng.randint(4, 2 * steps)},
        ):
            reference = _observe(program, engine="reference", **kwargs)
            assert _observe(program, engine="compiled", **kwargs) == reference, (
                f"kernel {index} {kwargs}: {reference}"
            )
            completed += reference[0] == "ok"
    # Most runs complete, so their outputs are compared, not just UB kinds.
    assert completed > 600


def test_engines_agree_when_atomic_and_arrow_children_yield():
    """``atomic_op(&p[i], ...)`` and ``p->f`` reads have closures of their
    own.  An atomic inside the index, an operand or the pointer expression
    makes that child yield; the engines must still agree on ticks,
    schedules, the comma defect and UB."""
    gid = ast.WorkItemExpr("get_global_id")

    def out(index):
        return ast.IndexAccess(ast.var("out"), index)

    def bump(slot):
        return ast.call("atomic_inc", ast.AddressOf(out(ast.lit(slot))))

    kernel = ast.FunctionDecl(
        "entry", ty.VOID, [ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))],
        ast.Block([
            ast.DeclStmt("s", PAIR, ast.InitList([ast.lit(3), gid])),
            ast.DeclStmt("p", ty.PointerType(PAIR), ast.AddressOf(ast.var("s"))),
            ast.ExprStmt(ast.call(
                "atomic_add",
                ast.AddressOf(out(ast.binop("%", bump(2), ast.lit(2)))),
                ast.call("atomic_xor", ast.AddressOf(out(ast.lit(3))), gid),
            )),
            ast.AssignStmt(
                out(ast.binop("+", gid, ast.lit(4))),
                ast.FieldAccess(ast.binop(",", bump(3), ast.var("p")), "hi", arrow=True),
            ),
        ]),
        is_kernel=True,
    )
    program = ast.Program(
        structs=[PAIR],
        functions=[kernel],
        buffers=[ast.BufferSpec("out", ty.ULONG, 8, is_output=True)],
        launch=ast.LaunchSpec((4, 1, 1), (4, 1, 1)),
    )
    for order in ScheduleOrder:
        for comma in (False, True):
            kwargs = dict(schedule_order=order, schedule_seed=5, comma_yields_zero=comma)
            reference = _observe(program, engine="reference", **kwargs)
            assert _observe(program, engine="compiled", **kwargs) == reference
    plain = _observe(program, engine="reference")
    assert plain[0] == "ok"
    for max_steps in range(1, plain[2] + 1):
        assert _observe(program, engine="compiled", max_steps=max_steps) == _observe(
            program, engine="reference", max_steps=max_steps
        )


def test_engines_agree_on_emi_families():
    """The benchmark's EMI program shapes: two bases at 64-128 threads, each
    with its first five pruned variants and its inverted program, optimised,
    observe identically on both engines."""
    options = GeneratorOptions(
        min_total_threads=64, max_total_threads=128, max_group_size=8, max_statements=8
    )
    for seed in (1, 101):
        base = generate_kernel(Mode.ALL, seed, options=options, emi_blocks=3)
        family = (
            [base]
            + generate_variants(base, PRUNING_GRID[:5], seed=seed)
            + [invert_dead_array(base)]
        )
        for program in family:
            optimised = compile_program(program, optimisations=True).program
            assert _observe(optimised, engine="compiled", max_steps=400_000) == _observe(
                optimised, engine="reference", max_steps=400_000
            )
