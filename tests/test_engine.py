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

import pytest

from repro.compiler import compile_program
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast, types as ty
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
