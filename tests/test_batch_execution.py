"""The batch == sequential byte-identity property of engine-level batches.

A batch shares *lowering*, never results: running any member of a
``lower_batch`` family must be byte-identical to having lowered that member
alone -- same outputs, same final step counts, same ``ExecutionTimeout``
payload at ``max_steps + 1``, same race reports, same UB classification --
on every engine.  The compiled engine's shared function records are gated
by the tests in this file; see ENGINE.md.
"""

import pytest

from repro.emi import generate_variants
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast, types as ty
from repro.runtime.device import run_program
from repro.runtime.engine import PreparedBatch, get_engine
from repro.runtime.errors import ExecutionTimeout
from repro.testing.campaign import generate_emi_bases

ENGINES = ("reference", "compiled")

_FAST = GeneratorOptions(
    min_total_threads=4, max_total_threads=12, max_group_size=4, max_statements=8
)

#: The options test_engine.py's timeout corpus uses: every Mode.BASIC seed
#: below exceeds a 40-step budget on every engine.
_TIMEOUT_OPTIONS = GeneratorOptions(
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


def _family(seed, n_variants=6):
    base = generate_emi_bases(1, seed=seed, options=_FAST)[0]
    return [base] + generate_variants(base)[:n_variants]


# ---------------------------------------------------------------------------
# Engine level: lower_batch members == individually lowered programs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_batch_members_match_sequential_on_emi_family(engine):
    """The gating property: for every member of a batched EMI family, the
    batch-lowered execution is byte-identical (outputs, steps, hash) to a
    fresh sequential lowering -- under both comma-defect settings."""
    for seed in (3, 11):
        family = _family(seed)
        for comma in (False, True):
            batch = get_engine(engine).lower_batch(
                family, comma_yields_zero=comma, max_steps=300_000
            )
            assert isinstance(batch, PreparedBatch)
            assert len(batch) == len(family)
            for program, prepared in zip(family, batch):
                kwargs = dict(
                    engine=engine, comma_yields_zero=comma, max_steps=300_000
                )
                sequential = _observe(program, **kwargs)
                batched = _observe(program, prepared=prepared, **kwargs)
                assert batched == sequential, (
                    f"{engine} batch member diverges from sequential "
                    f"(seed={seed}, comma={comma})"
                )


@pytest.mark.parametrize("engine", ENGINES)
def test_batch_members_are_relaunchable(engine):
    """Cached family members are reused across launches: running the same
    batch member twice must give identical results (bind resets the shared
    step counter)."""
    family = _family(3, n_variants=3)
    batch = get_engine(engine).lower_batch(family, max_steps=300_000)
    for program, prepared in zip(family, batch):
        first = _observe(program, engine=engine, max_steps=300_000, prepared=prepared)
        second = _observe(program, engine=engine, max_steps=300_000, prepared=prepared)
        assert first == second


@pytest.mark.parametrize("engine", ENGINES)
def test_batch_members_report_identical_timeout_payload(engine):
    """Timeout parity inside a batch: every member classifies as a timeout
    with the exact first-crossing payload ``max_steps + 1``, matching its
    sequential lowering."""
    programs = [
        generate_kernel(Mode.BASIC, seed, options=_TIMEOUT_OPTIONS)
        for seed in range(4)
    ]
    batch = get_engine(engine).lower_batch(programs, max_steps=40)
    for program, prepared in zip(programs, batch):
        sequential = _observe(program, engine=engine, max_steps=40)
        assert sequential[:2] == ("raise", "ExecutionTimeout")
        batched = _observe(program, engine=engine, max_steps=40, prepared=prepared)
        assert batched == sequential
        with pytest.raises(ExecutionTimeout) as excinfo:
            run_program(program, engine=engine, max_steps=40, prepared=prepared)
        assert excinfo.value.steps == 41


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


@pytest.mark.parametrize("engine", ENGINES)
def test_batch_members_report_identical_races(engine):
    """Race-report parity inside a batch -- including a duplicated member,
    which exercises the engines' handling of repeats in one batch."""
    program = _racy_program()
    batch = get_engine(engine).lower_batch([program, program])
    sequential = _observe(
        program, engine=engine, check_races=True, throw_on_race=False
    )
    assert sequential[0] == "ok" and sequential[3], "expected race reports"
    for prepared in batch:
        batched = _observe(
            program,
            engine=engine,
            check_races=True,
            throw_on_race=False,
            prepared=prepared,
        )
        assert batched == sequential


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


@pytest.mark.parametrize("engine", ENGINES)
def test_batch_of_heterogeneous_programs_preserves_ub_classification(engine):
    """A batch need not be a variant family: structurally unrelated members
    (here, distinct UB kinds) still classify exactly as sequential runs."""
    programs = [
        _single_thread_program(
            [ast.out_write(ast.binop("/", ast.lit(1), ast.lit(0)))]
        ),
        _single_thread_program(
            [ast.out_write(ast.binop("<<", ast.lit(1), ast.lit(99)))]
        ),
        _single_thread_program([ast.out_write(ast.lit(7))]),
    ]
    batch = get_engine(engine).lower_batch(programs)
    for program, prepared in zip(programs, batch):
        sequential = _observe(program, engine=engine)
        batched = _observe(program, engine=engine, prepared=prepared)
        assert batched == sequential
    assert _observe(programs[2], engine=engine, prepared=batch[2])[0] == "ok"


def test_prepared_batch_rejects_misaligned_lists():
    program = _single_thread_program([ast.out_write(ast.lit(1))])
    prepared = get_engine("compiled").lower(program)
    with pytest.raises(ValueError, match="align"):
        PreparedBatch([program], [prepared, prepared])
