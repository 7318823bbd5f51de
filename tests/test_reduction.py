"""End-to-end tests for the automated test-case reduction subsystem.

These lock the subsystem's contract (see REDUCTION.md):

* a seeded corpus of >= 20 wrong-code / crash / timeout kernels shrinks by
  >= 70% median node count while every reduced kernel still reproduces its
  original outcome class;
* the hard UB guard: no candidate classified as undefined behaviour is ever
  accepted, and a UB-afflicted "original" refuses to reduce at all;
* determinism: the same (seed, kernel, predicate) produces an identical
  reduction, and the accepted-step trace replays without any harness;
* orchestration: candidate evaluation through serial and process
  ``WorkerPool`` backends produces ``ReductionResult``s byte-identical to
  the in-process reduction, and ``auto_reduce=`` campaigns attach identical
  summaries on both backends.
"""

import statistics

import pytest

from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast, types as ty
from repro.kernel_lang.printer import print_program
from repro.orchestration.jobs import (
    REDUCE_CHECK,
    REDUCE_KERNEL,
    CampaignJob,
    execute_job,
    serialise_configs,
)
from repro.orchestration.pool import WorkerPool
from repro.reduction import (
    MismatchPredicate,
    PoolEvaluator,
    PredicateSpec,
    Reducer,
    ReducerConfig,
    build_predicate,
    replay_trace,
)
from repro.reduction.corpus import (
    clean_config,
    crash_config,
    emi_parity_config,
    seeded_corpus,
    timeout_config,
    wrong_code_config,
)
from repro.runtime.device import run_program
from repro.testing.campaign import run_clsmith_campaign, run_emi_campaign

_FAST_OPTIONS = GeneratorOptions(
    min_total_threads=4,
    max_total_threads=12,
    max_group_size=4,
    max_statements=8,
    max_expr_depth=2,
)

_CORPUS_CONFIG = ReducerConfig(seed=1, max_evaluations=600, max_pass_evaluations=200)


def _ub_program() -> ast.Program:
    """A well-formed kernel whose execution is undefined (1/0)."""
    return ast.Program(
        functions=[
            ast.FunctionDecl(
                "entry",
                ty.VOID,
                [ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))],
                ast.block(ast.out_write(ast.binop("/", ast.lit(1), ast.lit(0)))),
                is_kernel=True,
            )
        ],
        buffers=[ast.BufferSpec("out", ty.ULONG, 4, is_output=True)],
        launch=ast.LaunchSpec((4, 1, 1), (1, 1, 1)),
    )


# ---------------------------------------------------------------------------
# The headline property: a >= 20-kernel corpus shrinks >= 70% median
# ---------------------------------------------------------------------------


def test_corpus_shrinks_70_percent_median_preserving_outcome_class():
    corpus = seeded_corpus(per_class=7, options=_FAST_OPTIONS)
    assert len(corpus) >= 20
    ratios = []
    for program, config, expected_class in corpus:
        predicate = MismatchPredicate.from_program(program, config, True)
        assert predicate.expected_class == expected_class
        result = Reducer(_CORPUS_CONFIG).reduce(program, predicate)
        assert result.nodes_after < result.nodes_before
        assert result.tokens_after < result.tokens_before
        ratios.append(result.node_reduction)
        # The reduced kernel still reproduces the *same* outcome class...
        check = MismatchPredicate(
            config, True, expected_class, max_steps=predicate.max_steps
        )
        assert check(result.reduced), expected_class
        # ...and the reducer never traded the defect for undefined
        # behaviour: the reduced kernel is clean on the reference simulator.
        run_program(result.reduced, max_steps=500_000)
    assert statistics.median(ratios) >= 0.70, sorted(ratios)


# ---------------------------------------------------------------------------
# Determinism and replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode,seed", [(Mode.BASIC, 3), (Mode.VECTOR, 5), (Mode.ALL, 7)])
def test_reduction_is_deterministic(mode, seed):
    program = generate_kernel(mode, seed, options=_FAST_OPTIONS)

    def run_once():
        predicate = MismatchPredicate.from_program(program, wrong_code_config(), True)
        return Reducer(ReducerConfig(seed=9)).reduce(program, predicate)

    first, second = run_once(), run_once()
    assert print_program(first.reduced) == print_program(second.reduced)
    assert first.trace == second.trace
    assert first.evaluations == second.evaluations
    assert {n: s.as_dict() for n, s in first.pass_stats.items()} == {
        n: s.as_dict() for n, s in second.pass_stats.items()
    }


def test_trace_replays_to_the_reduced_kernel_without_a_harness():
    program = generate_kernel(Mode.BASIC, 13, options=_FAST_OPTIONS)
    predicate = MismatchPredicate.from_program(program, crash_config(), True)
    result = Reducer(ReducerConfig(seed=4)).reduce(program, predicate)
    assert result.trace, "expected at least one accepted step"
    replayed = replay_trace(program, result.trace, seed=4)
    assert print_program(replayed) == print_program(result.reduced)


# ---------------------------------------------------------------------------
# The hard UB guard
# ---------------------------------------------------------------------------


def test_ub_candidates_are_rejected_and_counted():
    program = generate_kernel(Mode.BASIC, 3, options=_FAST_OPTIONS)
    predicate = MismatchPredicate.from_program(program, wrong_code_config(), True)
    assert predicate(_ub_program()) is False
    assert predicate.stats.ub_rejections == 1
    assert predicate.stats.accepted == 0


def test_ub_original_refuses_to_reduce():
    with pytest.raises(ValueError):
        MismatchPredicate.from_program(_ub_program(), wrong_code_config(), True)


def test_emi_candidates_get_their_own_fingerprint():
    """Regression: a reduction candidate must not inherit the original
    kernel's ``emi_base_fingerprint`` -- fingerprint-keyed calibrated
    defects would keep firing for shrinks whose own code no longer triggers
    anything, so the candidate would 'reproduce' via carried metadata."""
    from repro.emi.variants import mark_base_fingerprint
    from repro.reduction.interestingness import refresh_base_fingerprint

    original = mark_base_fingerprint(
        generate_kernel(Mode.ALL, 1, options=_FAST_OPTIONS, emi_blocks=2)
    )
    stale = original.metadata["emi_base_fingerprint"]
    candidate = original.clone()
    del candidate.kernel().body.statements[0]  # different code, stale metadata
    assert candidate.metadata["emi_base_fingerprint"] == stale
    refreshed = refresh_base_fingerprint(candidate)
    assert refreshed.metadata["emi_base_fingerprint"] != stale
    # Unchanged code re-derives the identical fingerprint (the predicate
    # treats the original itself consistently).
    assert (
        refresh_base_fingerprint(original).metadata["emi_base_fingerprint"]
        == stale
    )


def test_invalid_candidates_are_rejected_statically():
    program = generate_kernel(Mode.BASIC, 3, options=_FAST_OPTIONS)
    predicate = MismatchPredicate.from_program(program, wrong_code_config(), True)
    broken = program.clone()
    broken.kernel().body.statements.insert(
        0, ast.ExprStmt(ast.var("no_such_variable"))
    )
    assert predicate(broken) is False
    assert predicate.stats.invalid_rejections == 1


# ---------------------------------------------------------------------------
# Orchestration: pool dispatch and campaign auto-triage
# ---------------------------------------------------------------------------


def test_pool_backends_produce_byte_identical_reductions():
    """A reduction through a serial or a process pool is the in-process
    reduction, also when a tight budget cuts it short."""
    program = generate_kernel(Mode.BASIC, 11, options=_FAST_OPTIONS)
    spec = PredicateSpec(
        kind="mismatch", expected_class="w", target_index=0,
        target_optimisations=True,
    )
    configs = [wrong_code_config()]
    config_ids, config_overrides = serialise_configs(configs)
    template = CampaignJob(
        kind=REDUCE_KERNEL, seed=0, config_ids=config_ids,
        config_overrides=config_overrides, predicate_spec=spec,
    )

    def observed(result):
        return (
            result.reduced_source,
            result.trace,
            result.evaluations,
            result.budget_exhausted,
            {n: s.as_dict() for n, s in result.pass_stats.items()},
            result.predicate_stats.as_dict(),
        )

    for budget in (300, 60):
        reducer = Reducer(ReducerConfig(seed=2, max_evaluations=budget))
        predicate = build_predicate(
            spec, configs, template.optimisation_levels, template.max_steps,
            template.engine,
        )
        in_process = observed(reducer.reduce(program, predicate))
        for parallelism in (1, 2):
            with WorkerPool(parallelism) as pool:
                pooled = reducer.reduce(
                    program, evaluator=PoolEvaluator(pool, template)
                )
            assert observed(pooled) == in_process, (budget, parallelism)


def test_reduce_jobs_execute_like_any_campaign_job():
    program = generate_kernel(Mode.BASIC, 3, options=_FAST_OPTIONS)
    spec = PredicateSpec(
        kind="mismatch", expected_class="w", target_index=0,
        target_optimisations=True,
    )
    common = dict(
        config_ids=(901,),
        config_overrides=(wrong_code_config(),),
        predicate_spec=spec,
        max_steps=500_000,
    )
    check = execute_job(
        CampaignJob(kind=REDUCE_CHECK, seed=0, program=program, **common)
    )
    assert check.accepted is True
    reduce = execute_job(
        CampaignJob(
            kind=REDUCE_KERNEL, seed=3, mode=Mode.BASIC.value,
            options=_FAST_OPTIONS, reduce_max_evaluations=200, **common,
        )
    )
    assert reduce.reduction is not None
    summary = reduce.reduction
    assert summary.nodes_after < summary.nodes_before
    assert summary.predicate_kind == "mismatch"
    assert "entry" in summary.reduced_source


def test_clsmith_auto_reduce_attaches_identical_summaries_on_both_backends():
    configs = [clean_config(911), clean_config(912), wrong_code_config()]

    def campaign(parallelism):
        return run_clsmith_campaign(
            configs,
            kernels_per_mode=2,
            modes=(Mode.BASIC,),
            options=_FAST_OPTIONS,
            auto_reduce=True,
            reduce_budget=200,
            parallelism=parallelism,
        )

    serial, parallel = campaign(None), campaign(2)
    assert serial.table_rows() == parallel.table_rows()
    assert len(serial.reductions) == 2  # every kernel is anomalous on 901
    assert len(parallel.reductions) == 2
    for left, right in zip(serial.reductions, parallel.reductions):
        assert left.reduced_source == right.reduced_source
        assert left.signature == right.signature
        assert left.evaluations == right.evaluations
        assert left.pass_attribution == right.pass_attribution
        assert left.node_reduction > 0
        # The attached reproducer preserves the exact failure signature.
        assert ("config901+", "w") in left.signature


def test_emi_auto_reduce_shrinks_anomalous_bases():
    from repro.testing.campaign import generate_emi_bases

    options = GeneratorOptions(
        min_total_threads=4, max_total_threads=12, max_group_size=4,
        max_statements=6, max_expr_depth=2,
    )
    bases = generate_emi_bases(2, seed=0, options=options)

    def campaign(reduce_budget, parallelism=None):
        return run_emi_campaign(
            [emi_parity_config()],
            bases=bases,
            variants_per_base=6,
            optimisation_levels=(False,),
            options=options,
            auto_reduce=True,
            reduce_budget=reduce_budget,
            parallelism=parallelism,
        )

    result = campaign(250)
    anomalous = sum(
        1 for row in result.rows.values()
        if row["w"] or row["bf"] or row["c"] or row["to"]
    )
    assert anomalous >= 1
    assert result.reductions, "anomalous EMI base should have been reduced"
    for summary in result.reductions:
        assert summary.predicate_kind == "emi-family"
        assert summary.nodes_after < summary.nodes_before
        assert any(code == "w" for _, code in summary.signature)

    # One anomalous base on two workers: fewer anomalies than workers, so
    # the parent drives the reduction and ships every candidate as an
    # emi-family reduce-check job.
    serial, parallel = campaign(60), campaign(60, parallelism=2)
    assert len(serial.reductions) == len(parallel.reductions) == 1
    assert serial.rows == parallel.rows
    for left, right in zip(serial.reductions, parallel.reductions):
        assert left.reduced_source == right.reduced_source
        assert left.evaluations == right.evaluations
        assert left.budget_exhausted == right.budget_exhausted
        assert left.pass_attribution == right.pass_attribution
        assert left.predicate_stats == right.predicate_stats
        assert left.nodes_after < left.nodes_before


def test_timeout_and_crash_classes_reduce_to_near_empty_kernels():
    program = generate_kernel(Mode.BASIC, 17, options=_FAST_OPTIONS)
    for factory in (crash_config, timeout_config):
        predicate = MismatchPredicate.from_program(program, factory(), True)
        result = Reducer(ReducerConfig(seed=0)).reduce(program, predicate)
        assert result.node_reduction > 0.9
        assert result.reduced.launch.total_threads == 1


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------


def test_cli_exits_cleanly_when_there_is_nothing_to_reduce(capsys):
    from repro.reduction.cli import main

    # BASIC seed 1 passes on configuration 1: empty signature, exit code 1.
    code = main(["--mode", "BASIC", "--seed", "1", "--configs", "1",
                 "--max-steps", "200000"])
    captured = capsys.readouterr()
    assert code == 1
    assert "nothing to reduce" in captured.err


def test_cli_reduces_a_real_table1_anomaly(capsys):
    from repro.reduction.cli import main

    # BASIC seed 0 hits configuration 1's build-failure model (bf on 1-).
    code = main(["--mode", "BASIC", "--seed", "0", "--configs", "1",
                 "--max-steps", "200000", "--budget", "400", "--show-source"])
    captured = capsys.readouterr()
    assert code == 0
    assert "anomaly signature: config1-:bf" in captured.out
    assert "nodes :" in captured.out
    assert "kernel void entry" in captured.out


@pytest.mark.parametrize("flag, value", [
    pytest.param("--budget", "0", id="0"),
    pytest.param("--budget", "-5", id="-5"),
    pytest.param("--max-steps", "0", id="max-steps=0"),
    pytest.param("--max-steps", "-5", id="max-steps=-5"),
])
def test_cli_rejects_budget_below_one_in_one_line(capsys, flag, value):
    """A budget below 1 used to run one evaluation and report it exhausted,
    and a step budget below 1 reported a fake anomaly and reduced it."""
    from repro.reduction.cli import main

    argv = ["--mode", "BASIC", "--seed", "0", "--configs", "1",
            "--max-steps", "20000", "--budget", "400"]
    argv[argv.index(flag) + 1] = value
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"repro-reduce: {flag}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("configs", ["1,77", "1,x", ""])
def test_cli_rejects_bad_configs_in_one_line(capsys, configs):
    from repro.reduction.cli import main

    code = main(["--mode", "BASIC", "--seed", "0", "--configs", configs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("repro-reduce: --configs")
    assert captured.err.count("\n") == 1
