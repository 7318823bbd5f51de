"""End-to-end integration tests exercising the whole stack the way the
benchmark harnesses and examples do, at a very small scale."""

from repro.emi import generate_variants
from repro.generator import Mode, generate_kernel
from repro.generator.options import GeneratorOptions
from repro.platforms import all_configurations, configurations_above_threshold, get_configuration
from repro.testing.campaign import (
    BenchmarkEmiResult,
    generate_emi_bases,
    run_clsmith_campaign,
    run_emi_campaign,
    worst_code,
)
from repro.testing.differential import DifferentialHarness
from repro.testing.emi_harness import EmiHarness
from repro.testing.outcomes import Outcome, table3_code
from repro.testing.reliability import ReliabilityClassifier
from repro.emi.injector import inject_emi_blocks
from repro.compiler import compile_program
from repro.workloads import race_free_workloads

_FAST = GeneratorOptions(min_total_threads=4, max_total_threads=12, max_group_size=4,
                         max_statements=5)


def test_mini_differential_campaign_finds_defects_in_unreliable_configs():
    """A small CLsmith campaign must show more failures for a below-threshold
    configuration (Altera FPGA) than for a reliable one (GTX Titan)."""
    configs = [get_configuration(1), get_configuration(3), get_configuration(21)]
    result = run_clsmith_campaign(configs, kernels_per_mode=3, modes=(Mode.BASIC,),
                                  options=_FAST, max_steps=300_000)
    reliable = result.cell(Mode.BASIC, "config1", True)
    unreliable = result.cell(Mode.BASIC, "config21", True)
    assert unreliable.failure_fraction >= reliable.failure_fraction


def test_mini_reliability_run_is_consistent_with_expectations():
    configs = [get_configuration(i) for i in (1, 21)]
    report = ReliabilityClassifier(configs, kernels_per_mode=2, modes=(Mode.BASIC,),
                                   options=_FAST, max_steps=300_000).classify()
    classification = report.classification()
    assert classification[1] is True and classification[21] is False


def test_mini_emi_campaign_runs_for_above_threshold_configs():
    configs = [get_configuration(1)]
    result = run_emi_campaign(configs, n_bases=1, variants_per_base=4,
                              optimisation_levels=(True,), options=_FAST,
                              max_steps=300_000)
    assert result.n_bases == 1
    row = result.row("config1", True)
    assert sum(row.values()) >= 1


def test_emi_over_a_workload_matches_table3_cell_semantics():
    workload = race_free_workloads()[0]
    program = workload.program()
    expected = compile_program(program).run()
    harness = EmiHarness(max_steps=500_000)
    codes = []
    for substitutions in (False, True):
        injected = inject_emi_blocks(program, seed=1, n_blocks=1, substitutions=substitutions)
        outcome = harness.compare_expected(injected, expected, None, True)
        codes.append(table3_code(outcome))
    grid = BenchmarkEmiResult()
    grid.set_cell(workload.name, "reference", worst_code(codes))
    assert grid.cell(workload.name, "reference") == "ok"


def test_full_stack_differential_over_every_configuration_on_one_kernel():
    kernel = generate_kernel(Mode.ALL, seed=123, options=_FAST)
    harness = DifferentialHarness(list(all_configurations()), max_steps=400_000)
    result = harness.run(kernel)
    assert len(result.records) == 2 * 21
    outcomes = {record.outcome for record in result.records}
    assert Outcome.PASS in outcomes
    # The reliable configurations must dominate the majority vote.
    assert result.majority_size >= len(configurations_above_threshold())
