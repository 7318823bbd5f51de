"""Experiment E5 -- Table 3: EMI testing over the Parboil/Rodinia miniatures.

For each race-free benchmark and a representative subset of configurations,
EMI blocks are injected (with and without substitutions, with and without
optimisations), variants are compared against the benchmark's expected output
(generated with an empty EMI block / the uninstrumented kernel), and the worst
outcome per (benchmark, configuration) is reported using the paper's codes:
``w`` (wrong result), ``bf`` (build failure), ``c`` (crash), ``to``
(timeout), ``ng`` (cannot run), ``ok`` (all variants agree).
"""

from conftest import MAX_STEPS, TABLE3_VARIANTS

from repro.compiler import compile_program
from repro.emi.injector import inject_emi_blocks
from repro.platforms import get_configuration
from repro.runtime.errors import BuildFailure, KernelRuntimeError
from repro.testing.campaign import BenchmarkEmiResult, worst_code
from repro.testing.emi_harness import EmiHarness
from repro.testing.outcomes import table3_code
from repro.workloads import race_free_workloads

#: A representative column subset of Table 3: reliable GPUs/CPUs, the buggy
#: anonymous CPU, an older anonymous GPU driver, the Xeon CPU and Oclgrind.
_CONFIG_IDS = (1, 9, 10, 12, 14, 17, 19)


def _expected_output(program):
    try:
        return compile_program(program).run(max_steps=MAX_STEPS)
    except (BuildFailure, KernelRuntimeError):
        return None


def _run_table3():
    harness = EmiHarness(max_steps=MAX_STEPS)
    grid = BenchmarkEmiResult()
    benchmarks = race_free_workloads()
    for workload in benchmarks:
        program = workload.program()
        expected = _expected_output(program)
        for config_id in _CONFIG_IDS:
            config = get_configuration(config_id)
            codes = []
            for substitutions in (False, True):
                for optimisations in (False, True):
                    for variant_seed in range(TABLE3_VARIANTS):
                        injected = inject_emi_blocks(
                            program, seed=variant_seed * 7 + int(substitutions),
                            n_blocks=1 + variant_seed % 2, substitutions=substitutions,
                        )
                        outcome = harness.compare_expected(
                            injected, expected, config, optimisations
                        )
                        codes.append(table3_code(outcome))
            grid.set_cell(workload.name, f"config{config_id}", worst_code(codes))
    return grid, [w.name for w in benchmarks]


def test_table3_emi_over_benchmarks(benchmark):
    grid, benchmark_names = benchmark.pedantic(_run_table3, iterations=1, rounds=1)
    config_names = [f"config{i}" for i in _CONFIG_IDS]
    print("\nTable 3 (reproduced): worst EMI outcome per benchmark and configuration")
    print(grid.render(benchmark_names, config_names))

    cells = [grid.cell(b, c) for b in benchmark_names for c in config_names]
    # Shape checks mirroring the paper's discussion:
    #   - problems are identified for several configurations;
    #   - the reliable reference-quality configuration (GTX Titan) still shows
    #     defects for some benchmark (the paper reports w/c for most configs);
    #   - not everything fails: several cells remain clean.
    assert any(code in ("w", "bf", "c", "to", "ng") for code in cells)
    assert any(code == "ok" for code in cells)
    defect_configs = {c for b in benchmark_names for c in config_names
                      if grid.cell(b, c) != "ok"}
    assert len(defect_configs) >= 3
