#!/usr/bin/env python3
"""EMI testing of the miniature Parboil/Rodinia workloads (paper section 7.2).

For each race-free workload, dead-by-construction EMI blocks are injected
(with and without substitutions of free variables by live kernel variables),
and the instrumented kernels are run on a handful of configurations.  Any
deviation from the uninstrumented benchmark's output is a miscompilation of
code that should never have affected the result.

Run with:  python examples/emi_on_benchmarks.py
"""

from repro.compiler import compile_program
from repro.emi.injector import inject_emi_blocks
from repro.platforms import get_configuration
from repro.testing.campaign import BenchmarkEmiResult, worst_code
from repro.testing.emi_harness import EmiHarness
from repro.testing.outcomes import table3_code
from repro.workloads import race_free_workloads

CONFIG_IDS = (1, 12, 14, 17, 19)
VARIANTS = 3


def main() -> None:
    harness = EmiHarness()
    grid = BenchmarkEmiResult()
    names = []
    for workload in race_free_workloads():
        names.append(workload.name)
        program = workload.program()
        expected = compile_program(program).run()
        for config_id in CONFIG_IDS:
            config = get_configuration(config_id)
            codes = []
            for substitutions in (False, True):
                for seed in range(VARIANTS):
                    injected = inject_emi_blocks(program, seed=seed, n_blocks=1,
                                                 substitutions=substitutions)
                    for optimisations in (False, True):
                        outcome = harness.compare_expected(injected, expected, config,
                                                           optimisations)
                        codes.append(table3_code(outcome))
            grid.set_cell(workload.name, f"config{config_id}", worst_code(codes))

    print("Worst EMI outcome per (benchmark, configuration) -- Table 3 style")
    print(grid.render(names, [f"config{i}" for i in CONFIG_IDS]))
    print("\nlegend: w = wrong result, bf = build failure, c = crash, "
          "to = timeout, ng = cannot run, ok = all variants agree")


if __name__ == "__main__":
    main()
