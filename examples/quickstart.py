#!/usr/bin/env python3
"""Quickstart: generate a random OpenCL-style kernel, compile it for a few of
the paper's configurations, run it on the simulated device and compare the
results (random differential testing in a dozen lines).

Run with:  python examples/quickstart.py
Pick an execution engine with:  python examples/quickstart.py --engine reference
(``compiled`` is the default: the closure-lowering fast path produces
byte-identical results to the reference interpreter, only faster; see
ENGINE.md.)
"""

import argparse

from repro.compiler import compile_program
from repro.generator import Mode, generate_kernel
from repro.kernel_lang.printer import print_program
from repro.platforms import get_configuration
from repro.runtime.engine import available_engines
from repro.testing.differential import DifferentialHarness
from repro.testing.outcomes import Outcome


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", choices=available_engines(), default="compiled",
                        help="execution engine for every kernel run: "
                             "compiled (fast path, the default) or reference "
                             "(tree-walking oracle)")
    args = parser.parse_args()

    # 1. Generate a deterministic, communicating kernel (BARRIER mode).
    program = generate_kernel(Mode.BARRIER, seed=2024)
    print("=== Generated kernel (OpenCL C view) ===")
    print(print_program(program))

    # 2. Compile and run it with the conformant reference compiler, with and
    #    without optimisations -- the results must agree.
    unoptimised = compile_program(program, optimisations=False).run(engine=args.engine)
    optimised = compile_program(program, optimisations=True).run(engine=args.engine)
    print(f"=== Reference execution (engine: {args.engine}) ===")
    print("out (opt-):", unoptimised.result_string()[:70], "...")
    print("results agree across optimisation levels:",
          unoptimised.outputs == optimised.outputs)

    # 3. Differential-test the kernel across a few of the paper's
    #    configurations (Table 1) and report any mismatch.
    configs = [get_configuration(i) for i in (1, 4, 9, 12, 19)]
    harness = DifferentialHarness(configs, engine=args.engine)
    verdict = harness.run(program)
    print("=== Differential testing across configurations ===")
    for record in verdict.records:
        print(f"  {record.label:<12} {record.outcome.value}")
    wrong = [r.label for r in verdict.records if r.outcome is Outcome.WRONG_CODE]
    if wrong:
        print("wrong-code results detected on:", ", ".join(wrong))
    else:
        print("all configurations agree on this kernel")


if __name__ == "__main__":
    main()
