"""EMI (metamorphic) testing harness (paper sections 5, 7.2 and 7.4).

Unlike differential testing, EMI testing evaluates a *single* configuration
at a *single* optimisation level: a base program and its pruned variants must
all produce the same result, so any two variants that terminate with
different values expose a miscompilation.  The harness mirrors the paper's
Table 5 bookkeeping:

* a base is a **bad base** for a configuration if no variant terminates with
  a computed value;
* a base **induces wrong code** if two variants terminate with different
  values;
* a base **induces** a build failure / crash / timeout if at least one
  variant exhibits it;
* a base is **stable** if all variants terminate with the same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.compiler.driver import CompiledKernel
from repro.kernel_lang import ast
from repro.platforms.config import DeviceConfig
from repro.runtime.device import KernelResult
from repro.testing.harness_base import ExecutionHarnessBase
from repro.testing.outcomes import Outcome, config_name, worst_code


@dataclass
class EmiBaseResult:
    """Per-(base, configuration, optimisation level) summary."""

    config_name: str
    optimisations: bool
    variant_outcomes: List[Outcome]
    distinct_values: int
    bad_base: bool
    wrong_code: bool
    induced_build_failure: bool
    induced_crash: bool
    induced_timeout: bool
    stable: bool

    @property
    def worst_outcome(self) -> str:
        """The Table 3 style worst-case code for this base: the most severe
        of its flags under :data:`~repro.testing.outcomes.OUTCOME_SEVERITY`
        (``ng`` for a bad base, ``ok`` when no flag is set)."""
        flags = (
            ("w", self.wrong_code),
            ("bf", self.induced_build_failure),
            ("c", self.induced_crash),
            ("to", self.induced_timeout),
            ("ng", self.bad_base),
        )
        return worst_code(["ok"] + [code for code, flag in flags if flag])


class EmiHarness(ExecutionHarnessBase):
    """Runs EMI variant families against one configuration at a time."""

    def run_family(
        self,
        variants: Sequence[ast.Program],
        config: Optional[DeviceConfig],
        optimisations: bool,
        builds: Optional[Sequence[Union[CompiledKernel, Outcome]]] = None,
    ) -> EmiBaseResult:
        """Run all ``variants`` (typically including the base itself) on one
        configuration and summarise the outcomes.  ``builds`` are the
        variants' :meth:`compile_cell` results, when the caller already
        compiled them."""
        if builds is None:
            builds = [
                self.compile_cell(variant, config, optimisations)
                for variant in variants
            ]
        outcomes: List[Outcome] = []
        values: List[str] = []
        for built in builds:
            outcome, result = self.execute_cell(built)
            outcomes.append(outcome)
            if result is not None:
                values.append(result.result_hash())

        distinct = len(set(values))
        bad_base = len(values) == 0
        wrong_code = distinct > 1
        return EmiBaseResult(
            config_name=config_name(config),
            optimisations=optimisations,
            variant_outcomes=outcomes,
            distinct_values=distinct,
            bad_base=bad_base,
            wrong_code=wrong_code,
            induced_build_failure=Outcome.BUILD_FAILURE in outcomes,
            induced_crash=Outcome.RUNTIME_CRASH in outcomes,
            induced_timeout=Outcome.TIMEOUT in outcomes,
            stable=(not bad_base) and distinct == 1 and all(
                o is Outcome.PASS for o in outcomes
            ),
        )

    def compare_expected(
        self,
        program: ast.Program,
        expected: KernelResult,
        config: Optional[DeviceConfig],
        optimisations: bool,
    ) -> Outcome:
        """Table 3 style check: run one variant and compare against the
        benchmark's expected output (generated with an empty EMI block)."""
        outcome, result = self.run_cell(program, config, optimisations)
        if outcome is Outcome.PASS and result is not None:
            if result.outputs != expected.outputs:
                return Outcome.WRONG_CODE
        return outcome


__all__ = ["EmiHarness", "EmiBaseResult"]
