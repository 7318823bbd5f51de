"""Outcome taxonomy for fuzzing campaigns.

The paper classifies each (test, configuration, optimisation level) run into
wrong-code (w), build failure (bf), runtime crash (c), timeout (to) or a
successful, agreeing run (a tick in Table 4).  The additional ``UB`` outcome
captures tests the simulator rejects as having undefined behaviour -- such
tests are discarded, never counted as miscompilations (section 3.2's
requirement that test programs produce deterministic output).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.runtime.device import KernelResult
from repro.runtime.errors import (
    BuildFailure,
    CompileTimeout,
    ExecutionTimeout,
    KernelRuntimeError,
    RuntimeCrash,
    UndefinedBehaviourError,
)


class Outcome(enum.Enum):
    """Per-run outcome classes (Table 4 legend)."""

    PASS = "ok"
    WRONG_CODE = "w"
    BUILD_FAILURE = "bf"
    RUNTIME_CRASH = "c"
    TIMEOUT = "to"
    UNDEFINED_BEHAVIOUR = "ub"

    @property
    def is_failure(self) -> bool:
        return self in (Outcome.WRONG_CODE, Outcome.BUILD_FAILURE, Outcome.RUNTIME_CRASH,
                        Outcome.TIMEOUT)


def classify_exception(error: BaseException) -> Outcome:
    """Map an exception raised during compile/run to an outcome class."""
    if isinstance(error, CompileTimeout):
        # The paper counts compile hangs as timeouts (section 7.1 uses a
        # 60 s budget covering compilation and execution together).
        return Outcome.TIMEOUT
    if isinstance(error, BuildFailure):
        return Outcome.BUILD_FAILURE
    if isinstance(error, ExecutionTimeout):
        return Outcome.TIMEOUT
    if isinstance(error, UndefinedBehaviourError):
        return Outcome.UNDEFINED_BEHAVIOUR
    if isinstance(error, RuntimeCrash):
        return Outcome.RUNTIME_CRASH
    if isinstance(error, KernelRuntimeError):
        return Outcome.RUNTIME_CRASH
    raise error


def cell_label(config_name: str, optimisations: bool) -> str:
    """The canonical ``config9+`` / ``config9-`` cell spelling.

    The single definition of the format: reduction failure signatures are
    compared for *exact* equality against labels derived on both sides of
    the campaign/worker boundary, so every producer must spell cells
    identically.
    """
    return f"{config_name}{'+' if optimisations else '-'}"


@dataclass
class TestRecord:
    """One (test, configuration, optimisation level) execution record."""

    config_name: str
    optimisations: bool
    outcome: Outcome
    result: Optional[KernelResult] = None
    detail: str = ""

    @property
    def label(self) -> str:
        return cell_label(self.config_name, self.optimisations)


@dataclass
class OutcomeCounts:
    """Aggregated counts in the shape of one Table 4 cell group."""

    wrong_code: int = 0
    build_failure: int = 0
    runtime_crash: int = 0
    timeout: int = 0
    passed: int = 0
    undefined: int = 0

    def add(self, outcome: Outcome) -> None:
        if outcome is Outcome.WRONG_CODE:
            self.wrong_code += 1
        elif outcome is Outcome.BUILD_FAILURE:
            self.build_failure += 1
        elif outcome is Outcome.RUNTIME_CRASH:
            self.runtime_crash += 1
        elif outcome is Outcome.TIMEOUT:
            self.timeout += 1
        elif outcome is Outcome.UNDEFINED_BEHAVIOUR:
            self.undefined += 1
        else:
            self.passed += 1

    @property
    def total(self) -> int:
        return (self.wrong_code + self.build_failure + self.runtime_crash + self.timeout
                + self.passed + self.undefined)

    @property
    def computed_results(self) -> int:
        """Runs that terminated with a value (w + pass), the denominator of w%."""
        return self.wrong_code + self.passed

    @property
    def wrong_code_percentage(self) -> float:
        """The paper's w% metric: wrong results over computed results."""
        if self.computed_results == 0:
            return 0.0
        return 100.0 * self.wrong_code / self.computed_results

    @property
    def failure_fraction(self) -> float:
        """Fraction of all runs that are bf/c/w (the reliability metric)."""
        if self.total == 0:
            return 0.0
        return (self.wrong_code + self.build_failure + self.runtime_crash) / self.total

    def as_dict(self) -> Dict[str, int]:
        return {
            "w": self.wrong_code,
            "bf": self.build_failure,
            "c": self.runtime_crash,
            "to": self.timeout,
            "ok": self.passed,
            "ub": self.undefined,
        }

    def merge(self, other: "OutcomeCounts") -> "OutcomeCounts":
        return OutcomeCounts(
            self.wrong_code + other.wrong_code,
            self.build_failure + other.build_failure,
            self.runtime_crash + other.runtime_crash,
            self.timeout + other.timeout,
            self.passed + other.passed,
            self.undefined + other.undefined,
        )


__all__ = ["Outcome", "classify_exception", "cell_label", "TestRecord",
           "OutcomeCounts"]
