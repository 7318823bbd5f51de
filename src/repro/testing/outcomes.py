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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Sequence

from repro.runtime.device import KernelResult
from repro.runtime.errors import (
    BuildFailure,
    CompileTimeout,
    ExecutionTimeout,
    KernelRuntimeError,
    RuntimeCrash,
    UndefinedBehaviourError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.platforms.config import DeviceConfig


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


#: Table 3 outcome codes ranked from most to least severe:
#: wrong code (w) > build failure (bf) > runtime crash (c) > timeout (to) >
#: cannot-build-or-run (ng) > clean pass (ok), with the "?" placeholder (no
#: outcome) below them all.  Wrong code outranks everything because a
#: silently wrong result is the paper's headline defect class; a build
#: failure dominates every outcome of a test that at least built (crash,
#: timeout, pass) because nothing at all could be observed on the
#: configuration, matching the Table 3 legend.  The one ranking: Table 3
#: cells, EMI worst outcomes, bug buckets and bisection targets all read it.
OUTCOME_SEVERITY = {"w": 5, "bf": 4, "c": 3, "to": 2, "ng": 1, "ok": 0, "?": -1}


def table3_code(outcome: Outcome) -> str:
    """The Table 3 code of one run: the outcome's own code, except that
    undefined behaviour is ``ng`` (the test cannot be run meaningfully)."""
    return "ng" if outcome is Outcome.UNDEFINED_BEHAVIOUR else outcome.value


def worst_code(codes: Sequence[str]) -> str:
    """The paper's 'worst outcome' aggregation for Table 3 (``"?"`` for no
    codes; unknown codes rank with ``"?"``)."""
    return max(codes, key=lambda c: OUTCOME_SEVERITY.get(c, -1)) if codes else "?"


def cell_label(config_name: str, optimisations: bool) -> str:
    """The canonical ``config9+`` / ``config9-`` cell spelling.

    The single definition of the format: reduction failure signatures are
    compared for *exact* equality against labels derived on both sides of
    the campaign/worker boundary, so every producer must spell cells
    identically.
    """
    return f"{config_name}{'+' if optimisations else '-'}"


def config_name(config: Optional["DeviceConfig"]) -> str:
    """The name a cell's configuration goes by in records and labels:
    its own, or ``"reference"`` for the conformant reference compiler
    (``None``).  The single spelling, for the reason :func:`cell_label`
    gives."""
    return config.name if config is not None else "reference"


@dataclass
class TestRecord:
    """One (test, configuration, optimisation level) execution record."""

    config_name: str
    optimisations: bool
    outcome: Outcome
    result: Optional[KernelResult] = None

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


__all__ = ["Outcome", "classify_exception", "OUTCOME_SEVERITY", "table3_code",
           "worst_code", "cell_label", "config_name", "TestRecord", "OutcomeCounts"]
