"""Random differential testing harness (paper sections 3.2 and 7.3).

One test program is compiled and executed on every requested
(configuration, optimisation level) pair.  Runs that terminate with a value
vote; a *majority of at least three* defines the reference result, and any
terminating run that disagrees with it is classified as a wrong-code result
-- exactly the rule of section 7.3.

Because most configurations compile most programs identically (the injected
bug models fire only on matching programs), execution results are cached by
the fingerprint of the *compiled* program plus its execution flags; this
keeps campaign-scale runs tractable on the pure-Python interpreter without
changing any outcome.  The cache is a bounded LRU
(:class:`repro.orchestration.cache.ResultCache`) and can be shared between
harnesses — the campaign engine hands every harness in a worker the same
cache, so a curated kernel's sweep reuses its curation run and reductions
and bisections reuse the campaign's executions.

Each cell takes the one cell path of
:class:`~repro.testing.harness_base.ExecutionHarnessBase` (``compile_cell``,
``execute_cell``, or both as ``run_cell``), :meth:`~DifferentialHarness.
record` makes its outcome a :class:`TestRecord`, and
:meth:`~DifferentialHarness.vote` turns the records into a
:class:`DifferentialResult`.  :meth:`~DifferentialHarness.run` is one
``run_cell`` per cell, then the vote; the reduction predicates take the
same steps one cell at a time and stop at the first cell that rules a
candidate out (:mod:`repro.reduction.interestingness`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from repro.kernel_lang import ast
from repro.platforms.config import DeviceConfig
from repro.runtime.device import KernelResult
from repro.runtime.engine import DEFAULT_ENGINE
from repro.testing.harness_base import ExecutionHarnessBase
from repro.testing.outcomes import Outcome, TestRecord, config_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.orchestration.cache import ResultCache

#: Minimum size of the majority required to call a disagreeing result wrong.
MAJORITY_THRESHOLD = 3


@dataclass
class DifferentialResult:
    """Outcome of differential-testing one program."""

    records: List[TestRecord]
    majority_value: Optional[str] = None
    majority_size: int = 0

    def record_for(self, config_name: str, optimisations: bool) -> TestRecord:
        for record in self.records:
            if record.config_name == config_name and record.optimisations == optimisations:
                return record
        raise KeyError(f"no record for {config_name} opt={optimisations}")

    @property
    def wrong_code_records(self) -> List[TestRecord]:
        return [r for r in self.records if r.outcome is Outcome.WRONG_CODE]

    @property
    def has_mismatch(self) -> bool:
        return bool(self.wrong_code_records)


class DifferentialHarness(ExecutionHarnessBase):
    """Runs programs across configurations and applies majority voting."""

    def __init__(
        self,
        configs: Sequence[Optional[DeviceConfig]],
        optimisation_levels: Sequence[bool] = (False, True),
        max_steps: int = 2_000_000,
        cache: Optional["ResultCache"] = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        super().__init__(max_steps=max_steps, cache=cache, engine=engine)
        self.configs = list(configs)
        self.optimisation_levels = list(optimisation_levels)

    # ------------------------------------------------------------------

    def cells(self) -> List[Tuple[Optional[DeviceConfig], bool]]:
        """Every (configuration, optimisation level) cell, in harness order."""
        return [
            (config, optimisations)
            for config in self.configs
            for optimisations in self.optimisation_levels
        ]

    @staticmethod
    def record(
        config: Optional[DeviceConfig],
        optimisations: bool,
        outcome: Outcome,
        result: Optional[KernelResult],
    ) -> TestRecord:
        """One cell's record.  A terminating run is a ``PASS`` record until
        :meth:`vote` says otherwise."""
        return TestRecord(config_name(config), optimisations, outcome, result=result)

    def run(self, program: ast.Program) -> DifferentialResult:
        """Compile/execute ``program`` everywhere and vote on the results."""
        records = []
        for config, optimisations in self.cells():
            outcome, result = self.run_cell(program, config, optimisations)
            records.append(self.record(config, optimisations, outcome, result))
        return self.vote(records)

    def vote(self, records: List[TestRecord]) -> DifferentialResult:
        """Majority-vote over the terminating (``PASS``) records: with a
        majority of at least three, every terminating record whose value
        disagrees with it becomes ``WRONG_CODE`` (marked in place)."""
        values = [
            (record, record.result.result_hash())
            for record in records
            if record.outcome is Outcome.PASS
        ]
        majority_value, majority_size = self._majority(v for _, v in values)
        if majority_value is not None and majority_size >= MAJORITY_THRESHOLD:
            for record, value in values:
                if value != majority_value:
                    record.outcome = Outcome.WRONG_CODE
        return DifferentialResult(records, majority_value, majority_size)

    @staticmethod
    def _majority(values: Iterable[str]) -> Tuple[Optional[str], int]:
        counter = Counter(values)
        if not counter:
            return None, 0
        # ``Counter.most_common`` breaks ties by insertion order, which would
        # let the ordering of ``configs`` decide which value becomes the
        # majority reference.  Break ties by (count desc, value asc) so the
        # verdicts are independent of configuration order.
        value, count = min(counter.items(), key=lambda item: (-item[1], item[0]))
        return value, count


__all__ = [
    "MAJORITY_THRESHOLD",
    "DifferentialResult",
    "DifferentialHarness",
]
