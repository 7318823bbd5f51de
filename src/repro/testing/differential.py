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

A cell is compiled (:meth:`DifferentialHarness.compile_cell`) and executed
(:meth:`~DifferentialHarness.execute_cell`) on its own, and
:meth:`~DifferentialHarness.vote` turns the cells' records into a
:class:`DifferentialResult`.  :meth:`~DifferentialHarness.run` is those
steps over every cell; the reduction predicates take the same steps one
cell at a time and stop at the first cell that rules a candidate out
(:mod:`repro.reduction.interestingness`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple, Union

from repro.compiler.driver import CompiledKernel, CompilerDriver
from repro.kernel_lang import ast
from repro.platforms.config import DeviceConfig
from repro.runtime.engine import DEFAULT_ENGINE
from repro.runtime.errors import KernelRuntimeError, BuildFailure
from repro.testing.harness_base import ExecutionHarnessBase
from repro.testing.outcomes import Outcome, TestRecord, classify_exception

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

    def compile_cell(
        self,
        program: ast.Program,
        config: Optional[DeviceConfig],
        optimisations: bool,
    ) -> Union[CompiledKernel, TestRecord]:
        """The first half of a cell: the compiled kernel, or -- when the
        build fails -- the cell's final record (nothing runs after it)."""
        try:
            return CompilerDriver(config).compile(program, optimisations=optimisations)
        except (BuildFailure, KernelRuntimeError) as error:
            return _failure_record(config, optimisations, error)

    def execute_cell(
        self,
        compiled: CompiledKernel,
        config: Optional[DeviceConfig],
        optimisations: bool,
    ) -> TestRecord:
        """The second half of a cell: run a compiled kernel.  A terminating
        run is a ``PASS`` record until :meth:`vote` says otherwise."""
        try:
            result = self._execute(compiled)
        except (BuildFailure, KernelRuntimeError) as error:
            return _failure_record(config, optimisations, error)
        return TestRecord(_config_name(config), optimisations, Outcome.PASS, result=result)

    def run(self, program: ast.Program) -> DifferentialResult:
        """Compile/execute ``program`` everywhere and vote on the results."""
        records = []
        for config, optimisations in self.cells():
            built = self.compile_cell(program, config, optimisations)
            if not isinstance(built, TestRecord):
                built = self.execute_cell(built, config, optimisations)
            records.append(built)
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


def _config_name(config: Optional[DeviceConfig]) -> str:
    return config.name if config is not None else "reference"


def _failure_record(
    config: Optional[DeviceConfig], optimisations: bool, error: Exception
) -> TestRecord:
    return TestRecord(
        _config_name(config), optimisations, classify_exception(error),
        detail=str(error),
    )


__all__ = [
    "MAJORITY_THRESHOLD",
    "DifferentialResult",
    "DifferentialHarness",
]
