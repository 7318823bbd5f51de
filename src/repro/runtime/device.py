"""The simulated OpenCL device: NDRange launch and result collection.

The device plays the role of the hardware platforms in the paper's Table 1.
It allocates the host-visible buffers described by the program's
:class:`~repro.kernel_lang.ast.BufferSpec` list, executes every work-group
(sequentially, as OpenCL permits given the absence of inter-group
synchronisation in OpenCL 1.x), and returns the final contents of the output
buffers.  The comma-separated rendering of the ``out`` buffer mirrors how
CLsmith's host program prints results (paper section 4.1), and is what the
differential-testing harness compares across configurations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.kernel_lang import ast, types as ty
from repro.observability import SPAN_BIND, SPAN_LOWER, SPAN_RUN, current_collector
from repro.runtime import memory
from repro.runtime.engine import (
    DEFAULT_ENGINE,
    ExecutionEngine,
    PreparedLaunch,
    get_engine,
)
from repro.runtime.errors import ExecutionTimeout, KernelRuntimeError
from repro.runtime.interpreter import ThreadContext
from repro.runtime.racecheck import RaceDetector
from repro.runtime.scheduler import ScheduleOrder, WorkGroupScheduler, make_slot


@dataclass
class KernelResult:
    """The observable outcome of a successful kernel execution."""

    outputs: Dict[str, List[int]]
    steps: int
    race_reports: List[str] = field(default_factory=list)

    def result_string(self, buffer: str = "out") -> str:
        """Comma-separated output values, as CLsmith's host program prints."""
        values = self.outputs.get(buffer, [])
        return ",".join(str(v) for v in values)

    def result_hash(self) -> str:
        """A stable digest over all output buffers (order-sensitive)."""
        h = hashlib.sha256()
        for name in sorted(self.outputs):
            h.update(name.encode())
            h.update(b":")
            h.update(",".join(str(v) for v in self.outputs[name]).encode())
            h.update(b";")
        return h.hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelResult):
            return NotImplemented
        return self.outputs == other.outputs

    # Equality is output-only, so results must not be used as dict/set keys;
    # fail loudly instead of silently inheriting an id()-based hash.
    __hash__ = None


class Device:
    """A simulated OpenCL device.

    Parameters
    ----------
    schedule_order:
        Interleaving policy for threads within a work-group.
    schedule_seed:
        Seed for the ``RANDOM`` policy.
    check_races:
        Enable the Oclgrind-style data-race detector.  When ``throw_on_race``
        is True a detected race aborts execution with
        :class:`~repro.runtime.errors.DataRaceError`; otherwise races are
        collected in the result.
    max_steps:
        Interpretation-step budget standing in for the paper's 60 s timeout.
    comma_yields_zero:
        Propagated to the execution engine to model the Oclgrind comma defect.
    engine:
        Execution engine (registry name or instance; see
        :mod:`repro.runtime.engine`): ``"reference"`` for the tree-walking
        interpreter, ``"compiled"`` for the compile-to-closures fast path.
        Both produce byte-identical results.
    """

    def __init__(
        self,
        schedule_order: ScheduleOrder = ScheduleOrder.ROUND_ROBIN,
        schedule_seed: int = 0,
        check_races: bool = False,
        throw_on_race: bool = True,
        max_steps: int = 2_000_000,
        comma_yields_zero: bool = False,
        engine: Union[str, ExecutionEngine] = DEFAULT_ENGINE,
    ) -> None:
        self.schedule_order = schedule_order
        self.schedule_seed = schedule_seed
        self.check_races = check_races
        self.throw_on_race = throw_on_race
        self.max_steps = max_steps
        self.comma_yields_zero = comma_yields_zero
        self.engine = engine

    # ------------------------------------------------------------------

    def run(self, program: ast.Program) -> KernelResult:
        """Execute ``program`` over its full NDRange and collect outputs.

        Every call lowers ``program`` afresh with this device's engine,
        ``comma_yields_zero``, ``max_steps`` and ``schedule_order`` and binds
        that lowering once, to this launch's buffers (ENGINE.md, "The
        lower/bind split").  Local buffers are built once per launch, and
        each work-group starts from a copy.

        Telemetry: when an ambient collector is installed (see
        :mod:`repro.observability`) each execution records a ``run`` span
        plus nested ``lower``/``bind`` spans; with no collector the only
        cost is one module-global read.
        """
        collector = current_collector()
        if collector is None:
            return self._run_impl(program, None)
        engine_name = (
            self.engine if isinstance(self.engine, str)
            else getattr(self.engine, "name", "engine")
        )
        with collector.span(SPAN_RUN, name=engine_name):
            return self._run_impl(program, collector)

    def _run_impl(self, program: ast.Program, collector) -> KernelResult:
        launch = program.launch
        global_memory = memory.GlobalMemory()
        for spec in program.buffers:
            if spec.address_space in (ty.GLOBAL, ty.CONSTANT):
                global_memory.allocate(
                    spec.name,
                    spec.element_type,
                    spec.size,
                    spec.initial_contents(),
                    spec.address_space,
                )
        local_buffers = memory.local_buffers(program.buffers)
        detector = (
            RaceDetector(throw_on_race=self.throw_on_race) if self.check_races else None
        )
        if collector is None:
            lowered = get_engine(self.engine).lower(
                program,
                comma_yields_zero=self.comma_yields_zero,
                max_steps=self.max_steps,
                schedule_order=self.schedule_order,
            )
        else:
            with collector.span(SPAN_LOWER):
                lowered = get_engine(self.engine).lower(
                    program,
                    comma_yields_zero=self.comma_yields_zero,
                    max_steps=self.max_steps,
                    schedule_order=self.schedule_order,
                )
        if collector is None:
            prepared = lowered.bind(global_memory)
        else:
            with collector.span(SPAN_BIND):
                prepared = lowered.bind(global_memory)

        ngx, ngy, ngz = launch.num_groups
        for gz in range(ngz):
            for gy in range(ngy):
                for gx in range(ngx):
                    self._run_group(
                        program,
                        (gx, gy, gz),
                        prepared,
                        detector,
                        local_buffers,
                    )

        outputs = {
            spec.name: global_memory.contents(spec.name)
            for spec in program.buffers
            if spec.is_output and spec.address_space in (ty.GLOBAL, ty.CONSTANT)
        }
        race_reports = [r.describe() for r in detector.reports] if detector else []
        return KernelResult(
            outputs=outputs, steps=prepared.steps, race_reports=race_reports
        )

    # ------------------------------------------------------------------

    def _run_group(
        self,
        program: ast.Program,
        group_id: Tuple[int, int, int],
        prepared: PreparedLaunch,
        detector: Optional[RaceDetector],
        local_buffers: List[memory.LocalBuffer],
    ) -> None:
        launch = program.launch
        lx, ly, lz = launch.local_size
        ngx, ngy, _ = launch.num_groups
        gx, gy, gz = group_id
        group_linear = (gz * ngy + gy) * ngx + gx

        local_memory = memory.LocalMemory(group_linear, local_buffers)
        scheduler = WorkGroupScheduler(
            order=self.schedule_order,
            seed=self.schedule_seed + group_linear,
        )
        group = prepared.bind_group(local_memory)

        slots = []
        for lz_i in range(lz):
            for ly_i in range(ly):
                for lx_i in range(lx):
                    context = ThreadContext(
                        global_id=(gx * lx + lx_i, gy * ly + ly_i, gz * lz + lz_i),
                        local_id=(lx_i, ly_i, lz_i),
                        group_id=group_id,
                        global_size=launch.global_size,
                        local_size=launch.local_size,
                    )
                    hook = self._make_access_hook(detector, scheduler, context)
                    slots.append(make_slot(context, group.thread(context, hook)))
        scheduler.run(slots)

    def _make_access_hook(
        self,
        detector: Optional[RaceDetector],
        scheduler: WorkGroupScheduler,
        context: ThreadContext,
    ) -> Optional[memory.AccessHook]:
        if detector is None:
            return None
        group_id = context.group_linear_id
        thread_id = context.global_linear_id

        def hook(cell: memory.Cell, path, is_write: bool, is_atomic: bool) -> None:
            detector.record(
                cell,
                path,
                is_write,
                is_atomic,
                group=group_id,
                thread=thread_id,
                epoch=scheduler.barrier_epochs,
            )

        return hook


def run_program(
    program: ast.Program,
    schedule_order: ScheduleOrder = ScheduleOrder.ROUND_ROBIN,
    schedule_seed: int = 0,
    check_races: bool = False,
    throw_on_race: bool = True,
    max_steps: int = 2_000_000,
    comma_yields_zero: bool = False,
    engine: Union[str, ExecutionEngine] = DEFAULT_ENGINE,
) -> KernelResult:
    """Convenience wrapper: run ``program`` on a default device."""
    device = Device(
        schedule_order=schedule_order,
        schedule_seed=schedule_seed,
        check_races=check_races,
        throw_on_race=throw_on_race,
        max_steps=max_steps,
        comma_yields_zero=comma_yields_zero,
        engine=engine,
    )
    return device.run(program)


__all__ = ["Device", "KernelResult", "run_program"]
