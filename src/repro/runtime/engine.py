"""Pluggable execution engines for the simulated device.

The paper differentially tests many OpenCL implementations against each
other; this repository applies the same methodology to its *own* runtime.
An :class:`ExecutionEngine` turns a compiled program into per-work-item
coroutines; the :class:`~repro.runtime.device.Device` drives those coroutines
through the shared :class:`~repro.runtime.scheduler.WorkGroupScheduler`, race
detector and undefined-behaviour model, which are engine-independent.  Two
engines are registered:

``"reference"``
    The tree-walking coroutine interpreter
    (:class:`repro.runtime.interpreter.Interpreter`) -- simple, obviously
    correct, and the semantic baseline every other engine is differentially
    tested against.

``"compiled"``
    The compile-to-closures fast path (:mod:`repro.runtime.compiled`): the
    kernel AST is lowered once into nested Python closures with pre-resolved
    builtins and slot-resolved variables.

The engine contract (see ENGINE.md) is strict: for any program, every engine
must produce the same :class:`~repro.runtime.device.KernelResult` (outputs,
final step count, race reports), raise the same error classes for timeout /
UB / crash outcomes, and make the same scheduling decisions.  The reference
engine yields a :class:`~repro.runtime.interpreter.SchedulerEvent` at every
barrier and atomic; another engine may leave out one the launch's schedule
order cannot observe (an atomic under a fixed order, a barrier in a group
of one work-item), where the scheduler would resume the same work-item.  An
engine may execute fewer work-items than the NDRange -- the compiled
engine's uniform replay runs a straight-line kernel's shared part once per
tuple of group-uniform ids -- provided the ``KernelResult`` is the same.

Lifecycle -- preparation is split into a buffer-independent and a
per-launch step, and :meth:`~repro.runtime.device.Device.run` takes both for
every launch:

1. :meth:`ExecutionEngine.lower` turns the program into a
   :class:`PreparedProgram` (the device's ``comma_yields_zero`` setting,
   step budget and schedule order are lowering inputs, baked into the
   lowered artefact);
2. :meth:`PreparedProgram.bind` binds that lowering once, to the launch's
   global buffers, and returns a :class:`PreparedLaunch`, which also
   carries the launch's step counter;
3. :meth:`PreparedLaunch.bind_group` once per work-group (binding that
   group's local memory);
4. :meth:`PreparedGroup.thread` once per work-item (producing the coroutine
   the scheduler drives).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Generator, List, Optional, Union

from repro.kernel_lang import ast
from repro.runtime import memory
from repro.runtime.interpreter import (
    ExecutionLimits,
    Interpreter,
    SchedulerEvent,
    ThreadContext,
)
from repro.runtime.scheduler import ScheduleOrder

#: Engine used when callers do not ask for one.  The reference walker stays
#: the default so that every existing path keeps its exact baseline
#: behaviour; fast-path consumers opt in with ``engine="compiled"``.
DEFAULT_ENGINE = "reference"

#: Step budget used when callers do not pass one (mirrors ``Device``'s
#: default; the budget stands in for the paper's 60 s timeout).
DEFAULT_MAX_STEPS = 2_000_000

ThreadCoroutine = Generator[SchedulerEvent, None, None]


class PreparedGroup(ABC):
    """A launch bound to one work-group's local memory."""

    @abstractmethod
    def thread(
        self,
        context: ThreadContext,
        access_hook: Optional[memory.AccessHook] = None,
    ) -> ThreadCoroutine:
        """The coroutine executing the kernel for one work-item."""


class PreparedLaunch(ABC):
    """A lowered program bound to one launch's global memory."""

    @abstractmethod
    def bind_group(self, local_memory: memory.LocalMemory) -> PreparedGroup:
        """Bind one work-group's local buffers."""

    @property
    @abstractmethod
    def steps(self) -> int:
        """Interpretation steps consumed by this launch so far.

        The device reads this after the launch completes to populate
        :attr:`~repro.runtime.device.KernelResult.steps`; the engine contract
        requires the value to be byte-identical across engines.
        """


class PreparedProgram(ABC):
    """A program lowered by one engine, independent of any launch's buffers.

    The device lowers a program for one launch and binds that lowering
    once; :meth:`bind` resets the lowering's internal step counter, so a
    lowering carries one launch at a time.
    """

    @abstractmethod
    def bind(self, global_memory: memory.GlobalMemory) -> PreparedLaunch:
        """Bind this lowering to one launch's global/constant buffers."""


class ExecutionEngine(ABC):
    """Turns programs into schedulable work-item coroutines."""

    #: Registry name; also recorded in execution-result cache keys.
    name: str = "?"

    @abstractmethod
    def lower(
        self,
        program: ast.Program,
        comma_yields_zero: bool = False,
        max_steps: int = DEFAULT_MAX_STEPS,
        schedule_order: Optional[ScheduleOrder] = None,
    ) -> PreparedProgram:
        """Lower ``program`` once, independent of any launch.

        ``comma_yields_zero``, ``max_steps`` and ``schedule_order`` (None:
        any order) are lowering inputs: engines specialise comma-operator
        code and tick checks on the first two, and may leave out a
        scheduling point the order cannot observe.
        """


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_ENGINE_FACTORIES: Dict[str, Callable[[], ExecutionEngine]] = {}
_ENGINE_INSTANCES: Dict[str, ExecutionEngine] = {}


def register_engine(name: str, factory: Callable[[], ExecutionEngine]) -> None:
    """Register an engine under ``name`` (replacing any previous entry)."""
    _ENGINE_FACTORIES[name] = factory
    _ENGINE_INSTANCES.pop(name, None)


def available_engines() -> List[str]:
    """Registered engine names, sorted."""
    return sorted(_ENGINE_FACTORIES)


def get_engine(engine: Union[str, ExecutionEngine, None]) -> ExecutionEngine:
    """Resolve an engine name (or pass an instance through).

    Engines are stateless between lowerings, so one instance per registry
    entry is shared by all devices in the process.
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    if isinstance(engine, ExecutionEngine):
        return engine
    try:
        factory = _ENGINE_FACTORIES[engine]
    except KeyError:
        raise KeyError(
            f"unknown execution engine {engine!r}; available: {available_engines()}"
        ) from None
    if engine not in _ENGINE_INSTANCES:
        _ENGINE_INSTANCES[engine] = factory()
    return _ENGINE_INSTANCES[engine]


# ---------------------------------------------------------------------------
# Reference engine: the tree-walking coroutine interpreter
# ---------------------------------------------------------------------------


class _ReferenceGroup(PreparedGroup):
    def __init__(self, launch: "_ReferenceLaunch", local_memory: memory.LocalMemory):
        self._launch = launch
        self._local_memory = local_memory

    def thread(
        self,
        context: ThreadContext,
        access_hook: Optional[memory.AccessHook] = None,
    ) -> ThreadCoroutine:
        launch = self._launch
        lowered = launch.lowered
        interpreter = Interpreter(
            lowered.program,
            launch.global_memory,
            self._local_memory,
            launch.limits,
            access_hook=access_hook,
            comma_yields_zero=lowered.comma_yields_zero,
        )
        return interpreter.run_thread(context)


class _ReferenceLaunch(PreparedLaunch):
    def __init__(
        self,
        lowered: "_ReferenceProgram",
        global_memory: memory.GlobalMemory,
    ) -> None:
        self.lowered = lowered
        self.global_memory = global_memory
        self.limits = ExecutionLimits(max_steps=lowered.max_steps)

    def bind_group(self, local_memory: memory.LocalMemory) -> PreparedGroup:
        return _ReferenceGroup(self, local_memory)

    @property
    def steps(self) -> int:
        return self.limits.steps


class _ReferenceProgram(PreparedProgram):
    """The interpreter has no lowering step; this just carries the inputs."""

    def __init__(
        self,
        program: ast.Program,
        comma_yields_zero: bool,
        max_steps: int,
    ) -> None:
        self.program = program
        self.comma_yields_zero = comma_yields_zero
        self.max_steps = max_steps

    def bind(self, global_memory: memory.GlobalMemory) -> PreparedLaunch:
        return _ReferenceLaunch(self, global_memory)


class ReferenceEngine(ExecutionEngine):
    """The tree-walking interpreter behind the historical execution path."""

    name = "reference"

    def lower(
        self,
        program: ast.Program,
        comma_yields_zero: bool = False,
        max_steps: int = DEFAULT_MAX_STEPS,
        schedule_order: Optional[ScheduleOrder] = None,
    ) -> PreparedProgram:
        # The oracle yields at every barrier and atomic, whatever the order.
        return _ReferenceProgram(program, comma_yields_zero, max_steps)


def _make_compiled_engine() -> ExecutionEngine:
    # Imported lazily so the (large) lowering module is only paid for by
    # launches that actually select the compiled engine.
    from repro.runtime.compiled import CompiledEngine

    return CompiledEngine()


register_engine("reference", ReferenceEngine)
register_engine("compiled", _make_compiled_engine)


__all__ = [
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_STEPS",
    "ExecutionEngine",
    "PreparedProgram",
    "PreparedLaunch",
    "PreparedGroup",
    "ReferenceEngine",
    "ThreadCoroutine",
    "register_engine",
    "available_engines",
    "get_engine",
]
