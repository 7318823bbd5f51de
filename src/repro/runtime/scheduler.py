"""Work-group scheduler: barrier synchronisation and thread interleaving.

OpenCL 1.x provides no inter-group synchronisation (paper section 4.2), so
work-groups are executed one after another; *within* a group the scheduler
cooperatively interleaves the work-item coroutines produced by the
interpreter.  Threads only yield at barriers and atomic operations, which are
exactly the points at which the order of threads can influence intermediate
state (the compiled engine yields only at those its order can observe: see
ENGINE.md, "The engine contract").  Because the kernels the generator
produces are deterministic by construction, the final result must be
independent of the interleaving -- the ``ScheduleOrder`` policies exist so
tests and benchmarks can *check* that claim by running the same kernel under
different orders.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.runtime.errors import BarrierDivergenceError
from repro.runtime.interpreter import (
    ATOMIC_EVENT,
    BARRIER_EVENT,
    SchedulerEvent,
    ThreadContext,
)


class ScheduleOrder(enum.Enum):
    """Interleaving policies for threads within a work-group."""

    #: Run threads in ascending local-linear-id order at every scheduling point.
    ROUND_ROBIN = "round_robin"
    #: Run threads in descending id order.
    REVERSED = "reversed"
    #: Pick the next runnable thread pseudo-randomly (seeded, reproducible).
    RANDOM = "random"


@dataclass(eq=False)
class _ThreadSlot:
    context: ThreadContext
    coroutine: Generator[SchedulerEvent, None, None]
    finished: bool = False
    waiting_barrier: Optional[int] = None


class WorkGroupScheduler:
    """Runs all work-items of a single work-group to completion."""

    def __init__(
        self,
        order: ScheduleOrder = ScheduleOrder.ROUND_ROBIN,
        seed: int = 0,
    ) -> None:
        self.order = order
        # Only RANDOM draws from it; seeding one takes several microseconds,
        # paid per work-group.
        self._rng = random.Random(seed) if order is ScheduleOrder.RANDOM else None
        #: Number of barrier episodes completed (used by the race detector to
        #: delimit synchronisation epochs).
        self.barrier_epochs = 0

    def run(self, slots: List[_ThreadSlot]) -> None:
        """Drive the work-group until every thread has finished.

        ``runnable`` holds, in slot order, the threads that have neither
        finished nor arrived at a barrier: a thread leaves it when it does
        either, and a released barrier refills it from the waiting threads
        -- which are then all of them, or the release raises.  So the list
        stays in ascending local linear id, and a fixed order's pick is
        its first or last entry, provided ``slots`` arrive in that order.
        """
        for before, after in zip(slots, slots[1:]):
            if before.context.local_linear_id >= after.context.local_linear_id:
                raise ValueError("work-group slots are not in ascending local linear id")
        runnable = list(slots)
        waiting: List[_ThreadSlot] = []
        while True:
            if not runnable:
                if not waiting:
                    return  # all threads finished
                self._release_barrier(slots, waiting)
                runnable, waiting = list(slots), []
                continue
            slot = self._pick(runnable)
            self._advance(slot)
            if slot.finished:
                runnable.remove(slot)
            elif slot.waiting_barrier is not None:
                runnable.remove(slot)
                waiting.append(slot)

    # -- internals -------------------------------------------------------

    def _pick(self, runnable: List[_ThreadSlot]) -> _ThreadSlot:
        if self.order is ScheduleOrder.ROUND_ROBIN:
            return runnable[0]
        if self.order is ScheduleOrder.REVERSED:
            return runnable[-1]
        return self._rng.choice(runnable)

    def _advance(self, slot: _ThreadSlot) -> None:
        try:
            event = next(slot.coroutine)
        except StopIteration:
            slot.finished = True
            return
        if event.kind == BARRIER_EVENT:
            slot.waiting_barrier = event.barrier_site
        elif event.kind == ATOMIC_EVENT:
            # The atomic itself executes when the thread next resumes; the
            # yield simply provides an interleaving point.
            pass
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"unknown scheduler event {event.kind!r}")

    def _release_barrier(self, slots: List[_ThreadSlot], waiting: List[_ThreadSlot]) -> None:
        # A barrier may only be released once *every* thread of the group has
        # arrived at it; a thread that already finished the kernel can never
        # arrive, so its group-mates waiting at a barrier is divergence.
        if len(waiting) != len(slots):
            raise BarrierDivergenceError(
                "some threads finished (or diverged) while others wait at a barrier"
            )
        sites = {s.waiting_barrier for s in waiting}
        if len(sites) != 1:
            raise BarrierDivergenceError(
                "threads of one work-group arrived at different barriers"
            )
        self.barrier_epochs += 1
        for s in waiting:
            s.waiting_barrier = None


def make_slot(
    context: ThreadContext, coroutine: Generator[SchedulerEvent, None, None]
) -> _ThreadSlot:
    """Package a thread context and its interpreter coroutine for scheduling."""
    return _ThreadSlot(context, coroutine)


__all__ = ["ScheduleOrder", "WorkGroupScheduler", "make_slot"]
