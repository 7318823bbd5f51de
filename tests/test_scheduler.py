"""The work-group scheduler's runnable list, against the loop it replaced.

``WorkGroupScheduler.run`` keeps one runnable list in slot order, drops a
thread from it when the thread finishes or arrives at a barrier, and
refills it when the barrier is released.  The oracle here is the earlier
loop, which rebuilt that list from every slot before each advance: under
every schedule order both must pick the same threads in the same order,
release the same barriers and end in the same result or error.
"""

import pytest

from repro.compiler import analysis
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast, types as ty
from repro.runtime import device as device_module
from repro.runtime.device import run_program
from repro.runtime.errors import BarrierDivergenceError, KernelRuntimeError
from repro.runtime.scheduler import ScheduleOrder, WorkGroupScheduler

OPTIONS = GeneratorOptions(
    min_total_threads=8, max_total_threads=48, max_group_size=16, max_statements=8
)


class _RebuildingScheduler(WorkGroupScheduler):
    """The oracle: the runnable list rebuilt from every slot per advance."""

    def run(self, slots):
        while True:
            runnable = [s for s in slots if not s.finished and s.waiting_barrier is None]
            if not runnable:
                waiting = [s for s in slots if s.waiting_barrier is not None]
                if not waiting:
                    return
                self._release_barrier(slots, waiting)
                continue
            slot = self._pick(runnable)
            self._advance(slot)


def _schedule(monkeypatch, scheduler, program, **kwargs):
    """The (group, thread) pick sequence, with barrier releases, and the
    launch's result or error, with ``scheduler`` driving every group."""
    log = []

    class Recording(scheduler):
        def _pick(self, runnable):
            slot = super()._pick(runnable)
            log.append((slot.context.group_linear_id, slot.context.local_linear_id))
            return slot

        def _release_barrier(self, slots, waiting):
            super()._release_barrier(slots, waiting)
            log.append(("release", self.barrier_epochs))

    monkeypatch.setattr(device_module, "WorkGroupScheduler", Recording)
    try:
        result = run_program(program, **kwargs)
    except KernelRuntimeError as exc:
        return log, ("raise", type(exc).__name__, str(exc))
    return log, ("ok", result.outputs, result.steps)


def _check_same_schedule(monkeypatch, program, **kwargs):
    expected = _schedule(monkeypatch, _RebuildingScheduler, program, **kwargs)
    assert _schedule(monkeypatch, WorkGroupScheduler, program, **kwargs) == expected
    return expected


def test_generated_barrier_and_atomic_kernels_keep_their_schedule(monkeypatch):
    releases = atomics = 0
    for mode in (Mode.BARRIER, Mode.ALL):
        for seed in range(3):
            program = generate_kernel(mode, seed, OPTIONS)
            atomics += analysis.uses_atomics(program)
            for order in ScheduleOrder:
                log, outcome = _check_same_schedule(
                    monkeypatch,
                    program,
                    engine="compiled",
                    schedule_order=order,
                    schedule_seed=seed,
                    max_steps=400_000,
                )
                assert outcome[0] == "ok", outcome
                releases += sum(1 for entry in log if entry[0] == "release")
    assert releases and atomics


def _divergent(then_block, else_block=None):
    """Thread 0 of each group of four takes ``then_block``."""
    kernel = ast.FunctionDecl(
        "entry",
        ty.VOID,
        [ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))],
        ast.Block(
            [
                ast.IfStmt(
                    ast.binop("==", ast.WorkItemExpr("get_local_id", 0), ast.lit(0)),
                    ast.Block(then_block),
                    None if else_block is None else ast.Block(else_block),
                ),
                ast.out_write(ast.lit(1, ty.ULONG)),
            ]
        ),
        is_kernel=True,
    )
    return ast.Program(
        functions=[kernel],
        buffers=[ast.BufferSpec("out", ty.ULONG, 8, is_output=True)],
        launch=ast.LaunchSpec((8, 1, 1), (4, 1, 1)),
    )


@pytest.mark.parametrize(
    "program",
    [
        _divergent([ast.BarrierStmt()]),
        _divergent([ast.BarrierStmt()], [ast.BarrierStmt(ast.GLOBAL_MEM_FENCE)]),
    ],
    ids=["finished-while-waiting", "different-barriers"],
)
@pytest.mark.parametrize("engine", ["reference", "compiled"])
def test_barrier_divergence_raises_at_the_same_pick(monkeypatch, program, engine):
    for order in ScheduleOrder:
        log, outcome = _check_same_schedule(
            monkeypatch, program, engine=engine, schedule_order=order
        )
        assert outcome[1] == BarrierDivergenceError.__name__, outcome
        assert log


def test_only_random_order_draws_a_generator():
    for order in ScheduleOrder:
        scheduler = WorkGroupScheduler(order, seed=3)
        assert (scheduler._rng is not None) == (order is ScheduleOrder.RANDOM)
