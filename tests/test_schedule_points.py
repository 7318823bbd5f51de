"""Scheduling points the compiled engine leaves out, against the reference.

The work-items of a group interleave only at barriers and atomics, and only
where the launch's schedule order can see it: under ``ROUND_ROBIN`` and
``REVERSED`` the work-item an atomic yields is the one the scheduler picks
next, and a barrier in a group of one work-item releases at once.  So the
compiled engine lowers an atomic to plain code under a fixed order and a
barrier to its tick alone in one-work-item groups (ENGINE.md, "The engine
contract").  The reference interpreter still yields at every barrier and
atomic, so it is the oracle: every launch here must give the same
``KernelResult`` (outputs, steps, race reports), or raise the same
exception with the same payload, under either engine, and the compiled
engine's schedule must be the reference's with the left-out points removed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.compiler.pipeline import OptimisationLevel, default_pipeline
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast, types as ty
from repro.runtime import device as device_module
from repro.runtime.compiled.lowering import CompiledProgram
from repro.runtime.device import run_program
from repro.runtime.errors import KernelRuntimeError
from repro.runtime.interpreter import ThreadContext
from repro.runtime.scheduler import ScheduleOrder, WorkGroupScheduler, make_slot

#: The clsmith benchmark workload's generator geometry.
CLSMITH_OPTIONS = GeneratorOptions(
    min_total_threads=4, max_total_threads=24, max_group_size=8, max_statements=8
)
#: The emi benchmark workload's generator geometry.
EMI_OPTIONS = GeneratorOptions(
    min_total_threads=64, max_total_threads=128, max_group_size=8, max_statements=8
)
MODES = (Mode.BARRIER, Mode.ATOMIC_REDUCTION, Mode.ALL)
#: Large enough that no kernel here reaches it.
UNBOUNDED = 10**9
#: ``(order, schedule seed)``: both fixed orders and two RANDOM seeds.
ORDERS = (
    (ScheduleOrder.ROUND_ROBIN, 0),
    (ScheduleOrder.REVERSED, 0),
    (ScheduleOrder.RANDOM, 1),
    (ScheduleOrder.RANDOM, 2),
)
FIXED = (ScheduleOrder.ROUND_ROBIN, ScheduleOrder.REVERSED)
CHECKED = dict(check_races=True, throw_on_race=False)


def _programs(options, seeds):
    """Generated BARRIER, ATOMIC_REDUCTION and ALL kernels, raw and optimised."""
    optimise = default_pipeline(OptimisationLevel.FULL)
    for mode in MODES:
        for seed in seeds:
            program = generate_kernel(mode, seed, options)
            yield f"{mode.value}-{seed}-raw", program
            yield f"{mode.value}-{seed}-opt", optimise.run(program)


def _observe(program, engine, **kwargs):
    """Everything observable about one launch, exceptions included."""
    try:
        result = run_program(program, engine=engine, **kwargs)
    except KernelRuntimeError as exc:
        return ("raise", type(exc).__name__, str(exc), getattr(exc, "steps", None))
    return ("ok", result.outputs, result.steps, tuple(result.race_reports))


def _agree(program, **kwargs):
    """The reference observation, after checking the compiled one equals it."""
    reference = _observe(program, "reference", **kwargs)
    assert _observe(program, "compiled", **kwargs) == reference, kwargs
    return reference


def _events(monkeypatch, program, engine, **kwargs):
    """``(group, local id, event)`` per resume of one launch: ``"end"``
    when the work-item finished, ``("barrier", site)`` or ``"atomic"``."""
    log = []

    class Recording(WorkGroupScheduler):
        def _advance(self, slot):
            super()._advance(slot)
            if slot.finished:
                event = "end"
            elif slot.waiting_barrier is not None:
                event = ("barrier", slot.waiting_barrier)
            else:
                event = "atomic"
            log.append((slot.context.group_linear_id, slot.context.local_linear_id, event))

    monkeypatch.setattr(device_module, "WorkGroupScheduler", Recording)
    try:
        run_program(program, engine=engine, **kwargs)
    finally:
        monkeypatch.undo()
    return log


def _observable(log, order, group_size):
    """The events of a reference ``log`` the compiled engine keeps."""
    return [
        entry for entry in log
        if entry[2] == "end"
        or (entry[2] == "atomic" and order is ScheduleOrder.RANDOM)
        or (entry[2] != "atomic" and group_size > 1)
    ]


# ---------------------------------------------------------------------------
# Generated kernels: the same KernelResult on both engines
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "options", [CLSMITH_OPTIONS, EMI_OPTIONS], ids=["clsmith-geometry", "emi-geometry"]
)
def test_engines_agree_on_barrier_and_atomic_kernels(options):
    """Each kernel runs under one of the four orders in turn (every order
    meets every mode five times per geometry), at an unbounded budget, at
    exactly its step count and at one step less, with races checked.  At
    exactly its step count the reference completes as it does unbounded (a
    budget acts only when it is crossed), so that run is not repeated."""
    one_item = 0
    for index, (name, program) in enumerate(_programs(options, range(10))):
        order, seed = ORDERS[index % len(ORDERS)]
        kwargs = dict(CHECKED, schedule_order=order, schedule_seed=seed)
        unbounded = _agree(program, max_steps=UNBOUNDED, **kwargs)
        assert unbounded[0] == "ok", (name, unbounded)
        steps = unbounded[2]
        assert _observe(program, "compiled", max_steps=steps, **kwargs) == unbounded, name
        timeout = _agree(program, max_steps=steps - 1, **kwargs)
        assert timeout[1] == "ExecutionTimeout" and timeout[3] == steps, name
        one_item += program.launch.group_size == 1
    # Both kinds of group occur, so both lowerings of a barrier ran.
    assert 0 < one_item < 60


# ---------------------------------------------------------------------------
# Scheduler events
# ---------------------------------------------------------------------------


def test_compiled_schedule_is_the_reference_one_without_unobservable_points(monkeypatch):
    """Under a fixed order no compiled coroutine yields an atomic event, and
    in a one-work-item group none yields at all; under RANDOM it yields the
    reference's sequence (barriers left out only in one-work-item groups)."""
    seen = {"atomic-fixed": 0, "barrier-one-item": 0, "atomic-random": 0}
    for name, program in _programs(CLSMITH_OPTIONS, range(5)):
        group_size = program.launch.group_size
        for order, seed in ORDERS:
            kwargs = dict(schedule_order=order, schedule_seed=seed, max_steps=UNBOUNDED)
            reference = _events(monkeypatch, program, "reference", **kwargs)
            compiled = _events(monkeypatch, program, "compiled", **kwargs)
            assert compiled == _observable(reference, order, group_size), (name, order)
            if order in FIXED:
                assert "atomic" not in [event for _, _, event in compiled]
                seen["atomic-fixed"] += any(e == "atomic" for _, _, e in reference)
            else:
                seen["atomic-random"] += any(e == "atomic" for _, _, e in compiled)
            if group_size == 1 and order in FIXED:
                assert {event for _, _, event in compiled} == {"end"}, (name, order)
                seen["barrier-one-item"] += any(e[0] == "barrier" for _, _, e in reference)
    # The reference yielded every kind of point the compiled engine left out.
    assert all(seen.values()), seen


@pytest.mark.parametrize("ids", [(1, 0), (0, 0)], ids=["descending", "repeated"])
def test_scheduler_refuses_slots_out_of_local_id_order(ids):
    """A fixed order picks the first or last runnable slot, which is the
    lowest or highest local id only if the slots arrive in ascending order."""
    slots = [
        make_slot(ThreadContext((i, 0, 0), (i, 0, 0), (0, 0, 0), (2, 1, 1), (2, 1, 1)), iter(()))
        for i in ids
    ]
    with pytest.raises(ValueError, match="ascending local linear id"):
        WorkGroupScheduler().run(slots)


# ---------------------------------------------------------------------------
# Hand-built kernels
# ---------------------------------------------------------------------------

GID = ast.WorkItemExpr("get_global_id")
LID = ast.WorkItemExpr("get_local_id")


def _kernel(statements, params, buffers, local_size, global_size=4, helpers=()):
    kernel = ast.FunctionDecl("entry", ty.VOID, params, ast.Block(statements), is_kernel=True)
    return ast.Program(
        functions=[*helpers, kernel],
        buffers=buffers,
        launch=ast.LaunchSpec((global_size, 1, 1), (local_size, 1, 1)),
    )


def _synchronising(local_size):
    """Barriers in a loop and in a helper, one helper's barrier reached
    from an atomic's index, around a local buffer::

        void sync() { barrier(CLK_LOCAL_MEM_FENCE); }
        int wait() { sync(); return 0; }
        kernel void entry(global ulong *out, local uint *tmp) {
          for (int i = 0; i < 3; i += 1) {
            tmp[get_local_id(0)] = i + get_local_id(0);
            sync();
            atomic_add(&tmp[wait()], 1);
            barrier(CLK_LOCAL_MEM_FENCE);
          }
          out[get_global_id(0)] = tmp[get_local_id(0)];
        }
    """
    sync = ast.FunctionDecl("sync", ty.VOID, [], ast.block(ast.BarrierStmt()))
    wait = ast.FunctionDecl(
        "wait", ty.INT, [], ast.block(ast.ExprStmt(ast.call("sync")), ast.ReturnStmt(ast.lit(0)))
    )
    tmp = ast.var("tmp")
    loop = ast.ForStmt(
        ast.DeclStmt("i", ty.INT, ast.lit(0)),
        ast.binop("<", ast.var("i"), ast.lit(3)),
        ast.assign(ast.var("i"), ast.lit(1), "+="),
        ast.block(
            ast.assign(ast.IndexAccess(tmp, LID), ast.binop("+", ast.var("i"), LID)),
            ast.ExprStmt(ast.call("sync")),
            ast.ExprStmt(
                ast.call(
                    "atomic_add", ast.AddressOf(ast.IndexAccess(tmp, ast.call("wait"))), ast.lit(1)
                )
            ),
            ast.BarrierStmt(),
        ),
    )
    return _kernel(
        [loop, ast.assign(ast.IndexAccess(ast.var("out"), GID), ast.IndexAccess(tmp, LID))],
        [
            ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL)),
            ast.ParamDecl("tmp", ty.PointerType(ty.UINT, ty.LOCAL)),
        ],
        [
            ast.BufferSpec("out", ty.ULONG, 4, is_output=True),
            ast.BufferSpec("tmp", ty.UINT, local_size, address_space=ty.LOCAL),
        ],
        local_size,
        helpers=[sync, wait],
    )


def test_barriers_in_helpers_and_loops_in_one_item_groups(monkeypatch):
    for local_size, expected in ((1, [3, 3, 3, 3]), (2, [4, 3, 4, 3])):
        program = _synchronising(local_size)
        for order, seed in ORDERS:
            kwargs = dict(CHECKED, schedule_order=order, schedule_seed=seed)
            observed = _agree(program, **kwargs)
            assert observed[:2] == ("ok", {"out": expected}) and not observed[3]
            for budget in range(1, observed[2] + 1, 7):
                _agree(program, max_steps=budget, **kwargs)
            compiled = _events(monkeypatch, program, "compiled", **kwargs)
            barriers = sum(event[0] == "barrier" for _, _, event in compiled)
            # Nine barriers per work-item, all left out in groups of one.
            assert barriers == (0 if local_size == 1 else 9 * 4), (local_size, order)


def _claiming():
    """``out[atomic_inc(&c[0])] = get_local_id(0);`` over one group of
    eight, then ``atomic_add(p, get_local_id(0))`` with ``p = &c[1]`` (the
    generic atomic, not the ``&ptr[idx]`` shape)."""
    c = ast.var("c")
    pointer = ty.PointerType(ty.UINT, ty.GLOBAL)
    claim = ast.call("atomic_inc", ast.AddressOf(ast.IndexAccess(c, ast.lit(0))))
    return _kernel(
        [
            ast.DeclStmt("p", pointer, ast.AddressOf(ast.IndexAccess(c, ast.lit(1)))),
            ast.assign(ast.IndexAccess(ast.var("out"), claim), LID),
            ast.ExprStmt(ast.call("atomic_add", ast.var("p"), LID)),
        ],
        [ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL)), ast.ParamDecl("c", pointer)],
        [
            ast.BufferSpec("out", ty.ULONG, 8, is_output=True),
            ast.BufferSpec("c", ty.UINT, 2, is_output=True),
        ],
        local_size=8,
        global_size=8,
    )


def test_atomics_still_yield_under_random_order():
    program = _claiming()
    orders = {}
    for seed in range(8):
        observed = _agree(
            program, schedule_order=ScheduleOrder.RANDOM, schedule_seed=seed, **CHECKED
        )
        assert observed[0] == "ok" and observed[1]["c"] == [8, 28] and not observed[3]
        orders[seed] = tuple(observed[1]["out"])
    # The claim order follows the schedule, so atomics are still
    # scheduling points under RANDOM.
    assert len(set(orders.values())) >= 2, orders
    for order, out in (
        (ScheduleOrder.ROUND_ROBIN, list(range(8))),
        (ScheduleOrder.REVERSED, list(range(7, -1, -1))),
    ):
        assert _agree(program, schedule_order=order, **CHECKED)[1]["out"] == out


def _returning(local_size):
    """``if (get_global_id(0) == 0) return; barrier(...); out[gid] = 1;``"""
    return _kernel(
        [
            ast.IfStmt(ast.binop("==", GID, ast.lit(0)), ast.block(ast.ReturnStmt())),
            ast.BarrierStmt(),
            ast.assign(ast.IndexAccess(ast.var("out"), GID), ast.lit(1, ty.ULONG)),
        ],
        [ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))],
        [ast.BufferSpec("out", ty.ULONG, 4, is_output=True)],
        local_size,
    )


@pytest.mark.parametrize("order,seed", ORDERS)
def test_an_early_return_diverges_only_in_a_larger_group(order, seed):
    kwargs = dict(schedule_order=order, schedule_seed=seed)
    diverged = _agree(_returning(2), **kwargs)
    assert diverged[:2] == ("raise", "BarrierDivergenceError"), diverged
    completed = _agree(_returning(1), **kwargs)
    assert completed[:2] == ("ok", {"out": [0, 1, 1, 1]}), completed


def test_every_group_starts_from_the_local_buffers_initial_contents():
    """A launch builds its local buffers' elements once and every group
    copies them: ``out[gid] = tmp[lid]; tmp[lid] = gid + 100;`` reads the
    initial contents in every group, whatever an earlier group wrote."""
    tmp = ast.IndexAccess(ast.var("tmp"), LID)
    program = _kernel(
        [
            ast.assign(ast.IndexAccess(ast.var("out"), GID), tmp),
            ast.assign(tmp, ast.binop("+", GID, ast.lit(100))),
        ],
        [
            ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL)),
            ast.ParamDecl("tmp", ty.PointerType(ty.UINT, ty.LOCAL)),
        ],
        [
            ast.BufferSpec("out", ty.ULONG, 4, is_output=True),
            ast.BufferSpec("tmp", ty.UINT, 2, address_space=ty.LOCAL, init=[7, 9]),
        ],
        local_size=2,
    )
    for order, seed in ORDERS:
        observed = _agree(program, schedule_order=order, schedule_seed=seed, **CHECKED)
        assert observed[:2] == ("ok", {"out": [7, 9, 7, 9]}) and not observed[3], observed


# ---------------------------------------------------------------------------
# Uniform replay engages where it did
# ---------------------------------------------------------------------------


def test_replay_qualifies_the_same_lowerings_in_a_clsmith_pool_pass(monkeypatch, tmp_path):
    """Replay still needs a program with no barrier and no atomic at all,
    whatever the launch's order and group size."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads_under_test", path)
    workloads = importlib.util.module_from_spec(spec)
    # Workload is a dataclass, which looks its module up in sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    lowered = []
    bind = CompiledProgram.bind

    def recording_bind(self, global_memory):
        lowered.append(self)
        return bind(self, global_memory)

    monkeypatch.setattr(CompiledProgram, "bind", recording_bind)
    for seed in workloads.CLSMITH_POOL:
        workloads.run_clsmith(seed, str(tmp_path))
    qualified = {}
    for program in lowered:
        mode = program.program.metadata["mode"]
        total, replayed = qualified.get(mode, (0, 0))
        qualified[mode] = (total + 1, replayed + (program.prefix is not None))
    straight = [qualified[m] for m in ("BASIC", "VECTOR")]
    synchronising = [qualified[m] for m in ("BARRIER", "ALL")]
    assert sum(t for t, _ in straight) == sum(r for _, r in straight) == 56, qualified
    assert sum(t for t, _ in synchronising) == 56, qualified
    assert sum(r for _, r in synchronising) == 0, qualified
