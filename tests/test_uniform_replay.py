"""Uniform replay in the compiled engine, against the reference engine.

A straight-line kernel whose work-items differ only in its final
``p[index] = value;`` store -- every generated BASIC and VECTOR kernel --
runs the statements before that store once per tuple of its group-uniform
work-item values (ENGINE.md, "Uniform replay").  The reference interpreter
still executes every work-item, so it is the oracle: every launch here must
give the same ``KernelResult`` (outputs, steps, race reports), or raise the
same exception class with the same payload, under either engine.
"""

import pytest

from repro.compiler.driver import CompiledKernel
from repro.compiler.pipeline import OptimisationLevel, default_pipeline
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast, types as ty
from repro.runtime.compiled.lowering import ITEM_VARYING, CompiledProgram
from repro.runtime.device import run_program
from repro.runtime.errors import KernelRuntimeError
from repro.runtime.scheduler import ScheduleOrder
from repro.testing.outcomes import Outcome, classify_exception

#: The clsmith benchmark workload's generator geometry.
CLSMITH_OPTIONS = GeneratorOptions(
    min_total_threads=4, max_total_threads=24, max_group_size=8, max_statements=8
)
#: The paper's lower thread counts (it ran 100-10,000 threads).
PAPER_OPTIONS = GeneratorOptions(
    min_total_threads=100, max_total_threads=400, max_group_size=64, max_statements=8
)
#: Large enough that no generated kernel here reaches it.
UNBOUNDED = 10**9


def _programs(options, seeds):
    """Generated BASIC and VECTOR kernels, each raw and optimised."""
    optimise = default_pipeline(OptimisationLevel.FULL)
    for mode in (Mode.BASIC, Mode.VECTOR):
        for seed in seeds:
            program = generate_kernel(mode, seed, options)
            yield f"{mode.value}-{seed}-raw", program
            yield f"{mode.value}-{seed}-opt", optimise.run(program)


def _observe(program, engine, **kwargs):
    """Everything observable about one launch, exceptions included."""
    try:
        result = run_program(program, engine=engine, **kwargs)
    except KernelRuntimeError as exc:
        return (
            "raise",
            type(exc).__name__,
            str(exc),
            getattr(exc, "kind", None),
            getattr(exc, "steps", None),
        )
    return ("ok", result.outputs, result.steps, tuple(result.race_reports))


def _agree(program, **kwargs):
    """The reference observation, after checking the compiled one equals it."""
    reference = _observe(program, "reference", **kwargs)
    assert _observe(program, "compiled", **kwargs) == reference, kwargs
    return reference


@pytest.fixture
def launches(monkeypatch):
    """``(lowering, launch)`` of every compiled launch bound during a test."""
    bound = []
    bind = CompiledProgram.bind

    def recording_bind(self, global_memory):
        launch = bind(self, global_memory)
        bound.append((self, launch))
        return launch

    monkeypatch.setattr(CompiledProgram, "bind", recording_bind)
    return bound


def _uniform_value(function, dimension, group, launch):
    gx, gy, gz = group
    ngx, ngy, _ = launch.num_groups
    return {
        "get_group_id": lambda: group[dimension],
        "get_global_size": lambda: launch.global_size[dimension],
        "get_local_size": lambda: launch.local_size[dimension],
        "get_num_groups": lambda: launch.num_groups[dimension],
        "get_linear_group_id": lambda: (gz * ngy + gy) * ngx + gx,
    }[function]()


def _reachable_nodes(program):
    """Every node of the kernel and of the functions it (transitively) calls."""
    bodies = {fn.name: fn.body for fn in program.functions if fn.body is not None}
    seen, todo = set(), [program.kernel_name]
    while todo:
        name = todo.pop()
        if name in seen or name not in bodies:
            continue
        seen.add(name)
        for node in bodies[name].walk():
            yield node
            if isinstance(node, ast.Call):
                todo.append(node.name)


def _distinct_keys(program):
    """How many distinct tuples of group-uniform work-item values the
    program can read over its NDRange, from the launch geometry alone."""
    reads = sorted(
        {
            (node.function, node.dimension)
            for node in _reachable_nodes(program)
            if isinstance(node, ast.WorkItemExpr) and node.function not in ITEM_VARYING
        }
    )
    launch = program.launch
    ngx, ngy, ngz = launch.num_groups
    groups = [(gx, gy, gz) for gz in range(ngz) for gy in range(ngy) for gx in range(ngx)]
    return len(
        {tuple(_uniform_value(f, d, group, launch) for f, d in reads) for group in groups}
    )


# ---------------------------------------------------------------------------
# Generated kernels: replay engages and agrees with per-item execution
# ---------------------------------------------------------------------------


def _check_replayed(name, program, launches):
    """Every setting agrees with the reference engine, and the unbounded
    launch ran its prefix once per distinct key.  Returns that count."""
    launches.clear()
    unbounded = _agree(program, max_steps=UNBOUNDED)
    assert unbounded[0] == "ok", (name, unbounded)
    (lowered, launch), = launches
    assert lowered.prefix is not None, f"{name} does not qualify for replay"
    assert len(launch.replay) == _distinct_keys(program), name
    steps = unbounded[2]
    for budget, kwargs in _budgets(steps):
        launches.clear()
        observed = _agree(program, max_steps=budget, **kwargs)
        if budget >= steps:
            assert observed[0] == "ok"
        else:
            assert observed[1] == "ExecutionTimeout" and observed[4] == budget + 1
    return len(launch.replay)


def _budgets(steps):
    """Every order, both comma settings and checked races, across budgets
    of exactly the per-item step count, one less, and one that runs out
    mid-launch."""
    round_robin, reversed_, random_ = ScheduleOrder
    return [
        (UNBOUNDED, dict(comma_yields_zero=True, check_races=True, schedule_order=reversed_)),
        (steps, dict(schedule_order=random_, schedule_seed=3)),
        (steps - 1, dict(comma_yields_zero=True, schedule_order=round_robin)),
        (steps // 2, dict(check_races=True, schedule_order=random_, schedule_seed=5)),
    ]


def test_replay_agrees_at_clsmith_geometry(launches):
    keyed = 0
    for name, program in _programs(CLSMITH_OPTIONS, range(4)):
        _check_replayed(name, program, launches)
        keyed += _distinct_keys(program) > 1
    # Group ids reach some prefixes, so some keys split a launch.
    assert keyed


def test_replay_agrees_at_paper_geometry(launches):
    items = prefixes = 0
    for name, program in _programs(PAPER_OPTIONS, (1, 2)):
        items += program.launch.total_threads
        assert program.launch.total_threads >= 100
        prefixes += _check_replayed(name, program, launches)
    # Work-items share prefixes: replay runs at most one per two of them.
    assert prefixes * 2 <= items, (prefixes, items)


def test_execution_flags_classify_alike_under_replay(launches):
    _, program = next(_programs(CLSMITH_OPTIONS, (0,)))
    flag_sets = (
        {},
        {"comma_yields_zero": True},
        {"force_timeout": True},
        {"force_runtime_crash": True},
    )
    for flags in flag_sets:
        observed = {}
        for engine in ("reference", "compiled"):
            kernel = CompiledKernel(program, OptimisationLevel.NONE, "c", dict(flags))
            try:
                result = kernel.run(engine=engine, check_races=True)
            except KernelRuntimeError as exc:
                observed[engine] = (classify_exception(exc), type(exc).__name__, str(exc))
            else:
                observed[engine] = (Outcome.PASS, result.outputs, result.steps)
        assert observed["compiled"] == observed["reference"], flags
    assert any(lowered.prefix is not None for lowered, _ in launches)


# ---------------------------------------------------------------------------
# Hand-built kernels at the edges of the precondition
# ---------------------------------------------------------------------------

OUT = ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))


def _program(statements, helpers=(), params=(OUT,), buffers=()):
    """A two-group kernel over ``out`` (eight work-items, groups of four)."""
    kernel = ast.FunctionDecl("entry", ty.VOID, list(params), ast.Block(statements), is_kernel=True)
    return ast.Program(
        functions=[*helpers, kernel],
        buffers=[ast.BufferSpec("out", ty.ULONG, 8, is_output=True), *buffers],
        launch=ast.LaunchSpec((8, 1, 1), (4, 1, 1)),
    )


def _helper(name, statements, params=(), return_type=ty.ULONG):
    return ast.FunctionDecl(name, return_type, list(params), ast.Block(statements))


def _x(init):
    return ast.DeclStmt("x", ty.ULONG, init)


def _gid():
    return ast.WorkItemExpr("get_global_id", 0)


def _not_qualifying():
    store = ast.out_write(ast.var("x"))
    return {
        "item-varying id in the prefix": _program([_x(_gid()), store]),
        "item-varying id in a helper": _program(
            [_x(ast.call("lid")), store],
            helpers=[_helper("lid", [ast.ReturnStmt(ast.WorkItemExpr("get_local_id", 0))])],
        ),
        # Thread k reads what thread k - 1 stored, so results differ by thread.
        "prefix reads out[0]": _program(
            [
                _x(ast.binop("+", ast.IndexAccess(ast.var("out"), ast.lit(0)), ast.lit(1))),
                store,
            ]
        ),
        "barrier in an uncalled helper": _program(
            [_x(ast.lit(3)), store],
            helpers=[_helper("sync", [ast.BarrierStmt()], return_type=ty.VOID)],
        ),
        "atomic": _program(
            [
                _x(ast.lit(3)),
                ast.ExprStmt(ast.call("atomic_inc", ast.AddressOf(ast.var("x")))),
                store,
            ]
        ),
        "local buffer": _program(
            [_x(ast.lit(3)), store],
            params=(OUT, ast.ParamDecl("tmp", ty.PointerType(ty.UINT, ty.LOCAL))),
            buffers=[ast.BufferSpec("tmp", ty.UINT, 4, address_space=ty.LOCAL)],
        ),
        "final store with +=": _program(
            [_x(ast.lit(3)), ast.AssignStmt(ast.IndexAccess(ast.var("out"), _gid()), ast.var("x"), "+=")]
        ),
        "final store calls a user function": _program(
            [_x(ast.lit(3)), ast.out_write(ast.call("twice", ast.var("x")))],
            helpers=[
                _helper(
                    "twice",
                    [ast.ReturnStmt(ast.binop("*", ast.var("v"), ast.lit(2, ty.ULONG)))],
                    params=[ast.ParamDecl("v", ty.ULONG)],
                )
            ],
        ),
    }


@pytest.mark.parametrize("case", sorted(_not_qualifying()))
def test_kernels_outside_the_precondition_run_per_item(case, launches):
    program = _not_qualifying()[case]
    reference = _agree(program, check_races=True, throw_on_race=False)
    assert reference[0] == "ok", reference
    (lowered, launch), = launches
    assert lowered.prefix is None and not launch.replay
    for order in ScheduleOrder:
        for budget in (reference[2], reference[2] - 1):
            _agree(program, max_steps=budget, schedule_order=order, comma_yields_zero=True)


def test_prefix_that_returns_skips_the_store_for_its_group(launches):
    # Group 1 returns before its store; group 0 stores 5 everywhere.
    program = _program(
        [
            _x(ast.lit(5, ty.ULONG)),
            ast.IfStmt(
                ast.binop("==", ast.WorkItemExpr("get_group_id", 0), ast.lit(1)),
                ast.Block([ast.ReturnStmt()]),
            ),
            ast.out_write(ast.var("x")),
        ]
    )
    reference = _agree(program, check_races=True)
    assert reference[1] == {"out": [5, 5, 5, 5, 0, 0, 0, 0]}
    (lowered, launch), = launches
    assert lowered.prefix is not None and len(launch.replay) == 2
    for order in ScheduleOrder:
        for budget in range(reference[2] - 12, reference[2] + 1):
            _agree(program, max_steps=budget, schedule_order=order)
