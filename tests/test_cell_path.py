"""The one cell path: every cell is built, run and classified in one place.

The paper's method is one step repeated: build a test for one
(configuration, optimisation level) cell, run it and classify the run.
``ExecutionHarnessBase`` holds that step (``compile_cell``, ``execute_cell``
and ``run_cell``), and every harness, reduction predicate and bisection
probe takes it.  These tests lock two things:

* a cell pin: the outcome and result of every cell of the Figure 1/2
  gallery, an undefined kernel and generated CLsmith kernels -- on the
  reference compiler and all 21 Table 1 configurations at both levels, and
  under every prefix of the default pipeline on the reference compiler and
  configuration 14 -- hash to the table the four per-caller copies of the
  step produced before they became one;
* validated once: the front end's verdict is memoised on the program
  object, so reducing with the pass filter, the predicates and the compiler
  all asking for it validates no program object twice.
"""

import hashlib
import sys
from collections import Counter

from repro.compiler.pipeline import Pipeline, default_pipeline
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast, semantics, types as ty
from repro.platforms import all_configurations, get_configuration
from repro.reduction import MismatchPredicate, Reducer, ReducerConfig
from repro.reduction.corpus import clean_config, wrong_code_config
from repro.reduction.interestingness import DifferentialSignaturePredicate
from repro.testing.emi_harness import EmiHarness
from repro.testing.figures import FIGURE_EXPECTATIONS, figure_program
from repro.testing.outcomes import cell_label, config_name

#: The generator options of the perfbench clsmith workload.
_CLSMITH_OPTIONS = GeneratorOptions(
    min_total_threads=4, max_total_threads=24, max_group_size=8, max_statements=8
)
_FAST = GeneratorOptions(
    min_total_threads=4, max_total_threads=12, max_group_size=4, max_statements=5
)
_MAX_STEPS = 300_000
_ENGINE = "compiled"


# ---------------------------------------------------------------------------
# The cell pin
# ---------------------------------------------------------------------------


def _ub_program() -> ast.Program:
    """A well-formed kernel whose execution is undefined (1/0)."""
    return ast.Program(
        functions=[
            ast.FunctionDecl(
                "entry",
                ty.VOID,
                [ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))],
                ast.block(ast.out_write(ast.binop("/", ast.lit(1), ast.lit(0)))),
                is_kernel=True,
            )
        ],
        buffers=[ast.BufferSpec("out", ty.ULONG, 4, is_output=True)],
        launch=ast.LaunchSpec((4, 1, 1), (1, 1, 1)),
    )


def _inputs():
    """(name, program): the twelve gallery figures, the undefined kernel
    and two generated kernels of each of four CLsmith modes."""
    for expectation in FIGURE_EXPECTATIONS:
        yield f"figure {expectation.figure}", expectation.builder()
    yield "undefined behaviour", _ub_program()
    for mode in (Mode.BASIC, Mode.VECTOR, Mode.BARRIER, Mode.ALL):
        for seed in (0, 1):
            yield f"{mode.value} {seed}", generate_kernel(
                mode, seed, options=_CLSMITH_OPTIONS
            )


def _row(name, cell, outcome, result) -> str:
    value = result.result_hash() if result is not None else "-"
    return f"{name}\t{cell}\t{outcome.value}\t{value}"


def _cell_table():
    """(rows, outcome-code counts) over every plain and pipeline cell."""
    harness = EmiHarness(max_steps=_MAX_STEPS, engine=_ENGINE)
    passes = default_pipeline().passes
    plain = [None] + all_configurations()
    bisected = [None, get_configuration(14)]
    rows = []
    for name, program in _inputs():
        for config in plain:
            for optimisations in (False, True):
                outcome, result = harness.run_cell(program, config, optimisations)
                label = cell_label(config_name(config), optimisations)
                rows.append(_row(name, label, outcome, result))
        for config in bisected:
            for k in range(len(passes) + 1):
                outcome, result = harness.run_cell(
                    program, config, True, pipeline=Pipeline(passes[:k])
                )
                label = f"{cell_label(config_name(config), True)} passes[:{k}]"
                rows.append(_row(name, label, outcome, result))
    return rows, Counter(row.split("\t")[2] for row in rows)


#: Computed with the per-caller cell steps that ``run_cell`` replaced:
#: ``EmiHarness.run_single`` for the plain cells, and for the pipeline
#: cells ``CompilerDriver.compile(pipeline=...)`` with ``cached_run``,
#: classified by ``classify_exception``.
_PINNED_TABLE = "2720d44aed6e7dd853c3f14f9f2bb1f73e38dc51b3dfdb87edb4492d44cfe76f"
_PINNED_COUNTS = {"ok": 998, "to": 55, "bf": 74, "c": 82, "ub": 51}


def test_every_cell_classifies_as_the_per_caller_steps_did():
    rows, counts = _cell_table()
    assert dict(counts) == _PINNED_COUNTS
    digest = hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()
    assert digest == _PINNED_TABLE


# ---------------------------------------------------------------------------
# Validated once
# ---------------------------------------------------------------------------


def _record_validations(monkeypatch):
    """Record every program passed to ``validate_program``, wherever a
    ``repro`` module holds the function.  The list keeps the objects alive,
    so no two of them share an id."""
    programs = []
    original = semantics.validate_program

    def recording(program, *args, **kwargs):
        programs.append(program)
        return original(program, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "validate_program", None)
        if name.startswith("repro") and held is original:
            monkeypatch.setattr(module, "validate_program", recording)
    return programs


def _reduce_figure(figure: str) -> None:
    expectation = next(e for e in FIGURE_EXPECTATIONS if e.figure == figure)
    config_id, optimisations = expectation.affected[0]
    program = figure_program(figure)
    predicate = MismatchPredicate.from_program(
        program, get_configuration(config_id),
        True if optimisations is None else optimisations,
    )
    Reducer(ReducerConfig(seed=0, max_evaluations=60)).reduce(program, predicate)


def _reduce_signature() -> None:
    configs = [clean_config(911), clean_config(912), wrong_code_config()]
    program = generate_kernel(Mode.BASIC, 1, options=_FAST)
    predicate = DifferentialSignaturePredicate.from_program(
        program, configs, max_steps=_MAX_STEPS, engine=_ENGINE
    )
    Reducer(ReducerConfig(seed=0, max_evaluations=40)).reduce(program, predicate)


def test_reductions_validate_no_program_object_twice(monkeypatch):
    programs = _record_validations(monkeypatch)
    for figure in ("1c", "2f", "2d"):
        _reduce_figure(figure)
    _reduce_signature()
    assert programs
    repeats = sum(count - 1 for count in Counter(map(id, programs)).values())
    assert repeats == 0, f"{repeats} repeats in {len(programs)} validations"

