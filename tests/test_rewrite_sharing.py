"""Rewrites share what they do not change.

The identity contract of :mod:`repro.compiler.rewrite`: a compile pass, bug
model or canonical renaming that changes nothing returns its input, and one
that changes something rebuilds only the path to what it changed, so its
output shares every unchanged function and statement with its input.  These
tests check the contract on generated kernels and the Figure 1/2 gallery,
pin the bytes the rewrites produce (digests computed before the rewriters
shared unchanged nodes, so sharing provably changed no output), and check
that :func:`~repro.triage.bucketing.canonical_program` leaves its input
alone.
"""

import dataclasses
import difflib
import hashlib

import pytest

from repro.compiler.driver import CompilerDriver
from repro.compiler.pipeline import default_pipeline
from repro.generator import Mode, generate_kernel
from repro.generator.options import GeneratorOptions
from repro.kernel_lang import ast
from repro.kernel_lang.printer import Printer, print_program, print_stmt
from repro.platforms import bugmodels, get_configuration
from repro.platforms.calibration import StochasticDefectModel, program_fingerprint
from repro.runtime.errors import BuildFailure, CompileTimeout
from repro.testing.figures import FIGURE_EXPECTATIONS, figure_1d, figure_2c, figure_2e
from repro.triage.bucketing import canonical_forms, canonical_program

#: The CLsmith benchmark workload's generator options.
_OPTIONS = GeneratorOptions(
    min_total_threads=4, max_total_threads=24, max_group_size=8, max_statements=8
)
_MODES = (Mode.BASIC, Mode.VECTOR, Mode.BARRIER, Mode.ALL)

#: The named bug models whose ``apply`` rewrites the program.
_REWRITING_MODELS = (
    bugmodels.AmdCharFirstStructBug,
    bugmodels.AnonStructCopyBug,
    bugmodels.AnonCpuBarrierStructBug,
    bugmodels.NvidiaUnionInitBug,
    bugmodels.IntelRotateConstFoldBug,
    bugmodels.IntelBarrierFwdDeclMiscompile,
    bugmodels.IntelUnreachableLoopBarrierBug,
    bugmodels.AnonGpuGroupIdMiscompile,
)


def _generated():
    return [generate_kernel(mode, seed, options=_OPTIONS) for seed in range(10) for mode in _MODES]


def _gallery():
    return [expectation.builder() for expectation in FIGURE_EXPECTATIONS]


def _print_function(fn: ast.FunctionDecl) -> str:
    printer = Printer()
    printer.function(fn)
    return printer.text()


def _assert_shares(before: ast.Program, after: ast.Program, printed_before: str, what):
    """``after`` came from rewriting ``before`` (printed ``printed_before``
    before the rewrite): check the identity contract."""
    assert print_program(before) == printed_before, f"{what} edited its input"
    if print_program(after) == printed_before:
        assert after is before, f"{what} rebuilt a program it did not change"
        return
    assert len(after.functions) == len(before.functions)
    for new_fn, old_fn in zip(after.functions, before.functions):
        if _print_function(new_fn) == _print_function(old_fn):
            assert new_fn is old_fn, f"{what} rebuilt unchanged function {old_fn.name}"
            continue
        if new_fn.body is None or old_fn.body is None:
            continue
        old_statements = old_fn.body.statements
        new_statements = new_fn.body.statements
        matcher = difflib.SequenceMatcher(
            None,
            [print_stmt(s) for s in old_statements],
            [print_stmt(s) for s in new_statements],
            autojunk=False,
        )
        for i, j, size in matcher.get_matching_blocks():
            for k in range(size):
                assert new_statements[j + k] is old_statements[i + k], (
                    f"{what} rebuilt an unchanged statement of {old_fn.name}: "
                    f"{print_stmt(old_statements[i + k])!r}"
                )


# ---------------------------------------------------------------------------
# (a) Identity: what a rewrite does not change, it returns
# ---------------------------------------------------------------------------


def test_each_default_pipeline_pass_shares_what_it_does_not_change():
    for kernel in _generated():
        current = kernel
        for pass_ in default_pipeline().passes:
            printed = print_program(current)
            rewritten = pass_.run(current)
            _assert_shares(current, rewritten, printed, pass_.name)
            current = rewritten


def test_a_pass_with_nothing_to_do_returns_its_input():
    for kernel in _generated()[:8]:
        optimised = default_pipeline().run(kernel)
        for pass_ in default_pipeline().passes[-3:]:
            # Constant folding, simplification and DCE are idempotent.
            assert pass_.run(optimised) is optimised, pass_.name


def test_rewriting_bug_models_share_what_they_do_not_change():
    applied = set()
    for figure in _gallery():
        for program in (figure, default_pipeline().run(figure)):
            for model_class in _REWRITING_MODELS:
                model = model_class()
                if not model.matches(program):
                    continue
                for optimisations in (False, True):
                    printed = print_program(program)
                    rewritten, _ = model.apply(program, optimisations, None)
                    _assert_shares(program, rewritten, printed, model.name)
                    applied.add(model_class)
    # Every rewriting model matches at least one gallery kernel.
    assert applied == set(_REWRITING_MODELS)


def test_calibrated_miscompile_shares_what_it_does_not_change():
    model = next(
        bug for bug in get_configuration(1).bug_models if isinstance(bug, StochasticDefectModel)
    )
    for program in _generated() + _gallery():
        printed = print_program(program)
        rewritten = model._miscompile(program, program_fingerprint(program))
        _assert_shares(program, rewritten, printed, "calibrated miscompile")


# ---------------------------------------------------------------------------
# (b) Byte identity: sharing changes no output
# ---------------------------------------------------------------------------


def _pinned_kernels():
    return _generated() + _gallery()


def _optimised_digest() -> str:
    h = hashlib.sha256()
    for program in _pinned_kernels():
        h.update(print_program(default_pipeline().run(program)).encode())
    return h.hexdigest()


def _compiled_digest() -> str:
    h = hashlib.sha256()
    drivers = [CompilerDriver(get_configuration(i)) for i in (1, 14, 15, 19)]
    for program in _pinned_kernels():
        for driver in drivers:
            for optimisations in (False, True):
                try:
                    compiled = driver.compile(program, optimisations=optimisations)
                except (BuildFailure, CompileTimeout) as exc:
                    h.update(f"{type(exc).__name__}: {exc}".encode())
                    continue
                h.update(print_program(compiled.program).encode())
                h.update(repr(sorted(compiled.execution_flags.items())).encode())
    return h.hexdigest()


def test_optimised_programs_print_the_pinned_bytes():
    assert _optimised_digest() == _OPTIMISED_DIGEST


def test_compiled_programs_on_four_configurations_print_the_pinned_bytes():
    assert _compiled_digest() == _COMPILED_DIGEST


# ---------------------------------------------------------------------------
# (c) canonical_program builds a renamed copy and leaves its input alone
# ---------------------------------------------------------------------------


def _reduced_kernels():
    """Three of the paper's reduced kernels: a helper taking a struct
    pointer (1d), a forward declaration with barriers in helpers (2c), and a
    group-id guard in a helper (2e) -- given scalar arguments, so their
    remapping is covered too."""
    with_scalars = figure_2e()
    with_scalars = dataclasses.replace(
        with_scalars, metadata={**with_scalars.metadata, "scalar_args": {"out": 3, "n": 5}}
    )
    return [figure_1d(), figure_2c(), with_scalars]


def _canonical_digests(program: ast.Program):
    """(sha256 of the canonical source, canonical shape hash)."""
    source, shape_hash = canonical_forms(program)
    return hashlib.sha256(source.encode()).hexdigest(), shape_hash


@pytest.mark.parametrize("index", range(3))
def test_canonical_forms_print_the_pinned_bytes(index):
    assert _canonical_digests(_reduced_kernels()[index]) == _CANONICAL_DIGESTS[index]


def test_canonical_program_leaves_its_input_untouched():
    for program in _reduced_kernels() + _generated()[:8]:
        fingerprint = program_fingerprint(program)  # fills the memo
        memo = dict(program._memo)
        printed = print_program(program)
        buffers = list(program.buffers)
        buffer_names = [buf.name for buf in buffers]
        metadata = dict(program.metadata)

        canon = canonical_program(program)
        assert canon is not program
        assert print_program(program) == printed
        assert all(new is old for new, old in zip(program.buffers, buffers))
        assert [buf.name for buf in program.buffers] == buffer_names
        assert program.metadata == metadata
        assert program._memo == memo
        assert program_fingerprint(program) == fingerprint
        # The copy starts with an empty memo.
        assert not hasattr(canon, "_memo")


#: Computed by the rewriters that rebuilt every node they walked.
_OPTIMISED_DIGEST = "75c34430b53194b4c3849de3429c0985de566367f3a288bb3f24ed0ec02e0c1c"
_COMPILED_DIGEST = "110d3ac187a398d583a8861f59ff0abdab02d850a2013c8813978ebbaf887195"
#: Computed by the canonical_program that renamed a deep copy in place.
_CANONICAL_DIGESTS = (
    (
        "ab2c7534e4ec271fc9a516eccdd9a18706dbcc94bf9c0c5b4005e5a6ffd72a95",
        "87567c879f073adf3f6ccd57351a7786f6a1880e39f0f954cd288fc3fa39b66a",
    ),
    (
        "49d13379fa7c16c101b700f742642740c157791f6908e4a838d6b629d3635576",
        "93fce084b928735e923bff9b89b6c82df52b4e3e0d3502ec8b090ee7ee2a5217",
    ),
    (
        "6e18a63754fa31a99ff6086f127de8804693a03bc90d0495e72af4ceeff08849",
        "2bffe4d7d9cb6b7ad7475aba6713209191fcb819c8ddb8918abb49b0a38ddbdf",
    ),
)
