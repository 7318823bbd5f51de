"""Reduction candidates and EMI injections are path copies.

Every reduction pass builds each candidate from the current program, and
the EMI injector builds its injected kernel, by rebuilding only the path
from the program down to what they change: everything else is the input's
own object, and the input is left as it is (the no-edit contract of
:mod:`repro.kernel_lang.ast`).  These tests pin the bytes of every default
pass's candidate stream and of the injector's output -- digests computed
when candidates were deep copies edited in place, so path copying provably
changed no output -- and check, for every candidate and injected program,
that the input is left alone, that what the edit did not touch is shared,
and that no statement sits at two positions.
"""

import copy
import dataclasses
import functools
import hashlib
import random
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.emi.injector import EmiInjector, inject_emi_blocks
from repro.generator import Mode, generate_kernel
from repro.generator.options import GeneratorOptions
from repro.kernel_lang import ast
from repro.kernel_lang.printer import Printer, print_program, print_stmt
from repro.platforms.calibration import program_fingerprint
from repro.reduction.passes import DEFAULT_PASSES
from repro.testing.figures import FIGURE_EXPECTATIONS
from repro.workloads import race_free_workloads

#: The CLsmith benchmark workload's generator options.
_OPTIONS = GeneratorOptions(
    min_total_threads=4, max_total_threads=24, max_group_size=8, max_statements=8
)
_MODES = (Mode.BASIC, Mode.VECTOR, Mode.BARRIER, Mode.ATOMIC_SECTION, Mode.ALL)


def _injected(program: ast.Program, index: int) -> ast.Program:
    return inject_emi_blocks(program, seed=index, n_blocks=2, substitutions=bool(index % 2))


def _emptied(program: ast.Program) -> ast.Program:
    """``program`` with an empty kernel body, so that every kernel parameter
    is dead (no other input gives the dead-params pass anything to do)."""
    kernel = program.kernel()
    emptied = dataclasses.replace(kernel, body=ast.Block([]))
    return dataclasses.replace(
        program, functions=[emptied if fn is kernel else fn for fn in program.functions]
    )


#: The reduction inputs: generated kernels, the Figure 1/2 gallery, the
#: race-free Table 3 workloads, an EMI-injected copy of each and a copy of
#: each with its kernel body emptied.
_PROGRAM_SETS = {
    "generated": lambda: [
        generate_kernel(mode, seed, options=_OPTIONS) for seed in range(10) for mode in _MODES
    ],
    "gallery": lambda: [expectation.builder() for expectation in FIGURE_EXPECTATIONS],
    "workloads": lambda: [workload.program() for workload in race_free_workloads()],
    "injected": lambda: [
        _injected(workload.program(), index)
        for index, workload in enumerate(race_free_workloads())
    ],
    "emptied": lambda: [_emptied(workload.program()) for workload in race_free_workloads()],
}

_PASS_NAMES = [pass_.name for pass_ in DEFAULT_PASSES]


@functools.lru_cache(maxsize=None)
def _programs(set_name: str) -> Tuple[ast.Program, ...]:
    # Shared by every test below, which is sound only because nothing edits
    # a program once built -- what these tests check.
    return tuple(_PROGRAM_SETS[set_name]())


def _describe(program: ast.Program) -> bytes:
    """What a pin covers: printed source, buffers, launch and metadata."""
    host = (program.buffers, program.launch, program.metadata)
    return "\n".join([print_program(program)] + [repr(part) for part in host]).encode()


def _print_function(fn: ast.FunctionDecl) -> str:
    printer = Printer()
    printer.function(fn)
    return printer.text()


def _fresh_copies(old, new, show) -> List[str]:
    """Elements of ``new`` that are new objects yet equal an element of
    ``old`` that ``new`` no longer holds: an untouched node that was copied
    instead of shared.  (Equality checks identity first, so comparing a path
    copy with its original walks only the rebuilt path.)"""
    old_ids = {id(x) for x in old}
    new_ids = {id(x) for x in new}
    dropped = [x for x in old if id(x) not in new_ids]
    return [
        show(x) for x in new if id(x) not in old_ids and any(x == d for d in dropped)
    ]


def _unshared(before: ast.Program, after: ast.Program) -> List[str]:
    """Parts of ``after`` copied although the edit that derived it from
    ``before`` did not touch them: functions, buffers and the launch, and --
    when the kernel was rebuilt -- its body and top-level statements."""
    problems = _fresh_copies(before.functions, after.functions, _print_function)
    problems += _fresh_copies(before.buffers, after.buffers, repr)
    problems += _fresh_copies([before.launch], [after.launch], repr)
    old_kernel, new_kernel = before.kernel(), after.kernel()
    if new_kernel is not old_kernel:
        problems += _fresh_copies([old_kernel.body], [new_kernel.body], print_stmt)
        problems += _fresh_copies(
            old_kernel.body.statements, new_kernel.body.statements, print_stmt
        )
    return problems


def _statements(node: ast.Node) -> Iterator[ast.Stmt]:
    """Every statement position under ``node``, in pre-order (statements
    never sit inside expressions, so expressions are not entered)."""
    for child in node.children():
        if isinstance(child, ast.Expr):
            continue
        if isinstance(child, ast.Stmt):
            yield child
        yield from _statements(child)


def _two_positions(program: ast.Program) -> List[str]:
    """Statements reachable at more than one position of ``program``.

    Only statements are checked.  Expressions may repeat -- Figure 1(b)
    places one ``IntLiteral`` object in several ``InitList``s -- and that is
    harmless, because every edit addresses a statement.
    """
    seen = set()
    repeated = []
    for stmt in _statements(program):
        if id(stmt) in seen:
            repeated.append(print_stmt(stmt))
        seen.add(id(stmt))
    return repeated


def _edits(program: ast.Program, snapshot: ast.Program, fingerprint: str) -> List[str]:
    """How ``program`` differs from ``snapshot``, the deep copy taken before
    it was used: its contents, or a memoised fingerprint that no longer
    matches a fresh print (``snapshot`` starts with an empty memo)."""
    if program != snapshot:
        return ["edited"]
    if program_fingerprint(program) != fingerprint:
        return ["fingerprint memo replaced"]
    return []


@dataclasses.dataclass
class _Stream:
    """One pass's candidates over every input set, digested and checked."""

    pins: Dict[str, Tuple[int, str]] = dataclasses.field(default_factory=dict)
    edited_inputs: List[str] = dataclasses.field(default_factory=list)
    unshared: List[str] = dataclasses.field(default_factory=list)
    two_positions: List[str] = dataclasses.field(default_factory=list)


@functools.lru_cache(maxsize=None)
def _stream(pass_name: str) -> _Stream:
    pass_ = next(p for p in DEFAULT_PASSES if p.name == pass_name)
    stream = _Stream()
    for set_name in _PROGRAM_SETS:
        digest = hashlib.sha256()
        count = 0
        for index, program in enumerate(_programs(set_name)):
            where = f"{set_name}[{index}]"
            fingerprint = program_fingerprint(program)  # fills the memo
            snapshot = copy.deepcopy(program)
            for candidate in pass_.candidates(program, random.Random(index)):
                count += 1
                digest.update(_describe(candidate))
                stream.edited_inputs += [
                    f"{where}, candidate {count}: {edit}"
                    for edit in _edits(program, snapshot, fingerprint)
                ]
                stream.unshared += [
                    f"{where}: {text!r}" for text in _unshared(program, candidate)
                ]
                stream.two_positions += [
                    f"{where}: {text!r}" for text in _two_positions(candidate)
                ]
            if program_fingerprint(snapshot) != fingerprint:
                stream.edited_inputs.append(f"{where}: memoised fingerprint is stale")
        stream.pins[set_name] = (count, digest.hexdigest())
    return stream


@pytest.mark.parametrize("pass_name", _PASS_NAMES)
def test_candidate_streams_print_the_pinned_bytes(pass_name):
    assert _stream(pass_name).pins == _CANDIDATE_PINS[pass_name]


@pytest.mark.parametrize("pass_name", _PASS_NAMES)
def test_candidates_leave_their_input_alone(pass_name):
    assert _stream(pass_name).edited_inputs == []


@pytest.mark.parametrize("pass_name", _PASS_NAMES)
def test_candidates_share_what_the_edit_did_not_touch(pass_name):
    assert _stream(pass_name).unshared == []


@pytest.mark.parametrize("pass_name", _PASS_NAMES)
def test_no_candidate_statement_sits_at_two_positions(pass_name):
    assert _stream(pass_name).two_positions == []


# ---------------------------------------------------------------------------
# The EMI injector
# ---------------------------------------------------------------------------

#: ``(seed, n_blocks, substitutions)`` of each injection, per workload.
_INJECTIONS = [
    (seed, n_blocks, substitutions)
    for seed in range(3)
    for n_blocks in (1, 2)
    for substitutions in (False, True)
]


@functools.lru_cache(maxsize=None)
def _injections() -> Tuple[Tuple[ast.Program, ast.Program, str], ...]:
    """``(input, injected, report)`` of every injection."""
    out = []
    for program in _programs("workloads"):
        for seed, n_blocks, substitutions in _INJECTIONS:
            injector = EmiInjector(seed=seed, n_blocks=n_blocks, substitutions=substitutions)
            injected, report = injector.inject(program)
            out.append((program, injected, repr(report)))
    return tuple(out)


def test_injector_output_prints_the_pinned_bytes():
    digest = hashlib.sha256()
    for _, injected, report in _injections():
        digest.update(_describe(injected))
        digest.update(report.encode())
    assert digest.hexdigest() == _INJECTOR_PIN


def test_injector_leaves_its_input_alone_and_shares_what_it_does_not_edit():
    for program in _programs("workloads"):
        fingerprint = program_fingerprint(program)
        snapshot = copy.deepcopy(program)
        kernel = program.kernel()
        for seed, n_blocks, substitutions in _INJECTIONS:
            injector = EmiInjector(seed=seed, n_blocks=n_blocks, substitutions=substitutions)
            injected, _ = injector.inject(program)
            assert _edits(program, snapshot, fingerprint) == []
            for new_fn, old_fn in zip(injected.functions, program.functions):
                assert (new_fn is old_fn) == (old_fn is not kernel), old_fn.name
            # Each of the kernel's statements keeps its object and order.
            inserted = injected.kernel().body.statements
            kept = [
                s for s in inserted if not (isinstance(s, ast.IfStmt) and s.emi_marker is not None)
            ]
            assert len(kept) == len(kernel.body.statements)
            assert all(new is old for new, old in zip(kept, kernel.body.statements))
            assert _two_positions(injected) == []
        assert program_fingerprint(snapshot) == fingerprint


#: Computed by the passes that deep-copied the program for every candidate
#: and edited the copy: ``{pass: {input set: (candidates, sha256)}}``.
_CANDIDATE_PINS: Dict[str, Dict[str, Tuple[int, str]]] = {
    "compound-delete": {
        "generated": (309, "02af993eb7a0a598d383da49e3c49250756593336cfd7f24fab70408259895b3"),
        "gallery": (8, "f3fdce2d24e10aefa0fd7dfad4a65e15dbacf5824a7604020655d9d40e1c528a"),
        "workloads": (13, "31fd502e6a5d79ccbba17dca776b99981fde4a1d51b4f8beb3ee958664cc7bf1"),
        "injected": (48, "c65eac99f74eda6f789be49435fc77535a87e9d15b50f6dcd85c367e46013349"),
        "emptied": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "ddmin-stmts": {
        "generated": (4151, "6f929800b479d0f03a9d869022bf00fa7d7a2e87a2cabb408c60198545ad287c"),
        "gallery": (68, "6ba13055844bef7c3b2ca2a56426ee5fa6c364f63c9bce5ad1f4d99df5132db8"),
        "workloads": (80, "7978aed0e5a077bdebf89a231702a0e81ea8b0fcf8b30500f602e0dedbf4189f"),
        "injected": (264, "5b67155e01ae9838b54084db538ef4af63a4940d0751eb997930660e05e36a79"),
        "emptied": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "child-lift": {
        "generated": (309, "acdc9315d60b38645d5a6bd15c667968c9e9d6e94cc471bb5d31853ec21b50ac"),
        "gallery": (8, "f9eeba3b48e26c66d1805766fbb627609a331867ddb1b1a24bde420f365950d3"),
        "workloads": (13, "5d3f02f0cb9aaff29d5e7308fd79ca7faf97b5396766bdca670f3251fb2313bf"),
        "injected": (48, "b7e255207bc2dcc944f990807e484511f54e0d64dca989e77eb5a60331261287"),
        "emptied": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "function-prune": {
        "generated": (84, "f29c2267afd6df5df8845e3f5a6d3c0a35982801d48a7a4f1929c25e8118a400"),
        "gallery": (2, "a1ca3be6891322ebc9136ee1ae61ccfe48dccdd1c9e1abe73d204a327a2ac61c"),
        "workloads": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "injected": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "emptied": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "dead-params": {
        "generated": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "gallery": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "workloads": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "injected": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        "emptied": (27, "1b98e1d039ebee6a25c78fac14d973d3551262c0f64feebd3e21fa6939154034"),
    },
    "loop-shrink": {
        "generated": (137, "340f6aa6f5414f4c0dadb9bb34b1bab7616c31fdaa1fc81421ba33cec3ee1820"),
        "gallery": (3, "7ecc9e2aa5666679bac5d39f443847a8c025b893300bf9726ae6825554a257f6"),
        "workloads": (15, "d4491c178d69a4b55b069506710aa7f7be3f9f4ca1be281521d936285668e232"),
        "injected": (26, "697f95ab428f763b367a4b630b65b8c6c75794a2cc56d79d124df7870cb8af9d"),
        "emptied": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "expr-to-literal": {
        "generated": (5200, "ad31c8e918dfeb796606198ab8b4bb97f275bea6263730af630de20e1ee85236"),
        "gallery": (80, "c457028ada9cbd9ab21f6e3ad6bb8464e72e7ef778cb613c96fb1debfeb79c06"),
        "workloads": (168, "9248fcf1376d9c75ed866840c5af2c1d579f75c3d4cf5379ea9cb47ccc7ab770"),
        "injected": (376, "32f254150a9850649bbb33c0bfc262c0e6fefedeb2321cb71baa1b3c90ac6264"),
        "emptied": (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    },
    "grid-shrink": {
        "generated": (94, "d1f0015289545284da2eb4580bcab2dfd1452e590b035f2da2a05947394c8879"),
        "gallery": (7, "d837a4c75503a926c038fca5bb3c176bd7846416c583617699a2b43245a13206"),
        "workloads": (24, "f9930886faf0dbd05cc2b251e066159ce4b9fed01e7632bb5908c51e3ef6601c"),
        "injected": (29, "82242326bfcd3ac7acae096d77869a09c2d334e41e2ded2ad484fa7c1fe88cd1"),
        "emptied": (24, "d4844ff461488321de501ab0694991ccf27d9ab04a78e757884a25dbf91cdf54"),
    },
}

#: Computed by the injector that deep-copied its input and edited the copy.
_INJECTOR_PIN = "78bceae38484e89d54db0ef2fa6c7475f0230912405ca4a9b7108a3bcd35e6c5"
