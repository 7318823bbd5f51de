"""The compile memo's contract (see :mod:`repro.kernel_lang.ast`).

Compiling memoises what it derives from a program whatever the
configuration -- fingerprint, validation verdict, optimised program, feature
flags, named bug-model verdicts -- on the program object.  That is sound
only if copies never inherit a memo, a caller-supplied pipeline is never
answered from it, and no program is edited once compiled.  These tests
check all three, the last by running whole campaigns with every memo hit
recomputed and compared.
"""

import hashlib
import pickle
from collections import Counter

import pytest

from repro.compiler.driver import CompilerDriver
from repro.compiler.pipeline import Pipeline, default_pipeline
from repro.emi.variants import invert_dead_array, mark_base_fingerprint
from repro.generator import Mode, generate_kernel
from repro.generator.options import GeneratorOptions
from repro.kernel_lang import ast, printer
from repro.observability import TelemetryCollector
from repro.platforms import get_configuration
from repro.platforms.calibration import hash_host_setup, program_fingerprint
from repro.reduction.corpus import wrong_code_config
from repro.testing.campaign import run_clsmith_campaign, run_emi_campaign

_FAST = GeneratorOptions(min_total_threads=4, max_total_threads=12, max_group_size=4,
                         max_statements=6)


def _unmemoised_fingerprint(program: ast.Program) -> str:
    """Printed source plus host setup, bypassing every memo."""
    h = hashlib.sha256()
    h.update(printer.print_program(program).encode())
    hash_host_setup(h, program)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Copies start with an empty memo
# ---------------------------------------------------------------------------


def test_copies_of_a_fingerprinted_program_never_inherit_its_memo():
    program = generate_kernel(Mode.BASIC, seed=4, options=_FAST, emi_blocks=2)
    shipped = pickle.dumps(program)
    fingerprint = program_fingerprint(program)
    assert fingerprint == _unmemoised_fingerprint(program)

    inverted = invert_dead_array(program)
    edited = program.clone()
    del edited.kernel().body.statements[-1]
    restored = pickle.loads(pickle.dumps(program))
    for copy in (inverted, edited, restored):
        assert program_fingerprint(copy) == _unmemoised_fingerprint(copy)
    assert program_fingerprint(inverted) != fingerprint
    assert program_fingerprint(edited) != fingerprint
    # Pickled jobs and stored reproducers carry the program, not its memo.
    assert pickle.dumps(program) == shipped


# ---------------------------------------------------------------------------
# A caller-supplied pipeline bypasses the memo
# ---------------------------------------------------------------------------


def test_supplied_pipeline_is_run_not_answered_from_the_memo():
    program = generate_kernel(Mode.BASIC, seed=2, options=_FAST)
    driver = CompilerDriver()
    full = driver.compile(program, optimisations=True).program
    one_pass = Pipeline(default_pipeline().passes[:1])
    bisected = driver.compile(program, optimisations=True, pipeline=one_pass).program
    assert printer.print_program(bisected) == printer.print_program(one_pass.run(program))
    assert printer.print_program(bisected) != printer.print_program(full)


# ---------------------------------------------------------------------------
# mark_base_fingerprint leaves its (possibly compiled) argument alone
# ---------------------------------------------------------------------------


def test_marking_a_compiled_base_reaches_the_next_compile():
    """Configurations 9 and 19 key their wrong-code defect on the EMI base
    mark, so a compile after marking must see it -- even when the unmarked
    base was compiled first."""
    driver = CompilerDriver(get_configuration(9))
    base = generate_kernel(Mode.ALL, seed=1, options=_FAST, emi_blocks=2)
    before = driver.compile(base, optimisations=True)
    assert "emi_base_fingerprint" not in before.program.metadata

    marked = mark_base_fingerprint(base)
    assert "emi_base_fingerprint" not in base.metadata
    assert marked.metadata["emi_base_fingerprint"] == program_fingerprint(base)
    after = driver.compile(marked, optimisations=True)
    fresh = driver.compile(
        mark_base_fingerprint(
            generate_kernel(Mode.ALL, seed=1, options=_FAST, emi_blocks=2)
        ),
        optimisations=True,
    )
    assert after.program.metadata["emi_base_fingerprint"] == program_fingerprint(base)
    assert after.program == fresh.program
    assert after.execution_flags == fresh.execution_flags


# ---------------------------------------------------------------------------
# Whole campaigns with every memo hit recomputed
# ---------------------------------------------------------------------------


def _recompute_every_hit(monkeypatch) -> Counter:
    """Patch the memo's one lookup so that every hit is recomputed and
    compared with the memoised value; returns the hit count per fact."""
    original = ast.Program.memoised
    hits: Counter = Counter()

    def checked(program, key, compute):
        missed = []

        def first_time():
            missed.append(True)
            return compute()

        value = original(program, key, first_time)
        if not missed:
            hits[key[0] if isinstance(key, tuple) else key] += 1
            assert compute() == value, f"stale memo entry {key!r}"
        return value

    monkeypatch.setattr(ast.Program, "memoised", checked)
    return hits


def _rendered(result):
    text = result.render()
    if result.triage is not None:
        text += "\n" + result.triage.render_markdown()
    return text


def _clsmith():
    return run_clsmith_campaign(
        [get_configuration(i) for i in (1, 9, 14, 19)],
        kernels_per_mode=1, options=_FAST, max_steps=300_000, seed=3,
    )


def _curated():
    # Configuration 15 rejects this seed's first BARRIER candidate at opt+,
    # so curation runs twice and the second candidate, curated and swept as
    # one program object, is the kernel.
    telemetry = TelemetryCollector(sink=None)
    result = run_clsmith_campaign(
        [get_configuration(i) for i in (1, 14, 15)],
        kernels_per_mode=1, modes=(Mode.BARRIER,), options=_FAST,
        max_steps=300_000, seed=2, curate_on=get_configuration(15),
        telemetry=telemetry,
    )
    assert result.telemetry.jobs == 2
    return result


def _emi():
    return run_emi_campaign(
        [get_configuration(i) for i in (1, 9, 19)],
        n_bases=1, variants_per_base=3, options=_FAST, max_steps=300_000, seed=5,
    )


def _auto_triage():
    # The synthetic miscompiler guarantees an anomaly to reduce and bisect.
    configs = [get_configuration(i) for i in (1, 14, 19)] + [wrong_code_config()]
    result = run_clsmith_campaign(
        configs, kernels_per_mode=1, modes=(Mode.BASIC,), options=_FAST,
        max_steps=300_000, seed=2, auto_triage=True, reduce_budget=20,
    )
    assert result.triage.buckets
    return result


@pytest.mark.parametrize("campaign", [_clsmith, _curated, _emi, _auto_triage],
                         ids=["clsmith", "curated", "emi", "auto_triage"])
def test_campaign_renders_the_same_with_every_memo_hit_recomputed(campaign, monkeypatch):
    expected = _rendered(campaign())
    hits = _recompute_every_hit(monkeypatch)
    assert _rendered(campaign()) == expected
    assert hits["fingerprint"] and hits["validation"] and hits["optimised"]
    assert hits["census"]
    # Named bug-model verdicts, asked again by every configuration and by
    # both the front-end and the bug-model stage of each compile.
    assert hits["bug-model"]
