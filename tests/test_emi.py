"""Tests for EMI machinery: pruning strategies, the variant grid, dead-array
inversion and injection into existing (workload) kernels."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler.driver import CompilerDriver
from repro.emi import (
    PRUNING_GRID,
    EmiInjector,
    PruningConfig,
    generate_variants,
    inject_emi_blocks,
    invert_dead_array,
    mark_base_fingerprint,
    prune_program,
)
from repro.emi.pruning import count_emi_statements
from repro.generator import Mode, generate_kernel
from repro.generator.options import GeneratorOptions
from repro.kernel_lang import ast, printer
from repro.kernel_lang.semantics import validate_program
from repro.platforms import get_configuration
from repro.platforms.calibration import program_fingerprint
from repro.runtime.device import run_program
from repro.workloads import get_workload

_FAST = GeneratorOptions(min_total_threads=4, max_total_threads=16, max_group_size=4,
                         max_statements=6)


def _base(seed=0, blocks=3):
    return generate_kernel(Mode.BASIC, seed=seed, options=_FAST, emi_blocks=blocks)


# ---------------------------------------------------------------------------
# Pruning configuration and grid
# ---------------------------------------------------------------------------


def test_pruning_config_validation_and_adjusted_lift():
    with pytest.raises(ValueError):
        PruningConfig(p_leaf=1.5)
    with pytest.raises(ValueError):
        PruningConfig(p_compound=0.6, p_lift=0.6)
    config = PruningConfig(p_leaf=0.3, p_compound=0.3, p_lift=0.6)
    assert config.adjusted_lift == pytest.approx(0.6 / 0.7)
    assert PruningConfig(p_compound=1.0, p_lift=0.0).adjusted_lift == 0.0


def test_pruning_grid_has_40_points_as_in_the_paper():
    assert len(PRUNING_GRID) == 40
    assert all(c.p_compound + c.p_lift <= 1.0 + 1e-9 for c in PRUNING_GRID)
    assert len({c.label() for c in PRUNING_GRID}) == 40


# ---------------------------------------------------------------------------
# Pruning behaviour
# ---------------------------------------------------------------------------


def test_prune_everything_empties_emi_blocks():
    base = _base()
    pruned = prune_program(base, PruningConfig(p_leaf=1.0, p_compound=1.0), seed=1)
    assert count_emi_statements(pruned) < count_emi_statements(base)
    for node in pruned.kernel().body.walk():
        if isinstance(node, ast.IfStmt) and node.emi_marker is not None:
            assert node.then_block.statements == []


def test_prune_nothing_is_identity_on_emi_blocks():
    base = _base()
    pruned = prune_program(base, PruningConfig(), seed=1)
    assert count_emi_statements(pruned) == count_emi_statements(base)
    assert printer.print_program(pruned).replace(" /* EMI block", "#") .count("#") == \
        printer.print_program(base).replace(" /* EMI block", "#").count("#")


def test_pruning_never_touches_live_code():
    base = _base()
    live_statements = [
        s for s in base.kernel().body.statements
        if not (isinstance(s, ast.IfStmt) and s.emi_marker is not None)
    ]
    pruned = prune_program(base, PruningConfig(p_leaf=1.0, p_compound=1.0, p_lift=0.0), seed=2)
    pruned_live = [
        s for s in pruned.kernel().body.statements
        if not (isinstance(s, ast.IfStmt) and s.emi_marker is not None)
    ]
    assert len(pruned_live) == len(live_statements)


def test_pruned_variants_remain_valid_and_equivalent():
    base = _base(seed=3)
    reference = run_program(base).outputs
    for index, config in enumerate(PRUNING_GRID[::7]):
        variant = prune_program(base, config, seed=index)
        assert validate_program(variant) == []
        assert run_program(variant).outputs == reference


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000),
       leaf=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
       compound=st.sampled_from([0.0, 0.3, 0.6]),
       lift=st.sampled_from([0.0, 0.3]))
def test_pruning_preserves_semantics_property(seed, leaf, compound, lift):
    base = _base(seed=seed % 5, blocks=2)
    variant = prune_program(base, PruningConfig(leaf, compound, lift), seed=seed)
    assert run_program(variant).outputs == run_program(base).outputs


def test_lift_pruning_removes_outer_loop_control():
    # Build an EMI block containing a for loop with a break, then force lift.
    base = _base(seed=4)
    lifted = prune_program(base, PruningConfig(p_leaf=0.0, p_compound=0.0, p_lift=1.0), seed=9)
    # After lifting there must be no break/continue directly inside an EMI
    # block that is not nested in a loop.
    for node in lifted.kernel().body.walk():
        if isinstance(node, ast.IfStmt) and node.emi_marker is not None:
            for stmt in node.then_block.statements:
                assert not isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt))
    assert run_program(lifted).outputs == run_program(base).outputs


# ---------------------------------------------------------------------------
# Variant generation and dead-array inversion
# ---------------------------------------------------------------------------


def test_generate_variants_produces_grid_sized_family_with_metadata():
    base = mark_base_fingerprint(_base(seed=5))
    variants = generate_variants(base)
    assert len(variants) == 40
    fingerprints = {v.metadata["emi_base_fingerprint"] for v in variants}
    assert fingerprints == {base.metadata["emi_base_fingerprint"]}
    assert sorted(v.metadata["emi_variant_index"] for v in variants) == list(range(40))
    # Variant i depends only on grid point i and seed + i, so a sliced grid
    # builds exactly the first n variants of the whole family.
    for seed in (0, 9):
        family = generate_variants(base, seed=seed)
        for n in (1, 5, 12, 40):
            sliced = generate_variants(base, PRUNING_GRID[:n], seed=seed)
            assert [printer.print_program(v) for v in sliced] == \
                [printer.print_program(v) for v in family[:n]]
            assert [v.metadata for v in sliced] == [v.metadata for v in family[:n]]


def _holds_emi_block(stmt):
    return any(isinstance(n, ast.IfStmt) and n.emi_marker is not None
               for n in stmt.walk())


def test_variants_and_inversion_are_path_copies_of_an_untouched_base():
    """Variants share every subtree outside their EMI blocks with the base,
    and the inverted program shares its functions; none of them may edit the
    base, which was compiled and fingerprinted before they were built."""
    base = mark_base_fingerprint(_base(seed=5))
    fingerprint = program_fingerprint(base)
    CompilerDriver(get_configuration(1)).compile(base, optimisations=True)
    variants = generate_variants(base)
    inverted = invert_dead_array(base)

    fresh = mark_base_fingerprint(_base(seed=5))
    assert printer.print_program(base) == printer.print_program(fresh)
    assert base.metadata == fresh.metadata
    assert [b.init for b in base.buffers] == [b.init for b in fresh.buffers]
    assert program_fingerprint(base) == fingerprint == program_fingerprint(fresh)

    statements = base.kernel().body.statements
    untouched = [i for i, stmt in enumerate(statements) if not _holds_emi_block(stmt)]
    assert untouched
    for variant in variants:
        assert all(variant.kernel().body.statements[i] is statements[i]
                   for i in untouched)
    assert all(f is g for f, g in zip(inverted.functions, base.functions))


def test_invert_dead_array_changes_initialisation_only():
    base = _base(seed=6)
    inverted = invert_dead_array(base)
    assert base.buffer("dead").init == "iota"
    assert inverted.buffer("dead").init == "iota_inverted"
    assert inverted.metadata["dead_array_inverted"] is True
    # Inverting the array makes the EMI guards true, so results may change,
    # but the program must stay well defined.
    run_program(inverted, check_races=True)


# ---------------------------------------------------------------------------
# Injection into workload kernels
# ---------------------------------------------------------------------------


def test_injection_adds_dead_buffer_and_blocks():
    program = get_workload("hotspot").program()
    injected, report = EmiInjector(seed=1, n_blocks=2).inject(program)
    assert report.n_blocks == 2
    assert any(b.name == "dead" for b in injected.buffers)
    assert any(p.name == "dead" for p in injected.kernel().params)
    blocks = [n for n in injected.kernel().body.walk()
              if isinstance(n, ast.IfStmt) and n.emi_marker is not None]
    assert len(blocks) == 2
    # The original program is untouched.
    assert not any(b.name == "dead" for b in program.buffers)


def test_injection_preserves_workload_results():
    program = get_workload("sad").program()
    reference = run_program(program).outputs
    for substitutions in (False, True):
        injected = inject_emi_blocks(program, seed=3, n_blocks=2,
                                     substitutions=substitutions)
        assert validate_program(injected) == []
        outputs = run_program(injected).outputs
        assert outputs["out"] == reference["out"]


def test_injection_with_substitutions_aliases_live_variables():
    program = get_workload("cutcp").program()
    injected, report = EmiInjector(seed=7, n_blocks=1, substitutions=True).inject(program)
    assert report.substitutions
    assert report.aliased_variables, "substitution mode must alias at least one live variable"
    declared = {s.name for s in injected.kernel().body.walk() if isinstance(s, ast.DeclStmt)}
    assert set(report.aliased_variables) <= declared


def test_injection_then_pruning_round_trip():
    program = get_workload("pathfinder").program()
    reference = run_program(program).outputs
    injected = inject_emi_blocks(program, seed=11, n_blocks=2, substitutions=True)
    for config in (PruningConfig(1.0, 0.0, 0.0), PruningConfig(0.0, 1.0, 0.0),
                   PruningConfig(0.3, 0.3, 0.3)):
        variant = prune_program(injected, config, seed=5)
        assert run_program(variant).outputs["out"] == reference["out"]
