"""Tests for outcome classification, the differential and EMI harnesses,
reliability classification and campaign orchestration."""

import pytest

from repro.generator import Mode, generate_kernel
from repro.generator.options import GeneratorOptions
from repro.emi import generate_variants
from repro.orchestration.cache import ResultCache
from repro.platforms import all_configurations, get_configuration
from repro.runtime.errors import (
    BuildFailure,
    CompileTimeout,
    DataRaceError,
    ExecutionTimeout,
    RuntimeCrash,
)
from repro.testing.campaign import (
    generate_emi_bases,
    run_clsmith_campaign,
    run_emi_campaign,
    worst_code,
)
from repro.testing.differential import MAJORITY_THRESHOLD, DifferentialHarness
from repro.testing.emi_harness import EmiBaseResult, EmiHarness
from repro.testing.figures import figure_program
from repro.testing.outcomes import Outcome, OutcomeCounts, classify_exception
from repro.testing.reliability import FAILURE_THRESHOLD, ReliabilityClassifier

_FAST = GeneratorOptions(min_total_threads=4, max_total_threads=12, max_group_size=4,
                         max_statements=5)


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------


def test_exception_classification():
    assert classify_exception(BuildFailure("x")) is Outcome.BUILD_FAILURE
    assert classify_exception(CompileTimeout()) is Outcome.TIMEOUT
    assert classify_exception(ExecutionTimeout()) is Outcome.TIMEOUT
    assert classify_exception(RuntimeCrash()) is Outcome.RUNTIME_CRASH
    assert classify_exception(DataRaceError("r")) is Outcome.UNDEFINED_BEHAVIOUR


def test_outcome_counts_and_wrong_code_percentage():
    counts = OutcomeCounts()
    for outcome in (Outcome.PASS, Outcome.PASS, Outcome.WRONG_CODE, Outcome.BUILD_FAILURE,
                    Outcome.TIMEOUT):
        counts.add(outcome)
    assert counts.total == 5
    assert counts.computed_results == 3
    assert counts.wrong_code_percentage == pytest.approx(100.0 / 3)
    assert counts.failure_fraction == pytest.approx(2 / 5)
    merged = counts.merge(counts)
    assert merged.total == 10
    assert counts.as_dict()["w"] == 1


def test_worst_code_ordering_matches_table3():
    assert worst_code(["ok", "to", "w"]) == "w"
    assert worst_code(["ok", "ng"]) == "ng"
    assert worst_code(["ok", "c", "to"]) == "c"
    assert worst_code(["ok"]) == "ok"


def test_worst_code_ranks_build_failure_between_wrong_code_and_crash():
    """Regression: "bf" was missing from the severity table, so a build
    failure ranked *below* a clean pass.  Table 3's legend puts it above every
    crash-free outcome and below wrong code."""
    assert worst_code(["ok", "bf"]) == "bf"
    assert worst_code(["to", "bf", "c"]) == "bf"
    assert worst_code(["bf", "w"]) == "w"
    assert worst_code(["bf", "ng", "ok"]) == "bf"


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------


def test_differential_flags_minority_as_wrong_code():
    # Figure 1(a) on: reference + three NVIDIA configs (correct) + AMD config 5
    # (miscompiles with optimisations) -> config 5+ must be the odd one out.
    configs = [None, get_configuration(1), get_configuration(3), get_configuration(5)]
    harness = DifferentialHarness(configs, optimisation_levels=(True,))
    result = harness.run(figure_program("1a"))
    assert result.majority_size >= MAJORITY_THRESHOLD
    wrong = {r.config_name for r in result.wrong_code_records}
    assert wrong == {"config5"}
    assert result.record_for("config1", True).outcome is Outcome.PASS


def test_differential_requires_majority_of_three():
    harness = DifferentialHarness([None], optimisation_levels=(True,))
    result = harness.run(figure_program("1a"))
    assert not result.has_mismatch
    assert result.majority_size == 1


def test_differential_records_build_failures_and_timeouts():
    configs = [None, get_configuration(20), get_configuration(7)]
    harness = DifferentialHarness(configs, optimisation_levels=(True,))
    result_1c = harness.run(figure_program("1c"))
    assert result_1c.record_for("config20", True).outcome is Outcome.BUILD_FAILURE
    result_1e = harness.run(figure_program("1e"))
    assert result_1e.record_for("config7", True).outcome is Outcome.TIMEOUT


def test_differential_majority_tie_break_is_order_independent():
    """A 2-2 split must elect the same reference value no matter in which
    order the configurations voted (count desc, then value asc)."""
    assert DifferentialHarness._majority(["a", "a", "b", "b"]) == ("a", 2)
    assert DifferentialHarness._majority(["b", "b", "a", "a"]) == ("a", 2)
    assert DifferentialHarness._majority(["b", "a", "b", "a"]) == ("a", 2)
    assert DifferentialHarness._majority([]) == (None, 0)
    # A strict majority still wins regardless of value ordering.
    assert DifferentialHarness._majority(["b", "b", "a"]) == ("b", 2)


def test_differential_result_cache_is_transparent():
    program = generate_kernel(Mode.BASIC, seed=1, options=_FAST)
    cached = DifferentialHarness([None, get_configuration(1)]).run(program)
    # A zero-sized cache stores nothing, so every cell executes.
    uncached_harness = DifferentialHarness([None, get_configuration(1)], cache=ResultCache(0))
    uncached = uncached_harness.run(program)
    assert [r.outcome for r in cached.records] == [r.outcome for r in uncached.records]
    assert uncached_harness.cache.stats.hits == 0


# ---------------------------------------------------------------------------
# EMI harness
# ---------------------------------------------------------------------------


def test_emi_harness_stable_family_on_reference():
    base = generate_emi_bases(1, seed=3, options=_FAST)[0]
    variants = [base] + generate_variants(base)[:6]
    summary = EmiHarness().run_family(variants, None, optimisations=True)
    assert summary.stable and not summary.wrong_code and not summary.bad_base
    assert summary.distinct_values == 1
    assert summary.worst_outcome == "ok"


def test_emi_base_result_worst_outcome_reports_build_failure_as_bf():
    """worst_outcome follows the Table 3 severity order w > bf > c > to > ng,
    so an induced build failure outranks crashes and timeouts."""
    summary = EmiBaseResult(
        config_name="config20", optimisations=True,
        variant_outcomes=[Outcome.BUILD_FAILURE, Outcome.RUNTIME_CRASH, Outcome.PASS],
        distinct_values=1, bad_base=False, wrong_code=False,
        induced_build_failure=True, induced_crash=True, induced_timeout=True,
        stable=False,
    )
    assert summary.worst_outcome == "bf"
    assert worst_code([summary.worst_outcome, "c", "ok"]) == "bf"


def test_emi_harness_detects_comma_defect_is_invisible_to_emi():
    """Oclgrind's wrong code is not optimisation-sensitive, so EMI families
    agree with each other even though they all differ from the reference
    (paper section 7.4's explanation for Table 5's zeros on config 19)."""
    base = generate_emi_bases(1, seed=5, options=_FAST)[0]
    variants = [base] + generate_variants(base)[:6]
    summary = EmiHarness().run_family(variants, get_configuration(19), optimisations=False)
    assert not summary.wrong_code


def test_emi_harness_run_single_is_public_and_classifies_outcomes():
    """generate_emi_bases used to reach into the private ``_run_one``; the
    public ``run_single`` covers that use."""
    harness = EmiHarness()
    program = generate_kernel(Mode.BASIC, seed=1, options=_FAST)
    outcome, result = harness.run_cell(program, None, True)
    assert outcome is Outcome.PASS and result is not None
    failing_outcome, failing_result = harness.run_cell(
        figure_program("1c"), get_configuration(20), True
    )
    assert failing_outcome is Outcome.BUILD_FAILURE and failing_result is None


def test_emi_harness_compare_expected_detects_wrong_code():
    harness = EmiHarness()
    program = figure_program("1d")
    from repro.compiler import compile_program

    expected = compile_program(program).run()
    outcome = harness.compare_expected(program, expected, get_configuration(17), True)
    assert outcome is Outcome.WRONG_CODE
    reference_outcome = harness.compare_expected(program, expected, None, True)
    assert reference_outcome is Outcome.PASS


# ---------------------------------------------------------------------------
# Reliability classification (Table 1) and campaigns (Tables 4 and 5)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_reliability_report():
    configs = [get_configuration(i) for i in (1, 5, 9, 19, 21)]
    classifier = ReliabilityClassifier(configs, kernels_per_mode=2,
                                       modes=(Mode.BASIC, Mode.BARRIER),
                                       options=_FAST, max_steps=300_000)
    return classifier.classify()


def test_reliability_classifier_separates_good_and_bad_configs(small_reliability_report):
    classification = small_reliability_report.classification()
    assert classification[1] is True
    assert classification[21] is False
    rows = small_reliability_report.table_rows()
    assert len(rows) == 5
    assert all("measured_failure_fraction" in row for row in rows)
    assert 0.0 <= FAILURE_THRESHOLD <= 1.0


def test_clsmith_campaign_produces_table4_shaped_rows():
    configs = [get_configuration(i) for i in (1, 9)]
    result = run_clsmith_campaign(configs, kernels_per_mode=2,
                                  modes=(Mode.BASIC, Mode.VECTOR), options=_FAST,
                                  max_steps=300_000)
    rows = result.table_rows()
    assert len(rows) == 2 * 2 * 2  # modes x configs x opt levels
    rendered = result.render()
    assert "config1+" in rendered and "w%" in rendered
    for row in rows:
        assert row["w"] + row["bf"] + row["c"] + row["to"] + row["ok"] + row["ub"] == 2


def test_emi_campaign_produces_table5_shaped_rows():
    configs = [get_configuration(1), get_configuration(19)]
    result = run_emi_campaign(configs, n_bases=2, variants_per_base=4,
                              optimisation_levels=(True,), options=_FAST,
                              max_steps=300_000, seed=2)
    assert result.n_bases == 2
    # Regression: n_variants used to report len(family) of the *last* base
    # (base + variants, off by one); it must be the per-base variant count.
    assert result.n_variants == 4
    for (_, _), row in result.rows.items():
        total = row["base_fails"] + row["w"] + row["stable"]
        assert total <= 2 + row["bf"] + row["c"] + row["to"] + 2
    assert "base fails" in result.render()


@pytest.mark.parametrize("variants_per_base", [-1, 0, 41])
def test_emi_campaign_rejects_out_of_range_variants_per_base(tmp_path, variants_per_base):
    """-1 would run 39 variants, 0 base-only families that can never show
    wrong code yet count as stable, and 41 would run 40 variants under a
    store key recording 41.  The check fires before the store is opened."""
    path = tmp_path / "store.jsonl"
    with pytest.raises(ValueError, match="variants_per_base must be None or 1..40"):
        run_emi_campaign([get_configuration(1)], n_bases=1,
                         variants_per_base=variants_per_base,
                         optimisation_levels=(True,), options=_FAST,
                         max_steps=300_000, resume=str(path))
    assert not path.exists()


@pytest.mark.parametrize("entry", [run_clsmith_campaign, run_emi_campaign])
@pytest.mark.parametrize("budget, value", [
    pytest.param("reduce_budget", 0, id="0"),
    pytest.param("reduce_budget", -5, id="-5"),
    pytest.param("max_steps", 0, id="max_steps=0"),
    pytest.param("max_steps", -1, id="max_steps=-1"),
])
def test_campaigns_reject_reduce_budget_below_one(tmp_path, entry, budget, value):
    """A reduction budget below 1 cannot pay for one evaluation, and a step
    budget below 1 used to fill every clsmith cell with ``to`` and leave the
    EMI table empty.  The check fires before the store is opened or a kernel
    runs."""
    path = tmp_path / "store.jsonl"
    kwargs = dict(max_steps=300_000, auto_reduce=True, resume=str(path))
    kwargs[budget] = value
    with pytest.raises(ValueError, match=f"{budget} must be (None or )?at least 1"):
        entry([get_configuration(1)], options=_FAST, **kwargs)
    assert not path.exists()


@pytest.mark.parametrize("entry, size, value", [
    pytest.param(run_clsmith_campaign, "kernels_per_mode", 0, id="kernels_per_mode=0"),
    pytest.param(run_clsmith_campaign, "kernels_per_mode", -2, id="kernels_per_mode=-2"),
    pytest.param(run_emi_campaign, "n_bases", 0, id="n_bases=0"),
    pytest.param(run_emi_campaign, "n_bases", -1, id="n_bases=-1"),
])
def test_campaigns_reject_sizes_below_one(tmp_path, monkeypatch, entry, size, value):
    """``kernels_per_mode=-2`` used to run an empty campaign, record it in
    the store and report -2 kernels per mode, and ``n_bases=-1`` reported
    ``n_bases == 0``.  The check fires before the store is opened or the
    worker pool starts."""
    import repro.testing.campaign as campaign

    def no_pool(*args, **kwargs):
        raise AssertionError("the worker pool was started")

    monkeypatch.setattr(campaign, "WorkerPool", no_pool)
    path = tmp_path / "store.jsonl"
    with pytest.raises(ValueError, match=f"{size} must be at least 1, got {value}"):
        entry([get_configuration(1)], options=_FAST, max_steps=300_000,
              resume=str(path), **{size: value})
    assert not path.exists()


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if a campaign starts its worker pool."""
    import repro.testing.campaign as campaign

    def fail(*args, **kwargs):
        raise AssertionError("the worker pool was started")

    monkeypatch.setattr(campaign, "WorkerPool", fail)


@pytest.mark.parametrize("entry, empty", [
    pytest.param(run_clsmith_campaign, dict(configs=[]), id="clsmith-configs=[]"),
    pytest.param(run_clsmith_campaign, dict(modes=()), id="modes=()"),
    pytest.param(run_emi_campaign, dict(configs=[]), id="emi-configs=[]"),
    pytest.param(run_emi_campaign, dict(optimisation_levels=()),
                 id="optimisation_levels=()"),
    pytest.param(run_emi_campaign, dict(bases=[]), id="bases=[]"),
])
def test_campaigns_reject_empty_inputs(tmp_path, no_pool, entry, empty):
    """Each of these used to run an empty campaign: a header-only table
    recorded in the store as a campaign (and ``optimisation_levels=()``
    reported ``n_bases == 1``).  The check fires before the store is opened
    or the worker pool starts."""
    [(name, _)] = empty.items()
    path = tmp_path / "store.jsonl"
    kwargs = dict(configs=[get_configuration(1)], options=_FAST, max_steps=300_000,
                  resume=str(path))
    kwargs.update(empty)
    with pytest.raises(ValueError, match=f"{name} must not be empty"):
        entry(**kwargs)
    assert not path.exists()


@pytest.mark.parametrize("n_bases", [0, -1])
def test_generate_emi_bases_rejects_n_bases_below_one(no_pool, n_bases):
    """``generate_emi_bases(0)`` used to return ``[]``.  The check fires
    before the worker pool starts."""
    with pytest.raises(ValueError, match=f"n_bases must be at least 1, got {n_bases}"):
        generate_emi_bases(n_bases, options=_FAST)


def test_emi_campaign_with_supplied_bases_ignores_n_bases():
    """``n_bases`` sizes only a generated batch; supplied bases set it."""
    bases = generate_emi_bases(1, seed=0, options=_FAST)
    result = run_emi_campaign([get_configuration(1)], n_bases=0, bases=bases,
                              variants_per_base=1, optimisation_levels=(True,),
                              options=_FAST, max_steps=300_000)
    assert result.n_bases == 1


@pytest.mark.parametrize("max_steps", [0, -1])
def test_generate_emi_bases_rejects_max_steps_below_one(monkeypatch, max_steps):
    """Every dead-placement check would time out, so no candidate could be
    accepted.  The check fires before the worker pool starts."""
    import repro.testing.campaign as campaign

    def no_pool(*args, **kwargs):
        raise AssertionError("the worker pool was started")

    monkeypatch.setattr(campaign, "WorkerPool", no_pool)
    with pytest.raises(ValueError, match="max_steps must be at least 1"):
        generate_emi_bases(2, options=_FAST, max_steps=max_steps)


@pytest.mark.parametrize("variants_per_base", [1, 40])
def test_emi_campaign_accepts_both_ends_of_the_grid(variants_per_base):
    result = run_emi_campaign([get_configuration(1)], n_bases=1,
                              variants_per_base=variants_per_base,
                              optimisation_levels=(True,), options=_FAST,
                              max_steps=300_000)
    assert result.n_variants == variants_per_base


def test_generate_emi_bases_filters_dead_placement():
    bases = generate_emi_bases(2, seed=0, options=_FAST, filter_dead_placement=True)
    assert len(bases) == 2
    for base in bases:
        assert base.metadata["emi_blocks"] >= 1
        assert "emi_base_fingerprint" in base.metadata
