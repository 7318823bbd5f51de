"""Regression lock on the Table 3 outcome-severity ranking.

PR 1 fixed a bug where ``bf`` was missing from ``_OUTCOME_SEVERITY`` (build
failures ranked below clean passes).  This test asserts the complete order
``w > bf > c > to > ng > ok`` in one place, so any future edit to the
ranking -- or a new outcome code silently defaulting to the bottom -- fails
loudly rather than skewing the Table 3 worst-outcome aggregation and the
reduction signatures built on top of it.
"""

import itertools

from repro.testing.campaign import worst_code
from repro.testing.outcomes import OUTCOME_SEVERITY as _OUTCOME_SEVERITY, Outcome, table3_code
from repro.testing.emi_harness import EmiBaseResult

#: The paper's Table 3 legend, most severe first.
TABLE3_ORDER = ("w", "bf", "c", "to", "ng", "ok")


def test_severity_table_encodes_the_full_table3_order():
    for more, less in itertools.combinations(TABLE3_ORDER, 2):
        assert _OUTCOME_SEVERITY[more] > _OUTCOME_SEVERITY[less], (more, less)
    # The placeholder ranks strictly below everything real.
    assert all(_OUTCOME_SEVERITY["?"] < _OUTCOME_SEVERITY[c] for c in TABLE3_ORDER)
    # No stray codes: the table is exactly the legend plus the placeholder.
    assert set(_OUTCOME_SEVERITY) == set(TABLE3_ORDER) | {"?"}


def test_worst_code_follows_the_order_pairwise_and_overall():
    for more, less in itertools.combinations(TABLE3_ORDER, 2):
        assert worst_code([less, more]) == more
        assert worst_code([more, less]) == more
    assert worst_code(list(reversed(TABLE3_ORDER))) == "w"
    assert worst_code(["ok"]) == "ok"
    assert worst_code([]) == "?"
    # Unknown codes never outrank known ones.
    assert worst_code(["mystery", "to"]) == "to"


def test_every_run_outcome_has_one_ranked_table3_code():
    """``table3_code`` is the one Outcome-to-Table-3 mapping: an outcome's
    own code, except undefined behaviour, which is ``ng``.  Every run
    outcome lands in the legend, so none ranks with the placeholder."""
    codes = {outcome: table3_code(outcome) for outcome in Outcome}
    assert codes.pop(Outcome.UNDEFINED_BEHAVIOUR) == "ng"
    assert all(code == outcome.value for outcome, code in codes.items())
    assert set(codes.values()) | {"ng"} == set(TABLE3_ORDER)


def _cell(**flags) -> EmiBaseResult:
    defaults = dict(
        config_name="config1",
        optimisations=True,
        variant_outcomes=[],
        distinct_values=1,
        bad_base=False,
        wrong_code=False,
        induced_build_failure=False,
        induced_crash=False,
        induced_timeout=False,
        stable=False,
    )
    defaults.update(flags)
    return EmiBaseResult(**defaults)


def test_emi_worst_outcome_mirrors_the_same_order():
    """``EmiBaseResult.worst_outcome`` must agree with the Table 3 ranking:
    each flag dominates everything ranked below it."""
    assert _cell(wrong_code=True, induced_build_failure=True, induced_crash=True,
                 induced_timeout=True, bad_base=True).worst_outcome == "w"
    assert _cell(induced_build_failure=True, induced_crash=True,
                 induced_timeout=True, bad_base=True).worst_outcome == "bf"
    assert _cell(induced_crash=True, induced_timeout=True,
                 bad_base=True).worst_outcome == "c"
    assert _cell(induced_timeout=True, bad_base=True).worst_outcome == "to"
    assert _cell(bad_base=True).worst_outcome == "ng"
    assert _cell().worst_outcome == "ok"
