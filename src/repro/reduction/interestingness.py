"""Interestingness predicates: does a candidate still reproduce the defect?

A reduction step is only sound if the shrunk kernel exhibits the *same*
defect as the original -- the paper's manual reductions repeatedly re-ran
each candidate on the affected configuration and threw it away when the
symptom changed class or when the candidate was no longer a deterministic,
UB-free program (section 3.2).  The predicates here mechanise that contract
on top of the existing harnesses and the :class:`~repro.testing.outcomes.
Outcome` taxonomy:

* :class:`DifferentialSignaturePredicate` re-runs the candidate through a
  :class:`~repro.testing.differential.DifferentialHarness` across the same
  (configuration, optimisation level) cells and accepts only candidates
  whose *failure signature* -- the sorted set of ``(cell label, outcome
  code)`` pairs over wrong-code / build-failure / crash / timeout cells --
  is identical to the original's;
* :class:`MismatchPredicate` is the two-point variant used for single-target
  anomalies (the bug-gallery exemplars, the seeded reduction corpus): the
  candidate must stay clean on the baseline (reference) configuration and
  reproduce the original outcome class on the target configuration, where
  wrong code means "both terminate with values that differ";
* :class:`EmiFamilyPredicate` re-expands the candidate's pruned EMI variant
  family and accepts only candidates that preserve the per-cell
  ``worst_outcome`` signature of the original base program.

Every predicate enforces the **hard UB guard**: a candidate any of whose
runs classifies as :data:`~repro.testing.outcomes.Outcome.
UNDEFINED_BEHAVIOUR` is rejected outright, whatever else it reproduces --
a reducer that trades a miscompilation for undefined behaviour has destroyed
the reproducer (UB-afflicted tests are never counted as miscompilations).

Every cell a predicate runs takes the campaign's own cell path
(:class:`~repro.testing.harness_base.ExecutionHarnessBase`: ``compile_cell``,
``execute_cell``, ``run_cell``), so a candidate is compiled, run, cached and
classified exactly as the fuzzer's oracle does it.  Candidates are
statically validated first, through the verdict memoised on the program
object (:func:`~repro.kernel_lang.semantics.validation_error`): a candidate
the pass filter already validated is not validated again, and neither
predicate nor compiler repeats the check.  A build failure or kernel
runtime error that escapes the cell path's own classification rejects the
candidate (an ``error_rejection``) rather than aborting the reduction, so the
reducer is robust against passes producing semantically-nonsensical (but
well-formed) programs.  Any other exception is a bug in the predicate or
the harness and propagates: contained, it would reject every candidate, the
original included, and silently leave every anomaly unreduced.

The two signature predicates are **lazy**: nearly every candidate fails,
so they evaluate one cell at a time -- the signature's ``bf`` cells first
(decided by compiling alone: a cell that builds cannot be a build failure),
then its ``c``/``to`` cells, then its ``w`` cells, then every other cell,
each group in harness order -- and reject at the first cell that trips the
UB guard or whose own outcome contradicts its expected code.  A ``w`` is
still decided only by the majority vote once every cell has run, and only a
candidate that reached the end is compared to the signature, so each
verdict equals the one running every cell would give
(``tests/test_lazy_predicates.py``).  A rejection is counted under the
first reason the order reaches: a UB run in a cell never evaluated is not
an ``ub_rejection``.

Predicates keep per-instance :class:`PredicateStats` and share the usual
result cache, so repeated candidate evaluations inside one reduction stay
warm.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.emi.variants import emi_family, mark_base_fingerprint
from repro.kernel_lang import ast
from repro.kernel_lang.semantics import validation_error
from repro.platforms.config import DeviceConfig
from repro.runtime.engine import DEFAULT_ENGINE
from repro.runtime.errors import BuildFailure, KernelRuntimeError
from repro.testing.differential import DifferentialHarness, DifferentialResult
from repro.testing.emi_harness import EmiBaseResult, EmiHarness
from repro.testing.harness_base import ExecutionHarnessBase
from repro.testing.outcomes import Outcome, TestRecord, cell_label, config_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.orchestration.cache import ResultCache

#: Outcome codes that count as an anomaly worth preserving.
FAILURE_CODES = ("w", "bf", "c", "to")

#: A failure signature: sorted ``(cell label, outcome code)`` pairs.
Signature = Tuple[Tuple[str, str], ...]


class _UBRejected(Exception):
    """Internal control flow: the candidate tripped the hard UB guard."""


@dataclass
class PredicateStats:
    """Counters every predicate keeps while vetting candidates."""

    evaluations: int = 0
    accepted: int = 0
    ub_rejections: int = 0
    invalid_rejections: int = 0
    error_rejections: int = 0

    def as_dict(self):
        return {
            "evaluations": self.evaluations,
            "accepted": self.accepted,
            "ub_rejections": self.ub_rejections,
            "invalid_rejections": self.invalid_rejections,
            "error_rejections": self.error_rejections,
        }

    def merge(self, other: "PredicateStats") -> "PredicateStats":
        """Counter-wise sum (pool evaluators aggregate per-job deltas)."""
        return PredicateStats(
            self.evaluations + other.evaluations,
            self.accepted + other.accepted,
            self.ub_rejections + other.ub_rejections,
            self.invalid_rejections + other.invalid_rejections,
            self.error_rejections + other.error_rejections,
        )


def differential_signature(result: DifferentialResult) -> Signature:
    """The failure signature of a differential run (sorted, hashable)."""
    return tuple(
        sorted(
            (record.label, record.outcome.value)
            for record in result.records
            if record.outcome.is_failure
        )
    )


def emi_family_signature(cells: Sequence[EmiBaseResult]) -> Signature:
    """Per-cell worst-outcome signature of an EMI family (non-``ok`` cells).

    ``ng`` (bad base) cells are part of the signature: a candidate that turns
    a wrong-code cell into a bad base has changed the defect, not shrunk it.
    """
    return tuple(
        sorted(
            (cell_label(cell.config_name, cell.optimisations), cell.worst_outcome)
            for cell in cells
            if cell.worst_outcome != "ok"
        )
    )


#: Evaluation rank of a cell by its expected code: ``bf`` cells need only
#: a compile, ``c``/``to`` cells one run, a ``w`` cell's run must at least
#: terminate, and every other cell comes last.
_EVALUATION_RANK = {"bf": 0, "c": 1, "to": 1, "w": 2}

#: Expected code of a cell that shares its label with another cell (two
#: configurations of one name): only the whole signature tells them apart.
_UNDECIDED = "?"


def _evaluation_order(
    labels: Sequence[str], signature: Signature
) -> List[Tuple[int, str]]:
    """``(cell index, expected code)`` of every cell, in the order a lazy
    predicate evaluates them; ``"ok"`` marks a cell outside the signature.

    ``labels`` are the cells' labels in harness order, which the stable
    sort keeps within each group.
    """
    if len(set(labels)) < len(labels):
        return [(index, _UNDECIDED) for index in range(len(labels))]
    expected = dict(signature)
    coded = [(index, expected.get(label, "ok")) for index, label in enumerate(labels)]
    return sorted(coded, key=lambda item: _EVALUATION_RANK.get(item[1], 3))


def _cell_labels(cells: Sequence[Tuple[Optional[DeviceConfig], bool]]) -> List[str]:
    return [
        cell_label(config_name(config), optimisations)
        for config, optimisations in cells
    ]


def _contradicts(outcome: Outcome, expected: str) -> bool:
    """Whether a cell's own, pre-vote outcome rules out its expected code
    whatever the vote decides: the vote only ever turns a terminating run
    into wrong code.  (A UB outcome is the guard's to reject.)"""
    if expected == "w":
        return outcome is not Outcome.PASS
    if expected == "ok":
        return outcome.is_failure
    return expected != _UNDECIDED and outcome.value != expected


class InterestingnessPredicate:
    """Base class: validation, UB guard, build/runtime error containment
    and stats."""

    #: Short registry name used by :class:`PredicateSpec` / job shipping.
    kind = "interestingness"

    def __init__(self) -> None:
        self.stats = PredicateStats()

    def __call__(self, candidate: ast.Program) -> bool:
        """Evaluate one candidate.

        The static well-formedness verdict is memoised on the candidate
        (:func:`~repro.kernel_lang.semantics.validation_error`), so a
        candidate a pass filter already validated is not validated again.
        """
        self.stats.evaluations += 1
        if validation_error(candidate) is not None:
            self.stats.invalid_rejections += 1
            return False
        try:
            verdict = bool(self._check(candidate))
        except _UBRejected:
            self.stats.ub_rejections += 1
            return False
        except (BuildFailure, KernelRuntimeError):
            # A candidate that breaks the build or the run outside the
            # harness's classification is simply not a reproducer.
            self.stats.error_rejections += 1
            return False
        if verdict:
            self.stats.accepted += 1
        return verdict

    # -- to override -----------------------------------------------------

    def _check(self, candidate: ast.Program) -> bool:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _guard_ub(outcomes: Sequence[Outcome]) -> None:
        if any(o is Outcome.UNDEFINED_BEHAVIOUR for o in outcomes):
            raise _UBRejected()


class DifferentialSignaturePredicate(InterestingnessPredicate):
    """Preserve the failure signature of a full differential run."""

    kind = "differential"

    def __init__(
        self,
        configs: Sequence[Optional[DeviceConfig]],
        expected_signature: Signature,
        optimisation_levels: Sequence[bool] = (False, True),
        max_steps: int = 500_000,
        engine: str = DEFAULT_ENGINE,
        cache: Optional["ResultCache"] = None,
    ) -> None:
        super().__init__()
        if not expected_signature:
            raise ValueError("expected signature is empty: nothing to preserve")
        self.expected_signature = tuple(expected_signature)
        self.harness = DifferentialHarness(
            configs,
            optimisation_levels=optimisation_levels,
            max_steps=max_steps,
            cache=cache,
            engine=engine,
        )

    @classmethod
    def from_program(
        cls,
        program: ast.Program,
        configs: Sequence[Optional[DeviceConfig]],
        **kwargs,
    ) -> "DifferentialSignaturePredicate":
        """Derive the expected signature by running the original program.

        Built as a probe instance (placeholder signature, then observe and
        swap) so the probe run uses exactly the constructor's defaults --
        no duplicated keyword defaults to drift.
        """
        probe = cls(configs, (("probe", "probe"),), **kwargs)
        result = probe.harness.run(program)
        if any(r.outcome is Outcome.UNDEFINED_BEHAVIOUR for r in result.records):
            raise ValueError("original program exhibits undefined behaviour")
        signature = differential_signature(result)
        if not signature:
            raise ValueError("original program shows no anomaly to preserve")
        probe.expected_signature = signature
        probe.stats = PredicateStats()
        return probe

    def _check(self, candidate: ast.Program) -> bool:
        harness = self.harness
        cells = harness.cells()
        records: List[Optional[TestRecord]] = [None] * len(cells)
        for index, expected in _evaluation_order(
            _cell_labels(cells), self.expected_signature
        ):
            config, optimisations = cells[index]
            built = harness.compile_cell(candidate, config, optimisations)
            if expected == "bf" and not isinstance(built, Outcome):
                return False  # it built, so it cannot be a build failure
            outcome, result = harness.execute_cell(built)
            self._guard_ub([outcome])
            if _contradicts(outcome, expected):
                return False
            records[index] = harness.record(config, optimisations, outcome, result)
        return differential_signature(harness.vote(records)) == self.expected_signature


class MismatchPredicate(InterestingnessPredicate):
    """Preserve a single (target configuration, optimisation level) anomaly.

    The candidate must stay clean (``PASS``, no UB) on the baseline
    configuration -- the reference simulator by default -- and reproduce the
    expected outcome class on the target: ``"w"`` means both runs terminate
    with values whose hashes differ; ``"bf"``/``"c"``/``"to"`` mean that
    outcome on the target.
    """

    kind = "mismatch"

    def __init__(
        self,
        target_config: Optional[DeviceConfig],
        optimisations: bool,
        expected_class: str,
        baseline_config: Optional[DeviceConfig] = None,
        baseline_optimisations: bool = False,
        max_steps: int = 500_000,
        engine: str = DEFAULT_ENGINE,
        cache: Optional["ResultCache"] = None,
    ) -> None:
        super().__init__()
        if expected_class not in FAILURE_CODES:
            raise ValueError(
                f"expected class must be one of {FAILURE_CODES}, "
                f"got {expected_class!r}"
            )
        self.target_config = target_config
        self.optimisations = optimisations
        self.expected_class = expected_class
        self.baseline_config = baseline_config
        self.baseline_optimisations = baseline_optimisations
        self.harness = ExecutionHarnessBase(
            max_steps=max_steps, cache=cache, engine=engine
        )

    @classmethod
    def from_program(
        cls,
        program: ast.Program,
        target_config: Optional[DeviceConfig],
        optimisations: bool,
        **kwargs,
    ) -> "MismatchPredicate":
        """Observe the original anomaly class, then build its preserver."""
        probe = cls(
            target_config, optimisations, expected_class="w", **kwargs
        )
        try:
            observed = probe.observe_class(program)
        except _UBRejected:
            raise ValueError("original program exhibits undefined behaviour")
        if observed not in FAILURE_CODES:
            raise ValueError(
                f"original program shows no anomaly on the target "
                f"(observed {observed!r})"
            )
        probe.expected_class = observed
        probe.stats = PredicateStats()
        return probe

    def observe_class(self, program: ast.Program) -> str:
        """The anomaly class this program exhibits on the target cell.

        ``"ok"`` for no anomaly; raises :class:`_UBRejected` internally via
        the guard when either run is undefined (callers inside ``_check``
        inherit the rejection; direct callers see a ``ValueError``).
        """
        base_outcome, base_result = self.harness.run_cell(
            program, self.baseline_config, self.baseline_optimisations
        )
        self._guard_ub([base_outcome])
        if base_outcome is not Outcome.PASS or base_result is None:
            # A reproducer must stay deterministic and clean on the
            # conformant baseline; anything else is not a reduction.
            return "invalid-baseline"
        target_outcome, target_result = self.harness.run_cell(
            program, self.target_config, self.optimisations
        )
        self._guard_ub([target_outcome])
        if target_outcome is Outcome.PASS and target_result is not None:
            if target_result.result_hash() != base_result.result_hash():
                return "w"
            return "ok"
        return target_outcome.value

    def _check(self, candidate: ast.Program) -> bool:
        return self.observe_class(candidate) == self.expected_class

    @property
    def target_label(self) -> str:
        return cell_label(config_name(self.target_config), self.optimisations)


def refresh_base_fingerprint(base: ast.Program) -> ast.Program:
    """A copy of ``base`` whose EMI fingerprint is derived from its own code.

    Reduction candidates are path copies that keep the current program's
    metadata, so they would otherwise inherit the *original* kernel's
    ``emi_base_fingerprint`` (``mark_base_fingerprint`` keeps an existing
    mark), letting fingerprint-keyed calibrated defects keep firing for
    shrinks that no longer contain the triggering code at all -- the
    candidate would then "reproduce" through an invisible metadata field.
    """
    metadata = {
        key: value
        for key, value in base.metadata.items()
        if key != "emi_base_fingerprint"
    }
    return mark_base_fingerprint(dataclasses.replace(base, metadata=metadata))


class EmiFamilyPredicate(InterestingnessPredicate):
    """Preserve the worst-outcome signature of a pruned EMI variant family."""

    kind = "emi-family"

    def __init__(
        self,
        configs: Sequence[Optional[DeviceConfig]],
        expected_signature: Signature,
        optimisation_levels: Sequence[bool] = (False, True),
        variant_seed: int = 0,
        variants_per_base: Optional[int] = None,
        max_steps: int = 500_000,
        engine: str = DEFAULT_ENGINE,
        cache: Optional["ResultCache"] = None,
    ) -> None:
        super().__init__()
        if not expected_signature:
            raise ValueError("expected signature is empty: nothing to preserve")
        self.configs = list(configs)
        self.expected_signature = tuple(expected_signature)
        self.optimisation_levels = list(optimisation_levels)
        self.variant_seed = variant_seed
        self.variants_per_base = variants_per_base
        self.harness = EmiHarness(max_steps=max_steps, cache=cache, engine=engine)

    @classmethod
    def from_program(
        cls,
        program: ast.Program,
        configs: Sequence[Optional[DeviceConfig]],
        **kwargs,
    ) -> "EmiFamilyPredicate":
        probe = cls(configs, expected_signature=(("probe", "probe"),), **kwargs)
        try:
            cells = probe._family_cells(program)
        except _UBRejected:
            raise ValueError("original EMI family exhibits undefined behaviour")
        signature = emi_family_signature(cells)
        if not any(code in FAILURE_CODES for _, code in signature):
            raise ValueError("original EMI family shows no induced anomaly")
        probe.expected_signature = signature
        probe.stats = PredicateStats()
        return probe

    def _cells(self) -> List[Tuple[Optional[DeviceConfig], bool]]:
        return [
            (config, optimisations)
            for config in self.configs
            for optimisations in self.optimisation_levels
        ]

    def _family(self, base: ast.Program) -> List[ast.Program]:
        return emi_family(
            refresh_base_fingerprint(base), self.variants_per_base, self.variant_seed
        )

    def _family_cells(self, base: ast.Program) -> List[EmiBaseResult]:
        """Every cell of ``base``'s family, in harness order (the original's
        signature)."""
        family = self._family(base)
        cells = []
        for config, optimisations in self._cells():
            cell = self.harness.run_family(family, config, optimisations)
            self._guard_ub(cell.variant_outcomes)
            cells.append(cell)
        return cells

    def _check(self, candidate: ast.Program) -> bool:
        harness = self.harness
        family = self._family(candidate)
        cells = self._cells()
        results: List[Optional[EmiBaseResult]] = [None] * len(cells)
        for index, expected in _evaluation_order(
            _cell_labels(cells), self.expected_signature
        ):
            config, optimisations = cells[index]
            builds = None
            if expected == "bf":
                builds = [
                    harness.compile_cell(variant, config, optimisations)
                    for variant in family
                ]
                if not any(built is Outcome.BUILD_FAILURE for built in builds):
                    return False  # every variant built: no build failure
            cell = harness.run_family(family, config, optimisations, builds=builds)
            self._guard_ub(cell.variant_outcomes)
            if expected != _UNDECIDED and cell.worst_outcome != expected:
                return False
            results[index] = cell
        return emi_family_signature(results) == self.expected_signature


# ---------------------------------------------------------------------------
# Serialisable predicate specifications (for WorkerPool job dispatch)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateSpec:
    """A predicate by value, shippable inside a ``CampaignJob``.

    The configurations, optimisation levels, step budget, engine and EMI
    variant parameters live on the job itself (they already serialise there);
    the spec carries only what the predicate adds: its kind, the expected
    failure signature, and -- for ``mismatch`` -- the target cell and class.
    """

    kind: str
    signature: Signature = ()
    expected_class: str = ""
    #: ``mismatch`` only: index of the target configuration in the job's
    #: configuration list, and the target optimisation level.
    target_index: int = 0
    target_optimisations: bool = True


def build_predicate(
    spec: PredicateSpec,
    configs: Sequence[Optional[DeviceConfig]],
    optimisation_levels: Sequence[bool],
    max_steps: int,
    engine: str,
    variant_seed: int = 0,
    variants_per_base: Optional[int] = None,
    cache: Optional["ResultCache"] = None,
) -> InterestingnessPredicate:
    """Instantiate the live predicate a :class:`PredicateSpec` describes."""
    if spec.kind == DifferentialSignaturePredicate.kind:
        return DifferentialSignaturePredicate(
            configs,
            spec.signature,
            optimisation_levels=optimisation_levels,
            max_steps=max_steps,
            engine=engine,
            cache=cache,
        )
    if spec.kind == EmiFamilyPredicate.kind:
        return EmiFamilyPredicate(
            configs,
            spec.signature,
            optimisation_levels=optimisation_levels,
            variant_seed=variant_seed,
            variants_per_base=variants_per_base,
            max_steps=max_steps,
            engine=engine,
            cache=cache,
        )
    if spec.kind == MismatchPredicate.kind:
        return MismatchPredicate(
            configs[spec.target_index],
            spec.target_optimisations,
            spec.expected_class,
            max_steps=max_steps,
            engine=engine,
            cache=cache,
        )
    raise ValueError(f"unknown predicate kind {spec.kind!r}")


__all__ = [
    "FAILURE_CODES",
    "Signature",
    "PredicateStats",
    "differential_signature",
    "emi_family_signature",
    "InterestingnessPredicate",
    "DifferentialSignaturePredicate",
    "MismatchPredicate",
    "EmiFamilyPredicate",
    "refresh_base_fingerprint",
    "PredicateSpec",
    "build_predicate",
]
