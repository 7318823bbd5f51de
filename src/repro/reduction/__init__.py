"""Automated test-case reduction (campaign auto-reduction).

The paper reports that manually reducing bug-inducing CLsmith/EMI kernels to
minimal reproducers was the dominant human cost of the fuzzing campaigns:
each candidate shrink had to preserve the observed defect and never
introduce undefined behaviour (section 3.2's determinism requirement).
This package mechanises that loop:

* :mod:`repro.reduction.passes` -- hierarchical reduction passes (ddmin over
  statement lists, compound deletion and child lifting reusing the EMI
  pruning idiom, expression-to-literal simplification, dead parameter /
  buffer removal, loop and NDRange shrinking, helper inlining + sweeping);
* :mod:`repro.reduction.interestingness` -- UB-guarded predicates built on
  the differential / EMI harnesses and the ``Outcome`` taxonomy;
* :mod:`repro.reduction.reducer` -- the seeded, deterministic fixpoint
  driver, its replayable trace, and the WorkerPool candidate dispatcher;
* :mod:`repro.reduction.corpus` -- synthetic defect configurations whose
  anomalies are known by construction (reducer validation at scale);
* :mod:`repro.reduction.cli` -- the ``repro-reduce`` console entry point.

Campaigns integrate through ``auto_reduce=`` on
:func:`~repro.testing.campaign.run_clsmith_campaign` and
:func:`~repro.testing.campaign.run_emi_campaign`, which reduce every
anomalous record and attach :class:`~repro.reduction.reducer.
ReductionSummary` objects to the campaign result; the triage subsystem
(:mod:`repro.triage`, TRIAGE.md) buckets and bisects those summaries.  See
REDUCTION.md for the pass catalogue, the interestingness contract and the
determinism guarantees.
"""

from repro.reduction.interestingness import (
    FAILURE_CODES,
    DifferentialSignaturePredicate,
    EmiFamilyPredicate,
    InterestingnessPredicate,
    MismatchPredicate,
    PredicateSpec,
    PredicateStats,
    build_predicate,
    differential_signature,
    emi_family_signature,
)
from repro.reduction.passes import DEFAULT_PASSES, ReductionPass, size_key
from repro.reduction.reducer import (
    LocalEvaluator,
    NotReducibleError,
    PoolEvaluator,
    Reducer,
    ReducerConfig,
    ReductionResult,
    ReductionSummary,
    TraceStep,
    reduce_job,
    replay_trace,
    token_count,
)

__all__ = [
    "FAILURE_CODES",
    "DifferentialSignaturePredicate",
    "EmiFamilyPredicate",
    "InterestingnessPredicate",
    "MismatchPredicate",
    "PredicateSpec",
    "PredicateStats",
    "build_predicate",
    "differential_signature",
    "emi_family_signature",
    "DEFAULT_PASSES",
    "ReductionPass",
    "size_key",
    "LocalEvaluator",
    "NotReducibleError",
    "PoolEvaluator",
    "Reducer",
    "ReducerConfig",
    "ReductionResult",
    "ReductionSummary",
    "TraceStep",
    "reduce_job",
    "replay_trace",
    "token_count",
]
