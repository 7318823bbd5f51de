"""The fixpoint reduction driver and its result/replay machinery.

:class:`Reducer` runs the hierarchical passes of :mod:`repro.reduction.
passes` to a fixpoint: inside one round each pass is re-applied until it can
no longer shrink the kernel (the classic ddmin restart), and rounds repeat
until a full sweep over all passes accepts nothing.  Termination is
structural -- every accepted candidate strictly decreases the non-negative
:func:`~repro.reduction.passes.size_key` -- and budgets bound the work:
``max_pass_evaluations`` caps one pass invocation, ``max_evaluations`` caps
the whole reduction.

Determinism (property-tested in ``tests/test_reduction.py``): candidate
enumeration is deterministic, each pass invocation derives its RNG from
``(seed, round, pass name, iteration)`` via stable string seeding, and the
driver always takes the *first* accepted candidate in enumeration order.
The same ``(seed, kernel, predicate)`` triple therefore yields an identical
:class:`ReductionResult`, and the accepted-step :class:`TraceStep` sequence
replays to the same reduced kernel via :func:`replay_trace` without
re-evaluating anything.

Candidate evaluation is pluggable:

* :class:`LocalEvaluator` calls the predicate in-process, lazily, one
  candidate at a time (the minimum number of executions);
* :class:`PoolEvaluator` ships candidates through a
  :class:`~repro.orchestration.pool.WorkerPool` as ``reduce-check`` jobs.
  It may evaluate candidates ahead, but charges evaluations, budget and
  predicate counters only up to the first accepted candidate, so a pool
  reduction -- on either backend -- is byte-identical to the in-process one.

:func:`reduce_job` is the one body that turns a ``reduce-kernel``
:class:`~repro.orchestration.jobs.CampaignJob` into a
:class:`ReductionSummary`, whichever evaluator drives it.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.kernel_lang import ast
from repro.kernel_lang.printer import print_program
from repro.observability import SPAN_REDUCE_ROUND, maybe_span
from repro.orchestration.cache import CacheStats
from repro.orchestration.jobs import REDUCE_CHECK, CampaignJob
from repro.reduction.interestingness import (
    InterestingnessPredicate,
    PredicateStats,
)
from repro.reduction.passes import DEFAULT_PASSES, ReductionPass, node_count, size_key

_TOKEN_RE = re.compile(r"[A-Za-z_]\w*|\d+|[^\s\w]")


def token_count(program: ast.Program) -> int:
    """Number of lexical tokens in the pretty-printed kernel source."""
    return len(_TOKEN_RE.findall(print_program(program)))


class NotReducibleError(ValueError):
    """The original program does not satisfy its own predicate.

    Raised by :meth:`Reducer.reduce` before any pass runs -- e.g. the UB
    guard vetoed the original, or the anomaly was derived from stale state.
    A dedicated type so callers (campaign ``reduce-kernel`` jobs) can skip
    exactly this case without masking genuine faults inside a reduction.
    """


def _pass_rng(seed: int, round_index: int, pass_name: str, iteration: int) -> random.Random:
    """A process-stable RNG for one pass invocation (string seeding uses
    SHA-512 internally, so it is independent of ``PYTHONHASHSEED``)."""
    return random.Random(f"{seed}:{round_index}:{pass_name}:{iteration}")


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class PassStats:
    """Attribution of work and progress to one reduction pass."""

    attempts: int = 0
    accepted: int = 0
    nodes_removed: int = 0

    def as_dict(self):
        return {
            "attempts": self.attempts,
            "accepted": self.accepted,
            "nodes_removed": self.nodes_removed,
        }


@dataclass(frozen=True)
class TraceStep:
    """One accepted reduction step, replayable via :func:`replay_trace`."""

    round: int
    pass_name: str
    iteration: int
    candidate_index: int
    size_after: int


@dataclass
class ReductionSummary:
    """Plain-value reduction outcome, shippable through ``JobResult``."""

    seed: int
    mode: str
    predicate_kind: str
    signature: Tuple
    nodes_before: int
    nodes_after: int
    tokens_before: int
    tokens_after: int
    evaluations: int
    steps: int
    budget_exhausted: bool
    pass_attribution: Dict[str, Dict[str, int]]
    reduced_source: str
    reduced_program: ast.Program
    #: Predicate counters (ub/invalid/error rejections, ...), when known.
    predicate_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def node_reduction(self) -> float:
        """Fraction of AST nodes removed (the paper-style shrink metric)."""
        if self.nodes_before == 0:
            return 0.0
        return 1.0 - self.nodes_after / self.nodes_before


@dataclass
class ReductionResult:
    """Everything one reduction produced."""

    original: ast.Program
    reduced: ast.Program
    nodes_before: int
    nodes_after: int
    tokens_before: int
    tokens_after: int
    evaluations: int
    trace: Tuple[TraceStep, ...]
    pass_stats: Dict[str, PassStats]
    budget_exhausted: bool
    seed: int
    #: Aggregated interestingness-predicate counters: the live predicate's
    #: for in-process evaluation, the per-job deltas summed for pool
    #: dispatch (``None`` only if an exotic evaluator exposes nothing).
    predicate_stats: Optional[PredicateStats] = None

    @property
    def node_reduction(self) -> float:
        if self.nodes_before == 0:
            return 0.0
        return 1.0 - self.nodes_after / self.nodes_before

    @property
    def reduced_source(self) -> str:
        return print_program(self.reduced)

    def summary(
        self,
        seed: Optional[int] = None,
        mode: str = "",
        predicate_kind: str = "",
        signature: Tuple = (),
    ) -> ReductionSummary:
        return ReductionSummary(
            seed=self.seed if seed is None else seed,
            mode=mode,
            predicate_kind=predicate_kind,
            signature=tuple(signature),
            nodes_before=self.nodes_before,
            nodes_after=self.nodes_after,
            tokens_before=self.tokens_before,
            tokens_after=self.tokens_after,
            evaluations=self.evaluations,
            steps=len(self.trace),
            budget_exhausted=self.budget_exhausted,
            pass_attribution={
                name: stats.as_dict() for name, stats in self.pass_stats.items()
            },
            reduced_source=self.reduced_source,
            reduced_program=self.reduced,
            predicate_stats=(
                self.predicate_stats.as_dict() if self.predicate_stats else {}
            ),
        )


# ---------------------------------------------------------------------------
# Candidate evaluators
# ---------------------------------------------------------------------------


class LocalEvaluator:
    """Evaluate candidates in-process through a live predicate, lazily."""

    def __init__(self, predicate: InterestingnessPredicate) -> None:
        self.predicate = predicate

    @property
    def stats(self) -> PredicateStats:
        return self.predicate.stats

    def check_original(self, program: ast.Program) -> bool:
        return bool(self.predicate(program))

    def first_accepted(
        self, candidates: Iterator[ast.Program], budget: int
    ) -> Tuple[Optional[Tuple[int, ast.Program]], int, bool]:
        """(hit, evaluations consumed, stream exhausted).

        ``hit`` is the (index, program) of the first accepted candidate, or
        ``None``.  ``exhausted`` distinguishes "the candidate stream ran
        dry" from "the budget cut the stream off with candidates untested"
        -- the driver reports the latter as budget exhaustion rather than a
        fixpoint.
        """
        used = 0
        while used < budget:
            try:
                candidate = next(candidates)
            except StopIteration:
                return None, used, True
            used += 1
            if self.predicate(candidate):
                return (used - 1, candidate), used, False
        return None, used, False


class PoolEvaluator:
    """Evaluate candidates as ``reduce-check`` jobs on a ``WorkerPool``.

    ``template`` is the reduce job the candidates come from: each candidate
    ships as that job with ``kind=REDUCE_CHECK`` and the candidate as its
    ``program``, so configurations, predicate, step budget and engine all
    travel with it.

    The evaluator speculates: it submits up to :attr:`width` candidates at
    once (1 on the serial backend, two per worker on the process backend)
    but charges evaluations, budget and predicate counters only for the
    candidates up to and including the first accepted one, exactly as the
    lazy :class:`LocalEvaluator` would.  A reduction driven through it is
    therefore byte-identical (reduced kernel, trace, evaluation counts, pass
    attribution, predicate counters) to the in-process one.  Speculative
    candidates that did execute show up only in :attr:`cache_stats`, which
    records all work done.
    """

    def __init__(self, pool, template: CampaignJob) -> None:
        self.pool = pool
        self.template = template
        #: Candidates submitted at once.  One on the serial backend, where
        #: nothing can run ahead; two per worker on the process backend, so
        #: each worker has a job queued while the parent reads results.
        #: Results come back in submission order, so the width never
        #: changes which candidate is accepted.
        self.width = 1 if pool.backend == "serial" else 2 * pool.parallelism
        #: Predicate counters summed over the charged candidate jobs.
        self.stats = PredicateStats()
        #: Cache deltas of every dispatched job, speculative ones included.
        self.cache_stats = CacheStats()

    def _run(self, programs: Sequence[ast.Program]):
        job_results = self.pool.run([
            dataclasses.replace(
                self.template, kind=REDUCE_CHECK, program=program,
                reduce_max_evaluations=None,
            )
            for program in programs
        ])
        for job_result in job_results:
            self.cache_stats = self.cache_stats.merge(job_result.cache)
        return job_results

    def _charge(self, job_result) -> bool:
        if job_result.predicate_stats is not None:
            self.stats = self.stats.merge(job_result.predicate_stats)
        return bool(job_result.accepted)

    def check_original(self, program: ast.Program) -> bool:
        return self._charge(self._run([program])[0])

    def first_accepted(
        self, candidates: Iterator[ast.Program], budget: int
    ) -> Tuple[Optional[Tuple[int, ast.Program]], int, bool]:
        """Same contract as :meth:`LocalEvaluator.first_accepted`."""
        used = 0
        while used < budget:
            batch = list(itertools.islice(candidates, min(self.width, budget - used)))
            if not batch:
                return None, used, True
            for candidate, job_result in zip(batch, self._run(batch)):
                used += 1
                if self._charge(job_result):
                    return (used - 1, candidate), used, False
        return None, used, False


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------


@dataclass
class ReducerConfig:
    """Budgets and pass schedule of one reduction."""

    seed: int = 0
    #: Global candidate-evaluation budget for the whole reduction.
    max_evaluations: int = 4000
    #: Budget for one pass invocation (one inner fixpoint iteration).
    max_pass_evaluations: int = 400
    passes: Tuple[ReductionPass, ...] = DEFAULT_PASSES


class Reducer:
    """Seeded, deterministic, pass-based delta-debugging reducer."""

    def __init__(self, config: Optional[ReducerConfig] = None) -> None:
        self.config = config or ReducerConfig()

    def reduce(
        self,
        program: ast.Program,
        predicate: Optional[InterestingnessPredicate] = None,
        evaluator=None,
    ) -> ReductionResult:
        """Shrink ``program`` while ``predicate`` keeps holding.

        Exactly one of ``predicate`` (evaluated in-process) or ``evaluator``
        (an object with ``check_original`` / ``first_accepted``) must be
        given.  Raises :class:`NotReducibleError` if the original program
        does not satisfy the predicate -- reducing a non-reproducer is
        meaningless.
        """
        if evaluator is None:
            if predicate is None:
                raise ValueError("either a predicate or an evaluator is required")
            evaluator = LocalEvaluator(predicate)
        config = self.config
        evaluations = 1
        if not evaluator.check_original(program):
            raise NotReducibleError(
                "original program does not satisfy the predicate"
            )

        current = program
        trace: List[TraceStep] = []
        pass_stats: Dict[str, PassStats] = {
            pass_.name: PassStats() for pass_ in config.passes
        }
        budget_exhausted = False
        #: Whether, in the most recent round, a per-pass budget cut a
        #: candidate stream off with candidates untested.  Re-derived every
        #: round: only the *final* sweep decides whether the reduction ended
        #: at a clean fixpoint (all streams enumerated to exhaustion) or
        #: with unexplored candidates.
        tail_unreached = False
        round_index = 0
        progress = True
        while progress and not budget_exhausted:
            progress = False
            tail_unreached = False
            # One outer round = one full sweep of every pass; a span per
            # round (no-op without an ambient collector) is how telemetry
            # sees reduction cost without touching what gets reduced.
            with maybe_span(SPAN_REDUCE_ROUND, name=str(round_index)):
                for pass_ in config.passes:
                    iteration = 0
                    while True:
                        remaining = config.max_evaluations - evaluations
                        if remaining <= 0:
                            budget_exhausted = True
                            break
                        budget = min(config.max_pass_evaluations, remaining)
                        rng = _pass_rng(config.seed, round_index, pass_.name, iteration)
                        hit, used, exhausted = evaluator.first_accepted(
                            pass_.candidates(current, rng), budget
                        )
                        evaluations += used
                        stats = pass_stats[pass_.name]
                        stats.attempts += used
                        if hit is None:
                            if not exhausted:
                                tail_unreached = True
                            break
                        index, candidate = hit
                        stats.accepted += 1
                        stats.nodes_removed += node_count(current) - node_count(candidate)
                        trace.append(
                            TraceStep(
                                round=round_index,
                                pass_name=pass_.name,
                                iteration=iteration,
                                candidate_index=index,
                                size_after=size_key(candidate),
                            )
                        )
                        current = candidate
                        progress = True
                        iteration += 1
                    if budget_exhausted:
                        break
            round_index += 1

        return ReductionResult(
            original=program,
            reduced=current,
            nodes_before=node_count(program),
            nodes_after=node_count(current),
            tokens_before=token_count(program),
            tokens_after=token_count(current),
            evaluations=evaluations,
            trace=tuple(trace),
            pass_stats=pass_stats,
            budget_exhausted=budget_exhausted or tail_unreached,
            seed=config.seed,
            predicate_stats=getattr(evaluator, "stats", None),
        )


def replay_trace(
    program: ast.Program,
    trace: Sequence[TraceStep],
    seed: int,
    passes: Sequence[ReductionPass] = DEFAULT_PASSES,
) -> ast.Program:
    """Re-apply an accepted-step trace without evaluating any candidate.

    Each step re-derives the pass invocation's RNG from ``(seed, round,
    pass name, iteration)`` and takes the recorded candidate index from the
    deterministic enumeration -- auditing a reduction therefore needs no
    harness at all.
    """
    by_name = {pass_.name: pass_ for pass_ in passes}
    current = program
    for step in trace:
        pass_ = by_name[step.pass_name]
        rng = _pass_rng(seed, step.round, step.pass_name, step.iteration)
        candidates = pass_.candidates(current, rng)
        chosen = None
        for index, candidate in enumerate(candidates):
            if index == step.candidate_index:
                chosen = candidate
                break
        if chosen is None:
            raise ValueError(f"trace step {step} points past the candidate list")
        current = chosen
    return current


def reduce_job(job: CampaignJob, evaluator) -> Optional[ReductionSummary]:
    """Reduce a ``reduce-kernel`` job's program through ``evaluator``.

    The job fixes the reduction: its seed seeds the passes,
    ``reduce_max_evaluations`` (when set) caps the candidate evaluations,
    and its predicate spec labels the summary.  Returns ``None`` when the
    original no longer satisfies its own predicate (e.g. the UB guard
    vetoed it): that anomaly contributes no summary rather than failing
    the campaign.  Any other exception is a genuine fault and propagates.
    """
    config = ReducerConfig(seed=job.seed)
    if job.reduce_max_evaluations is not None:
        config.max_evaluations = job.reduce_max_evaluations
    # No fingerprint pre-marking: EmiFamilyPredicate re-derives every
    # evaluated program's own fingerprint (refresh_base_fingerprint), which
    # yields the identical value for the unmodified original.
    try:
        result = Reducer(config).reduce(job.materialise_program(), evaluator=evaluator)
    except NotReducibleError:
        return None
    return result.summary(
        seed=job.seed,
        mode=job.mode,
        predicate_kind=job.predicate_spec.kind,
        signature=job.predicate_spec.signature,
    )


__all__ = [
    "token_count",
    "NotReducibleError",
    "PassStats",
    "TraceStep",
    "ReductionSummary",
    "ReductionResult",
    "LocalEvaluator",
    "PoolEvaluator",
    "ReducerConfig",
    "Reducer",
    "replay_trace",
    "reduce_job",
]
