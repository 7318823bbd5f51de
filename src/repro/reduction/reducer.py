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
* :class:`PoolEvaluator` ships fixed-size batches of candidates through a
  :class:`~repro.orchestration.pool.WorkerPool` as ``reduce-check`` jobs and
  accepts the first accepted candidate in submission order.  The batch size
  is a constant (not a function of the backend), so the serial and process
  backends evaluate identical candidate sequences and produce byte-identical
  :class:`ReductionResult`\\ s -- the same guarantee the campaign tables have.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.kernel_lang import ast
from repro.kernel_lang.printer import print_program
from repro.observability import SPAN_REDUCE_ROUND, maybe_span
from repro.reduction.interestingness import (
    InterestingnessPredicate,
    PredicateSpec,
    PredicateStats,
)
from repro.reduction.passes import DEFAULT_PASSES, ReductionPass, size_key

#: Candidates per batch a :class:`PoolEvaluator` ships to its pool.  A fixed
#: constant (rather than a multiple of the worker count) so that serial and
#: process backends evaluate identical candidate sequences.
POOL_EVALUATION_CHUNK = 8

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
        fixpoint.  Candidates come from a pass filter, so the predicate
        skips re-validating them.
        """
        used = 0
        while used < budget:
            try:
                candidate = next(candidates)
            except StopIteration:
                return None, used, True
            used += 1
            if self.predicate(candidate, pre_validated=True):
                return (used - 1, candidate), used, False
        return None, used, False


class PoolEvaluator:
    """Evaluate candidates as ``reduce-check`` jobs on a ``WorkerPool``.

    Candidates are shipped in fixed-size chunks; the first accepted candidate
    *in submission order* wins, so the accept decision -- and therefore the
    entire reduction -- is independent of the pool backend.  Evaluations are
    counted as candidates submitted (a chunk is submitted atomically), which
    is likewise backend-independent.
    """

    def __init__(
        self,
        pool,
        spec: PredicateSpec,
        job_fields: Dict[str, object],
        chunk: int = POOL_EVALUATION_CHUNK,
    ) -> None:
        self.pool = pool
        self.spec = spec
        self.job_fields = dict(job_fields)
        self.chunk = max(1, chunk)
        #: Predicate counters summed over every dispatched candidate job.
        self.stats = PredicateStats()

    def _jobs(self, programs: Sequence[ast.Program]):
        from repro.orchestration.jobs import REDUCE_CHECK, CampaignJob

        return [
            CampaignJob(
                kind=REDUCE_CHECK,
                program=program,
                predicate_spec=self.spec,
                **self.job_fields,
            )
            for program in programs
        ]

    def check_original(self, program: ast.Program) -> bool:
        job_result = self.pool.run(self._jobs([program]))[0]
        self._merge_stats([job_result])
        return bool(job_result.accepted)

    def _merge_stats(self, job_results) -> None:
        for job_result in job_results:
            if job_result.predicate_stats is not None:
                self.stats = self.stats.merge(job_result.predicate_stats)

    def first_accepted(
        self, candidates: Iterator[ast.Program], budget: int
    ) -> Tuple[Optional[Tuple[int, ast.Program]], int, bool]:
        used = 0
        offset = 0
        while used < budget:
            batch: List[ast.Program] = []
            stream_ended = False
            while len(batch) < min(self.chunk, budget - used):
                try:
                    batch.append(next(candidates))
                except StopIteration:
                    stream_ended = True
                    break
            if not batch:
                return None, used, True
            used += len(batch)
            job_results = self.pool.run(self._jobs(batch))
            self._merge_stats(job_results)
            for position, job_result in enumerate(job_results):
                if job_result.accepted:
                    return (offset + position, batch[position]), used, False
            if stream_ended:
                return None, used, True
            offset += len(batch)
        return None, used, False


class PerCandidateEvaluator(PoolEvaluator):
    """Per-candidate ``reduce-check`` dispatch with *lazy* accounting.

    Campaign-issued reductions use this (instead of whole ``reduce-kernel``
    jobs) when a process pool has more workers than anomalies: the driver
    runs in the parent and every candidate becomes its own job, so one
    large anomaly parallelises across workers that would otherwise idle.

    The job construction and stats merging are inherited from
    :class:`PoolEvaluator`; only the accounting policy differs.  Where the
    base class charges whole fixed-size chunks against the budget, this
    evaluator *speculates*: it submits up to ``chunk`` candidates
    concurrently but charges -- in evaluations, predicate stats and budget
    -- only the candidates up to and including the first accepted one,
    exactly as the lazy :class:`LocalEvaluator` would have.  A reduction
    driven through it is therefore byte-identical (reduced kernel, trace,
    evaluation counts, pass attribution, predicate stats) to the serial
    backend's in-worker reduction, which is what keeps the campaign
    guarantee "serial == parallel summaries" intact.  The speculative
    candidates that did execute are only visible in the cache counters
    (``cache_stats``), which honestly record all work done.
    """

    def __init__(
        self,
        pool,
        spec: PredicateSpec,
        job_fields: Dict[str, object],
        chunk: Optional[int] = None,
    ) -> None:
        # Speculation width: a pure performance knob (results are
        # accounting-identical for any value), default two jobs per worker.
        super().__init__(
            pool, spec, job_fields,
            chunk=chunk if chunk is not None else pool.parallelism * 2,
        )
        #: Cache deltas of every dispatched job, speculative ones included.
        self.cache_stats = None

    def _note_caches(self, job_results) -> None:
        for job_result in job_results:
            self.cache_stats = (
                job_result.cache if self.cache_stats is None
                else self.cache_stats.merge(job_result.cache)
            )

    def check_original(self, program: ast.Program) -> bool:
        job_result = self.pool.run(self._jobs([program]))[0]
        self._note_caches([job_result])
        self._merge_stats([job_result])
        return bool(job_result.accepted)

    def first_accepted(
        self, candidates: Iterator[ast.Program], budget: int
    ) -> Tuple[Optional[Tuple[int, ast.Program]], int, bool]:
        used = 0
        offset = 0
        while used < budget:
            batch: List[ast.Program] = []
            stream_ended = False
            while len(batch) < min(self.chunk, budget - used):
                try:
                    batch.append(next(candidates))
                except StopIteration:
                    stream_ended = True
                    break
            if not batch:
                return None, used, True
            job_results = self.pool.run(self._jobs(batch))
            self._note_caches(job_results)
            for position, job_result in enumerate(job_results):
                if job_result.accepted:
                    # Lazy accounting: charge only up to the acceptance.
                    self._merge_stats(job_results[: position + 1])
                    used += position + 1
                    return (offset + position, batch[position]), used, False
            self._merge_stats(job_results)
            used += len(batch)
            offset += len(batch)
            if stream_ended:
                return None, used, True
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
                        stats.nodes_removed += ast.count_nodes(current) - ast.count_nodes(
                            candidate
                        )
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
            nodes_before=ast.count_nodes(program),
            nodes_after=ast.count_nodes(current),
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


def reduce_program(
    program: ast.Program,
    predicate: Optional[InterestingnessPredicate] = None,
    *,
    config: Optional[ReducerConfig] = None,
    pool=None,
    spec: Optional[PredicateSpec] = None,
    configs: Sequence = (),
    optimisation_levels: Sequence[bool] = (False, True),
    max_steps: int = 500_000,
    engine: str = "reference",
    variant_seed: int = 0,
    variants_per_base: Optional[int] = None,
) -> ReductionResult:
    """Convenience entry point covering both evaluation strategies.

    Without ``pool``, ``predicate`` runs in-process.  With ``pool`` (a
    :class:`~repro.orchestration.pool.WorkerPool`), ``spec`` + ``configs``
    describe the predicate by value and candidate batches are dispatched as
    ``reduce-check`` jobs; the serial and process backends produce
    byte-identical results.
    """
    reducer = Reducer(config)
    if pool is None:
        return reducer.reduce(program, predicate)
    if spec is None:
        raise ValueError("pool dispatch requires a PredicateSpec")
    from repro.orchestration.jobs import serialise_configs

    config_ids, config_overrides = serialise_configs(list(configs))
    evaluator = PoolEvaluator(
        pool,
        spec,
        job_fields=dict(
            seed=0,
            config_ids=config_ids,
            config_overrides=config_overrides,
            optimisation_levels=tuple(optimisation_levels),
            max_steps=max_steps,
            engine=engine,
            variant_seed=variant_seed,
            variants_per_base=variants_per_base,
        ),
    )
    return reducer.reduce(program, evaluator=evaluator)


__all__ = [
    "POOL_EVALUATION_CHUNK",
    "token_count",
    "NotReducibleError",
    "PassStats",
    "TraceStep",
    "ReductionSummary",
    "ReductionResult",
    "LocalEvaluator",
    "PoolEvaluator",
    "PerCandidateEvaluator",
    "ReducerConfig",
    "Reducer",
    "replay_trace",
    "reduce_program",
]
