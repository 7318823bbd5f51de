"""Serialisable campaign work units and their interpreter.

A :class:`CampaignJob` describes one unit of campaign work by *value*: a
generator seed, a mode, configuration ids and optimisation levels — never a
live AST or harness (the one exception is ``program``, used when a caller
hands pre-built base programs to ``run_emi_campaign``).  Jobs therefore
pickle cheaply across process boundaries and workers regenerate kernels
locally from the seed, which is both cheaper than shipping ASTs and
guarantees that the serial and process backends execute byte-identical work.

Four job kinds cover the campaigns of Tables 3-5:

``clsmith-differential``
    Generate one kernel from ``(mode, seed)`` and differential-test it across
    every ``(configuration, optimisation level)`` cell.  The whole kernel is
    one job because the majority vote of section 7.3 spans all cells of a
    kernel; sharding below kernel granularity would change verdicts.
``clsmith-curate``
    Generate one candidate kernel and report whether it survives the paper's
    test-curation step (build + run on the curation configuration with
    optimisations on).
``emi-base-filter``
    Generate one EMI base candidate and apply the dead-array-inversion
    filter of section 7.4; report acceptance.
``emi-family``
    Materialise one EMI base (from seed, or ``program``), expand its pruned
    variant family and run it on every ``(configuration, optimisation
    level)`` pair.
``reduce-check``
    Evaluate one candidate program (shipped by value) against the
    interestingness predicate described by ``predicate_spec``; report
    acceptance.  The reducer's :class:`~repro.reduction.reducer.
    PoolEvaluator` fans candidate batches out as these jobs.
``reduce-kernel``
    Materialise one anomalous kernel (from seed, or ``program``) and run a
    whole reduction against ``predicate_spec`` inside the worker, returning
    a :class:`~repro.reduction.reducer.ReductionSummary`.  Campaigns with
    ``auto_reduce=`` enqueue one of these per anomalous record, except
    when a process-backend pool has more workers than anomalies -- then
    each reduction is driven from the parent and its candidates fan out
    as per-candidate ``reduce-check`` jobs (see REDUCTION.md).
``triage-bisect``
    Attribute one bug bucket's representative reproducer (shipped by value)
    to a culprit component: bisect over the target configuration's
    bug-model injection points and, failing that, over the
    optimisation-pass schedule -- returning a
    :class:`~repro.triage.bisection.BisectionResult`.  Campaigns with
    ``auto_triage=`` enqueue one of these per bucket, so bisections share
    the issuing worker's result cache like every other job.

:func:`execute_job` interprets a job and returns a :class:`JobResult` of
plain aggregates (``OutcomeCounts`` per cell, ``EmiBaseResult`` rows, an
acceptance flag, a reduction summary) plus the cache hit/miss delta the job
produced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.emi.variants import generate_variants, invert_dead_array, mark_base_fingerprint
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast
from repro.orchestration.cache import CacheStats, ResultCache
from repro.orchestration.faults import WorkerFault
from repro.platforms.config import DeviceConfig
from repro.platforms.registry import get_configuration
from repro.runtime.engine import DEFAULT_ENGINE
from repro.testing.differential import DifferentialHarness
from repro.testing.emi_harness import EmiBaseResult, EmiHarness
from repro.testing.outcomes import Outcome, OutcomeCounts

if TYPE_CHECKING:  # telemetry is imported lazily on the timed path only
    from repro.observability import JobTiming

def serialise_configs(
    configs,
) -> Tuple[Tuple[Optional[int], ...], Optional[Tuple[Optional[DeviceConfig], ...]]]:
    """(config_ids, config_overrides) for shipping configurations in jobs.

    Registry configurations travel as their Table 1 ids (cheap; workers
    re-resolve them locally).  Modified or unregistered DeviceConfig objects
    (e.g. a registry configuration with its bug models stripped) cannot be
    reconstructed from an id, so the whole configuration list is shipped by
    value instead of being silently swapped for registry namesakes.
    """
    needs_override = False
    ids: List[Optional[int]] = []
    for config in configs:
        if config is None:
            ids.append(None)
            continue
        ids.append(config.config_id)
        try:
            registered = get_configuration(config.config_id)
        except KeyError:
            registered = None
        if registered is not config:
            needs_override = True
    return tuple(ids), tuple(configs) if needs_override else None


#: Job kinds understood by :func:`execute_job`.
CLSMITH_DIFFERENTIAL = "clsmith-differential"
CLSMITH_CURATE = "clsmith-curate"
EMI_BASE_FILTER = "emi-base-filter"
EMI_FAMILY = "emi-family"
REDUCE_CHECK = "reduce-check"
REDUCE_KERNEL = "reduce-kernel"
TRIAGE_BISECT = "triage-bisect"


@dataclass
class CampaignJob:
    """One (kernel-seed, mode, configurations, optimisation levels) work unit.

    ``config_ids`` holds Table 1 configuration ids; ``None`` denotes the
    bug-free reference configuration.  ``program`` overrides seed-based
    generation for ``emi-family`` jobs built from caller-supplied bases.
    """

    kind: str
    seed: int
    mode: str = Mode.ALL.value
    config_ids: Tuple[Optional[int], ...] = ()
    optimisation_levels: Tuple[bool, ...] = (False, True)
    options: Optional[GeneratorOptions] = None
    max_steps: int = 500_000
    emi_blocks: int = 0
    variants_per_base: Optional[int] = None
    variant_seed: int = 0
    program: Optional[ast.Program] = None
    #: Execution engine every cell of this job runs on (registry name; see
    #: :mod:`repro.runtime.engine`).  Part of the job's identity: workers
    #: construct their harnesses with it and the shared result caches key on
    #: it, so jobs differing only in engine never share cached executions.
    engine: str = DEFAULT_ENGINE
    #: When set, these configuration objects are used verbatim instead of
    #: resolving ``config_ids`` against the registry.  Campaigns set this when
    #: a caller passes modified or unregistered DeviceConfig objects (e.g. a
    #: registry configuration with its bug models stripped), which must not
    #: be silently swapped for their registry namesakes.
    config_overrides: Optional[Tuple[Optional[DeviceConfig], ...]] = None
    #: ``reduce-check`` / ``reduce-kernel`` only: the interestingness
    #: predicate by value (a :class:`repro.reduction.interestingness.
    #: PredicateSpec`); the configurations, optimisation levels, step budget,
    #: engine and EMI variant parameters come from the job's own fields.
    predicate_spec: Optional[object] = None
    #: ``reduce-kernel`` only: override for the reducer's global
    #: candidate-evaluation budget (``None`` keeps the ReducerConfig default).
    reduce_max_evaluations: Optional[int] = None

    def resolve_configs(self) -> List[Optional[DeviceConfig]]:
        """The job's live configurations: the shipped overrides, or the
        registry entries for the Table 1 ids."""
        if self.config_overrides is not None:
            return list(self.config_overrides)
        return [
            get_configuration(config_id) if config_id is not None else None
            for config_id in self.config_ids
        ]

    def materialise_program(self) -> ast.Program:
        """The job's program: the shipped one, or regenerated from the seed."""
        if self.program is not None:
            return self.program
        return generate_kernel(
            Mode(self.mode), self.seed, options=self.options, emi_blocks=self.emi_blocks
        )


@dataclass
class JobResult:
    """Aggregates produced by one executed :class:`CampaignJob`.

    Only the fields relevant to the job's kind are populated; ``cache`` holds
    the hit/miss/eviction delta this job contributed to its worker's cache.
    """

    kind: str
    seed: int
    emi_blocks: int = 0
    accepted: bool = True
    counts: Dict[Tuple[str, str, bool], OutcomeCounts] = field(default_factory=dict)
    emi_cells: List[EmiBaseResult] = field(default_factory=list)
    n_variants: Optional[int] = None
    cache: CacheStats = field(default_factory=CacheStats)
    #: ``reduce-kernel`` only: the reduction outcome (a
    #: :class:`repro.reduction.reducer.ReductionSummary`), or ``None`` when
    #: the kernel turned out not to be reducible (e.g. its anomaly involves
    #: undefined behaviour, which the UB guard refuses to chase).
    reduction: Optional[object] = None
    #: ``reduce-check`` only: the predicate's counters for this candidate
    #: (a :class:`repro.reduction.interestingness.PredicateStats`), so pool
    #: evaluators can aggregate ub/invalid/error rejections across workers.
    predicate_stats: Optional[object] = None
    #: ``triage-bisect`` only: the culprit attribution (a
    #: :class:`repro.triage.bisection.BisectionResult`).
    bisection: Optional[object] = None
    #: Set only on quarantined jobs: what the supervised dispatch loop
    #: observed when this job exhausted its execution leases (see
    #: :mod:`repro.orchestration.faults` and ORCHESTRATION.md).  A result
    #: with a fault carries no aggregates — the job's work never completed.
    fault: Optional[WorkerFault] = None
    #: Wall-clock record for this execution, populated only when the pool
    #: runs with telemetry (see :mod:`repro.observability` and
    #: OBSERVABILITY.md).  Deliberately excluded from ``job_identity``
    #: *and* from ``encode_job_result``: timing differs on every run, so
    #: it must never reach the byte-identity determinism surface.
    timing: Optional[JobTiming] = None

    @property
    def anomalous(self) -> bool:
        """True when any cell of this job surfaced an anomaly.

        Used by the live progress line; quarantine faults are counted
        separately (as faults, not anomalies).
        """
        for counts in self.counts.values():
            if (counts.wrong_code or counts.build_failure
                    or counts.runtime_crash or counts.timeout):
                return True
        for cell in self.emi_cells:
            if (cell.wrong_code or cell.induced_build_failure
                    or cell.induced_crash or cell.induced_timeout
                    or cell.bad_base):
                return True
        return False


def execute_job(
    job: CampaignJob,
    cache: Optional[ResultCache] = None,
    fault: Optional[Callable[[], None]] = None,
    timing: bool = False,
) -> JobResult:
    """Run one job (in whatever process this is called from).

    ``cache`` memoises execution results per worker: the serial backend
    shares one across all jobs of a pool, the process backend keeps one per
    worker process.

    ``fault`` is the fault-injection hook (no-op default): the worker loop
    passes a closure over its :class:`~repro.orchestration.faults.FaultPlan`
    which may raise, hang or kill the process here — *inside* the job — so
    an injected fault is indistinguishable from a genuine one to the
    supervisor watching this job's lease.

    With ``timing=True`` the call is measured and ``result.timing`` is
    populated with a :class:`~repro.observability.JobTiming` (duration,
    cells, fine-grained span aggregates).  When an ambient collector is
    installed (serial backend) the nested run/lower/bind spans land in it
    directly and the timing carries the delta; in a worker process a
    throwaway local collector is used instead and the pool merges the
    shipped deltas into the campaign registry.  Timing never steers
    execution, so results are byte-identical either way.
    """
    if cache is None:
        cache = ResultCache()
    if timing:
        return _execute_job_timed(job, cache, fault)
    before = cache.snapshot()
    if fault is not None:
        fault()
    result = _dispatch_job(job, cache)
    result.cache = cache.snapshot().since(before)
    return result


def _dispatch_job(job: CampaignJob, cache: ResultCache) -> JobResult:
    if job.kind == CLSMITH_DIFFERENTIAL:
        result = _execute_clsmith_differential(job, cache)
    elif job.kind == CLSMITH_CURATE:
        result = _execute_clsmith_curate(job, cache)
    elif job.kind == EMI_BASE_FILTER:
        result = _execute_emi_base_filter(job, cache)
    elif job.kind == EMI_FAMILY:
        result = _execute_emi_family(job, cache)
    elif job.kind == REDUCE_CHECK:
        result = _execute_reduce_check(job, cache)
    elif job.kind == REDUCE_KERNEL:
        result = _execute_reduce_kernel(job, cache)
    elif job.kind == TRIAGE_BISECT:
        result = _execute_triage_bisect(job, cache)
    else:
        raise ValueError(f"unknown campaign job kind: {job.kind!r}")
    return result


def _execute_job_timed(
    job: CampaignJob,
    cache: ResultCache,
    fault: Optional[Callable[[], None]],
) -> JobResult:
    """The ``timing=True`` body of :func:`execute_job`."""
    from repro.observability import (
        JobTiming,
        TelemetryCollector,
        current_collector,
        use_collector,
    )

    collector = current_collector()
    owns_collector = collector is None
    if owns_collector:
        # Worker process: no ambient collector; record fine-grained spans
        # into a throwaway registry whose deltas ship back with the result.
        collector = TelemetryCollector(sink=None)
    spans_before = collector.registry.snapshot_durations()
    before = cache.snapshot()
    start = time.perf_counter()
    if fault is not None:
        fault()
    if owns_collector:
        with use_collector(collector):
            result = _dispatch_job(job, cache)
    else:
        result = _dispatch_job(job, cache)
    duration = time.perf_counter() - start
    result.cache = cache.snapshot().since(before)
    result.timing = JobTiming(
        duration_s=duration,
        cells=result.cache.lookups,
        spans=collector.registry.durations_since(spans_before),
    )
    return result


# ---------------------------------------------------------------------------
# Per-kind interpreters
# ---------------------------------------------------------------------------


def _execute_clsmith_differential(job: CampaignJob, cache: ResultCache) -> JobResult:
    program = job.materialise_program()
    harness = DifferentialHarness(
        job.resolve_configs(),
        optimisation_levels=job.optimisation_levels,
        max_steps=job.max_steps,
        cache=cache,
        engine=job.engine,
    )
    counts: Dict[Tuple[str, str, bool], OutcomeCounts] = {}
    for record in harness.run(program).records:
        key = (job.mode, record.config_name, record.optimisations)
        counts.setdefault(key, OutcomeCounts()).add(record.outcome)
    return JobResult(job.kind, job.seed, counts=counts)


def _execute_clsmith_curate(job: CampaignJob, cache: ResultCache) -> JobResult:
    program = job.materialise_program()
    harness = DifferentialHarness(
        job.resolve_configs(),
        optimisation_levels=job.optimisation_levels,
        max_steps=job.max_steps,
        cache=cache,
        engine=job.engine,
    )
    record = harness.run(program).records[0]
    accepted = record.outcome not in (Outcome.BUILD_FAILURE, Outcome.TIMEOUT)
    return JobResult(job.kind, job.seed, accepted=accepted)


def _execute_emi_base_filter(job: CampaignJob, cache: ResultCache) -> JobResult:
    candidate = job.materialise_program()
    harness = EmiHarness(max_steps=job.max_steps, cache=cache, engine=job.engine)
    normal_outcome, normal = harness.run_single(candidate, None, True)
    inverted_outcome, inverted = harness.run_single(
        invert_dead_array(candidate), None, True
    )
    accepted = normal_outcome is Outcome.PASS and inverted_outcome is Outcome.PASS
    if accepted and normal is not None and inverted is not None:
        # Identical outputs under dead-array inversion mean every EMI block
        # landed in already-dead code; the paper discards such bases.
        accepted = normal.outputs != inverted.outputs
    return JobResult(job.kind, job.seed, emi_blocks=job.emi_blocks, accepted=accepted)


def _execute_emi_family(job: CampaignJob, cache: ResultCache) -> JobResult:
    if job.program is not None:
        base = job.program
    else:
        base = mark_base_fingerprint(job.materialise_program())
    variants = generate_variants(base, seed=job.variant_seed)
    if job.variants_per_base is not None:
        variants = variants[: job.variants_per_base]
    family = [base] + variants
    harness = EmiHarness(max_steps=job.max_steps, cache=cache, engine=job.engine)
    cells = [
        harness.run_family(family, config, optimisations)
        for config in job.resolve_configs()
        for optimisations in job.optimisation_levels
    ]
    return JobResult(
        job.kind,
        job.seed,
        emi_blocks=job.emi_blocks,
        emi_cells=cells,
        n_variants=len(variants),
    )


def _build_job_predicate(job: CampaignJob, cache: ResultCache):
    """The live predicate for a reduce job, sharing the worker's cache."""
    # Imported lazily: repro.reduction pulls in the harness stack, and the
    # reducer's PoolEvaluator in turn builds CampaignJobs from this module.
    from repro.reduction.interestingness import build_predicate

    return build_predicate(
        job.predicate_spec,
        job.resolve_configs(),
        job.optimisation_levels,
        job.max_steps,
        job.engine,
        variant_seed=job.variant_seed,
        variants_per_base=job.variants_per_base,
        cache=cache,
    )


def _execute_reduce_check(job: CampaignJob, cache: ResultCache) -> JobResult:
    if job.program is None:
        raise ValueError("reduce-check jobs carry the candidate by value")
    predicate = _build_job_predicate(job, cache)
    accepted = bool(predicate(job.program))
    return JobResult(
        job.kind, job.seed, accepted=accepted, predicate_stats=predicate.stats
    )


def _execute_reduce_kernel(job: CampaignJob, cache: ResultCache) -> JobResult:
    from repro.reduction.reducer import NotReducibleError, Reducer, ReducerConfig

    # No fingerprint pre-marking: EmiFamilyPredicate re-derives every
    # evaluated program's own fingerprint (refresh_base_fingerprint), which
    # yields the identical value for the unmodified original.
    program = job.program if job.program is not None else job.materialise_program()
    predicate = _build_job_predicate(job, cache)
    config = ReducerConfig(seed=job.seed)
    if job.reduce_max_evaluations is not None:
        config.max_evaluations = job.reduce_max_evaluations
    try:
        result = Reducer(config).reduce(program, predicate)
    except NotReducibleError:
        # The original no longer satisfies its own predicate (e.g. the UB
        # guard vetoed it); report "not reducible" rather than failing the
        # whole campaign.  Any other exception is a genuine fault and
        # propagates.
        return JobResult(job.kind, job.seed, emi_blocks=job.emi_blocks)
    summary = result.summary(
        seed=job.seed,
        mode=job.mode,
        predicate_kind=job.predicate_spec.kind,
        signature=job.predicate_spec.signature,
    )
    return JobResult(
        job.kind, job.seed, emi_blocks=job.emi_blocks, reduction=summary
    )


def _execute_triage_bisect(job: CampaignJob, cache: ResultCache) -> JobResult:
    # Imported lazily: repro.triage builds on the reduction/harness stack,
    # which in turn builds jobs from this module.
    from repro.triage.bisection import attribute_culprit

    if job.program is None:
        raise ValueError("triage-bisect jobs carry the reproducer by value")
    bisection = attribute_culprit(
        job.program,
        job.predicate_spec,
        job.resolve_configs(),
        optimisation_levels=job.optimisation_levels,
        max_steps=job.max_steps,
        engine=job.engine,
        variant_seed=job.variant_seed,
        variants_per_base=job.variants_per_base,
        cache=cache,
    )
    return JobResult(
        job.kind, job.seed, emi_blocks=job.emi_blocks, bisection=bisection
    )


__all__ = [
    "serialise_configs",
    "CLSMITH_DIFFERENTIAL",
    "CLSMITH_CURATE",
    "EMI_BASE_FILTER",
    "EMI_FAMILY",
    "REDUCE_CHECK",
    "REDUCE_KERNEL",
    "TRIAGE_BISECT",
    "CampaignJob",
    "JobResult",
    "execute_job",
]
