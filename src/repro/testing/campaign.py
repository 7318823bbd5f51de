"""Campaign orchestration: the experiments behind Tables 3, 4 and 5.

The functions here generate workloads, run the differential / EMI harnesses
at configurable scale, and aggregate the counts into the same row/column
structure the paper reports.  The benchmark harnesses under ``benchmarks/``
call these functions with small-but-meaningful sizes and print the resulting
tables; EXPERIMENTS.md records the sizes used and compares the shapes with
the paper.

All campaign work is routed through the sharded execution engine of
:mod:`repro.orchestration`: each campaign builds a list of serialisable
:class:`~repro.orchestration.jobs.CampaignJob` units (seeds, not ASTs — the
workers regenerate kernels locally) and hands it to a
:class:`~repro.orchestration.pool.WorkerPool`.  The ``parallelism=`` knob on
:func:`run_clsmith_campaign`, :func:`run_emi_campaign` and
:func:`generate_emi_bases` selects the backend: ``None``/``1`` runs the
deterministic in-process serial backend, larger values shard the jobs across
that many worker processes.  Both backends produce byte-identical tables for
the same seed (see ORCHESTRATION.md and ``tests/test_orchestration.py``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.emi.variants import PRUNING_GRID, mark_base_fingerprint
from repro.observability import (
    SPAN_CAMPAIGN,
    SPAN_PHASE,
    CampaignTelemetry,
    TelemetryCollector,
    maybe_span,
    use_collector,
)
from repro.generator import generate_kernel
from repro.generator.options import ALL_MODES, GeneratorOptions, Mode
from repro.kernel_lang import ast
from repro.orchestration.cache import CacheStats
from repro.orchestration.faults import FaultPlan, QuarantineRecord
from repro.orchestration.jobs import (
    CLSMITH_CURATE,
    CLSMITH_DIFFERENTIAL,
    EMI_BASE_FILTER,
    EMI_FAMILY,
    REDUCE_KERNEL,
    TRIAGE_BISECT,
    CampaignJob,
    JobResult,
    serialise_configs,
)
from repro.orchestration.pool import (
    PoolHealth,
    SupervisionConfig,
    WorkerPool,
    speculation_width,
)
from repro.platforms.calibration import program_fingerprint
from repro.platforms.config import DeviceConfig
from repro.reduction.interestingness import (
    FAILURE_CODES,
    PredicateSpec,
    Signature,
    emi_family_signature,
)
from repro.reduction.reducer import PoolEvaluator, ReductionSummary, reduce_job
from repro.runtime.engine import DEFAULT_ENGINE, get_engine
from repro.testing.outcomes import Outcome, OutcomeCounts, cell_label
from repro.triage.bucketing import bucket_reductions
from repro.triage.report import TriageResult
from repro.triage.store import (
    StoreBackedPool,
    campaign_key,
    config_identity,
    job_identity,
    open_store,
)


# ---------------------------------------------------------------------------
# Table 4: large-scale CLsmith differential testing
# ---------------------------------------------------------------------------


@dataclass
class ClsmithCampaignResult:
    """Counts per (mode, configuration, optimisation level)."""

    kernels_per_mode: int
    counts: Dict[Tuple[str, str, bool], OutcomeCounts] = field(default_factory=dict)
    #: Aggregated execution-result cache counters across all workers.
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Always zero: there is no prepared-program cache any more.  Kept only
    #: because ``perfbench/run.py --trace 1`` reads ``.hits``/``.misses``;
    #: it goes when the benchmark stops reading it.
    prepared_stats: CacheStats = field(default_factory=CacheStats)
    #: ``auto_reduce=True`` only: one minimised reproducer per anomalous
    #: kernel, in (mode, seed) job order (see REDUCTION.md).
    reductions: List[ReductionSummary] = field(default_factory=list)
    #: ``auto_triage=True`` only: deduplicated bug buckets with culprit
    #: attributions and a Markdown report (see TRIAGE.md).
    triage: Optional[TriageResult] = None
    #: Jobs the fault-tolerant runtime quarantined (retries exhausted), in
    #: submission order; empty on a fault-free run (see ORCHESTRATION.md
    #: "Fault tolerance").
    worker_faults: List[QuarantineRecord] = field(default_factory=list)
    #: Supervisor health counters (retries, respawns, deadline kills,
    #: in-parent jobs, pool shrinks, quarantines), always populated —
    #: telemetry on or off (see OBSERVABILITY.md).
    health: PoolHealth = field(default_factory=PoolHealth)
    #: Aggregated timing + health summary, populated only when the
    #: campaign ran with a ``telemetry=`` collector; never rendered by
    #: default (wall-clock data stays off the determinism surface).
    telemetry: Optional[CampaignTelemetry] = None

    def cell(self, mode: Mode, config_name: str, optimisations: bool) -> OutcomeCounts:
        return self.counts.setdefault(
            (mode.value, config_name, optimisations), OutcomeCounts()
        )

    def table_rows(self) -> List[Dict[str, object]]:
        rows: List[Dict[str, object]] = []
        for (mode, config_name, optimisations), counts in sorted(self.counts.items()):
            rows.append(
                {
                    "mode": mode,
                    "configuration": f"{config_name}{'+' if optimisations else '-'}",
                    **counts.as_dict(),
                    "w%": round(counts.wrong_code_percentage, 2),
                }
            )
        return rows

    def render(self) -> str:
        lines = [
            f"{'mode':<18}{'configuration':<16}{'w':>5}{'bf':>5}{'c':>5}"
            f"{'to':>5}{'ok':>6}{'w%':>7}"
        ]
        for row in self.table_rows():
            lines.append(
                f"{row['mode']:<18}{row['configuration']:<16}{row['w']:>5}{row['bf']:>5}"
                f"{row['c']:>5}{row['to']:>5}{row['ok']:>6}{row['w%']:>7}"
            )
        # Only on faulty runs, so a fault-free table is byte-identical to
        # the quarantine-unaware renderer.
        lines.extend(_render_worker_faults(self.worker_faults))
        return "\n".join(lines)


def run_clsmith_campaign(
    configs: Sequence[DeviceConfig],
    kernels_per_mode: int = 8,
    modes: Sequence[Mode] = ALL_MODES,
    options: Optional[GeneratorOptions] = None,
    curate_on: Optional[DeviceConfig] = None,
    max_steps: int = 500_000,
    seed: int = 0,
    parallelism: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
    auto_reduce: bool = False,
    reduce_budget: Optional[int] = None,
    auto_triage: bool = False,
    resume=None,
    fault_plan: Optional[FaultPlan] = None,
    supervision: Optional[SupervisionConfig] = None,
    telemetry: Optional[TelemetryCollector] = None,
) -> ClsmithCampaignResult:
    """Reproduce the Table 4 experiment at a configurable scale.

    ``curate_on`` reproduces the paper's test-curation step: generated kernels
    that fail to build (or time out) on that configuration with optimisations
    enabled are discarded and replaced, which is why Table 4 shows zero build
    failures for configuration 1+.

    One job covers one curated kernel across every (configuration,
    optimisation level) cell — the majority vote of section 7.3 spans all
    cells of a kernel, so kernels are the sharding granularity.
    ``parallelism`` > 1 distributes kernels (and curation candidates) over
    that many worker processes; the aggregated table is identical to a serial
    run with the same seed.  ``engine`` selects the execution engine for
    every cell (and is part of the result-cache fingerprint); the table is
    engine-independent by the engine contract (see ENGINE.md).  An
    unregistered ``engine`` raises the registry's ``KeyError`` before the
    store or the worker pool is touched.

    With ``auto_reduce=True`` every anomalous kernel (any wrong-code, build
    failure, crash or timeout cell) is shrunk to a minimal reproducer that
    preserves its exact failure signature, and the resulting
    :class:`~repro.reduction.reducer.ReductionSummary` objects are attached
    as ``result.reductions``.  Reductions run as ``reduce-kernel`` jobs
    (one anomaly per worker); a process backend with more workers than
    anomalies instead drives each reduction from the parent and fans its
    candidates out as per-candidate ``reduce-check`` jobs, so a single
    large anomaly parallelises across the otherwise-idle pool -- with lazy
    accounting that keeps every dispatch path attaching byte-identical
    summaries.  ``reduce_budget`` caps the candidate evaluations per
    anomaly.  A ``reduce_budget`` or a ``max_steps`` below 1 raises
    ``ValueError`` before the store or the worker pool is touched.

    ``auto_triage=True`` (implies ``auto_reduce``) additionally deduplicates
    the reduced reproducers into bug buckets, attributes each bucket to a
    culprit bug model or optimisation pass via ``triage-bisect`` jobs on the
    same pool, and attaches the result as ``result.triage`` (see TRIAGE.md).

    ``resume=`` names a :class:`~repro.triage.store.CampaignStore` (or its
    path): every executed job is recorded there, and a re-run of the same
    campaign replays recorded results instead of re-executing them -- a
    campaign killed mid-run resumes to byte-identical tables, buckets and
    reports on both backends.  With a store and ``auto_triage``, anomalies
    whose pre-reduction fingerprint matches one an *earlier* campaign
    already reduced are not re-reduced: the stored reproducer is attached
    instead (bucket-aware scheduling; see TRIAGE.md).

    The campaign runs on the fault-tolerant pool (ORCHESTRATION.md "Fault
    tolerance"): worker crashes, hangs and job exceptions are retried under
    ``supervision`` (default :class:`~repro.orchestration.pool.
    SupervisionConfig`), and jobs that exhaust retries land in
    ``result.worker_faults`` instead of killing the campaign.
    ``fault_plan`` injects deterministic faults for chaos testing; leave it
    ``None`` in production.

    ``telemetry=`` (a :class:`~repro.observability.TelemetryCollector`)
    records spans, per-job timings and supervisor events while the
    campaign runs, optionally streaming them to a JSONL trace sink, and
    attaches the aggregate as ``result.telemetry``.  Telemetry observes
    but never steers: tables, reductions, buckets and reports are
    byte-identical with it on or off (see OBSERVABILITY.md), and the
    ``None`` default costs nothing.  ``result.health`` (supervisor
    counters) is populated either way.
    """
    get_engine(engine)
    _check_reduce_budget(reduce_budget)
    _check_max_steps(max_steps)
    auto_reduce = auto_reduce or auto_triage
    config_ids, config_overrides = serialise_configs(configs)
    result = ClsmithCampaignResult(kernels_per_mode)
    store = open_store(resume, fault_plan=fault_plan)
    store_key = ""
    if store is not None:
        store_key = campaign_key(
            "clsmith",
            config_ids=config_ids,
            kernels_per_mode=kernels_per_mode,
            modes=tuple(mode.value for mode in modes),
            options=options,
            curated=config_identity(curate_on),
            max_steps=max_steps,
            seed=seed,
            engine=engine,
        )
        store.begin_campaign(
            store_key, {"entry": "run_clsmith_campaign", "seed": seed}
        )
    started = time.perf_counter()
    with _telemetry_scope(telemetry, "clsmith"), _campaign_resources(
        parallelism, store, resume, fault_plan=fault_plan,
        supervision=supervision, telemetry=telemetry,
    ) as worker_pool:
        pool = worker_pool if store is None else StoreBackedPool(
            worker_pool, store, campaign=store_key
        )
        jobs: List[CampaignJob] = []
        with maybe_span(SPAN_PHASE, "curate"):
            for mode_index, mode in enumerate(modes):
                kernel_seeds, curation_stats = _curated_seeds(
                    pool, mode, kernels_per_mode, seed + mode_index * 10_000,
                    options, curate_on, max_steps, engine,
                )
                result.cache_stats = result.cache_stats.merge(curation_stats)
                jobs.extend(
                    CampaignJob(
                        kind=CLSMITH_DIFFERENTIAL,
                        seed=kernel_seed,
                        mode=mode.value,
                        config_ids=config_ids,
                        config_overrides=config_overrides,
                        optimisation_levels=(False, True),
                        options=options,
                        max_steps=max_steps,
                        engine=engine,
                    )
                    for kernel_seed in kernel_seeds
                )
        with maybe_span(SPAN_PHASE, "execute"):
            job_results = pool.run(jobs)
        for job_result in job_results:
            for key, cell_counts in job_result.counts.items():
                result.counts[key] = result.counts.get(key, OutcomeCounts()).merge(cell_counts)
            result.cache_stats = result.cache_stats.merge(job_result.cache)
        if auto_reduce:
            with maybe_span(SPAN_PHASE, "reduce"):
                reduce_jobs = []
                for job, job_result in zip(jobs, job_results):
                    signature = _clsmith_failure_signature(job_result)
                    if not signature:
                        continue
                    reduce_jobs.append(
                        CampaignJob(
                            kind=REDUCE_KERNEL,
                            seed=job.seed,
                            mode=job.mode,
                            config_ids=config_ids,
                            config_overrides=config_overrides,
                            optimisation_levels=(False, True),
                            options=options,
                            max_steps=max_steps,
                            engine=engine,
                            predicate_spec=PredicateSpec(
                                kind="differential", signature=signature
                            ),
                            reduce_max_evaluations=reduce_budget,
                        )
                    )
                _run_reduce_jobs(
                    pool, reduce_jobs, result, store=store, campaign=store_key,
                    known_anomalies=_stored_anomaly_summaries(
                        store, store_key, enabled=auto_triage
                    ),
                )
        if auto_triage:
            with maybe_span(SPAN_PHASE, "triage"):
                result.triage = _run_triage(
                    pool,
                    result,
                    dict(
                        config_ids=config_ids,
                        config_overrides=config_overrides,
                        optimisation_levels=(False, True),
                        options=options,
                        max_steps=max_steps,
                        engine=engine,
                    ),
                    store=store,
                    campaign=store_key,
                )
        _attach_worker_faults(result, pool)
    _finish_telemetry(telemetry, result, started)
    return result


def _check_reduce_budget(reduce_budget: Optional[int]) -> None:
    """Reject a budget below 1: it cannot pay for a single evaluation."""
    if reduce_budget is not None and reduce_budget < 1:
        raise ValueError(f"reduce_budget must be None or at least 1, got {reduce_budget!r}")


def _check_max_steps(max_steps: int) -> None:
    """Reject a step budget below 1: every cell would time out before its
    first step, which reads as a timeout on every configuration."""
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps!r}")


@contextmanager
def _telemetry_scope(telemetry: Optional[TelemetryCollector], name: str):
    """Install the campaign's collector as ambient and open its span.

    A no-op (and no cost beyond the ``None`` check) when the campaign
    runs without telemetry.
    """
    if telemetry is None:
        yield
        return
    with use_collector(telemetry):
        with telemetry.span(SPAN_CAMPAIGN, name=name):
            yield


def _finish_telemetry(
    telemetry: Optional[TelemetryCollector], result, started: float
) -> None:
    """Attach the aggregated :class:`CampaignTelemetry` to the result."""
    if telemetry is None:
        return
    registry = telemetry.registry
    result.telemetry = CampaignTelemetry(
        wall_s=time.perf_counter() - started,
        jobs=registry.counters.get("event:job-finished", 0),
        cells=registry.counters.get("cells", 0),
        counters=dict(registry.counters),
        durations=registry.durations(),
        health=result.health.as_dict(),
    )


@contextmanager
def _campaign_resources(
    parallelism: Optional[int], store, resume,
    fault_plan: Optional[FaultPlan] = None,
    supervision: Optional[SupervisionConfig] = None,
    telemetry: Optional[TelemetryCollector] = None,
):
    """One worker pool, plus store-close on every exit path.

    A campaign-opened store must release its append handle even when the
    campaign body raises (the kill-mid-run scenario ``resume=`` exists
    for); caller-owned stores stay open, since the caller may keep
    appending campaigns to them.  The pool's context manager guarantees
    worker teardown on every exit path too: a graceful ``close()`` on
    success, a hard ``terminate()`` when the body raises (including
    :exc:`KeyboardInterrupt` — an interrupted campaign must not leak
    worker processes).

    Campaign stores on the process backend default to durable appends
    (fsync per record): those are the long overnight runs where a *host*
    crash must lose at most the in-flight record.  An explicit
    ``durable=`` choice on a caller-owned store is never overridden.
    """
    from repro.triage.store import CampaignStore

    try:
        with WorkerPool(
            parallelism, fault_plan=fault_plan, supervision=supervision,
            telemetry=telemetry,
        ) as pool:
            if store is not None and store.durable is None:
                store.durable = pool.backend == "process"
            yield pool
    finally:
        if store is not None and not isinstance(resume, CampaignStore):
            store.close()


def _attach_worker_faults(result, pool) -> None:
    """Surface the pool's quarantine log and health on the campaign result.

    Quarantined jobs become :class:`~repro.orchestration.faults.
    QuarantineRecord` entries (submission order) on
    ``result.worker_faults``, and a triage report (when present) lists
    them alongside the buckets.  The store side is already covered:
    :class:`~repro.triage.store.StoreBackedPool` records each quarantine
    as a ``worker-fault`` record the moment it happens.  A fault-free
    campaign leaves the rendered output byte-identical to the
    quarantine-unaware renderer; ``result.health`` (supervisor counters,
    see OBSERVABILITY.md) is attached unconditionally — it never renders
    by default.
    """
    result.health = pool.health.copy()
    records = [
        QuarantineRecord(
            job_kind=job.kind, seed=job.seed, mode=job.mode, fault=fault,
            identity=job_identity(job),
        )
        for job, fault in pool.quarantined
    ]
    if not records:
        return
    result.worker_faults = records
    if result.triage is not None:
        result.triage.worker_faults = list(records)


def _render_worker_faults(records: List[QuarantineRecord]) -> List[str]:
    """Extra render() lines for quarantined jobs ([] on fault-free runs)."""
    if not records:
        return []
    lines = ["", f"quarantined jobs ({len(records)}):"]
    lines.extend(f"  {record.render_line()}" for record in records)
    return lines


def _anomaly_fingerprint(job: CampaignJob) -> str:
    """The bucket fingerprint of a reduce job's *unreduced* anomaly.

    Same construction as the post-reduction bucket key (alpha-normalised
    shape x failure signature x mode x predicate kind), but over the
    anomalous program as generated -- computable before any reduction runs,
    which is what lets bucket-aware scheduling skip work (see TRIAGE.md).
    """
    from repro.triage.bucketing import bug_fingerprint

    program = job.program if job.program is not None else job.materialise_program()
    return bug_fingerprint(
        program, job.predicate_spec.signature, job.mode, job.predicate_spec.kind
    )


def _stored_anomaly_summaries(
    store, campaign: str, enabled: bool = True
) -> Dict[str, ReductionSummary]:
    """Anomaly fingerprint -> reduced reproducer, from *other* campaigns.

    This is the input to bucket-aware scheduling: an anomaly whose
    fingerprint appears here was already reduced by an earlier campaign
    sharing the store, so re-reducing it would only rediscover a known
    bucket.  Records written by ``campaign`` itself are excluded -- a
    killed-and-resumed campaign must make exactly the decisions its
    uninterrupted twin would, so its own partial progress never feeds
    back into its scheduling (the resume byte-identity property).
    """
    if store is None or not enabled:
        return {}
    known: Dict[str, ReductionSummary] = {}
    for record in store.records("anomaly"):
        if record.get("campaign") == campaign:
            continue
        stored = store.lookup_reduction(
            record["reduction_key"], campaign=record.get("campaign", "")
        )
        if stored is not None and record["key"] not in known:
            known[record["key"]] = stored[0]
    return known


def _run_reduce_jobs(
    pool, reduce_jobs: List[CampaignJob], result, store=None, campaign: str = "",
    known_anomalies: Optional[Dict[str, ReductionSummary]] = None,
) -> None:
    """Run campaign-issued reductions and fold their outcomes into a
    campaign result (shared by the CLsmith and EMI auto-triage paths so the
    merge policy cannot drift).

    Serial backends run whole ``reduce-kernel`` jobs.  Process backends
    pick the dispatch axis by saturation: with at least as many anomalies
    as workers, whole ``reduce-kernel`` jobs already fill the pool (and
    across-anomaly parallelism beats within-reduction parallelism, whose
    accept chain is inherently sequential); with fewer anomalies than
    workers, each reduction is instead driven in the parent through a
    :class:`~repro.reduction.reducer.PoolEvaluator`, whose per-candidate
    ``reduce-check`` jobs keep the idle workers busy.  Both axes run
    :func:`~repro.reduction.reducer.reduce_job`, so summaries are
    byte-identical whichever runs -- the choice depends only on the job
    count and the pool width, never on timing.  Anomalies that turned out
    not to be reducible (UB-vetoed originals) contribute cache deltas but no
    summary.
    With a store, each summary is also recorded as a ``reduction`` record
    (keyed by campaign + reduce-job identity) together with the job context
    `repro-triage` needs for later cross-campaign bucketing and bisection,
    plus an ``anomaly`` record mapping the pre-reduction fingerprint to
    that reduction.

    ``known_anomalies`` (see :func:`_stored_anomaly_summaries`) is the
    bucket-aware scheduling input: jobs whose anomaly fingerprint appears
    there are not reduced at all -- the stored reproducer is attached in
    the job's position instead, contributing no cache traffic.
    """
    known_anomalies = known_anomalies or {}
    skipped: Dict[int, ReductionSummary] = {}
    fingerprints: Dict[int, str] = {}
    if store is not None or known_anomalies:
        for index, job in enumerate(reduce_jobs):
            fingerprints[index] = _anomaly_fingerprint(job)
            stored_summary = known_anomalies.get(fingerprints[index])
            if stored_summary is not None:
                skipped[index] = stored_summary
    live = [
        (index, job)
        for index, job in enumerate(reduce_jobs)
        if index not in skipped
    ]
    summaries: Dict[int, Tuple[CampaignJob, Optional[ReductionSummary], CacheStats]] = {}
    per_candidate = (
        pool.backend == "process" and len(live) < pool.parallelism
    )
    if per_candidate:
        for index, job in live:
            stored = (
                store.lookup_reduction(job_identity(job), campaign=campaign)
                if store else None
            )
            if stored is not None:
                # Replay the recorded cache deltas too, so a resumed
                # campaign's surfaced counters include the reduction phase
                # exactly like every job-record replay does.
                summary, cache_delta = stored
            else:
                evaluator = PoolEvaluator(pool, job)
                summary = reduce_job(job, evaluator)
                cache_delta = evaluator.cache_stats
            result.cache_stats = result.cache_stats.merge(cache_delta)
            summaries[index] = (job, summary, cache_delta)
    else:
        for (index, job), job_result in zip(
            live, pool.run([job for _, job in live])
        ):
            result.cache_stats = result.cache_stats.merge(job_result.cache)
            summaries[index] = (job, job_result.reduction, job_result.cache)
    for index in range(len(reduce_jobs)):
        if index in skipped:
            result.reductions.append(skipped[index])
            continue
        job, summary, cache_delta = summaries[index]
        if summary is None:
            continue
        result.reductions.append(summary)
        if store is not None:
            reduction_key = job_identity(job)
            store.record_reduction(
                reduction_key, summary, job, campaign=campaign, cache=cache_delta,
            )
            store.record_once(
                "anomaly", fingerprints[index],
                {"campaign": campaign, "reduction_key": reduction_key},
            )


def _run_triage(
    pool, result, job_template: Dict[str, object], store=None, campaign: str = ""
) -> TriageResult:
    """Bucket the campaign's reductions and bisect one culprit per bucket.

    Bucketing is pure and happens in the parent; bisection ships as one
    ``triage-bisect`` job per bucket on the campaign's own pool (sharing
    the per-worker result caches), in deterministic bucket order,
    so serial and process backends attach identical attributions.
    """
    buckets = bucket_reductions(result.reductions)
    jobs = [
        CampaignJob(
            kind=TRIAGE_BISECT,
            seed=bucket.representative.seed,
            mode=bucket.representative.mode,
            program=bucket.representative.reduced_program,
            predicate_spec=PredicateSpec(
                kind=bucket.predicate_kind, signature=bucket.signature
            ),
            **job_template,
        )
        for bucket in buckets
    ]
    for bucket, job_result in zip(buckets, pool.run(jobs)):
        bucket.culprit = job_result.bisection
        result.cache_stats = result.cache_stats.merge(job_result.cache)
    triage = TriageResult(buckets)
    if store is not None:
        import dataclasses

        for bucket in buckets:
            store.record_once(
                "bucket",
                f"{campaign}:{bucket.key}",
                {
                    "campaign": campaign,
                    "fingerprint": bucket.key,
                    "signature": [list(cell) for cell in bucket.signature],
                    "mode": bucket.mode,
                    "predicate_kind": bucket.predicate_kind,
                    "worst_code": bucket.worst_code,
                    "occurrences": bucket.occurrences,
                    "members": [dataclasses.asdict(m) for m in bucket.members],
                    "canonical_source": bucket.canonical_source,
                    "culprit": (
                        dataclasses.asdict(bucket.culprit)
                        if bucket.culprit is not None
                        else None
                    ),
                },
            )
    return triage


def _clsmith_failure_signature(job_result: JobResult) -> Signature:
    """The (cell label, outcome code) anomaly signature of one kernel's job.

    Kernels with any undefined-behaviour cell are not reducible -- the UB
    guard would veto the original -- so they yield an empty signature and
    auto-reduction skips them (UB tests are discarded, never triaged).
    """
    cells = []
    for (_, config_name, optimisations), counts in sorted(job_result.counts.items()):
        as_dict = counts.as_dict()
        if as_dict["ub"]:
            return ()
        label = cell_label(config_name, optimisations)
        for code in FAILURE_CODES:
            cells.extend([(label, code)] * as_dict[code])
    return tuple(sorted(cells))


def _scan_accepted(
    pool: WorkerPool,
    count: int,
    budget: int,
    job_for_attempt,
) -> Tuple[List[JobResult], CacheStats]:
    """The first ``count`` accepted candidates of at most ``budget`` attempts.

    Candidates are evaluated in attempt order (``speculation_width`` at a
    time), so the accepted set is independent of the backend.  Returns the
    accepted job results plus the merged result-cache delta of every
    candidate evaluated.
    """
    chunk = speculation_width(pool)
    accepted: List[JobResult] = []
    stats = CacheStats()
    attempt = 0
    while len(accepted) < count and attempt < budget:
        batch = [
            job_for_attempt(attempt + offset)
            for offset in range(min(chunk, budget - attempt))
        ]
        for job_result in pool.run(batch):
            attempt += 1
            stats = stats.merge(job_result.cache)
            if job_result.accepted and len(accepted) < count:
                accepted.append(job_result)
    return accepted, stats


def _curated_seeds(
    pool: WorkerPool,
    mode: Mode,
    count: int,
    seed: int,
    options: Optional[GeneratorOptions],
    curate_on: Optional[DeviceConfig],
    max_steps: int,
    engine: str = DEFAULT_ENGINE,
) -> Tuple[List[int], CacheStats]:
    """Seeds of the first ``count`` candidates that survive test curation.

    Without curation every candidate survives and no jobs run.
    """
    if curate_on is None:
        seeds = [seed + attempt for attempt in range(count)]
        return seeds, CacheStats()
    curation_ids, curation_overrides = serialise_configs([curate_on])

    def job_for_attempt(attempt: int) -> CampaignJob:
        return CampaignJob(
            kind=CLSMITH_CURATE,
            seed=seed + attempt,
            mode=mode.value,
            config_ids=curation_ids,
            config_overrides=curation_overrides,
            optimisation_levels=(True,),
            options=options,
            max_steps=max_steps,
            engine=engine,
        )

    accepted, stats = _scan_accepted(pool, count, count * 5, job_for_attempt)
    return [job_result.seed for job_result in accepted], stats


# ---------------------------------------------------------------------------
# Table 5: CLsmith + EMI testing
# ---------------------------------------------------------------------------


@dataclass
class EmiCampaignResult:
    """Per-configuration base-program counts in the shape of Table 5."""

    n_bases: int
    #: Pruned variants run per base, *excluding* the base program itself.
    n_variants: int
    rows: Dict[Tuple[str, bool], Dict[str, int]] = field(default_factory=dict)
    #: Aggregated execution-result cache counters across all workers.
    cache_stats: CacheStats = field(default_factory=CacheStats)
    #: Always zero: there is no prepared-program cache any more.  Kept only
    #: because ``perfbench/run.py --trace 1`` reads ``.hits``/``.misses``;
    #: it goes when the benchmark stops reading it.
    prepared_stats: CacheStats = field(default_factory=CacheStats)
    #: ``auto_reduce=True`` only: one minimised base per anomalous EMI
    #: family, in job order (see REDUCTION.md).
    reductions: List[ReductionSummary] = field(default_factory=list)
    #: ``auto_triage=True`` only: deduplicated bug buckets with culprit
    #: attributions and a Markdown report (see TRIAGE.md).
    triage: Optional[TriageResult] = None
    #: Jobs the fault-tolerant runtime quarantined (retries exhausted), in
    #: submission order; empty on a fault-free run (see ORCHESTRATION.md
    #: "Fault tolerance").
    worker_faults: List[QuarantineRecord] = field(default_factory=list)
    #: Supervisor health counters, always populated (see OBSERVABILITY.md).
    health: PoolHealth = field(default_factory=PoolHealth)
    #: Aggregated timing + health summary; only with ``telemetry=``.
    telemetry: Optional[CampaignTelemetry] = None

    def row(self, config_name: str, optimisations: bool) -> Dict[str, int]:
        return self.rows.setdefault(
            (config_name, optimisations),
            {"base_fails": 0, "w": 0, "bf": 0, "c": 0, "to": 0, "stable": 0},
        )

    def render(self) -> str:
        lines = [
            f"{'configuration':<16}{'base fails':>11}{'w':>5}{'bf':>5}{'c':>5}{'to':>5}"
            f"{'stable':>8}"
        ]
        for (config_name, optimisations), row in sorted(self.rows.items()):
            label = f"{config_name}{'+' if optimisations else '-'}"
            lines.append(
                f"{label:<16}{row['base_fails']:>11}{row['w']:>5}{row['bf']:>5}"
                f"{row['c']:>5}{row['to']:>5}{row['stable']:>8}"
            )
        lines.extend(_render_worker_faults(self.worker_faults))
        return "\n".join(lines)


def generate_emi_bases(
    n_bases: int,
    seed: int = 0,
    options: Optional[GeneratorOptions] = None,
    filter_dead_placement: bool = True,
    max_steps: int = 500_000,
    parallelism: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
) -> List[ast.Program]:
    """Generate ALL-mode base kernels with 1-5 EMI blocks.

    When ``filter_dead_placement`` is set, candidates whose results do not
    change when the ``dead`` array is inverted are discarded -- the paper's
    check that EMI blocks were not all placed in already-dead code
    (section 7.4).  With ``parallelism`` > 1 the filter runs candidates in
    parallel worker processes; the accepted set is identical either way.
    An unregistered ``engine`` or a ``max_steps`` below 1 raises before the
    pool starts.
    """
    get_engine(engine)
    _check_max_steps(max_steps)
    base_options = options or GeneratorOptions()
    with WorkerPool(parallelism) as pool:
        specs, _ = _emi_base_specs(pool, n_bases, seed, options, max_steps,
                                   filter_dead_placement, engine)
    return [
        mark_base_fingerprint(
            generate_kernel(Mode.ALL, base_seed, options=base_options, emi_blocks=emi_blocks)
        )
        for base_seed, emi_blocks in specs
    ]


def _emi_base_specs(
    pool: WorkerPool,
    count: int,
    seed: int,
    options: Optional[GeneratorOptions],
    max_steps: int,
    filter_dead_placement: bool,
    engine: str = DEFAULT_ENGINE,
) -> Tuple[List[Tuple[int, int]], CacheStats]:
    """(seed, emi_blocks) pairs of the first ``count`` accepted candidates.

    Without the dead-placement filter every candidate is accepted and no
    jobs run.
    """
    base_options = options or GeneratorOptions()
    if not filter_dead_placement:
        specs = [(seed + attempt, 1 + (attempt % 5)) for attempt in range(count)]
        return specs, CacheStats()

    def job_for_attempt(attempt: int) -> CampaignJob:
        return CampaignJob(
            kind=EMI_BASE_FILTER,
            seed=seed + attempt,
            mode=Mode.ALL.value,
            options=base_options,
            emi_blocks=1 + (attempt % 5),
            max_steps=max_steps,
            engine=engine,
        )

    accepted, stats = _scan_accepted(pool, count, count * 6, job_for_attempt)
    return [(jr.seed, jr.emi_blocks) for jr in accepted], stats


def run_emi_campaign(
    configs: Sequence[DeviceConfig],
    n_bases: int = 6,
    variants_per_base: Optional[int] = 12,
    optimisation_levels: Sequence[bool] = (False, True),
    options: Optional[GeneratorOptions] = None,
    max_steps: int = 500_000,
    seed: int = 0,
    bases: Optional[List[ast.Program]] = None,
    parallelism: Optional[int] = None,
    engine: str = DEFAULT_ENGINE,
    auto_reduce: bool = False,
    reduce_budget: Optional[int] = None,
    auto_triage: bool = False,
    resume=None,
    fault_plan: Optional[FaultPlan] = None,
    supervision: Optional[SupervisionConfig] = None,
    telemetry: Optional[TelemetryCollector] = None,
) -> EmiCampaignResult:
    """Reproduce the Table 5 experiment at a configurable scale.

    One job covers one EMI base: the worker materialises the base (from its
    seed, or from ``bases`` when supplied), expands the pruned variant family
    and runs it on every (configuration, optimisation level) pair.

    With ``auto_reduce=True`` every base whose family induces an anomaly
    (wrong code / build failure / crash / timeout in any cell) is shrunk
    while its per-cell worst-outcome signature is preserved -- each candidate
    re-expands its own pruned variant family -- and the summaries are
    attached as ``result.reductions``.  ``auto_triage=True`` (implies
    ``auto_reduce``) buckets and bisects the reproducers into
    ``result.triage``, and ``resume=`` makes the campaign persistent and
    resumable -- both exactly as on :func:`run_clsmith_campaign`, including
    bucket-aware scheduling (anomalies another campaign already reduced
    attach their stored reproducer instead of re-reducing).  Like there, an
    unregistered ``engine`` raises before the store or the pool is touched.

    ``fault_plan``/``supervision`` configure the fault-tolerant pool
    exactly as on :func:`run_clsmith_campaign`; quarantined jobs land in
    ``result.worker_faults``.  ``telemetry=`` records spans/timings and
    attaches ``result.telemetry``, byte-identical output either way, and
    ``result.health`` is populated unconditionally — all exactly as on
    :func:`run_clsmith_campaign` (see OBSERVABILITY.md).

    ``variants_per_base`` runs the first that many points of the pruning
    grid (``None``: all of them); a value outside ``1..len(PRUNING_GRID)``
    raises ``ValueError``, again before the store or the pool is touched,
    and so does a ``reduce_budget`` or a ``max_steps`` below 1.
    """
    get_engine(engine)
    if variants_per_base is not None and not 1 <= variants_per_base <= len(PRUNING_GRID):
        raise ValueError(
            f"variants_per_base must be None or 1..{len(PRUNING_GRID)}, "
            f"got {variants_per_base!r}"
        )
    _check_reduce_budget(reduce_budget)
    _check_max_steps(max_steps)
    auto_reduce = auto_reduce or auto_triage
    config_ids, config_overrides = serialise_configs(configs)
    family_job = dict(
        kind=EMI_FAMILY,
        mode=Mode.ALL.value,
        config_ids=config_ids,
        config_overrides=config_overrides,
        optimisation_levels=tuple(optimisation_levels),
        options=options or GeneratorOptions(),
        max_steps=max_steps,
        variants_per_base=variants_per_base,
        variant_seed=seed,
        engine=engine,
    )
    filter_stats = CacheStats()
    store = open_store(resume, fault_plan=fault_plan)
    store_key = ""
    if store is not None:
        store_key = campaign_key(
            "emi",
            config_ids=config_ids,
            n_bases=n_bases,
            variants_per_base=variants_per_base,
            optimisation_levels=tuple(optimisation_levels),
            options=options,
            max_steps=max_steps,
            seed=seed,
            engine=engine,
            # Caller-supplied bases feed the key by content (mirroring
            # job_identity), so two different base batches with otherwise
            # identical parameters are two campaigns, not one.
            supplied_bases=(
                tuple(program_fingerprint(base) for base in bases)
                if bases is not None
                else None
            ),
        )
        store.begin_campaign(store_key, {"entry": "run_emi_campaign", "seed": seed})
    started = time.perf_counter()
    with _telemetry_scope(telemetry, "emi"), _campaign_resources(
        parallelism, store, resume, fault_plan=fault_plan,
        supervision=supervision, telemetry=telemetry,
    ) as worker_pool:
        pool = worker_pool if store is None else StoreBackedPool(
            worker_pool, store, campaign=store_key
        )
        with maybe_span(SPAN_PHASE, "filter"):
            if bases is not None:
                jobs = [
                    CampaignJob(seed=seed, program=base, **family_job)
                    for base in bases
                ]
            else:
                specs, filter_stats = _emi_base_specs(
                    pool, n_bases, seed, options, max_steps,
                    filter_dead_placement=True, engine=engine,
                )
                jobs = [
                    CampaignJob(seed=base_seed, emi_blocks=emi_blocks, **family_job)
                    for base_seed, emi_blocks in specs
                ]
        result = EmiCampaignResult(len(jobs), 0)
        result.cache_stats = result.cache_stats.merge(filter_stats)
        with maybe_span(SPAN_PHASE, "execute"):
            job_results = pool.run(jobs)
        _merge_emi_job_results(result, job_results)
        if auto_reduce:
            with maybe_span(SPAN_PHASE, "reduce"):
                reduce_jobs = []
                for job, job_result in zip(jobs, job_results):
                    signature = emi_family_signature(job_result.emi_cells)
                    if not any(code in FAILURE_CODES for _, code in signature):
                        continue
                    # Mirror the CLsmith path's UB skip: the predicate's hard
                    # UB guard would veto the original anyway, so don't ship a
                    # doomed reduce job (UB tests are discarded, never
                    # triaged).
                    if any(
                        Outcome.UNDEFINED_BEHAVIOUR in cell.variant_outcomes
                        for cell in job_result.emi_cells
                    ):
                        continue
                    reduce_jobs.append(
                        CampaignJob(
                            kind=REDUCE_KERNEL,
                            seed=job.seed,
                            mode=job.mode,
                            emi_blocks=job.emi_blocks,
                            program=job.program,
                            config_ids=config_ids,
                            config_overrides=config_overrides,
                            optimisation_levels=tuple(optimisation_levels),
                            options=options,
                            max_steps=max_steps,
                            engine=engine,
                            variant_seed=seed,
                            variants_per_base=variants_per_base,
                            predicate_spec=PredicateSpec(
                                kind="emi-family", signature=signature
                            ),
                            reduce_max_evaluations=reduce_budget,
                        )
                    )
                _run_reduce_jobs(
                    pool, reduce_jobs, result, store=store, campaign=store_key,
                    known_anomalies=_stored_anomaly_summaries(
                        store, store_key, enabled=auto_triage
                    ),
                )
        if auto_triage:
            with maybe_span(SPAN_PHASE, "triage"):
                result.triage = _run_triage(
                    pool,
                    result,
                    dict(
                        config_ids=config_ids,
                        config_overrides=config_overrides,
                        optimisation_levels=tuple(optimisation_levels),
                        options=options,
                        max_steps=max_steps,
                        engine=engine,
                        variant_seed=seed,
                        variants_per_base=variants_per_base,
                    ),
                    store=store,
                    campaign=store_key,
                )
        _attach_worker_faults(result, pool)
    _finish_telemetry(telemetry, result, started)
    return result


def _merge_emi_job_results(result: EmiCampaignResult, job_results: Sequence[JobResult]) -> None:
    """Fold per-base family results into the Table 5 rows.

    Every base must expand to the same number of variants (the pruning grid
    is fixed per campaign); heterogeneous families would make ``n_variants``
    and cross-row comparisons meaningless, so they are rejected.
    Quarantined results (``fault`` set) never expanded a family at all —
    they contribute no cells and are excluded from the homogeneity check.
    """
    variant_counts = {jr.n_variants for jr in job_results if jr.fault is None}
    if len(variant_counts) > 1:
        raise ValueError(
            "heterogeneous EMI families: per-base variant counts "
            f"{sorted(variant_counts)}"
        )
    result.n_variants = variant_counts.pop() if variant_counts else 0
    for job_result in job_results:
        result.cache_stats = result.cache_stats.merge(job_result.cache)
        for summary in job_result.emi_cells:
            row = result.row(summary.config_name, summary.optimisations)
            if summary.bad_base:
                row["base_fails"] += 1
                continue
            if summary.wrong_code:
                row["w"] += 1
            if summary.induced_build_failure:
                row["bf"] += 1
            if summary.induced_crash:
                row["c"] += 1
            if summary.induced_timeout:
                row["to"] += 1
            if summary.stable:
                row["stable"] += 1


# ---------------------------------------------------------------------------
# Table 3: EMI testing over the workload suite
# ---------------------------------------------------------------------------


@dataclass
class BenchmarkEmiResult:
    """Worst-outcome-per-(benchmark, configuration) grid (Table 3)."""

    cells: Dict[Tuple[str, str], str] = field(default_factory=dict)

    def set_cell(self, benchmark: str, config_name: str, code: str) -> None:
        self.cells[(benchmark, config_name)] = code

    def cell(self, benchmark: str, config_name: str) -> str:
        return self.cells.get((benchmark, config_name), "?")

    def render(self, benchmarks: Sequence[str], configs: Sequence[str]) -> str:
        header = f"{'benchmark':<14}" + "".join(f"{c:>10}" for c in configs)
        lines = [header]
        for benchmark in benchmarks:
            row = f"{benchmark:<14}" + "".join(
                f"{self.cell(benchmark, c):>10}" for c in configs
            )
            lines.append(row)
        return "\n".join(lines)


#: Table 3 outcome codes ranked from most to least severe:
#: wrong code (w) > build failure (bf) > runtime crash (c) > timeout (to) >
#: cannot-build-or-run (ng) > clean pass (ok).  Wrong code outranks
#: everything because a silently wrong result is the paper's headline defect
#: class; a build failure dominates every outcome of a test that at least
#: built (crash, timeout, pass) because nothing at all could be observed on
#: the configuration, matching the Table 3 legend.
_OUTCOME_SEVERITY = {"w": 5, "bf": 4, "c": 3, "to": 2, "ng": 1, "ok": 0, "?": -1}


def worst_code(codes: Sequence[str]) -> str:
    """The paper's 'worst outcome' aggregation for Table 3."""
    return max(codes, key=lambda c: _OUTCOME_SEVERITY.get(c, -1)) if codes else "?"


__all__ = [
    "ClsmithCampaignResult",
    "run_clsmith_campaign",
    "EmiCampaignResult",
    "generate_emi_bases",
    "run_emi_campaign",
    "BenchmarkEmiResult",
    "worst_code",
]
