"""Campaign orchestration: the experiments behind Tables 3, 4 and 5.

The functions here generate workloads, run the differential / EMI harnesses
at configurable scale, and aggregate the counts into the same row/column
structure the paper reports.  The benchmark harnesses under ``benchmarks/``
call these functions with small-but-meaningful sizes (set in
``benchmarks/conftest.py``) and print the resulting tables.

Tables 4 and 5 run the paper's one workflow (sections 7.3-7.4), and so one
driver: generate kernels, curate them (Table 4) or filter EMI bases
(Table 5), run every configuration at every optimisation level, then reduce
and deduplicate whatever fails.  :func:`run_clsmith_campaign` and
:func:`run_emi_campaign` differ only in how they pick and run their
kernels; both are built from the same parts:

* :func:`_job_fields` checks every input before anything runs and returns
  the fields every job of the campaign carries (configurations,
  optimisation levels, options, step budget and engine);
* :func:`_campaign` opens the store (``resume=``), the worker pool and the
  telemetry scope, and on exit surfaces faults, health and telemetry on
  the result;
* :func:`_scan` is the wave scan that picks the kernels, for CLsmith
  curation and EMI base filtering alike;
* :func:`_reduce_and_triage` reduces every anomaly and buckets and bisects
  the reproducers.

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

import dataclasses
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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
    CLSMITH_DIFFERENTIAL,
    EMI_BASE_FILTER,
    EMI_FAMILY,
    REDUCE_KERNEL,
    TRIAGE_BISECT,
    CampaignJob,
    JobResult,
    serialise_configs,
    serialise_curation,
)
from repro.orchestration.pool import PoolHealth, SupervisionConfig, WorkerPool
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
from repro.testing.outcomes import Outcome, OutcomeCounts, cell_label, worst_code
from repro.triage.bucketing import bucket_reductions
from repro.triage.report import TriageResult
from repro.triage.store import (
    CampaignStore,
    StoreBackedPool,
    campaign_key,
    config_identity,
    job_identity,
    open_store,
)


# ---------------------------------------------------------------------------
# The campaign driver shared by Tables 4 and 5
# ---------------------------------------------------------------------------


def _check_inputs(engine: str, reduce_budget: Optional[int] = None, **inputs) -> None:
    """Reject a campaign's inputs before the store is opened or the worker
    pool starts.

    An unregistered ``engine`` raises the registry's ``KeyError``.  Each of
    ``inputs`` is a size or a sequence, and a size below 1 or an empty
    sequence raises ``ValueError``: the campaign would run nothing, yet
    record itself in the store and report its sizes as if it had run (a
    ``max_steps`` below 1 times every cell out before its first step, which
    reads as a timeout on every configuration).  So does a ``reduce_budget``
    below 1: it cannot pay for a single evaluation.
    """
    get_engine(engine)
    for name, value in inputs.items():
        if isinstance(value, int):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")
        elif not value:
            raise ValueError(f"{name} must not be empty")
    if reduce_budget is not None and reduce_budget < 1:
        raise ValueError(f"reduce_budget must be None or at least 1, got {reduce_budget!r}")


def _job_fields(
    configs: Sequence[DeviceConfig],
    optimisation_levels: Sequence[bool],
    options: Optional[GeneratorOptions],
    max_steps: int,
    engine: str,
    reduce_budget: Optional[int],
    **inputs,
) -> Dict[str, object]:
    """Check a campaign's inputs (see :func:`_check_inputs`; ``inputs`` are
    its own sizes and sequences) and return the fields every one of its
    jobs carries: configurations, optimisation levels, the caller's
    ``options``, step budget and engine."""
    _check_inputs(
        engine, reduce_budget, configs=configs,
        optimisation_levels=optimisation_levels, **inputs, max_steps=max_steps,
    )
    config_ids, config_overrides = serialise_configs(configs)
    return dict(
        config_ids=config_ids,
        config_overrides=config_overrides,
        optimisation_levels=tuple(optimisation_levels),
        options=options,
        max_steps=max_steps,
        engine=engine,
    )


@contextmanager
def _campaign(
    result,
    name: str,
    seed: int,
    fields: Dict[str, object],
    key_params: Dict[str, object],
    resume,
    parallelism: Optional[int],
    fault_plan: Optional[FaultPlan],
    supervision: Optional[SupervisionConfig],
    telemetry: Optional[TelemetryCollector],
):
    """Run one campaign's body on its store, worker pool and telemetry.

    Yields ``(pool, store, key)``.  With ``resume=`` the store is opened
    and the campaign recorded under its key (the campaign's ``name``,
    ``seed``, job ``fields`` and ``key_params``), and ``pool`` is a
    :class:`~repro.triage.store.StoreBackedPool` that replays recorded jobs;
    without it, ``store`` is ``None`` and ``key`` empty.

    A campaign-opened store must release its append handle even when the
    campaign body raises (the kill-mid-run scenario ``resume=`` exists
    for); caller-owned stores stay open, since the caller may keep
    appending campaigns to them.  The pool's context manager guarantees
    worker teardown on every exit path too: a graceful ``close()`` on
    success, a hard ``terminate()`` when the body raises (including
    :exc:`KeyboardInterrupt` — an interrupted campaign must not leak
    worker processes).  Campaign stores on the process backend default to
    durable appends (fsync per record): those are the long overnight runs
    where a *host* crash must lose at most the in-flight record.  An
    explicit ``durable=`` choice on a caller-owned store is never
    overridden.

    On a normal exit the pool's quarantine log and health land on the
    result.  Quarantined jobs become :class:`~repro.orchestration.faults.
    QuarantineRecord` entries (submission order) on
    ``result.worker_faults``, and a triage report (when present) lists
    them alongside the buckets; the store already holds each as a
    ``worker-fault`` record.  A fault-free campaign leaves the rendered
    output byte-identical to the quarantine-unaware renderer, and
    ``result.health`` never renders by default.  With ``telemetry`` the
    collector is ambient for the whole campaign, which runs inside one
    campaign span, and the aggregate lands on ``result.telemetry``; without
    it this costs nothing beyond the ``None`` checks.
    """
    store = open_store(resume, fault_plan=fault_plan)
    key = ""
    if store is not None:
        key = campaign_key(
            name,
            config_ids=fields["config_ids"],
            options=fields["options"],
            max_steps=fields["max_steps"],
            seed=seed,
            engine=fields["engine"],
            **key_params,
        )
        store.begin_campaign(key, {"entry": f"run_{name}_campaign", "seed": seed})
    started = time.perf_counter()
    with ExitStack() as scope:
        if telemetry is not None:
            scope.enter_context(use_collector(telemetry))
            scope.enter_context(telemetry.span(SPAN_CAMPAIGN, name=name))
        if store is not None and not isinstance(resume, CampaignStore):
            scope.callback(store.close)
        worker_pool = scope.enter_context(WorkerPool(
            parallelism, fault_plan=fault_plan, supervision=supervision,
            telemetry=telemetry,
        ))
        if store is not None and store.durable is None:
            store.durable = worker_pool.backend == "process"
        pool = worker_pool if store is None else StoreBackedPool(
            worker_pool, store, campaign=key
        )
        yield pool, store, key
        result.health = pool.health.copy()
        records = [
            QuarantineRecord(
                job_kind=job.kind, seed=job.seed, mode=job.mode, fault=fault,
                identity=job_identity(job),
            )
            for job, fault in pool.quarantined
        ]
        if records:
            result.worker_faults = records
            if result.triage is not None:
                result.triage.worker_faults = list(records)
    if telemetry is not None:
        registry = telemetry.registry
        result.telemetry = CampaignTelemetry(
            wall_s=time.perf_counter() - started,
            jobs=registry.counters.get("event:job-finished", 0),
            cells=registry.counters.get("cells", 0),
            counters=dict(registry.counters),
            durations=registry.durations(),
            health=result.health.as_dict(),
        )


def _scan(
    pool,
    lanes: int,
    count: int,
    budget: int,
    job_for: Callable[[int, int], CampaignJob],
) -> Tuple[List[Tuple[CampaignJob, JobResult]], CacheStats]:
    """The first ``count`` accepted candidates of each of ``lanes`` lanes,
    in (lane, attempt) order, plus the merged result-cache delta of the
    candidates that were not accepted.

    ``job_for(lane, attempt)`` is a lane's candidate, and a lane tries at
    most ``budget`` of them.  The scan goes in waves: a wave submits, per
    lane, exactly as many next candidates as that lane still lacks.  So a
    lane keeps its first ``count`` accepted candidates in attempt order on
    every backend, and no candidate past them is submitted at all; when
    every candidate is accepted, the first wave is the whole scan.  A
    quarantined candidate is not accepted (it is reported in
    ``worker_faults``), so its lane draws the next one.
    """
    accepted: List[List[Tuple[CampaignJob, JobResult]]] = [[] for _ in range(lanes)]
    attempts = [0] * lanes
    rejected = CacheStats()
    while True:
        wave = []
        for lane in range(lanes):
            wanted = min(count - len(accepted[lane]), budget - attempts[lane])
            wave.extend((lane, job_for(lane, attempts[lane] + k)) for k in range(wanted))
            attempts[lane] += wanted
        if not wave:
            break
        for (lane, job), job_result in zip(wave, pool.run([job for _, job in wave])):
            if job_result.accepted:
                accepted[lane].append((job, job_result))
            else:
                rejected = rejected.merge(job_result.cache)
    return [pair for per_lane in accepted for pair in per_lane], rejected


def _reduce_and_triage(
    pool,
    store,
    campaign: str,
    result,
    kernels: Iterable[Tuple[CampaignJob, JobResult]],
    fields: Dict[str, object],
    failure_signature: Callable[[JobResult], Signature],
    predicate_kind: str,
    reduce_budget: Optional[int],
    auto_triage: bool,
) -> None:
    """Reduce the campaign's anomalies and, with ``auto_triage``, bucket
    and bisect the reproducers into ``result.triage``.

    ``kernels`` are the campaign's (job, result) pairs in job order.
    ``failure_signature`` maps a result to the signature its reduction must
    preserve, or ``()`` when there is nothing to reduce; each anomaly
    becomes one ``reduce-kernel`` job with the campaign's job ``fields``
    and a ``predicate_kind`` predicate.  Summaries are folded into
    ``result.reductions`` and every cache delta into ``result.cache_stats``.

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

    With ``auto_triage`` and a store, jobs whose anomaly fingerprint
    another campaign already reduced (see :func:`_stored_anomaly_summaries`)
    are not reduced at all -- the stored reproducer is attached in the
    job's position instead, contributing no cache traffic.
    """
    with maybe_span(SPAN_PHASE, "reduce"):
        reduce_jobs = []
        for job, job_result in kernels:
            signature = failure_signature(job_result)
            if not signature:
                continue
            reduce_jobs.append(
                CampaignJob(
                    kind=REDUCE_KERNEL,
                    seed=job.seed,
                    mode=job.mode,
                    emi_blocks=job.emi_blocks,
                    program=job.program,
                    predicate_spec=PredicateSpec(kind=predicate_kind, signature=signature),
                    reduce_max_evaluations=reduce_budget,
                    **fields,
                )
            )
        known_anomalies = _stored_anomaly_summaries(store, campaign) if auto_triage else {}
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
        if pool.backend == "process" and len(live) < pool.parallelism:
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
    if auto_triage:
        with maybe_span(SPAN_PHASE, "triage"):
            result.triage = _run_triage(pool, result, fields, store, campaign)


def _anomaly_fingerprint(job: CampaignJob) -> str:
    """The bucket fingerprint of a reduce job's *unreduced* anomaly.

    Same construction as the post-reduction bucket key (alpha-normalised
    shape x failure signature x mode x predicate kind), but over the
    anomalous program as generated -- computable before any reduction runs,
    which is what lets bucket-aware scheduling skip work (see TRIAGE.md).
    """
    from repro.triage.bucketing import bug_fingerprint

    return bug_fingerprint(
        job.materialise_program(), job.predicate_spec.signature, job.mode,
        job.predicate_spec.kind,
    )


def _stored_anomaly_summaries(store, campaign: str) -> Dict[str, ReductionSummary]:
    """Anomaly fingerprint -> reduced reproducer, from *other* campaigns.

    This is the input to bucket-aware scheduling: an anomaly whose
    fingerprint appears here was already reduced by an earlier campaign
    sharing the store, so re-reducing it would only rediscover a known
    bucket.  Records written by ``campaign`` itself are excluded -- a
    killed-and-resumed campaign must make exactly the decisions its
    uninterrupted twin would, so its own partial progress never feeds
    back into its scheduling (the resume byte-identity property).
    """
    if store is None:
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


def _run_triage(
    pool, result, fields: Dict[str, object], store=None, campaign: str = ""
) -> TriageResult:
    """Bucket the campaign's reductions and bisect one culprit per bucket.

    Bucketing is pure and happens in the parent; bisection ships as one
    ``triage-bisect`` job per bucket (with the campaign's job ``fields``)
    on the campaign's own pool (sharing the per-worker result caches), in
    deterministic bucket order, so serial and process backends attach
    identical attributions.
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
            **fields,
        )
        for bucket in buckets
    ]
    for bucket, job_result in zip(buckets, pool.run(jobs)):
        bucket.culprit = job_result.bisection
        result.cache_stats = result.cache_stats.merge(job_result.cache)
    triage = TriageResult(buckets)
    if store is not None:
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


def _render_worker_faults(records: List[QuarantineRecord]) -> List[str]:
    """Extra render() lines for quarantined jobs ([] on fault-free runs)."""
    if not records:
        return []
    lines = ["", f"quarantined jobs ({len(records)}):"]
    lines.extend(f"  {record.render_line()}" for record in records)
    return lines


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
    failures for configuration 1+.  Each mode keeps its first
    ``kernels_per_mode`` survivors in seed order, trying at most five
    candidates per kernel: mode ``i`` draws its candidates from seed
    ``seed + 10_000 * i`` on, and all modes share one wave scan.

    One job covers one kernel across every (configuration, optimisation
    level) cell — the majority vote of section 7.3 spans all cells of a
    kernel, so kernels are the sharding granularity.  A curated job curates
    its candidate first and sweeps the same program object only if it
    survives, so the sweep reuses curation's compile work.
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
    anomaly.  A ``kernels_per_mode``, ``reduce_budget`` or ``max_steps``
    below 1, or an empty ``configs`` or ``modes``, raises ``ValueError``
    before the store or the worker pool is touched.

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
    fields = _job_fields(
        configs, (False, True), options, max_steps, engine, reduce_budget,
        modes=modes, kernels_per_mode=kernels_per_mode,
    )
    curation = None if curate_on is None else serialise_curation(curate_on)
    result = ClsmithCampaignResult(kernels_per_mode)
    with _campaign(
        result, "clsmith", seed, fields,
        dict(
            kernels_per_mode=kernels_per_mode,
            modes=tuple(mode.value for mode in modes),
            curated=config_identity(curate_on),
        ),
        resume, parallelism, fault_plan, supervision, telemetry,
    ) as (pool, store, key):
        with maybe_span(SPAN_PHASE, "execute"):
            kernels, rejected = _scan(
                pool, len(modes), kernels_per_mode, 5 * kernels_per_mode,
                lambda m, attempt: CampaignJob(
                    kind=CLSMITH_DIFFERENTIAL,
                    seed=seed + m * 10_000 + attempt,
                    mode=modes[m].value,
                    curate_on=curation,
                    **fields,
                ),
            )
        result.cache_stats = result.cache_stats.merge(rejected)
        for _, job_result in kernels:
            for cell, cell_counts in job_result.counts.items():
                result.counts[cell] = result.counts.get(cell, OutcomeCounts()).merge(cell_counts)
            result.cache_stats = result.cache_stats.merge(job_result.cache)
        if auto_reduce or auto_triage:
            _reduce_and_triage(
                pool, store, key, result, kernels, fields,
                _clsmith_failure_signature, "differential", reduce_budget, auto_triage,
            )
    return result


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
    An unregistered ``engine``, or an ``n_bases`` or ``max_steps`` below 1,
    raises before the pool starts.
    """
    _check_inputs(engine, n_bases=n_bases, max_steps=max_steps)
    if filter_dead_placement:
        with WorkerPool(parallelism) as pool:
            specs, _ = _emi_base_specs(pool, n_bases, seed, options, max_steps, engine)
    else:
        specs = [(seed + attempt, 1 + (attempt % 5)) for attempt in range(n_bases)]
    base_options = options or GeneratorOptions()
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
    engine: str,
) -> Tuple[List[Tuple[int, int]], CacheStats]:
    """(seed, emi_blocks) pairs of the first ``count`` candidates that pass
    the dead-placement filter, within ``6 * count`` attempts in one wave
    scan, plus the merged result-cache delta of every candidate run."""
    base_options = options or GeneratorOptions()
    kept, stats = _scan(
        pool, 1, count, 6 * count,
        lambda _, attempt: CampaignJob(
            kind=EMI_BASE_FILTER,
            seed=seed + attempt,
            mode=Mode.ALL.value,
            options=base_options,
            emi_blocks=1 + (attempt % 5),
            max_steps=max_steps,
            engine=engine,
        ),
    )
    for _, job_result in kept:
        stats = stats.merge(job_result.cache)
    return [(jr.seed, jr.emi_blocks) for _, jr in kept], stats


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
    and so does a ``reduce_budget`` or a ``max_steps`` below 1, an empty
    ``configs``, ``optimisation_levels`` or ``bases``, or an ``n_bases``
    below 1 when no ``bases`` are supplied.
    """
    fields = _job_fields(
        configs, optimisation_levels, options, max_steps, engine, reduce_budget,
        **(dict(n_bases=n_bases) if bases is None else dict(bases=bases)),
    )
    if variants_per_base is not None and not 1 <= variants_per_base <= len(PRUNING_GRID):
        raise ValueError(
            f"variants_per_base must be None or 1..{len(PRUNING_GRID)}, "
            f"got {variants_per_base!r}"
        )
    fields.update(variant_seed=seed, variants_per_base=variants_per_base)
    # Family jobs run the default generator options when the caller gave
    # none; reduce and triage jobs (and the campaign key) keep the caller's
    # ``options``, which job identities hash as given.
    family_job = dict(
        fields, kind=EMI_FAMILY, mode=Mode.ALL.value, options=options or GeneratorOptions()
    )
    result = EmiCampaignResult(n_bases, 0)
    with _campaign(
        result, "emi", seed, fields,
        dict(
            n_bases=n_bases,
            variants_per_base=variants_per_base,
            optimisation_levels=fields["optimisation_levels"],
            # Caller-supplied bases feed the key by content (mirroring
            # job_identity), so two different base batches with otherwise
            # identical parameters are two campaigns, not one.
            supplied_bases=(
                tuple(program_fingerprint(base) for base in bases)
                if bases is not None
                else None
            ),
        ),
        resume, parallelism, fault_plan, supervision, telemetry,
    ) as (pool, store, key):
        with maybe_span(SPAN_PHASE, "filter"):
            if bases is not None:
                jobs = [CampaignJob(seed=seed, program=base, **family_job) for base in bases]
            else:
                specs, filter_stats = _emi_base_specs(
                    pool, n_bases, seed, options, max_steps, engine
                )
                result.cache_stats = result.cache_stats.merge(filter_stats)
                jobs = [
                    CampaignJob(seed=base_seed, emi_blocks=emi_blocks, **family_job)
                    for base_seed, emi_blocks in specs
                ]
        result.n_bases = len(jobs)
        with maybe_span(SPAN_PHASE, "execute"):
            job_results = pool.run(jobs)
        _merge_emi_job_results(result, job_results)
        if auto_reduce or auto_triage:
            _reduce_and_triage(
                pool, store, key, result, zip(jobs, job_results), fields,
                _emi_failure_signature, "emi-family", reduce_budget, auto_triage,
            )
    return result


def _emi_failure_signature(job_result: JobResult) -> Signature:
    """The per-cell worst-outcome signature of one EMI family's job, or
    ``()`` when the family induced no failure.

    Mirrors the CLsmith path's UB skip: the predicate's hard UB guard would
    veto the original anyway, so a family with an undefined-behaviour
    variant ships no doomed reduce job (UB tests are discarded, never
    triaged).
    """
    signature = emi_family_signature(job_result.emi_cells)
    if not any(code in FAILURE_CODES for _, code in signature):
        return ()
    if any(
        Outcome.UNDEFINED_BEHAVIOUR in cell.variant_outcomes
        for cell in job_result.emi_cells
    ):
        return ()
    return signature


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


__all__ = [
    "ClsmithCampaignResult",
    "run_clsmith_campaign",
    "EmiCampaignResult",
    "generate_emi_bases",
    "run_emi_campaign",
    "BenchmarkEmiResult",
    "worst_code",
]
