"""Sharded campaign execution: serial and supervised process backends.

:class:`WorkerPool` takes a list of :class:`~repro.orchestration.jobs.CampaignJob`
units and executes them either

* in-process (the ``serial`` backend, ``parallelism<=1``) — deterministic,
  dependency-free, used by the tier-1 tests; all jobs share one bounded
  :class:`~repro.orchestration.cache.ResultCache`; or
* across ``parallelism`` supervised worker processes (the ``process``
  backend, ``parallelism>1``).
  Each worker owns a process-local result cache created at spawn; workers
  persist across ``run()`` calls (a campaign issues several: curation
  waves, reductions, bisections), which keeps the per-worker caches warm;
  call :meth:`WorkerPool.close` (or use the pool as a context manager) to
  release the workers.

Because jobs carry seeds rather than ASTs, kernel generation happens inside
the workers; the parent process only ships small value objects and receives
plain aggregates back.

Fault tolerance (see ORCHESTRATION.md "Fault tolerance")
--------------------------------------------------------

The paper's campaigns run overnight against compiler stacks that crash and
hang routinely, so the process backend is a *supervisor*, not a ``Pool.map``:

* every job is dispatched as an individual **lease** with a wall-clock
  deadline (``SupervisionConfig.lease_timeout``) and a bounded retry budget
  (``max_attempts``, exponential backoff between attempts);
* a worker that dies mid-job (segfault, OOM-kill, injected ``SIGKILL``) or
  blows its lease deadline is detected, reaped and **respawned**; the lease
  is retried on whichever worker frees up next;
* an exception escaping :func:`~repro.orchestration.jobs.execute_job` is
  reported by the (still healthy) worker and retried the same way — the
  serial backend applies identical retry/quarantine semantics in-process;
* a job that exhausts its retries is **quarantined**: its slot in the result
  list is filled by a :class:`~repro.orchestration.jobs.JobResult` carrying a
  deterministic :class:`~repro.orchestration.faults.WorkerFault` (observed
  kind, attempt count, detail) instead of aggregates, and the (job, fault)
  pair is appended to :attr:`WorkerPool.quarantined` in submission order;
* **graceful degradation**: if a replacement worker cannot be spawned the
  pool shrinks; if it shrinks to nothing, the remaining leases run in-parent
  with the serial backend's retry semantics.  The campaign never crashes
  because its substrate did.

Determinism: retried jobs re-execute identical work (jobs are value
objects), so any run in which every job eventually succeeds produces
byte-identical aggregates to a fault-free serial run; quarantined jobs are
recorded deterministically (see :mod:`repro.orchestration.faults`) and are
the *only* delta.  The chaos property suite in
``tests/test_fault_tolerance.py`` pins both halves of that contract.
"""

from __future__ import annotations

import multiprocessing
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.orchestration.cache import ResultCache
from repro.orchestration.faults import (
    OBSERVED_DEADLINE,
    OBSERVED_EXCEPTION,
    OBSERVED_WORKER_DEATH,
    FaultPlan,
    WorkerFault,
    fire_fault,
)
from repro.orchestration.jobs import CampaignJob, JobResult, execute_job


@dataclass
class PoolHealth:
    """Supervisor health counters, accumulated whether or not telemetry
    is enabled (see OBSERVABILITY.md "Supervisor health").

    These are the numbers a long-running campaign owner actually watches:
    how often jobs needed retrying, how many workers had to be respawned
    or deadline-killed, whether the pool degraded to in-parent execution,
    and how much work was quarantined.  Surfaced as ``pool.health`` and
    ``result.health`` on campaign results.
    """

    #: Job attempts that failed and were re-leased (excludes quarantines).
    retries: int = 0
    #: Workers spawned beyond the initial set (i.e. replacements).
    respawns: int = 0
    #: Leases killed because their wall-clock deadline expired.
    deadline_kills: int = 0
    #: Jobs executed in-parent because the pool degraded to zero workers.
    in_parent_jobs: int = 0
    #: Times the pool shrank its worker target because spawning failed.
    pool_shrinks: int = 0
    #: Jobs quarantined after exhausting their retry budget.
    quarantines: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "retries": self.retries,
            "respawns": self.respawns,
            "deadline_kills": self.deadline_kills,
            "in_parent_jobs": self.in_parent_jobs,
            "pool_shrinks": self.pool_shrinks,
            "quarantines": self.quarantines,
        }

    def copy(self) -> "PoolHealth":
        return PoolHealth(**self.as_dict())


@dataclass(frozen=True)
class SupervisionConfig:
    """Retry/lease policy for supervised job dispatch.

    ``max_attempts`` bounds how many times one job is leased before it is
    quarantined.  ``lease_timeout`` is the wall-clock budget (seconds) of a
    single attempt on the process backend; ``None`` disables deadlines
    (hung workers are then only detected if they die).  ``backoff`` is the
    base delay before a retry, doubling per failed attempt up to
    ``backoff_cap`` — it spaces retries out on a struggling host without
    affecting results (tests set it to ``0``).
    """

    max_attempts: int = 3
    lease_timeout: Optional[float] = 300.0
    backoff: float = 0.05
    backoff_cap: float = 2.0

    def retry_delay(self, attempts: int) -> float:
        if not self.backoff:
            return 0.0
        return min(self.backoff * (2 ** (attempts - 1)), self.backoff_cap)


@dataclass
class _Lease:
    """One job's dispatch state: attempts used, earliest retry time."""

    index: int          # position in this run()'s submission order
    job_index: int      # global submission index across the pool's lifetime
    job: CampaignJob
    attempts: int = 0
    not_before: float = 0.0
    #: When the lease (re)entered the pending queue (telemetry only:
    #: dispatch latency is observed as the "lease-wait" duration).
    enqueued: float = 0.0


class _WorkerHandle:
    """A supervised worker process and its duplex message pipe."""

    __slots__ = ("process", "conn", "lease", "deadline", "label")

    def __init__(self, process, conn, label: str = "") -> None:
        self.process = process
        self.conn = conn
        self.lease: Optional[_Lease] = None
        self.deadline: Optional[float] = None
        #: Stable telemetry label ("w0", "w1", ...; respawns get fresh
        #: labels so a trace distinguishes a replacement from its victim).
        self.label = label


def _worker_main(conn, fault_plan: Optional[FaultPlan], timing: bool = False) -> None:
    """Worker loop: one job per message, results (or errors) sent back.

    The worker never dies of a job exception — it reports the error and
    stays warm.  It dies only on shutdown (``None`` message / closed pipe),
    or when a fault (injected or genuine) kills the process itself, which
    the supervisor observes as ``worker-death``.
    """
    cache = ResultCache()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        job_index, attempt, job = message
        hook: Optional[Callable[[], None]] = None
        if fault_plan is not None:
            def hook(job_index=job_index, attempt=attempt):
                fire_fault(fault_plan, job_index, attempt, in_worker_process=True)
        try:
            result = execute_job(job, cache=cache, fault=hook, timing=timing)
        except Exception as exc:  # noqa: BLE001 — reported, never fatal here
            payload = (job_index, "error", f"{type(exc).__name__}: {exc}")
        else:
            payload = (job_index, "ok", result)
        try:
            conn.send(payload)
        except (OSError, ValueError):
            break
    try:
        conn.close()
    except OSError:
        pass


def _quarantine_result(job: CampaignJob, fault: WorkerFault) -> JobResult:
    """The placeholder result a quarantined job contributes.

    Carries no aggregates (empty counts, ``accepted=False``) — campaign
    merge loops treat it as "this work never completed" — plus the fault
    record consumers surface (see ``worker_faults`` on campaign results).
    """
    return JobResult(
        kind=job.kind, seed=job.seed, emi_blocks=job.emi_blocks,
        accepted=False, fault=fault,
    )


class WorkerPool:
    """Executes campaign jobs on a serial or supervised process backend.

    ``parallelism`` of ``None``, 0 or 1 selects the serial backend;
    anything larger selects the process backend with that many workers.

    ``supervision`` sets the lease/retry policy (see
    :class:`SupervisionConfig`); ``fault_plan`` injects deterministic
    faults for chaos testing (``None`` — the default — injects nothing).
    Jobs that exhaust their retries land in :attr:`quarantined` as
    ``(job, fault)`` pairs in submission order.

    ``telemetry`` (a :class:`repro.observability.TelemetryCollector`, or
    ``None``) turns on span/event collection: per-job timings are
    measured inside the workers and shipped back alongside results, and
    supervisor events (retries, respawns, deadline kills, quarantines)
    stream to the collector.  Telemetry observes but never steers —
    results are byte-identical with it on or off — and the ``None``
    default costs nothing, like ``fault_plan=None``.  :attr:`health`
    counters accumulate regardless.
    """

    def __init__(
        self,
        parallelism: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        supervision: Optional[SupervisionConfig] = None,
        telemetry=None,
    ) -> None:
        self.parallelism = max(1, int(parallelism or 1))
        self.backend = "process" if self.parallelism > 1 else "serial"
        self.fault_plan = fault_plan
        self.supervision = supervision or SupervisionConfig()
        self.telemetry = telemetry
        #: Supervisor health counters, always accumulated (telemetry or
        #: not) — see :class:`PoolHealth`.
        self.health = PoolHealth()
        self._cache = ResultCache()
        #: (job, fault) pairs of every job this pool quarantined, in
        #: submission order — deterministic for a given plan and config.
        self.quarantined: List[Tuple[CampaignJob, WorkerFault]] = []
        self._workers: List[_WorkerHandle] = []
        #: Degradation state: how many workers the pool still tries to
        #: keep alive.  Shrinks when respawning fails; at zero, remaining
        #: leases run in-parent.
        self._target_workers = self.parallelism if self.backend == "process" else 0
        #: Global submission counter: the fault plan and lease bookkeeping
        #: key on it, and it is deterministic across backends.
        self._next_job_index = 0
        #: Lifetime worker spawns; spawns beyond ``parallelism`` are
        #: respawns (replacements for reaped workers).
        self._spawn_count = 0

    @property
    def cache(self) -> ResultCache:
        """The serial backend's shared result cache."""
        return self._cache

    # ------------------------------------------------------------------

    def run(self, jobs: Iterable[CampaignJob]) -> List[JobResult]:
        """Execute ``jobs``, returning results in submission order.

        Every slot is filled: a job that exhausted its retries contributes
        a quarantine placeholder (``result.fault`` set) instead of
        aggregates — ``run()`` itself only raises for non-job failures
        (e.g. :exc:`KeyboardInterrupt`)."""
        job_list = list(jobs)
        if not job_list:
            return []
        telemetry = self.telemetry
        if telemetry is None:
            return self._run(job_list)
        from repro.observability import SPAN_SHARD, use_collector

        with use_collector(telemetry):
            telemetry.event("pool-run", jobs=len(job_list),
                            backend=self.backend)
            with telemetry.span(SPAN_SHARD, name=self.backend,
                                jobs=len(job_list)):
                return self._run(job_list)

    def _run(self, job_list: List[CampaignJob]) -> List[JobResult]:
        base_index = self._next_job_index
        self._next_job_index += len(job_list)
        if self.backend == "serial":
            results = []
            for i, job in enumerate(job_list):
                result = self._attempts_in_parent(
                    _Lease(index=i, job_index=base_index + i, job=job)
                )
                self._note_result(job, result, worker="parent",
                                  merge_spans=False)
                results.append(result)
            return results
        return self._run_supervised(job_list, base_index)

    def _note_result(self, job: CampaignJob, result: JobResult,
                     worker: str, merge_spans: bool) -> None:
        """Telemetry bookkeeping for one finished lease (any backend).

        Job-level accounting lives here — not in ``execute_job`` — so the
        span carries attributes only the supervisor knows (worker label)
        and both backends account identically.  ``merge_spans`` is True
        only for process workers, whose fine-grained span aggregates were
        recorded in a worker-local registry the parent never saw; serial
        and in-parent jobs recorded into the ambient registry directly.
        """
        telemetry = self.telemetry
        if telemetry is None:
            return
        if result.fault is not None:
            return  # quarantines are accounted by _record_quarantine
        timing = result.timing
        if timing is None:
            return
        from repro.observability import SPAN_JOB

        if merge_spans and timing.spans:
            telemetry.registry.merge_spans(timing.spans)
        telemetry.registry.observe(SPAN_JOB, timing.duration_s)
        telemetry.count("cells", timing.cells)
        telemetry.emit_span(
            SPAN_JOB, job.kind,
            telemetry.now_rel() - timing.duration_s, timing.duration_s,
            {
                "engine": job.engine, "seed": job.seed, "mode": job.mode,
                "worker": worker, "cells": timing.cells,
                "spans": {k: [c, round(total, 6)]
                          for k, (c, total) in sorted(timing.spans.items())},
            },
        )
        telemetry.event("job-finished", job=job.kind, seed=job.seed,
                        engine=job.engine, worker=worker,
                        cells=timing.cells, anomalous=result.anomalous)

    def _record_quarantine(self, job: CampaignJob, fault: WorkerFault) -> None:
        """Health/telemetry accounting for one quarantine (the record
        itself is appended by the caller, whose ordering rules differ
        between backends)."""
        self.health.quarantines += 1
        if self.telemetry is not None:
            self.telemetry.event("quarantine", job=job.kind, seed=job.seed,
                                 fault_kind=fault.kind,
                                 attempts=fault.attempts)

    def _record_retry(self, lease: _Lease, kind: str) -> None:
        self.health.retries += 1
        if self.telemetry is not None:
            self.telemetry.event("job-retry", job=kind,
                                 job_index=lease.job_index,
                                 attempt=lease.attempts)

    def close(self) -> None:
        """Gracefully shut down idle workers (no-op for the serial backend).

        Safe after a failed ``run()``: workers that died or were reaped are
        already gone, and a worker that ignores the shutdown message within
        a grace period is killed rather than joined forever."""
        for handle in self._workers:
            try:
                handle.conn.send(None)
            except (OSError, ValueError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._workers = []

    def terminate(self) -> None:
        """Hard-kill every worker immediately (used on exceptional exit,
        e.g. :exc:`KeyboardInterrupt` mid-campaign, where in-flight jobs
        must not delay teardown or leak processes)."""
        for handle in self._workers:
            if handle.process.is_alive():
                handle.process.kill()
            handle.process.join(timeout=5.0)
            try:
                handle.conn.close()
            except OSError:
                pass
        self._workers = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A graceful close() after a failure could join() forever on a
        # worker still chewing an in-flight job; exceptional exits kill.
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    # -- serial / in-parent execution ----------------------------------

    def _attempts_in_parent(
        self,
        lease: _Lease,
        quarantine_sink: Optional[Callable[[CampaignJob, WorkerFault], None]] = None,
    ) -> JobResult:
        """Run one lease to completion in this process (serial backend and
        the degraded-pool fallback), with retry/quarantine semantics.

        Only ``exception`` faults can occur here: process-kill and hang
        injections are worker-process behaviours (see
        :mod:`repro.orchestration.faults`), and a genuine hang in-parent
        cannot be preempted without a process boundary — which is exactly
        why the process backend is the recommended substrate for flaky
        targets.
        """
        sup = self.supervision
        plan = self.fault_plan
        timing = self.telemetry is not None
        while True:
            lease.attempts += 1
            hook: Optional[Callable[[], None]] = None
            if plan is not None:
                def hook(ji=lease.job_index, at=lease.attempts):
                    fire_fault(plan, ji, at, in_worker_process=False)
            try:
                return execute_job(lease.job, cache=self._cache, fault=hook,
                                   timing=timing)
            except Exception as exc:  # noqa: BLE001 — supervised, bounded
                detail = f"{type(exc).__name__}: {exc}"
                if lease.attempts >= sup.max_attempts:
                    fault = WorkerFault(kind=OBSERVED_EXCEPTION,
                                        attempts=lease.attempts, detail=detail)
                    if quarantine_sink is None:
                        self.quarantined.append((lease.job, fault))
                    else:
                        quarantine_sink(lease.job, fault)
                    self._record_quarantine(lease.job, fault)
                    return _quarantine_result(lease.job, fault)
                self._record_retry(lease, OBSERVED_EXCEPTION)
                delay = sup.retry_delay(lease.attempts)
                if delay:
                    time.sleep(delay)

    # -- supervised process backend ------------------------------------

    def _run_supervised(self, jobs: List[CampaignJob], base_index: int) -> List[JobResult]:
        sup = self.supervision
        telemetry = self.telemetry
        start = time.monotonic()
        leases = [
            _Lease(index=i, job_index=base_index + i, job=job, enqueued=start)
            for i, job in enumerate(jobs)
        ]
        results: List[Optional[JobResult]] = [None] * len(jobs)
        run_quarantines: Dict[int, Tuple[CampaignJob, WorkerFault]] = {}
        pending = deque(leases)
        completed = 0

        def finish(lease: _Lease, result: JobResult,
                   worker: Optional[str] = None,
                   merge_spans: bool = False) -> None:
            nonlocal completed
            results[lease.index] = result
            completed += 1
            if worker is not None:
                self._note_result(lease.job, result, worker=worker,
                                  merge_spans=merge_spans)

        def observe_fault(lease: _Lease, kind: str, detail: str) -> None:
            """Retry the lease with backoff, or quarantine it."""
            if lease.attempts >= sup.max_attempts:
                fault = WorkerFault(kind=kind, attempts=lease.attempts,
                                    detail=detail)
                run_quarantines[lease.index] = (lease.job, fault)
                self._record_quarantine(lease.job, fault)
                finish(lease, _quarantine_result(lease.job, fault))
            else:
                self._record_retry(lease, kind)
                delay = sup.retry_delay(lease.attempts)
                now = time.monotonic()
                lease.not_before = now + delay
                lease.enqueued = now
                if telemetry is not None and delay:
                    telemetry.registry.observe("retry-backoff", delay)
                pending.append(lease)

        while completed < len(jobs):
            self._ensure_workers()
            if not self._workers:
                # Degradation floor: no worker can be hosted any more.  No
                # leases are in flight (a dead worker's lease was requeued
                # when it was reaped), so everything left runs in-parent.
                while pending:
                    lease = pending.popleft()
                    self.health.in_parent_jobs += 1
                    if telemetry is not None:
                        telemetry.event("in-parent-job",
                                        job_index=lease.job_index)
                    finish(
                        lease,
                        self._attempts_in_parent(
                            lease,
                            quarantine_sink=lambda job, fault, lease=lease:
                                run_quarantines.__setitem__(
                                    lease.index, (job, fault)
                                ),
                        ),
                        worker="parent",
                        merge_spans=False,
                    )
                continue
            now = time.monotonic()
            for handle in self._workers:
                if handle.lease is not None:
                    continue
                lease = _pop_eligible(pending, now)
                if lease is None:
                    break
                lease.attempts += 1
                if telemetry is not None:
                    telemetry.registry.observe(
                        "lease-wait", max(now - lease.enqueued, 0.0))
                handle.lease = lease
                handle.deadline = (
                    now + sup.lease_timeout if sup.lease_timeout else None
                )
                try:
                    handle.conn.send((lease.job_index, lease.attempts, lease.job))
                except (OSError, ValueError):
                    handle.lease = None
                    self._reap(handle)
                    observe_fault(lease, OBSERVED_WORKER_DEATH,
                                  "worker process died before accepting the job")
            busy = [h for h in self._workers if h.lease is not None]
            if not busy:
                if pending:
                    # Every lease is waiting out its backoff.
                    now = time.monotonic()
                    delay = max(0.0, min(l.not_before for l in pending) - now)
                    if delay:
                        time.sleep(min(delay, 0.25))
                continue
            timeout = self._wait_timeout(busy, pending)
            ready = connection.wait([h.conn for h in busy], timeout)
            by_conn = {h.conn: h for h in busy}
            for conn in ready:
                handle = by_conn[conn]
                lease = handle.lease
                try:
                    _, status, payload = conn.recv()
                except (EOFError, OSError):
                    handle.lease = None
                    self._reap(handle)
                    if lease is not None:
                        observe_fault(lease, OBSERVED_WORKER_DEATH,
                                      "worker process died mid-job")
                    continue
                handle.lease = None
                handle.deadline = None
                if status == "ok":
                    finish(lease, payload, worker=handle.label,
                           merge_spans=True)
                else:
                    observe_fault(lease, OBSERVED_EXCEPTION, payload)
            now = time.monotonic()
            for handle in list(self._workers):
                lease = handle.lease
                if (
                    lease is not None
                    and handle.deadline is not None
                    and now >= handle.deadline
                ):
                    # Deadline blown: the worker may be wedged in a hung
                    # job — reap it (SIGKILL; a sleeping process ignores
                    # gentler signals' grace) and retry the lease.
                    handle.lease = None
                    self._reap(handle)
                    self.health.deadline_kills += 1
                    if telemetry is not None:
                        telemetry.event("deadline-kill",
                                        job_index=lease.job_index,
                                        worker=handle.label)
                    observe_fault(
                        lease, OBSERVED_DEADLINE,
                        f"lease deadline of {sup.lease_timeout:g}s exceeded",
                    )
        # Quarantines surface in submission order regardless of the
        # timing-dependent order the supervisor observed them in.
        for index in sorted(run_quarantines):
            self.quarantined.append(run_quarantines[index])
        return results  # type: ignore[return-value]

    def _wait_timeout(
        self, busy: List[_WorkerHandle], pending: "deque[_Lease]"
    ) -> float:
        """How long the supervisor may block waiting for worker messages:
        until the nearest lease deadline or backoff expiry, capped so
        respawn/degradation bookkeeping stays live."""
        now = time.monotonic()
        horizons = [1.0]
        horizons.extend(h.deadline - now for h in busy if h.deadline is not None)
        horizons.extend(
            lease.not_before - now for lease in pending if lease.not_before > now
        )
        return max(0.0, min(horizons))

    def _ensure_workers(self) -> None:
        """Keep the worker set at the target size, shrinking the target
        (graceful degradation) when the host refuses to spawn more."""
        while len(self._workers) < self._target_workers:
            try:
                handle = self._spawn_worker()
            except OSError:
                self._target_workers = len(self._workers)
                self.health.pool_shrinks += 1
                if self.telemetry is not None:
                    self.telemetry.event("pool-shrink",
                                         target=self._target_workers)
                break
            self._workers.append(handle)
            if self._spawn_count > self.parallelism:
                # Beyond the initial set: this spawn replaced a reaped worker.
                self.health.respawns += 1
                if self.telemetry is not None:
                    self.telemetry.event("worker-respawn", worker=handle.label)

    def _spawn_worker(self) -> _WorkerHandle:
        ctx = self._context()
        parent_conn, child_conn = ctx.Pipe()
        process = ctx.Process(
            target=_worker_main,
            args=(child_conn, self.fault_plan, self.telemetry is not None),
            daemon=True,
        )
        process.start()
        # The parent's copy of the child end must close so a dead worker
        # reads as EOF on the parent's end.
        child_conn.close()
        label = f"w{self._spawn_count}"
        self._spawn_count += 1
        return _WorkerHandle(process, parent_conn, label=label)

    def _reap(self, handle: _WorkerHandle) -> None:
        """Remove a dead or wedged worker: kill, join, close, forget.  The
        next loop iteration respawns a replacement via _ensure_workers()
        unless degradation shrank the target."""
        if handle in self._workers:
            self._workers.remove(handle)
        if handle.process.is_alive():
            handle.process.kill()
        handle.process.join(timeout=5.0)
        try:
            handle.conn.close()
        except OSError:
            pass

    @staticmethod
    def _context():
        # Prefer fork (cheap, inherits the imported registry); fall back to
        # the platform default where fork is unavailable.
        if "fork" in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context("fork")
        return multiprocessing.get_context()


def _pop_eligible(pending: "deque[_Lease]", now: float) -> Optional[_Lease]:
    """Remove and return the first lease whose backoff has expired,
    preserving submission order for the rest."""
    for offset in range(len(pending)):
        if pending[offset].not_before <= now:
            pending.rotate(-offset)
            lease = pending.popleft()
            pending.rotate(offset)
            return lease
    return None


__all__ = ["PoolHealth", "SupervisionConfig", "WorkerPool"]
