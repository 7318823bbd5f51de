"""Persistent, resumable campaign store (append-only JSONL).

A campaign that dies at kernel 980 of 1000 used to be a total loss: every
aggregate lived in memory.  The store turns campaigns into an incremental
service: every executed :class:`~repro.orchestration.jobs.CampaignJob` is
recorded as one JSON line keyed by its *value identity*, and a re-run of the
same campaign (``resume=`` on :func:`~repro.testing.campaign.
run_clsmith_campaign` / :func:`~repro.testing.campaign.run_emi_campaign`)
replays recorded results instead of re-executing them.  Because jobs are
deterministic value objects and the campaign's aggregation is order-stable,
a resumed campaign is **byte-identical** to an uninterrupted one -- tables,
reduction summaries, buckets and reports -- on both the serial and the
process backend (property-tested in ``tests/test_triage_store.py``).

File format
-----------

One JSON object per line, ``sort_keys`` + compact separators so identical
records are identical bytes.  Every record carries the schema version::

    {"v": 2, "kind": "campaign", "key": <campaign key>, "meta": {...}}
    {"v": 2, "kind": "job", "key": <job identity>, "campaign": ..., "result": {...}}
    {"v": 2, "kind": "reduction", "key": "<campaign>:<job identity>", "campaign": ..., "summary": {...}, "context": {...}, "cache": {...}}
    {"v": 2, "kind": "bucket", "key": "<campaign>:<fingerprint>", "campaign": ..., "culprit": ..., ...}

``kind=job`` records hold a full encoded ``JobResult``; ``kind=reduction``
records additionally denormalise each reduction summary next to the job
context (configurations, optimisation levels, engine, variant parameters)
so `repro-triage` can bucket and bisect **across campaigns** from the store
alone.  Analytic fields are plain JSON; the two program-valued fields
(``reduced_program`` and shipped base programs inside contexts) are opaque
pickle blobs in base64 -- documented as such, everything a JSON consumer
needs (sources, sizes, signatures, attributions) is plain.

Durability and appends
----------------------

Writes are line-buffered appends (``flush`` after every record), and with
``durable=True`` every append is additionally ``fsync``'d, so a host crash
(not just a process crash) loses at most the in-flight record.  Campaigns
running on the process pool backend enable durability automatically when
the knob was left unset -- they are the long-running, worth-protecting
runs -- while short-lived serial/test stores keep the cheap default.  A
crash can leave at most one truncated final line; :class:`CampaignStore`
repairs the file on open by truncating back to the last complete,
decodable line -- an append-only log is always a valid prefix of itself,
so nothing else can be damaged.  All record writes are idempotent (keyed
``record_once``), so resuming never duplicates lines.

A quarantined job (see ORCHESTRATION.md "Fault tolerance") is recorded as
a ``worker-fault`` record rather than a ``job`` record::

    {"v": 2, "kind": "worker-fault", "key": "<campaign>:<job identity>", "campaign": ..., "job_kind": ..., "seed": ..., "mode": ..., "fault": {"kind": ..., "attempts": ..., "detail": ...}}

so resuming the campaign *re-runs* the poison job (its identity has no
``job`` record) instead of replaying the failure -- a transiently-faulty
job heals on resume, and a genuinely poisonous one deterministically
re-quarantines.

Versioning
----------

``SCHEMA_VERSION`` is bumped on any incompatible record change; the reader
skips records with a *newer* major version rather than guessing (forward
compatibility: old stores always load, new stores degrade to "unknown
records ignored").

Version 2 dropped the ``prepared`` counters from ``job`` results and
``reduction`` records (the prepared-program cache they counted is gone).
A v1 reader would fail to decode a job record without them; the bump
makes it skip v2 records and re-run their jobs instead.  v1 records still
load here, their ``prepared`` fields ignored.
"""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import json
import os
import pickle
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.kernel_lang import ast
from repro.orchestration.cache import CacheStats
from repro.orchestration.faults import FaultPlan, TornStoreWrite, WorkerFault
from repro.orchestration.jobs import CampaignJob, JobResult
from repro.platforms.calibration import program_fingerprint
from repro.reduction.interestingness import PredicateStats
from repro.reduction.reducer import ReductionSummary
from repro.testing.emi_harness import EmiBaseResult
from repro.testing.outcomes import Outcome, OutcomeCounts

#: Bumped on incompatible record-shape changes; see the module docstring.
SCHEMA_VERSION = 2


# ---------------------------------------------------------------------------
# Value identities
# ---------------------------------------------------------------------------


def config_identity(config) -> Optional[Tuple]:
    """A value identity for a (possibly unregistered) DeviceConfig.

    Enough to distinguish the configurations campaigns actually ship:
    registry rows, synthetic corpus configs, and registry rows with bug
    models stripped or replaced (the models are identified by name).
    Public because campaign keys embed it too (e.g. the curation
    configuration, which a boolean would conflate across configs).
    """
    if config is None:
        return None
    return (
        config.config_id,
        config.sdk,
        config.device,
        config.driver,
        tuple(config.bug_model_names()),
        config.run_optimiser,
        config.notes,
    )


def _spec_identity(spec) -> Optional[Tuple]:
    if spec is None:
        return None
    return (
        spec.kind,
        tuple(spec.signature),
        spec.expected_class,
        spec.target_index,
        spec.target_optimisations,
    )


def job_identity(job: CampaignJob) -> str:
    """A stable content hash identifying one job's *work*, not its origin.

    Two jobs with the same identity execute byte-identical work (kind, seed,
    mode, configurations by value, optimisation levels, budgets, engine,
    predicate, and -- for by-value programs -- the program fingerprint), so
    a recorded result can satisfy either.  Deliberately excludes the pool
    backend and the campaign that issued the job: results are
    backend-independent, and sharing them *across* campaigns is the store's
    cross-campaign dedup.
    """
    parts = (
        job.kind,
        job.seed,
        job.mode,
        tuple(job.config_ids),
        tuple(job.optimisation_levels),
        repr(job.options),
        job.max_steps,
        job.emi_blocks,
        job.variants_per_base,
        job.variant_seed,
        job.engine,
        program_fingerprint(job.program) if job.program is not None else None,
        tuple(config_identity(c) for c in job.config_overrides)
        if job.config_overrides is not None
        else None,
        _spec_identity(job.predicate_spec),
        job.reduce_max_evaluations,
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def campaign_key(name: str, **params: object) -> str:
    """A provenance key for one campaign invocation (entry point + params)."""
    h = hashlib.sha256()
    h.update(name.encode())
    for key in sorted(params):
        h.update(f"|{key}={params[key]!r}".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# JSON codecs for the value objects riding inside records
# ---------------------------------------------------------------------------


def encode_program(program: Optional[ast.Program]) -> Optional[str]:
    """Opaque blob encoding of a kernel program (base64 pickle)."""
    if program is None:
        return None
    return base64.b64encode(pickle.dumps(program, protocol=4)).decode("ascii")


def decode_program(blob: Optional[str]) -> Optional[ast.Program]:
    if blob is None:
        return None
    return pickle.loads(base64.b64decode(blob.encode("ascii")))


def _encode_counts(counts: Dict[Tuple[str, str, bool], OutcomeCounts]) -> List:
    return [[list(key), cell.as_dict()] for key, cell in counts.items()]


def _decode_counts(rows: List) -> Dict[Tuple[str, str, bool], OutcomeCounts]:
    out: Dict[Tuple[str, str, bool], OutcomeCounts] = {}
    for key, cell in rows:
        mode, config_name, optimisations = key
        out[(mode, config_name, bool(optimisations))] = OutcomeCounts(
            wrong_code=cell["w"], build_failure=cell["bf"],
            runtime_crash=cell["c"], timeout=cell["to"],
            passed=cell["ok"], undefined=cell["ub"],
        )
    return out


def _encode_emi_cell(cell: EmiBaseResult) -> Dict:
    return {
        "config_name": cell.config_name,
        "optimisations": cell.optimisations,
        "variant_outcomes": [o.value for o in cell.variant_outcomes],
        "distinct_values": cell.distinct_values,
        "bad_base": cell.bad_base,
        "wrong_code": cell.wrong_code,
        "induced_build_failure": cell.induced_build_failure,
        "induced_crash": cell.induced_crash,
        "induced_timeout": cell.induced_timeout,
        "stable": cell.stable,
    }


def _decode_emi_cell(data: Dict) -> EmiBaseResult:
    fields = dict(data)
    fields["variant_outcomes"] = [Outcome(v) for v in fields["variant_outcomes"]]
    return EmiBaseResult(**fields)


def encode_summary(summary: ReductionSummary) -> Dict:
    """Plain-JSON encoding of a reduction summary (program as opaque blob)."""
    return {
        "seed": summary.seed,
        "mode": summary.mode,
        "predicate_kind": summary.predicate_kind,
        "signature": [list(cell) for cell in summary.signature],
        "nodes_before": summary.nodes_before,
        "nodes_after": summary.nodes_after,
        "tokens_before": summary.tokens_before,
        "tokens_after": summary.tokens_after,
        "evaluations": summary.evaluations,
        "steps": summary.steps,
        "budget_exhausted": summary.budget_exhausted,
        "pass_attribution": summary.pass_attribution,
        "reduced_source": summary.reduced_source,
        "reduced_program": encode_program(summary.reduced_program),
        "predicate_stats": summary.predicate_stats,
    }


def decode_summary(data: Dict) -> ReductionSummary:
    fields = dict(data)
    fields["signature"] = tuple(tuple(cell) for cell in fields["signature"])
    fields["reduced_program"] = decode_program(fields["reduced_program"])
    return ReductionSummary(**fields)


def encode_job_result(result: JobResult) -> Dict:
    record: Dict[str, Any] = {
        "kind": result.kind,
        "seed": result.seed,
        "emi_blocks": result.emi_blocks,
        "accepted": result.accepted,
        "counts": _encode_counts(result.counts),
        "emi_cells": [_encode_emi_cell(c) for c in result.emi_cells],
        "n_variants": result.n_variants,
        "cache": result.cache.as_dict(),
        "reduction": (
            encode_summary(result.reduction) if result.reduction is not None else None
        ),
        "predicate_stats": (
            result.predicate_stats.as_dict()
            if result.predicate_stats is not None
            else None
        ),
        "bisection": (
            dataclasses.asdict(result.bisection)
            if result.bisection is not None
            else None
        ),
    }
    # Only present on quarantined results, so every pre-existing record
    # (and every fault-free record) keeps its exact byte encoding.
    if result.fault is not None:
        record["fault"] = result.fault.as_dict()
    # ``result.timing`` (telemetry) is deliberately never encoded: timing
    # differs on every run, and store bytes must be identical with
    # telemetry on or off (OBSERVABILITY.md).  Replayed results decode
    # with ``timing=None``.
    return record


def decode_job_result(data: Dict) -> JobResult:
    # Imported lazily to keep the store usable before triage is (the
    # bisection dataclass lives next to its algorithm).
    from repro.triage.bisection import BisectionResult

    return JobResult(
        kind=data["kind"],
        seed=data["seed"],
        emi_blocks=data["emi_blocks"],
        accepted=data["accepted"],
        counts=_decode_counts(data["counts"]),
        emi_cells=[_decode_emi_cell(c) for c in data["emi_cells"]],
        n_variants=data["n_variants"],
        cache=CacheStats(**data["cache"]),
        reduction=(
            decode_summary(data["reduction"])
            if data["reduction"] is not None
            else None
        ),
        predicate_stats=(
            PredicateStats(**data["predicate_stats"])
            if data["predicate_stats"] is not None
            else None
        ),
        bisection=(
            BisectionResult(**data["bisection"])
            if data["bisection"] is not None
            else None
        ),
        fault=(
            WorkerFault.from_dict(data["fault"])
            if data.get("fault") is not None
            else None
        ),
    )


def encode_reduction_context(job: CampaignJob) -> Dict:
    """The job context a stored reduction needs for later re-bisection."""
    return {
        "config_ids": list(job.config_ids),
        "config_overrides": (
            [encode_program(None) if c is None else
             base64.b64encode(pickle.dumps(c, protocol=4)).decode("ascii")
             for c in job.config_overrides]
            if job.config_overrides is not None
            else None
        ),
        "optimisation_levels": list(job.optimisation_levels),
        "max_steps": job.max_steps,
        "engine": job.engine,
        "variant_seed": job.variant_seed,
        "variants_per_base": job.variants_per_base,
    }


def decode_reduction_context(data: Dict) -> Dict:
    context = dict(data)
    if context["config_overrides"] is not None:
        context["config_overrides"] = [
            None if blob is None else pickle.loads(base64.b64decode(blob))
            for blob in context["config_overrides"]
        ]
    context["config_ids"] = tuple(context["config_ids"])
    context["optimisation_levels"] = tuple(
        bool(level) for level in context["optimisation_levels"]
    )
    return context


# ---------------------------------------------------------------------------
# The store
# ---------------------------------------------------------------------------


class CampaignStore:
    """Append-only, idempotent JSONL record store for campaigns.

    All writes go through :meth:`record_once`: a (kind, key) pair is written
    at most once per file, so crash-resume cycles never duplicate records.
    On open, a trailing line truncated by a crash is repaired away (the rest
    of an append-only log is untouched by definition).
    """

    def __init__(
        self,
        path: str,
        durable: Optional[bool] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.path = os.fspath(path)
        #: ``True``: fsync every append (host-crash durability).  ``None``
        #: means "unset": campaigns resolve it from their pool backend
        #: (process -> durable) without clobbering an explicit choice.
        self.durable = durable
        #: Chaos-testing hook: tears the n-th append mid-line (see
        #: :class:`~repro.orchestration.faults.FaultPlan.torn_writes`).
        self.fault_plan = fault_plan
        self._write_count = 0
        self._index: Dict[Tuple[str, str], Dict] = {}
        self._records: List[Dict] = []
        self._load()
        #: Opened lazily on the first write: a read-only consumer (e.g.
        #: ``repro-triage --list``) must not create an empty store file.
        self._file = None

    # -- loading -------------------------------------------------------

    def _load(self) -> None:
        if not os.path.exists(self.path):
            return
        good_end = 0
        with open(self.path, "rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break  # truncated tail: a crash mid-append
                try:
                    record = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    break
                if not isinstance(record, dict) or "kind" not in record:
                    break
                good_end += len(raw)
                if int(record.get("v", 0)) > SCHEMA_VERSION:
                    continue  # newer schema: skip rather than misread
                self._remember(record)
        if good_end != os.path.getsize(self.path):
            # Repair: drop the damaged tail so appends start on a clean line.
            with open(self.path, "rb+") as handle:
                handle.truncate(good_end)

    def _remember(self, record: Dict) -> None:
        self._records.append(record)
        key = record.get("key")
        if isinstance(key, str):
            self._index[(record["kind"], key)] = record

    # -- writing -------------------------------------------------------

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def record_once(self, kind: str, key: str, payload: Dict) -> bool:
        """Append one record unless (kind, key) is already stored.

        With ``durable=True`` the append is fsync'd before returning.  A
        planned torn write (chaos testing) writes only a prefix of the
        line, flushes it to disk, and raises
        :class:`~repro.orchestration.faults.TornStoreWrite` -- the
        on-disk state of a host that died mid-append, which ``_load``'s
        repair must truncate away on the next open."""
        if (kind, key) in self._index:
            return False
        if self._file is None:
            self._file = open(self.path, "a", encoding="utf-8")
        record = {"v": SCHEMA_VERSION, "kind": kind, "key": key, **payload}
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        write_index = self._write_count
        self._write_count += 1
        if self.fault_plan is not None and self.fault_plan.tears_write(write_index):
            self._file.write(line[: max(1, len(line) // 2)])
            self._file.flush()
            os.fsync(self._file.fileno())
            self.close()
            raise TornStoreWrite(
                f"store append {write_index} ({kind}, {key!r}) torn mid-line"
            )
        self._file.write(line)
        self._file.flush()
        if self.durable:
            os.fsync(self._file.fileno())
        self._remember(record)
        return True

    # -- record kinds --------------------------------------------------

    def begin_campaign(self, key: str, meta: Dict) -> None:
        self.record_once("campaign", key, {"meta": meta})

    def record_job(self, key: str, result: JobResult, campaign: str = "") -> None:
        self.record_once(
            "job", key, {"campaign": campaign, "result": encode_job_result(result)}
        )

    def lookup_job(self, key: str) -> Optional[JobResult]:
        """The recorded result for a job identity, decoded fresh per call
        (consumers may mutate aggregates; the store must stay pristine)."""
        record = self._index.get(("job", key))
        if record is None:
            return None
        return decode_job_result(record["result"])

    def record_worker_fault(
        self, key: str, job: CampaignJob, fault: WorkerFault, campaign: str = ""
    ) -> None:
        """Record one quarantined job (idempotent per campaign).

        Deliberately *not* a ``job`` record: the job's identity stays
        unrecorded, so a resumed campaign re-runs it -- transient faults
        heal on resume, poison jobs re-quarantine deterministically."""
        self.record_once(
            "worker-fault", f"{campaign}:{key}",
            {
                "campaign": campaign,
                "job_kind": job.kind,
                "seed": job.seed,
                "mode": job.mode,
                "fault": fault.as_dict(),
            },
        )

    def worker_faults(self, campaign: Optional[str] = None) -> List[Dict]:
        """All stored worker-fault records, file order; optionally
        filtered to one campaign."""
        out = []
        for record in self.records("worker-fault"):
            if campaign is not None and record.get("campaign") != campaign:
                continue
            out.append(record)
        return out

    def record_reduction(
        self, key: str, summary: ReductionSummary, job: CampaignJob,
        campaign: str = "",
        cache: Optional[CacheStats] = None,
    ) -> None:
        """Record one campaign reduction (idempotent per campaign).

        The record key is campaign-scoped: two campaigns that issue an
        identical reduce job each get their own record, so per-campaign
        filtering (``reductions(campaign=...)``) never silently drops a
        reproducer whose twin was first found by an earlier campaign --
        and the same bug found by two campaigns genuinely counts one
        occurrence per campaign when bucketed store-wide.  The heavy work
        still dedups across campaigns through the ``job`` records.

        ``cache`` holds the reduction's cache delta so a resumed campaign
        that replays the stored summary can still merge it into its
        surfaced ``cache_stats`` -- the same replay-consistency the ``job``
        records give every other phase.
        """
        self.record_once(
            "reduction", f"{campaign}:{key}",
            {
                "campaign": campaign,
                "summary": encode_summary(summary),
                "context": encode_reduction_context(job),
                "cache": (cache or CacheStats()).as_dict(),
            },
        )

    def lookup_reduction(
        self, key: str, campaign: str = ""
    ) -> Optional[Tuple[ReductionSummary, CacheStats]]:
        """This campaign's recorded (summary, cache delta) for a reduce-job
        identity."""
        record = self._index.get(("reduction", f"{campaign}:{key}"))
        if record is None:
            return None
        return (
            decode_summary(record["summary"]),
            CacheStats(**record.get("cache", {})),
        )

    def reductions(
        self, campaign: Optional[str] = None
    ) -> List[Tuple[ReductionSummary, Dict]]:
        """All stored (summary, context) pairs, file order; optionally
        filtered to one campaign (default: every campaign in the store --
        the cross-campaign dedup input)."""
        out = []
        for record in self.records("reduction"):
            if campaign is not None and record.get("campaign") != campaign:
                continue
            out.append(
                (
                    decode_summary(record["summary"]),
                    decode_reduction_context(record["context"]),
                )
            )
        return out

    def records(self, kind: Optional[str] = None) -> Iterator[Dict]:
        for record in self._records:
            if kind is None or record["kind"] == kind:
                yield record

    def campaigns(self) -> List[Dict]:
        return list(self.records("campaign"))

    # -- maintenance ---------------------------------------------------

    def compact(self) -> int:
        """Rewrite the log in place, dropping superseded records.

        The append-only format never rewrites lines, so a log can
        accumulate records no reader observes: ``record_once`` dedups only
        within one process, and two processes appending to the same store
        file (or a store file assembled by concatenating shards) can leave
        duplicate ``(kind, key)`` lines of which only one is served by the
        index.  Compaction keeps, for every ``(kind, key)``, the record the
        loaded index actually resolves to (the last occurrence), at the
        position of the key's *first* occurrence -- so record iteration
        order, which store-wide bucketing depends on, is preserved.  Lines
        a current reader cannot interpret (newer schema version, or no
        string key) are kept verbatim; a damaged trailing line is dropped
        exactly as :meth:`_load` would repair it.

        The rewrite goes through a temp file and an atomic rename, so a
        crash mid-compaction leaves either the old or the new file intact.
        A log with no superseded records is rewritten byte-identically
        (property-tested in ``tests/test_triage_store.py``).  Returns the
        number of lines dropped.
        """
        self.close()
        if not os.path.exists(self.path):
            return 0
        lines: List[bytes] = []
        slot: Dict[Tuple[str, str], int] = {}
        dropped = 0
        with open(self.path, "rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    dropped += 1
                    break
                try:
                    record = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError):
                    dropped += 1
                    break
                if not isinstance(record, dict) or "kind" not in record:
                    dropped += 1
                    break
                key = record.get("key")
                if int(record.get("v", 0)) > SCHEMA_VERSION or not isinstance(key, str):
                    lines.append(raw)
                    continue
                ident = (record["kind"], key)
                if ident in slot:
                    lines[slot[ident]] = raw
                    dropped += 1
                else:
                    slot[ident] = len(lines)
                    lines.append(raw)
        tmp = self.path + ".compact"
        with open(tmp, "wb") as handle:
            handle.writelines(lines)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        self._index.clear()
        self._records.clear()
        self._load()
        return dropped


def open_store(resume, fault_plan: Optional[FaultPlan] = None) -> Optional[CampaignStore]:
    """Normalise a campaign's ``resume=`` argument (path | store | None).

    ``fault_plan`` (chaos testing) is attached to a store opened from a
    path; a store passed in ready-made keeps whatever plan it carries."""
    if resume is None:
        return None
    if isinstance(resume, CampaignStore):
        return resume
    return CampaignStore(resume, fault_plan=fault_plan)


# ---------------------------------------------------------------------------
# Store-backed pool
# ---------------------------------------------------------------------------


class StoreBackedPool:
    """A :class:`~repro.orchestration.pool.WorkerPool` proxy that replays
    recorded job results and records fresh ones.

    Job order, chunking decisions and aggregate merging all happen against
    the *submitted* job list exactly as without a store -- results are
    simply sourced from the log when their identity is already recorded.
    This is what makes a resumed campaign byte-identical to an
    uninterrupted one: the store changes where results come from, never
    what they are.
    """

    def __init__(self, pool, store: CampaignStore, campaign: str = "") -> None:
        self._pool = pool
        self.store = store
        self.campaign = campaign

    @property
    def backend(self) -> str:
        return self._pool.backend

    @property
    def parallelism(self) -> int:
        return self._pool.parallelism

    @property
    def quarantined(self):
        """The inner pool's quarantine log (see WorkerPool.quarantined)."""
        return self._pool.quarantined

    @property
    def health(self):
        """The inner pool's supervisor health counters (PoolHealth)."""
        return self._pool.health

    @property
    def telemetry(self):
        """The inner pool's telemetry collector, or ``None``."""
        return self._pool.telemetry

    def run(self, jobs: Iterable[CampaignJob]) -> List[JobResult]:
        job_list = list(jobs)
        keys = [job_identity(job) for job in job_list]
        results: List[Optional[JobResult]] = [
            self.store.lookup_job(key) for key in keys
        ]
        pending = [i for i, result in enumerate(results) if result is None]
        telemetry = getattr(self._pool, "telemetry", None)
        if telemetry is not None and len(pending) < len(job_list):
            # Replayed jobs still count toward live progress (a matching
            # pool-run event keeps done/total consistent; cells=0 and
            # replayed=True keep throughput figures honest); their timing
            # is not re-synthesised — no work ran.
            telemetry.event("pool-run", jobs=len(job_list) - len(pending),
                            backend="store")
            for i, replayed in enumerate(results):
                if replayed is not None:
                    telemetry.event(
                        "job-finished", job=job_list[i].kind,
                        seed=job_list[i].seed, engine=job_list[i].engine,
                        worker="store", cells=0, replayed=True,
                        anomalous=replayed.anomalous,
                    )
        for i, fresh in zip(pending, self._pool.run([job_list[i] for i in pending])):
            if fresh.fault is not None:
                # Quarantined: record the fault, not a job result, so a
                # resume re-runs this job instead of replaying the failure.
                self.store.record_worker_fault(
                    keys[i], job_list[i], fresh.fault, campaign=self.campaign
                )
            else:
                self.store.record_job(keys[i], fresh, campaign=self.campaign)
            results[i] = fresh
        return results  # type: ignore[return-value]


__all__ = [
    "SCHEMA_VERSION",
    "config_identity",
    "job_identity",
    "campaign_key",
    "encode_program",
    "decode_program",
    "encode_summary",
    "decode_summary",
    "encode_job_result",
    "decode_job_result",
    "encode_reduction_context",
    "decode_reduction_context",
    "CampaignStore",
    "open_store",
    "StoreBackedPool",
]
