"""Sharded, process-parallel campaign execution engine.

The campaigns behind Tables 3-5 are embarrassingly parallel at the kernel /
EMI-base granularity.  This package turns them into explicit job lists:

* :mod:`repro.orchestration.jobs` — :class:`CampaignJob` / :class:`JobResult`,
  value objects that serialise one (kernel-seed, mode, configurations,
  optimisation-levels) work unit so generation happens inside workers;
* :mod:`repro.orchestration.pool` — :class:`WorkerPool`, with a deterministic
  in-process ``serial`` backend and a supervised :mod:`multiprocessing`
  ``process`` backend that dispatches per-job leases with deadlines,
  bounded retries and poison-job quarantine (see ORCHESTRATION.md
  "Fault tolerance");
* :mod:`repro.orchestration.faults` — :class:`FaultPlan`, deterministic
  fault injection (worker kills, exceptions, hangs, torn store writes)
  used by the chaos property suite, a no-op by default;
* :mod:`repro.orchestration.cache` — :class:`ResultCache`, the bounded LRU
  execution-result cache shared by the harnesses, with hit/miss counters
  surfaced in campaign results.

``repro.testing.campaign`` routes all campaign work through this engine; see
ORCHESTRATION.md at the repository root for the design notes.
"""

from repro.orchestration.cache import DEFAULT_CACHE_SIZE, CacheStats, ResultCache
from repro.orchestration.faults import (
    FAULT_EXCEPTION,
    FAULT_HANG,
    FAULT_KILL,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    QuarantineRecord,
    TornStoreWrite,
    WorkerFault,
)
from repro.orchestration.jobs import (
    CLSMITH_DIFFERENTIAL,
    EMI_BASE_FILTER,
    EMI_FAMILY,
    REDUCE_CHECK,
    REDUCE_KERNEL,
    TRIAGE_BISECT,
    CampaignJob,
    JobResult,
    execute_job,
)
from repro.orchestration.pool import PoolHealth, SupervisionConfig, WorkerPool

__all__ = [
    "DEFAULT_CACHE_SIZE",
    "CacheStats",
    "ResultCache",
    "FAULT_EXCEPTION",
    "FAULT_HANG",
    "FAULT_KILL",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "QuarantineRecord",
    "TornStoreWrite",
    "WorkerFault",
    "CLSMITH_DIFFERENTIAL",
    "EMI_BASE_FILTER",
    "EMI_FAMILY",
    "REDUCE_CHECK",
    "REDUCE_KERNEL",
    "TRIAGE_BISECT",
    "CampaignJob",
    "JobResult",
    "execute_job",
    "PoolHealth",
    "SupervisionConfig",
    "WorkerPool",
]
