"""Bounded, fingerprint-keyed execution-result cache with hit/miss counters.

Campaign-scale runs repeat many executions: a curated kernel's sweep runs its
curation cell again (configuration 1+ in Table 4), EMI variant families
collapse onto few distinct compiled programs, and most
configurations compile most programs identically (the injected bug models
fire only on matching programs).  The harnesses therefore cache execution
results keyed on the fingerprint of the *compiled* program plus its execution
flags (see :func:`repro.platforms.calibration.execution_cache_key`).

Historically each harness kept its own unbounded ``dict``; campaign-scale
runs grew it without limit and two harnesses in the same process could not
share work.  :class:`ResultCache` replaces that: one bounded LRU cache can be
shared by every harness in a process (the serial backend shares one per
:class:`~repro.orchestration.pool.WorkerPool`; the process backend keeps one
per worker), and its :class:`CacheStats` counters are surfaced in campaign
results so cache behaviour is observable rather than silent.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable

#: Default number of execution results a harness-level cache retains.
DEFAULT_CACHE_SIZE = 4096


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for a :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def copy(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions)

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Counter-wise sum (mirrors ``OutcomeCounts.merge``)."""
        return CacheStats(
            self.hits + other.hits,
            self.misses + other.misses,
            self.evictions + other.evictions,
        )

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The delta accumulated after ``earlier`` was snapshotted."""
        return CacheStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.evictions - earlier.evictions,
        )

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


class ResultCache:
    """A bounded LRU mapping from cache keys to execution results.

    ``get`` counts a hit or a miss and refreshes the entry's recency;
    ``put`` inserts and evicts the least-recently-used entries beyond
    ``maxsize``.  A ``maxsize`` of 0 disables storage (every lookup is a
    miss), which keeps the accounting uniform for cache-off runs.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return self._entries[key]
        self._stats.misses += 1
        return default

    def put(self, key: Hashable, value: Any) -> None:
        if self.maxsize == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self._stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        """The live counters (mutated by further cache traffic)."""
        return self._stats

    def snapshot(self) -> CacheStats:
        """An immutable copy of the counters, for delta accounting."""
        return self._stats.copy()


def cached_run(
    cache: ResultCache,
    compiled: Any,
    max_steps: int,
    engine: str = "reference",
) -> Any:
    """Execute a compiled program, memoising through ``cache``.

    This is the single execution-caching path, called by the one cell path
    (:meth:`repro.testing.harness_base.ExecutionHarnessBase.execute_cell`)
    that every harness, predicate and bisection probe runs, so the key
    policy (program fingerprint + execution flags + step budget + execution
    engine) and the hit/miss accounting cannot drift between them.  Only a
    miss executes the kernel, lowering it afresh.  The key covers every
    input of a lowering (fingerprint, comma flag, budget, engine), so a
    repeat launch is a hit and never reaches the engine.
    """
    from repro.platforms.calibration import execution_cache_key

    key = execution_cache_key(
        compiled.program, compiled.execution_flags, max_steps, engine
    )
    cached = cache.get(key)
    if cached is not None:
        return cached
    result = compiled.run(max_steps=max_steps, engine=engine)
    cache.put(key, result)
    return result


__all__ = ["DEFAULT_CACHE_SIZE", "CacheStats", "ResultCache", "cached_run"]
