"""Cross-launch prepared-program cache.

Lowering a kernel (closure trees for the ``"compiled"`` engine) is
launch-independent work, yet historically it was redone for every launch
because buffers and the step budget bound at prepare time.  The differential
and EMI harnesses re-run the *same* compiled program across many
configurations and optimisation levels, so that cost was paid N times per
kernel.

The engine protocol now splits preparation into a launch-independent
:meth:`~repro.runtime.engine.ExecutionEngine.lower` step and a cheap
per-launch :meth:`~repro.runtime.engine.PreparedProgram.bind` step, and this
module supplies the cache that makes lowering pay off across launches: a
bounded LRU keyed on a canonical *prepared-program key*

    (program fingerprint, engine name, comma_yields_zero, max_steps)

where the program fingerprint is the same canonical digest the execution
result caches use (printed kernel source + buffer specs + launch geometry +
scalar arguments; see :func:`repro.platforms.calibration.program_fingerprint`).
Engine name, the Oclgrind comma defect and the step budget are part of the
key because all three are baked into the lowered artefact -- keys therefore
never collide across engines, optimisation levels (different printed source)
or ``comma_yields_zero`` settings, which ``tests/test_prepared_cache.py``
property-tests.

Like the execution-result :class:`~repro.orchestration.cache.ResultCache`,
the cache keeps hit/miss/eviction counters that the harnesses and campaign
results surface, so cache behaviour is observable rather than silent.  The
stats type is defined here (not imported from the orchestration layer)
because the runtime must not depend on orchestration.

Concurrency note: a cached :class:`~repro.runtime.engine.PreparedProgram`
supports one *active* launch at a time (``bind`` resets the lowering's
internal step counter).  Launches in this repository are strictly sequential
within a process -- parallel campaigns use one cache per worker process --
so this is not a restriction in practice, but a cache must not be shared
across threads that launch concurrently.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Tuple

from repro.observability import SPAN_LOWER, current_collector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel_lang import ast
    from repro.runtime.engine import ExecutionEngine, PreparedProgram

#: Default number of lowered programs a prepared-program cache retains.
#: Lowered artefacts (closure trees) are heavier than execution results,
#: so the default is smaller than the result cache's.
DEFAULT_PREPARED_CACHE_SIZE = 512


@dataclass
class PreparedCacheStats:
    """Hit/miss/eviction counters for a :class:`PreparedProgramCache`.

    Mirrors :class:`repro.orchestration.cache.CacheStats` so the two cache
    kinds surface uniformly on harnesses and campaign results.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def copy(self) -> "PreparedCacheStats":
        return PreparedCacheStats(self.hits, self.misses, self.evictions)

    def merge(self, other: "PreparedCacheStats") -> "PreparedCacheStats":
        return PreparedCacheStats(
            self.hits + other.hits,
            self.misses + other.misses,
            self.evictions + other.evictions,
        )

    def since(self, earlier: "PreparedCacheStats") -> "PreparedCacheStats":
        """The delta accumulated after ``earlier`` was snapshotted."""
        return PreparedCacheStats(
            self.hits - earlier.hits,
            self.misses - earlier.misses,
            self.evictions - earlier.evictions,
        )

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "evictions": self.evictions}


PreparedProgramKey = Tuple[str, str, bool, int]


def prepared_program_key(
    program: "ast.Program",
    engine_name: str,
    comma_yields_zero: bool,
    max_steps: int,
    *,
    fingerprint: str = None,
) -> PreparedProgramKey:
    """The canonical cache key for one lowered program.

    Every knob that is baked into the lowered artefact is part of the key:
    the program fingerprint (printed source, buffers, launch geometry,
    scalar arguments -- two optimisation levels of one kernel print
    differently and therefore key differently), the engine that produced the
    lowering, the ``comma_yields_zero`` defect flag (it selects different
    comma-operator code) and the step budget (engines specialise their tick
    checks on it).

    ``fingerprint`` lets a caller that already holds the program's digest
    (the cache's per-object memo) skip recomputing it; the key layout stays
    defined in exactly one place either way.
    """
    if fingerprint is None:
        # Imported lazily: the calibration module sits above the runtime in
        # the layering (it pulls in the compiler), but the fingerprint
        # function is the single canonical program digest and must not be
        # duplicated here.
        from repro.platforms.calibration import program_fingerprint

        fingerprint = program_fingerprint(program)
    return (fingerprint, engine_name, bool(comma_yields_zero), int(max_steps))


class PreparedProgramCache:
    """A bounded LRU mapping prepared-program keys to lowered programs.

    :meth:`lower` is the single entry point: it either returns the cached
    :class:`~repro.runtime.engine.PreparedProgram` (counting a hit and
    refreshing recency) or calls ``engine.lower`` and stores the result
    (counting a miss, evicting least-recently-used entries beyond
    ``maxsize``).  A ``maxsize`` of 0 disables storage -- every lookup is a
    miss -- which keeps the accounting uniform for cache-off runs.
    """

    def __init__(self, maxsize: int = DEFAULT_PREPARED_CACHE_SIZE) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self.maxsize = maxsize
        self._entries: "OrderedDict[PreparedProgramKey, PreparedProgram]" = OrderedDict()
        self._stats = PreparedCacheStats()
        # Fingerprinting prints the whole program; a repeat launch of the
        # *same object* (the warm-cache path this cache exists for) must not
        # pay that per launch.  Entries pin the program so its id cannot be
        # recycled while the memo entry is alive, and the identity check
        # guards against a different program landing on a reused id.
        # Post-compilation programs are never mutated in place (the result
        # caches already rely on this), so memoising per object is sound.
        self._fp_memo: "OrderedDict[int, tuple]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: PreparedProgramKey) -> bool:
        return key in self._entries

    def _fingerprint(self, program: "ast.Program") -> str:
        memo_key = id(program)
        entry = self._fp_memo.get(memo_key)
        if entry is not None and entry[0] is program:
            self._fp_memo.move_to_end(memo_key)
            return entry[1]
        from repro.platforms.calibration import program_fingerprint

        fingerprint = program_fingerprint(program)
        self._fp_memo[memo_key] = (program, fingerprint)
        while len(self._fp_memo) > max(4 * self.maxsize, 64):
            self._fp_memo.popitem(last=False)
        return fingerprint

    def lower(
        self,
        engine: "ExecutionEngine",
        program: "ast.Program",
        comma_yields_zero: bool = False,
        max_steps: int = 2_000_000,
    ) -> "PreparedProgram":
        """The lowered form of ``program`` under ``engine``, cached.

        Engines whose lowering is trivial (``cacheable_lowering`` False,
        e.g. the reference walker, whose "lowering" just wraps its
        arguments) bypass the cache entirely -- no fingerprinting, no
        stats traffic, no pinned entries.
        """
        if not getattr(engine, "cacheable_lowering", True):
            return engine.lower(
                program, comma_yields_zero=comma_yields_zero, max_steps=max_steps
            )
        key = prepared_program_key(
            program,
            engine.name,
            comma_yields_zero,
            max_steps,
            fingerprint=self._fingerprint(program),
        )
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return entry
        self._stats.misses += 1
        collector = current_collector()
        if collector is None:
            prepared = engine.lower(
                program, comma_yields_zero=comma_yields_zero, max_steps=max_steps
            )
        else:
            # Only genuine lowering work is a "lower" span: cache hits
            # cost a dict lookup and are visible in the stats instead.
            with collector.span(SPAN_LOWER, name=engine.name):
                prepared = engine.lower(
                    program, comma_yields_zero=comma_yields_zero,
                    max_steps=max_steps,
                )
        if self.maxsize > 0:
            self._entries[key] = prepared
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._stats.evictions += 1
        return prepared

    def clear(self) -> None:
        self._entries.clear()
        self._fp_memo.clear()

    @property
    def stats(self) -> PreparedCacheStats:
        """The live counters (mutated by further cache traffic)."""
        return self._stats

    def snapshot(self) -> PreparedCacheStats:
        """An immutable copy of the counters, for delta accounting."""
        return self._stats.copy()


__all__ = [
    "DEFAULT_PREPARED_CACHE_SIZE",
    "PreparedCacheStats",
    "PreparedProgramCache",
    "PreparedProgramKey",
    "prepared_program_key",
]
