"""Shared execution plumbing for the differential and EMI harnesses.

Both harnesses used to carry identical copies of the result-cache wiring,
the ``cached_run`` delegation and the prepared-stats surface; this base
class is the single home for that machinery so the key policy and the
hit/miss accounting cannot drift between them.  Every cell takes the same
path: result-cache lookup, then (on a miss) lower through the
prepared-program cache, bind and run.  That is what keeps the campaign
invariant ``prepared_stats.lookups == cache_stats.misses`` intact on the
compiled engine (see tests/test_prepared_cache.py).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.runtime.device import KernelResult
from repro.runtime.engine import DEFAULT_ENGINE
from repro.runtime.prepared import PreparedProgramCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.compiler.driver import CompiledKernel
    from repro.orchestration.cache import ResultCache


class ExecutionHarnessBase:
    """Cache plumbing and execution shared by harnesses."""

    def __init__(
        self,
        max_steps: int = 2_000_000,
        cache_results: bool = True,
        cache: Optional["ResultCache"] = None,
        engine: str = DEFAULT_ENGINE,
        prepared_cache: Optional[PreparedProgramCache] = None,
    ) -> None:
        # Imported lazily: repro.orchestration itself imports the harnesses.
        from repro.orchestration.cache import ResultCache

        self.max_steps = max_steps
        self.cache = cache if cache is not None else ResultCache()
        #: Live switch: flipping it after construction (dis)engages the cache.
        self.cache_results = True if cache is not None else cache_results
        #: Execution engine every cell runs on (cache keys include it).
        self.engine = engine
        #: Cross-launch prepared-program cache: identical compiled programs
        #: reuse one lowering, so only the cheap per-launch bind is paid per
        #: cell.  Stats surface via ``prepared_stats``.
        self.prepared_cache = (
            prepared_cache if prepared_cache is not None else PreparedProgramCache()
        )

    # ------------------------------------------------------------------

    def _execute(self, compiled: "CompiledKernel") -> KernelResult:
        from repro.orchestration.cache import cached_run

        cache = self.cache if self.cache_results else None
        return cached_run(
            cache, compiled, self.max_steps, self.engine,
            prepared_cache=self.prepared_cache,
        )

    # ------------------------------------------------------------------

    @property
    def prepared_stats(self):
        """Live prepared-program cache counters (see runtime/prepared.py)."""
        return self.prepared_cache.stats


__all__ = ["ExecutionHarnessBase"]
