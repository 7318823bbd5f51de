"""Shared execution plumbing for the differential and EMI harnesses.

Both harnesses used to carry identical copies of the result-cache wiring and
the ``cached_run`` delegation; this base class is the single home for that
machinery so the key policy and the hit/miss accounting cannot drift between
them.  Every cell takes the same path: result-cache lookup, then (on a miss)
lower, bind and run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.runtime.device import KernelResult
from repro.runtime.engine import DEFAULT_ENGINE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.compiler.driver import CompiledKernel
    from repro.orchestration.cache import ResultCache


class ExecutionHarnessBase:
    """Cache plumbing and execution shared by harnesses."""

    def __init__(
        self,
        max_steps: int = 2_000_000,
        cache: Optional["ResultCache"] = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        # Imported lazily: repro.orchestration itself imports the harnesses.
        from repro.orchestration.cache import ResultCache

        self.max_steps = max_steps
        #: Execution-result cache (``ResultCache(0)`` stores nothing).
        self.cache = cache if cache is not None else ResultCache()
        #: Execution engine every cell runs on (cache keys include it).
        self.engine = engine

    # ------------------------------------------------------------------

    def _execute(self, compiled: "CompiledKernel") -> KernelResult:
        from repro.orchestration.cache import cached_run

        return cached_run(self.cache, compiled, self.max_steps, self.engine)


__all__ = ["ExecutionHarnessBase"]
