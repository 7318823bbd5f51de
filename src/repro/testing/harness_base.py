"""The one cell path: build, run and classify one (configuration, level).

The paper's method is one step repeated: build a test for one cell, run it
and classify the run (sections 3.2 and 7).  :class:`ExecutionHarnessBase`
is the single home of that step -- ``compile_cell``, ``execute_cell`` and
``run_cell`` -- and of the result-cache plumbing.  They are the only place
that catches build and runtime errors, classifies them and looks a run up
in the result cache, so the harnesses, the reduction predicates and the
bisection probes classify and cache every cell alike, and a reducer's
interestingness test applies exactly the fuzzer's oracle.  A new caller
that runs a cell uses them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.compiler.driver import CompiledKernel, CompilerDriver
from repro.compiler.pipeline import Pipeline
from repro.kernel_lang import ast
from repro.runtime.device import KernelResult
from repro.runtime.engine import DEFAULT_ENGINE
from repro.runtime.errors import BuildFailure, KernelRuntimeError
from repro.testing.outcomes import Outcome, classify_exception

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.orchestration.cache import ResultCache
    from repro.platforms.config import DeviceConfig


class ExecutionHarnessBase:
    """The cell steps and the result cache they share."""

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

    def compile_cell(
        self,
        program: ast.Program,
        config: Optional["DeviceConfig"],
        optimisations: bool,
        pipeline: Optional[Pipeline] = None,
    ) -> Union[CompiledKernel, Outcome]:
        """Build one cell: the compiled kernel, or the outcome of a build
        that failed.  ``pipeline`` replaces the default optimisation
        schedule (pass bisection)."""
        try:
            return CompilerDriver(config).compile(
                program, optimisations=optimisations, pipeline=pipeline
            )
        except (BuildFailure, KernelRuntimeError) as error:
            return classify_exception(error)

    def execute_cell(
        self, built: Union[CompiledKernel, Outcome]
    ) -> Tuple[Outcome, Optional[KernelResult]]:
        """Run a :meth:`compile_cell` result: its outcome and, for a run
        that terminated with a value, the result.  A failed build is
        returned as it is, with no cache lookup."""
        if isinstance(built, Outcome):
            return built, None
        from repro.orchestration.cache import cached_run

        try:
            result = cached_run(self.cache, built, self.max_steps, self.engine)
        except (BuildFailure, KernelRuntimeError) as error:
            return classify_exception(error), None
        return Outcome.PASS, result

    def run_cell(
        self,
        program: ast.Program,
        config: Optional["DeviceConfig"],
        optimisations: bool,
        pipeline: Optional[Pipeline] = None,
    ) -> Tuple[Outcome, Optional[KernelResult]]:
        """Build and run one cell (:meth:`compile_cell`, then
        :meth:`execute_cell`)."""
        return self.execute_cell(
            self.compile_cell(program, config, optimisations, pipeline)
        )


__all__ = ["ExecutionHarnessBase"]
