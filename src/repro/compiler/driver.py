"""The compiler driver: front end, optimisation, bug-model application.

``compile_program`` is the single entry point the testing harness uses.  It
mirrors what happens inside a real OpenCL driver's ``clBuildProgram``:

1. front-end validation (may raise :class:`BuildFailure`), including any
   configuration-specific front-end defects (e.g. configuration 15 rejecting
   legal ``int``/``size_t`` arithmetic, paper section 6);
2. optimisation passes, when optimisations are enabled;
3. configuration-specific *bug models* that may transform the program
   (miscompilation), raise a build failure or internal compiler error, or
   mark the compiled kernel with execution defects (runtime crash, hang).

When no configuration is supplied the driver behaves as a conformant,
bug-free compiler -- the reference against which the buggy configurations
differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.compiler.pipeline import OptimisationLevel, Pipeline, default_pipeline
from repro.kernel_lang import ast
from repro.kernel_lang.semantics import ValidationError, validate_program
from repro.runtime.device import Device, KernelResult
from repro.runtime.engine import DEFAULT_ENGINE
from repro.runtime.errors import BuildFailure, ExecutionTimeout, RuntimeCrash
from repro.runtime.scheduler import ScheduleOrder


@dataclass
class CompiledKernel:
    """The result of a successful compilation.

    ``execution_flags`` communicates device-side defects that the bug models
    attribute to this configuration (see :mod:`repro.platforms.bugmodels`):

    ``comma_yields_zero``
        The Oclgrind comma-operator defect (Figure 2(f)).
    ``force_runtime_crash``
        Kernel execution aborts (models driver/OS level crashes, section 6
        "Machine crashes" and the segmentation faults of Figure 2(c)).
    ``force_timeout``
        Kernel execution exceeds the timeout.
    """

    program: ast.Program
    optimisation_level: OptimisationLevel
    config_name: str = "reference"
    execution_flags: Dict[str, bool] = field(default_factory=dict)

    def run(
        self,
        schedule_order: ScheduleOrder = ScheduleOrder.ROUND_ROBIN,
        schedule_seed: int = 0,
        check_races: bool = False,
        max_steps: int = 2_000_000,
        engine: str = DEFAULT_ENGINE,
    ) -> KernelResult:
        """Execute the compiled kernel on the simulated device."""
        if self.execution_flags.get("force_runtime_crash"):
            raise RuntimeCrash(f"kernel crashes on configuration {self.config_name}")
        if self.execution_flags.get("force_timeout"):
            raise ExecutionTimeout()
        device = Device(
            schedule_order=schedule_order,
            schedule_seed=schedule_seed,
            check_races=check_races,
            max_steps=max_steps,
            comma_yields_zero=bool(self.execution_flags.get("comma_yields_zero")),
            engine=engine,
        )
        return device.run(self.program)


class CompilerDriver:
    """Compiles programs for a given device configuration."""

    def __init__(self, config: Optional[object] = None) -> None:
        #: A :class:`repro.platforms.config.DeviceConfig` or None for the
        #: conformant reference compiler.  Typed as ``object`` to avoid a
        #: circular import; the driver only relies on the small protocol
        #: below (``name``, ``frontend_check``, ``apply_bug_models``).
        self.config = config

    def compile(
        self,
        program: ast.Program,
        optimisations: bool = True,
        pipeline: Optional[Pipeline] = None,
    ) -> CompiledKernel:
        """Compile ``program``; raises :class:`BuildFailure` on rejection."""
        level = OptimisationLevel.from_flag(optimisations)
        try:
            validate_program(program)
        except ValidationError as exc:
            raise BuildFailure(str(exc)) from exc

        if self.config is not None:
            self.config.frontend_check(program, optimisations)

        compiled_ast = program
        config_optimises = getattr(self.config, "run_optimiser", True)
        if level is OptimisationLevel.FULL and config_optimises:
            compiled_ast = (pipeline or default_pipeline(level)).run(compiled_ast)

        execution_flags: Dict[str, bool] = {}
        config_name = "reference"
        if self.config is not None:
            config_name = self.config.name
            compiled_ast, execution_flags = self.config.apply_bug_models(
                compiled_ast, optimisations
            )

        return CompiledKernel(
            program=compiled_ast,
            optimisation_level=level,
            config_name=config_name,
            execution_flags=execution_flags,
        )


def compile_program(
    program: ast.Program,
    config: Optional[object] = None,
    optimisations: bool = True,
) -> CompiledKernel:
    """Convenience wrapper around :class:`CompilerDriver`."""
    return CompilerDriver(config).compile(program, optimisations=optimisations)


__all__ = ["CompiledKernel", "CompilerDriver", "compile_program"]
