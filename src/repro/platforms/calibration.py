"""Calibrated stochastic defect models.

The semantic bug models of :mod:`repro.platforms.bugmodels` reproduce the
*named* bugs of Figures 1 and 2.  The bulk statistics of the paper's Tables
3-5 (wrong-code percentages, build-failure/crash/timeout counts per
configuration and mode) additionally reflect many unreduced defects that the
authors did not analyse individually.  This module models that residue: each
configuration carries a :class:`DefectProfile` of per-outcome rates, with
multipliers keyed on the program features the paper identifies as relevant
(vectors, barriers, atomics, structs).

Triggering is *deterministic*: a defect fires iff a hash of the program
fingerprint, the configuration id, the optimisation setting and the defect
kind falls below the configured rate.  This keeps every campaign reproducible
while still behaving statistically like the paper's hardware.  Wrong-code
defects are applied as a genuine program transformation (the final result
store is perturbed by a hash-derived constant), so differential and EMI
detection operate through execution exactly as for the semantic models.

The rates below were set from Table 4 of the paper (per-configuration w%,
and build-failure / crash / timeout counts out of ~10 000 tests) and from the
initial-classification discussion in sections 6 and 7.1 for the
below-threshold configurations.  They are inputs to the simulation, not
measurements of it.  REDUCTION.md ("Calibrated residue is irreducible by
construction") explains why these defects do not reduce.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.compiler import analysis, rewrite
from repro.kernel_lang import ast, printer, types as ty
from repro.platforms.bugmodels import BugModel, Flags, MISCOMPILE
from repro.runtime.errors import BuildFailure, CompileTimeout


def hash_host_setup(h, program: ast.Program) -> None:
    """Feed the host-side setup (buffers, NDRange, scalar args) into ``h``.

    The single definition of "what besides the source decides an
    execution": :func:`program_fingerprint` (result caches, defect keying)
    and the triage bucketing fingerprint (:mod:`repro.triage.bucketing`)
    both hash it, so a new semantic field on ``BufferSpec``/``LaunchSpec``
    only needs adding here to reach every consumer.
    """
    for spec in program.buffers:
        h.update(
            f"{spec.name}:{spec.element_type.spelling()}:{spec.size}:"
            f"{spec.address_space}:{spec.init}:{spec.is_output};".encode()
        )
    h.update(str(program.launch.global_size).encode())
    h.update(str(program.launch.local_size).encode())
    h.update(str(sorted(program.metadata.get("scalar_args", {}).items())).encode())


def program_fingerprint(program: ast.Program) -> str:
    """A stable fingerprint of a program *and its host-side setup*.

    The printed kernel source alone is not enough: two programs can share
    their source but differ in buffer initialisation (e.g. the EMI dead-array
    inversion of section 7.4) and must not be conflated by result caches or
    defect keying.  Computed once per program object
    (:meth:`~repro.kernel_lang.ast.Program.memoised`).
    """
    return program.memoised("fingerprint", lambda: _print_and_hash(program))


def _print_and_hash(program: ast.Program) -> str:
    h = hashlib.sha256()
    h.update(printer.print_program(program).encode())
    hash_host_setup(h, program)
    return h.hexdigest()


def execution_cache_key(
    program: ast.Program,
    execution_flags: Dict[str, bool],
    max_steps: int,
    engine: str = "reference",
) -> Tuple[str, Tuple[Tuple[str, bool], ...], int, str]:
    """Cache key for the execution result of a *compiled* program.

    Execution is fully determined by the post-compilation program, the defect
    flags the bug models attached to it, the step budget (which decides
    whether a long-running kernel passes or times out) and the execution
    engine, so (:func:`program_fingerprint`, sorted flags, ``max_steps``,
    ``engine``) keys the shared result caches of the differential and EMI
    harnesses (see :mod:`repro.orchestration.cache`).  Including the budget
    matters because one cache may serve harnesses with different
    ``max_steps``; including the engine keeps engine-vs-engine differential
    runs honest -- a shared cache must never satisfy a ``"compiled"`` lookup
    with a ``"reference"`` execution (or vice versa), even though the two
    are property-tested to agree.
    """
    return (
        program_fingerprint(program),
        tuple(sorted(execution_flags.items())),
        max_steps,
        engine,
    )


def _uniform(fingerprint: str, *salt: object) -> float:
    """Deterministic pseudo-uniform draw in [0, 1) keyed on program + salt."""
    h = hashlib.sha256()
    h.update(fingerprint.encode())
    for s in salt:
        h.update(str(s).encode())
        h.update(b"|")
    return int.from_bytes(h.digest()[:8], "big") / float(1 << 64)


@dataclass
class OutcomeRates:
    """Defect rates for one optimisation setting of one configuration."""

    wrong_code: float = 0.0
    build_failure: float = 0.0
    runtime_crash: float = 0.0
    timeout: float = 0.0
    #: Multipliers applied to ``wrong_code`` / ``runtime_crash`` /
    #: ``build_failure`` when the program uses the given feature.
    vector_factor: float = 1.0
    barrier_factor: float = 1.0
    atomic_factor: float = 1.0
    struct_factor: float = 1.0
    #: Multiplier applied to the *crash* rate (only) for barrier-using
    #: programs; Table 4 shows configurations 14- and 15- crashing massively
    #: more often on the barrier-heavy modes.
    crash_barrier_factor: float = 1.0

    def feature_multiplier(self, program: ast.Program) -> float:
        m = 1.0
        if analysis.uses_vectors(program):
            m *= self.vector_factor
        if analysis.uses_barriers(program):
            m *= self.barrier_factor
        if analysis.uses_atomics(program):
            m *= self.atomic_factor
        if analysis.uses_structs(program):
            m *= self.struct_factor
        return m


@dataclass
class DefectProfile:
    """Per-configuration stochastic defect rates (opt- and opt+)."""

    opt_off: OutcomeRates = field(default_factory=OutcomeRates)
    opt_on: OutcomeRates = field(default_factory=OutcomeRates)
    #: Message used for stochastic build failures (vendor flavour).
    build_failure_message: str = "internal error during kernel build"
    #: When True, wrong-code defects key on the EMI *base* fingerprint (if the
    #: program records one), so all EMI variants of a base miscompile
    #: identically and EMI testing cannot observe a mismatch.  This models
    #: configurations whose miscompilations are not optimisation-sensitive:
    #: the paper found EMI ineffective on configuration 9 and on Oclgrind
    #: despite their high differential-testing wrong-code rates (section 7.4).
    stable_wrong_code: bool = False

    def rates(self, optimisations: bool) -> OutcomeRates:
        return self.opt_on if optimisations else self.opt_off


class StochasticDefectModel(BugModel):
    """A bug model driven by a :class:`DefectProfile`.

    The model decides, per program, which (if any) defect class fires, in the
    priority order build-failure > timeout > crash > wrong-code (a program
    that fails to build can exhibit nothing else).
    """

    stage = MISCOMPILE
    name = "calibrated-defects"
    description = "stochastic defects calibrated against Tables 3-5"

    def __init__(self, profile: DefectProfile, config_id: int) -> None:
        self.profile = profile
        self.config_id = config_id

    # The stochastic model participates in both the front-end stage (build
    # failures) and the miscompile stage; the driver calls ``frontend_check``
    # for every bug model with ``stage == "frontend"`` only, so the
    # DeviceConfig wires an auxiliary front-end shim (see registry).

    def triggers(self, program: ast.Program, optimisations: bool, config) -> bool:
        # Always considered; ``apply`` rolls per configuration and level.
        return True

    def apply(
        self, program: ast.Program, optimisations: bool, config
    ) -> Tuple[ast.Program, Flags]:
        rates = self.profile.rates(optimisations)
        fingerprint = program_fingerprint(program)
        multiplier = rates.feature_multiplier(program)
        wrong_key = fingerprint
        if self.profile.stable_wrong_code:
            wrong_key = str(program.metadata.get("emi_base_fingerprint", fingerprint))

        crash_rate = rates.runtime_crash
        if analysis.uses_barriers(program):
            crash_rate *= rates.crash_barrier_factor

        if self._fires(fingerprint, optimisations, "timeout", rates.timeout):
            return program, {"force_timeout": True}
        if self._fires(fingerprint, optimisations, "crash", crash_rate):
            return program, {"force_runtime_crash": True}
        if self._fires(
            wrong_key, optimisations, "wrong", rates.wrong_code * multiplier
        ):
            return self._miscompile(program, wrong_key), {}
        return program, {}

    def check_build(self, program: ast.Program, optimisations: bool) -> None:
        """Raise BuildFailure if the stochastic build-failure defect fires."""
        rates = self.profile.rates(optimisations)
        fingerprint = program_fingerprint(program)
        rate = rates.build_failure
        if analysis.uses_barriers(program):
            rate *= rates.barrier_factor
        if analysis.uses_vectors(program):
            rate *= rates.vector_factor
        if self._fires(fingerprint, optimisations, "build", min(rate, 1.0)):
            raise BuildFailure(self.profile.build_failure_message)

    # ------------------------------------------------------------------

    def _fires(self, fingerprint: str, optimisations: bool, kind: str, rate: float) -> bool:
        if rate <= 0.0:
            return False
        return _uniform(fingerprint, self.config_id, optimisations, kind) < min(rate, 1.0)

    def _miscompile(self, program: ast.Program, fingerprint: str) -> ast.Program:
        """Perturb the kernel's result store by a hash-derived constant."""
        delta = (int(fingerprint[:8], 16) % 0xFFFF) + 1
        state = {"done": False}

        def stmt_fn(stmt: ast.Stmt):
            if state["done"]:
                return None
            if (
                isinstance(stmt, ast.AssignStmt)
                and isinstance(stmt.target, ast.IndexAccess)
                and isinstance(stmt.target.base, ast.VarRef)
                and stmt.target.base.name == "out"
            ):
                state["done"] = True
                return [
                    ast.AssignStmt(
                        stmt.target,
                        ast.BinaryOp("^", stmt.value, ast.IntLiteral(delta, ty.ULONG)),
                        stmt.op,
                    )
                ]
            return None

        # A kernel with no ``out[...]`` store gets no observable miscompile.
        return rewrite.rewrite_program(program, stmt_fn=stmt_fn)


class StochasticBuildFailureShim(BugModel):
    """Front-end adapter exposing the stochastic build-failure channel."""

    stage = "frontend"
    name = "calibrated-build-failures"
    description = "stochastic build failures calibrated against Table 4"

    def __init__(self, model: StochasticDefectModel) -> None:
        self.model = model

    def triggers(self, program: ast.Program, optimisations: bool, config) -> bool:
        # The roll depends on the level and the configuration's profile, not
        # on the program alone, so it is never memoised on the program.
        try:
            self.model.check_build(program, optimisations)
        except BuildFailure:
            return True
        return False

    def raise_failure(self, program: ast.Program, optimisations: bool, config) -> None:
        self.model.check_build(program, optimisations)
        raise BuildFailure(self.model.profile.build_failure_message)  # pragma: no cover


# ---------------------------------------------------------------------------
# Calibration table
# ---------------------------------------------------------------------------

#: Defect profiles per configuration id.  Rates are fractions of tests.
#: They approximate Table 4 (above-threshold configurations) and the
#: initial-classification failure rates of section 7.1 (below-threshold
#: configurations; these must exceed 25 % in aggregate).
DEFECT_PROFILES: Dict[int, DefectProfile] = {
    # NVIDIA GPUs (1-4): low wrong-code rate, slightly higher with opts on;
    # build failures ~4 % with opts off only (fixed in driver 346.47 -> 3, 4
    # get a lower rate); few crashes.
    1: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.0012, build_failure=0.039, runtime_crash=0.04,
                             timeout=0.02),
        opt_on=OutcomeRates(wrong_code=0.0028, build_failure=0.004, runtime_crash=0.055,
                            timeout=0.001),
        build_failure_message="Wrong type for attribute zeroext",
    ),
    2: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.0012, build_failure=0.039, runtime_crash=0.042,
                             timeout=0.02),
        opt_on=OutcomeRates(wrong_code=0.0028, build_failure=0.004, runtime_crash=0.056,
                            timeout=0.001),
        build_failure_message="Wrong type for attribute signext",
    ),
    3: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.0013, build_failure=0.039, runtime_crash=0.06,
                             timeout=0.0),
        opt_on=OutcomeRates(wrong_code=0.003, build_failure=0.004, runtime_crash=0.055,
                            timeout=0.0),
        build_failure_message="Attributes after last parameter!",
    ),
    4: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.0013, build_failure=0.039, runtime_crash=0.058,
                             timeout=0.0),
        opt_on=OutcomeRates(wrong_code=0.0027, build_failure=0.004, runtime_crash=0.054,
                            timeout=0.0),
        build_failure_message="Attributes after last parameter!",
    ),
    # AMD GPUs (5, 6): below threshold -- frequent machine crashes and
    # struct-related wrong code (the char-first bug covers the semantics;
    # the residue is modelled as crashes).
    5: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.05, build_failure=0.04, runtime_crash=0.22,
                             timeout=0.02, struct_factor=2.0),
        opt_on=OutcomeRates(wrong_code=0.12, build_failure=0.05, runtime_crash=0.22,
                            timeout=0.02, struct_factor=2.0),
        build_failure_message="internal error: unsupported irreducible control flow",
    ),
    6: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.05, build_failure=0.04, runtime_crash=0.24,
                             timeout=0.02, struct_factor=2.0),
        opt_on=OutcomeRates(wrong_code=0.12, build_failure=0.05, runtime_crash=0.24,
                            timeout=0.02, struct_factor=2.0),
        build_failure_message="internal error: unsupported irreducible control flow",
    ),
    # Intel GPUs (7, 8): below threshold -- machine crashes and compile hangs.
    7: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.06, build_failure=0.05, runtime_crash=0.25,
                             timeout=0.08, struct_factor=1.6),
        opt_on=OutcomeRates(wrong_code=0.07, build_failure=0.05, runtime_crash=0.25,
                            timeout=0.08, struct_factor=1.6),
        build_failure_message="fcl build failed: internal error",
    ),
    8: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.06, build_failure=0.05, runtime_crash=0.26,
                             timeout=0.1, struct_factor=1.6),
        opt_on=OutcomeRates(wrong_code=0.07, build_failure=0.05, runtime_crash=0.26,
                            timeout=0.1, struct_factor=1.6),
        build_failure_message="fcl build failed: internal error",
    ),
    # Anonymous GPU, newest driver (9): above threshold, but a consistently
    # high wrong-code rate (~1.6-2.3 %) and many timeouts; no build failures
    # (the vendor fuzzes for those in-house, section 7.3).
    9: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.019, build_failure=0.0, runtime_crash=0.04,
                             timeout=0.13),
        opt_on=OutcomeRates(wrong_code=0.017, build_failure=0.0, runtime_crash=0.027,
                            timeout=0.1),
        stable_wrong_code=True,
    ),
    # Anonymous GPU, older drivers (10, 11): below threshold -- struct copy
    # miscompilation plus a high residual wrong-code/crash rate.
    10: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.22, build_failure=0.03, runtime_crash=0.1,
                             timeout=0.05, struct_factor=1.5),
        opt_on=OutcomeRates(wrong_code=0.18, build_failure=0.03, runtime_crash=0.1,
                            timeout=0.05, struct_factor=1.5),
    ),
    11: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.24, build_failure=0.03, runtime_crash=0.1,
                             timeout=0.05, struct_factor=1.5),
        opt_on=OutcomeRates(wrong_code=0.2, build_failure=0.03, runtime_crash=0.1,
                            timeout=0.05, struct_factor=1.5),
    ),
    # Intel i7 CPUs (12, 13): wrong code mostly with opts OFF and barriers
    # (Figure 2(c)/(d) class); build failures in vectorizer passes with opts on.
    12: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.002, build_failure=0.001, runtime_crash=0.085,
                             timeout=0.028, barrier_factor=9.0),
        opt_on=OutcomeRates(wrong_code=0.0012, build_failure=0.005, runtime_crash=0.06,
                            timeout=0.14, barrier_factor=2.0),
        build_failure_message="Both operands to ICmp instruction are not of the same type!",
    ),
    13: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.002, build_failure=0.001, runtime_crash=0.085,
                             timeout=0.029, barrier_factor=9.0),
        opt_on=OutcomeRates(wrong_code=0.0012, build_failure=0.005, runtime_crash=0.06,
                            timeout=0.14, barrier_factor=2.0),
        build_failure_message="Call parameter type does not match function signature!",
    ),
    # Intel i5 CPU (14): wrong code mostly with opts ON; very high crash rate
    # for barrier-heavy kernels with opts off.
    14: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.002, build_failure=0.004, runtime_crash=0.01,
                             timeout=0.028, barrier_factor=14.0, vector_factor=2.0,
                             crash_barrier_factor=35.0),
        opt_on=OutcomeRates(wrong_code=0.011, build_failure=0.008, runtime_crash=0.03,
                            timeout=0.045, barrier_factor=1.3, vector_factor=1.5),
        build_failure_message="error in Intel OpenCL Vectorizer pass",
    ),
    # Intel Xeon CPU (15): very high build-failure rate (int/size_t rejection)
    # plus barrier-related crashes with opts off.
    15: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.0015, build_failure=0.14, runtime_crash=0.01,
                             timeout=0.015, barrier_factor=14.0, vector_factor=1.8,
                             crash_barrier_factor=38.0),
        opt_on=OutcomeRates(wrong_code=0.009, build_failure=0.14, runtime_crash=0.04,
                            timeout=0.11, barrier_factor=1.5, vector_factor=1.8),
        build_failure_message="invalid operands to binary expression ('int' and 'size_t')",
    ),
    # AMD CPU (16): below threshold (struct bug plus residue).
    16: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.1, build_failure=0.05, runtime_crash=0.15,
                             timeout=0.03, struct_factor=2.0),
        opt_on=OutcomeRates(wrong_code=0.16, build_failure=0.05, runtime_crash=0.15,
                            timeout=0.03, struct_factor=2.0),
    ),
    # Anonymous CPU (17): below threshold (struct+barrier bug plus residue).
    17: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.18, build_failure=0.06, runtime_crash=0.08,
                             timeout=0.03, struct_factor=1.6),
        opt_on=OutcomeRates(wrong_code=0.18, build_failure=0.06, runtime_crash=0.08,
                            timeout=0.03, struct_factor=1.6),
    ),
    # Xeon Phi (18): below threshold because of prohibitively slow compilation
    # (modelled as timeouts) for struct-heavy kernels.
    18: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.01, build_failure=0.04, runtime_crash=0.05,
                             timeout=0.3, struct_factor=1.5),
        opt_on=OutcomeRates(wrong_code=0.01, build_failure=0.04, runtime_crash=0.05,
                            timeout=0.45, struct_factor=1.5),
    ),
    # Oclgrind (19): the comma bug (semantic model) dominates; a small
    # additional vector-related wrong-code rate; no build failures; slow
    # (frequent timeouts); optimisation setting has no effect.
    19: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.012, build_failure=0.0, runtime_crash=0.001,
                             timeout=0.17, vector_factor=3.0),
        opt_on=OutcomeRates(wrong_code=0.012, build_failure=0.0, runtime_crash=0.001,
                            timeout=0.17, vector_factor=3.0),
        stable_wrong_code=True,
    ),
    # Altera emulator (20) and FPGA (21): below threshold -- most kernels
    # crash or produce internal errors (section 6).
    20: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.05, build_failure=0.3, runtime_crash=0.15,
                             timeout=0.05),
        opt_on=OutcomeRates(wrong_code=0.05, build_failure=0.3, runtime_crash=0.15,
                            timeout=0.05),
        build_failure_message="aoc: internal compiler error",
    ),
    21: DefectProfile(
        opt_off=OutcomeRates(wrong_code=0.05, build_failure=0.45, runtime_crash=0.3,
                             timeout=0.05),
        opt_on=OutcomeRates(wrong_code=0.05, build_failure=0.45, runtime_crash=0.3,
                            timeout=0.05),
        build_failure_message="aoc: internal compiler error",
    ),
}


def defect_models_for(config_id: int) -> Tuple[StochasticDefectModel, StochasticBuildFailureShim]:
    """Create the stochastic defect model pair for a configuration."""
    profile = DEFECT_PROFILES.get(config_id, DefectProfile())
    model = StochasticDefectModel(profile, config_id)
    return model, StochasticBuildFailureShim(model)


__all__ = [
    "OutcomeRates",
    "DefectProfile",
    "StochasticDefectModel",
    "StochasticBuildFailureShim",
    "DEFECT_PROFILES",
    "defect_models_for",
    "program_fingerprint",
    "execution_cache_key",
]
