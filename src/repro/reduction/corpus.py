"""Synthetic defect configurations for exercising the reducer at scale.

Validating a reducer needs kernels whose defect is *known by construction*:
real Table 1 bug models fire only on matching syntactic patterns, so a seeded
corpus built on them would be sparse and fragile.  The configurations here
inject deterministic always-on defects of each Outcome class, mirroring how
the CLsmith/Csmith projects validate their own reducers against planted
bugs:

* :func:`wrong_code_config` -- a miscompiler that XORs every store to the
  result buffer with 1 (a silently wrong value on every kernel that reports
  a result; the reproducer must keep a live ``out`` store, which is exactly
  the non-trivial core of a wrong-code reduction);
* :func:`crash_config` / :func:`timeout_config` -- compilers whose output
  crashes / hangs at launch (the reproducer can shrink to a near-empty
  kernel, the paper's crash/timeout triage shape);
* :func:`emi_parity_config` -- a miscompiler keyed on the *parity of the
  statement count inside EMI blocks*, so pruned variants of one base
  disagree with each other (the Table 5 "induces wrong code" shape);
* :func:`clean_config` -- a defect-free configuration used to fill majority
  votes in differential set-ups.

All are plain :class:`~repro.platforms.config.DeviceConfig` objects built
from module-level bug-model classes, so they pickle across worker processes
and ship through ``config_overrides`` like any other unregistered
configuration.  Config ids start at 900 to stay clear of Table 1.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.compiler import analysis
from repro.emi.pruning import count_emi_statements
from repro.generator import generate_kernel
from repro.generator.options import GeneratorOptions, Mode
from repro.kernel_lang import ast
from repro.platforms.bugmodels import EXECUTION, MISCOMPILE, BugModel, Flags
from repro.platforms.config import DeviceConfig, DeviceType


def _result_buffer_name(program: ast.Program) -> Optional[str]:
    outputs = program.output_buffers()
    return outputs[0].name if outputs else None


class XorOutStoreBug(BugModel):
    """Miscompile every store to the result buffer: ``out[i] = e ^ 1``."""

    name = "synthetic-xor-out-store"
    description = "flips the low bit of every result-buffer store"
    stage = MISCOMPILE

    def matches(self, program):
        out_name = _result_buffer_name(program)
        if out_name is None:
            return False
        # AssignStmt only: apply()'s statement rewriter is what flips the
        # store, so matches() must not claim expression-position assignments
        # it would leave untouched.
        return any(
            isinstance(node.target, ast.IndexAccess)
            and isinstance(node.target.base, ast.VarRef)
            and node.target.base.name == out_name
            for node in analysis.nodes(program, ast.AssignStmt)
        )

    def apply(self, program, optimisations, config) -> Tuple[ast.Program, Flags]:
        from repro.compiler import rewrite

        out_name = _result_buffer_name(program)

        def flip(stmt: ast.Stmt):
            if (
                isinstance(stmt, ast.AssignStmt)
                and isinstance(stmt.target, ast.IndexAccess)
                and isinstance(stmt.target.base, ast.VarRef)
                and stmt.target.base.name == out_name
            ):
                return [
                    ast.AssignStmt(
                        stmt.target,
                        ast.BinaryOp("^", stmt.value, ast.IntLiteral(1)),
                        stmt.op,
                    )
                ]
            return None

        return rewrite.rewrite_program(program, stmt_fn=flip), {}


class AlwaysCrashBug(BugModel):
    """Every compiled kernel segfaults at launch."""

    name = "synthetic-always-crash"
    description = "kernel launch crashes unconditionally"
    stage = EXECUTION

    def matches(self, program):
        return True

    def apply(self, program, optimisations, config):
        return program, {"force_runtime_crash": True}


class AlwaysTimeoutBug(BugModel):
    """Every compiled kernel exceeds the execution budget."""

    name = "synthetic-always-timeout"
    description = "kernel execution never terminates in budget"
    stage = EXECUTION

    def matches(self, program):
        return True

    def apply(self, program, optimisations, config):
        return program, {"force_timeout": True}


class EmiParityBug(BugModel):
    """Miscompile kernels whose EMI blocks hold an odd statement count.

    Pruned variants of one base change the EMI statement count, so a family
    mixes correct and miscompiled members -- the harness then observes
    variants that terminate with different values (``w`` in Table 5).
    """

    name = "synthetic-emi-parity"
    description = "flips result stores when EMI statement count is odd"
    stage = MISCOMPILE

    def matches(self, program):
        if count_emi_statements(program) % 2 != 1:
            return False
        return XorOutStoreBug().matches(program)

    def apply(self, program, optimisations, config):
        return XorOutStoreBug().apply(program, optimisations, config)


def _config(config_id: int, device: str, bugs: List[BugModel]) -> DeviceConfig:
    return DeviceConfig(
        config_id=config_id,
        sdk="Synthetic SDK",
        device=device,
        driver="0.0",
        opencl_version="1.2",
        operating_system="simulated",
        device_type=DeviceType.EMULATOR,
        expected_above_threshold=True,
        bug_models=list(bugs),
        notes="synthetic defect configuration for reducer validation",
    )


def wrong_code_config(config_id: int = 901) -> DeviceConfig:
    return _config(config_id, "Synthetic WrongCode Device", [XorOutStoreBug()])


def crash_config(config_id: int = 902) -> DeviceConfig:
    return _config(config_id, "Synthetic Crash Device", [AlwaysCrashBug()])


def timeout_config(config_id: int = 903) -> DeviceConfig:
    return _config(config_id, "Synthetic Timeout Device", [AlwaysTimeoutBug()])


def emi_parity_config(config_id: int = 904) -> DeviceConfig:
    return _config(config_id, "Synthetic EMI-Parity Device", [EmiParityBug()])


def clean_config(config_id: int = 910) -> DeviceConfig:
    return _config(config_id, f"Synthetic Clean Device {config_id}", [])


#: (outcome code, configuration factory) for the three reducible classes.
CORPUS_CLASSES = (
    ("w", wrong_code_config),
    ("c", crash_config),
    ("to", timeout_config),
)


def seeded_corpus(
    per_class: int = 7,
    modes: Tuple[Mode, ...] = (Mode.BASIC, Mode.VECTOR),
    options: Optional[GeneratorOptions] = None,
    seed: int = 0,
) -> List[Tuple[ast.Program, DeviceConfig, str]]:
    """A deterministic corpus of (kernel, buggy configuration, class) triples.

    Every entry's anomaly is guaranteed by construction: the configuration's
    defect fires on every generated kernel, so the triple is reducible with a
    :class:`~repro.reduction.interestingness.MismatchPredicate` expecting the
    given class.
    """
    corpus: List[Tuple[ast.Program, DeviceConfig, str]] = []
    for class_index, (code, factory) in enumerate(CORPUS_CLASSES):
        config = factory()
        for i in range(per_class):
            mode = modes[i % len(modes)]
            kernel_seed = seed + class_index * 1000 + i
            program = generate_kernel(mode, kernel_seed, options=options)
            corpus.append((program, config, code))
    return corpus


__all__ = [
    "XorOutStoreBug",
    "AlwaysCrashBug",
    "AlwaysTimeoutBug",
    "EmiParityBug",
    "wrong_code_config",
    "crash_config",
    "timeout_config",
    "emi_parity_config",
    "clean_config",
    "CORPUS_CLASSES",
    "seeded_corpus",
]
