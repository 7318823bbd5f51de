"""Tests for device configurations, bug models, calibration and the driver."""

from collections import Counter

import pytest

from repro.compiler import compile_program
from repro.compiler.driver import CompilerDriver
from repro.kernel_lang import ast, types as ty
from repro.platforms import (
    DeviceType,
    all_configurations,
    configurations_above_threshold,
    get_configuration,
)
from repro.platforms.bugmodels import (
    AlteraVectorInStructBug,
    AmdCharFirstStructBug,
    IntelBarrierFwdDeclCrash,
    IntelRotateConstFoldBug,
    IntelUnreachableLoopBarrierBug,
    NvidiaUnionInitBug,
    OclgrindCommaBug,
)
from repro.platforms.calibration import (
    DEFECT_PROFILES,
    StochasticDefectModel,
    defect_models_for,
    program_fingerprint,
)
from repro.runtime.errors import BuildFailure, CompileTimeout
from repro.testing.figures import figure_program


# ---------------------------------------------------------------------------
# Registry / Table 1 metadata
# ---------------------------------------------------------------------------


def test_registry_has_21_configurations_in_id_order():
    configs = all_configurations()
    assert [c.config_id for c in configs] == list(range(1, 22))


def test_above_threshold_set_matches_table1():
    above = {c.config_id for c in configurations_above_threshold()}
    assert above == {1, 2, 3, 4, 9, 12, 13, 14, 15, 19}


def test_device_type_distribution_matches_table1():
    configs = all_configurations()
    gpus = [c for c in configs if c.device_type is DeviceType.GPU]
    cpus = [c for c in configs if c.device_type is DeviceType.CPU]
    assert len(gpus) == 11 and len(cpus) == 6
    assert get_configuration(18).device_type is DeviceType.ACCELERATOR
    assert get_configuration(21).device_type is DeviceType.FPGA


def test_every_configuration_has_calibration_and_table_row():
    for config in all_configurations():
        assert config.config_id in DEFECT_PROFILES
        assert any(name.startswith("calibrated") for name in config.bug_model_names())
        row = config.table_row()
        assert row["conf"] == str(config.config_id)
        assert row["type"] in {"GPU", "CPU", "Accelerator", "Emulator", "FPGA"}


def test_oclgrind_does_not_optimise():
    assert get_configuration(19).run_optimiser is False
    assert get_configuration(1).run_optimiser is True


# ---------------------------------------------------------------------------
# Individual bug models (pattern matching)
# ---------------------------------------------------------------------------


def test_amd_struct_bug_matches_figure_1a_only():
    bug = AmdCharFirstStructBug()
    config = get_configuration(5)
    assert bug.triggers(figure_program("1a"), True, config)
    assert not bug.triggers(figure_program("1a"), False, config)  # opts required
    assert not bug.triggers(figure_program("2b"), True, config)


def test_nvidia_union_bug_matches_figure_2a_only():
    bug = NvidiaUnionInitBug()
    config = get_configuration(1)
    assert bug.triggers(figure_program("2a"), False, config)
    assert not bug.triggers(figure_program("2a"), True, config)
    assert not bug.triggers(figure_program("1a"), False, config)


def test_rotate_bug_requires_literal_arguments():
    bug = IntelRotateConstFoldBug()
    config = get_configuration(14)
    assert bug.triggers(figure_program("2b"), True, config)
    non_literal = figure_program("2b")
    # Replace a literal argument by a variable reference: no longer foldable.
    call = next(n for n in non_literal.kernel().body.walk() if isinstance(n, ast.Call))
    call.args[1] = ast.VarRef("out")
    assert not bug.triggers(non_literal, True, config)


def test_altera_bug_is_a_front_end_internal_error():
    bug = AlteraVectorInStructBug()
    config = get_configuration(20)
    assert bug.stage == "frontend"
    with pytest.raises(BuildFailure) as err:
        bug.raise_failure(figure_program("1c"), True, config)
    assert err.value.internal


def test_oclgrind_comma_bug_sets_execution_flag():
    bug = OclgrindCommaBug()
    config = get_configuration(19)
    program = figure_program("2f")
    assert bug.triggers(program, False, config)
    _, flags = bug.apply(program, False, config)
    assert flags == {"comma_yields_zero": True}


def test_named_model_verdicts_are_decided_once_per_program_and_class(monkeypatch):
    """Configurations 14 and 15 share two named model classes.  Compiling
    one program at both levels on both asks each shared model's ``matches``
    once per program object, though every compile asks ``triggers`` from
    the front-end and the bug-model stage alike: the verdict is memoised on
    the program, keyed by model class."""
    shared = (IntelBarrierFwdDeclCrash, IntelUnreachableLoopBarrierBug)
    calls = Counter()
    asked = []  # keeps every program alive, so no id() is reused
    for cls in shared:
        def counted(self, program, cls=cls, original=cls.matches):
            asked.append(program)
            calls[(cls, id(program))] += 1
            return original(self, program)

        monkeypatch.setattr(cls, "matches", counted)
    program = figure_program("2d")
    for config_id in (14, 15):
        driver = CompilerDriver(get_configuration(config_id))
        for optimisations in (False, True):
            try:
                driver.compile(program, optimisations=optimisations)
            except (BuildFailure, CompileTimeout):
                pass
    assert {(cls, id(program)) for cls in shared} <= set(calls)
    assert set(calls.values()) == {1}

    # Two classes never share a verdict: the rotate model's memoised True
    # must not answer for the crash model on the same program object.
    config = get_configuration(14)
    rotate, crash = IntelRotateConstFoldBug(), IntelBarrierFwdDeclCrash()
    exemplar = figure_program("2b")
    assert rotate.triggers(exemplar, True, config)
    assert not crash.triggers(exemplar, False, config)
    assert rotate.triggers(exemplar, False, config)


def test_a_clone_decides_its_named_model_verdicts_afresh():
    """An edited clone must not inherit its original's verdict: here the
    edit removes the literal arguments the rotate model keys on."""
    bug = IntelRotateConstFoldBug()
    config = get_configuration(14)
    program = figure_program("2b")
    assert bug.triggers(program, True, config)
    edited = program.clone()
    call = next(n for n in edited.kernel().body.walk() if isinstance(n, ast.Call))
    call.args[1] = ast.VarRef("out")
    assert not bug.triggers(edited, True, config)
    assert bug.triggers(program, True, config)


# ---------------------------------------------------------------------------
# Calibrated stochastic defects
# ---------------------------------------------------------------------------


def _plain_kernel(seed: int = 0):
    from repro.generator import Mode, generate_kernel

    return generate_kernel(Mode.BASIC, seed=seed)


def test_fingerprint_is_stable_and_content_sensitive():
    a, b = _plain_kernel(1), _plain_kernel(1)
    assert program_fingerprint(a) == program_fingerprint(b)
    assert program_fingerprint(a) != program_fingerprint(_plain_kernel(2))


def test_stochastic_defects_are_deterministic_per_program():
    model, _ = defect_models_for(9)
    program = _plain_kernel(3)
    first = model.apply(program, True, None)
    second = model.apply(program, True, None)
    assert first[1] == second[1]
    assert program_fingerprint(first[0]) == program_fingerprint(second[0])


def test_stochastic_wrong_code_rate_is_roughly_calibrated():
    """Configuration 9's wrong-code rate (~2 %) must be visible at scale but
    configuration 1's (~0.3 %) must stay small -- shape, not exact numbers."""
    model9, _ = defect_models_for(9)
    model1, _ = defect_models_for(1)
    n = 120
    miscompiled9 = miscompiled1 = 0
    for seed in range(n):
        program = _plain_kernel(seed)
        transformed9, flags9 = model9.apply(program, True, None)
        if not flags9 and program_fingerprint(transformed9) != program_fingerprint(program):
            miscompiled9 += 1
        transformed1, flags1 = model1.apply(program, True, None)
        if not flags1 and program_fingerprint(transformed1) != program_fingerprint(program):
            miscompiled1 += 1
    assert miscompiled9 >= 1
    assert miscompiled1 <= miscompiled9


def test_defect_priority_build_failure_first():
    model, shim = defect_models_for(21)  # Altera FPGA: very high bf rate
    failures = 0
    for seed in range(30):
        try:
            shim.model.check_build(_plain_kernel(seed), True)
        except BuildFailure:
            failures += 1
    assert failures >= 5


# ---------------------------------------------------------------------------
# Driver integration
# ---------------------------------------------------------------------------


def test_reference_compiler_has_no_defects():
    program = figure_program("1a")
    compiled = compile_program(program)
    assert compiled.config_name == "reference"
    assert compiled.execution_flags == {}
    assert compiled.run().outputs["out"][0] == 2


def test_driver_applies_configuration_defects():
    program = figure_program("1a")
    compiled = compile_program(program, config=get_configuration(5), optimisations=True)
    assert compiled.run().outputs["out"][0] == 1


def test_driver_front_end_rejection_and_compile_timeout():
    with pytest.raises(BuildFailure):
        compile_program(figure_program("1c"), config=get_configuration(20))
    with pytest.raises(CompileTimeout):
        compile_program(figure_program("1e"), config=get_configuration(7))


def test_named_bugs_dominate_stochastic_defects():
    """A program matching a named bug model never additionally draws a
    stochastic crash/timeout for the same configuration (reduced exemplars
    exhibit their specific bug, as in the paper's reports)."""
    program = figure_program("2c")
    compiled = compile_program(program, config=get_configuration(12), optimisations=False)
    assert "force_runtime_crash" not in compiled.execution_flags
    assert compiled.run().outputs["out"] == [0, 0]


def test_compiled_kernel_runs_with_validation_failure_reported_as_build_failure():
    kernel = ast.FunctionDecl(
        "entry", ty.VOID, [ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))],
        ast.Block([ast.out_write(ast.VarRef("missing"))]), is_kernel=True,
    )
    bad = ast.Program(functions=[kernel],
                      buffers=[ast.BufferSpec("out", ty.ULONG, 1, is_output=True)],
                      launch=ast.LaunchSpec((1, 1, 1), (1, 1, 1)))
    with pytest.raises(BuildFailure):
        CompilerDriver(None).compile(bad)
