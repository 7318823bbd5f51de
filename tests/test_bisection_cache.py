"""One result cache per bisection.

``attribute_culprit`` and ``bisect_bug_models`` rebuild the reduction's
predicate for every probe.  Called without a cache (``examples/bug_gallery.py
--triage``, ``repro-triage``'s re-bisection), they make one fresh result
cache for the whole attribution and run every probe through it, so a run two
probes share -- the reference cell, above all -- executes once instead of
once per probe.  The probes, their count and the culprits are unchanged.
"""

from repro.platforms import get_configuration
from repro.reduction import MismatchPredicate, PredicateSpec
from repro.runtime.device import Device
from repro.testing.figures import FIGURE_EXPECTATIONS
from repro.triage import attribute_culprit

#: Each figure's Table 1 culprit, as ``<defect class>@<model name>``.
_LABELS = [
    "wrong-code@amd-char-first-struct",
    "wrong-code@anon-struct-copy",
    "build-failure@altera-vector-in-struct",
    "wrong-code@anon-cpu-barrier-struct",
    "timeout@intel-gpu-compile-hang",
    "timeout@xeonphi-slow-compile",
    "wrong-code@nvidia-union-init",
    "wrong-code@intel-rotate-constfold",
    "wrong-code@intel-barrier-fwddecl-miscompile",
    "wrong-code@intel-dead-loop-barrier",
    "wrong-code@anon-gpu-groupid-guard",
    "wrong-code@oclgrind-comma",
]


def test_gallery_bisection_without_a_cache_runs_each_shared_cell_once(monkeypatch):
    runs = []
    run = Device.run

    def counting(device, program):
        runs.append(program)
        return run(device, program)

    monkeypatch.setattr(Device, "run", counting)
    labels, steps = [], 0
    for expectation in FIGURE_EXPECTATIONS:
        config_id, optimisations = expectation.affected[0]
        optimisations = True if optimisations is None else optimisations
        program = expectation.builder()
        config = get_configuration(config_id)
        predicate = MismatchPredicate.from_program(program, config, optimisations)
        spec = PredicateSpec(
            kind="mismatch",
            signature=((predicate.target_label, predicate.expected_class),),
            expected_class=predicate.expected_class,
            target_index=0,
            target_optimisations=optimisations,
        )
        verdict = attribute_culprit(
            program, spec, [config], optimisation_levels=(optimisations,)
        )
        labels.append(verdict.label)
        steps += verdict.steps
    assert labels == _LABELS
    assert steps == 53
    # With a fresh cache per probe, as before, this took 104 device runs.
    assert len(runs) == 42
