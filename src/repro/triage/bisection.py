"""Culprit bisection: which component is at fault for a bug bucket?

A deduplicated bucket says *what* fails; bisection says *why*.  The paper's
authors answered this by hand -- re-running each reduced kernel against
driver versions and compiler flags until the defect could be pinned on a
component.  This module mechanises the two attribution axes the simulated
substrate exposes:

* **bug-model injection points** -- every buggy configuration carries an
  ordered list of :class:`~repro.platforms.bugmodels.BugModel` injections.
  :func:`bisect_bug_models` binary-searches the shortest model-list prefix
  whose configuration still reproduces the bucket's failure signature, then
  verifies the boundary model alone suffices.  The probe is the *same*
  interestingness predicate the reduction preserved (rebuilt via
  :func:`~repro.reduction.interestingness.build_predicate` with the target
  configuration's models swapped out), so "reproduces" means exactly what
  it meant during reduction.

* **the optimisation-pass schedule** -- when the anomaly survives with
  every bug model stripped, the shared optimiser itself is at fault.
  :func:`bisect_passes` binary-searches the shortest prefix of the
  :func:`~repro.compiler.pipeline.default_pipeline` schedule that flips the
  reproducer's behaviour against its own unoptimised run (a two-point
  wrong-code check, exactly :class:`~repro.reduction.interestingness.
  MismatchPredicate`'s notion of ``w``), and blames the boundary pass.

Both searches maintain the git-bisect invariant -- the returned culprit ``k``
satisfies *reproduces(prefix k)* and *not reproduces(prefix k-1)* -- so the
result is verified by construction even when reproduction is not monotone
in the prefix length; model bisection additionally checks that the culprit
model fires **alone**, and reports ``verified=False`` (an interaction) when
it does not.

Attribution labels follow the ``<defect class>@<culprit>`` convention the
triage report prints, e.g. ``wrong-code@synthetic-xor-out-store`` or
``wrong-code@pass:simplify``.  Ground truth: on the synthetic defect corpus
(``repro.reduction.corpus``) every bucket must be attributed to its injected
defect's model -- locked in ``tests/test_triage.py``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.compiler.driver import CompilerDriver
from repro.compiler.pipeline import Pipeline, default_pipeline
from repro.kernel_lang import ast
from repro.observability import SPAN_BISECT_PROBE, current_collector, maybe_span
from repro.orchestration.cache import ResultCache, cached_run
from repro.platforms.config import DeviceConfig
from repro.reduction.interestingness import (
    PredicateSpec,
    Signature,
    build_predicate,
)
from repro.runtime.engine import DEFAULT_ENGINE
from repro.runtime.errors import BuildFailure, KernelRuntimeError
from repro.testing.outcomes import Outcome, cell_label, classify_exception
from repro.triage.bucketing import _CODE_SEVERITY, worst_signature_code

#: Human-readable defect-class spellings used in culprit labels.
CLASS_LABELS = {
    "w": "wrong-code",
    "bf": "build-failure",
    "c": "crash",
    "to": "timeout",
    "ng": "bad-base",
}

#: ``BisectionResult.kind`` values.
KIND_BUG_MODEL = "bugmodel"
KIND_PASS = "pass"
KIND_UNKNOWN = "unknown"


@dataclass
class BisectionResult:
    """Plain-value culprit attribution, shippable through ``JobResult``."""

    kind: str
    culprit: str
    label: str
    config_name: str
    defect_class: str
    #: Number of probe evaluations (predicate runs / two-point compiles)
    #: the bisection spent.
    steps: int
    #: True when the boundary check held (and, for bug models, the culprit
    #: reproduced alone); False flags an interaction between injections.
    verified: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Probe plumbing
# ---------------------------------------------------------------------------


class _ProbeCounter:
    """Counts probe evaluations across the helpers of one attribution."""

    def __init__(self) -> None:
        self.steps = 0


def _target_config_index(
    configs: Sequence[Optional[DeviceConfig]], signature: Signature
) -> Optional[int]:
    """Index of the configuration to bisect: the one owning the most severe
    cell of the signature (ties broken by cell label, so the choice is
    deterministic)."""
    ranked: List[Tuple[int, str, int]] = []
    for cell, code in signature:
        for index, config in enumerate(configs):
            name = config.name if config is not None else "reference"
            if cell in (cell_label(name, True), cell_label(name, False)):
                ranked.append((-_CODE_SEVERITY.get(code, 0), cell, index))
    if not ranked:
        return None
    return min(ranked)[2]


def _make_probe(
    program: ast.Program,
    spec: PredicateSpec,
    configs: Sequence[Optional[DeviceConfig]],
    optimisation_levels: Sequence[bool],
    max_steps: int,
    engine: str,
    variant_seed: int,
    variants_per_base: Optional[int],
    cache: Optional[ResultCache],
    counter: _ProbeCounter,
) -> Callable[[int, List[object]], bool]:
    """A probe: does the anomaly reproduce with the target configuration's
    bug models replaced by ``models``?

    Rebuilds the reduction's own interestingness predicate with the modified
    configuration substituted in place, so the reproduction criterion is
    byte-for-byte the one the reducer preserved.
    """

    def probe(target_index: int, models: List[object]) -> bool:
        counter.steps += 1
        collector = current_collector()
        if collector is not None:
            with collector.span(SPAN_BISECT_PROBE, name="bug-model"):
                return _probe(target_index, models)
        return _probe(target_index, models)

    def _probe(target_index: int, models: List[object]) -> bool:
        probed = list(configs)
        target = probed[target_index]
        if target is not None:
            probed[target_index] = dataclasses.replace(
                target, bug_models=list(models)
            )
        predicate = build_predicate(
            spec,
            probed,
            optimisation_levels,
            max_steps,
            engine,
            variant_seed=variant_seed,
            variants_per_base=variants_per_base,
            cache=cache,
        )
        return bool(predicate(program))

    return probe


def _bisect_prefix(reproduces: Callable[[int], bool], length: int) -> int:
    """Smallest ``k`` in ``1..length`` with *reproduces(k)*, maintaining the
    git-bisect invariant (low never reproduces, high does).

    The caller has established ``reproduces(length)`` and
    ``not reproduces(0)``; the returned boundary is therefore verified by
    construction: *reproduces(k)* held and *reproduces(k-1)* failed during
    the search.
    """
    low, high = 0, length
    while high - low > 1:
        mid = (low + high) // 2
        if reproduces(mid):
            high = mid
        else:
            low = mid
    return high


# ---------------------------------------------------------------------------
# Bug-model bisection
# ---------------------------------------------------------------------------


def bisect_bug_models(
    program: ast.Program,
    spec: PredicateSpec,
    configs: Sequence[Optional[DeviceConfig]],
    target_index: int,
    optimisation_levels: Sequence[bool] = (False, True),
    max_steps: int = 500_000,
    engine: str = DEFAULT_ENGINE,
    variant_seed: int = 0,
    variants_per_base: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    counter: Optional[_ProbeCounter] = None,
) -> Tuple[Optional[str], bool, int]:
    """(culprit model name, verified, probe steps) for one configuration.

    Returns ``(None, False, steps)`` when the anomaly needs no bug model at
    all (it survives the empty model list -- the optimiser or the substrate
    is at fault) or when the full model list does not reproduce (stale
    bucket).
    """
    counter = counter or _ProbeCounter()
    probe = _make_probe(
        program, spec, configs, optimisation_levels, max_steps, engine,
        variant_seed, variants_per_base, cache, counter,
    )
    target = configs[target_index]
    models = list(target.bug_models) if target is not None else []
    if not models or not probe(target_index, models):
        return None, False, counter.steps
    if probe(target_index, []):
        # Reproduces with zero injections: no model is the culprit.
        return None, False, counter.steps
    boundary = _bisect_prefix(
        lambda k: probe(target_index, models[:k]), len(models)
    )
    culprit = models[boundary - 1]
    # The boundary model is necessary given its predecessors; check it is
    # also sufficient alone.  When it is not, the defect is an interaction
    # between injections -- report the boundary model but flag it.
    alone = len(models) == 1 or probe(target_index, [culprit])
    return getattr(culprit, "name", str(culprit)), bool(alone), counter.steps


# ---------------------------------------------------------------------------
# Optimisation-pass bisection
# ---------------------------------------------------------------------------


def _observed_class(
    program: ast.Program,
    config: Optional[DeviceConfig],
    pipeline: Optional[Pipeline],
    optimisations: bool,
    max_steps: int,
    engine: str,
    cache: Optional[ResultCache],
) -> Tuple[str, Optional[str]]:
    """(outcome code, result hash) of one compile+run under ``pipeline``."""
    try:
        compiled = CompilerDriver(config).compile(
            program, optimisations=optimisations, pipeline=pipeline
        )
        result = cached_run(cache, compiled, max_steps, engine)
    except (BuildFailure, KernelRuntimeError) as error:
        return classify_exception(error).value, None
    return Outcome.PASS.value, result.result_hash()


def bisect_passes(
    program: ast.Program,
    config: Optional[DeviceConfig] = None,
    expected_class: str = "w",
    passes: Optional[Sequence] = None,
    max_steps: int = 500_000,
    engine: str = DEFAULT_ENGINE,
    cache: Optional[ResultCache] = None,
    counter: Optional[_ProbeCounter] = None,
) -> Tuple[Optional[str], int]:
    """(culprit pass name, probe steps) over the optimisation-pass schedule.

    The reproduction check is two-point against the program's own
    unoptimised run on the *same* configuration (whose bug models should
    already be stripped by the caller): ``w`` means both runs terminate with
    different values, ``bf``/``c``/``to``/``ub`` mean the optimised run
    exhibits that class.  Returns ``(None, steps)`` when the full schedule
    does not reproduce or the empty schedule already does (the anomaly is
    not the optimiser's).
    """
    counter = counter or _ProbeCounter()
    schedule = list(passes if passes is not None else default_pipeline().passes)
    baseline_code, baseline_hash = _observed_class(
        program, config, None, False, max_steps, engine, cache
    )
    counter.steps += 1
    if baseline_code != Outcome.PASS.value:
        return None, counter.steps

    def reproduces(k: int) -> bool:
        counter.steps += 1
        with maybe_span(SPAN_BISECT_PROBE, name="pass-schedule"):
            code, value = _observed_class(
                program, config, Pipeline(schedule[:k]), True, max_steps,
                engine, cache,
            )
        if expected_class == "w":
            return code == Outcome.PASS.value and value != baseline_hash
        return code == expected_class

    if not reproduces(len(schedule)) or reproduces(0):
        return None, counter.steps
    boundary = _bisect_prefix(reproduces, len(schedule))
    return schedule[boundary - 1].name, counter.steps


# ---------------------------------------------------------------------------
# The attribution entry point
# ---------------------------------------------------------------------------


def attribute_culprit(
    program: ast.Program,
    spec: PredicateSpec,
    configs: Sequence[Optional[DeviceConfig]],
    optimisation_levels: Sequence[bool] = (False, True),
    max_steps: int = 500_000,
    engine: str = DEFAULT_ENGINE,
    variant_seed: int = 0,
    variants_per_base: Optional[int] = None,
    passes: Optional[Sequence] = None,
    cache: Optional[ResultCache] = None,
) -> BisectionResult:
    """Attribute one bucket's representative reproducer to a culprit.

    Tries bug-model bisection on the configuration owning the signature's
    most severe cell; falls back to optimisation-pass bisection (with the
    target's models stripped) when no injection explains the anomaly.  The
    returned label reads ``<class>@<model name>`` or ``<class>@pass:<pass
    name>``, or ``<class>@unknown`` when neither axis resolves.
    """
    counter = _ProbeCounter()
    signature = tuple(spec.signature)
    defect_class = worst_signature_code(signature)
    class_word = CLASS_LABELS.get(defect_class, defect_class)
    target_index = _target_config_index(configs, signature)
    if target_index is None:
        return BisectionResult(
            kind=KIND_UNKNOWN, culprit="", label=f"{class_word}@unknown",
            config_name="", defect_class=defect_class, steps=counter.steps,
            verified=False, detail="no signature cell maps to a configuration",
        )
    target = configs[target_index]
    config_name = target.name if target is not None else "reference"

    model, verified, _ = bisect_bug_models(
        program, spec, configs, target_index, optimisation_levels, max_steps,
        engine, variant_seed, variants_per_base, cache, counter=counter,
    )
    if model is not None:
        return BisectionResult(
            kind=KIND_BUG_MODEL, culprit=model,
            label=f"{class_word}@{model}", config_name=config_name,
            defect_class=defect_class, steps=counter.steps, verified=verified,
            detail="" if verified else
            "boundary model does not reproduce alone (injection interaction)",
        )

    # No injection explains it: bisect the shared optimisation schedule on
    # the stripped configuration.  Only meaningful for anomalies observed at
    # an optimised cell of a two-point class the check models.
    stripped = (
        dataclasses.replace(target, bug_models=[]) if target is not None else None
    )
    pass_name, _ = bisect_passes(
        program, stripped, defect_class, passes, max_steps, engine,
        cache, counter=counter,
    )
    if pass_name is not None:
        return BisectionResult(
            kind=KIND_PASS, culprit=pass_name,
            label=f"{class_word}@pass:{pass_name}", config_name=config_name,
            defect_class=defect_class, steps=counter.steps, verified=True,
        )
    return BisectionResult(
        kind=KIND_UNKNOWN, culprit="", label=f"{class_word}@unknown",
        config_name=config_name, defect_class=defect_class,
        steps=counter.steps, verified=False,
        detail="neither a bug model nor an optimisation pass reproduces the "
               "anomaly in isolation",
    )


__all__ = [
    "CLASS_LABELS",
    "KIND_BUG_MODEL",
    "KIND_PASS",
    "KIND_UNKNOWN",
    "BisectionResult",
    "bisect_bug_models",
    "bisect_passes",
    "attribute_culprit",
]
