"""Outside-in layer tracer: times calls into each layer's public functions.

The tracer never edits the program.  :meth:`LayerTracer.install` swaps each
target function for a timing wrapper -- in the defining module or class and
in every ``repro`` module that imported the function by name -- and
:meth:`LayerTracer.uninstall` puts the originals back.

Time is accounted *exclusively*: each wrapper pushes a frame on a stack, and
a layer's self time is its call's duration minus the time spent in wrapped
calls nested inside it.  The self times of all layers therefore sum to the
time covered by the outermost wrapped calls, never more.  Spans (layer,
start, end, parent span) stay in memory and are written out on request.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: (layer, module, attribute) -- an attribute ``Class.method`` patches the
#: method on that class.  Several targets may share one layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("generator.generate", "repro.generator.clsmith", "generate_kernel"),
    ("kernel_lang.validate", "repro.kernel_lang.semantics", "validate_program"),
    ("compiler.compile", "repro.compiler.driver", "CompilerDriver.compile"),
    ("compiler.optimise", "repro.compiler.pipeline", "Pipeline.run"),
    ("platforms.frontend", "repro.platforms.config", "DeviceConfig.frontend_check"),
    ("platforms.bug_models", "repro.platforms.config", "DeviceConfig.apply_bug_models"),
    ("platforms.fingerprint", "repro.platforms.calibration", "program_fingerprint"),
    ("emi.variants", "repro.emi.variants", "generate_variants"),
    ("runtime.device_run", "repro.runtime.device", "Device.run"),
    ("runtime.lower", "repro.runtime.engine", "ReferenceEngine.lower"),
    ("runtime.lower", "repro.runtime.compiled.lowering", "CompiledEngine.lower"),
    ("runtime.lower", "repro.runtime.compiled.lowering", "CompiledEngine.lower_batch"),
    ("testing.differential", "repro.testing.differential", "DifferentialHarness.run"),
    ("testing.emi_family", "repro.testing.emi_harness", "EmiHarness.run_family"),
    ("orchestration.pool_run", "repro.orchestration.pool", "WorkerPool.run"),
    ("reduction.reduce", "repro.reduction.reducer", "Reducer.reduce"),
    ("reduction.predicate", "repro.reduction.interestingness",
     "InterestingnessPredicate.__call__"),
    ("triage.bucket", "repro.triage.bucketing", "bucket_reductions"),
    ("triage.bisect", "repro.triage.bisection", "attribute_culprit"),
    ("triage.store.record", "repro.triage.store", "CampaignStore.record_once"),
    ("triage.store.record", "repro.triage.store", "CampaignStore.record_job"),
    ("triage.store.record", "repro.triage.store", "CampaignStore.record_reduction"),
)

#: Every layer name, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


@dataclass
class LayerStats:
    #: Outermost calls (a call nested in a call of the same layer is not
    #: counted again).
    calls: int = 0
    self_s: float = 0.0
    #: Time inside outermost calls, nested layers included.
    inclusive_s: float = 0.0


class LayerTracer:
    """Install timing wrappers around :data:`TARGETS` and aggregate them."""

    def __init__(self) -> None:
        self.stats: Dict[str, LayerStats] = {layer: LayerStats() for layer in LAYERS}
        #: (span id, layer, start, end, parent span id or -1), in completion
        #: order; ids number spans in start order.
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self._next_span = itertools.count()
        self._stack: List[list] = []
        self._depth: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self._patches: List[Tuple[object, str, object]] = []

    # -- accounting -----------------------------------------------------

    def _wrap(self, layer: str, function):
        stats = self.stats[layer]
        stack = self._stack
        depth = self._depth
        spans = self.spans
        next_span = self._next_span
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            # frame: [time spent in nested wrapped calls, span id]
            parent = stack[-1][1] if stack else -1
            frame = [0.0, next(next_span)]
            stack.append(frame)
            depth[layer] += 1
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                depth[layer] -= 1
                if stack:
                    stack[-1][0] += elapsed
                stats.self_s += elapsed - frame[0]
                if depth[layer] == 0:
                    stats.calls += 1
                    stats.inclusive_s += elapsed
                spans.append((frame[1], layer, start, end, parent))

        return traced

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # Import every target module first, so the by-name scan of
        # _patch_function also reaches modules a later target pulls in.
        modules = [importlib.import_module(name) for _, name, _ in TARGETS]
        for (layer, _, attribute), module in zip(TARGETS, modules):
            if "." in attribute:
                class_name, method = attribute.split(".")
                self._patch_method(layer, getattr(module, class_name), method)
            else:
                self._patch_function(layer, getattr(module, attribute))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _set(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _patch_function(self, layer: str, original) -> None:
        """Replace a module-level function wherever a ``repro`` module
        holds it, so ``from x import f`` call sites see the wrapper too."""
        wrapped = self._wrap(layer, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attribute, wrapped)

    def _patch_method(self, layer: str, owner: type, method: str) -> None:
        """Wrap a method on its class, keeping static and class methods what
        they were (a bare wrapper would turn a staticmethod into a bound
        method and shift its arguments)."""
        raw = owner.__dict__[method]
        if isinstance(raw, staticmethod):
            value = staticmethod(self._wrap(layer, raw.__func__))
        elif isinstance(raw, classmethod):
            value = classmethod(self._wrap(layer, raw.__func__))
        else:
            value = self._wrap(layer, raw)
        self._set(owner, method, value)

    # -- output ---------------------------------------------------------

    def self_total(self) -> float:
        return sum(stats.self_s for stats in self.stats.values())

    def write_spans(self, path: str, meta: Dict[str, object]) -> None:
        """Write the spans as JSONL: a meta header, then one line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"type": "meta", **meta}) + "\n")
            for span, layer, start, end, parent in self.spans:
                handle.write(
                    f'{{"type":"span","id":{span},"layer":"{layer}",'
                    f'"start":{start!r},"end":{end!r},"parent":{parent}}}\n'
                )
