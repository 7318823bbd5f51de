"""The campaign benchmark's layer tracer still finds every function it patches.

``perfbench/tracer.py`` wraps its ``TARGETS`` by name, so renaming or deleting
one of them (say ``CompiledEngine.lower_batch``, kept only for the tracer)
breaks ``perfbench/run.py --trace 1``.  This test installs the tracer, checks
that every target was replaced by a wrapper, and uninstalls it again.  It only
reads ``perfbench/``; it runs no campaign.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture
def tracer_module():
    name = "perfbench_tracer_under_test"
    spec = importlib.util.spec_from_file_location(name, _TRACER)
    module = importlib.util.module_from_spec(spec)
    # LayerStats is a dataclass, which looks its module up in sys.modules.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def _current(module_name, attribute):
    """What a target names right now: a module's function, or the entry in
    its class's own ``__dict__``."""
    module = importlib.import_module(module_name)
    if "." in attribute:
        class_name, method = attribute.split(".")
        return getattr(module, class_name).__dict__[method]
    return getattr(module, attribute)


def test_tracer_patches_every_target_and_restores_the_originals(tracer_module):
    originals = {
        (module, attribute): _current(module, attribute)
        for _, module, attribute in tracer_module.TARGETS
    }
    tracer = tracer_module.LayerTracer()
    try:
        tracer.install()
        for target, original in originals.items():
            assert _current(*target).__wrapped__ is original, target
    finally:
        tracer.uninstall()
    for target, original in originals.items():
        assert _current(*target) is original, target
