"""Every function the benchmark's tracer wraps still exists in gkpfrac.

The tracer records a missing name as absent instead of failing, so a
renamed function would silently drop out of the per-layer metrics; this
test turns that into a failure.
"""
import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def resolve(binding):
    mod_name, _, attr = binding.partition(":")
    obj = importlib.import_module("gkpfrac." + mod_name)
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_every_traced_binding_resolves():
    bindings = [b for names, _, _ in load_targets().values() for b in names]
    assert len(bindings) >= 30
    missing = [b for b in bindings if not callable(resolve(b))]
    assert missing == []

