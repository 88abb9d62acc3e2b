"""The benchmark's traced mode wraps package functions by name.

bench/tracer.py lists them in LAYERS and looks each one up with getattr when
it installs its wrappers, so a layer that no longer resolves would crash the
traced benchmark rather than fail a test.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_every_traced_layer_resolves():
    layers = runpy.run_path(str(TRACER))["LAYERS"]
    assert layers
    for name, attr in layers.items():
        target = importlib.import_module("algspec." + name.partition(".")[0])
        for part in attr.split("."):
            target = getattr(target, part, None)
            assert target is not None, f"{name}: algspec has no {attr}"
        assert callable(target), name
