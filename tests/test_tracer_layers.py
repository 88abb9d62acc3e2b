"""The benchmark's traced mode wraps package functions by name.

bench/tracer.py lists them in LAYERS and looks each one up with getattr when
it installs its wrappers, so a layer that no longer resolves would crash the
traced benchmark rather than fail a test.  Its coefficient-size counter
reads an image's coefficients as Qi values with Fraction parts, which the
last test pins.
"""

import importlib
import runpy
from pathlib import Path

from algspec import opcalc, sigexpr

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


def test_coefficient_bits_read_off_the_images():
    # the traced run reads ratfield.coeff_bits_max through the Qi view of
    # an image's coefficients, as Fraction numerators and denominators
    coeff_bits = runpy.run_path(str(TRACER))["_coeff_bits"]

    def image(text):
        return opcalc.to_rational(opcalc.from_signal(sigexpr.parse(text)))

    assert coeff_bits(image("(t^3+1)*(sin(t)+cos(2*t)+exp(-t))^3")) == 175
    assert coeff_bits(image("(1/2 - 3/2*t)*sin(3/8*t)*exp(-1/8*t)"
                            " + (5/2)*exp(-7/8*t)")) == 14
