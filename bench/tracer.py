"""Per-layer timing for the traced run.

Each layer's public function is replaced, in every algspec module that
holds a reference to it, by a wrapper that adds its wall time and a call
count to a Tracer.  Only the outermost call of a name is timed, so a
function that reaches itself again is not counted twice.  Timing is on only
while the tracer is active, which run.py arranges around the timed op
calls, so the benchmark's own checks add nothing.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# metric name -> attribute of algspec.<module>, where the metric name is
# <module>.<attribute> unless given here; a dotted attribute is a method
LAYERS = {name: name.partition(".")[2] for name in [
    "sigexpr.parse", "opcalc.from_signal", "opcalc.to_rational",
    "ratfield.square_free_factors", "ratfield.spectrum_of_rational",
    "opcalc.to_exppoly", "weylode.catalog_equation",
    "weylode.finite_singularities", "weylode.singularity_at_infinity",
    "instfreq.phi_symbolic", "weylode.mul_ops", "weylode.apply",
    "fouriercontrast.contrast_report", "instfreq.phi_fitted",
    "fouriercontrast.dft", "pipeline.analyze", "cli.run"]}
LAYERS["ratfield.format"] = "RatFunc.format"
LAYERS["instfreq.SampledSignal"] = "SampledSignal.__init__"

# timed names reported as metrics; dft is split by transform length
TIMED = [name for name in LAYERS if name != "fouriercontrast.dft"] + [
    "fouriercontrast.dft_pow2", "fouriercontrast.dft_other"]


def _coeff_bits(r) -> int:
    bits = 0
    for p in (r.num, r.den):
        for c in p.coeffs:
            for f in (c.re, c.im):
                bits = max(bits, f.numerator.bit_length(),
                           f.denominator.bit_length())
    return bits


class Tracer:
    """Totals of wall time and calls per layer, plus image-size counters."""

    def __init__(self):
        self.active = False
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.depth = defaultdict(int)
        self.image_degree = 0
        self.coeff_bits_max = 0

    def take_round(self) -> dict:
        """This round's metrics as {name: (value, unit)}; starts the next."""
        out = {}
        for name in TIMED:
            out[f"{name}_ms"] = (self.seconds[name] * 1000.0, "ms")
            out[f"{name}.calls"] = (self.calls[name], "count")
        out["opcalc.image_degree"] = (self.image_degree, "count")
        out["ratfield.coeff_bits_max"] = (self.coeff_bits_max, "bits")
        self.seconds.clear()
        self.calls.clear()
        self.image_degree = 0
        self.coeff_bits_max = 0
        return out

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active or self.depth[name]:
                return fn(*args, **kwargs)
            label = name
            if name == "fouriercontrast.dft":
                n = len(args[0])
                label += "_pow2" if n & (n - 1) == 0 else "_other"
            self.depth[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.seconds[label] += time.perf_counter() - t0
                self.calls[label] += 1
                self.depth[name] -= 1
            if name == "opcalc.to_rational":
                self.image_degree += out.den.degree
                self.coeff_bits_max = max(self.coeff_bits_max,
                                          _coeff_bits(out))
            return out
        return traced

    def install(self):
        """Swap every reference to each layer function for its wrapper."""
        for name, attr in LAYERS.items():
            owner = sys.modules["algspec." + name.partition(".")[0]]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for modname2, mod in list(sys.modules.items()):
                if modname2 == "algspec" or modname2.startswith("algspec."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
