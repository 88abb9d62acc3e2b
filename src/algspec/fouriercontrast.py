"""Classical Fourier-side computations used as foils for the algebraic
spectrum: the DFT of sampled data, the closed-form transform of the sinc,
and two-column contrast reports.

The headline contrast: the impulse has an empty algebraic spectrum but a
flat DFT ("all frequencies"); the sinc keeps the two-point algebraic
spectrum {-w, +w} for every w while its transform occupies the whole
interval (-w, w), so the width of the Fourier support and the size of the
algebraic spectrum are unrelated, and duration-bandwidth tradeoffs do not
translate.
"""

from __future__ import annotations

import functools
import math

from .instfreq import SampledSignal, _uniform_step
from .pipeline import analyze
from .ratfield import Spectrum, _FrozenValue
from .sigexpr import (Dirac, Sin, Sinc, SignalExpr, ParameterError, _angle,
                      pretty_print, split_scale)

__all__ = ["DftResult", "ContrastReport", "dft", "dft_direct",
           "sinc_fourier_closed_form", "contrast_report"]


class DftResult(_FrozenValue):
    """Magnitude spectrum of a uniformly sampled signal; frequencies are in
    rad/s with the usual wrapped (signed) bin layout."""

    _fields = ("bin_frequencies", "magnitudes")

    def __init__(self, bin_frequencies: tuple, magnitudes: tuple):
        object.__setattr__(self, "bin_frequencies", bin_frequencies)
        object.__setattr__(self, "magnitudes", magnitudes)

    def dominant_frequencies(self, count: int = 2) -> tuple:
        """The bin frequencies of the `count` largest magnitudes, a tie
        going to the lower bin index, in increasing order."""
        return _dominant(self.bin_frequencies, self.magnitudes, count)


def _magnitudes(values):
    """|fft(values)| as an array, bitwise Python's `abs` of each
    coefficient: np.hypot of the parts calls the C hypot that `abs` calls,
    where np.abs may differ from it in the last place, and so reorder
    near-equal bins.  As `abs` does, a modulus that overflows from finite
    parts raises OverflowError.  The FFT runs with its overflow ignored, so
    it prints no warning, and a part that overflows in it is inf, as in
    the (inf, 0.0) that `abs` gives for [1.7e308, 1.7e308]."""
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        x = np.fft.fft(values)
    try:
        with np.errstate(over="raise"):
            return np.hypot(x.real, x.imag)
    except FloatingPointError:
        raise OverflowError("absolute value too large") from None


def _bins(n: int, dt: float):
    """The angular bin frequencies 2*pi*fftfreq(n, dt), wrapped (signed)."""
    import numpy as np

    return 2.0 * math.pi * np.fft.fftfreq(n, dt)


def _dominant(bins, magnitudes, count: int) -> tuple:
    """The bins of the `count` largest magnitudes in increasing order: a
    stable argsort of -magnitudes, so a tie goes to the lower index."""
    import numpy as np

    order = np.argsort(-np.asarray(magnitudes), kind="stable")[:count]
    return tuple(sorted(np.asarray(bins)[order].tolist()))


def dft_direct(values):
    """Plain O(n^2) transform, as a complex array; the reference that tests
    hold dft to."""
    import numpy as np

    x = np.asarray(values, dtype=complex)
    n = len(x)
    j = np.arange(n)
    out = np.empty(n, dtype=complex)
    for k in range(n):
        out[k] = np.sum(x * np.exp(-2j * math.pi * k * j / n))
    return out


def dft(sig: SampledSignal) -> DftResult:
    """DFT of uniform samples by np.fft.fft, which is exact-size at every
    length."""
    n = len(sig)
    if n < 2:
        raise ValueError("need at least two samples")
    dt = _uniform_step(sig)
    if dt is None:
        raise ValueError("sampling must be uniform")
    return DftResult(tuple(_bins(n, dt).tolist()),
                     tuple(_magnitudes(sig.arrays[1]).tolist()))


def sinc_fourier_closed_form(omega: float, xi: float) -> float:
    """Transform of sin(w t)/t: w inside (-w, w), 0 outside, w/2 at the
    jump points (midpoint convention, chosen here and documented)."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    if abs(xi) < omega:
        return float(omega)
    if abs(xi) > omega:
        return 0.0
    return float(omega) / 2.0


_SWEEP = (1, 2, 4, 8)


class ContrastReport(_FrozenValue):
    """Algebraic spectrum next to the classical Fourier description.

    `sweep` holds (omega, algebraic frequencies, rectangle width) rows;
    `dft_dominant` the dominant DFT bin frequencies, if computed."""

    _fields = ("signal", "algebraic", "fourier", "sweep", "dft_dominant")

    def __init__(self, signal: str, algebraic: Spectrum, fourier: str,
                 sweep: tuple = (), dft_dominant: tuple = ()):
        object.__setattr__(self, "signal", signal)
        object.__setattr__(self, "algebraic", algebraic)
        object.__setattr__(self, "fourier", fourier)
        object.__setattr__(self, "sweep", sweep)
        object.__setattr__(self, "dft_dominant", dft_dominant)

    def as_dict(self) -> dict:
        out = {
            "signal": self.signal,
            "algebraic_frequencies": list(self.algebraic.frequencies),
            "infinite_singularity": self.algebraic.infinite_singularity,
            "fourier": self.fourier,
        }
        if self.sweep:
            out["sweep"] = [
                {"omega": w, "algebraic_frequencies": list(fr),
                 "rectangle_width": wd}
                for w, fr, wd in self.sweep]
        if self.dft_dominant:
            out["dft_dominant_bins"] = list(self.dft_dominant)
        return out

    def to_text(self) -> str:
        freqs = " ".join(f"{f:g}" for f in self.algebraic.frequencies)
        lines = [
            f"signal: {self.signal}",
            f"algebraic spectrum: {freqs if freqs else '(none)'}",
            f"fourier description: {self.fourier}",
        ]
        if self.algebraic.infinite_singularity:
            lines.append("infinite singularity: yes")
        for w, fr, wd in self.sweep:
            ftxt = " ".join(f"{f:g}" for f in fr)
            lines.append(f"  omega={w:g}: algebraic {{{ftxt}}}, "
                         f"rectangle width {wd:g}")
        if self.dft_dominant:
            bins = " ".join(f"{b:g}" for b in self.dft_dominant)
            lines.append(f"dft dominant bins: {bins}")
        return "\n".join(lines)


@functools.cache
def _sinc_sweep() -> tuple:
    """The rows (omega, algebraic frequencies, rectangle width) of the sinc
    sweep, each read from the spectrum pipeline.  The atoms are fixed, so a
    process analyses them once."""
    return tuple((float(sw), analyze(Sinc(sw)).spectrum.frequencies,
                  2.0 * sw) for sw in _SWEEP)


@functools.cache
def _impulse_demo() -> str:
    """The Fourier line of the impulse, from the DFT magnitudes of a
    64-point unit impulse, computed once per process."""
    mags = _magnitudes([1.0] + [0.0] * 63).tolist()
    flat = max(abs(m - 1.0) for m in mags)
    return (f"flat: all frequencies present (impulse DFT magnitudes are 1 "
            f"to within {flat:.1e})")


@functools.cache
def _tone_grid() -> tuple:
    """The tone contrast's 256 sample times 0.05 apart and their bins, as
    read-only arrays, computed once per process."""
    import numpy as np

    n, dt = 256, 0.05
    times, bins = np.arange(n) * dt, _bins(n, dt)
    times.flags.writeable = bins.flags.writeable = False
    return times, bins


def contrast_report(e: SignalExpr) -> ContrastReport:
    """Two-column report for the impulse, the sinc, or a pure sine.

    The algebraic column is taken verbatim from the spectrum pipeline, so
    it cannot drift from what the spectrum command reports.
    """
    label = pretty_print(e)
    _, atom = split_scale(e)
    if isinstance(atom, Dirac):
        return ContrastReport(label, analyze(e).spectrum, _impulse_demo())
    if isinstance(atom, Sinc):
        aw = abs(float(atom.omega))
        return ContrastReport(
            label, analyze(e).spectrum,
            f"rectangle of height {aw:g} on (-{aw:g}, {aw:g}), "
            f"width {2 * aw:g}",
            sweep=_sinc_sweep())
    if isinstance(atom, Sin):
        w = float(atom.omega)
        if w == 0:
            raise ParameterError("contrast tone frequency must be nonzero")
        import numpy as np

        times, bins = _tone_grid()
        phase = float(atom.phase)
        # numpy's products and sums are the IEEE ones of Python floats, but
        # np.sin may differ from math.sin in the last place; the angles run
        # monotonically from the phase at t = 0, so the last overflows, and
        # numpy would warn, exactly when any does, and the largest in size
        # is the first or the last
        last = _angle(times.item(-1) * w + phase)
        top = max(abs(phase), abs(last))
        step = abs(w) * times.item(1)
        if math.ulp(top) >= step:
            raise ParameterError(
                f"the float sample angles of the tone cannot follow it: "
                f"their spacing at {top:g} is at least the step {step:g} "
                f"between samples")
        phases = times * w + phase
        values = np.fromiter(map(math.sin, phases.tolist()), float,
                             len(phases))
        return ContrastReport(
            label, analyze(e).spectrum,
            f"line pair at -{abs(w):g} and {abs(w):g}",
            dft_dominant=_dominant(bins, _magnitudes(values), 2))
    raise ParameterError(
        "contrast report covers dirac(), sinc(w), and sin(w*t) signals")
