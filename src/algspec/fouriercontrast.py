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
from dataclasses import dataclass

from .instfreq import SampledSignal, _uniform_step
from .pipeline import analyze
from .ratfield import Spectrum
from .sigexpr import (Dirac, Sin, Sinc, SignalExpr, ParameterError,
                      pretty_print, split_scale)

__all__ = ["DftResult", "ContrastReport", "dft", "dft_direct",
           "sinc_fourier_closed_form", "contrast_report"]


@dataclass(frozen=True)
class DftResult:
    """Magnitude spectrum of a uniformly sampled signal; frequencies are in
    rad/s with the usual wrapped (signed) bin layout."""

    bin_frequencies: tuple
    magnitudes: tuple

    def dominant_frequencies(self, count: int = 2) -> tuple:
        order = sorted(range(len(self.magnitudes)),
                       key=lambda k: (-self.magnitudes[k], k))
        return tuple(sorted(self.bin_frequencies[k] for k in order[:count]))


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
    import numpy as np

    n = len(sig)
    if n < 2:
        raise ValueError("need at least two samples")
    dt = _uniform_step(sig)
    if dt is None:
        raise ValueError("sampling must be uniform")
    coeffs = np.fft.fft(np.asarray(sig.values, dtype=float))
    freqs = 2.0 * math.pi * np.fft.fftfreq(n, dt)
    return DftResult(tuple(freqs.tolist()),
                     tuple(map(abs, coeffs.tolist())))


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


@dataclass(frozen=True)
class ContrastReport:
    """Algebraic spectrum next to the classical Fourier description."""

    signal: str
    algebraic: Spectrum
    fourier: str
    sweep: tuple = ()            # (omega, algebraic frequencies, rect width)
    dft_dominant: tuple = ()     # dominant DFT bin frequencies, if computed

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
def _impulse_demo() -> tuple:
    """DFT magnitudes of a 64-point unit impulse, computed once per process."""
    n = 64
    values = [0.0] * n
    values[0] = 1.0
    sig = SampledSignal(tuple(k * 1.0 for k in range(n)), tuple(values))
    return dft(sig).magnitudes


def contrast_report(e: SignalExpr) -> ContrastReport:
    """Two-column report for the impulse, the sinc, or a pure sine.

    The algebraic column is taken verbatim from the spectrum pipeline, so
    it cannot drift from what the spectrum command reports.
    """
    label = pretty_print(e)
    _, atom = split_scale(e)
    if isinstance(atom, Dirac):
        mags = _impulse_demo()
        flat = max(abs(m - 1.0) for m in mags)
        return ContrastReport(
            label, analyze(e).spectrum,
            f"flat: all frequencies present (impulse DFT magnitudes are 1 "
            f"to within {flat:.1e})")
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
        n, dt = 256, 0.05
        times = tuple(k * dt for k in range(n))
        phase = float(atom.phase)
        values = tuple(math.sin(w * t + phase) for t in times)
        result = dft(SampledSignal(times, values))
        return ContrastReport(
            label, analyze(e).spectrum,
            f"line pair at -{abs(w):g} and {abs(w):g}",
            dft_dominant=result.dominant_frequencies(2))
    raise ParameterError(
        "contrast report covers dirac(), sinc(w), and sin(w*t) signals")
