"""Curvature-derived instantaneous frequency Phi(t) = x''/sqrt(1 + x'^2).

The denominator exponent is 1/2, not the 3/2 of the plane-curve curvature;
the two are related by Phi = curvature * (1 + x'^2).  Phi is therefore a
time-local, amplitude-sensitive quantity: even for a pure tone it varies
with t, unlike the constant analytic-signal (Ville) frequency of the same
tone.  No normalization is applied.

Two paths: exact evaluation through the symbolic derivatives of an
expression, and a sliding least-squares polynomial fit for sampled data
(uniform weights, centered windows; edge points are not estimated).  On
uniform samples every window shares one set of fit weights, the
Savitzky-Golay construction (Savitzky and Golay, Anal. Chem. 1964), applied
to the whole signal by correlation.  Non-uniform samples are fit window by
window; that loop is also the reference the uniform route is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ratfield import Qi
from .sigexpr import (Const, Mul, Sin, Sinc, SignalExpr, EvaluationError,
                      ParameterError, canonical, diff_time, evaluate,
                      split_scale)

__all__ = ["SampledSignal", "PhiTrace", "VilleComparison", "phi_symbolic",
           "phi_fitted", "phi_vs_ville_note"]

_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class SampledSignal:
    """Finite real samples on strictly increasing times."""

    times: tuple
    values: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        if len(times) != len(values):
            raise ValueError("times and values must have equal length")
        if not all(map(math.isfinite, times + values)):
            raise ValueError("times and values must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class PhiTrace:
    """Instantaneous-frequency estimates; phi entries are floats or None
    where a window fit was ill conditioned."""

    times: tuple
    phi: tuple
    method: str   # "symbolic" | "fitted"

    def __post_init__(self):
        if len(self.times) != len(self.phi):
            raise ValueError("times and phi must have equal length")

    def as_dict(self) -> dict:
        return {"times": list(self.times), "phi": list(self.phi),
                "method": self.method}


def _real_part(label: str, value: complex) -> float:
    if abs(value.imag) > _IMAG_TOL * (1.0 + abs(value.real)):
        raise EvaluationError(
            f"{label} is complex-valued; the formula needs a real signal")
    return value.real


def phi_symbolic(e: SignalExpr, t: float) -> float:
    """Exact Phi(t) via symbolic first and second time derivatives; a
    scaled sinc at t = 0 takes the limits of its series."""
    scale, atom = split_scale(e)
    if t == 0 and isinstance(atom, Sinc):
        # c*sin(wt)/t = c*(w - w^3 t^2/6 + ...): x'(0) = 0, x''(0) = -c w^3/3
        d1, d2 = Const(Qi(0)), Const(-scale * Qi(atom.omega ** 3 / 3))
    else:
        d1 = diff_time(e)
        d2 = diff_time(d1)
    _real_part("signal", evaluate(e, t))
    x1 = _real_part("first derivative", evaluate(d1, t))
    x2 = _real_part("second derivative", evaluate(d2, t))
    return x2 / math.sqrt(1.0 + x1 * x1)


def _uniform_step(sig: SampledSignal) -> float | None:
    """The sampling step if every step is within 1e-9 of the first one,
    else None."""
    steps = np.diff(np.asarray(sig.times))
    dt = float(steps[0])
    if np.any(np.abs(steps - dt) > 1e-9 * dt):
        return None
    return dt


def phi_fitted(sig: SampledSignal, window: int = 11,
               degree: int = 3) -> PhiTrace:
    """Sliding-window least-squares fit; Phi from the fitted derivatives.

    Each interior point gets a centered window of the given odd width; a
    polynomial of the given degree (2 to 4) is fit with uniform weights in
    local time, and its first two derivatives at the center feed the Phi
    formula.  Points whose fit is rank deficient report None.

    On uniform samples the fit is linear in the window's values with the
    same weights everywhere: the rows of the pseudo-inverse of the window's
    Vandermonde matrix, taken here on the grid k/half (k = -half..half) so
    that it stays well conditioned at any width.  Rank deficiency is then
    one decision for all windows, made as lstsq makes it: on the singular
    values of the Vandermonde matrix in local time k*dt, with lstsq's
    default cutoff.  Non-uniform samples are fit window by window.
    """
    if window % 2 == 0 or window < 5:
        raise ValueError("window must be an odd integer >= 5")
    if not 2 <= degree <= 4:
        raise ValueError("degree must be between 2 and 4")
    if degree >= window:
        raise ValueError("degree must be smaller than the window")
    if window > len(sig):
        raise ValueError("window exceeds the number of samples")
    dt = _uniform_step(sig)
    if dt is None:
        return _phi_fitted_per_window(sig, window, degree)
    half = window // 2
    times = sig.times[half:len(sig) - half]
    k = np.arange(-half, half + 1)
    sv = np.linalg.svd(np.vander(k * dt, degree + 1, increasing=True),
                       compute_uv=False)
    if sv[-1] <= np.finfo(float).eps * max(window, degree + 1) * sv[0]:
        return PhiTrace(times, (None,) * len(times), "fitted")
    weights = np.linalg.pinv(np.vander(k / half, degree + 1, increasing=True))
    values = np.asarray(sig.values)
    scale = half * dt
    # samples near the float limit overflow to inf or nan, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        x1 = np.correlate(values, weights[1], "valid") / scale
        x2 = 2.0 * np.correlate(values, weights[2], "valid") / (scale * scale)
        phi = x2 / np.sqrt(1.0 + x1 * x1)
    return PhiTrace(times, tuple(phi.tolist()), "fitted")


def _phi_fitted_per_window(sig: SampledSignal, window: int,
                           degree: int) -> PhiTrace:
    """phi_fitted by one lstsq solve per window: the route for non-uniform
    samples, and the reference for the uniform one."""
    times = np.asarray(sig.times)
    values = np.asarray(sig.values)
    half = window // 2
    centers = range(half, len(sig) - half)
    out_t = []
    out_phi = []
    for j in centers:
        tau = times[j - half:j + half + 1] - times[j]
        v = np.vander(tau, degree + 1, increasing=True)
        coef, _, rank, _ = np.linalg.lstsq(v, values[j - half:j + half + 1],
                                           rcond=None)
        out_t.append(float(times[j]))
        if rank < degree + 1:
            out_phi.append(None)
            continue
        x1 = float(coef[1])
        x2 = 2.0 * float(coef[2])
        out_phi.append(x2 / math.sqrt(1.0 + x1 * x1))
    return PhiTrace(tuple(out_t), tuple(out_phi), "fitted")


@dataclass(frozen=True)
class VilleComparison:
    """Side-by-side of the constant Ville frequency of a pure tone and the
    time-varying Phi of the same tone."""

    amplitude: float
    omega: float
    ville: float                  # analytic-signal value: the constant omega
    rows: tuple                   # of (t, phi)

    def as_dict(self) -> dict:
        return {"amplitude": self.amplitude, "omega": self.omega,
                "ville": self.ville,
                "rows": [{"t": t, "phi": p} for t, p in self.rows]}

    def to_text(self) -> str:
        lines = [
            f"tone: {self.amplitude:g}*sin({self.omega:g}*t)",
            f"ville frequency (analytic signal): constant {self.ville:g}",
            "        t      ville        phi",
        ]
        for t, p in self.rows:
            lines.append(f"{t:9.4f} {self.ville:10.4f} {p:10.4f}")
        return "\n".join(lines)


def _tone_parameters(e: SignalExpr) -> tuple[float, float]:
    e = canonical(e)
    if isinstance(e, Const) and e.value == Qi(0):
        return 0.0, 0.0
    if isinstance(e, Sin) and e.phase == 0:
        return 1.0, float(e.omega)
    if isinstance(e, Mul):
        consts = [f for f in e.factors if isinstance(f, Const)]
        rest = [f for f in e.factors if not isinstance(f, Const)]
        if (len(consts) == 1 and len(rest) == 1 and consts[0].value.is_real
                and isinstance(rest[0], Sin) and rest[0].phase == 0):
            return float(consts[0].value.re), float(rest[0].omega)
    raise ParameterError("comparison requires a pure tone A*sin(w*t)")


def phi_vs_ville_note(e: SignalExpr) -> VilleComparison:
    """Tabulate Ville's constant tone frequency against Phi over a period."""
    amplitude, omega = _tone_parameters(e)
    if amplitude != 0 and omega == 0:
        raise ParameterError("tone frequency must be nonzero")
    if amplitude == 0:
        ts = [0.125 * k for k in range(9)]
        rows = tuple((t, 0.0) for t in ts)
        return VilleComparison(0.0, omega, 0.0, rows)
    period = 2.0 * math.pi / abs(omega)
    rows = []
    for k in range(9):
        t = period * k / 8.0
        rows.append((t, phi_symbolic(e, t)))
    return VilleComparison(amplitude, omega, omega, tuple(rows))
