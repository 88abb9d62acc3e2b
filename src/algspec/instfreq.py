"""Curvature-derived instantaneous frequency Phi(t) = x''/sqrt(1 + x'^2).

The denominator exponent is 1/2, not the 3/2 of the plane-curve curvature;
the two are related by Phi = curvature * (1 + x'^2).  Phi is therefore a
time-local, amplitude-sensitive quantity: even for a pure tone it varies
with t, unlike the constant analytic-signal (Ville) frequency of the same
tone.  No normalization is applied.

Two paths: exact evaluation of an expression through its 2-jet, the
truncated Taylor series (x, x', x''/2) at the point, propagated node by
node without differentiating the tree (exact in Q(i) at t = 0, so a
removable singularity there takes its limit); and a sliding least-squares
polynomial fit for sampled data (uniform weights, centered windows; edge
points are not estimated).  Both fits work in the window's time scaled to
about [-1, 1], so no verdict depends on the time unit.  On uniform samples
every window shares one set of fit weights, the Savitzky-Golay
construction (Savitzky and Golay, Anal. Chem. 1964), applied to the whole
signal by correlation; its matrix is well conditioned at every window, so
it always gives a float.  Non-uniform samples are fit window by window,
and a window whose times fall into too few clusters for the degree reads
None; that loop is also the reference the uniform route is tested against.

Sampled data stays in float64 arrays: `SampledSignal` holds its samples as
arrays, both fits read them, and the uniform route returns a `PhiTrace`
over arrays.  The tuple attributes of both types are built from the
arrays only when read.  `PhiTrace` itself needs no numpy, so the symbolic
route never loads it.
"""

from __future__ import annotations

import functools
import math

from .ratfield import Qi, _FrozenValue
from .sigexpr import (Const, Sin, SignalExpr, EvaluationError,
                      ParameterError, _jet, canonical, split_scale)

__all__ = ["SampledSignal", "PhiTrace", "VilleComparison", "phi_symbolic",
           "phi_fitted", "phi_vs_ville_note"]

_IMAG_TOL = 1e-9


class SampledSignal(_FrozenValue):
    """Finite real samples on strictly increasing times.

    The samples are held as the read-only float64 arrays `arrays`, a pair
    (times, values); the tuple attributes `times` and `values` are the same
    floats, built from the arrays on first read.  A one-dimensional float64
    array is copied as it is; any other sequence goes through `float` entry
    by entry, so None or a complex entry raises TypeError.
    """

    _fields = ("times", "values")

    def __init__(self, times, values):
        import numpy as np

        t, x = _float_array(times), _float_array(values)
        if len(t) != len(x):
            raise ValueError("times and values must have equal length")
        if not (np.isfinite(t).all() and np.isfinite(x).all()):
            raise ValueError("times and values must be finite")
        if (np.diff(t) <= 0).any():
            raise ValueError("times must be strictly increasing")
        t.flags.writeable = x.flags.writeable = False
        self.__dict__["arrays"] = (t, x)

    @functools.cached_property
    def times(self) -> tuple:
        return tuple(self.arrays[0].tolist())

    @functools.cached_property
    def values(self) -> tuple:
        return tuple(self.arrays[1].tolist())

    def __len__(self):
        return len(self.arrays[0])


class PhiTrace(_FrozenValue):
    """Instantaneous-frequency estimates; phi entries are floats, or None
    where a window of non-uniform samples was rank deficient (only the
    per-window route reports None), and `method` is "symbolic" or "fitted".

    `arrays` is None for a trace built from sequences, which `times` and
    `phi` then hold as given.  On uniform samples `phi_fitted` builds a
    trace over the float64 arrays (times, phi), and `times` and `phi` are
    then tuples built from them on first read.
    """

    _fields = ("times", "phi", "method")
    arrays = None

    def __init__(self, times, phi, method):
        if len(times) != len(phi):
            raise ValueError("times and phi must have equal length")
        self.__dict__.update(times=times, phi=phi, method=method)

    @classmethod
    def _of_arrays(cls, times, phi, method: str) -> PhiTrace:
        times.flags.writeable = phi.flags.writeable = False
        trace = cls.__new__(cls)
        trace.__dict__.update(arrays=(times, phi), method=method)
        return trace

    @functools.cached_property
    def times(self) -> tuple:
        return tuple(self.arrays[0].tolist())

    @functools.cached_property
    def phi(self) -> tuple:
        return tuple(self.arrays[1].tolist())

    def as_dict(self) -> dict:
        return {"times": list(self.times), "phi": list(self.phi),
                "method": self.method}


def _float_array(seq):
    """A new float64 array of seq: a copy of a one-dimensional float64
    array, else `float` of each entry."""
    import numpy as np

    if (isinstance(seq, np.ndarray) and seq.dtype == np.float64
            and seq.ndim == 1):
        return seq.copy()
    return np.fromiter(map(float, seq), float)


def _real_part(label: str, value) -> float:
    """The real part of value, an exact `Qi` that must be real, or a
    complex float whose imaginary part must be within _IMAG_TOL."""
    z = complex(value)
    if (value.im if type(value) is Qi
            else abs(z.imag) > _IMAG_TOL * (1.0 + abs(z.real))):
        raise EvaluationError(
            f"{label} is complex-valued; the formula needs a real signal")
    return z.real


def phi_symbolic(e: SignalExpr, t: float) -> float:
    """Exact Phi(t) from the 2-jet of e at t: x, x' and x'' = 2*c_2 are
    read off one truncated Taylor series (`sigexpr._jet`).  At t = 0 the
    series is exact for every signal, phases read as the expansion reads
    them, so a pole of a rational factor that the other factors cancel, as
    in sin(t)/t, (sinc(2) - 2)/t^2 or (sin(t+1) - sin(0, 1))/t, leaves a
    value; a pole that does not cancel is refused.  There the signal and
    its derivatives must be exactly real; elsewhere within _IMAG_TOL."""
    x, x1, c2 = _jet(e, t, 2)
    _real_part("signal", x)
    x1 = _real_part("first derivative", x1)
    x2 = _real_part("second derivative", 2 * c2)
    return x2 / math.sqrt(1.0 + x1 * x1)


def _uniform_step(sig: SampledSignal) -> float | None:
    """The sampling step if every step is within 1e-9 of the first one,
    else None."""
    import numpy as np

    steps = np.diff(sig.arrays[0])
    dt = float(steps[0])
    if np.any(np.abs(steps - dt) > 1e-9 * dt):
        return None
    return dt


def phi_fitted(sig: SampledSignal, window: int = 11,
               degree: int = 3) -> PhiTrace:
    """Sliding-window least-squares fit; Phi from the fitted derivatives.

    Each interior point gets a centered window of the given odd width; a
    polynomial of the given degree (2 to 4) is fit with uniform weights in
    the window's time scaled to about [-1, 1], and its first two
    derivatives at the center, rescaled to the signal's time, feed the Phi
    formula.  Rank is decided in that scaled variable, so the verdict does
    not depend on the time unit.

    On uniform samples the fit is linear in the window's values with the
    same weights everywhere: the rows of the pseudo-inverse of the
    Vandermonde matrix on the grid k/half (k = -half..half), with x' and
    x'' rescaled by half*dt.  That matrix has window >= 5 >= degree + 1
    distinct nodes in [-1, 1], and its condition number stays below 24 at
    every window, so this route never needs a rank test and every Phi is
    a float.  Non-uniform samples are fit window by window
    (`_phi_fitted_per_window`), where a window whose nodes fall into
    degree or fewer tight clusters reports None.  A Phi that is not
    finite, from samples near the float limit, raises OverflowError on
    both routes.
    """
    import numpy as np

    if window % 2 == 0 or window < 5:
        raise ValueError("window must be an odd integer >= 5")
    if not 2 <= degree <= 4:
        raise ValueError("degree must be between 2 and 4")
    if window > len(sig):
        raise ValueError("window exceeds the number of samples")
    dt = _uniform_step(sig)
    if dt is None:
        return _phi_fitted_per_window(sig, window, degree)
    half = window // 2
    times, values = sig.arrays
    k = np.arange(-half, half + 1)
    weights = np.linalg.pinv(np.vander(k / half, degree + 1, increasing=True))
    scale = half * dt
    # scale = s * 2**e: x'' is scaled by 2**-2e, exactly in the normal
    # range, then divided by s*s in [1/4, 1), so scale*scale, which
    # underflows at small steps, is never formed; samples near the float
    # limit give inf or nan, without a warning
    s, e = math.frexp(scale)
    with np.errstate(over="ignore", invalid="ignore"):
        x1 = np.correlate(values, weights[1], "valid") / scale
        x2 = np.ldexp(2.0 * np.correlate(values, weights[2], "valid"),
                      -2 * e) / (s * s)
        phi = x2 / np.sqrt(1.0 + x1 * x1)
    if not np.isfinite(phi).all():
        raise OverflowError("a Phi exceeds the float range")
    return PhiTrace._of_arrays(times[half:len(sig) - half], phi, "fitted")


def _phi_fitted_per_window(sig: SampledSignal, window: int,
                           degree: int) -> PhiTrace:
    """phi_fitted by one lstsq solve per window: the route for non-uniform
    samples, and the reference for the uniform one.

    Each window is fit in u = tau/h, with tau the local time and h the
    window's half-width rounded up to a power of two, so that the nodes
    fill about [-1, 1] at any time unit and scaling by h, and the rescale
    x' = c1/h, x'' = 2/h*c2/h, are exact in the normal range; in that
    order no step of x'' overflows unless x'' does, and h*h, which would
    underflow, is never formed.  lstsq's rank verdict on u is then the
    same at every unit: None only where the nodes fall into degree or
    fewer clusters.  h is a Python float, so an overflowing slope is inf
    without a numpy warning."""
    import numpy as np

    times, values = sig.arrays
    half = window // 2
    centers = range(half, len(sig) - half)
    out_t = []
    out_phi = []
    for j in centers:
        tau = times[j - half:j + half + 1] - times[j]
        h = math.ldexp(1.0, math.frexp(max(-tau[0], tau[-1]))[1])
        v = np.vander(tau / h, degree + 1, increasing=True)
        coef, _, rank, _ = np.linalg.lstsq(v, values[j - half:j + half + 1],
                                           rcond=None)
        out_t.append(float(times[j]))
        if rank < degree + 1:
            out_phi.append(None)
            continue
        x1 = float(coef[1]) / h
        phi = 2.0 / h * float(coef[2]) / h / math.sqrt(1.0 + x1 * x1)
        if not math.isfinite(phi):
            raise OverflowError("a Phi exceeds the float range")
        out_phi.append(phi)
    return PhiTrace(tuple(out_t), tuple(out_phi), "fitted")


class VilleComparison(_FrozenValue):
    """Side-by-side of the constant Ville frequency of a pure tone and the
    time-varying Phi of the same tone: `ville` is the analytic-signal value,
    the constant omega, and `rows` holds (t, phi) pairs."""

    _fields = ("amplitude", "omega", "ville", "rows")

    def __init__(self, amplitude: float, omega: float, ville: float,
                 rows: tuple):
        object.__setattr__(self, "amplitude", amplitude)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "ville", ville)
        object.__setattr__(self, "rows", rows)

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
    if isinstance(e, Const) and not e.value:
        return 0.0, 0.0
    scale, atom = split_scale(e)
    if isinstance(atom, Sin) and atom.phase == 0 and scale.is_real:
        return float(scale.re), float(atom.omega)
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
