"""Built-in oracle suite: deterministic checks with hand-verifiable answers,
runnable as `algspec selftest`.

Every check states a behavior of the public API and asserts a known value:
pole locations, frequency sets, catalog equations, singularity
classifications, instantaneous-frequency values, and the Fourier contrasts.
A failure prints the offending value; the process exit status is nonzero if
any check fails.
"""

from __future__ import annotations

import json
import math

from .fouriercontrast import contrast_report, dft, sinc_fourier_closed_form
from .instfreq import SampledSignal, phi_symbolic, phi_vs_ville_note
from .opcalc import dirac_image, from_signal, spectrum_of_exppoly, \
    taylor_truncate, to_exppoly, to_rational
from .pipeline import analyze
from .ratfield import CPoly, Qi, RatFunc, poles, spectrum_of_rational
from .sigexpr import ParameterError, SignalClass, classify, parse
from .weylode import WeylOp, catalog_equation, finite_singularities, \
    singularity_at_infinity

__all__ = ["run_all"]

_CHECKS: list = []


def _check(name):
    def register(fn):
        _CHECKS.append((name, fn))
        return fn
    return register


def _assert_close(got, want, tol=1e-9, label="value"):
    assert abs(got - want) <= tol, f"{label} = {got!r}, expected {want!r}"


def _assert_freqs(spectrum, want):
    got = spectrum.frequencies
    assert got == want, f"frequencies {got!r}, expected {want!r}"


# --- parsing and classification --------------------------------------------


@_check("sinc rejects a zero frequency parameter")
def _sinc_zero():
    try:
        parse("sinc(0)")
    except ParameterError:
        return
    raise AssertionError("sinc(0) was accepted")


@_check("a sine classifies as an exponential polynomial")
def _sine_class():
    kind = classify(parse("sin(3*t)"))
    assert kind == SignalClass.EXP_POLYNOMIAL, f"classified as {kind}"


@_check("the impulse classifies as its own signal class")
def _dirac_class():
    kind = classify(parse("dirac()"))
    assert kind == SignalClass.DIRAC, f"classified as {kind}"


# --- poles and pole-based spectra -------------------------------------------


@_check("poles of 3/(s^2+9) sit at plus and minus 3i")
def _tone_poles():
    r = RatFunc(CPoly([3]), CPoly([9, 0, 1]))
    ps = poles(r)
    assert len(ps) == 2, f"{len(ps)} poles"
    _assert_close(ps[0].location, -3j, label="pole")
    _assert_close(ps[1].location, 3j, label="pole")
    assert all(p.multiplicity == 1 for p in ps), "expected simple poles"


@_check("a denominator centered at 1 with radius 4 yields frequencies -4, 4")
def _shifted_pair():
    r = RatFunc(CPoly([1]), CPoly([17, -2, 1]))   # 1/((s-1)^2 + 16)
    _assert_freqs(spectrum_of_rational(r), (-4.0, 4.0))


@_check("a Laurent polynomial has an empty spectrum")
def _laurent_empty():
    r = RatFunc(CPoly([1, 0, 0, 0, 2]), CPoly([0, 0, 0, 1]))  # s^-3 + 2s
    spec = spectrum_of_rational(r)
    assert spec.frequencies == (), f"frequencies {spec.frequencies!r}"


@_check("the constant operational image has an empty spectrum")
def _one_empty():
    spec = spectrum_of_rational(RatFunc.ONE)
    assert spec.frequencies == (), f"frequencies {spec.frequencies!r}"


# --- operational images ------------------------------------------------------


@_check("sin(3*t) maps to the image 3/(s^2+9)")
def _sine_image():
    r = to_rational(from_signal(parse("sin(3*t)")))
    want = RatFunc(CPoly([3]), CPoly([9, 0, 1]))
    assert r == want, f"image {r!r}"


@_check("3/(s^2+9) maps back to the sine signal")
def _sine_inverse():
    got = to_exppoly(RatFunc(CPoly([3]), CPoly([9, 0, 1])))
    want = from_signal(parse("sin(3*t)"))
    assert got == want, f"inverse image {got.format()!r}"


@_check("the rates of (t+1)*exp(-t)*sin(2*t) are the poles of its image")
def _rates_are_poles():
    x = from_signal(parse("(t+1)*exp(-t)*sin(2*t)"))
    exact = spectrum_of_exppoly(x)
    assert exact.frequencies == (-2.0, 2.0), \
        f"frequencies {exact.frequencies!r}"
    assert [src.order for src in exact.sources] == [2, 2], "pole orders"
    assert spectrum_of_rational(to_rational(x)) == exact, "image poles"


@_check("the impulse maps to the constant image 1")
def _dirac_image():
    assert dirac_image() == RatFunc.ONE, "image is not 1"


@_check("the impulse spectrum is empty")
def _dirac_empty():
    spec = analyze(parse("dirac()")).spectrum
    assert spec.frequencies == (), f"frequencies {spec.frequencies!r}"


# --- truncation paradox ------------------------------------------------------


@_check("order-5 truncation of sin(2*t) is 2t - (4/3)t^3 + (4/15)t^5")
def _truncation_coeffs():
    from fractions import Fraction
    x = taylor_truncate(parse("sin(2*t)"), 0.0, 5)
    assert len(x.terms) == 1 and x.terms[0][0] == Qi(0), "expected rate 0"
    coeffs = x.terms[0][1].coeffs
    want = {1: Fraction(2), 3: Fraction(-4, 3), 5: Fraction(4, 15)}
    for k, c in enumerate(coeffs):
        expect = want.get(k, Fraction(0))
        assert c == Qi(expect), f"coefficient of t^{k} is {c!r}"


@_check("the truncated sine keeps an empty spectrum")
def _truncation_empty():
    x = taylor_truncate(parse("sin(2*t)"), 0.0, 5)
    spec = spectrum_of_rational(to_rational(x))
    assert spec.frequencies == (), f"frequencies {spec.frequencies!r}"


# --- defining equations and their singular points ---------------------------


@_check("the sinc equation is d/ds with right side -3/(s^2+9)")
def _sinc_equation():
    sys = catalog_equation(parse("sinc(3)"))
    assert sys.op == WeylOp.D, "operator is not d/ds"
    want = RatFunc(CPoly([-3]), CPoly([9, 0, 1]))
    assert sys.rhs == want, f"right side {sys.rhs!r}"


@_check("the delay equation is d/ds + 1/2 with zero right side")
def _delay_equation():
    sys = catalog_equation(parse("delay(1/2)"))
    want = WeylOp((RatFunc(CPoly.scalar(Qi.coerce("1/2"))), RatFunc.ONE))
    assert sys.op == want, f"operator {sys.op!r}"
    assert sys.rhs.is_zero, f"right side {sys.rhs!r}"


@_check("the chirp equation is 2i*(d/ds) + (s - 2i) with right side 1")
def _chirp_equation():
    sys = catalog_equation(parse("chirp(1, 2, 0)"))
    want = WeylOp((RatFunc(CPoly([Qi(0, -2), Qi(1)])), RatFunc(Qi(0, 2))))
    assert sys.op == want, f"operator {sys.op!r}"
    assert sys.rhs == RatFunc.ONE, f"right side {sys.rhs!r}"


@_check("the sinc system has logarithmic points at plus and minus 3i")
def _sinc_points():
    pts = finite_singularities(catalog_equation(parse("sinc(3)")))
    assert len(pts) == 2, f"{len(pts)} singular points"
    _assert_close(pts[0].location, -3j, label="point")
    _assert_close(pts[1].location, 3j, label="point")
    for p in pts:
        assert p.kind == "regular", f"kind {p.kind!r}"
        assert p.refinement == "logarithmic", f"refinement {p.refinement!r}"


@_check("the raised cosine system classifies plus and minus 2i as regular")
def _rcos_points():
    pts = finite_singularities(catalog_equation(parse("rcos(2)")))
    assert len(pts) == 2, f"{len(pts)} singular points"
    _assert_close(pts[0].location, -2j, label="point")
    _assert_close(pts[1].location, 2j, label="point")
    assert all(p.kind == "regular" for p in pts), "expected regular points"


@_check("the delay system has no singular points and an empty spectrum")
def _delay_empty():
    for lag in ("1/2", "-1/2"):
        sys = catalog_equation(parse(f"delay({lag})"))
        assert finite_singularities(sys) == [], "unexpected singular point"
        a = analyze(parse(f"delay({lag})"))
        assert a.spectrum.frequencies == (), \
            f"frequencies {a.spectrum.frequencies!r}"


@_check("the chirp system is irregular at the point at infinity")
def _chirp_infinity():
    pt = singularity_at_infinity(catalog_equation(parse("chirp(1, 0, 0)")))
    assert pt is not None, "no point at infinity reported"
    assert pt.kind == "irregular", f"kind {pt.kind!r}"


# --- catalog spectra ---------------------------------------------------------


@_check("sinc(5) has spectrum -5, 5")
def _sinc_spectrum():
    _assert_freqs(analyze(parse("sinc(5)")).spectrum, (-5.0, 5.0))


@_check("rcos(2) has spectrum -2, 2")
def _rcos_spectrum():
    _assert_freqs(analyze(parse("rcos(2)")).spectrum, (-2.0, 2.0))


@_check("chirp(1,2,3) has an empty spectrum with the infinite flag set")
def _chirp_spectrum():
    spec = analyze(parse("chirp(1, 2, 3)")).spectrum
    assert spec.frequencies == (), f"frequencies {spec.frequencies!r}"
    assert spec.infinite_singularity, "infinite flag not set"


# --- instantaneous frequency -------------------------------------------------


@_check("the tone sin(2*t) reaches curvature frequency magnitude 4 at the "
        "quarter period, signed like the second derivative")
def _phi_peak():
    phi = phi_symbolic(parse("sin(2*t)"), math.pi / 4)
    _assert_close(abs(phi), 4.0, 1e-9, "magnitude")
    assert phi < 0, f"phi = {phi!r}: second derivative is negative there"


@_check("a constant signal has zero curvature frequency")
def _phi_constant():
    _assert_close(phi_symbolic(parse("5"), 0.3), 0.0, 0.0, "phi")


@_check("a linear ramp has zero curvature frequency")
def _phi_ramp():
    _assert_close(phi_symbolic(parse("t"), 1.7), 0.0, 0.0, "phi")


@_check("the tone comparison table reports the constant 2 on its other column")
def _ville_constant():
    cmp = phi_vs_ville_note(parse("sin(2*t)"))
    _assert_close(cmp.ville, 2.0, 0.0, "constant column")
    assert len(cmp.rows) == 9, f"{len(cmp.rows)} rows"


# --- Fourier contrasts -------------------------------------------------------


@_check("the discrete impulse transform is flat")
def _impulse_flat():
    n = 64
    values = [0.0] * n
    values[0] = 1.0
    sig = SampledSignal(tuple(float(k) for k in range(n)), tuple(values))
    mags = dft(sig).magnitudes
    worst = max(abs(m - 1.0) for m in mags)
    assert worst <= 1e-12, f"flatness deviation {worst!r}"


@_check("the closed-form sinc transform is 3 inside the band, 0 outside")
def _cardinal_values():
    assert sinc_fourier_closed_form(3.0, 0.0) == 3.0
    assert sinc_fourier_closed_form(3.0, 5.0) == 0.0


@_check("the impulse contrast pairs an empty spectrum with a flat transform")
def _impulse_contrast():
    report = contrast_report(parse("dirac()"))
    assert report.algebraic.frequencies == (), "spectrum not empty"
    assert "flat" in report.fourier, f"fourier column {report.fourier!r}"


@_check("the sinc sweep keeps two frequencies while the rectangle widens")
def _sinc_sweep():
    report = contrast_report(parse("sinc(2)"))
    assert len(report.sweep) == 4, f"{len(report.sweep)} sweep rows"
    for w, freqs, width in report.sweep:
        assert len(freqs) == 2, f"omega {w}: frequencies {freqs!r}"
        _assert_close(freqs[0], -w, label="frequency")
        _assert_close(freqs[1], w, label="frequency")
        _assert_close(width, 2 * w, 0.0, "rectangle width")


# --- command-line front end --------------------------------------------------


@_check("the spectrum command reports -3 and 3 for sin(3*t)")
def _cli_tone():
    from .cli import CliConfig, run
    status, out, err = run(CliConfig(command="spectrum", expr="sin(3*t)",
                                     output="json"))
    assert status == 0, f"status {status}, stderr {err!r}"
    data = json.loads(out)
    assert data["frequencies"] == [-3, 3], f"frequencies {data['frequencies']!r}"
    assert data["infinite_singularity"] is False, "infinite flag set"


@_check("the spectrum command reports an empty set for the impulse")
def _cli_impulse():
    from .cli import CliConfig, run
    status, out, err = run(CliConfig(command="spectrum", expr="dirac()"))
    assert status == 0, f"status {status}, stderr {err!r}"
    assert out.splitlines()[0] == "frequencies: (none)", f"output {out!r}"


# -----------------------------------------------------------------------------


def run_all() -> tuple[list[str], int]:
    """Run every check; returns (report lines, number of failures)."""
    lines = []
    failures = 0
    for name, fn in _CHECKS:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            lines.append(f"FAIL - {name}: {exc}")
        except Exception as exc:  # a crashed check is a failed check
            failures += 1
            lines.append(f"FAIL - {name}: {type(exc).__name__}: {exc}")
        else:
            lines.append(f"ok - {name}")
    lines.append(f"{len(_CHECKS) - failures} of {len(_CHECKS)} checks passed")
    return lines, failures

