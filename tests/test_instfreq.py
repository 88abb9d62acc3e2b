"""Curvature-based instantaneous frequency, symbolic and fitted."""

import io
import math
import random
import warnings

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles

from algspec.instfreq import (PhiTrace, SampledSignal, _phi_fitted_per_window,
                              phi_fitted, phi_symbolic, phi_vs_ville_note)
from algspec.sigexpr import (EvaluationError, ExpressionError, ParameterError,
                             parse)
from oracles import diff_time, evaluate


def _tone_samples(rate_hz: float, t_end: float):
    n = int(round(rate_hz * t_end)) + 1
    times = [k / rate_hz for k in range(n)]
    values = [math.sin(2.0 * t) for t in times]
    return SampledSignal(tuple(times), tuple(values))


# --- symbolic route ---------------------------------------------------------


def test_tone_value_at_quarter_period():
    # second derivative of sin(2t) at pi/4 is -4; first derivative vanishes
    got = phi_symbolic(parse("sin(2*t)"), math.pi / 4)
    assert abs(abs(got) - 4.0) <= 1e-12
    assert got < 0


def test_straight_lines_have_zero_phi():
    for text in ("t", "3*t + 1", "2"):
        assert phi_symbolic(parse(text), 0.7) == 0.0


def test_parabola_phi_positive():
    # x(t) = t^2 bends upward everywhere: phi = 2 / sqrt(1 + 4 t^2)
    e = parse("t^2")
    for t in (0.0, 0.5, -1.25):
        want = 2.0 / math.sqrt(1.0 + 4.0 * t * t)
        assert abs(phi_symbolic(e, t) - want) <= 1e-12


def test_tone_closed_form_and_scaling():
    rng = random.Random(2501)
    for _ in range(40):
        a = rng.randint(1, 3)
        w = rng.randint(1, 4)
        t = rng.uniform(0, 6)
        e = parse(f"{a}*sin({w}*t)")
        got = phi_symbolic(e, t)
        slope = a * w * math.cos(w * t)
        want = -(w * w) * a * math.sin(w * t) / math.sqrt(1.0 + slope * slope)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_sign_follows_second_derivative():
    rng = random.Random(2502)
    exprs = [parse(text) for text in
             ("sin(2*t)", "t^2 - t^3", "exp(-t)*cos(3*t)", "cos(t) + t^2")]
    for e in exprs:
        d2 = diff_time(diff_time(e))
        for _ in range(15):
            t = rng.uniform(-2, 2)
            x2 = evaluate(d2, t).real
            got = phi_symbolic(e, t)
            if abs(x2) > 1e-9:
                assert math.copysign(1.0, got) == math.copysign(1.0, x2)


def test_phi_is_slope_normalized_curvature():
    # phi equals the plane-curve curvature of the graph scaled by 1 + slope^2
    rng = random.Random(2503)
    e = parse("sin(2*t) + t^2/4")
    d1, d2 = diff_time(e), diff_time(diff_time(e))
    for _ in range(25):
        t = rng.uniform(0, 4)
        x1 = evaluate(d1, t).real
        x2 = evaluate(d2, t).real
        curvature = x2 / (1.0 + x1 * x1) ** 1.5
        assert abs(phi_symbolic(e, t) - curvature * (1.0 + x1 * x1)) <= 1e-12


def test_complex_valued_signal_is_rejected():
    with pytest.raises(EvaluationError):
        phi_symbolic(parse("exp(i*t)"), 0.5)


def test_distributions_are_rejected():
    with pytest.raises(ExpressionError):
        phi_symbolic(parse("dirac()"), 0.0)


def test_a_time_that_is_not_finite_is_rejected():
    for t in (math.nan, math.inf, -math.inf):
        with pytest.raises(EvaluationError, match="time must be finite"):
            phi_symbolic(parse("sin(t)"), t)


def _outcome(fn, *args):
    """The value, or the class of the failure."""
    try:
        return fn(*args)
    except Exception as err:            # compared, not swallowed
        return type(err)


@settings(max_examples=300, deadline=None)
@given(oracles.well_formed_texts, st.sampled_from([0.5, 1.25, -0.75]))
def test_jet_phi_equals_the_symbolic_derivative_route(text, t):
    try:
        e = parse(text)
    except ExpressionError:
        return
    got = _outcome(phi_symbolic, e, t)
    want = _outcome(oracles.phi_symbolic, e, t)
    if isinstance(want, type):
        assert got is want, text
    else:
        assert isinstance(got, float), text
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), text


def test_a_cancellation_beyond_the_series_budget_is_refused():
    # sin^2 + cos^2 - 1 vanishes identically, but its exact series shows
    # no nonzero term to cancel t^-100 within 64 extra terms
    with pytest.raises(EvaluationError, match="pole at t = 0.0"):
        phi_symbolic(parse("(sin(t)^2 + cos(t)^2 - 1)/t^100"), 0.0)
    assert phi_symbolic(parse("(sin(t)^2 + cos(t)^2 - 1)/t^60"), 0.0) == 0


def test_a_pole_at_a_root_float_evaluation_misses_is_refused():
    # 1/((t - 1/2)(t - 1/3)) at 1/2: the denominator's float value there is
    # not 0, but its exact value is, so the pole is refused
    e = parse("1/(t^2 - 5/6*t + 1/6)")
    with pytest.raises(EvaluationError, match="pole at t = 0.5"):
        phi_symbolic(e, 0.5)


def test_jet_phi_matches_a_40_digit_reference_on_the_bench_shapes():
    # every <scale>*sinc(w) and <scale>*rcos(w) that the benchmark's
    # equation workload draws, at t = k/4 for k = 0..16
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    ws = [Fraction(p, d) for d in (1, 2, 3, 4) for p in range(1, 4 * d + 1)
          if math.gcd(p, d) == 1]
    scales = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2),
              Fraction(-3, 2), Fraction(5, 3)]

    def mpf(q: Fraction):
        return mp.mpf(q.numerator) / q.denominator

    def reference(kind: str, w: Fraction, t: Fraction):
        w, t = mpf(w), mpf(t)
        s, c = mp.sin(w * t), mp.cos(w * t)
        if kind == "rcos":    # c q with q = 1/(t^2 + 1)
            q = 1 / (t * t + 1)
            q1, q2 = -2 * t * q ** 2, (6 * t * t - 2) * q ** 3
            return -w * s * q + c * q1, -w * w * c * q - 2 * w * s * q1 + c * q2
        if t == 0:            # sin(wt)/t = w - w^3 t^2/6 + ...
            return mp.mpf(0), -w ** 3 / 3
        return (w * c / t - s / t ** 2,
                -w * w * s / t - 2 * w * c / t ** 2 + 2 * s / t ** 3)

    count = 0
    for kind in ("sinc", "rcos"):
        for w in ws:
            for scale in scales:
                e = parse(f"{scale}*{kind}({w})")
                for k in range(17):
                    x1, x2 = reference(kind, w, Fraction(k, 4))
                    x1, x2 = mpf(scale) * x1, mpf(scale) * x2
                    want = x2 / mp.sqrt(1 + x1 * x1)
                    got = phi_symbolic(e, k / 4)
                    assert abs(got - want) <= 1e-12 * abs(want), (e, k)
                    count += 1
    assert count == 4896


# --- fitted route -----------------------------------------------------------


def test_fit_parameter_validation():
    sig = _tone_samples(50, 1.0)
    with pytest.raises(ValueError):
        phi_fitted(sig, window=10)
    with pytest.raises(ValueError):
        phi_fitted(sig, window=3)
    with pytest.raises(ValueError):
        phi_fitted(sig, degree=1)
    with pytest.raises(ValueError):
        phi_fitted(sig, degree=5)
    with pytest.raises(ValueError):
        phi_fitted(SampledSignal((0, 0.1, 0.2), (1, 2, 3)), window=5)


def test_sample_validation():
    with pytest.raises(ValueError):
        SampledSignal((0.0, 1.0), (1.0,))
    with pytest.raises(ValueError):
        SampledSignal((0.0, 1.0, 1.0), (1.0, 2.0, 3.0))
    for times, values in [((0.0, math.nan, 2.0), (1.0, 2.0, 3.0)),
                          ((0.0, 1.0, 2.0), (1.0, -math.inf, 3.0))]:
        with pytest.raises(ValueError, match="finite"):
            SampledSignal(times, values)
    with pytest.raises(ValueError):
        SampledSignal((0.0, 1.0, 2.0), (1.0, 2.0))
    with pytest.raises(TypeError):
        SampledSignal((0.0, 1.0), (None, 2.0))
    with pytest.raises(TypeError):
        SampledSignal((0.0, 1.0), (1.0, 2.0 + 1.0j))
    with pytest.raises(ValueError):
        SampledSignal((0.0, "one"), (1.0, 2.0))
    with pytest.raises(ValueError):
        PhiTrace((0.0,), (1.0, 2.0), "fitted")
    # float64 arrays are taken as they are, and checked the same way
    for times, values in [([0.0, math.nan, 2.0], [1.0, 2.0, 3.0]),
                          ([0.0, 1.0, 2.0], [1.0, math.inf, 3.0])]:
        with pytest.raises(ValueError, match="finite"):
            SampledSignal(np.array(times), np.array(values))
    for times in ([0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, -0.0, 1.0]):
        with pytest.raises(ValueError, match="increasing"):
            SampledSignal(np.array(times), np.ones(3))
    with pytest.raises(ValueError, match="equal length"):
        SampledSignal(np.arange(3.0), np.ones(2))
    with pytest.raises(TypeError):
        SampledSignal(np.arange(2.0), np.array([None, 2.0]))
    with pytest.raises(TypeError):
        SampledSignal(np.arange(6.0).reshape(3, 2), np.ones((3, 2)))


def _loadtxt_columns():
    text = "".join(f"{0.1 * k!r},{math.sin(0.3 * k)!r}\n" for k in range(50))
    return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)


def test_a_strided_array_column_gives_the_tuple_signal():
    data = _loadtxt_columns()
    assert not data[:, 0].flags.c_contiguous
    sig = SampledSignal(data[:, 0], data[:, 1])
    want = SampledSignal(tuple(data[:, 0].tolist()), tuple(data[:, 1].tolist()))
    assert sig == want and hash(sig) == hash(want)
    assert (sig.times, sig.values) == (want.times, want.values)
    assert all(type(v) is float for v in sig.times + sig.values)
    assert phi_fitted(sig) == phi_fitted(want)


def test_the_signal_keeps_its_own_copy_of_an_array():
    data = _loadtxt_columns()
    times, values = data[:, 0].copy(), data[:, 1].copy()
    sig = SampledSignal(times, values)
    want = (tuple(times.tolist()), tuple(values.tolist()))
    times[3] = 100.0
    values[:] = 0.0
    data[:] = 0.0
    assert (sig.times, sig.values) == want
    assert [a.tolist() for a in sig.arrays] == [list(w) for w in want]
    with pytest.raises(ValueError):
        sig.arrays[1][0] = 1.0
    with pytest.raises(AttributeError):
        sig.times = ()


def test_edges_are_left_out():
    sig = _tone_samples(100, 0.5)
    trace = phi_fitted(sig, window=11, degree=3)
    assert trace.method == "fitted"
    assert len(trace.times) == len(sig) - 10
    assert trace.times[0] == sig.times[5]
    assert trace.times[-1] == sig.times[-6]


def test_constant_samples_fit_to_zero():
    times = tuple(0.01 * k for k in range(80))
    sig = SampledSignal(times, tuple(1.5 for _ in times))
    trace = phi_fitted(sig)
    assert all(abs(p) <= 1e-12 for p in trace.phi)


def test_parabola_fit_is_exact():
    times = tuple(0.02 * k for k in range(120))
    sig = SampledSignal(times, tuple(t * t for t in times))
    trace = phi_fitted(sig, window=9, degree=2)
    for t, p in zip(trace.times, trace.phi):
        want = 2.0 / math.sqrt(1.0 + 4.0 * t * t)
        assert abs(p - want) <= 1e-10


def test_tone_fit_tracks_symbolic_value():
    e = parse("sin(2*t)")
    trace = phi_fitted(_tone_samples(200, 3.0), window=11, degree=3)
    worst = max(abs(p - phi_symbolic(e, t))
                for t, p in zip(trace.times, trace.phi))
    assert worst <= 1e-3


def test_fit_error_shrinks_with_sampling_step():
    e = parse("sin(2*t)")

    def worst(rate):
        trace = phi_fitted(_tone_samples(rate, 3.0), window=11, degree=3)
        return max(abs(p - phi_symbolic(e, t))
                   for t, p in zip(trace.times, trace.phi))

    coarse, fine = worst(100), worst(200)
    assert fine <= coarse / 2.0


def _cubic_samples(rng, t, unit=1.0):
    """Samples of a random cubic in t/unit, and its exact Phi in t."""
    a = [rng.uniform(-2, 2) for _ in range(4)]
    u = t / unit
    x = a[0] + u * (a[1] + u * (a[2] + u * a[3]))
    x1 = (a[1] + u * (2 * a[2] + 3 * a[3] * u)) / unit
    x2 = (2 * a[2] + 6 * a[3] * u) / unit / unit
    sig = SampledSignal(tuple(t.tolist()), tuple(x.tolist()))
    return sig, x, x2 / np.sqrt(1.0 + x1 * x1)


def _rounding_bound(x, dt, window, degree, phi):
    """Rounding of a window-sized dot product of the samples with the fit
    weights of x' and x'' (gamma_window * max|x| * |w_k|_1 / dt^k), taken
    for both routes, and carried through Phi = x''/sqrt(1 + x'^2), whose
    sensitivity to x' is at most |Phi|/2."""
    half = window // 2
    w = np.linalg.pinv(np.vander(np.arange(-half, half + 1), degree + 1,
                                 increasing=True))
    scale = 2 * window * np.finfo(float).eps * np.max(np.abs(x))
    d1 = scale * np.sum(np.abs(w[1])) / dt
    d2 = scale * 2 * np.sum(np.abs(w[2])) / dt ** 2
    return d2 + np.abs(phi) * d1 / 2


@pytest.mark.parametrize("n, window, degree", [
    (600, 7, 2), (601, 11, 3), (2001, 15, 4), (5000, 11, 4), (7001, 7, 3),
    (20000, 11, 3), (15, 15, 3), (601, 601, 4),
])
def test_fixed_weights_match_the_per_window_fit(n, window, degree):
    rng = random.Random(2504 + n + window)
    t = np.linspace(-1.0, 1.0, n)
    sig, x, exact = _cubic_samples(rng, t)
    got = phi_fitted(sig, window=window, degree=degree)
    want = _phi_fitted_per_window(sig, window, degree)
    assert got.times == want.times
    half = window // 2
    exact = exact[half:n - half]
    bound = _rounding_bound(x, t[1] - t[0], window, degree, exact)
    assert np.all(np.abs(np.array(got.phi) - want.phi) <= bound)
    if degree >= 3:
        # a cubic is fit exactly up to rounding
        assert np.all(np.abs(np.array(got.phi) - exact) <= bound)


def test_jittered_samples_take_the_per_window_fit():
    rng = random.Random(2505)
    t = np.linspace(-1.0, 1.0, 800)
    t[1:-1] += np.array([rng.uniform(-1e-4, 1e-4) for _ in range(798)])
    sig, _, exact = _cubic_samples(rng, t)
    got = phi_fitted(sig, window=11, degree=3)
    assert got == _phi_fitted_per_window(sig, 11, 3)
    assert np.max(np.abs(np.array(got.phi) - exact[5:-5])) <= 1e-6


def test_overflowing_slope_reads_zero_without_a_warning():
    times = tuple(0.001 * k for k in range(10))
    sig = SampledSignal(times, tuple(k * 1.7e307 for k in range(10)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = phi_fitted(sig, window=5, degree=2)
    assert got == _phi_fitted_per_window(sig, 5, 2)
    assert got.phi == (0.0,) * 6


def test_a_step_whose_scale_squared_underflows_prints_no_warning():
    # half*dt squared is 0 at this step; the fit may refuse, but silently
    times = 1e-165 * np.arange(20)
    sig = SampledSignal(times, 0.5 * np.arange(20.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            phi_fitted(sig)
        except OverflowError:
            pass


@pytest.mark.parametrize("shift", [-520, -560, -600])
def test_phi_scales_by_a_power_of_two_where_the_step_squared_underflows(
        shift):
    # times and values scaled by 2**shift: x' keeps its bits and x''
    # scales by 2**-shift, exactly, though (half*dt)**2 is subnormal or 0
    times = np.arange(40.0) / 3
    sig = SampledSignal(times, 0.5 + times * (1.25 - times * (0.75 + times)))
    want = phi_fitted(sig).arrays[1]
    small = SampledSignal(np.ldexp(times, shift),
                          np.ldexp(sig.arrays[1], shift))
    assert (5 / 3 * 2.0 ** shift) ** 2 < 2.0 ** -1022
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = phi_fitted(small).arrays[1]
    assert got.tolist() == np.ldexp(want, -shift).tolist()


@pytest.mark.parametrize("power", range(-9, 10))
def test_the_fit_verdict_does_not_depend_on_the_time_unit(power):
    # a cubic in t/(30*dt): the same samples at every unit, so every fit
    # must give a float at every unit
    dt = 10.0 ** power
    rng = random.Random(2506 + power)
    k = np.arange(-30, 30)
    jitter = np.array([rng.uniform(-1e-3, 1e-3) for _ in k])
    for window in (5, 11, 15):
        half = window // 2
        for degree in (2, 3, 4):
            sig, x, exact = _cubic_samples(rng, dt * k, 30 * dt)
            got = phi_fitted(sig, window=window, degree=degree)
            assert got.arrays is not None
            want = _phi_fitted_per_window(sig, window, degree)
            assert None not in want.phi
            exact = exact[half:len(k) - half]
            bound = _rounding_bound(x, dt, window, degree, exact)
            assert np.all(np.abs(got.arrays[1] - want.phi) <= bound)
            if degree >= 3:
                assert np.all(np.abs(got.arrays[1] - exact) <= bound)
            sig, _, exact = _cubic_samples(rng, dt * (k + jitter), 30 * dt)
            got = phi_fitted(sig, window=window, degree=degree)
            assert got.arrays is None and None not in got.phi
            assert np.all(np.isfinite(got.phi))
            if degree >= 3:
                exact = exact[half:len(k) - half]
                err = np.abs(np.array(got.phi) - exact)
                assert np.max(err) <= 1e-6 * np.max(np.abs(exact))


def test_the_uniform_weights_are_well_conditioned_at_every_window():
    # why the uniform route needs no rank test: its one matrix has
    # window >= degree + 1 distinct nodes in [-1, 1]
    worst = 0.0
    for window in range(5, 2002, 2):
        half = window // 2
        u = np.arange(-half, half + 1) / half
        for degree in (2, 3, 4):
            worst = max(worst, np.linalg.cond(
                np.vander(u, degree + 1, increasing=True)))
    assert worst < 30


@pytest.mark.parametrize("unit", [1e-6, 1.0, 1e6, 1e9])
def test_clustered_times_read_none_at_any_unit(unit):
    # eleven times in three clusters a few ulps wide: degree 3 cannot be
    # told from degree 2 there, while degree 2 is fit
    right = [unit]
    for _ in range(3):
        right.append(np.nextafter(right[-1], np.inf))
    ulp = np.spacing(unit)
    times = np.array([-t for t in reversed(right)] + [-ulp, 0.0, ulp]
                     + right)
    sig = SampledSignal(times, np.cos(times / unit))
    assert phi_fitted(sig, window=11, degree=3).phi == (None,)
    assert phi_fitted(sig, window=11, degree=4).phi == (None,)
    (phi,) = phi_fitted(sig, window=11, degree=2).phi
    assert phi * unit * unit == pytest.approx(2 * (math.cos(1.0) - 1.0),
                                              rel=1e-9)


# --- tone comparison table ---------------------------------------------------


def test_tone_table_is_constant_versus_varying():
    note = phi_vs_ville_note(parse("sin(2*t)"))
    assert note.amplitude == 1.0
    assert note.omega == 2.0
    assert note.ville == 2.0
    assert len(note.rows) == 9
    assert note.rows[0][0] == 0.0
    assert abs(note.rows[-1][0] - math.pi) <= 1e-12
    e = parse("sin(2*t)")
    for t, p in note.rows:
        assert abs(p - phi_symbolic(e, t)) <= 1e-12
    # the phi column actually varies, unlike the constant column
    values = {round(p, 6) for _, p in note.rows}
    assert len(values) > 1


def test_tone_table_scaled_amplitude():
    note = phi_vs_ville_note(parse("3*sin(2*t)"))
    assert note.amplitude == 3.0
    assert note.omega == 2.0
    assert note.ville == 2.0


def test_zero_signal_table():
    note = phi_vs_ville_note(parse("0"))
    assert note.amplitude == 0.0
    assert note.ville == 0.0
    assert len(note.rows) == 9
    assert all(p == 0.0 for _, p in note.rows)


def test_table_rejects_zero_frequency_and_non_tones():
    with pytest.raises(ParameterError):
        phi_vs_ville_note(parse("sin(0)"))
    with pytest.raises(ParameterError):
        phi_vs_ville_note(parse("t"))
    with pytest.raises(ParameterError):
        phi_vs_ville_note(parse("sin(2*t + 1/2)"))


def test_table_text_layout():
    text = phi_vs_ville_note(parse("sin(2*t)")).to_text()
    lines = text.splitlines()
    assert lines[0] == "tone: 1*sin(2*t)"
    assert lines[1] == "ville frequency (analytic signal): constant 2"
    assert len(lines) == 3 + 9
