"""Discrete Fourier route and the two-column contrast reports."""

import math
import random

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from algspec import fouriercontrast
from algspec.cli import CliConfig, run
from algspec.fouriercontrast import (_SWEEP, ContrastReport, _sinc_sweep,
                                     contrast_report, dft, dft_direct,
                                     sinc_fourier_closed_form)
from algspec.instfreq import SampledSignal
from algspec.pipeline import analyze
from algspec.ratfield import Qi
from algspec.sigexpr import Const, ParameterError, Sin, Sinc, make_mul, parse


def _uniform(values, dt=1.0):
    times = tuple(k * dt for k in range(len(values)))
    return SampledSignal(times, tuple(values))


def _close_seq(got, want, tol=1e-9):
    return len(got) == len(want) and all(
        abs(g - w) <= tol for g, w in zip(got, want))


# --- transforms ---------------------------------------------------------------


def test_both_routes_agree_with_reference():
    rng = random.Random(2601)
    for n in (64, 48, 255, 1023):   # np.fft at powers of two and other n
        values = [rng.uniform(-1, 1) for _ in range(n)]
        mine = dft(_uniform(values)).magnitudes
        direct = np.abs(dft_direct(values))
        reference = np.abs(np.fft.fft(np.asarray(values)))
        assert max(abs(a - b) for a, b in zip(mine, direct)) <= 1e-9
        assert max(abs(a - b) for a, b in zip(mine, reference)) <= 1e-9


@pytest.mark.parametrize("lengths", [range(2, 301), (4095, 4096)])
def test_dft_tuples_are_the_per_element_float_conversions(lengths):
    rng = np.random.default_rng(2602)
    for n in lengths:
        dt = 0.01 * (1 + n % 7)
        sig = _uniform(rng.standard_normal(n).tolist(), dt)
        got = dft(sig)
        coeffs = np.fft.fft(np.asarray(sig.values, dtype=float))
        freqs = 2.0 * math.pi * np.fft.fftfreq(n, float(np.diff(sig.times)[0]))
        assert [m.hex() for m in got.magnitudes] == [
            float(abs(c)).hex() for c in coeffs]
        assert [f.hex() for f in got.bin_frequencies] == [
            float(f).hex() for f in freqs]


def test_impulse_spectrum_is_flat():
    values = [0.0] * 64
    values[0] = 1.0
    mags = dft(_uniform(values)).magnitudes
    assert max(abs(m - 1.0) for m in mags) <= 1e-12


def test_parseval_energy_identity():
    rng = random.Random(2602)
    for n in (32, 45):
        values = [rng.uniform(-1, 1) for _ in range(n)]
        mags = dft(_uniform(values)).magnitudes
        time_energy = sum(v * v for v in values)
        freq_energy = sum(m * m for m in mags) / n
        assert abs(time_energy - freq_energy) <= 1e-9 * (1 + time_energy)


def test_bin_frequencies_are_angular():
    res = dft(_uniform([1.0, 0.0, -1.0, 0.0], dt=0.5))
    assert res.bin_frequencies[0] == 0.0
    assert abs(res.bin_frequencies[1] - 2.0 * math.pi / 2.0) <= 1e-12


def test_tone_dominant_bins():
    n, dt = 256, 0.05
    times = tuple(k * dt for k in range(n))
    sig = SampledSignal(times, tuple(math.sin(2.0 * t) for t in times))
    dominant = dft(sig).dominant_frequencies(2)
    resolution = 2.0 * math.pi / (n * dt)
    assert len(dominant) == 2
    for f, want in zip(dominant, (-2.0, 2.0)):
        assert abs(f - want) <= resolution / 2 + 1e-12


def _dominant_by_sort_key(result, count):
    order = sorted(range(len(result.magnitudes)),
                   key=lambda k: (-result.magnitudes[k], k))
    return tuple(sorted(result.bin_frequencies[k] for k in order[:count]))


@pytest.mark.parametrize("magnitudes", [
    (1.0, 3.0, 3.0, 2.0, 3.0, 0.0),
    (2.0, 2.0, 2.0, 2.0),
    (0.0, math.inf, 1.0, math.inf, 5.0, math.inf),
    (math.inf, 7.0, 7.0, 1e308, 5e-324, 0.0, 1e308),
    tuple(float(k * 7 % 5) for k in range(100)),
])
def test_dominant_bins_match_the_sort_key_order(magnitudes):
    n = len(magnitudes)
    freqs = tuple((k if k < (n + 1) // 2 else k - n) * 0.5 for k in range(n))
    result = fouriercontrast.DftResult(freqs, magnitudes)
    for count in range(n + 2):
        assert result.dominant_frequencies(count) == _dominant_by_sort_key(
            result, count)


def test_sampling_validation():
    with pytest.raises(ValueError):
        dft(SampledSignal((0.0,), (1.0,)))
    with pytest.raises(ValueError):
        dft(SampledSignal((0.0, 1.0, 3.0), (1.0, 2.0, 3.0)))


def test_closed_form_rectangle():
    assert sinc_fourier_closed_form(3.0, 0.0) == 3.0
    assert sinc_fourier_closed_form(3.0, -2.9) == 3.0
    assert sinc_fourier_closed_form(3.0, 5.0) == 0.0
    assert sinc_fourier_closed_form(3.0, 3.0) == 1.5
    assert sinc_fourier_closed_form(3.0, -3.0) == 1.5
    with pytest.raises(ValueError):
        sinc_fourier_closed_form(0.0, 1.0)
    with pytest.raises(ValueError):
        sinc_fourier_closed_form(-2.0, 1.0)


# --- contrast reports -----------------------------------------------------------


def test_impulse_report():
    report = contrast_report(parse("dirac()"))
    assert report.algebraic.frequencies == ()
    assert "flat" in report.fourier
    assert report.sweep == ()
    assert report.dft_dominant == ()


def test_cardinal_sine_report_sweep():
    report = contrast_report(parse("sinc(3)"))
    assert _close_seq(report.algebraic.frequencies, (-3.0, 3.0))
    assert "rectangle of height 3" in report.fourier
    assert len(report.sweep) == 4
    for w, freqs, width in report.sweep:
        assert _close_seq(freqs, (-w, w))
        assert width == 2.0 * w


def test_tone_report_lines_and_bins():
    report = contrast_report(parse("sin(3*t)"))
    assert _close_seq(report.algebraic.frequencies, (-3.0, 3.0))
    assert "line pair at -3 and 3" in report.fourier
    resolution = 2.0 * math.pi / (256 * 0.05)
    assert len(report.dft_dominant) == 2
    for f, want in zip(sorted(report.dft_dominant), (-3.0, 3.0)):
        assert abs(f - want) <= resolution / 2 + 1e-12


_tone_rates = st.integers(1, 8).flatmap(
    lambda d: st.integers(-200 * d, 200 * d).filter(bool).map(
        lambda k: Fraction(k, d)))
_tone_phases = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 2),
                     Fraction(3), Fraction(-3)]),
    st.fractions(-20, 20, max_denominator=12))
_tone_scales = st.one_of(
    st.sampled_from([Qi(1), Qi(-1), Qi(0, 1), Qi(Fraction(-3, 2))]),
    st.builds(Qi, st.fractions(-9, 9, max_denominator=5),
              st.fractions(-9, 9, max_denominator=5)).filter(bool))


@settings(max_examples=200, deadline=None)
@given(_tone_rates, _tone_phases, _tone_scales)
@example(Fraction(2), Fraction(0), Qi(1))
@example(Fraction(-200), Fraction(3), Qi(0, 1))
@example(Fraction(1, 8), Fraction(-1, 2), Qi(Fraction(-3, 2)))
def test_tone_contrast_bins_are_the_dft_of_the_sampled_tone(w, phase, scale):
    atom = Sin(w, phase)
    e = make_mul([Const(scale), atom])
    assert contrast_report(e).dft_dominant == oracles.tone_dft_dominant(atom)


def test_impulse_line_is_read_from_the_dft_of_the_impulse():
    values = [0.0] * 64
    values[0] = 1.0
    flat = max(abs(m - 1.0) for m in dft(_uniform(values)).magnitudes)
    assert contrast_report(parse("dirac()")).fourier == (
        f"flat: all frequencies present (impulse DFT magnitudes are 1 "
        f"to within {flat:.1e})")


def test_algebraic_column_is_the_pipeline_spectrum():
    for text in ("dirac()", "sinc(3)", "sin(3*t)"):
        e = parse(text)
        assert contrast_report(e).algebraic == analyze(e).spectrum


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(fouriercontrast, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(fouriercontrast, name, counted)
    return calls


def test_a_second_sinc_report_analyses_only_its_signal(monkeypatch):
    contrast_report(parse("sinc(3)"))
    calls = _counting(monkeypatch, "analyze")
    e = parse("5*sinc(1/3)")
    assert len(contrast_report(e).sweep) == 4
    assert calls == [(e,)]


def test_a_second_impulse_report_runs_no_dft(monkeypatch):
    contrast_report(parse("dirac()"))
    calls = _counting(monkeypatch, "dft")
    assert "flat" in contrast_report(parse("2*dirac()")).fourier
    assert calls == []


def test_the_cached_sweep_is_the_pipeline_spectrum():
    assert _sinc_sweep() == tuple(
        (float(sw), analyze(Sinc(sw)).spectrum.frequencies, 2.0 * sw)
        for sw in _SWEEP)


@pytest.mark.parametrize("output", ["text", "json"])
def test_the_first_and_a_second_sinc_contrast_print_the_same(output):
    _sinc_sweep.cache_clear()
    config = CliConfig("contrast", "sinc(3/2)", output=output)
    first = run(config)
    assert first[0] == 0
    assert run(config) == first


def test_report_rejects_other_signals():
    with pytest.raises(ParameterError):
        contrast_report(parse("t^2"))
    with pytest.raises(ParameterError):
        contrast_report(parse("sin(0)"))
    with pytest.raises(ParameterError):
        contrast_report(parse("delay(1/2)"))


def test_report_rendering():
    report = contrast_report(parse("sinc(2)"))
    text = report.to_text()
    assert text.splitlines()[0].startswith("signal: sinc(2)")
    data = report.as_dict()
    assert data["signal"] == "sinc(2)"
    assert _close_seq(data["algebraic_frequencies"], [-2.0, 2.0])
    assert data["infinite_singularity"] is False
    assert isinstance(data["fourier"], str)
    assert len(data["sweep"]) == 4
