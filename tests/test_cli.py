"""Command-line front end: parsing, rendering, exit codes."""

import csv
import functools
import inspect
import json
import math
import os
import random
import shlex
import subprocess
import sys
import tempfile
import time
import typing
import warnings
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import algspec
import oracles
from algspec import (cli, fouriercontrast, instfreq, opcalc, pipeline,
                     ratfield, selftest, sigexpr, weylode)
from algspec.cli import CliConfig, main, run
from algspec.instfreq import (PhiTrace, SampledSignal, phi_fitted,
                              phi_symbolic)
from algspec.ratfield import RootFindingError
from algspec.sigexpr import parse

_TONE_JSON = ('{"frequencies":[-3,3],"sources":['
              '{"re":0,"im":-3,"kind":"pole","order":1},'
              '{"re":0,"im":3,"kind":"pole","order":1}],'
              '"infinite_singularity":false}')


# --- spectrum ----------------------------------------------------------------


def test_spectrum_json_golden():
    status, out, err = run(CliConfig("spectrum", expr="sin(3*t)",
                                     output="json"))
    assert (status, err) == (0, "")
    assert out == _TONE_JSON


def test_spectrum_text_for_impulse():
    status, out, err = run(CliConfig("spectrum", expr="dirac()"))
    assert (status, err) == (0, "")
    assert out == "frequencies: (none)\ninfinite singularity: no"


def test_spectrum_flags_linear_sweep():
    status, out, _ = run(CliConfig("spectrum", expr="chirp(1,2,3)"))
    assert status == 0
    assert out == "frequencies: (none)\ninfinite singularity: yes"


def test_spectrum_explained_for_equation_route():
    status, out, _ = run(CliConfig("spectrum", expr="sinc(3)", explain=True))
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "class: ode-defined"
    assert lines[1] == "equation: [d/ds] x = -3 / (s^2 + 9)"
    assert lines[2] == "singular point -3i: regular, logarithmic"
    assert lines[3] == "singular point 3i: regular, logarithmic"
    assert lines[4] == "point at infinity: ordinary"
    assert lines[5] == "frequencies: -3 3"
    assert lines[6] == "infinite singularity: no"


@pytest.mark.parametrize("expr, lines", [
    ("rcos(2)", ["equation: [(d/ds)^2 + 1] x = (s) / (s^2 + 4)",
                 "singular point -2i: regular, unclassified",
                 "singular point 2i: regular, unclassified",
                 "point at infinity: irregular, unclassified",
                 "frequencies: -2 2",
                 "infinite singularity: no"]),
    ("delay(1/2)", ["equation: [d/ds + (1/2)] x = 0",
                    "point at infinity: irregular, unclassified",
                    "frequencies: (none)",
                    "infinite singularity: no"]),
    ("chirp(1,2,3)", ["equation: [2i*d/ds + (s - 2i)] x = "
                      "(-0.9899924966+0.14112000806i)",
                      "point at infinity: irregular, unclassified",
                      "frequencies: (none)",
                      "infinite singularity: yes"]),
])
def test_spectrum_explained_golden_for_catalog_atoms(expr, lines):
    status, out, err = run(CliConfig("spectrum", expr=expr, explain=True))
    assert (status, err) == (0, "")
    assert out == "\n".join(["class: ode-defined"] + lines)


@pytest.mark.parametrize("expr, points, freqs", [
    ("sinc(1)", ["-i", "i"], "-1 1"),
    ("rcos(1)", ["-i", "i"], "-1 1"),
    ("sinc(1e-9)", ["-1e-09i", "1e-09i"], "-1e-09 1e-09"),
    ("rcos(1e-300)", ["-1e-300i", "1e-300i"], "-1e-300 1e-300"),
    ("rcos(1e200)", ["-1e+200i", "1e+200i"], "-1e+200 1e+200"),
    ("sinc(1e9)", ["-1000000000i", "1000000000i"],
     "-1000000000 1000000000"),
])
def test_catalog_points_are_the_exact_roots(expr, points, freqs):
    # +-iw is read off s^2 + w^2 exactly: no float noise in the printed
    # point, no rate dropped for being small or refused for being large,
    # and the source order of every other spectrum
    status, out, err = run(CliConfig("spectrum", expr=expr, explain=True))
    assert (status, err) == (0, "")
    lines = out.splitlines()
    assert [ln.split(":")[0] for ln in lines[2:4]] \
        == [f"singular point {p}" for p in points]
    assert lines[-2] == "frequencies: " + freqs
    status, out, err = run(CliConfig("spectrum", expr=expr, output="json"))
    assert (status, err) == (0, "")
    w = float(expr[5:-1])
    doc = json.loads(out)
    assert doc["frequencies"] == [-w, w]
    assert [(src["re"], src["im"]) for src in doc["sources"]] \
        == [(0, -w), (0, w)]


def test_spectrum_explained_for_image_route():
    status, out, _ = run(CliConfig("spectrum", expr="sin(3*t)", explain=True))
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "class: exponential-polynomial"
    assert lines[1] == "operational image: 3 / (s^2 + 9)"
    assert lines[2] == "pole -3i: order 1"
    assert lines[3] == "pole 3i: order 1"
    assert lines[5] == "infinite singularity: no"


@pytest.mark.parametrize("expr, cls, image", [
    ("dirac()", "dirac", "1"),
    ("2*dirac()", "dirac", "2"),
    ("0", "exponential-polynomial", "0"),
])
def test_spectrum_explained_with_no_poles(expr, cls, image):
    status, out, err = run(CliConfig("spectrum", expr=expr, explain=True))
    assert (status, err) == (0, "")
    assert out == "\n".join([f"class: {cls}", f"operational image: {image}",
                             "poles: (none)", "frequencies: (none)",
                             "infinite singularity: no"])


def test_spectrum_explained_poles_sit_on_the_exact_rates():
    status, out, _ = run(CliConfig("spectrum", expr="sin(t)", explain=True))
    assert status == 0
    assert out.splitlines()[2:4] == ["pole -i: order 1", "pole i: order 1"]


@pytest.mark.parametrize("expr, freqs", [
    ("sin(t)^12", "-12 -10 -8 -6 -4 -2 2 4 6 8 10 12"),
    ("sin(1000*t)+sin(1/1000*t)", "-1000 -0.001 0.001 1000"),
    ("sin(1e-9*t)", "-1e-09 1e-09"),
])
def test_spectrum_reads_exact_rates(expr, freqs):
    status, out, err = run(CliConfig("spectrum", expr=expr))
    assert (status, err) == (0, "")
    assert out.splitlines()[0] == "frequencies: " + freqs


def test_spectrum_omits_rates_whose_float_is_zero():
    # 1e-400 is exact and nonzero, but it rounds to the float 0.
    status, out, err = run(CliConfig("spectrum", expr="sin(1e-400*t)"))
    assert (status, err) == (0, "")
    assert out.splitlines()[0] == "frequencies: (none)"


def test_spectrum_rejects_deep_nesting(capsys):
    status = main(["spectrum", "(" * 2000 + "t" + ")" * 2000])
    captured = capsys.readouterr()
    assert (status, captured.out) == (1, "")
    assert captured.err.startswith("error: input: expression nested too "
                                   "deeply")
    assert captured.err.count("\n") == 1


def test_spectrum_rejects_bad_expressions():
    status, out, err = run(CliConfig("spectrum", expr="sin(2*t"))
    assert status == 1 and out == ""
    assert err.startswith("error: input:")
    status, _, err = run(CliConfig("spectrum", expr="sinc(2)*sin(3*t)"))
    assert status == 1
    assert err.startswith("error: input:")


# --- opform ------------------------------------------------------------------


def test_opform_text_and_json():
    status, out, _ = run(CliConfig("opform", expr="sin(3*t)"))
    assert (status, out) == (0, "3 / (s^2 + 9)")
    status, out, _ = run(CliConfig("opform", expr="sin(3*t)", output="json"))
    assert status == 0
    assert out == ('{"numerator":"3","denominator":"s^2 + 9",'
                   '"strictly_proper":true}')
    status, out, _ = run(CliConfig("opform", expr="dirac()"))
    assert (status, out) == (0, "1")


def test_opform_of_a_power_of_a_mixture():
    status, out, err = run(CliConfig("opform", expr="(sin(t)+cos(2*t))^4"))
    assert (status, err) == (0, "")
    assert out.endswith("/ (s^17 + 204s^15 + 16422s^13 + 669188s^11 + "
                        "14739153s^9 + 173721912s^7 + 1017067024s^5 + "
                        "2483133696s^3 + 1625702400s)")


@pytest.mark.parametrize("cmd, expr, line", [
    ("spectrum", "rcos(1e-300)",
     "equation: [(d/ds)^2 + 1] x = (s) / (s^2 + 1e-600)"),
    ("opform", "sin(1e-200*t)", "1e-200 / (s^2 + 1e-400)"),
    ("opform", "sin(3e-200*t)/7", "4.28571428571e-201 / (s^2 + 9e-400)"),
])
def test_coefficients_below_the_float_range_keep_their_digits(cmd, expr,
                                                               line):
    # s^2 + 10^-600 is exact; its float would print as 0
    status, out, err = run(CliConfig(cmd, expr=expr, explain=True))
    assert (status, err) == (0, "")
    assert line in out.splitlines()


def test_opform_requires_an_image():
    status, _, err = run(CliConfig("opform", expr="sinc(3)"))
    assert status == 1
    assert err == ("error: input: opform requires an exponential polynomial "
                   "or the impulse")


@pytest.mark.parametrize("argv", [
    ["spectrum", "sin(1e400*t)"],
    ["spectrum", "sin(1e400*t)", "--json"],
    ["spectrum", "sin(1e400*t)", "--explain"],
    ["spectrum", "exp(1e400*t)"],
    ["contrast", "sin(1e400*t)"],
    # the tone's sample angles overflow on the contrast's 256-point grid
    ["contrast", "sin(1e308*t)"],
    ["contrast", "-sin(2e307*t + 1/2)"],
    ["instfreq", "1e400*sin(t)", "--at", "1"],
    ["instfreq", "sin(1e400*t)", "--at", "1"],
    ["instfreq", "exp(1e400*t)", "--at", "1"],
    ["instfreq", "exp(1000*t)", "--at", "1"],
    # time times rate overflows at a finite time
    ["instfreq", "sin(2*t)", "--at", "1e308"],
    ["instfreq", "cos(3*t)", "--at", "1e308"],
    ["instfreq", "sinc(2)", "--at", "1e308"],
    ["instfreq", "rcos(3)", "--at", "1e308"],
    ["instfreq", "chirp(1,0,0)", "--at", "1e308"],
    ["instfreq", "exp(2*i*t)", "--at", "1e308"],
])
def test_a_value_beyond_the_float_range_is_an_input_error(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    assert (status, captured.out) == (1, "")
    assert captured.err == "error: input: a value exceeds the float range\n"


def test_a_tone_whose_sample_angles_stay_finite_answers(capsys):
    # 12.75 s, the grid's last time, times 1e307 is below the float maximum
    assert main(["contrast", "sin(1e307*t)"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("dft dominant bins: -18.6532 18.6532\n")


def test_a_tone_whose_float_angles_cannot_follow_it_is_refused(capsys):
    # every sample angle of sin(2*t + 1e300) rounds to 1e300, whose float
    # spacing, about 1.5e284, exceeds the step 2 * 0.05 between samples
    assert main(["contrast", "sin(2*t+1e300)"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: input: the float sample angles of the tone cannot follow "
        "it: their spacing at 1e+300 is at least the step 0.1 between "
        "samples\n")
    # at 1e10 the spacing, about 1.9e-6, is far below the step
    assert main(["contrast", "sin(2*t+1e10)"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.endswith("dft dominant bins: -1.9635 1.9635\n")


@pytest.mark.parametrize("argv", [
    ["opform", "(t+1)^200*exp(-t/3)"],
    ["spectrum", "(t+1)^200*exp(-t/3)", "--explain"],
])
def test_a_coefficient_beyond_the_float_range_prints_at_12_digits(argv,
                                                                  capsys):
    # coefficients up to about 1.1e375 over powers of 3: the largest prints
    # in scientific notation, within half a unit of its 12th digit
    r = opcalc.to_rational(opcalc.from_signal(parse(argv[1])))
    big = max((q.re for q in r.num.coeffs + r.den.coeffs), key=abs)
    assert big > 10 ** 308
    assert main(argv) == 0
    out = capsys.readouterr().out
    text = str(ratfield.Qi(big))
    assert f" + {text})" in out
    mant, exp = text.split("e")
    assert len(mant.replace(".", "")) <= 12
    assert abs(Fraction(Decimal(text)) - big) \
        <= Fraction(5, 10 ** 12) * 10 ** (int(exp) + 1)


def test_opform_prints_an_exact_image_beyond_the_float_range():
    # the image builds no float spectrum, so its rates need not fit a float
    w = 10 ** 400
    status, out, err = run(CliConfig("opform", expr="sin(1e400*t)"))
    assert (status, out, err) == (0, f"{w} / (s^2 + {w * w})", "")
    status, out, err = run(CliConfig("opform", expr="sin(1e400*t)",
                                     output="json"))
    assert (status, err) == (0, "")
    assert out == (f'{{"numerator":"{w}","denominator":"s^2 + {w * w}",'
                   f'"strictly_proper":true}}')
    status, out, err = run(CliConfig("opform", expr="exp(1e400*t)"))
    assert (status, out, err) == (0, f"1 / (s - {w})", "")
    status, out, err = run(CliConfig("opform", expr="exp(1e400*t)",
                                     output="json"))
    assert (status, err) == (0, "")
    assert out == (f'{{"numerator":"1","denominator":"s - {w}",'
                   f'"strictly_proper":true}}')


def test_printed_digits_have_a_limit_that_is_not_an_input_error(capsys):
    limit = sys.get_int_max_str_digits()
    want = (f"error: output: a number exceeds the limit of {limit} digits "
            f"for a printed integer\n")
    for argv in (["opform", "t^1600"], ["opform", "t^1600", "--json"],
                 ["spectrum", "t^1600", "--explain"],
                 ["contrast", "1" + "0" * 5000 + "*sin(t)"]):
        status = main(argv)
        captured = capsys.readouterr()
        assert (status, captured.out, captured.err) == (1, "", want), argv[:2]
    # the limit is the interpreter's own, and is left in place
    assert sys.get_int_max_str_digits() == limit


def test_opform_prints_a_long_exact_coefficient():
    status, out, err = run(CliConfig("opform", expr="t^1400"))
    assert (status, err) == (0, "")
    assert out == f"{math.factorial(1400)} / (s^1401)"


def test_a_literal_past_the_int_digit_limit_still_parses():
    huge = "1" + "0" * 5000
    status, out, err = run(CliConfig("spectrum", expr=f"{huge}*sin(t)"))
    assert (status, out, err) == (0, "frequencies: -1 1\n"
                                     "infinite singularity: no", "")


def test_an_exponent_past_the_int_digit_limit_is_an_input_error():
    status, out, err = run(CliConfig("spectrum", expr="t^" + "9" * 5000))
    assert (status, out, err) == (
        1, "", "error: input: exponent too large at byte offset 2")


# --- instfreq ----------------------------------------------------------------


def test_instfreq_symbolic_point():
    status, out, _ = run(CliConfig("instfreq", expr="sin(2*t)",
                                   at=math.pi / 4, output="json"))
    assert status == 0
    data = json.loads(out)
    assert data["method"] == "symbolic"
    assert len(data["times"]) == len(data["phi"]) == 1
    assert abs(data["phi"][0] - (-4.0)) <= 1e-12


def test_instfreq_of_a_real_chirp_pair_follows_the_closed_form(capsys):
    # chirp(1,2,3) + chirp(-1,-2,-3) = 2cos(theta), theta = t^2 + 2t + 3:
    # x' = -2 sin(theta) theta' and x'' = -2 cos(theta) theta'^2
    # - 2 sin(theta) theta'', with theta' = 3 and theta'' = 2 at t = 1/2
    status = main(["instfreq", "chirp(1,2,3) + chirp(-1,-2,-3)",
                   "--at", "0.5"])
    out = capsys.readouterr().out
    theta = 4.25
    x1 = -2 * math.sin(theta) * 3
    x2 = -2 * math.cos(theta) * 9 - 2 * math.sin(theta) * 2
    assert status == 0
    assert out.splitlines()[-1] == "0.5 2.12541070577"
    assert format(x2 / math.sqrt(1 + x1 * x1), ".12g") == "2.12541070577"


@pytest.mark.parametrize("expr, phi", [
    ("sinc(2)", "-2.66666666667"),          # -w^3/3
    ("-3/2*sinc(1/2)", "0.0625"),           # -c w^3/3
    ("sinc(2)+1", "-2.66666666667"),        # the constant changes nothing
    ("sinc(2)*sinc(2)", "-10.6666666667"),  # 2 x(0) x''(0) = -32/3
    ("sinc(2)/(t+1)", "0.596284794"),       # (4/3) / sqrt(5)
])
def test_instfreq_sinc_at_zero_takes_the_series_limit(expr, phi, capsys):
    status = main(["instfreq", "--at", "0", "--", expr])
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    assert captured.out == f"method: symbolic\nt phi\n0 {phi}\n"


def test_instfreq_at_zero_cancels_a_rational_pole_in_the_exact_series(capsys):
    # (sinc(2) - 2)/t^2 = -4/3 + (4/15) t^2 + ..., so x''(0) = 8/15; the
    # exact series of sinc(2) - 2 starts at t^2 and cancels the pole
    status = main(["instfreq", "(sinc(2)-2)/t^2", "--at", "0"])
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    assert captured.out == "method: symbolic\nt phi\n0 0.533333333333\n"


@pytest.mark.parametrize("expr, phi", [
    ("sin(t)/t", "-0.333333333333"),           # x = 1 - t^2/6
    ("sinc(2)*sin(t)/t", "-3.33333333333"),    # x = 2 - (5/3) t^2
    ("(sin(t)/t)^80", "-26.6666666667"),       # x = 1 - (80/6) t^2 + ...
])
def test_instfreq_at_zero_answers_removable_singularities(expr, phi, capsys):
    status = main(["instfreq", "--at", "0", "--", expr])
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    assert captured.out == f"method: symbolic\nt phi\n0 {phi}\n"


@pytest.mark.parametrize("expr, at", [
    ("1/t", "0"), ("sin(t)/t^2", "0"), ("sinc(2)/t", "0"),
    ("1/(t-1)", "1"), ("sin(t-1)/(t-1)", "1"),
])
def test_instfreq_refuses_a_pole_that_does_not_cancel(expr, at, capsys):
    status = main(["instfreq", "--at", at, "--", expr])
    captured = capsys.readouterr()
    assert (status, captured.out) == (1, "")
    assert captured.err == ("error: input: rational factor has a pole "
                            f"at t = {float(at)}\n")


def test_instfreq_complex_sinc_at_zero_is_refused(capsys):
    status = main(["instfreq", "i*sinc(2)", "--at", "0"])
    captured = capsys.readouterr()
    assert (status, captured.out) == (1, "")
    assert captured.err == ("error: input: signal is complex-valued; "
                            "the formula needs a real signal\n")


@pytest.mark.parametrize("expr, phi, want", [
    # x = cos(1) - sin(1)/2 t - cos(1)/6 t^2 + ...
    ("(sin(t+1) - sin(0, 1))/t", "-0.166006062482",
     -math.cos(1) / 3 / math.sqrt(1 + math.sin(1) ** 2 / 4)),
    # x = -2 sin(1/3) - 2 cos(1/3) t + 4/3 sin(1/3) t^2 + ...
    ("(cos(2*t + 1/3) - cos(0, 1/3))/t", "0.40806804442",
     8 / 3 * math.sin(1 / 3) / math.sqrt(1 + 4 * math.cos(1 / 3) ** 2)),
    # x = -4 sin(3) - 4 cos(3) t + (8/3 sin(3) - 4 cos(3)) t^2 + ...
    ("(chirp(1,2,3) - chirp(1,0,3))/t + (chirp(-1,-2,-3) - chirp(-1,0,-3))/t",
     "2.12340364307",
     (16 / 3 * math.sin(3) - 8 * math.cos(3))
     / math.sqrt(1 + 16 * math.cos(3) ** 2)),
], ids=["sin", "cos", "chirp"])
def test_instfreq_at_zero_cancels_a_pole_under_a_phase(expr, phi, want,
                                                       capsys):
    # the series at 0 reads each phase exactly, so the constant terms of
    # the numerator cancel and leave the limit
    status = main(["instfreq", "--at", "0", "--", expr])
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    assert captured.out == f"method: symbolic\nt phi\n0 {phi}\n"
    assert abs(float(phi) - want) <= 1e-11


@pytest.mark.parametrize("expr, at, out", [
    # exact at 0, so any imaginary part is refused; a float one within
    # 1e-9 of the real part passes elsewhere
    ("sin(t) + 1e-12*i", "0", None),
    ("sin(t) + 1e-12*i", "0.5", "0.5 -0.360342916017"),
    ("chirp(1,2,3) + chirp(-1,-2,-3)", "0", "0 6.40541229973"),
])
def test_instfreq_needs_an_exactly_real_signal_at_zero(expr, at, out,
                                                       capsys):
    status = main(["instfreq", "--at", at, "--", expr])
    captured = capsys.readouterr()
    if out is None:
        assert (status, captured.out) == (1, "")
        assert captured.err == ("error: input: signal is complex-valued; "
                                "the formula needs a real signal\n")
    else:
        assert (status, captured.err) == (0, "")
        assert captured.out == f"method: symbolic\nt phi\n{out}\n"


@pytest.mark.parametrize("at", ["0", "1"])
@pytest.mark.parametrize("expr, message", [
    ("dirac()", "dirac impulse is not differentiable"),
    ("delay(1)", "delay atom is not differentiable"),
])
def test_instfreq_refuses_an_impulse_or_delay_at_any_time(expr, message, at,
                                                         capsys):
    status = main(["instfreq", "--at", at, "--", expr])
    captured = capsys.readouterr()
    assert (status, captured.out) == (1, "")
    assert captured.err == f"error: input: {message}\n"


def _write_tone_csv(path, rate_hz=200, t_end=3.0):
    rows = ["t,x"]
    n = int(round(rate_hz * t_end)) + 1
    for k in range(n):
        t = k / rate_hz
        rows.append(f"{t!r},{math.sin(2.0 * t)!r}")
    path.write_text("\n".join(rows) + "\n")


def test_instfreq_csv_fit(tmp_path):
    csv_path = tmp_path / "tone.csv"
    _write_tone_csv(csv_path)
    status, out, err = run(CliConfig("instfreq", csv_path=str(csv_path),
                                     window=11, degree=3, output="json"))
    assert (status, err) == (0, "")
    data = json.loads(out)
    assert data["method"] == "fitted"
    e = parse("sin(2*t)")
    worst = max(abs(p - phi_symbolic(e, t))
                for t, p in zip(data["times"], data["phi"]))
    assert worst <= 1e-3


def _env_with_src() -> dict:
    """The environment, with this checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


_LEAN_START = """
import sys
import algspec
from algspec import cli
from algspec.cli import CliConfig
exact = [CliConfig("spectrum", "sin(3*t)"),
         CliConfig("spectrum", "sin(3*t)", output="json"),
         CliConfig("spectrum", "sin(3*t)", explain=True),
         CliConfig("opform", "sin(3*t)"),
         CliConfig("opform", "sin(3*t)", output="json"),
         CliConfig("instfreq", "sinc(2)", at=1.0),
         CliConfig("spectrum", "dirac()"),
         CliConfig("spectrum", "delay(1)"),
         CliConfig("spectrum", "sinc(2)"),
         CliConfig("spectrum", "rcos(3)", explain=True),
         CliConfig("contrast", "sinc(2)"),
         CliConfig("contrast", "dirac()")]
print([cli.run(c)[0] for c in exact], "numpy" in sys.modules)
numeric = [CliConfig("contrast", "sin(2*t)")]
print([cli.run(c)[0] for c in numeric], "numpy" in sys.modules)
"""


def test_the_exact_commands_start_without_numpy():
    # one fresh interpreter: numpy is loaded only by the numeric paths
    proc = subprocess.run([sys.executable, "-c", _LEAN_START],
                          env=_env_with_src(), capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] False", "[0] True"]


def test_the_exact_commands_start_without_dataclasses_or_inspect():
    # the value classes build no methods at import; dataclasses would also
    # load inspect, ast, dis and tokenize
    script = (_LEAN_START.partition("numeric = ")[0]
              + 'print(sorted({"dataclasses", "inspect"} & set(sys.modules)))')
    proc = subprocess.run([sys.executable, "-c", script],
                          env=_env_with_src(), capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == [
        "[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0] False", "[]"]


@pytest.mark.parametrize("module", [cli, fouriercontrast, instfreq, ratfield,
                                    opcalc, pipeline, selftest, sigexpr,
                                    weylode, algspec])
def test_annotations_resolve_in_the_modules_that_load_numpy_late(module):
    # an annotation naming np would raise NameError here, and a name left
    # in __all__ after its definition went would raise AttributeError
    for name in module.__all__:
        obj = getattr(module, name)
        funcs = [obj] if inspect.isfunction(obj) else []
        if inspect.isclass(obj):
            funcs = [v for v in vars(obj).values() if inspect.isfunction(v)]
        for fn in funcs:
            typing.get_type_hints(fn)


@pytest.mark.parametrize("text", [
    "sin(1e308*t)", "sin(1e400*t)", "sin(1e-400*t)", "sin(0*t)",
    "sin(2*t+1e300)", "0*dirac()", "sinc(0)", "sin(t)+sin(2*t)"])
def test_contrast_edge_inputs_end_in_one_line_without_warnings(text):
    # a fresh interpreter, so a numpy warning is printed, not swallowed by
    # an earlier one at the same line
    proc = subprocess.run(
        [sys.executable, "-m", "algspec.cli", "contrast", text],
        env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1, 2)
    assert len(proc.stderr.splitlines()) <= 1
    for stream in (proc.stdout, proc.stderr):
        assert "Warning" not in stream and "Traceback" not in stream


_FUZZ_COMMANDS = st.sampled_from([
    ("spectrum", None), ("opform", None), ("instfreq", 0.0),
    ("instfreq", 0.75), ("instfreq", -2.5), ("contrast", None)])


def test_expression_commands_end_in_one_line_on_any_text(capfd):
    # every grammar text, well formed or not, exits 0, 1 or 2 within a
    # budget, with a one-line message on failure and nothing on the real
    # stderr or in the warnings
    @settings(max_examples=300, deadline=None)
    @given(oracles.signal_texts, _FUZZ_COMMANDS,
           st.sampled_from(["text", "json"]))
    def check(text, command, output):
        name, at = command
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            status, out, err = run(CliConfig(name, expr=text, output=output,
                                             at=at))
            elapsed = time.perf_counter() - start
        assert status in (0, 1, 2)
        if status:
            assert out == "" and err and "\n" not in err
        else:
            assert err == ""
        assert caught == []
        assert capfd.readouterr() == ("", "")
        assert elapsed <= 10.0

    check()


def test_closed_stdout_exits_without_a_traceback(tmp_path):
    # the reader is gone before the program writes, as when `| head` has
    # already exited: the write fails with EPIPE
    csv_path = tmp_path / "tone.csv"
    _write_tone_csv(csv_path, rate_hz=20, t_end=0.95)
    proc = subprocess.Popen(
        [sys.executable, "-m", "algspec.cli", "instfreq", "--csv",
         str(csv_path)],
        env=_env_with_src(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err == ""


def test_instfreq_csv_errors(tmp_path):
    cases = {
        "bad_header.csv": "time,value\n0,0\n",
        "short_row.csv": "t,x\n0.0\n",
        "wide_row.csv": "t,x\n0.0,1.0,2.0\n",
        "not_a_number.csv": "t,x\n0.0,one\n",
    }
    for name, content in cases.items():
        p = tmp_path / name
        p.write_text(content)
        status, out, err = run(CliConfig("instfreq", csv_path=str(p)))
        assert status == 1 and out == "", name
        assert err.startswith("error: input:"), name
    status, _, err = run(CliConfig("instfreq",
                                   csv_path=str(tmp_path / "missing.csv")))
    assert status == 1
    assert err.startswith("error: input:")


@pytest.mark.parametrize("content, line", [
    ("t,x\n0.0,1.0\nnan,2.0\n", 3),
    ("t,x\n-inf,1.0\n0.0,2.0\n", 2),
    ("t,x\n0.0,nan\n0.1,2.0\n", 2),
    ("t,x\n0.0,1.0\n0.1,inf\n", 3),
])
def test_instfreq_csv_rejects_non_finite_values(tmp_path, content, line):
    p = tmp_path / "bad.csv"
    p.write_text(content)
    status, out, err = run(CliConfig("instfreq", csv_path=str(p)))
    assert (status, out) == (1, "")
    assert err == f"error: input: csv line {line}: non-finite value"


@pytest.mark.parametrize("output", ["text", "json"])
@pytest.mark.parametrize("jitter", [0.0, 0.003])
def test_instfreq_csv_refuses_a_phi_beyond_the_float_range(tmp_path, capsys,
                                                          jitter, output):
    # samples alternating +-1.7e308 fit to a Phi that is not finite, on the
    # uniform route and, with every third time shifted, window by window
    times = [0.1 * k + (jitter if k % 3 == 0 else 0.0) for k in range(30)]
    p = tmp_path / "huge.csv"
    p.write_text("t,x\n" + "".join(f"{t!r},{(-1) ** k * 1.7e308!r}\n"
                                   for k, t in enumerate(times)))
    sig = SampledSignal(tuple(times), (0.0,) * 30)
    assert (instfreq._uniform_step(sig) is None) is bool(jitter)
    status = main(["instfreq", "--csv", str(p)]
                  + (["--json"] if output == "json" else []))
    captured = capsys.readouterr()
    assert (status, captured.out) == (1, "")
    assert captured.err == "error: input: a value exceeds the float range\n"


@pytest.mark.parametrize("expr, out", [
    ("sin(0*t + 3)", "frequencies: (none)\ninfinite singularity: no"),
    ("sin(t - t + 3)", "frequencies: (none)\ninfinite singularity: no"),
    ("sin(3)", "frequencies: -3 3\ninfinite singularity: no"),
])
def test_a_zero_slope_trig_argument_is_a_constant(expr, out):
    assert run(CliConfig("spectrum", expr=expr)) == (0, out, "")


def test_a_zero_slope_tone_is_a_constant_in_instfreq_and_contrast():
    assert run(CliConfig("instfreq", expr="sin(0*t + 3)", at=2.0)) == (
        0, "method: symbolic\nt phi\n2 0", "")
    assert run(CliConfig("contrast", expr="sin(0*t + 3)")) == (
        1, "", "error: input: contrast tone frequency must be nonzero")


def test_instfreq_error_names_the_offending_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,x\n0.0,1.0\n0.1,oops\n")
    status, _, err = run(CliConfig("instfreq", csv_path=str(p)))
    assert status == 1
    assert "line 3" in err


def test_instfreq_csv_field_over_the_csv_limit(tmp_path, capsys):
    p = tmp_path / "long.csv"
    p.write_text("t,x\n0.0,1.0\n0.1," + "1" * 140_000 + "\n0.2,3.0\n")
    status = main(["instfreq", "--csv", str(p)])
    captured = capsys.readouterr()
    assert (status, captured.out) == (1, "")
    assert captured.err.startswith("error: input: csv line 3: field larger")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("zeros", [300_000, 600_000])
def test_long_lines_under_a_raised_csv_limit(tmp_path, zeros):
    # a line within a block and its completion reaches the kernel, a
    # longer one the row reader; both give the row reader's samples
    p = tmp_path / "long.csv"
    p.write_text("t,x\n0.0,1.0\n0.1,0." + "0" * zeros + "1\n0.2,3.0\n")
    limit = csv.field_size_limit(sys.maxsize)
    try:
        got = _read_outcome(cli._read_csv, str(p))
        assert got == (_read_outcome(cli._read_csv_rows, str(p))[0], [])
    finally:
        csv.field_size_limit(limit)
    assert got[0][1] == [1.0.hex(), 0.0.hex(), 3.0.hex()]


@pytest.mark.parametrize("cell", ["1.2.3", "-", ".", "-.", "1-2", "--1",
                                  "5.-", "", "1e", "e5", "1e+", "+", "1e5e5",
                                  "--1e5", "1.e-", "1e5.5"])
def test_a_cell_that_float_refuses_is_named_by_the_row_reader(tmp_path,
                                                              cell):
    p = tmp_path / "bad.csv"
    p.write_text(f"t,x\n0.0,1.0\n0.1,{cell}\n")
    got = _read_outcome(cli._read_csv, str(p))
    assert got == ("csv line 3: non-numeric value", [])


@pytest.mark.parametrize("scan", ["warns", "raises", "stops short"])
def test_a_scan_that_stops_early_sends_the_file_to_the_row_reader(
        tmp_path, monkeypatch, scan):
    # numpy 1.x warns on a partial read and 2.x raises
    p = tmp_path / "samples.csv"
    p.write_text("t,x\n" + _rows())
    fromstring = np.fromstring

    def partial(text, dtype, sep):
        if scan == "warns":
            warnings.warn("string or file could not be read to its end",
                          DeprecationWarning)
        if scan == "raises":
            raise ValueError("string or file could not be read to its end")
        return fromstring(text, dtype, sep=sep)[:-1]

    monkeypatch.setattr(np, "fromstring", partial)
    rows, read = [], object()
    monkeypatch.setattr(cli, "_read_csv_rows",
                        lambda path: rows.append(path) or read)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli._read_csv(str(p)) is read
    assert rows == [str(p)]


def _rows(n=15, sep="\n", fmt="{t},{x}"):
    return "".join(fmt.format(t=k / 10, x=(k / 10) ** 3 - k / 7) + sep
                   for k in range(n))


# files the array pass of _read_csv takes whole
_ARRAY_CSV = {
    "crlf": "t,x\r\n" + _rows(sep="\r\n"),
    "blank_lines": "t,x\n\n" + _rows(sep="\n\n"),
    "spaces": "t,x\n" + _rows(fmt=" {t} ,\t{x} "),
    "header_spaces": " t , x \n" + _rows(),
    "negative_zero": "t,x\n-0.0,-0.0\n" + _rows(fmt="{t}1,-0.0"),
    "extremes": "t,x\n" + _rows(fmt="{t},1e-300") + "2,1.7e308\n",
}
# files it leaves to the row reader
_ROW_CSV = {
    "underscore": "t,x\n" + _rows().replace("0.1,", "1_0,"),
    "arabic_indic": "t,x\n" + _rows().replace("0.1,", "٠.١,"),
    "quoted": "t,x\n" + _rows(fmt='"{t}","{x}"'),
    "quoted_space": "t,x\n" + _rows(fmt='"{t}" ,{x}'),
    "hash_in_field": 't,x\n0,"1#"\n' + _rows(),
    "hash_comment": "t,x\n" + _rows(fmt="{t},{x}#c"),
    "file_separator": "t,x\n" + _rows(fmt="{t},\x1c{x}"),
    "nan": "t,x\n" + _rows() + "2,nan\n",
    "inf": "t,x\n" + _rows() + "inf,3\n",
    "overflow": "t,x\n" + _rows() + "2,1e400\n",
    "one_column": "t,x\n" + _rows(fmt="{t}"),
    "three_columns": "t,x\n" + _rows(fmt="{t},{x},1"),
    "whitespace_line": "t,x\n" + _rows().replace("0.5,", "   \n0.5,"),
    "quoted_header": '"t","x"\n' + _rows(),
    "wrong_header": "time,x\n" + _rows(),
    "header_only": "t,x\n",
    "empty": "",
    "not_increasing": "t,x\n" + _rows() + "0.5,3\n",
    "carriage_returns": "t,x\r" + _rows(sep="\r"),
    "field_over_the_csv_limit": "t,x\n" + _rows() + "2,0." + "0" * 140_000
                                + "1\n",
    "header_over_the_csv_limit": "t" + " " * 140_000 + ",x\n" + _rows(),
}


def _read_outcome(read, path):
    """(samples as hex, or the error message), and the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            sig = read(path)
            got = ([t.hex() for t in sig.times], [x.hex() for x in sig.values])
        except ValueError as exc:
            got = str(exc)
    return got, [str(w.message) for w in caught]


@pytest.mark.parametrize("name", sorted({**_ARRAY_CSV, **_ROW_CSV}))
def test_csv_reader_matches_the_row_reader(tmp_path, capsys, monkeypatch,
                                           name):
    p = tmp_path / f"{name}.csv"
    p.write_bytes({**_ARRAY_CSV, **_ROW_CSV}[name].encode())
    got = _read_outcome(cli._read_csv, str(p))
    assert got == (_read_outcome(cli._read_csv_rows, str(p))[0], [])
    argv = ["instfreq", "--csv", str(p)]
    status, captured = main(argv), capsys.readouterr()
    if isinstance(got[0], str):
        assert (status, captured.out) == (1, "")
        assert captured.err == f"error: input: {got[0]}\n"
    monkeypatch.setattr(cli, "_read_csv", cli._read_csv_rows)
    assert (status, captured) == (main(argv), capsys.readouterr())


@pytest.mark.parametrize("name", sorted(_ARRAY_CSV))
def test_csv_reader_takes_plain_files_in_one_array_pass(tmp_path,
                                                        monkeypatch, name):
    p = tmp_path / f"{name}.csv"
    p.write_bytes(_ARRAY_CSV[name].encode())
    want = cli._read_csv_rows(str(p))

    def refused(path):
        raise AssertionError("row reader called")

    monkeypatch.setattr(cli, "_read_csv_rows", refused)
    assert cli._read_csv(str(p)) == want


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma", ".GZ"])
def test_a_plain_file_under_a_compressed_suffix_reads_as_text(
        tmp_path, capsys, monkeypatch, suffix):
    # numpy decompresses a file it opens by name by its suffix
    p = tmp_path / f"samples{suffix}"
    p.write_text("t,x\n" + _rows())
    got = _read_outcome(cli._read_csv, str(p))
    assert got == (_read_outcome(cli._read_csv_rows, str(p))[0], [])
    assert main(["instfreq", "--csv", str(p)]) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(cli, "_read_csv", cli._read_csv_rows)
    assert main(["instfreq", "--csv", str(p)]) == 0
    assert out == capsys.readouterr().out


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called")
    return refused


def test_the_array_pass_reads_a_url_shaped_path_as_a_local_file(
        tmp_path, monkeypatch):
    # a name that parses as a URL is a file name like any other
    import urllib.request

    monkeypatch.setattr(urllib.request, "urlopen", _refuse("urlopen"))
    (tmp_path / "http:" / "localhost").mkdir(parents=True)
    (tmp_path / "http:" / "localhost" / "y.csv").write_text("t,x\n" + _rows())
    monkeypatch.chdir(tmp_path)
    want = cli._read_csv_rows("http://localhost/y.csv")
    monkeypatch.setattr(np, "loadtxt", _refuse("np.loadtxt"))
    monkeypatch.setattr(cli, "_read_csv_rows", _refuse("the row reader"))
    assert cli._read_csv("http://localhost/y.csv") == want


def test_the_array_pass_opens_the_file_once(tmp_path, monkeypatch):
    # the header and the body are read from one binary handle
    import urllib.request

    p = tmp_path / "samples.csv"
    p.write_text(" t , x \r\n" + _rows(sep="\r\n"))
    want = cli._read_csv_rows(str(p))
    opens = []

    def counting(*args, **kwargs):
        opens.append(args[0])
        return open(*args, **kwargs)

    monkeypatch.setattr(cli, "open", counting, raising=False)
    monkeypatch.setattr(urllib.request, "urlopen", _refuse("urlopen"))
    monkeypatch.setattr(np, "loadtxt", _refuse("np.loadtxt"))
    monkeypatch.setattr(cli, "_read_csv_rows", _refuse("the row reader"))
    assert cli._read_csv(str(p)) == want
    assert opens == [str(p)]


@pytest.mark.parametrize("output", [[], ["--json"]])
def test_instfreq_csv_at_a_megahertz_prints_every_phi(tmp_path, output):
    # windows 1e-5 wide, whose rank is decided in their scaled time
    csv_path = tmp_path / "one-mhz.csv"
    csv_path.write_text("t,x\n" + "".join(
        f"{k * 1e-6!r},{(k / 10) ** 3 - k / 7!r}\n" for k in range(40)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "algspec.cli", "instfreq",
         "--csv", str(csv_path), *output],
        env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == (1 if output else 32)
    assert "none" not in proc.stdout and "null" not in proc.stdout


_CSV_PIECES = ["0", "1", "7", ".", "e", "-", "+", "_", ",", ",", '"', " ",
               "\t", "\n", "\n", "\r\n", "\r", "#", "nan", "inf", "1e400",
               "١", "\x00", "\x0b", "\x1c", "\x85"]
_CSV_PADS = ["", "", " ", "\t", "\x0b", "\x1c", "\x1f", "\x85", "\u3000"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["t,x\n", " t , x \r\n", '"t",x\n', "t,x"]),
       st.lists(st.tuples(st.integers(-30, 30), st.floats(allow_nan=False),
                          st.sampled_from(_CSV_PADS),
                          st.sampled_from(["\n", "\r\n", " \n"])),
                max_size=12),
       st.lists(st.sampled_from(_CSV_PIECES), max_size=8),
       st.integers(0, 12))
def test_csv_reader_matches_the_row_reader_on_generated_files(
        header, rows, junk, at):
    lines = [f"{pad}{t / 4!r},{pad}{x!r}{end}" for t, x, pad, end in rows]
    lines.insert(min(at, len(lines)), "".join(junk))
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "gen.csv")
        with open(p, "w", newline="") as fh:
            fh.write(header + "".join(lines))
        got = _read_outcome(cli._read_csv, p)
        assert got == (_read_outcome(cli._read_csv_rows, p)[0], [])


def _plain(value: Fraction, digits: int, nudge: int = 0) -> str:
    """A positive value rounded to `digits` significant digits, then moved
    `nudge` units in the last of them, written without an exponent."""
    e = 0
    while Fraction(10) ** e > value:
        e -= 1
    while Fraction(10) ** (e + 1) <= value:
        e += 1
    q = max(digits - 1 - e, 0)
    text = str(round(value * 10 ** q) + nudge).rjust(q + 1, "0")
    return text[:len(text) - q] + "." + text[len(text) - q:]


def _half_ulp(x: float) -> Fraction:
    """The midpoint of x and the next float up."""
    return (Fraction(x) + Fraction(math.nextafter(x, math.inf))) / 2


# decimals at and next to the midpoints of neighbouring floats, where the
# first quotient of the kernel is most often an ulp off
_HALF_ULP_TEXTS = [sign + _plain(_half_ulp(x), digits, nudge)
                   for x in [math.pi * 10.0 ** k for k in range(-6, 16)]
                   + [1 / 3, 2 / 3, 0.1, 0.7, 1 - 2 ** -40, 12345.678]
                   for digits in (17, 18, 19) for nudge in (-1, 0, 1)
                   for sign in ("", "-")]
_FIELD_TEXTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds(lambda x, digits: "%.*g" % (digits, x),
              st.floats(allow_nan=False, allow_infinity=False),
              st.integers(15, 19)),
    st.builds(lambda x, digits, nudge, sign: sign + _plain(_half_ulp(x),
                                                           digits, nudge),
              st.floats(1e-6, 1e16), st.integers(17, 19),
              st.integers(-1, 1), st.sampled_from(["", "-"])),
    # leading zeros, and up to 25 digits after the dot
    st.builds(lambda digits, q, zeros, sign: sign + "0" * zeros
              + (digits[:len(digits) - q] + "." + digits[len(digits) - q:]
                 if q else digits),
              st.integers(0, 10 ** 20).map(str).map(lambda s: s.zfill(25)),
              st.integers(0, 25), st.integers(0, 3),
              st.sampled_from(["", "-"])),
    st.sampled_from(["-0.0", "0", "-0", "5.", ".5", "-.5", "-5.", "007.50",
                     "1e5", "1E+5", "+1.5", "+0", "-2.5e-3", "1.7e308",
                     "-1e-320", "4.9406564584124654e-324",
                     "9223372036854775807", "9223372036854775808",
                     "4611686018427387904", "4611686018427387903.5",
                     "0.0000000000000000000000001234"]),
)


def _cells_as_hex(pairs) -> list:
    block = "".join(f"{a},{b}\n" for a, b in pairs).encode()
    return [x.hex() for x in
            cli._csv_cells(block, csv.field_size_limit()).tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_FIELD_TEXTS, _FIELD_TEXTS), max_size=30))
@example(list(zip(_HALF_ULP_TEXTS[0::2], _HALF_ULP_TEXTS[1::2])))
def test_every_cell_text_reads_as_the_bits_float_gives(pairs):
    assert _cells_as_hex(pairs) == [float(s).hex()
                                    for pair in pairs for s in pair]


def test_the_half_ulp_texts_need_the_residual_step(monkeypatch):
    # without its correction the first quotient misses some of them
    pairs = list(zip(_HALF_ULP_TEXTS[0::2], _HALF_ULP_TEXTS[1::2]))
    want = [float(s).hex() for pair in pairs for s in pair]
    assert _cells_as_hex(pairs) == want
    monkeypatch.setattr(cli, "_nearest_quotient",
                        lambda x, m, p: (x, np.zeros(len(x), bool)))
    assert _cells_as_hex(pairs) != want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["t,x\n", " t , x \r\n", "t,x\r\n"]),
       st.lists(st.tuples(st.sampled_from(["%r", "%.17g", "%.19g", "%.6f"]),
                          _FIELD_TEXTS, st.sampled_from(_CSV_PADS[:4]),
                          st.sampled_from(["\n", "\r\n", "\n\n", "\r\n\r\n"])),
                min_size=1, max_size=30))
def test_csv_reader_matches_the_row_reader_on_generated_decimals(header,
                                                                 rows):
    # increasing times, so most files reach the array pass's samples
    lines = [f"{pad}{fmt % (k / 3)},{pad}{x}{pad}{end}"
             for k, (fmt, x, pad, end) in enumerate(rows)]
    with tempfile.TemporaryDirectory() as tmp:
        p = os.path.join(tmp, "gen.csv")
        with open(p, "w", newline="") as fh:
            fh.write(header + "".join(lines))
        got = _read_outcome(cli._read_csv, p)
        assert got == (_read_outcome(cli._read_csv_rows, p)[0], [])


@pytest.mark.parametrize("step", [1e-160, 1e-170])
def test_a_flat_line_at_a_tiny_step_prints_phi_zero(tmp_path, step):
    # (half*step)**2 is subnormal or 0 at these steps
    p = tmp_path / "flat.csv"
    p.write_text("t,x\n" + "".join(f"{k * step!r},0.0\n" for k in range(30)))
    status, out, err = run(CliConfig("instfreq", csv_path=str(p)))
    assert (status, err) == (0, "")
    rows = out.splitlines()[2:]
    assert len(rows) == 20 and {r.split(" ")[1] for r in rows} == {"0"}


def _trace_text_per_row(trace):
    lines = [f"method: {trace.method}", "t phi"]
    for t, p in zip(trace.times, trace.phi):
        lines.append(f"{cli._g12(t)} {'none' if p is None else cli._g12(p)}")
    return "\n".join(lines)


def _mixed_trace():
    # the windows across the jump from 2e-6 to 1 hold one cluster of times
    # 1e-7 apart and one or two lone times, too few for degree 4
    rng = random.Random(2509)
    times = [1e-7 * k for k in range(20)] + [
        1.0 + 0.01 * (k + rng.uniform(-0.2, 0.2)) for k in range(40)]
    sig = SampledSignal(tuple(times), tuple(math.sin(t) for t in times))
    return phi_fitted(sig, window=11, degree=4)


def _array_trace(times, phi):
    return PhiTrace._of_arrays(np.array(times, dtype=float),
                               np.array(phi, dtype=float), "fitted")


def _uniform_trace():
    times = [0.01 * k for k in range(60)]
    sig = SampledSignal(np.array(times), np.sin(np.array(times)))
    return phi_fitted(sig, window=11, degree=3)


_TRACES = [
    PhiTrace((-0.0, 0.0, 1.0), (-0.0, 2.0, -0.0), "fitted"),
    _array_trace([-0.0, 0.0, 1.0], [-0.0, 2.0, -0.0]),
    _array_trace([0.5, 1.5, 2.5, 3.5, 4.5],
                 [math.nan, math.inf, -math.inf, 5e-324, 1.7e308]),
    _array_trace([1.7e308, -1e-300, -0.0, 5e-324],
                 [-1.7e308, -5e-324, 1e-300, -math.inf]),
    _array_trace([], []),
    _uniform_trace(),
    PhiTrace((0.1, 0.2), (None, None), "fitted"),
    _mixed_trace(),
    PhiTrace((0.5, 1.5, 2.5, 3.5), (math.nan, math.inf, -math.inf, 1e-300),
             "fitted"),
    PhiTrace((1.7e308, -1e-300), (-1.7e308, 5e-324), "fitted"),
    PhiTrace((0.5,), (-0.25,), "symbolic"),
    PhiTrace((), (), "fitted"),
]


@pytest.mark.parametrize("trace", _TRACES)
def test_trace_text_matches_the_per_row_rendering(trace):
    assert cli._trace_text(trace) == _trace_text_per_row(trace)


@pytest.mark.parametrize("trace", _TRACES)
def test_trace_json_matches_the_per_value_rendering(trace):
    assert cli._trace_json(trace) == cli._json_value(trace.as_dict())


@pytest.mark.parametrize("trace", [t for t in _TRACES if t.arrays is not None])
def test_array_traces_render_without_warnings(trace):
    # the extreme cells are the ones the array renderer leaves to `%`
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cli._trace_text(trace)
        cli._trace_json(trace)


_WARNING_CSV = {**_ARRAY_CSV, **_ROW_CSV,
                "uniform_extremes": "t,x\n" + _rows(fmt="{t},{x}e-300")}


@pytest.mark.parametrize("name", sorted(_WARNING_CSV))
@pytest.mark.parametrize("output", [[], ["--json"]])
def test_instfreq_csv_on_extreme_samples_prints_no_warning(tmp_path, name,
                                                           output):
    # a fresh interpreter, so a numpy warning is printed on stderr: both
    # readers and the array renderer, with the cells it leaves to `%`;
    # the array files and the uniform one succeed with an empty stderr,
    # a row file gives `run`'s status and its one error line, or nothing
    csv_path = tmp_path / f"{name}.csv"
    csv_path.write_bytes(_WARNING_CSV[name].encode())
    expected = (0, "")
    if name in _ROW_CSV:
        status, _, err = run(CliConfig("instfreq", csv_path=str(csv_path),
                                       output="json" if output else "text"))
        expected = (status, err + "\n" if err else "")
    proc = subprocess.run(
        [sys.executable, "-m", "algspec.cli", "instfreq", "--csv",
         str(csv_path), *output],
        env=_env_with_src(), capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == expected


def _g12_join_by_percent(columns, seps):
    """The reference of `cli._g12_join`: one `%` format per cell."""
    return "".join(sep + "%.12g" % (x + 0.0)
                   for row in zip(*(col.tolist() for col in columns))
                   for x, sep in zip(row, seps))


def _columns(values, seps):
    """One column per separator: the values, then the values reversed."""
    return (values, values[::-1])[:len(seps)]


_G12_EDGES = [
    100000000000.5, 999999999999.5,     # exact ties, rounded to even
    9.9999999999995,                    # a mantissa carried to 10
    1e-5, 9.99999999999e-5, 1e-4,       # the switch of %g at 1e-4
    99999999999.95, 1e12,               # and at 1e12
    5e-324, 1.7976931348623157e308, 1e300, 1e-300,
]


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 2 * cli._G12_BLOCK + 1)),
       st.sampled_from([",", "\n "]))
@example(np.array(_G12_EDGES), ",")
@example(-np.array(_G12_EDGES), "\n ")
# a value just below a power of ten, where log10 rounds up to the power
@example(np.array([10.0 ** k * (1 - 2 ** -53) for k in range(-30, 40)]),
         ",")
def test_g12_join_matches_the_percent_join(values, seps):
    columns = _columns(values, seps)
    assert cli._g12_join(columns, seps) == _g12_join_by_percent(columns,
                                                                seps)


@pytest.mark.parametrize("seps", [",", "\n "])
def test_g12_join_matches_the_percent_join_on_random_bits(seps):
    rng = np.random.default_rng(2718)
    bits = rng.integers(-2 ** 63, 2 ** 63, 20_000, dtype=np.int64)
    # 12-digit mantissas a half from an integer, at every exponent the
    # array renderer reaches, and every power of ten
    ties = ((rng.integers(10 ** 11, 10 ** 12, 5_000) + 0.5)
            * 10.0 ** rng.integers(-22, 23, 5_000))
    powers = 10.0 ** np.arange(-323, 309)
    values = np.concatenate([bits.view(np.float64), ties, -ties, powers,
                             -powers])
    columns = _columns(values, seps)
    assert cli._g12_join(columns, seps) == _g12_join_by_percent(columns,
                                                                seps)


def test_mixed_trace_holds_none_and_floats():
    phi = _mixed_trace().phi
    assert None in phi and any(p is not None for p in phi)


def test_a_uniform_fit_gives_an_array_trace():
    trace = _uniform_trace()
    assert trace.arrays is not None
    assert trace.times == tuple(trace.arrays[0].tolist())
    assert trace.phi == tuple(trace.arrays[1].tolist())
    assert trace == PhiTrace(trace.times, trace.phi, "fitted")


def _count_tuple_builds(monkeypatch) -> list:
    """Swap the tuple attributes built from sample arrays for ones that
    also record each build."""
    builds = []
    for cls, name in [(SampledSignal, "times"), (SampledSignal, "values"),
                      (PhiTrace, "times"), (PhiTrace, "phi")]:
        def counted(self, build=vars(cls)[name].func,
                    label=f"{cls.__name__}.{name}"):
            builds.append(label)
            return build(self)
        prop = functools.cached_property(counted)
        prop.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, prop)
    return builds


@pytest.mark.parametrize("output", ["text", "json"])
def test_a_uniform_csv_file_builds_no_per_sample_tuple(tmp_path, monkeypatch,
                                                       output):
    csv_path = tmp_path / "tone.csv"
    _write_tone_csv(csv_path)
    builds = _count_tuple_builds(monkeypatch)
    status, out, err = run(CliConfig("instfreq", csv_path=str(csv_path),
                                     output=output))
    assert (status, err) == (0, "")
    assert builds == []
    trace = phi_fitted(cli._read_csv(str(csv_path)))
    want = (_trace_text_per_row(trace) if output == "text"
            else cli._json_value(trace.as_dict()))
    assert out == want
    assert builds == ["PhiTrace.times", "PhiTrace.phi"]


# --- contrast and selftest -----------------------------------------------------


def test_contrast_json_tone():
    status, out, _ = run(CliConfig("contrast", expr="sin(3*t)",
                                   output="json"))
    assert status == 0
    data = json.loads(out)
    assert data["algebraic_frequencies"] == [-3, 3]
    assert data["fourier"] == "line pair at -3 and 3"
    assert len(data["dft_dominant_bins"]) == 2


def test_contrast_keeps_a_tiny_frequency():
    status, out, _ = run(CliConfig("contrast", expr="sin(1e-9*t)",
                                   output="json"))
    assert status == 0
    assert json.loads(out)["algebraic_frequencies"] == [-1e-9, 1e-9]


def test_contrast_text_impulse():
    status, out, _ = run(CliConfig("contrast", expr="dirac()"))
    assert status == 0
    assert "flat" in out


def test_selftest_passes():
    status, out, err = run(CliConfig("selftest"))
    assert (status, err) == (0, "")
    assert out.splitlines()[-1].endswith("checks passed")
    assert "FAIL" not in out


# --- plumbing -------------------------------------------------------------------


def test_runs_are_deterministic():
    configs = [
        CliConfig("spectrum", expr="sin(3*t)", output="json"),
        CliConfig("spectrum", expr="sinc(3)", explain=True),
        CliConfig("contrast", expr="sin(3*t)", output="json"),
        CliConfig("opform", expr="(t^2+1)*exp(-t)", output="json"),
    ]
    for config in configs:
        assert run(config) == run(config)


def test_numerical_failure_maps_to_exit_two(monkeypatch):
    def explode(config):
        raise RootFindingError("no convergence")

    monkeypatch.setattr(cli, "_cmd_spectrum", explode)
    status, out, err = run(CliConfig("spectrum", expr="sin(3*t)"))
    assert (status, out) == (2, "")
    assert err == "error: numerical: no convergence"


def test_main_prints_and_returns(capsys):
    status = main(["spectrum", "sin(3*t)", "--json"])
    captured = capsys.readouterr()
    assert status == 0
    assert captured.out == _TONE_JSON + "\n"
    assert captured.err == ""


def test_main_usage_errors(capsys):
    for argv in (["instfreq"],
                 ["instfreq", "sin(2*t)", "--csv", "x.csv", "--at", "1"],
                 ["instfreq", "sin(2*t)"],
                 ["spectrum"],
                 ["nosuchcommand", "x"]):
        status = main(argv)
        captured = capsys.readouterr()
        assert status == 1, argv
        assert captured.out == "", argv
        assert captured.err.startswith("error: usage:"), argv


@pytest.mark.parametrize("command, expr", [("spectrum", "-t"),
                                           ("contrast", "-sinc(8)")])
def test_an_expression_that_starts_with_a_dash_is_shown_the_dashes(
        capsys, command, expr):
    status = main([command, expr])
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error: usage:") and err.count("\n") == 1
    example = shlex.split(err.rstrip(")\n").rpartition("algspec ")[2])
    assert example == [command, "--", expr]
    assert main(example) == 0


def test_main_reports_input_errors(capsys):
    status = main(["spectrum", "sin(2*t"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error: input:")
