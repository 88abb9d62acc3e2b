"""Command-line front end: parsing, rendering, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from algspec import cli
from algspec.cli import CliConfig, main, run
from algspec.instfreq import phi_symbolic
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


def test_spectrum_explained_for_image_route():
    status, out, _ = run(CliConfig("spectrum", expr="sin(3*t)", explain=True))
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "class: exponential-polynomial"
    assert lines[1] == "operational image: 3 / (s^2 + 9)"
    assert lines[2] == "pole -3i: order 1"
    assert lines[3] == "pole 3i: order 1"
    assert lines[5] == "infinite singularity: no"


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


def test_opform_requires_an_image():
    status, _, err = run(CliConfig("opform", expr="sinc(3)"))
    assert status == 1
    assert err == ("error: input: opform requires an exponential polynomial "
                   "or the impulse")


# --- instfreq ----------------------------------------------------------------


def test_instfreq_symbolic_point():
    status, out, _ = run(CliConfig("instfreq", expr="sin(2*t)",
                                   at=math.pi / 4, output="json"))
    assert status == 0
    data = json.loads(out)
    assert data["method"] == "symbolic"
    assert len(data["times"]) == len(data["phi"]) == 1
    assert abs(data["phi"][0] - (-4.0)) <= 1e-12


@pytest.mark.parametrize("expr, phi", [
    ("sinc(2)", "-2.66666666667"),          # -w^3/3
    ("-3/2*sinc(1/2)", "0.0625"),           # -c w^3/3
])
def test_instfreq_sinc_at_zero_takes_the_series_limit(expr, phi, capsys):
    status = main(["instfreq", "--at", "0", "--", expr])
    captured = capsys.readouterr()
    assert (status, captured.err) == (0, "")
    assert captured.out == f"method: symbolic\nt phi\n0 {phi}\n"


def test_instfreq_complex_sinc_at_zero_is_refused(capsys):
    status = main(["instfreq", "i*sinc(2)", "--at", "0"])
    captured = capsys.readouterr()
    assert (status, captured.out) == (1, "")
    assert captured.err == ("error: input: signal is complex-valued; "
                            "the formula needs a real signal\n")


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


def test_closed_stdout_exits_without_a_traceback(tmp_path):
    # the reader is gone before the program writes, as when `| head` has
    # already exited: the write fails with EPIPE
    csv_path = tmp_path / "tone.csv"
    _write_tone_csv(csv_path, rate_hz=20, t_end=0.95)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "algspec.cli", "instfreq", "--csv",
         str(csv_path)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
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


def test_main_reports_input_errors(capsys):
    status = main(["spectrum", "sin(2*t"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith("error: input:")
