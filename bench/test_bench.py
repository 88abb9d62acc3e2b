"""Checks of the benchmark itself: its checks can fail.

    python3 -m pytest -q bench/test_bench.py      (from the repository root)
    python3 bench/test_bench.py
"""

import random
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle      # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402
from workloads import Op, draw_mixture, mixture_ops   # noqa: E402


def outcome_of(ops) -> run.Outcome:
    outcome = run.Outcome()
    run.run_round(ops, outcome, {})
    return outcome


def test_a_wrong_expected_value_fails_the_op():
    m = draw_mixture(random.Random(7), 3, 2)
    wrong = replace(m, freqs=[f * 1.001 for f in m.freqs])
    spectrum_ok = mixture_ops(m, "right", True)[0]
    spectrum_bad = mixture_ops(wrong, "wrong", True)[0]
    outcome = outcome_of([spectrum_ok, spectrum_bad])
    assert outcome.attempted == 2
    assert outcome.failed == 1
    assert len(outcome.unexpected) == 1
    assert outcome.unexpected[0].startswith("spectrum --explain wrong")


def test_each_mixture_check_catches_a_wrong_image():
    m = draw_mixture(random.Random(3), 2, 2)
    rate, coeffs = m.terms[0]
    wrong = replace(m, terms=[(rate, [coeffs[0] * 1.01] + coeffs[1:])]
                    + m.terms[1:])
    assert outcome_of(mixture_ops(m, "right", True)).failed == 0
    assert outcome_of(mixture_ops(wrong, "wrong", True)).failed == 3


def test_known_faults_fail_without_making_the_run_incorrect():
    ops = workloads.fixed_mixture_faults()
    outcome = outcome_of(ops)
    assert outcome.failed == len(ops) == 3
    assert outcome.unexpected == []


def test_an_op_that_raises_is_counted_as_failed():
    def boom():
        raise RecursionError("deep")
    outcome = outcome_of([Op("boom", boom, lambda out: None)])
    assert outcome.failed == 1
    assert "RecursionError" in outcome.unexpected[0]


def test_readers_of_cli_text():
    assert oracle.scalar("(-1/2)") == -0.5
    assert oracle.scalar("(1/2-3i)") == complex(0.5, -3)
    assert oracle.scalar("-i") == -1j
    assert oracle.scalar("1e-09i") == 1e-9j
    assert oracle.poly("(1/2)s^3 - s + (-3/4)") == [-0.75, -1, 0, 0.5]
    assert oracle.rational("-2 / (s^2 + 9)") == ([-2], [9, 0, 1])
    assert oracle.c12("-0.25 - 1.5i") == complex(-0.25, -1.5)
    assert oracle.c12("i") == 1j


def test_jets_give_derivatives():
    t = oracle.Jet.var(0.7, 2)
    s, c = (t * 3.0).sin_cos()
    x = s / t
    # d/dt sin(3t)/t = (3t cos 3t - sin 3t) / t^2
    want = (3 * 0.7 * c.c[0] - s.c[0]) / 0.49
    assert abs(x.derivative(1) - want) < 1e-12


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok   {name}")
            except Exception as exc:   # report every test, then fail
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
