"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line once its assertions have held, so a
plain ``pytest -s`` run reads as a checklist.  Tolerances are part of the
package contract and are stated next to each assertion.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from algspec.fouriercontrast import (contrast_report, dft, dft_direct,
                                     sinc_fourier_closed_form)
from algspec.instfreq import SampledSignal, phi_fitted, phi_symbolic
from algspec.opcalc import (ExpPoly, from_signal, mult_by_minus_t,
                            taylor_truncate, to_exppoly, to_rational)
from algspec.pipeline import analyze
from algspec.ratfield import (CPoly, Qi, RatFunc, alg_deriv,
                              spectrum_of_rational)
from algspec.sigexpr import parse
from algspec.weylode import WeylOp, mul_ops
from test_cli import _env_with_src

FREQ_TOL = 1e-9

_S = CPoly([0, 1])


def _freqs_match(got, want, tol=FREQ_TOL):
    got, want = sorted(got), sorted(want)
    return len(got) == len(want) and all(
        abs(g - w) <= tol for g, w in zip(got, want))


def _fraction_text(f: Fraction) -> str:
    return str(f) if f.denominator != 1 else str(f.numerator)


def _poly_text(rng) -> str:
    terms = []
    for k in range(rng.randint(0, 3) + 1):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if c == 0:
            continue
        terms.append(f"{_fraction_text(c)}*t^{k}")
    if not terms:
        terms = ["1"]
    return " + ".join(terms).replace("+ -", "- ")


def test_criterion_1_oracle_spectra():
    start = time.perf_counter()
    rng = random.Random(3101)

    # modulated and bare tones: the lines sit at plus and minus the rate
    for _ in range(20):
        w = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        phi = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        tone = f"sin({_fraction_text(w)}*t + {_fraction_text(phi)})" \
            .replace("+ -", "- ")
        want = (-float(w), float(w))
        assert _freqs_match(analyze(parse(tone)).spectrum.frequencies, want)
        product = f"({_poly_text(rng)})*{tone}"
        assert _freqs_match(analyze(parse(product)).spectrum.frequencies,
                            want), product

    # polynomials and the impulse carry no line at all
    for _ in range(5):
        spec = analyze(parse(_poly_text(rng))).spectrum
        assert spec.frequencies == ()
    assert analyze(parse("dirac()")).spectrum.frequencies == ()

    # images with only real poles: Laurent polynomials in 1/s and random
    # real-pole rationals
    for _ in range(5):
        num = CPoly([Qi(rng.randint(-4, 4)) for _ in range(3)] + [Qi(1)])
        laurent = RatFunc(num, _S ** rng.randint(1, 4))
        assert spectrum_of_rational(laurent).frequencies == ()
        den = CPoly.ONE
        for _ in range(rng.randint(1, 3)):
            den = den * (_S - CPoly.scalar(Qi(rng.randint(-3, 3))))
        real_pole = RatFunc(CPoly([Qi(rng.randint(1, 4))]), den)
        assert spectrum_of_rational(real_pole).frequencies == ()

    # equation-defined signals
    for w in (1, 3, 5):
        analysis = analyze(parse(f"sinc({w})"))
        assert _freqs_match(analysis.spectrum.frequencies, (-w, w))
        assert [p.refinement for p in analysis.finite_points] \
            == ["logarithmic", "logarithmic"]
        locations = sorted(p.location.imag for p in analysis.finite_points)
        assert _freqs_match(locations, (-w, w))
        assert all(p.location.real == 0 for p in analysis.finite_points)
    for w in (2, 4):
        spec = analyze(parse(f"rcos({w})")).spectrum
        assert _freqs_match(spec.frequencies, (-w, w))
    for lag in ("1/2", "-1/2", "2", "-3"):
        spec = analyze(parse(f"delay({lag})")).spectrum
        assert spec.frequencies == ()
        assert spec.infinite_singularity is False
    for args in ("1, 2, 3", "2, 0, 0", "1/2, -1, 1"):
        spec = analyze(parse(f"chirp({args})")).spectrum
        assert spec.frequencies == ()
        assert spec.infinite_singularity is True

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    print("criterion 1 (oracle spectra, 1e-9): PASS")


def _rand_exppoly(rng):
    rates = set()
    while len(rates) < rng.randint(1, 4):
        rates.add(Qi(Fraction(rng.randint(-3, 3)),
                     Fraction(rng.randint(-3, 3))))
    terms = []
    for rate in rates:
        coeffs = [Qi(Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                     Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
                  for _ in range(rng.randint(0, 4) + 1)]
        poly = CPoly(coeffs)
        if poly.is_zero:
            poly = CPoly.ONE
        terms.append((rate, poly))
    return ExpPoly(tuple(terms))


def _rand_strictly_proper(rng):
    den_deg = rng.randint(1, 4)
    den = CPoly([Qi(rng.randint(-4, 4)) for _ in range(den_deg)] + [Qi(1)])
    num = CPoly([Qi(rng.randint(-4, 4)) for _ in range(den_deg)])
    while num.is_zero:
        num = CPoly([Qi(rng.randint(-4, 4)) for _ in range(den_deg)])
    return RatFunc(num, den)


def _rat_close(a: RatFunc, b: RatFunc, tol=FREQ_TOL) -> bool:
    if a.den.degree != b.den.degree:
        return False
    for ca, cb in ((a.num.coeffs, b.num.coeffs), (a.den.coeffs, b.den.coeffs)):
        width = max(len(ca), len(cb))
        pa = list(ca) + [Qi(0)] * (width - len(ca))
        pb = list(cb) + [Qi(0)] * (width - len(cb))
        scale = 1 + max(abs(complex(c)) for c in pa + pb)
        if any(abs(complex(x) - complex(y)) > tol * scale
               for x, y in zip(pa, pb)):
            return False
    return True


def test_criterion_2_bijection_round_trip():
    rng = random.Random(3102)
    for _ in range(500):
        x = _rand_exppoly(rng)
        assert to_exppoly(to_rational(x)) == x
    for _ in range(500):
        r = _rand_strictly_proper(rng)
        assert _rat_close(to_rational(to_exppoly(r)), r)
    print("criterion 2 (bijection round trip, 2x500 cases, exact and 1e-9): "
          "PASS")


def test_criterion_3_derivation_correspondence():
    rng = random.Random(3103)
    for _ in range(200):
        x = _rand_exppoly(rng)
        assert to_rational(mult_by_minus_t(x)) == alg_deriv(to_rational(x))
    print("criterion 3 (multiplication by -t vs d/ds, 200 exact): PASS")


def _rand_op(rng):
    order = rng.randint(0, 2)

    def ratfunc():
        num = CPoly([Qi(rng.randint(-2, 2)), Qi(rng.randint(-2, 2))])
        den = CPoly([Qi(rng.randint(-2, 2)), Qi(rng.randint(1, 2))])
        if num.is_zero:
            num = CPoly.ONE
        return RatFunc(num, den)

    coeffs = [ratfunc() for _ in range(order + 1)]
    return WeylOp(tuple(coeffs))


def test_criterion_4_operator_algebra():
    assert mul_ops(WeylOp.D, WeylOp.S) - mul_ops(WeylOp.S, WeylOp.D) \
        == WeylOp.IDENTITY
    rng = random.Random(3104)
    for _ in range(100):
        a, b, c = (_rand_op(rng) for _ in range(3))
        assert mul_ops(mul_ops(a, b), c) == mul_ops(a, mul_ops(b, c))
    print("criterion 4 (commutator identity + 100 associativity): PASS")


def test_criterion_5_instantaneous_frequency():
    rng = random.Random(3105)
    # closed form of the tone: the second derivative over the slope factor
    for _ in range(50):
        a = rng.randint(1, 4)
        w = rng.randint(1, 5)
        t = rng.uniform(0, 2 * math.pi)
        got = phi_symbolic(parse(f"{a}*sin({w}*t)"), t)
        slope = a * w * math.cos(w * t)
        want = -(w * w) * a * math.sin(w * t) / math.sqrt(1.0 + slope * slope)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    def tone_samples(rate_hz):
        n = int(round(rate_hz * 3.0)) + 1
        times = tuple(k / rate_hz for k in range(n))
        return SampledSignal(times, tuple(math.sin(2.0 * t) for t in times))

    e = parse("sin(2*t)")

    def worst(rate_hz):
        trace = phi_fitted(tone_samples(rate_hz), window=11, degree=3)
        return max(abs(p - phi_symbolic(e, t))
                   for t, p in zip(trace.times, trace.phi))

    err_200 = worst(200)
    assert err_200 <= 1e-3
    assert worst(400) <= err_200 / 2.0   # at least first-order in the step
    print("criterion 5 (curvature frequency: 1e-12 symbolic, "
          "1e-3 fitted, order >= 1): PASS")


def test_criterion_6_truncation_paradox():
    x = taylor_truncate(parse("sin(2*t)"), 0.0, 5)
    assert spectrum_of_rational(to_rational(x)).frequencies == ()
    sup = max(abs(x.evaluate(k * 0.0001) - math.sin(2.0 * k * 0.0001))
              for k in range(1001))
    assert sup <= 1e-8
    print("criterion 6 (degree-5 truncation: empty spectrum, "
          "sup error <= 1e-8 on [0, 0.1]): PASS")


def test_criterion_7_fourier_contrast():
    values = [0.0] * 64
    values[0] = 1.0
    sig = SampledSignal(tuple(float(k) for k in range(64)), tuple(values))
    mags = dft(sig).magnitudes
    assert max(abs(m - 1.0) for m in mags) <= 1e-12

    rng = random.Random(3107)
    for n in (64, 45):
        xs = [rng.uniform(-1, 1) for _ in range(n)]
        sig = SampledSignal(tuple(float(k) for k in range(n)), tuple(xs))
        mags = dft(sig).magnitudes
        time_energy = sum(v * v for v in xs)
        freq_energy = sum(m * m for m in mags) / n
        assert abs(time_energy - freq_energy) <= 1e-9 * (1 + time_energy)

    assert sinc_fourier_closed_form(3.0, 0.0) == 3.0
    assert sinc_fourier_closed_form(3.0, 2.9) == 3.0
    assert sinc_fourier_closed_form(3.0, -2.9) == 3.0
    assert sinc_fourier_closed_form(3.0, 3.1) == 0.0
    assert sinc_fourier_closed_form(3.0, -3.1) == 0.0

    for text in ("dirac()", "sinc(3)", "sin(3*t)"):
        e = parse(text)
        assert contrast_report(e).algebraic == analyze(e).spectrum

    print("criterion 7 (impulse flat 1e-12, Parseval 1e-9, closed form "
          "exact, shared algebraic column): PASS")


def _cli(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "algspec.cli", *argv],
                          env=_env_with_src(), capture_output=True,
                          timeout=120)


def test_criterion_8_cli_determinism_and_selftest():
    commands = [
        ("spectrum", "sin(3*t)", "--json"),
        ("spectrum", "sinc(3)", "--explain"),
        ("opform", "(t^2+1)*exp(-t)", "--json"),
        ("instfreq", "sin(2*t)", "--at", "0.7853981633974483", "--json"),
        ("contrast", "sin(3*t)", "--json"),
    ]
    for argv in commands:
        first, second = _cli(*argv), _cli(*argv)
        assert first.returncode == 0, (argv, first.stderr)
        assert first.returncode == second.returncode
        assert first.stdout == second.stdout, argv
        assert first.stderr == second.stderr == b""

    selftest = _cli("selftest")
    assert selftest.returncode == 0, selftest.stdout
    lines = selftest.stdout.decode().splitlines()
    assert all(line.startswith("ok - ") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")
    print("criterion 8 (byte-identical CLI runs, selftest green): PASS")
