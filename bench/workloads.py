"""The three workloads: their inputs, drawn from a seed, and their checks.

Each workload function returns a list of Op.  One round of a run calls
every op of the list once, in order; every round of a run is the same
list.  An op's call goes through algspec.cli.run with a CliConfig where the
CLI offers the operation, and through the library function elsewhere.
Module attributes are looked up at call time so that the traced run's
wrappers are seen.

A check raises CheckFailed (or any exception) when an output is wrong.  It
compares against oracle.py, which computes apart from the program, or
against a property the method must have.  An op with a known_fault fails on
every run because of a fault in the program; it is counted as failed and
does not make the run incorrect.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from algspec import cli, fouriercontrast, instfreq, opcalc, sigexpr, weylode
from algspec.cli import CliConfig
from algspec.ratfield import CPoly, RatFunc
from algspec.weylode import WeylOp

import oracle

# Printed numbers carry 12 significant digits; root finding adds a little.
REL = 1e-10


class CheckFailed(Exception):
    pass


def expect(cond: bool, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]
    known_fault: str | None = None


def cli_op(name: str, cfg: CliConfig, check: Callable[[str], None],
           known_fault: str | None = None) -> Op:
    def check_cli(out):
        status, stdout, stderr = out
        expect(status == 0, f"exit {status}: {stderr}")
        check(stdout)
    return Op(name, lambda: cli.run(cfg), check_cli, known_fault)


def poly_text(coeffs) -> str:
    """Ascending rational coefficients as an expression in t."""
    out = ""
    for k, a in enumerate(coeffs):
        mono = str(abs(a)) + ("" if k == 0 else "*t" if k == 1 else f"*t^{k}")
        if not out:
            out = ("-" if a < 0 else "") + mono
        else:
            out += (" - " if a < 0 else " + ") + mono
    return out


def printed_frequencies(out: str) -> list[float]:
    line = next(ln for ln in out.split("\n") if ln.startswith("frequencies: "))
    return [] if line.endswith("(none)") else \
        oracle.numbers(line[len("frequencies: "):])


def check_frequencies(got, want):
    expect(len(got) == len(want), f"frequencies {got} != {want}")
    for g, w in zip(got, want):
        expect(oracle.close(g, w, REL), f"frequency {g} != {w}")


def check_rational_text(num_den, terms, points):
    """A printed image against the float sum of c*k!/(s-a)^(k+1); the
    tolerance follows from the 12 digits of each printed coefficient."""
    num, den = num_den
    for s in points:
        nv, dv = oracle.horner(num, s), oracle.horner(den, s)
        got, want = nv / dv, oracle.image_value(terms, s)
        nsum = abs(oracle.horner([abs(c) for c in num], abs(s)))
        dsum = abs(oracle.horner([abs(c) for c in den], abs(s)))
        tol = 1e-11 * (nsum + abs(got) * dsum) / abs(dv) + 1e-9 * abs(want)
        expect(abs(got - want) <= tol, f"image at {s}: {got} != {want}")


# ---------------------------------------------------------------------------
# mixture

# (distinct rates, multiplicity = deg P + 1, signals per round)
MIXTURE_LADDER = [
    (1, 1, 3), (2, 1, 3), (3, 1, 3), (4, 1, 3), (6, 1, 3), (9, 1, 3),
    (2, 2, 3), (4, 2, 3), (6, 2, 2), (9, 2, 3),
    (2, 3, 3), (4, 3, 2), (6, 3, 2),
    (2, 4, 3), (4, 4, 3),
]
# The inverse image is taken only up to multiplicity 2 and denominator
# degree 12: beyond, the partial-fraction certificate (a float
# reconstruction held to 1e-9) reads up to 3e-10 on (6, 3) draws, 8e-11 on
# (9, 2) draws, and fails on some (4, 4) draws.
# Frequencies, decays and coefficients share one denominator each, so that
# signals of one rung cost about the same whatever the seed.  Rates stay
# within modulus 2.1: beyond about 3 the root iteration's absolute stopping
# test (the fault the first two fixed ops below show) fails on some draws.
FREQS = [Fraction(k, 8) for k in range(1, 16, 2)]
DECAYS = [Fraction(-k, 8) for k in range(1, 8, 2)]
COEFFS = [Fraction(n, 2) for n in (-5, -3, -1, 1, 3, 5)]
IMAGE_POINTS = (2 + 0.5j, -1.5 + 3j, 0.5 - 3j)


@dataclass
class Mixture:
    text: str
    terms: list      # (rate, [coefficient of t^k]) per distinct rate
    freqs: list      # sorted +-w
    order: int       # pole order of every rate


def draw_mixture(rng: random.Random, nrates: int, mult: int) -> Mixture:
    """sum P_j(t) exp(c_j t) {sin,cos}(w_j t) with nrates distinct rates,
    all of multiplicity mult; an odd count adds one real rate."""
    pairs, reals = divmod(nrates, 2)
    parts, terms = [], []

    def coeffs():
        return [rng.choice(COEFFS) for _ in range(mult)]

    ws = sorted(rng.sample(FREQS, pairs))
    for w in ws:
        c, p, kind = rng.choice(DECAYS), coeffs(), rng.choice(("sin", "cos"))
        parts.append(f"({poly_text(p)})*{kind}({w}*t)*exp({c}*t)")
        for sign in (1, -1):
            # sin = (e^{iwt} - e^{-iwt}) / 2i, cos = (e^{iwt} + e^{-iwt}) / 2
            f = -0.5j * sign if kind == "sin" else 0.5
            terms.append((complex(c, sign * w), [f * float(a) for a in p]))
    for c in rng.sample(DECAYS, reals):
        p = coeffs()
        parts.append(f"({poly_text(p)})*exp({c}*t)")
        terms.append((complex(c), [complex(a) for a in p]))
    rng.shuffle(parts)
    freqs = sorted([-float(w) for w in ws] + [float(w) for w in ws])
    return Mixture(" + ".join(parts), terms, freqs, mult)


def check_spectrum_explain(m: Mixture, out: str):
    lines = out.split("\n")
    expect(lines[0] == "class: exponential-polynomial", lines[0])
    head = "operational image: "
    expect(lines[1].startswith(head), lines[1])
    check_rational_text(oracle.rational(lines[1][len(head):]), m.terms,
                        IMAGE_POINTS)
    poles = [ln for ln in lines[2:] if ln.startswith("pole ")]
    expect(len(poles) == len(m.terms), f"{len(poles)} poles")
    for ln in poles:
        loc, _, order = ln[5:].partition(": order ")
        z = oracle.c12(loc)
        expect(any(oracle.close(z, a, REL) for a, _ in m.terms),
               f"pole {loc} is not a rate")
        expect(int(order) == m.order, f"pole {loc} has order {order}")
    check_frequencies(printed_frequencies(out), m.freqs)
    expect(lines[-1] == "infinite singularity: no", lines[-1])


def check_opform_json(m: Mixture, out: str):
    doc = json.loads(out)
    expect(doc["strictly_proper"] is True, "not strictly proper")
    num, den = oracle.poly(doc["numerator"]), oracle.poly(doc["denominator"])
    expect(len(den) - 1 == m.order * len(m.terms),
           f"denominator degree {len(den) - 1}")
    check_rational_text((num, den), m.terms, IMAGE_POINTS)


def check_inverse(m: Mixture, x):
    got = [(complex(rate), [complex(c) for c in p.coeffs])
           for rate, p in x.terms]
    expect(len(got) == len(m.terms), f"{len(got)} terms")
    for rate, coeffs in m.terms:
        match = [c for a, c in got if oracle.close(a, rate, 1e-9)]
        expect(len(match) == 1, f"rate {rate} not recovered")
        c = match[0] + [0j] * (len(coeffs) - len(match[0]))
        expect(len(c) == len(coeffs) and all(
            oracle.close(g, w, 1e-8) for g, w in zip(c, coeffs)),
            f"coefficients at {rate}: {c} != {coeffs}")


def inverse_image(text: str):
    return opcalc.to_exppoly(opcalc.to_rational(
        opcalc.from_signal(sigexpr.parse(text))))


def mixture_ops(m: Mixture, tag: str, inverse: bool) -> list[Op]:
    ops = [
        cli_op(f"spectrum --explain {tag}",
               CliConfig("spectrum", m.text, explain=True),
               lambda out: check_spectrum_explain(m, out)),
        cli_op(f"opform --json {tag}",
               CliConfig("opform", m.text, output="json"),
               lambda out: check_opform_json(m, out)),
    ]
    if inverse:
        ops.append(Op(f"to_exppoly(to_rational) {tag}",
                      lambda: inverse_image(m.text),
                      lambda x: check_inverse(m, x)))
    return ops


def fixed_mixture_faults() -> list[Op]:
    """Inputs that fail on every run today, whatever the seed."""
    stall = "root iteration stalls: _aberth stops on |p(z)| <= 1e-12 max|c_k|"
    cases = [
        ("sin(t)^12", [2, 4, 6, 8, 10, 12], stall),
        ("sin(1000*t)+sin(1/1000*t)", [1 / 1000, 1000], stall),
        ("sin(1e-9*t)", [1e-9], "clean_frequencies drops |f| <= FREQ_TOL"),
    ]
    ops = []
    for text, pos, fault in cases:
        want = sorted([-f for f in pos] + pos)

        ops.append(cli_op(
            f"spectrum --explain {text}",
            CliConfig("spectrum", text, explain=True),
            lambda out, want=want: check_frequencies(printed_frequencies(out),
                                                     want),
            known_fault=fault))
    return ops


def mixture(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for nrates, mult, count in MIXTURE_LADDER:
        for j in range(count):
            m = draw_mixture(rng, nrates, mult)
            ops += mixture_ops(m, f"[{nrates}x{mult}#{j}] {m.text}",
                               mult <= 2 and nrates * mult <= 12)
    ops += fixed_mixture_faults()
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# equation

ATOM_W = [Fraction(p, d) for d in (1, 2, 3, 4) for p in range(1, 4 * d + 1)
          if math.gcd(p, d) == 1]
SCALES = [Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2),
          Fraction(-3, 2), Fraction(5, 3)]
# ops per round: (atom, count), and Weyl-operator orders
EQUATION_SPECTRA = [("sinc", 16), ("rcos", 16), ("delay", 12), ("chirp", 12)]
EQUATION_CONTRASTS = 20
EQUATION_INSTFREQ = [("sinc", 16), ("rcos", 16)]
MUL_ORDERS = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)] * 3
APPLY_ORDERS = [1, 2, 3] * 6
COMMUTATORS = 8
# Evaluation points for rational-function checks, away from the drawn poles
S_POINTS = (1.7 + 2.9j, -2.6 + 0.8j)


def scaled(scale: Fraction, atom: str) -> str:
    return atom if scale == 1 else f"{scale}*{atom}"


def atom_jet(kind: str, w: float, scale: float, t: float) -> tuple:
    """x'(t), x''(t) of scale*sinc(w) or scale*rcos(w), from jets."""
    tj = oracle.Jet.var(t, 2)
    s, c = (tj * w).sin_cos()
    x = s / tj if kind == "sinc" else c / (tj * tj + 1.0)
    x = x * scale
    return x.derivative(1), x.derivative(2)


def check_atom_spectrum(want: list, flag: bool, out: str):
    lines = out.split("\n")
    expect(lines[0] == "class: ode-defined", lines[0])
    points = [oracle.c12(ln[len("singular point "):].partition(":")[0])
              for ln in lines if ln.startswith("singular point ")]
    expect(len(points) == len(want) and all(
        oracle.close(p, complex(0, w), REL) for p, w in zip(points, want)),
        f"singular points {points}")
    check_frequencies(printed_frequencies(out), want)
    expect(lines[-1] == f"infinite singularity: {'yes' if flag else 'no'}",
           lines[-1])


def check_sinc_contrast(w: float, out: str):
    doc = json.loads(out)
    check_frequencies(doc["algebraic_frequencies"], [-w, w])
    expect(doc["infinite_singularity"] is False, "flag raised")
    expect(len(doc["sweep"]) >= 2, "no sweep")
    for row in doc["sweep"]:
        om = row["omega"]
        check_frequencies(row["algebraic_frequencies"], [-om, om])
        expect(oracle.close(row["rectangle_width"], 2 * om, REL),
               f"rectangle width {row['rectangle_width']} at omega {om}")


def check_phi_text(method: str, want_t, want_phi, out: str, rel: float):
    lines = out.split("\n")
    expect(lines[:2] == [f"method: {method}", "t phi"], f"header {lines[:2]}")
    rows = lines[2:]
    expect(len(rows) == len(want_t), f"{len(rows)} rows")
    got = np.array([[float(v) for v in ln.split(" ")] for ln in rows])
    expect(np.allclose(got[:, 0], want_t, rtol=REL, atol=REL),
           "times differ")
    err = np.abs(got[:, 1] - want_phi)
    expect(bool(np.all(err <= rel * np.maximum(1.0, np.abs(want_phi)))),
           f"phi differs by up to {float(np.max(err)):.3e}")


def draw_rat(rng: random.Random, with_den: bool = True):
    """(a0 + a1 s) / (s - b), or a0 + a1 s: the numerator never cancels,
    since a0 = a1 b has no solution among halves of odd numbers.  Returns
    the RatFunc and its coefficient lists."""
    num = [rng.choice(COEFFS), rng.choice(COEFFS)]
    den = [-rng.choice(COEFFS), Fraction(1)] if with_den else [Fraction(1)]
    return RatFunc(CPoly(num), CPoly(den)), (num, den)


def rat_jet(nd, s: complex, order: int) -> oracle.Jet:
    x = oracle.Jet.var(s, order)
    return oracle.poly_jet(nd[0], x) / oracle.poly_jet(nd[1], x)


def rat_value(r: RatFunc, s: complex) -> complex:
    """Value of a program-built RatFunc from its exact coefficients."""
    num = [complex(float(c.re), float(c.im)) for c in r.num.coeffs]
    den = [complex(float(c.re), float(c.im)) for c in r.den.coeffs]
    return oracle.horner(num, s) / oracle.horner(den, s)


def draw_op(rng: random.Random, order: int):
    """An operator whose even-order coefficients carry a denominator."""
    parts = [draw_rat(rng, k % 2 == 0) for k in range(order + 1)]
    return WeylOp(tuple(r for r, _ in parts)), [nd for _, nd in parts]


def check_mul(a: WeylOp, b: WeylOp, r: RatFunc, m: WeylOp):
    expect(m.order == a.order + b.order, f"order {m.order}")
    expect(weylode.apply(m, r) == weylode.apply(a, weylode.apply(b, r)),
           "apply(mul_ops(a, b), r) != apply(a, apply(b, r))")


def check_apply(op_nd, r_nd, result: RatFunc):
    order = len(op_nd) - 1
    for s in S_POINTS:
        rj = rat_jet(r_nd, s, order)
        want = sum(rat_jet(c, s, 0).c[0] * rj.derivative(k)
                   for k, c in enumerate(op_nd))
        got = rat_value(result, s)
        expect(oracle.close(got, want, 1e-9), f"apply at {s}: {got} != {want}")


def check_commutator(r_nd, result: WeylOp):
    # D r - r D = r' as operators: an order-0 operator whose coefficient is r'
    expect(result.order == 0, f"order {result.order}")
    for s in S_POINTS:
        want = rat_jet(r_nd, s, 1).derivative(1)
        got = rat_value(result.coeffs[0], s)
        expect(oracle.close(got, want, 1e-9),
               f"[D, r] at {s}: {got} != {want}")


def commutator(x: WeylOp) -> WeylOp:
    return weylode.mul_ops(WeylOp.D, x) - weylode.mul_ops(x, WeylOp.D)


def equation(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for kind, count in EQUATION_SPECTRA:
        for _ in range(count):
            scale = rng.choice(SCALES)
            if kind in ("sinc", "rcos"):
                w = rng.choice(ATOM_W)
                text = scaled(scale, f"{kind}({w})")
                want, flag = [-float(w), float(w)], False
            elif kind == "delay":
                text = scaled(scale, f"delay({rng.choice(ATOM_W)})")
                want, flag = [], False
            else:
                a, b = rng.choice(ATOM_W), rng.choice(COEFFS)
                c = rng.choice([Fraction(0)] + COEFFS)
                text = scaled(scale, f"chirp({a},{b},{c})")
                want, flag = [], True
            ops.append(cli_op(
                f"spectrum --explain {text}",
                CliConfig("spectrum", text, explain=True),
                lambda out, want=want, flag=flag:
                    check_atom_spectrum(want, flag, out)))
    for _ in range(EQUATION_CONTRASTS):
        w = rng.choice(ATOM_W)
        text = scaled(rng.choice(SCALES), f"sinc({w})")
        ops.append(cli_op(f"contrast --json {text}",
                          CliConfig("contrast", text, output="json"),
                          lambda out, w=float(w): check_sinc_contrast(w, out)))
    for kind, count in EQUATION_INSTFREQ:
        for _ in range(count):
            w, scale = rng.choice(ATOM_W), rng.choice(SCALES)
            t = rng.randint(2, 16) / 4
            text = scaled(scale, f"{kind}({w})")
            x1, x2 = atom_jet(kind, float(w), float(scale), t)
            ops.append(cli_op(
                f"instfreq {text} --at {t}",
                CliConfig("instfreq", text, at=t),
                lambda out, t=t, p=oracle.phi_from(x1, x2):
                    check_phi_text("symbolic", [t], [p], out, 1e-9)))
    # Phi of sinc(2) at t = 0 is -8/3 (x = 2 - 4t^2/3 + ...), but the
    # symbolic route divides by t there
    ops.append(cli_op(
        "instfreq sinc(2) --at 0", CliConfig("instfreq", "sinc(2)", at=0.0),
        lambda out: check_phi_text("symbolic", [0.0], [-8 / 3], out, 1e-9),
        known_fault="phi_symbolic: removable singularity of sinc at t = 0"))
    for oa, ob in MUL_ORDERS:
        (a, _), (b, _) = draw_op(rng, oa), draw_op(rng, ob)
        r, _ = draw_rat(rng)
        ops.append(Op(f"mul_ops order {oa}x{ob}",
                      lambda a=a, b=b: weylode.mul_ops(a, b),
                      lambda m, a=a, b=b, r=r: check_mul(a, b, r, m)))
    for order in APPLY_ORDERS:
        op, op_nd = draw_op(rng, order)
        r, r_nd = draw_rat(rng)
        ops.append(Op(f"apply order {order}",
                      lambda op=op, r=r: weylode.apply(op, r),
                      lambda out, op_nd=op_nd, r_nd=r_nd:
                          check_apply(op_nd, r_nd, out)))
    for _ in range(COMMUTATORS):
        r, r_nd = draw_rat(rng)
        x = WeylOp((r,))
        ops.append(Op("D*r - r*D", lambda x=x: commutator(x),
                      lambda out, r_nd=r_nd: check_commutator(r_nd, out)))
    ops.append(Op("D*s - s*D", lambda: commutator(WeylOp.S),
                  lambda out: expect(out == WeylOp.IDENTITY,
                                     "Weyl relation D*s - s*D = 1 fails")))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sampled

# instfreq --csv files per round: (samples, window, degree).  Sizes are
# fixed and spread evenly, so the op costs near the 90th percentile form a
# continuum whatever the seed; the seed draws the cubics.
CSV_CASES = [(600 + 200 * j, (11, 7, 15)[j % 3], (3, 4, 3)[j % 3])
             for j in range(16)] + [(20000, 11, 3)] * 2
DFT_EXPONENTS = range(6, 13)     # n = 2^k and 2^k - 1, once each
TONE_CONTRASTS = 54
DIRAC_CONTRASTS = 16


def write_cubic_csv(rng: random.Random, path: Path, n: int):
    """Samples of a cubic on [-1, 1]; returns (times, x', x'')."""
    a = [rng.uniform(-2, 2) for _ in range(4)]
    t = np.linspace(-1.0, 1.0, n)
    x = a[0] + t * (a[1] + t * (a[2] + t * a[3]))
    with open(path, "w") as fh:
        fh.write("t,x\n")
        fh.writelines(f"{ti!r},{xi!r}\n"
                      for ti, xi in zip(t.tolist(), x.tolist()))
    return t, a[1] + t * (2 * a[2] + 3 * a[3] * t), 2 * a[2] + 6 * a[3] * t


def check_fitted(t, x1, x2, window: int, out: str):
    half = window // 2
    sl = slice(half, len(t) - half)
    want = x2[sl] / np.sqrt(1.0 + x1[sl] ** 2)
    check_phi_text("fitted", t[sl], want, out, 1e-6)


def tone_signal(rng: random.Random, n: int):
    """A tone on bin m of an n-point grid, plus seeded noise."""
    dt = 0.01 * rng.randint(1, 10)
    m = rng.randint(1, (n - 1) // 2)
    w = 2 * math.pi * m / (n * dt)
    amp = rng.uniform(1, 3)
    times = [k * dt for k in range(n)]
    values = [amp * math.sin(w * tk) + 0.1 * rng.uniform(-1, 1)
              for tk in times]
    return times, values, w, dt


def check_dft(values, w: float, dt: float, result):
    n = len(values)
    mags = np.array(result.magnitudes)
    want = np.abs(np.fft.fft(np.array(values)))
    expect(bool(np.all(np.abs(mags - want) <= 1e-9 * want.max())),
           "magnitudes differ from numpy.fft.fft")
    k = np.arange(n)
    bins = 2 * math.pi * np.where(k < (n + 1) // 2, k, k - n) / (n * dt)
    expect(np.allclose(result.bin_frequencies, bins, rtol=1e-12, atol=1e-9),
           "bin frequencies")
    top = sorted(bins[np.argsort(-mags, kind="stable")[:2]])
    expect(oracle.close(top[0], -w, 1e-9) and oracle.close(top[1], w, 1e-9),
           f"peaks at {top}, tone at {w}")


def check_tone_contrast(w: float, out: str):
    doc = json.loads(out)
    check_frequencies(doc["algebraic_frequencies"], [-w, w])
    # contrast samples 256 points 0.05 apart: peaks within one bin of +-w
    width = 2 * math.pi / (256 * 0.05)
    lo, hi = doc["dft_dominant_bins"]
    expect(abs(lo + w) <= width and abs(hi - w) <= width,
           f"dominant bins {lo}, {hi} for tone {w}")


def check_dirac_contrast(out: str):
    doc = json.loads(out)
    expect(doc["algebraic_frequencies"] == [], "impulse has frequencies")
    expect(doc["infinite_singularity"] is False, "flag raised")
    expect(doc["fourier"].startswith("flat"), doc["fourier"])


def sampled(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for j, (n, window, degree) in enumerate(CSV_CASES):
        path = workdir / f"cubic-{j}-{n}.csv"
        t, x1, x2 = write_cubic_csv(rng, path, n)
        ops.append(cli_op(
            f"instfreq --csv {path.name} --window {window} --degree {degree}",
            CliConfig("instfreq", csv_path=str(path), window=window,
                      degree=degree),
            lambda out, t=t, x1=x1, x2=x2, window=window:
                check_fitted(t, x1, x2, window, out)))
    for k in DFT_EXPONENTS:
        for n in (2 ** k, 2 ** k - 1):
            times, values, w, dt = tone_signal(rng, n)
            ops.append(Op(
                f"dft n={n}",
                lambda times=times, values=values: fouriercontrast.dft(
                    instfreq.SampledSignal(times, values)),
                lambda out, values=values, w=w, dt=dt:
                    check_dft(values, w, dt, out)))
    for _ in range(TONE_CONTRASTS):
        w = Fraction(rng.randint(4, 80), rng.choice((2, 3, 4)))
        text = scaled(rng.choice(SCALES), f"sin({w}*t)")
        ops.append(cli_op(f"contrast --json {text}",
                          CliConfig("contrast", text, output="json"),
                          lambda out, w=float(w): check_tone_contrast(w, out)))
    for _ in range(DIRAC_CONTRASTS):
        text = scaled(rng.choice(SCALES), "dirac()")
        ops.append(cli_op(f"contrast --json {text}",
                          CliConfig("contrast", text, output="json"),
                          check_dirac_contrast))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"mixture": mixture, "equation": equation, "sampled": sampled}
# Seconds one round takes (op calls and reference loops) on the reference
# host of run.py, where the reference loop takes REF_LOOP_S; a run makes
# --seconds / ROUND_SECONDS rounds, at least three.
ROUND_SECONDS = {"mixture": 5.6, "equation": 3.8, "sampled": 2.9}
