"""Digests of every output of the bench's op lists and of the demos.

    python3 tools/digest_outputs.py [--seeds 1 2 3 4 5]

Run from anywhere: the program is imported from the src directory of the
checkout this file sits in, and the op lists are built by that checkout's
bench/workloads.py, read only, in a temporary work directory.  Each op runs
once.  A CLI op contributes its (status, stdout, stderr), a library op the
`repr` of its result, with NumPy arrays printed in full at round-trip
precision.  Each demo contributes its standard output.  The script prints
one SHA-256 per workload, over all the seeds, and one for the demos, so two
checkouts give the same lines exactly when their outputs are the same.

It also prints one `trees` SHA-256 over `repr(parse(text))` of every text
the op lists pass to `sigexpr.parse`, in call order, so a parser change that
keeps every output but builds another tree shows too, and one `roots`
SHA-256 over the poles, partial fractions, spectrum and, for a strictly
proper image, inverse image of a fixed corpus of rational functions that
no bench op reaches (`roots_corpus`).  A `texts` SHA-256 covers what the
package prints in the signal grammar: `pretty_print` of each of those
trees, and `ExpPoly.format` of each exponential polynomial among them and
of each inverse image of the corpus (`printed_texts`).  A `jets` SHA-256
covers the order-2 series `sigexpr._jet` of each of those trees at
t = 0.5 and 1.25, where it is in floats, and a `jets0` SHA-256 the same
series at t = 0, where it is exact.  A `parsed` SHA-256 covers
`repr(parse(text))`, or the failure, of a fixed list of texts that no
bench op writes (`PARSED_TEXTS`): rational functions of t, which reach
`as_ratfunc_in_t` and the rational fold of `make_mul`, and call arguments
that `_linear_call` does not read off the tokens.  A `csv` SHA-256 covers
`instfreq --csv` in text and in JSON at degrees 3 and 2, its output or its
error line, over a fixed corpus of files (`csv_corpus`).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"


def workload_digest(name: str, make_ops, seeds, workdir: Path) -> str:
    """The digest of one workload's outputs over the seeds, in op order.
    The work directory's path is masked, so digests made in different
    directories compare."""
    import numpy as np

    h = hashlib.sha256()
    for seed in seeds:
        where = workdir / f"{name}-{seed}"
        where.mkdir()
        # the same seed string as bench/run.py, so the same inputs
        ops = make_ops(random.Random(f"{name}:{seed}"), where)
        for op in ops:
            try:
                out = op.call()
            except Exception as exc:    # a raising op is an output too
                out = f"raised {type(exc).__name__}: {exc}"
            with np.printoptions(threshold=sys.maxsize, floatmode="unique"):
                text = repr(out)
            h.update(op.name.replace(str(where), "<work>").encode())
            h.update(b"\0")
            h.update(text.replace(str(where), "<work>").encode())
            h.update(b"\0")
    return h.hexdigest()


def recording_parse(texts: list[str]):
    """The parser, after every algspec module that holds `sigexpr.parse`
    was given a wrapper that appends each text it is called on to texts."""
    import algspec.sigexpr

    parse = algspec.sigexpr.parse

    def recording(text):
        texts.append(text)
        return parse(text)

    for modname, mod in list(sys.modules.items()):
        if modname.partition(".")[0] == "algspec":
            for key, value in list(vars(mod).items()):
                if value is parse:
                    setattr(mod, key, recording)
    return parse


def outcome(call, *args) -> str:
    """`repr` of call(*args), or the failure it raises."""
    try:
        return repr(call(*args))
    except Exception as exc:            # a refusal is an outcome too
        return f"raised {type(exc).__name__}: {exc}"


# Texts that no bench op writes: products and quotients of polynomials in
# t, call arguments of other shapes, and arguments whose slope in t is 0.
PARSED_TEXTS = [
    "t/(t^2 + 1)*sin(t)", "(t^2 + 1)/(t^3 - 2*t + 1/2)*sin(t)",
    "1/t*t*(1 + t)^2", "t*(1 + t)^2/t", "(1/2 - t^2)/(t + 3)",
    "(2*t + 1)^2/(t - 1)*exp(-t)",
    "sin(2.5*t + 0.25)", "exp(-0.5*t)*cos(t*2)", "cos(1e-9*t - 1/3)",
    "sin((t + 1)/2)",
    "sin(0*t + 3)", "sin(t - t + 3)", "cos(2*t - 2*t)", "sin(3)",
    "exp(t - t)",
]


def trees_digest(parse, texts: list[str]) -> str:
    """The digest of the tree, or the failure, that each text parses to."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode() + b"\0" + outcome(parse, text).encode()
                 + b"\0")
    return h.hexdigest()


def recorded_trees(parse, texts: list[str]) -> list:
    """The tree of every text that parses, in call order; the refusals are
    in the trees digest."""
    trees = []
    for text in texts:
        try:
            trees.append(parse(text))
        except Exception:
            pass
    return trees


def printed_texts(parse, texts: list[str]) -> list[str]:
    """The signal-grammar text of every tree the texts parse to, then the
    text of the exponential polynomial of each such tree that is one, and
    of the inverse image of each strictly proper image of `roots_corpus`."""
    from algspec.opcalc import from_signal, to_exppoly
    from algspec.sigexpr import SignalClass, classify, pretty_print

    trees = recorded_trees(parse, texts)
    out = [outcome(pretty_print, e) for e in trees]
    out += [outcome(lambda x: from_signal(x).format(), e) for e in trees
            if classify(e) is SignalClass.EXP_POLYNOMIAL]
    out += [outcome(lambda r: to_exppoly(r).format(), r)
            for r in roots_corpus(parse) if r.is_strictly_proper]
    return out


def texts_digest(parse, texts: list[str]) -> str:
    """The digest of `printed_texts`, so a printer change that keeps every
    output moves this line alone."""
    h = hashlib.sha256()
    for text in printed_texts(parse, texts):
        h.update(text.encode() + b"\0")
    return h.hexdigest()


def jets_digest(parse, texts: list[str], times) -> str:
    """The digest of the outcome of `_jet(e, t, 2)` for every tree e the
    texts parse to and each t of times."""
    from algspec.sigexpr import _jet

    h = hashlib.sha256()
    for e in recorded_trees(parse, texts):
        for t in times:
            h.update(outcome(_jet, e, t, 2).encode() + b"\0")
    return h.hexdigest()


def roots_corpus(parse) -> list:
    """Rational functions whose roots no bench op reaches: 1/(f^a g^b) for
    pairs of s^3 - 2, s^3 - 3, s^5 - s - 1 and s^2 + s + 1, a and b in
    {1, 2}; denominators with exact and float roots; complex images; a
    degree-70 image with 70 exact poles; a quartic whose roots lie 1e-6
    apart in two pairs; the image of (t+1)^60*exp(-t/3), one exact pole of
    multiplicity 61 among many float candidates."""
    from fractions import Fraction as F

    from algspec.opcalc import from_signal, to_rational
    from algspec.ratfield import CPoly, Qi, RatFunc

    s, one = CPoly.S, CPoly.ONE

    def lin(q):                      # s - q
        return s - CPoly.scalar(q)

    base = [CPoly([-2, 0, 0, 1]), CPoly([-3, 0, 0, 1]),
            CPoly([-1, -1, 0, 0, 0, 1]), CPoly([1, 1, 1])]
    out = [RatFunc(one, f ** a * g ** b)
           for k, f in enumerate(base) for g in base[k + 1:]
           for a in (1, 2) for b in (1, 2)]
    damped = lin(F(-1, 8)) ** 2 + CPoly.scalar(F(49, 64))
    near = lin(F(1, 1000)) ** 2 + CPoly.scalar(F(1, 250000))
    out += [
        RatFunc(one, damped ** 2 * base[0]),
        RatFunc(CPoly([1, 2, F(1, 3)]),
                lin(F(1, 3)) ** 2 * CPoly([2, 0, 1]) * base[2]),
        RatFunc(s ** 9 + one, damped * base[1] * lin(F(-5, 7))),
        RatFunc(s + one, (near * base[0]) ** 3),
        RatFunc(one, (lin(F(1, 1000)) * lin(F(1, 500)) * base[0]) ** 3),
    ]
    out += [
        RatFunc(CPoly([Qi(1, 2), 1]),
                lin(Qi(1, 2)) ** 2 * lin(Qi(0, -3)) * lin(F(-1, 2))),
        RatFunc(one, CPoly([Qi(0, -2), 0, 0, 1])
                * lin(Qi(F(1, 7), F(2, 7))) ** 3),
        RatFunc(CPoly([Qi(0, 1), 1, Qi(2, -1)]), damped ** 3 * lin(Qi(0, 1))),
        RatFunc(CPoly([Qi(F(1, 3), 1)]), damped * base[3] ** 2),
    ]
    out.append(to_rational(from_signal(parse(
        "(sin(3/8*t)+cos(5/4*t)*exp(-3/8*t)+exp(1/8*t))^4"))))
    w2 = CPoly.scalar((1 + F(1, 10 ** 6)) ** 2)
    out.append(RatFunc(s * s + CPoly.scalar(3), (s * s + one) * (s * s + w2)))
    out.append(to_rational(from_signal(parse("(t+1)^60*exp(-t/3)"))))
    return out


def roots_digest(parse) -> str:
    """The digest of `repr` of poles, partial fractions, spectrum and, for
    a strictly proper image, inverse image over `roots_corpus`."""
    from algspec.opcalc import to_exppoly
    from algspec.ratfield import partial_fractions, poles, spectrum_of_rational

    h = hashlib.sha256()
    for r in roots_corpus(parse):
        calls = [poles, partial_fractions, spectrum_of_rational]
        if r.is_strictly_proper:
            calls.append(to_exppoly)
        for call in calls:
            h.update(outcome(call, r).encode() + b"\0")
    return h.hexdigest()


def _csv_rows(n=15, sep="\n", fmt="{t},{x}") -> str:
    return "".join(fmt.format(t=k / 10, x=(k / 10) ** 3 - k / 7) + sep
                   for k in range(n))


def _grid_csv(t0: float, dt: float, n: int, scale: float = 1.0) -> str:
    """A 't,x' file of n uniform samples from t0, of the cubic of
    `_csv_rows` in the sample number, times scale."""
    return "t,x\n" + "".join(
        f"{t0 + k * dt!r},{scale * ((k / 10) ** 3 - k / 7)!r}\n"
        for k in range(n))


def csv_corpus() -> dict[str, str]:
    """File name -> text: the shapes the array pass of `cli._read_csv`
    takes whole (CRLF, blank lines, padded fields and header, negative
    zeros, extreme values), a CR-only file, plain files under compressed
    suffixes, and one cubic of 20,000 samples; then uniform files whose
    printed cells cross the boundaries of 12-digit text: times that are
    all ties, times k*1e-6 across the 1e-5 and 1e-4 switches of `%g`,
    times across 1e11, 1e12 and 1e13, and a Phi with 3-digit exponents;
    and uniform files sampled every 1e-9 and every 1e5, whose fits must
    not depend on the time unit."""
    t = [-1 + 2 * k / 19999 for k in range(20000)]
    cubic = "".join(f"{tk!r},{0.5 + tk * (1.25 - tk * (0.75 + tk))!r}\n"
                    for tk in t)
    return {
        "crlf.csv": "t,x\r\n" + _csv_rows(sep="\r\n"),
        "blank_lines.csv": "t,x\n\n" + _csv_rows(sep="\n\n"),
        "spaces.csv": "t,x\n" + _csv_rows(fmt=" {t} ,\t{x} "),
        "header_spaces.csv": " t , x \n" + _csv_rows(),
        "negative_zero.csv": "t,x\n-0.0,-0.0\n" + _csv_rows(fmt="{t}1,-0.0"),
        "extremes.csv": "t,x\n" + _csv_rows(fmt="{t},1e-300") + "2,1.7e308\n",
        "carriage_returns.csv": "t,x\r" + _csv_rows(sep="\r"),
        "plain.xz": "t,x\n" + _csv_rows(),
        "plain.gz": "t,x\n" + _csv_rows(),
        "cubic-20000.csv": "t,x\n" + cubic,
        "ties.csv": _grid_csv(100000000000.5, 1.0, 40),
        "micro.csv": _grid_csv(0.0, 1e-6, 200),
        "near-1e11.csv": _grid_csv(99999999998.0, 0.125, 40),
        "near-1e12.csv": _grid_csv(999999999990.25, 0.5, 40),
        "near-1e13.csv": _grid_csv(9999999999980.0, 1.0, 40),
        "tiny-phi.csv": _grid_csv(0.0, 0.1, 40, scale=1e-200),
        "nano.csv": _grid_csv(0.0, 1e-9, 200),
        "mega.csv": _grid_csv(0.0, 1e5, 200),
    }


def csv_digest() -> str:
    """The digest of `instfreq --csv`, text then JSON, at degree 3 and at
    degree 2, over `csv_corpus`: (status, stdout, stderr) of each, with the
    work directory masked.  Both degrees run on every file, so a change
    to either fit, or to the rank verdict of its per-window route, shows."""
    from algspec.cli import CliConfig, run

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in csv_corpus().items():
            path = Path(tmp, name)
            path.write_text(text, newline="")
            for degree in (3, 2):
                for output in ("text", "json"):
                    got = run(CliConfig("instfreq", csv_path=str(path),
                                        degree=degree, output=output))
                    h.update(repr(got).replace(tmp, "<work>").encode()
                             + b"\0")
    return h.hexdigest()


def demos_digest() -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    h = hashlib.sha256()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                              env=env, capture_output=True, timeout=600)
        h.update(demo.name.encode() + b"\0" + proc.stdout + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    texts = []
    parse = recording_parse(texts)
    with tempfile.TemporaryDirectory() as tmp:
        for name, make_ops in WORKLOADS.items():
            digest = workload_digest(name, make_ops, args.seeds, Path(tmp))
            print(f"{name}  {digest}", flush=True)
    print(f"trees  {trees_digest(parse, texts)}", flush=True)
    print(f"roots  {roots_digest(parse)}", flush=True)
    print(f"texts  {texts_digest(parse, texts)}", flush=True)
    print(f"jets  {jets_digest(parse, texts, (0.5, 1.25))}", flush=True)
    print(f"jets0  {jets_digest(parse, texts, (0.0,))}", flush=True)
    print(f"parsed  {trees_digest(parse, PARSED_TEXTS)}", flush=True)
    print(f"demos  {demos_digest()}", flush=True)
    print(f"csv  {csv_digest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
