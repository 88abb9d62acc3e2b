#!/usr/bin/env python3
"""Signals with no rational image still get a spectrum -- from an equation.

The cardinal sine, the raised cosine, the pure delay, and the linear sweep
are not finite exponential mixtures, so no rational function represents
them.  Each one, however, satisfies a linear differential equation in the
operational variable s, and that equation has singular points we can find
and classify.  The recipe:

  * frequencies = imaginary parts of the finite singular points;
  * a regular point whose quadrature introduces a logarithm is marked so;
  * the sweep has no finite singular point at all -- its only singularity
    sits at s = infinity, which the spectrum records as a flag instead of
    a number.
"""

from algspec import (analyze, catalog_equation, format_equation, parse,
                     singularity_at_infinity)

CATALOG = ["sinc(3)", "rcos(2)", "delay(1/2)", "chirp(1, 2, 3)"]


def _c(z: complex) -> str:
    if z.imag == 0:
        return f"{z.real:g}"
    if z.real == 0:
        return f"{z.imag:g}i"
    return f"{z.real:g} {'+' if z.imag > 0 else '-'} {abs(z.imag):g}i"


def main() -> None:
    print(__doc__)
    for text in CATALOG:
        e = parse(text)
        sys = catalog_equation(e)
        analysis = analyze(e)
        spec = analysis.spectrum
        print(f"signal    : {text}")
        print(f"equation  : {format_equation(sys)}")
        if analysis.finite_points:
            for p in analysis.finite_points:
                print(f"  finite singular point {_c(p.location)}: "
                      f"{p.kind}, {p.label}")
        else:
            print("  no finite singular points")
        inf = singularity_at_infinity(sys)
        if inf is None:
            print("  point at infinity: ordinary after normalization")
        else:
            print(f"  point at infinity: {inf.kind}")
        freqs = " ".join(f"{f:g}" for f in spec.frequencies) or "(none)"
        print(f"spectrum  : {freqs}"
              + ("   [infinite singularity]"
                 if spec.infinite_singularity else ""))
        print()

    print("Reading the table:")
    print("  sinc and rcos put their singular points at +/- i omega, so")
    print("  both spectra are the pair {-omega, omega}, found without any")
    print("  integral.  The delay equation has constant coefficients and")
    print("  no finite singularity: a pure delay carries no frequency of")
    print("  its own.  The sweep pushes all of its structure out to")
    print("  s = infinity; the flag says 'every instant, another rate'.")


if __name__ == "__main__":
    main()
