#!/usr/bin/env python3
"""The dictionary between signals and rational functions is exact both ways.

Every finite sum  sum_j P_j(t) * exp(a_j t)  with complex rates corresponds
to exactly one strictly proper rational function of s, and vice versa:

    c * t^k * exp(a t)   <->   c * k! / (s - a)^(k+1)

This script walks the dictionary in both directions, shows that a round
trip returns the term list we started from, and that the derivation rule

    multiply the signal by -t   <->   differentiate the image in s

holds on the nose.  Everything here is term algebra; nothing is sampled.
"""

import random
from fractions import Fraction

from algspec import (CPoly, ExpPoly, Qi, RatFunc, alg_deriv, from_signal,
                     mult_by_minus_t, parse, to_exppoly, to_rational)


def show_forward(text: str) -> None:
    x = from_signal(parse(text))
    r = to_rational(x)
    print(f"  {text:24s} ->  {r.format()}")


def show_backward(num, den, label: str) -> None:
    r = RatFunc(CPoly(num), CPoly(den))
    x = to_exppoly(r)
    print(f"  {r.format():24s} ->  {x.format()}   ({label})")


def main() -> None:
    print(__doc__)
    print("forward (signal to image):")
    for text in ("sin(3*t)", "t*exp(2*t)", "t^2*exp(-t)", "1",
                 "sin(t)^2", "exp(i*t)"):
        show_forward(text)

    print("\nbackward (image to signal):")
    show_backward([2], [4, 0, 1], "a sine again")
    show_backward([0, 2], [-1, 0, 1], "hyperbolic pair")
    show_backward([1], [1, 2, 1], "double real pole")
    print("  (each pole lies in Q(i) and is found exactly, so the trip back")
    print("   is exact: the rates and coefficients are the very ones)")

    print("\nround trip on a random mixture:")
    rng = random.Random(7)
    rates = [Qi(Fraction(-1)), Qi(0, 2), Qi(1, -1)]
    terms = []
    for rate in rates:
        coeffs = [Qi(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                  for _ in range(rng.randint(1, 3))]
        poly = CPoly(coeffs)
        if poly.is_zero:
            poly = CPoly.ONE
        terms.append((rate, poly))
    x = ExpPoly(tuple(terms))
    back = to_exppoly(to_rational(x))
    print(f"  start : {x.format()}")
    print(f"  back  : {back.format()}")
    print(f"  identical term lists: {back == x}")

    print("\nthe derivation rule, checked exactly on sin(2*t):")
    x = from_signal(parse("sin(2*t)"))
    lhs = to_rational(mult_by_minus_t(x))
    rhs = alg_deriv(to_rational(x))
    print(f"  image of -t*sin(2*t) : {lhs.format()}")
    print(f"  d/ds of its image    : {rhs.format()}")
    print(f"  identical rational functions: {lhs == rhs}")


if __name__ == "__main__":
    main()
