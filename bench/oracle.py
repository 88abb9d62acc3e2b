"""Computations the benchmark makes apart from the program under test.

Nothing here imports algspec.  The checks in workloads.py compare the
program's output against these: truncated Taylor series ("jets") for
derivatives, the image of an exponential polynomial summed in floats, and
readers for the text the CLI prints.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Jet:
    """Truncated Taylor series f(x0 + h) = sum c[k] h^k, k <= order."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = list(coeffs)

    @classmethod
    def var(cls, x0, order: int) -> "Jet":
        return cls(([x0, 1.0] + [0.0] * order)[:order + 1])

    @classmethod
    def const(cls, value, order: int) -> "Jet":
        return cls([value] + [0.0] * order)

    def _lift(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet.const(other, len(self.c) - 1)

    def __add__(self, other):
        o = self._lift(other)
        return Jet([a + b for a, b in zip(self.c, o.c)])

    def __mul__(self, other):
        o = self._lift(other)
        n = len(self.c)
        return Jet([sum(self.c[j] * o.c[k - j] for j in range(k + 1))
                    for k in range(n)])

    def __truediv__(self, other):
        o = self._lift(other)
        q = []
        for k in range(len(self.c)):
            acc = self.c[k] - sum(o.c[j] * q[k - j] for j in range(1, k + 1))
            q.append(acc / o.c[0])
        return Jet(q)

    def sin_cos(self) -> tuple["Jet", "Jet"]:
        u = self.c
        s, c = [math.sin(u[0])], [math.cos(u[0])]
        for k in range(1, len(u)):
            s.append(sum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k)
            c.append(-sum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k)
        return Jet(s), Jet(c)

    def derivative(self, k: int):
        return self.c[k] * math.factorial(k)


def poly_jet(coeffs, x: Jet) -> Jet:
    """Horner evaluation of an ascending coefficient list on a jet."""
    acc = Jet.const(0.0, len(x.c) - 1)
    for a in reversed(coeffs):
        acc = acc * x + complex(a)
    return acc


def horner(coeffs, z: complex) -> complex:
    acc = 0j
    for a in reversed(coeffs):
        acc = acc * z + a
    return acc


def phi_from(x1: float, x2: float) -> float:
    """Phi = x'' / sqrt(1 + x'^2), from the paper's definition."""
    return x2 / math.sqrt(1.0 + x1 * x1)


def image_value(terms, s: complex) -> complex:
    """sum over (rate a, [c_0, c_1, ...]) of c_k * k! / (s - a)^(k+1)."""
    acc = 0j
    for a, coeffs in terms:
        for k, c in enumerate(coeffs):
            acc += c * math.factorial(k) / (s - a) ** (k + 1)
    return acc


def close(got: complex, want: complex, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# Readers for CLI text


def _unwrap(txt: str) -> str:
    """Drop one pair of parentheses that encloses the whole text."""
    if not (txt.startswith("(") and txt.endswith(")")):
        return txt
    depth = 0
    for pos, ch in enumerate(txt):
        depth += ch == "("
        depth -= ch == ")"
        if depth == 0:
            return txt[1:-1] if pos == len(txt) - 1 else txt
    return txt


def scalar(txt: str) -> complex:
    """Value of a printed scalar: '3', '(-1/2)', '2i', '(1/2-3i)', '1e-05'."""
    txt = _unwrap(txt)
    if not txt.endswith("i"):
        return complex(float(Fraction(txt)), 0.0)
    body = txt[:-1]
    cut = max((k for k in range(1, len(body))
               if body[k] in "+-" and body[k - 1] != "e"), default=None)
    re_txt, im_txt = ("", body) if cut is None else (body[:cut], body[cut:])
    im = {"": 1.0, "+": 1.0, "-": -1.0}.get(im_txt)
    if im is None:
        im = float(Fraction(im_txt))
    re = float(Fraction(re_txt)) if re_txt else 0.0
    return complex(re, im)


def poly(txt: str, var: str = "s") -> list[complex]:
    """Ascending coefficients of a printed polynomial such as
    '(1/2)s^3 - s + (-3/4)'."""
    tokens = _unwrap(txt).split(" ")
    coeffs: dict[int, complex] = {}
    sign = 1
    for k, tok in enumerate(tokens):
        if k % 2:
            if tok not in "+-":
                raise ValueError(f"unexpected token {tok!r} in {txt!r}")
            sign = -1 if tok == "-" else 1
            continue
        head, _, power = tok.partition(var)
        if tok.endswith(var) or power.startswith("^"):
            deg = int(power[1:]) if power else 1
            c = {"": 1.0, "-": -1.0}.get(head)
            c = scalar(head) if c is None else complex(c)
        else:
            deg, c = 0, scalar(tok)
        coeffs[deg] = coeffs.get(deg, 0j) + sign * c
    top = max(coeffs)
    return [coeffs.get(d, 0j) for d in range(top + 1)]


def rational(txt: str) -> tuple[list[complex], list[complex]]:
    """Numerator and denominator of a printed 'N / (D)' or polynomial."""
    num, sep, den = txt.partition(" / ")
    if not sep:
        return poly(num), [1.0 + 0j]
    return poly(num), poly(den)


def c12(txt: str) -> complex:
    """Value of a printed complex location: '-0.25 - 1.5i', '2i', '0'."""
    parts = txt.split(" ")
    if len(parts) == 1:
        return scalar(parts[0])
    re_txt, op, im_txt = parts
    im = scalar(im_txt).imag
    return complex(float(re_txt), im if op == "+" else -im)


def numbers(txt: str) -> list[float]:
    return [float(v) for v in txt.split()]

