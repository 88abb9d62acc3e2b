"""Exact arithmetic in C(s) and the pole-based spectrum.

Polynomials and rational functions carry exact coefficients, so gcd
cancellation and reduction are exact and no spurious poles appear.  A scalar
`Qi` is one Gaussian integer over a positive integer denominator, and a
polynomial `CPoly` stores Gaussian integers over one positive integer
denominator, so their arithmetic, division included, runs on integers.  Most
gcds are 1; `poly_gcd` certifies that modulo one fixed prime P = 1 (mod 4),
sending i to a square root of -1 (W. S. Brown, JACM 1971).  The exact
Euclidean algorithm runs only when the certificate does not apply: the
images share a factor, a denominator is divisible by P, or a leading
coefficient vanishes mod P.  The roots in Q(i) come first (`poly_roots`):
each candidate read off the float roots is certified, with its
multiplicity, by one exact Taylor shift of the whole polynomial on Gaussian
integers (`_root_shift`), shifted once however often it is proposed, and
the conjugate of a root of a real polynomial needs no shift.  Only when
float roots remain is the polynomial divided, once, by the certified
factors; that cofactor is split by Yun's decomposition and solved per
square-free factor (`_square_free_roots`), whose roots outside Q(i) are
floats, by Aberth's method.  The shift that certifies a pole, run m more
steps, gives the local Laurent series of partial fractions; at a float pole
a shift of the denominator gives it, with the first-order step to the roots
the pole stands for, which must be small at the pole's scale.  The
package's immutable value classes share one base, `_FrozenValue`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Set
from decimal import Context, Decimal
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "Qi", "CPoly", "RatFunc", "Pole", "SingularitySource", "Spectrum",
    "RootFindingError", "DigitLimitError", "poles", "spectrum_of_rational",
    "partial_fractions", "PartialFractions", "alg_deriv", "snap_axes",
]

# Relative tolerance for merging conjugate-symmetric float noise in
# frequency sets and for deciding that a singularity sits on the real axis.
FREQ_TOL = 1e-9


class _FrozenValue:
    """Base of the package's immutable values.  A subclass names its
    compared fields in `_fields` and sets them with `object.__setattr__` in
    its own `__init__`; equality (same class only), hash and repr read those
    fields, in the forms a frozen dataclass gives, and no attribute can be
    assigned or deleted afterwards."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class RootFindingError(ArithmeticError):
    """Simultaneous root iteration failed to converge within its budget."""


class DigitLimitError(ValueError):
    """A number to print has more digits than the interpreter converts to
    text (`sys.get_int_max_str_digits`)."""

    def __init__(self):
        super().__init__("a number exceeds the limit of %d digits for a "
                         "printed integer" % sys.get_int_max_str_digits())


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) of an exact rational, or of a float by
    its exact binary expansion."""
    if type(x) is int:
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, (int, float, str)):
        f = Fraction(x)
        return f.numerator, f.denominator
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _int_text(n: int, d: int = 1) -> str:
    """"n", or "n/d" when d != 1, with the interpreter's digit limit
    reported as a `DigitLimitError`."""
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        raise DigitLimitError() from None


def _ratio_text(n: int, d: int) -> str:
    """n/d in lowest terms; a denominator above 10^9, which betrays a float
    origin, renders the value at 12 significant digits.  A nonzero value
    below the smallest normal float, 2^-1022, or beyond the float range is
    rounded from the integers, since its float would lose digits, underflow
    to 0 or overflow."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    if d > 1_000_000_000:
        if not (n and abs(n) << 1022 < d):
            try:
                return format(n / d, ".12g")
            except OverflowError:
                pass
        q = Context(prec=12).divide(Decimal(n), Decimal(d))
        return format(q.normalize(), "g")
    return _int_text(n, d)


def _qi_text(a: int, b: int, d: int) -> str:
    """Display form of (a + i*b)/d, d > 0, in lowest terms or not: "3",
    "-1/2", "i", "2i", "(1+2i)"; components whose reduced denominators
    betray float origins render at 12 significant digits."""
    if not b:
        return _ratio_text(a, d)
    if not a:
        if b == d:
            return "i"
        if b == -d:
            return "-i"
        return f"{_ratio_text(b, d)}i"
    sign = "+" if b > 0 else "-"
    mag = abs(b)
    imtxt = "i" if mag == d else f"{_ratio_text(mag, d)}i"
    return f"({_ratio_text(a, d)}{sign}{imtxt})"


# every integer of smaller magnitude is a float exactly
_FLOAT_EXACT = 1 << 53


class Qi:
    """Exact complex scalar, an element of Q(i).

    Stored as the Gaussian integer a + i*b over one positive integer
    denominator d, in canonical form (gcd(a, b, d) = 1; zero is 0, 0, 1),
    so equal values compare and hash equal and arithmetic runs on
    integers.  `re` and `im` give the parts as `Fraction`s.  Floats convert
    via their exact binary expansion, so values observed numerically can
    still take part in exact arithmetic.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        (p, q), (u, v) = _ratio(re), _ratio(im)
        # the lcm of reduced denominators leaves content 1
        d = q if q == v else q * v // math.gcd(q, v)
        self._a, self._b, self._d = p * (d // q), u * (d // v), d

    @classmethod
    def _make(cls, a: int, b: int, d: int) -> "Qi":
        """The scalar with these fields, which must be canonical."""
        z = object.__new__(cls)
        z._a, z._b, z._d = a, b, d
        return z

    @classmethod
    def _canon(cls, a: int, b: int, d: int) -> "Qi":
        """(a + i*b)/d for an integer d > 0, put in canonical form."""
        if d != 1:
            g = math.gcd(a, b, d)
            if g != 1:
                a, b, d = a // g, b // g, d // g
        return cls._make(a, b, d)

    @classmethod
    def coerce(cls, x) -> "Qi":
        if type(x) is Qi:
            return x
        if type(x) is int:
            return cls._make(x, 0, 1)
        if isinstance(x, Fraction):
            return cls._make(x.numerator, 0, x.denominator)
        if isinstance(x, complex):
            return cls(x.real, x.imag)
        return cls(x)

    @classmethod
    def _try(cls, x):
        try:
            return cls.coerce(x)
        except TypeError:
            return None

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def order_key(self) -> tuple:
        """A sort key that orders as (re, im), since ints, floats and
        `Fraction`s compare exactly: the ints a, b when d = 1; a/d and b/d
        as floats when those are exact, which holds for a power of two d up
        to 2^1074 and |a|, |b| < 2^53; else the parts as `Fraction`s."""
        a, b, d = self._a, self._b, self._d
        if d == 1:
            return a, b
        if (not d & (d - 1) and d.bit_length() <= 1075
                and abs(a) < _FLOAT_EXACT and abs(b) < _FLOAT_EXACT):
            return a / d, b / d
        return Fraction(a, d), Fraction(b, d)

    def conjugate(self) -> "Qi":
        return Qi._make(self._a, -self._b, self._d)

    @property
    def is_real(self) -> bool:
        return not self._b

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if type(other) is not Qi:
            other = Qi._try(other)
            if other is None:
                return NotImplemented
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __reduce__(self):
        return self._make, (self._a, self._b, self._d)

    def __neg__(self):
        return Qi._make(-self._a, -self._b, self._d)

    def __add__(self, other):
        if type(other) is not Qi:
            other = Qi._try(other)
            if other is None:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return Qi._canon(self._a + other._a, self._b + other._b, d)
        return Qi._canon(self._a * e + other._a * d,
                         self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Qi:
            other = Qi._try(other)
            if other is None:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = Qi._try(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not Qi:
            other = Qi._try(other)
            if other is None:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return Qi._canon(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not Qi:
            other = Qi._try(other)
            if other is None:
                return NotImplemented
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if not e:    # a real divisor c/f
            if not c:
                raise ZeroDivisionError("division by zero scalar")
            if c < 0:
                c, f = -c, -f
            return Qi._canon(a * f, b * f, d * c)
        # (a + ib)/d * f/(c + ie) = (a + ib)(c - ie) f / (d (c^2 + e^2))
        return Qi._canon((a * c + b * e) * f, (b * c - a * e) * f,
                         d * (c * c + e * e))

    def __rtruediv__(self, other):
        other = Qi._try(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return _QI_ONE / (self ** (-k))
        a, b = _power((self._a, self._b), k,
                      lambda x, y: (x[0] * y[0] - x[1] * y[1],
                                    x[0] * y[1] + x[1] * y[0]), (1, 0))
        return Qi._canon(a, b, self._d ** k)

    def __complex__(self):
        # integer true division rounds correctly, as float(Fraction) does
        d = self._d
        try:
            return complex(self._a / d, self._b / d)
        except OverflowError:
            raise OverflowError("a value exceeds the float range") from None

    def __repr__(self):
        try:
            return f"Qi({self.re!r}, {self.im!r})"
        except ValueError:
            raise DigitLimitError() from None

    def __str__(self):
        return _qi_text(self._a, self._b, self._d)


_QI_ZERO = Qi(0)
_QI_ONE = Qi(1)


def _gmul(re, im, gr: int, gi: int):
    """The coefficients (re + i*im) times the Gaussian integer gr + i*gi;
    an im of None, an all-zero imaginary part, stays None under a real
    factor."""
    if not gi:
        if gr == 1:
            return re, im
        return [x * gr for x in re], im and [y * gr for y in im]
    return ([x * gr - y * gi for x, y in zip(re, im)],
            [x * gi + y * gr for x, y in zip(re, im)])


def _lincomb(x, mx: int, y, my: int) -> list[int]:
    """mx*x + my*y for integer coefficient sequences, aligned at degree 0."""
    if mx != 1:
        x = [v * mx for v in x]
    if my != 1:
        y = [v * my for v in y]
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    out[:len(y)] = map(int.__add__, out[:len(y)], y)
    return out


def _gsum(x, y, sign: int = 1) -> tuple:
    """x + sign*y for Gaussian-integer coefficient sequences over integer
    denominators, given as (re, im, d), over the lcm of the two d.  An im
    of None stands for an all-zero imaginary part: a sum of two real
    numerators is real, one `_lincomb`, and its im stays None."""
    (xr, xi, dx), (yr, yi, dy) = x, y
    if dx == dy:
        mx, my = 1, sign
    else:
        g = math.gcd(dx, dy)
        mx, my, dx = dy // g, sign * (dx // g), dx * (dy // g)
    re = _lincomb(xr, mx, yr, my)
    if xi is None and yi is None:
        return re, None, dx
    return re, _lincomb(xi or [0] * len(xr), mx, yi or [0] * len(yr), my), dx


def _rmul(x: tuple, y: tuple) -> tuple:
    """Product of two numerators given as (re, im, d), an im of None
    standing for an all-zero imaginary part: one `_conv` for two real
    factors, two for a real and a complex one, `_gconv` for two complex
    ones.  An empty numerator is zero."""
    (xr, xi, dx), (yr, yi, dy) = x, y
    if not (xr and yr):
        return (), None, 1
    if xi is None:
        return _conv(xr, yr), None if yi is None else _conv(xr, yi), dx * dy
    if yi is None:
        return _conv(xr, yr), _conv(xi, yr), dx * dy
    return (*_gconv(xr, xi, yr, yi), dx * dy)


def _gaussian(re, im) -> tuple:
    """(re, im) with an im of None, an all-zero imaginary part, spelled
    out as zeros, as `_gconv` and `CPoly._canon` take it."""
    return re, [0] * len(re) if im is None else im


def _conv(a, b) -> list[int]:
    """Product of two nonempty integer coefficient sequences."""
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for k, x in enumerate(a, j):
                out[k] += x * y
    return out


def _gconv(ar, ai, br, bi) -> tuple[list[int], list[int]]:
    """(ar + i*ai) times (br + i*bi), Gaussian-integer coefficient sequences
    with equal-length parts, as (re, im).  A factor whose imaginary part is
    all zero costs one or two real products, two complex factors three
    (Karatsuba's trick)."""
    if not any(ai):
        re = _conv(ar, br)
        return re, (_conv(ar, bi) if any(bi) else [0] * len(re))
    if not any(bi):
        return _conv(ar, br), _conv(ai, br)
    ac, bd = _conv(ar, br), _conv(ai, bi)
    mid = _conv(list(map(int.__add__, ar, ai)), list(map(int.__add__, br, bi)))
    return (list(map(int.__sub__, ac, bd)),
            [m - x - y for m, x, y in zip(mid, ac, bd)])


def _stretched(re, im, e: int):
    """The coefficients of F(e*y) for F = re + i*im: coefficient j times
    e^j."""
    if e == 1:
        return re, im
    re, im = list(re), list(im)
    k = 1
    for j in range(1, len(re)):
        k *= e
        re[j] *= k
        im[j] *= k
    return re, im


def _scaled(re, im, e: int):
    """The coefficients of e^n F(y/e) for F = re + i*im of degree n:
    coefficient j times e^(n-j), the stretch of the reversed F, reversed."""
    re, im = _stretched(re[::-1], im[::-1], e)
    return re[::-1], im[::-1]


def _synthetic_division(re, im, gr: int, gi: int):
    """(F - F(g))/(y - g) and F(g), for F = re + i*im with at least one
    coefficient and the Gaussian integer g = gr + i*gi, by Horner's rule:
    (quotient re, quotient im, remainder re, remainder im)."""
    n = len(re) - 1
    qr, qi = [0] * n, [0] * n
    ar = ai = 0
    for j in range(n, 0, -1):
        ar, ai = ar * gr - ai * gi + re[j], ar * gi + ai * gr + im[j]
        qr[j - 1], qi[j - 1] = ar, ai
    return qr, qi, ar * gr - ai * gi + re[0], ar * gi + ai * gr + im[0]


def _shift(re, im, gr: int, gi: int, count: int):
    """The first count coefficients of F(y + g), for F = re + i*im of
    degree n and the Gaussian integer g = gr + i*gi: the k-th is
    F^(k)(g)/k!, the remainder of the k-th repeated synthetic division by
    y - g (von zur Gathen and Gerhard, ISSAC 1997), the n-th the leading
    coefficient left after n divisions, and 0 beyond.  A shift by 0 is the
    identity, with no division."""
    n = len(re) - 1
    if not (gr or gi):
        pad = [0] * (count - n - 1)
        return list(re[:count]) + pad, list(im[:count]) + pad
    outr, outi = [0] * count, [0] * count
    for k in range(min(count, n)):
        re, im, outr[k], outi[k] = _synthetic_division(re, im, gr, gi)
    if count > n >= 0:
        outr[n], outi[n] = re[0], im[0]
    return outr, outi


def _series_quotient(num, den, n: int) -> list:
    """The first n coefficients of the power series num/den, for den[0]
    nonzero and num of at least n terms, `Qi` or complex:
    q_k = (num_k - sum_(j >= 1) den_j q_(k-j)) / den_0, over the nonzero
    den_j only."""
    terms = [(j, d) for j, d in enumerate(den[1:n], 1) if d]
    q = []
    for k in range(n):
        acc = num[k]
        for j, d in terms:
            if j > k:
                break
            acc = acc - d * q[k - j]
        q.append(acc / den[0])
    return q


def _power(x, k: int, mul, one):
    """x^k for k >= 0 under the product mul, by binary powering; one when
    k is 0."""
    out = None
    while k:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one if out is None else out


def _scaled_value(p: "CPoly", q: Qi) -> tuple[int, int]:
    """The Gaussian integer (a, b) with a + i*b = d*e^n*p(q), for p of
    degree n over the integer d and q = g/e: Horner's rule on Gaussian
    integers, h_j = h_(j+1)*g + c_j*e^(n-j), with no `Qi` built."""
    gr, gi, e = q._a, q._b, q._d
    hr = hi = 0
    k = 1                    # e^(n-j) at c_j
    for r, i in zip(reversed(p._re), reversed(p._im)):
        hr, hi = hr * gr - hi * gi + r * k, hr * gi + hi * gr + i * k
        k *= e
    return hr, hi


class CPoly:
    """Polynomial with exact complex-rational coefficients, ascending degree.

    Stored as Gaussian integers over one denominator: coefficient k is
    (re[k] + i*im[k]) / d, in canonical form (no trailing zero coefficient,
    gcd(re, im, d) = 1, d > 0; the zero polynomial is (), (), 1), so equal
    polynomials compare and hash equal.  `coeffs` is the same polynomial
    as a tuple of `Qi`, built on first use.
    """

    __slots__ = ("_re", "_im", "_d", "_qi")

    def __init__(self, coeffs=()):
        cs = [Qi.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # the lcm of canonical denominators leaves content 1
        d = math.lcm(*(c._d for c in cs))
        self._re = tuple(c._a * (d // c._d) for c in cs)
        self._im = tuple(c._b * (d // c._d) for c in cs)
        self._d = d
        self._qi = tuple(cs)

    @classmethod
    def _canon(cls, re, im, d: int) -> "CPoly":
        """(re + i*im)/d for an integer d > 0, put in canonical form."""
        n = len(re)
        while n and not re[n - 1] and not im[n - 1]:
            n -= 1
        if not n:
            return CPoly.ZERO
        re, im = tuple(re[:n]), tuple(im[:n])
        if d != 1:
            g = math.gcd(d, *re, *im)
            if g != 1:
                re = tuple(x // g for x in re)
                im = tuple(y // g for y in im)
                d //= g
        return cls._make(re, im, d)

    @classmethod
    def _make(cls, re: tuple, im: tuple, d: int) -> "CPoly":
        """The polynomial with these fields, which must be canonical."""
        p = object.__new__(cls)
        p._re, p._im, p._d, p._qi = re, im, d, None
        return p

    @property
    def coeffs(self) -> tuple:
        qi = self._qi
        if qi is None:
            d = self._d
            canon = Qi._canon
            qi = self._qi = tuple(canon(r, i, d)
                                  for r, i in zip(self._re, self._im))
        return qi

    @classmethod
    def scalar(cls, c) -> "CPoly":
        """The constant polynomial c."""
        if type(c) is not Qi:
            c = Qi.coerce(c)
        if c._a or c._b:
            return cls._make((c._a,), (c._b,), c._d)
        return cls.ZERO

    @property
    def degree(self) -> int:
        return len(self._re) - 1   # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self._re

    def leading(self) -> Qi:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _inverse_lead(self) -> tuple[int, int, int]:
        """(cr, ci, n) with n > 0 and (cr + i*ci)/n = 1/L, for the Gaussian
        integer L = re[-1] + i*im[-1]: conj(L)/|L|^2, or sign(L)/|L| when
        L is real."""
        lr, li = self._re[-1], self._im[-1]
        if li:
            return lr, -li, lr * lr + li * li
        return (1, 0, lr) if lr > 0 else (-1, 0, -lr)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, CPoly):
            return NotImplemented
        return (self._d == other._d and self._re == other._re
                and self._im == other._im)

    def __hash__(self):
        return hash((self._re, self._im, self._d))

    def __reduce__(self):
        return self._make, (self._re, self._im, self._d)

    def __neg__(self):
        return CPoly._make(tuple(-x for x in self._re),
                           tuple(-y for y in self._im), self._d)

    def _combine(self, other: "CPoly", sign: int) -> "CPoly":
        """self + sign*other over the lcm of the two denominators."""
        if other.is_zero:
            return self
        if self.is_zero:
            return other if sign == 1 else -other
        return CPoly._canon(*_gsum((self._re, self._im, self._d),
                                   (other._re, other._im, other._d), sign))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        """The product; a factor of degree 0 scales the other's integers
        (`_gmul`), with no convolution."""
        if not isinstance(other, CPoly):
            try:
                other = CPoly.scalar(other)
            except TypeError:
                return NotImplemented
        if self.is_zero or other.is_zero:
            return CPoly.ZERO
        if other is CPoly.ONE:
            return self
        if self is CPoly.ONE:
            return other
        if len(self._re) == 1:
            self, other = other, self
        if len(other._re) == 1:
            re, im = _gmul(self._re, self._im, other._re[0], other._im[0])
        else:
            re, im = _gconv(self._re, self._im, other._re, other._im)
        return CPoly._canon(re, im, self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        return _power(self, k, CPoly.__mul__, CPoly.ONE)

    def __divmod__(self, other: "CPoly"):
        """Fraction-free pseudo-division.

        The divisor's Gaussian-integer part B times c = conj(L), or sign(L)
        when its leading coefficient L is real, is C = B*c with the positive
        integer leading coefficient n = |L|^2, or |L| (`_inverse_lead`).
        A step whose top coefficient t has g = gcd(n, t) < n first scales
        the remainder and the quotient so far by n/g.  With s the product
        of the scales, s*A = Q*C + R for the dividend's part A, so
        self = (Q*c*d_B/(s*d_A)) * other + R/(s*d_A).
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dn, dd = self.degree, other.degree
        if dn < dd:
            return CPoly.ZERO, self
        cr, ci, n = other._inverse_lead()
        br, bi = _gmul(other._re[:-1], other._im[:-1], cr, ci)
        real = not any(bi)
        rr, ri = list(self._re), list(self._im)
        qr, qi = [0] * (dn - dd + 1), [0] * (dn - dd + 1)
        s = 1
        for k in range(dn - dd, -1, -1):
            tr, ti = rr.pop(), ri.pop()
            if not (tr or ti):
                continue
            g = math.gcd(n, tr, ti)
            if g != n:
                f = n // g
                s *= f
                rr = [x * f for x in rr]
                ri = [y * f for y in ri]
                qr[k + 1:] = [x * f for x in qr[k + 1:]]
                qi[k + 1:] = [y * f for y in qi[k + 1:]]
            tr //= g
            ti //= g
            qr[k], qi[k] = tr, ti
            lo, hi = k, k + dd    # t*x^k*C, whose top cancels t, is subtracted
            if real:
                if tr:
                    rr[lo:hi] = map(int.__sub__, rr[lo:hi], map(tr.__mul__, br))
                if ti:
                    ri[lo:hi] = map(int.__sub__, ri[lo:hi], map(ti.__mul__, br))
            else:
                rr[lo:hi] = [x - tr * u + ti * v
                             for x, u, v in zip(rr[lo:hi], br, bi)]
                ri[lo:hi] = [y - tr * v - ti * u
                             for y, u, v in zip(ri[lo:hi], br, bi)]
        d = s * self._d
        db = other._d
        return (CPoly._canon(*_gmul(qr, qi, cr * db, ci * db), d),
                CPoly._canon(rr, ri, d))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def deriv(self) -> "CPoly":
        return CPoly._canon([k * x for k, x in enumerate(self._re)][1:],
                            [k * y for k, y in enumerate(self._im)][1:],
                            self._d)

    def monic(self) -> "CPoly":
        if self.is_zero or not self._im[-1] and self._re[-1] == self._d:
            return self
        cr, ci, n = self._inverse_lead()
        return CPoly._canon(*_gmul(self._re, self._im, cr, ci), n)

    def at(self, q: Qi) -> Qi:
        """Exact value at q, by Horner's rule on Gaussian integers."""
        a, b = _scaled_value(self, q)
        return Qi._canon(a, b, self._d * q._d ** max(self.degree, 0))

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.to_complex()):
            acc = acc * z + c
        return acc

    def to_complex(self) -> list[complex]:
        d = self._d
        try:
            return [complex(r / d, i / d) for r, i in zip(self._re, self._im)]
        except OverflowError:
            raise OverflowError(
                "a coefficient exceeds the float range") from None

    def format(self) -> str:
        """The terms in s from the highest degree down, each coefficient
        printed from its integers: 1 and -1 leave the power of s bare, and
        a coefficient whose text is a fraction with no parentheses gets
        them."""
        if self.is_zero:
            return "0"
        d = self._d
        parts = []
        for k in range(self.degree, -1, -1):
            a, b = self._re[k], self._im[k]
            if not (a or b):
                continue
            vtxt = "" if not k else "s" if k == 1 else f"s^{k}"
            if k and not b and (a == d or a == -d):
                txt = vtxt if a > 0 else "-" + vtxt
            else:
                txt = _qi_text(a, b, d)
                if "/" in txt and txt[0] != "(":
                    txt = f"({txt})"
                txt += vtxt
            if parts and not txt.startswith("-"):
                parts.append("+ " + txt)
            elif parts:
                parts.append("- " + txt[1:])
            else:
                parts.append(txt)
        return " ".join(parts)

    def __repr__(self):
        return f"CPoly({self.format()!r})"


CPoly.ZERO = CPoly()
CPoly.ONE = CPoly([1])
CPoly.S = CPoly([0, 1])


# The coprimality certificate works in GF(P) for a prime P = 1 (mod 4), so
# that -1 has a square root there and i can map to it; 2 is a quadratic
# non-residue mod P, hence 2^((P-1)/4) squares to -1.
_P = 2305843009213693973
_I_MOD = pow(2, (_P - 1) // 4, _P)


def _image_mod_p(p: CPoly) -> list[int] | None:
    """Coefficients of p in GF(P) under i -> _I_MOD, or None when the
    denominator is divisible by P."""
    if p._d % _P == 0:
        return None
    inv = pow(p._d, -1, _P)
    return [(r + i * _I_MOD) * inv % _P for r, i in zip(p._re, p._im)]


def _coprime_mod_p(a: CPoly, b: CPoly) -> bool:
    """True only if a and b are certainly coprime over Q(i).

    Clearing denominators puts a and b in Z[i][s], and i -> _I_MOD reduces
    Z[i] modulo a prime above P.  A common factor of positive degree can be
    taken primitive in Z[i][s] (Gauss's lemma); when neither leading
    coefficient vanishes mod P, its leading coefficient does not either, so
    its image keeps its degree and divides both images.  A constant gcd of
    the images therefore certifies a constant gcd of a and b.  False means
    only that the certificate does not apply.
    """
    x, y = _image_mod_p(a), _image_mod_p(b)
    if x is None or y is None or not x[-1] or not y[-1]:
        return False
    while y:
        inv = pow(y[-1], -1, _P)
        shift = len(x) - len(y)
        while shift >= 0:
            q = x[-1] * inv % _P
            if q:
                for j, c in enumerate(y):
                    x[shift + j] = (x[shift + j] - q * c) % _P
            x.pop()
            shift -= 1
        while x and not x[-1]:
            x.pop()
        x, y = y, x
    return len(x) == 1


def _euclid_gcd(a: CPoly, b: CPoly) -> CPoly:
    """Monic gcd by the Euclidean algorithm on exact coefficients."""
    while not b.is_zero:
        r = a % b
        a, b = b, r.monic()
    return a.monic() if not a.is_zero else a


def poly_gcd(a: CPoly, b: CPoly) -> CPoly:
    """Monic gcd: 1 when a prime certifies coprimality (`_coprime_mod_p`),
    else the Euclidean algorithm on exact coefficients."""
    if a and b and _coprime_mod_p(a, b):
        return CPoly.ONE
    return _euclid_gcd(a, b)


def square_free_factors(p: CPoly) -> list[tuple[CPoly, int]]:
    """Yun's decomposition: [(factor, multiplicity)], factors monic.  A
    quadratic (n*s^2 + b*s + c)/n is split by its discriminant, with no
    gcd: it is square-free when b^2 != 4*c*n, and (s + b/(2n))^2 when not."""
    p = p.monic()
    if p.degree <= 1:
        return [(p, 1)] if p.degree == 1 else []
    if p.degree == 2:
        (cr, br, n), (ci, bi, _) = p._re, p._im
        if br * br - bi * bi != 4 * n * cr or br * bi != 2 * n * ci:
            return [(p, 1)]
        return [(CPoly._canon((br, 2 * n), (bi, 0), 2 * n), 2)]
    dp = p.deriv()
    g = poly_gcd(p, dp)
    if g.degree == 0:
        return [(p, 1)]
    out = []
    b = p // g
    d = (dp // g) - b.deriv()
    i = 1
    while b.degree > 0:
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = b // a
        d = (d // a) - b.deriv()
        i += 1
    return out


class RatFunc:
    """Element of C(s): reduced numerator over monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, (int, float, Fraction, Qi, complex)):
            num = CPoly.scalar(num)
        if den is None:
            den = CPoly.ONE
        elif isinstance(den, (int, float, Fraction, Qi, complex)):
            den = CPoly.scalar(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num, self.den = CPoly.ZERO, CPoly.ONE
            return
        # the gcd with a nonzero constant is 1
        if num.degree > 0 and den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        # one integer scale by 1/lead(den) = d*conj(L)/|L|^2 makes den monic
        if den._im[-1] or den._re[-1] != den._d:
            cr, ci, n = den._inverse_lead()
            num = CPoly._canon(*_gmul(num._re, num._im, cr * den._d,
                                      ci * den._d), num._d * n)
            den = den.monic()
        self.num, self.den = num, den

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_strictly_proper(self) -> bool:
        return self.num.degree < self.den.degree

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __reduce__(self):
        return self._from_reduced, (self.num, self.den)

    @classmethod
    def _from_reduced(cls, num: CPoly, den: CPoly) -> "RatFunc":
        """num/den taken as is, with no gcd: the caller guarantees that they
        are coprime and den is monic (den is 1 when num is zero)."""
        r = cls.__new__(cls)
        r.num, r.den = num, den
        return r

    def __neg__(self):
        return RatFunc._from_reduced(-self.num, self.den)

    def __add__(self, other):
        other = _coerce_rat(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_coerce_rat(other))

    def __rsub__(self, other):
        return _coerce_rat(other) - self

    def __mul__(self, other):
        other = _coerce_rat(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_rat(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_rat(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return RatFunc(CPoly.ONE) / (self ** (-k))
        # powers of coprime num and monic den stay coprime and monic
        return RatFunc._from_reduced(self.num ** k, self.den ** k)

    def deriv(self) -> "RatFunc":
        """Algebraic derivative d/ds, reduced with one gcd.

        With h = gcd(D, D'), (N/D)' = (N'*(D/h) - N*(D'/h)) / (D*(D/h)).
        At a root of D of multiplicity e, D/h has a simple root and D'/h
        none, so the numerator is -N*(D'/h) != 0 there: the quotient is
        reduced, with pole order e + 1, and its denominator is monic.
        """
        num, den = self.num, self.den
        if den.degree == 0:
            return RatFunc._from_reduced(num.deriv(), den)
        dden = den.deriv()
        h = poly_gcd(den, dden)
        u, v = den // h, dden // h
        return RatFunc._from_reduced(num.deriv() * u - num * v, den * u)

    def __call__(self, z: complex) -> complex:
        return self.num(z) / self.den(z)

    def format(self) -> str:
        if self.is_polynomial:
            return self.num.format()
        ntxt = self.num.format()
        dtxt = self.den.format()
        if self.num.degree > 0:
            ntxt = f"({ntxt})"
        return f"{ntxt} / ({dtxt})"

    def __repr__(self):
        return f"RatFunc({self.format()!r})"


def _coerce_rat(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    return RatFunc(x)


RatFunc.ZERO = RatFunc(CPoly.ZERO)
RatFunc.ONE = RatFunc(CPoly.ONE)
RatFunc.S = RatFunc(CPoly.S)


def alg_deriv(r: RatFunc) -> RatFunc:
    """The algebraic derivative d/ds on C(s)."""
    return r.deriv()


# ---------------------------------------------------------------------------
# Root finding


_ABERTH_TOL = 1e-12


def _aberth(coeffs: list[complex], max_iter: int = 120) -> list[complex]:
    """Roots of a square-free polynomial: eigenvalue estimates refined by
    simultaneous (Aberth-style) iteration until each root z has backward
    error |p(z)| / sum |c_k| |z|^k <= 1e-12 (Bini, Numer. Algorithms 1996).
    The bound scales with |z|^k, so large and small roots meet it alike.
    An iterate whose residual or bound leaves the float range is refused,
    and NumPy reports nothing on the way."""
    import numpy as np

    c = np.asarray(coeffs, dtype=complex)
    deg = len(c) - 1
    if deg == 1:
        return [complex(-c[0] / c[1])]
    polyval = np.polynomial.polynomial.polyval
    abs_c = np.abs(c)
    dc = c[1:] * np.arange(1, deg + 1)

    def residual(z):
        p, scale = polyval(z, c), polyval(np.abs(z), abs_c)
        if not (np.isfinite(p).all() and np.isfinite(scale).all()):
            raise RootFindingError(
                "root iteration left the float range: a residual or its "
                "bound is not finite")
        return p, scale

    with np.errstate(all="ignore"):
        z = np.roots(c[::-1]).astype(complex)
        for _ in range(max_iter):
            p, scale = residual(z)
            if np.all(np.abs(p) <= _ABERTH_TOL * scale):
                return [complex(v) for v in z]
            dp = polyval(z, dc)
            stale = np.abs(dp) == 0.0
            if np.any(stale):
                z[stale] += 1e-8 * (1.0 + np.abs(z[stale]))
                continue
            w = p / dp
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            diff[diff == 0] = np.inf
            coupling = np.sum(1.0 / diff, axis=1)
            denom = 1.0 - w * coupling
            denom[np.abs(denom) < 1e-300] = 1.0
            z = z - w / denom
        p, scale = residual(z)
    # An exact root 0 of a polynomial with c_0 = 0 has scale 0 and
    # residual 0; it counts as backward error 0, not 0/0.
    backward = float(np.max(np.divide(np.abs(p), scale, out=np.zeros(deg),
                                      where=scale > 0)))
    raise RootFindingError(
        f"root iteration stalled: backward error {backward:.3e} "
        f"above {_ABERTH_TOL:.0e} after {max_iter} iterations")


class Pole(_FrozenValue):
    """A root of a denominator with its multiplicity; `exact` is the root
    itself when it lies in Q(i), else None."""

    _fields = ("location", "multiplicity", "exact")

    def __init__(self, location: complex, multiplicity: int,
                 exact: Qi | None = None):
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "multiplicity", multiplicity)
        object.__setattr__(self, "exact", exact)


def _taylor_shift(p: CPoly, q: Qi, count: int) -> list[Qi]:
    """The Taylor coefficients p^(k)(q)/k! of p at q = g/e, k < count.

    With F = d*p in Z[i][s] of degree n, the k-th remainder of repeated
    synthetic division of e^n F(y/e) by y - g is t_k = e^(n-k) F^(k)(q)/k!,
    so the whole shift runs on Gaussian integers (`_shift`)."""
    e, n = q._d, p.degree
    re, im = _shift(*_scaled(p._re, p._im, e), q._a, q._b, count)
    return [Qi._canon(re[k], im[k], p._d * e ** (n - k)) if k <= n
            else _QI_ZERO for k in range(count)]


def _root_shift(p: CPoly, q: Qi, series: bool = False):
    """(m, b) for q = g/e: m >= 0 is the multiplicity of q as a root of p,
    the number of zero remainders that open the Taylor shift of p to q
    (`_taylor_shift`); b is None, or, when series and m > 0, the next
    Taylor coefficients p^(k)(q)/k!, k = m, ..., 2m - 1, read off the same
    shift run m more steps.  The first nonzero remainder is t_m, and the
    quotient left by its division continues the shift from t_(m+1)."""
    gr, gi, e = q._a, q._b, q._d
    re, im = _scaled(p._re, p._im, e)
    n = m = len(re) - 1
    for k in range(n):
        re, im, tr, ti = _synthetic_division(re, im, gr, gi)
        if tr or ti:
            m = k
            break
    else:                            # p is its lead times (s - q)^n
        tr, ti, re, im = re[0], im[0], [], []
    if not (series and m):
        return m, None
    d = p._d
    b = [Qi._canon(tr, ti, d * e ** (n - m))]
    if m > 1:
        rr, ri = _shift(re, im, gr, gi, m - 1)
        b += [Qi._canon(rr[j], ri[j], d * e ** (n - m - 1 - j))
              if m + 1 + j <= n else _QI_ZERO for j in range(m - 1)]
    return m, b


# Bound on the denominator of each part of a candidate root, tried when
# rounding over the polynomial's own denominator fails
_DENOMINATOR_BOUND = 8


def _candidates(z: complex, d: int):
    """The points of Q(i) that a float root z of F/d, F in Z[i][s] with
    lead(F) = d, may stand for.  A root of F/d in Q(i) is a Gaussian integer
    over d (Loos, SIAM J. Comput. 1983), so the first is d*z rounded; as
    that needs d*z to float accuracy, which a large d or a root blurred in
    a cluster denies, the second has the nearest parts with denominators up
    to `_DENOMINATOR_BOUND`."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return
    (xn, xd), (yn, yd) = z.real.as_integer_ratio(), z.imag.as_integer_ratio()
    yield Qi._canon((2 * xn * d + xd) // (2 * xd),
                    (2 * yn * d + yd) // (2 * yd), d)
    (a, k), (b, l) = _nearest_small(z.real), _nearest_small(z.imag)
    yield Qi._canon(a * l, b * k, k * l)


def _nearest_small(x: float) -> tuple[int, int]:
    """(n, k) for the fraction n/k nearest the finite x with k at most
    `_DENOMINATOR_BOUND`, the smallest such k on a tie."""
    if abs(x) >= 2.0 ** 52:      # x is an integer
        return int(x), 1
    n = round(x)
    best, err = (n, 1), abs(x - n)
    for k in range(2, _DENOMINATOR_BOUND + 1):
        n = round(x * k)
        if abs(x - n / k) < err:
            best, err = (n, k), abs(x - n / k)
    return best


def _certified_roots(p: CPoly, zs: list[complex], tried: set[Qi],
                     series: bool = False):
    """The roots in Q(i) of a monic p that the candidates of its float
    roots zs lead to, as (root, multiplicity, b) triples, b as from
    `_root_shift`, and the float roots none of them accounts for.

    Each candidate q = g/e not in tried joins tried and is first evaluated
    in GF(P), under the map of `_image_mod_p` with 1/e taken mod P: a
    nonzero value proves that q is no root, since p(q) = 0 maps to 0.  Only
    a zero value, or an e or a denominator of p that P divides, leads to
    one exact Taylor shift of the whole p (`_root_shift`), which certifies
    the root and its multiplicity, so nothing enters on float evidence and
    no candidate is shifted twice.  When p is real, the
    conjugate of a non-real root is a root of the same multiplicity, and
    its Taylor coefficients are the conjugates, so it is certified with no
    shift.  A root of multiplicity m accounts for the m float roots still
    pending that lie nearest it: its float cluster, or, in a square-free p,
    the one float root it is, whichever float root proposed it."""
    found: list[tuple[Qi, int, list[Qi] | None]] = []
    real = not any(p._im)
    image = _image_mod_p(p)
    pending = dict(enumerate(zs))
    for k, z in enumerate(zs):
        if k not in pending:
            continue
        for q in _candidates(z, p._d):
            if q in tried:
                continue
            tried.add(q)
            if image is not None and q._d % _P:
                x = (q._a + q._b * _I_MOD) * pow(q._d, -1, _P) % _P
                v = 0
                for c in reversed(image):
                    v = (v * x + c) % _P
                if v:
                    continue
            m, b = _root_shift(p, q, series)
            if not m:
                continue
            roots = [(q, b)]
            if real and q._b:
                twin = q.conjugate()
                tried.add(twin)
                roots.append((twin, b and [x.conjugate() for x in b]))
            for r, rb in roots:
                found.append((r, m, rb))
                w = complex(r)
                for _ in range(m):
                    del pending[min(pending, key=lambda j: abs(pending[j] - w))]
            if k not in pending:
                break
        if not pending:
            break
    return found, list(pending.values())


def _quadratic_roots(f: CPoly) -> tuple[Qi, Qi] | None:
    """The two roots of a monic quadratic f when they lie in Q(i), else
    None.  With f = (s^2*d + B*s + C)/d for Gaussian integers B and C, the
    roots are (-B +- r)/(2d) for r^2 = W = B^2 - 4Cd, and r lies in Q(i)
    only as a Gaussian integer u + i*v: u^2 - v^2 = Re W and
    u^2 + v^2 = |W|, with u >= 0 and v of the sign of Im W."""
    (cr, br, _), (ci, bi, _), d = f._re, f._im, f._d
    x = br * br - bi * bi - 4 * cr * d
    y = 2 * br * bi - 4 * ci * d
    n = math.isqrt(x * x + y * y)
    u, v = math.isqrt((n + x) // 2), math.isqrt((n - x) // 2)
    v = -v if y < 0 else v
    if (u * u - v * v, 2 * u * v) != (x, y):
        return None
    return (Qi._canon(u - br, v - bi, 2 * d),
            Qi._canon(-u - br, -v - bi, 2 * d))


def _square_free_roots(f: CPoly, tried: set[Qi]
                       ) -> list[tuple[complex, Qi | None]]:
    """Roots of a monic square-free polynomial of positive degree, each as
    (location, exact), exact being the root when it lies in Q(i), else None.

    Degree 1 is exact, and degree 2 takes the square root of the
    discriminant in Q(i), without which it has no root there.  A higher
    degree runs one `_aberth` call and certifies the candidates of its roots
    (`_certified_roots`), skipping those in tried, which are known not to
    be roots of f, and adding those it shifts; the rest stay floats.
    """
    if f.degree == 1:
        q = -f.coeffs[0]
        return [(complex(q), q)]
    exact = _quadratic_roots(f) if f.degree == 2 else None
    if exact is not None:
        return [(complex(q), q) for q in exact]
    zs = _aberth(f.to_complex())
    if f.degree == 2:
        return [(z, None) for z in zs]
    found, floats = _certified_roots(f, zs, tried)
    return ([(complex(q), q) for q, _, _ in found]
            + [(z, None) for z in floats])


def _location_key(z: complex) -> tuple:
    """Sort key of raw root locations.  The rounded leading parts let
    conjugate pairs with 1e-16 real-part noise order deterministically; the
    raw parts break genuine near-ties."""
    return (round(z.real, 9), round(z.imag, 9), z.real, z.imag)


def _root_points(factors, refused: Set[Qi] = frozenset()
                 ) -> list[tuple[complex, Qi | None, object]]:
    """The roots of (factor, tag) pairs as (root, exact, tag) points, sorted
    by `_location_key`.  A factor is a monic square-free `CPoly`, or a `Qi`
    q standing for s - q.  No candidate in refused, a set of points that
    are roots of no factor, is shifted.  The roots are raw: `_reported`
    gives where each one is reported."""
    return sorted(((z, q, tag) for f, tag in factors
                   for z, q in (((complex(f), f),) if type(f) is Qi
                                else _square_free_roots(f, set(refused)))),
                  key=lambda r: _location_key(r[0]))


def _reported(z: complex, exact: Qi | None) -> complex:
    """The one rule for where a root is reported: a root in Q(i) as it is,
    a float root snapped to an axis.  Snapping twice snaps once."""
    return z if exact is not None else snap_axes(z)


def _exact_roots(p: CPoly, series: bool = False):
    """The roots of a monic p in Q(i) found before any split, as (root,
    multiplicity, b) triples (`_certified_roots` on the eigenvalues of its
    companion matrix, the roots `np.roots` gives, with less of its set-up),
    the cofactor left, and the candidates shifted.  The cofactor is p over
    prod (s - q)^m, one exact division made only when a float root is left
    over, else 1.  A degree below 3, which `_square_free_roots` solves
    exactly, and a p whose coefficients exceed the float range keep all
    their roots for the cofactor."""
    tried: set[Qi] = set()
    if p.degree < 3:
        return [], p, tried
    try:
        coeffs = p.to_complex()
    except OverflowError:
        return [], p, tried
    if not any(p._im):               # a real eigenvalue problem is cheaper
        coeffs = [c.real for c in coeffs]
    import numpy as np

    # the companion matrix of the monic p, as np.roots builds it
    a = np.eye(p.degree, k=-1, dtype=type(coeffs[0]))
    a[0] = [-c for c in coeffs[-2::-1]]
    zs = [complex(z) for z in np.linalg.eigvals(a).tolist()]
    found, floats = _certified_roots(p, zs, tried, series)
    if not floats:
        return found, CPoly.ONE, tried
    if found:                        # s - q is (d*s - g)/d for q = g/d
        p //= math.prod((CPoly._make((-q._a, q._d), (-q._b, 0), q._d) ** m
                         for q, m, _ in found), start=CPoly.ONE)
    return found, p, tried


def _roots(p: CPoly, series: bool = False) -> list[tuple]:
    """The poles of `poly_roots`, each with b: None, or, when series and
    the pole is exact of multiplicity m, the Taylor coefficients of p at
    it from t_m to t_(2m-1) (`_root_shift`).  A root certified before the
    split brings them from its certificate; for one found after it, p is
    shifted once, or, when p is real and the conjugate root has them
    already, they are its conjugates.  Candidates refused before the split
    are not shifted again on the square-free factors."""
    p = p.monic()
    found, rest, tried = _exact_roots(p, series)
    factors = [(q, (m, b)) for q, m, b in found]
    if rest.degree > 0:
        factors += [(f, (m, None)) for f, m in square_free_factors(rest)]
    real = not any(p._im)
    out: list[tuple] = []
    shifted: dict[Qi, list[Qi]] = {}
    for z, q, (m, b) in _root_points(factors, tried):
        if series and q is not None:
            if b is None:
                twin = shifted.get(q.conjugate()) if real else None
                if twin is not None:
                    b = [x.conjugate() for x in twin]
                else:
                    k, b = _root_shift(p, q, True)
                    if k != m:
                        raise RootFindingError(
                            f"degenerate local series at pole {z}")
            shifted[q] = b
        out.append((Pole(z, m, q), b))
    return out


def poly_roots(p: CPoly) -> list[Pole]:
    """All complex roots with exact multiplicities, sorted by (re, im).

    The roots in Q(i) come first, each certified with its multiplicity by
    an exact Taylor shift (`_exact_roots`); only a cofactor left over goes
    through Yun's split (`square_free_factors`) and `_square_free_roots`."""
    return [pole for pole, _ in _roots(p)]


def poles(r: RatFunc) -> list[Pole]:
    """Poles of a reduced rational function, with multiplicities."""
    return poly_roots(r.den)


# ---------------------------------------------------------------------------
# Spectrum


class SingularitySource(_FrozenValue):
    """One singular point feeding a spectrum: a pole of the rational image,
    or a classified singularity of a defining equation.  `kind` is "pole",
    "logarithmic" or "none"; `order` is the pole multiplicity, 0 when not a
    pole."""

    _fields = ("location", "kind", "order")

    def __init__(self, location: complex, kind: str, order: int = 0):
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "order", order)


class Spectrum(_FrozenValue):
    """Finite frequency set plus the singularities that produced it.

    Frequencies are the nonzero imaginary parts of the source locations;
    real-located sources contribute nothing, and 0 is never listed.
    """

    _fields = ("frequencies", "sources", "infinite_singularity")

    def __init__(self, frequencies: tuple[float, ...],
                 sources: tuple[SingularitySource, ...],
                 infinite_singularity: bool = False):
        object.__setattr__(self, "frequencies", frequencies)
        object.__setattr__(self, "sources", sources)
        object.__setattr__(self, "infinite_singularity", infinite_singularity)


def snap_axes(z: complex, tol: float = FREQ_TOL) -> complex:
    """Zero a real or imaginary part that is pure roundoff at the point's
    own scale, so reported locations sit on an axis when the exact point
    does.  Used at reporting boundaries only; raw roots stay untouched for
    numerical work."""
    re, im = z.real, z.imag
    scale = max(1.0, abs(re), abs(im))
    if re != 0 and abs(re) <= tol * scale:
        re = 0.0
    if im != 0 and abs(im) <= tol * scale:
        im = 0.0
    return complex(re, im)


def clean_frequencies(values) -> tuple[float, ...]:
    """Sorted distinct nonzero frequencies; conjugate-symmetric float noise
    is merged at FREQ_TOL relative tolerance."""
    vals = [float(v) for v in values if abs(v) > FREQ_TOL * max(1.0, abs(v))]
    vals.sort()
    merged: list[float] = []
    for v in vals:
        if merged and abs(v - merged[-1]) <= FREQ_TOL * max(1.0, abs(v), abs(merged[-1])):
            merged[-1] = 0.5 * (merged[-1] + v)
        else:
            merged.append(v)
    # snap +/- pairs that differ only by float noise to exact symmetry
    for j, v in enumerate(merged):
        if v >= 0:
            continue
        for k in range(len(merged) - 1, j, -1):
            w = merged[k]
            if w > 0 and abs(v + w) <= FREQ_TOL * max(1.0, abs(w)):
                m = 0.5 * (w - v)
                merged[j], merged[k] = -m, m
                break
    return tuple(merged)


def _spectrum(points, infinite: bool = False) -> Spectrum:
    """The spectrum of (location, exact, kind, order) points in report
    order: a source at each location as `_reported` places it, and the
    distinct nonzero imaginary parts of those locations (an exact 1e-400
    rounds to 0), those of float points (exact None) merged by
    `clean_frequencies`."""
    points = [(_reported(z, q), q, kind, order)
              for z, q, kind, order in points]
    freqs = {z.imag for z, q, _, _ in points if q is not None} - {0.0}
    freqs.update(clean_frequencies(z.imag for z, q, _, _ in points
                                   if q is None))
    return Spectrum(tuple(sorted(freqs)), tuple([
        SingularitySource(z, kind, order) for z, _, kind, order in points]),
        infinite)


def spectrum_of_rational(r: RatFunc) -> Spectrum:
    """Frequencies of an element of C(s): imaginary parts of its poles.

    All-real-pole inputs (Laurent polynomials and the rest of the real-pole
    subring) yield an empty frequency set, as does any polynomial part.
    """
    return _spectrum([(p.location, p.exact, "pole", p.multiplicity)
                      for p in poles(r)])


# ---------------------------------------------------------------------------
# Partial fractions


class PFTerm(NamedTuple):
    pole: complex
    order: int
    coefficient: complex


class PartialFractions(NamedTuple):
    terms: tuple[PFTerm, ...]
    poly_part: CPoly


# Bound on the componentwise backward error of partial fractions at float
# poles (`_backward_error`), and on the forward error of each float pole
# relative to its scale (`_hold_float_pole`)
_PF_TOL = 1e-9


def _hold_float_pole(p: Pole, t: list[Qi], ps) -> None:
    """Refuse a float pole p of multiplicity m that may lie more than
    _PF_TOL * min(1 + |p|, distance to the nearest other pole) from the
    roots it stands for.  The distance is estimated from the exact Taylor
    coefficients t_k = den^(k)(p)/k! at p read as a dyadic rational:
    max over k < m of |t_k / t_m|^(1/(m - k)), the Newton step when m = 1
    (the first-order size of the m roots of den nearest p)."""
    m, z = p.multiplicity, p.location
    try:
        step = max(abs(complex(t[k] / t[m])) ** (1.0 / (m - k))
                   for k in range(m))
    except OverflowError:
        step = math.inf
    gap = min((abs(q.location - z) for q in ps if q is not p), default=math.inf)
    if not step <= _PF_TOL * min(1.0 + abs(z), gap):
        raise RootFindingError(
            f"float pole {z} may be {step:.3e} off its root, above "
            f"{_PF_TOL:.0e} of its scale")


def _exact_local_terms(rem: CPoly, den: CPoly, points) -> list[tuple]:
    # (pole, c): c[l] is the coefficient of 1/(s - p)^(m - l), the series
    # quotient of rem's Taylor coefficients t_0..t_(m-1) at the pole by
    # den's t_m..t_(2m-1), b: exact at an exact root, whose b comes with its
    # certificate (`_roots`), or at a float root read as its dyadic
    # rational, where den is shifted here and dropping its low terms divides
    # by (s - p)^m, as they vanish up to the float root's error.  With real
    # rem and den, the series at the conjugate of an exact root is the
    # conjugate series.
    real = not (any(rem._im) or any(den._im))
    ps = [p for p, _ in points]
    series: dict[Qi, list[Qi]] = {}
    terms: list[tuple] = []
    for p, b in points:
        m, q = p.multiplicity, p.exact
        twin = series.get(q.conjugate()) if real and q is not None else None
        if twin is not None:
            terms.append((p, [x.conjugate() for x in twin]))
            continue
        if q is None:
            q = Qi.coerce(p.location)
            t = _taylor_shift(den, q, 2 * m)
            b = t[m:]
            if not b[0]:
                raise RootFindingError(
                    "degenerate local series at pole {0}".format(p.location))
            _hold_float_pole(p, t, ps)
        c = _series_quotient(_taylor_shift(rem, q, m), b, m)
        if p.exact is not None:
            series[q] = c
        terms.append((p, c))
    return terms


def _local_terms(r: RatFunc) -> tuple[CPoly, list[tuple]]:
    """The polynomial part of r and its local terms (pole, c), a `Pole` and
    its exact coefficients, c[l] that of 1/(s - pole)^(m - l), certified
    when a pole is a float by its forward error (`_hold_float_pole`) and by
    the terms' backward error (`_backward_error`)."""
    quot, rem = divmod(r.num, r.den)
    terms: list[tuple] = []
    if not rem.is_zero:
        points = _roots(r.den, series=True)
        terms = _exact_local_terms(rem, r.den, points)
        if any(p.exact is None for p, _ in points):
            err = _backward_error(rem.to_complex(), terms)
            if err > _PF_TOL:
                raise RootFindingError(
                    f"partial-fraction backward error {err:.3e} "
                    f"exceeds {_PF_TOL:.0e}")
    return quot, terms


def partial_fractions(r: RatFunc) -> PartialFractions:
    """Decompose r as poly_part + sum coefficient/(s-pole)^order.

    The polynomial part comes from exact division, and the coefficients at
    each pole from its exact local Laurent series, read off one Taylor shift
    of the numerator and one of the denominator to the pole; they are exact
    at a pole in Q(i).  A float pole must lie within 1e-9 of its scale of
    the roots it stands for (`_hold_float_pole`), and the sum of the terms
    over the common denominator must reproduce the numerator with a
    componentwise backward error of at most 1e-9 (`_backward_error`);
    otherwise `RootFindingError` is raised.
    """
    quot, local = _local_terms(r)
    terms = [PFTerm(p.location, p.multiplicity - l, complex(cl))
             for p, c in local for l, cl in enumerate(c)]
    terms = [t for t in terms if t.coefficient != 0]
    terms.sort(key=lambda t: (t.pole.real, t.pole.imag, t.order))
    return PartialFractions(tuple(terms), quot)


def _backward_error(rem_c, terms) -> float:
    """How far the local terms (pole, c) miss rem, the numerator over
    prod (s - p)^m: with rest the product of the other factors of a term,
    max_k |sum c*rest - rem|_k / (sum |c|*|rest| + |rem|)_k, the
    componentwise backward error (Oettli and Prager, Numer. Math. 6, 1964),
    |rest| being built from the moduli of the poles, so the bound follows
    the scale of every coefficient."""
    import numpy as np

    deg = sum(p.multiplicity for p, _ in terms)
    acc = np.zeros(deg, dtype=complex)
    scale = np.zeros(deg)
    rests = _products_of_others([_linear_power(-p.location, p.multiplicity)
                                 for p, _ in terms])
    sizes = _products_of_others([_linear_power(abs(p.location), p.multiplicity)
                                 for p, _ in terms])
    for (pole, c), rest, size in zip(terms, rests, sizes):
        for cl in c:             # orders m, m - 1, ...: rest gains s - pole
            cl = complex(cl)
            acc[:len(rest)] += cl * rest
            scale[:len(size)] += abs(cl) * size
            rest = np.convolve(rest, [-pole.location, 1.0])
            size = np.convolve(size, [abs(pole.location), 1.0])
    ref = np.zeros(deg, dtype=complex)
    ref[:len(rem_c)] = rem_c
    miss, scale = np.abs(acc - ref), scale + np.abs(ref)
    # a miss where the scale is 0 counts as infinite
    out = np.where(miss > 0, np.inf, 0.0)
    return float(np.max(np.divide(miss, scale, out=out, where=scale > 0)))


def _linear_power(a, m: int) -> list:
    """The coefficients of (s + a)^m, constant first."""
    return [math.comb(m, k) * a ** (m - k) for k in range(m + 1)]


def _products_of_others(fs: list) -> list:
    """For each coefficient array fs[i], the product of all the others:
    running products from the left and from the right, 3n convolutions."""
    import numpy as np

    left = [np.ones(1)]
    for f in fs[:-1]:
        left.append(np.convolve(left[-1], f))
    out, right = [], np.ones(1)
    for f, before in zip(reversed(fs), reversed(left)):
        out.append(np.convolve(before, right))
        right = np.convolve(right, f)
    return out[::-1]
