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
coefficient vanishes mod P.  Roots are found per square-free factor (Yun's
decomposition restores multiplicities exactly), exactly where they lie in
Q(i) (`square_free_roots`); only the others are floats, by Aberth's method.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from typing import NamedTuple

__all__ = [
    "Qi", "CPoly", "RatFunc", "Pole", "SingularitySource", "Spectrum",
    "RootFindingError", "DigitLimitError", "poles", "spectrum_of_rational",
    "partial_fractions", "PartialFractions", "alg_deriv", "snap_axes",
    "square_free_roots",
]

# Relative tolerance for merging conjugate-symmetric float noise in
# frequency sets and for deciding that a singularity sits on the real axis.
FREQ_TOL = 1e-9


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
    below the smallest normal float, 2^-1022, is rounded from the integers,
    since its float would lose digits or underflow to 0."""
    g = math.gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    if d > 1_000_000_000:
        if n and abs(n) << 1022 < d:
            q = Context(prec=12).divide(Decimal(n), Decimal(d))
            return format(q.normalize(), "g")
        return format(n / d, ".12g")
    return _int_text(n, d)


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
        a, b = 1, 0                  # (x + iy)^k by binary powering
        x, y = self._a, self._b
        n = k
        while n:
            if n & 1:
                a, b = a * x - b * y, a * y + b * x
            x, y = x * x - y * y, 2 * x * y
            n >>= 1
        return Qi._canon(a, b, self._d ** k)

    def __complex__(self):
        # integer true division rounds correctly, as float(Fraction) does
        d = self._d
        return complex(self._a / d, self._b / d)

    def __repr__(self):
        try:
            return f"Qi({self.re!r}, {self.im!r})"
        except ValueError:
            raise DigitLimitError() from None

    def __str__(self):
        # display form: "3", "-1/2", "i", "2i", "(1+2i)"; components whose
        # denominators betray float origins render at 12 significant digits
        a, b, d = self._a, self._b, self._d
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


_QI_ONE = Qi(1)
_QI_MINUS_ONE = Qi(-1)


def _gmul(re, im, gr: int, gi: int):
    """The coefficients (re + i*im) times the Gaussian integer gr + i*gi."""
    if not gi:
        if gr == 1:
            return re, im
        return [x * gr for x in re], [y * gr for y in im]
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


def _gsum(x, y, sign: int = 1) -> tuple[list[int], list[int], int]:
    """x + sign*y for Gaussian-integer coefficient sequences over integer
    denominators, given as (re, im, d), over the lcm of the two d."""
    (xr, xi, dx), (yr, yi, dy) = x, y
    if dx == dy:
        mx, my = 1, sign
    else:
        g = math.gcd(dx, dy)
        mx, my, dx = dy // g, sign * (dx // g), dx * (dy // g)
    return _lincomb(xr, mx, yr, my), _lincomb(xi, mx, yi, my), dx


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
        return cls([c])

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
        if not isinstance(other, CPoly):
            try:
                other = CPoly([other])   # a scalar
            except TypeError:
                return NotImplemented
        if self.is_zero or other.is_zero:
            return CPoly.ZERO
        if other is CPoly.ONE:
            return self
        if self is CPoly.ONE:
            return other
        re, im = _gconv(self._re, self._im, other._re, other._im)
        return CPoly._canon(re, im, self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        out = CPoly.ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

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
        if self.is_zero:
            return self
        cr, ci, n = self._inverse_lead()
        return CPoly._canon(*_gmul(self._re, self._im, cr, ci), n)

    def at(self, q: Qi) -> Qi:
        """Exact value at q = g/e, by Horner's rule on Gaussian integers."""
        gr, gi, e = q._a, q._b, q._d
        hr = hi = 0              # e^(n-j) times Horner's sum after c_j
        k = 1                    # e^(n-j+1) after c_j
        for r, i in zip(reversed(self._re), reversed(self._im)):
            hr, hi = hr * gr - hi * gi + r * k, hr * gi + hi * gr + i * k
            k *= e
        return Qi._canon(hr * e, hi * e, self._d * k)

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.to_complex()):
            acc = acc * z + c
        return acc

    def to_complex(self) -> list[complex]:
        d = self._d
        return [complex(r / d, i / d) for r, i in zip(self._re, self._im)]

    def format(self, var: str = "s") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            txt = _term_str(c, var, k)
            if parts and not txt.startswith("-"):
                parts.append("+ " + txt)
            elif parts:
                parts.append("- " + txt[1:])
            else:
                parts.append(txt)
        return " ".join(parts)

    def __repr__(self):
        return f"CPoly({self.format()!r})"


def _coeff_str(c: Qi) -> str:
    s = str(c)
    if "/" in s and not s.startswith("("):
        return f"({s})"
    return s


def _term_str(c: Qi, var: str, k: int) -> str:
    if k == 0:
        return _coeff_str(c)
    vtxt = var if k == 1 else f"{var}^{k}"
    if c == _QI_ONE:
        return vtxt
    if c == _QI_MINUS_ONE:
        return "-" + vtxt
    return f"{_coeff_str(c)}{vtxt}"


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
    """Yun's decomposition: [(factor, multiplicity)], factors monic."""
    p = p.monic()
    if p.degree <= 1:
        return [(p, 1)] if p.degree == 1 else []
    g = poly_gcd(p, p.deriv())
    if g.degree == 0:
        return [(p, 1)]
    out = []
    b = p // g
    d = (p.deriv() // g) - b.deriv()
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
        out = RatFunc(CPoly.ONE)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

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

    def format(self, var: str = "s") -> str:
        if self.is_polynomial:
            return self.num.format(var)
        ntxt = self.num.format(var)
        dtxt = self.den.format(var)
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
    The bound scales with |z|^k, so large and small roots meet it alike."""
    import numpy as np

    c = np.asarray(coeffs, dtype=complex)
    deg = len(c) - 1
    if deg == 1:
        return [complex(-c[0] / c[1])]
    polyval = np.polynomial.polynomial.polyval
    abs_c = np.abs(c)
    dc = c[1:] * np.arange(1, deg + 1)
    z = np.roots(c[::-1]).astype(complex)
    for _ in range(max_iter):
        p = polyval(z, c)
        if np.all(np.abs(p) <= _ABERTH_TOL * polyval(np.abs(z), abs_c)):
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
    # An exact root 0 of a polynomial with c_0 = 0 has scale 0 and
    # residual 0; it counts as backward error 0, not 0/0.
    scale = polyval(np.abs(z), abs_c)
    backward = float(np.max(np.divide(np.abs(polyval(z, c)), scale,
                                      out=np.zeros(deg), where=scale > 0)))
    raise RootFindingError(
        f"root iteration stalled: backward error {backward:.3e} "
        f"above {_ABERTH_TOL:.0e} after {max_iter} iterations")


@dataclass(frozen=True)
class Pole:
    location: complex
    multiplicity: int
    exact: Qi | None = None   # the root itself when it lies in Q(i)


def _sqrt_qi(z: Qi) -> Qi | None:
    """A square root of z = w/d in Q(i), or None: (u + i*v)/d where
    (u + i*v)^2 = w*d, so u^2 - v^2 = Re(w*d) and u^2 + v^2 = |w*d|."""
    x, y, d = z._a * z._d, z._b * z._d, z._d
    n = math.isqrt(x * x + y * y)
    u, v = math.isqrt((n + x) // 2), math.isqrt((n - x) // 2)
    v = -v if y < 0 else v
    return Qi._canon(u, v, d) if (u * u - v * v, 2 * u * v) == (x, y) else None


def square_free_roots(f: CPoly) -> list[tuple[complex, Qi | None]]:
    """Roots of a monic square-free polynomial of positive degree, each as
    (location, exact), exact being the root when it lies in Q(i), else None.

    A root of f = F/d, F in Z[i][s] with lead(F) = d, has a denominator
    dividing d (Loos, SIAM J. Comput. 1983).  Degree 1 is exact, degree 2
    takes the square root of the discriminant in Q(i), and a higher degree
    rounds d times each root of one `_aberth` call to a Gaussian integer g,
    nearest first, keeping g/d when it is a root of f not yet taken.
    """
    c, d = f.coeffs, f._d
    if f.degree == 1:
        return [(complex(-c[0]), -c[0])]
    r = _sqrt_qi(c[1] * c[1] - 4 * c[0]) if f.degree == 2 else None
    if r is not None:
        return [(complex(q), q) for q in ((r - c[1]) / 2, (-r - c[1]) / 2)]
    rounded = []
    for z in _aberth(f.to_complex()):
        x, y = Fraction(z.real) * d, Fraction(z.imag) * d
        a, b = round(x), round(y)
        rounded.append((abs(x - a) + abs(y - b), z, Qi._canon(a, b, d)))
    out: list[tuple[complex, Qi | None]] = []
    for _, z, q in sorted(rounded, key=lambda r: r[0]):
        exact = q not in {x for _, x in out} and not f.at(q)
        out.append((complex(q), q) if exact else (z, None))
    return out


def poly_roots(p: CPoly) -> list[Pole]:
    """All complex roots with exact multiplicities, sorted by (re, im)."""
    if p.degree <= 0:
        return []
    out = [Pole(z, mult, q) for factor, mult in square_free_factors(p)
           for z, q in square_free_roots(factor)]
    out.sort(key=lambda q: _location_key(q.location))
    return out


def _location_key(z: complex) -> tuple:
    """Sort key of reported pole locations.  The rounded leading parts let
    conjugate pairs with 1e-16 real-part noise order deterministically; the
    raw parts break genuine near-ties."""
    return (round(z.real, 9), round(z.imag, 9), z.real, z.imag)


def poles(r: RatFunc) -> list[Pole]:
    """Poles of a reduced rational function, with multiplicities."""
    return poly_roots(r.den)


# ---------------------------------------------------------------------------
# Spectrum


@dataclass(frozen=True)
class SingularitySource:
    """One singular point feeding a spectrum: a pole of the rational image,
    or a classified singularity of a defining equation."""
    location: complex
    kind: str          # "pole" | "logarithmic" | "none"
    order: int = 0     # pole multiplicity; 0 when not a pole


@dataclass(frozen=True)
class Spectrum:
    """Finite frequency set plus the singularities that produced it.

    Frequencies are the nonzero imaginary parts of the source locations;
    real-located sources contribute nothing, and 0 is never listed.
    """
    frequencies: tuple[float, ...]
    sources: tuple[SingularitySource, ...]
    infinite_singularity: bool = False


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


def spectrum_of_rational(r: RatFunc) -> Spectrum:
    """Frequencies of an element of C(s): imaginary parts of its poles.

    All-real-pole inputs (Laurent polynomials and the rest of the real-pole
    subring) yield an empty frequency set, as does any polynomial part.
    """
    ps = poles(r)
    sources = tuple(SingularitySource(snap_axes(p.location), "pole",
                                      p.multiplicity) for p in ps)
    freqs = clean_frequencies(p.location.imag for p in ps)
    return Spectrum(freqs, sources, infinite_singularity=False)


# ---------------------------------------------------------------------------
# Partial fractions


class PFTerm(NamedTuple):
    pole: complex
    order: int
    coefficient: complex


class PartialFractions(NamedTuple):
    terms: tuple[PFTerm, ...]
    poly_part: CPoly


def _taylor(p: CPoly, q: Qi, lo: int, hi: int) -> list[Qi]:
    # the Taylor coefficients p^(k)(q)/k! of p at q for lo <= k < hi
    out, fact = [], 1
    for k in range(hi):
        if k >= lo:
            out.append(p.at(q) / fact)
        p, fact = p.deriv(), fact * (k + 1)
    return out


def _exact_local_terms(rem: CPoly, den: CPoly, ps) -> list[tuple]:
    # (pole, order, coefficient), the coefficient read exactly off the
    # local series at the exact root, or at a float root read as its dyadic
    # rational; dropping the den series' low terms divides by (s-p)^m, as
    # they vanish up to the float root's error
    terms: list[tuple] = []
    for p in ps:
        m = p.multiplicity
        pq = Qi.coerce(p.location) if p.exact is None else p.exact
        a = _taylor(rem, pq, 0, m)
        b = _taylor(den, pq, m, 2 * m)
        if b[0] == Qi(0):
            raise RootFindingError(
                "degenerate local series at pole {0}".format(p.location))
        c: list[Qi] = []
        for l in range(m):
            acc = a[l]
            for j in range(1, l + 1):
                acc = acc - b[j] * c[l - j]
            c.append(acc / b[0])
        for l, cl in enumerate(c):
            terms.append((p, m - l, cl))
    return terms


def _local_terms(r: RatFunc) -> tuple[CPoly, list[tuple]]:
    """The polynomial part of r and its terms (pole, order, coefficient),
    a `Pole` and an exact coefficient, certified by reconstruction when a
    pole is a float."""
    quot, rem = divmod(r.num, r.den)
    terms: list[tuple] = []
    if not rem.is_zero:
        ps = poles(r)
        terms = _exact_local_terms(rem, r.den, ps)
        if any(p.exact is None for p in ps):
            err = _reconstruction_error(rem.to_complex(), ps, terms)
            if err > 1e-9:
                raise RootFindingError(
                    f"partial-fraction reconstruction error {err:.3e} "
                    f"exceeds 1e-9")
    return quot, terms


def partial_fractions(r: RatFunc) -> PartialFractions:
    """Decompose r as poly_part + sum coefficient/(s-pole)^order.

    The polynomial part comes from exact division, and the coefficients at
    each pole from its exact local Laurent series, which is exact at a pole
    in Q(i).  With a float pole the result is verified by reconstruction to
    1e-9 in coefficient norm.
    """
    quot, local = _local_terms(r)
    terms = [PFTerm(p.location, order, complex(c)) for p, order, c in local]
    terms = [t for t in terms if t.coefficient != 0]
    terms.sort(key=lambda t: (t.pole.real, t.pole.imag, t.order))
    return PartialFractions(tuple(terms), quot)


def _reconstruction_error(rem_c, ps, terms) -> float:
    # rem(s) must equal sum over poles of (local series) * (den / local factor)
    import numpy as np

    deg = sum(p.multiplicity for p in ps)
    acc = np.zeros(max(deg, 1), dtype=complex)
    for pole, order, coeff in terms:
        rest = np.array([1.0 + 0j])
        for q in ps:
            power = q.multiplicity - (order if q.location == pole.location
                                      else 0)
            lin = np.array([-q.location, 1.0 + 0j])
            for _ in range(power):
                rest = np.convolve(rest, lin)
        acc[:len(rest)] += complex(coeff) * rest
    ref = np.zeros(max(deg, 1), dtype=complex)
    ref[:len(rem_c)] = rem_c
    scale = max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(acc - ref))) / scale
