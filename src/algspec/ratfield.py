"""Exact arithmetic in C(s) and the pole-based spectrum.

Polynomials and rational functions carry exact coefficients, so gcd
cancellation and reduction are exact and no spurious poles appear.  A scalar
`Qi` is a pair of `fractions.Fraction` values (real and imaginary part); a
polynomial `CPoly` stores Gaussian integers over one positive integer
denominator, so its arithmetic, division included, runs on integers.  Most
gcds are 1; `poly_gcd` certifies that modulo one fixed prime P = 1 (mod 4),
sending i to a square root of -1 (W. S. Brown, JACM 1971).  The exact
Euclidean algorithm runs only when the certificate does not apply: the
images share a factor, a denominator is divisible by P, or a leading
coefficient vanishes mod P.  Floats enter only at root finding, which runs
a square-free decomposition first (restoring multiplicities exactly) and
then an Aberth-style simultaneous iteration on each square-free factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

__all__ = [
    "Qi", "CPoly", "RatFunc", "Pole", "SingularitySource", "Spectrum",
    "RootFindingError", "poles", "spectrum_of_rational",
    "partial_fractions", "PartialFractions", "alg_deriv", "snap_axes",
]

# Relative tolerance for merging conjugate-symmetric float noise in
# frequency sets and for deciding that a singularity sits on the real axis.
FREQ_TOL = 1e-9


class RootFindingError(ArithmeticError):
    """Simultaneous root iteration failed to converge within its budget."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


class Qi:
    """Exact complex scalar: rational real and imaginary parts.

    Elements of Q(i).  Floats convert via their exact binary expansion, so
    values observed numerically can still take part in exact arithmetic.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @classmethod
    def coerce(cls, x) -> "Qi":
        if isinstance(x, Qi):
            return x
        if isinstance(x, complex):
            return cls(Fraction(x.real), Fraction(x.imag))
        return cls(_frac(x))

    @classmethod
    def _try(cls, x):
        try:
            return cls.coerce(x)
        except TypeError:
            return None

    def conjugate(self) -> "Qi":
        return Qi(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        other = Qi._try(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __neg__(self):
        return Qi(-self.re, -self.im)

    def __add__(self, other):
        other = Qi._try(other)
        if other is None:
            return NotImplemented
        return Qi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Qi._try(other)
        if other is None:
            return NotImplemented
        return Qi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = Qi._try(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = Qi._try(other)
        if other is None:
            return NotImplemented
        return Qi(self.re * other.re - self.im * other.im,
                  self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Qi._try(other)
        if other is None:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Qi((self.re * other.re + self.im * other.im) / d,
                  (self.im * other.re - self.re * other.im) / d)

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
        out, base = _QI_ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def _key(self):
        return (self.re, self.im)

    def __repr__(self):
        return f"Qi({self.re!r}, {self.im!r})"

    def __str__(self):
        # display form: "3", "-1/2", "i", "2i", "(1+2i)"; components whose
        # denominators betray float origins render at 12 significant digits
        if self.im == 0:
            return _frac_str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{_frac_str(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imtxt = "i" if mag == 1 else f"{_frac_str(mag)}i"
        return f"({_frac_str(self.re)}{sign}{imtxt})"


def _frac_str(f: Fraction) -> str:
    if f.denominator > 1_000_000_000:
        return format(float(f), ".12g")
    return str(f)


_QI_ONE = Qi(1)


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


def _conv(a, b) -> list[int]:
    """Product of two nonempty integer coefficient sequences."""
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j:j + n] = map(int.__add__, out[j:j + n], map(y.__mul__, a))
    return out


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
        # the lcm of reduced denominators leaves content 1
        d = math.lcm(*(f.denominator for c in cs for f in (c.re, c.im)))
        self._re = tuple(c.re.numerator * (d // c.re.denominator) for c in cs)
        self._im = tuple(c.im.numerator * (d // c.im.denominator) for c in cs)
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
            qi = self._qi = tuple(Qi(Fraction(r, d), Fraction(i, d))
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
        da, db = self._d, other._d
        if da == db:
            ma, mb = 1, sign
        else:
            g = math.gcd(da, db)
            ma, mb, da = db // g, sign * (da // g), da * (db // g)
        return CPoly._canon(_lincomb(self._re, ma, other._re, mb),
                            _lincomb(self._im, ma, other._im, mb), da)

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
        ar, ai, br, bi = self._re, self._im, other._re, other._im
        if not any(ai):
            re = _conv(ar, br)
            im = _conv(ar, bi) if any(bi) else [0] * len(re)
        elif not any(bi):
            re, im = _conv(ar, br), _conv(ai, br)
        else:   # three real products: (a + ib)(c + id) by Karatsuba's trick
            ac, bd = _conv(ar, br), _conv(ai, bi)
            mid = _conv(list(map(int.__add__, ar, ai)),
                        list(map(int.__add__, br, bi)))
            re = list(map(int.__sub__, ac, bd))
            im = [m - x - y for m, x, y in zip(mid, ac, bd)]
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
            base = base * base
            k >>= 1
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
    if c == Qi(-1):
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
    if p.degree <= 0:
        return []
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
            base = base * base
            k >>= 1
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


def poly_roots(p: CPoly) -> list[Pole]:
    """All complex roots with exact multiplicities, sorted by (re, im)."""
    if p.degree <= 0:
        return []
    out = []
    for factor, mult in square_free_factors(p):
        if factor.degree == 1:
            root = complex(-(factor.coeffs[0] / factor.coeffs[1]))
            out.append(Pole(root, mult))
        else:
            for root in _aberth(factor.to_complex()):
                out.append(Pole(root, mult))
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


def _taylor_coeffs(coeffs: list[complex], p: complex, k: int) -> list[complex]:
    # first k Taylor coefficients of the polynomial at p, via repeated
    # synthetic division by (s - p)
    c = list(coeffs)
    out = []
    for _ in range(k):
        if not c:
            out.append(0j)
            continue
        r = 0j
        for j in range(len(c) - 1, -1, -1):
            r = r * p + c[j]
            c[j] = r
        out.append(c[0])
        c = c[1:]
    return out


def _series_div(a: list[complex], b: list[complex]) -> list[complex]:
    out = []
    for l in range(len(a)):
        acc = a[l]
        for j in range(1, l + 1):
            acc -= b[j] * out[l - j]
        out.append(acc / b[0])
    return out


def _float_local_terms(rem_c, ps) -> list[PFTerm]:
    terms: list[PFTerm] = []
    for j, p in enumerate(ps):
        rest = np.array([1.0 + 0j])
        for k, q in enumerate(ps):
            if k == j:
                continue
            lin = np.array([-q.location, 1.0 + 0j])
            for _ in range(q.multiplicity):
                rest = np.convolve(rest, lin)
        a = _taylor_coeffs(rem_c, p.location, p.multiplicity)
        b = _taylor_coeffs(list(rest), p.location, p.multiplicity)
        c = _series_div(a, b)
        for l, cl in enumerate(c):
            terms.append(PFTerm(p.location, p.multiplicity - l, cl))
    return terms


def _exact_shift(coeffs, pq: Qi, count: int) -> list:
    # first `count` Taylor coefficients at pq by repeated synthetic
    # division, carried out in exact rational arithmetic
    c = list(coeffs)
    out = []
    for _ in range(count):
        if not c:
            out.append(Qi(0))
            continue
        r = Qi(0)
        for j in range(len(c) - 1, -1, -1):
            r = r * pq + c[j]
            c[j] = r
        out.append(c[0])
        c = c[1:]
    return out


def _exact_local_terms(rem: CPoly, den: CPoly, ps) -> list[PFTerm]:
    # Float pole components are dyadic rationals, so the shifted series can
    # be computed without rounding; the only residual error is the distance
    # from the float pole to the true root.  The den series starts at index
    # multiplicity because the low coefficients vanish there up to that
    # same distance, so dropping them is what division by (s-p)^m means.
    terms: list[PFTerm] = []
    for p in ps:
        m = p.multiplicity
        pq = Qi.coerce(p.location)
        a = _exact_shift(rem.coeffs, pq, m)
        b = _exact_shift(den.coeffs, pq, 2 * m)[m:]
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
            terms.append(PFTerm(p.location, m - l, complex(cl)))
    return terms


def partial_fractions(r: RatFunc) -> PartialFractions:
    """Decompose r as poly_part + sum coefficient/(s-pole)^order.

    The polynomial part comes from exact division.  Pole-wise coefficients
    come from local Taylor expansions around each (float) pole, computed in
    floating point first and recomputed in exact rational arithmetic when
    the float pass cannot be certified.  The result is always verified by
    reconstruction to 1e-9 in coefficient norm.
    """
    quot, rem = divmod(r.num, r.den)
    terms: list[PFTerm] = []
    if not rem.is_zero:
        ps = poles(r)
        rem_c = rem.to_complex()
        terms = _float_local_terms(rem_c, ps)
        if _reconstruction_error(rem_c, ps, terms) > 1e-12:
            terms = _exact_local_terms(rem, r.den, ps)
        err = _reconstruction_error(rem_c, ps, terms)
        if err > 1e-9:
            raise RootFindingError(
                f"partial-fraction reconstruction error {err:.3e} "
                f"exceeds 1e-9")
    terms = [t for t in terms if t.coefficient != 0]
    terms.sort(key=lambda t: (t.pole.real, t.pole.imag, t.order))
    return PartialFractions(tuple(terms), quot)


def _reconstruction_error(rem_c, ps, terms) -> float:
    # rem(s) must equal sum over poles of (local series) * (den / local factor)
    deg = sum(p.multiplicity for p in ps)
    acc = np.zeros(max(deg, 1), dtype=complex)
    for t in terms:
        rest = np.array([1.0 + 0j])
        for q in ps:
            power = q.multiplicity - (t.order if q.location == t.pole else 0)
            lin = np.array([-q.location, 1.0 + 0j])
            for _ in range(power):
                rest = np.convolve(rest, lin)
        acc[:len(rest)] += t.coefficient * rest
    ref = np.zeros(max(deg, 1), dtype=complex)
    ref[:len(rem_c)] = rem_c
    scale = max(1.0, float(np.max(np.abs(ref))))
    return float(np.max(np.abs(acc - ref))) / scale
