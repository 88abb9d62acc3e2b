"""Bijection between exponential polynomials and strictly proper rationals.

A signal sum(P_i(t) * e^(a_i t)) corresponds term by term to an element of
C(s): the monomial c*t^k at rate a maps to c*k!/(s-a)^(k+1), and the Dirac
impulse to the constant 1.  The algebraic derivative d/ds on the rational
side corresponds to multiplication by -t on the signal side.

Rates and coefficients are exact scalars; sin and cos enter through Euler's
formula, so a real trigonometric signal becomes a conjugate pair of complex
exponential terms and its rational image has real coefficients again.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .ratfield import (CPoly, Qi, RatFunc, Spectrum, _FrozenValue, _QI_ZERO,
                       _conv, _gaussian, _gconv, _lincomb, _local_terms,
                       _power, _root_points, _shift, _spectrum, _stretched,
                       _taylor_shift)
from .sigexpr import (Add, Cos, EvaluationError, Exp, Mul, Pow, Sin,
                      SignalExpr, ExpressionError, _cexp, _finite,
                      _is_exppoly, _jet, _poly_tree, _polynomial,
                      _unit_phase, make_add, make_exp, make_mul,
                      pretty_print)

__all__ = ["ExpPoly", "from_signal", "to_rational", "to_exppoly",
           "spectrum_of_exppoly", "dirac_image", "mult_by_minus_t",
           "taylor_truncate"]


class ExpPoly(_FrozenValue):
    """Finite sum of polynomial-times-exponential terms.

    terms is a tuple of (rate, poly) pairs with pairwise distinct rates,
    nonzero polynomials, and canonical (Re, Im) rate order; the empty tuple
    is the zero signal.
    """

    _fields = ("terms",)

    def __init__(self, terms: tuple = ()):
        merged: dict[Qi, CPoly] = {}
        for rate, poly in terms:
            rate = Qi.coerce(rate)
            if not isinstance(poly, CPoly):
                poly = CPoly(poly)
            if rate in merged:
                merged[rate] = merged[rate] + poly
            else:
                merged[rate] = poly
        object.__setattr__(self, "terms", _in_rate_order(merged))

    @classmethod
    def _from_terms(cls, terms: dict[Qi, CPoly]) -> "ExpPoly":
        """The sum of these terms, keyed by their distinct rates."""
        x = object.__new__(cls)
        object.__setattr__(x, "terms", _in_rate_order(terms))
        return x

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, t: float) -> complex:
        """Pointwise value at time t.  A time that is not finite is refused,
        and an angle or a value that overflows raises OverflowError."""
        if not math.isfinite(t):
            raise EvaluationError(f"time must be finite, got {t}")
        acc = 0j
        for rate, poly in self.terms:
            acc += poly(complex(t)) * _cexp(complex(rate) * t)
        return _finite(acc, t)

    def format(self) -> str:
        """The text of the signal in the grammar `sigexpr.parse` reads,
        which reads it back to this signal (`pretty_print` of its tree)."""
        return pretty_print(make_add([make_mul([_poly_tree(poly),
                                                make_exp(rate)])
                                      for rate, poly in self.terms]))


def _in_rate_order(terms: dict[Qi, CPoly]) -> tuple:
    """The (rate, poly) pairs of terms with a nonzero poly, in canonical
    (Re, Im) rate order."""
    out = [(r, p) for r, p in terms.items() if p]
    out.sort(key=lambda rp: rp[0].order_key)
    return tuple(out)


_QI_HALF = Qi(Fraction(1, 2))
_HALF_I = Qi(0, Fraction(1, 2))
# The Euler pairs (c_plus, c_minus) of sin and cos at phase 0:
# sin = (e^(iwt) - e^(-iwt))/(2i), cos = (e^(iwt) + e^(-iwt))/2.
_SIN_PAIR = (-_HALF_I, _HALF_I)
_COS_PAIR = (_QI_HALF, _QI_HALF)


def _euler_pair(e: Sin | Cos) -> tuple[Qi, Qi]:
    """The coefficients of e^(iwt) and e^(-iwt) in e."""
    if not e.phase:
        return _SIN_PAIR if type(e) is Sin else _COS_PAIR
    ph = _unit_phase(e.phase)
    if type(e) is Sin:
        return -_HALF_I * ph, _HALF_I * ph.conjugate()
    return ph * _QI_HALF, ph.conjugate() * _QI_HALF


def _terms_of(e: SignalExpr) -> dict[Qi, CPoly]:
    """The terms rate -> polynomial of an exponential polynomial.  A
    polynomial in t, a sum of monomials included, is read as one `CPoly`
    (`sigexpr._polynomial`)."""
    kind = type(e)
    if kind is Mul:
        acc = None
        for factor in e.factors:
            terms = _terms_of(factor)
            acc = terms if acc is None else _convolve(acc, terms)
        return acc
    if kind is Exp:
        return {e.rate: CPoly.ONE}
    if kind is Sin or kind is Cos:
        c_plus, c_minus = _euler_pair(e)
        w = e.omega
        if not w:
            return {_QI_ZERO: CPoly.scalar(c_plus + c_minus)}
        n, d = w.numerator, w.denominator
        return {Qi._make(0, n, d): CPoly.scalar(c_plus),
                Qi._make(0, -n, d): CPoly.scalar(c_minus)}
    poly = _polynomial(e)
    if poly is not None:
        return {_QI_ZERO: poly}
    if kind is Add:
        out: dict[Qi, CPoly] = {}
        for term in e.terms:
            for rate, poly in _terms_of(term).items():
                prev = out.get(rate)
                out[rate] = poly if prev is None else prev + poly
        return out
    if kind is Pow:
        return _power(_terms_of(e.base), e.k, _convolve,
                      {_QI_ZERO: CPoly.ONE})
    raise ExpressionError(
        "expression is not an exponential polynomial")


def _convolve(a: dict[Qi, CPoly], b: dict[Qi, CPoly]) -> dict[Qi, CPoly]:
    out: dict[Qi, CPoly] = {}
    for ra, pa in a.items():
        for rb, pb in b.items():
            rate = ra + rb if rb else ra
            poly = pa if pb is CPoly.ONE else pa * pb
            prev = out.get(rate)
            out[rate] = poly if prev is None else prev + poly
    return out


def from_signal(e: SignalExpr) -> ExpPoly:
    """Expand an exponential-polynomial expression to canonical terms.

    Any other expression raises ExpressionError before any expansion."""
    if not _is_exppoly(e):
        raise ExpressionError("expression is not an exponential polynomial")
    return _expand(e)


def _expand(e: SignalExpr) -> ExpPoly:
    """`from_signal` of an expression already classified as an exponential
    polynomial."""
    return ExpPoly._from_terms(_terms_of(e))


def _local_numerator(rate: Qi, poly: CPoly, L: int, C: int):
    """(l^m, Lambda) for l = L*s + c, c = -L*rate, and m = deg P + 1, where
    Lambda = G(l) for G(y) = sum_k g_k y^(m-1-k), g_k = C*p_k*k!*L^(k+1):
    the image of P(t)*e^(rate*t) is Lambda/(C*l^m).  Both come as the
    Gaussian-integer lists (re, im), l^m over 1 and Lambda over C.  l^m is
    the binomial row (y + c)^m, C(m, k)*c^(m-k) from k = m down, stretched
    by L; G(L*s + c) is one shift of G by c and one stretch by L."""
    f = L // rate._d
    cr, ci = -rate._a * f, -rate._b * f
    gr, gi = [], []              # g_k, from the first nonzero one
    g = C // poly._d * L         # C/d * k! * L^(k+1)
    for k, (pr, pi) in enumerate(zip(poly._re, poly._im)):
        if k:
            g *= k * L
        if gr or pr or pi:
            gr.append(pr * g)
            gi.append(pi * g)
    m = len(poly._re)
    lr, li = [0] * (m + 1), [0] * (m + 1)
    b, pr, pi = 1, 1, 0          # C(m, k) and c^(m-k)
    for k in range(m, -1, -1):
        lr[k], li[k] = b * pr, b * pi
        pr, pi = pr * cr - pi * ci, pr * ci + pi * cr
        b = b * k // (m - k + 1)
    return (_stretched(lr, li, L),
            _stretched(*_shift(gr[::-1], gi[::-1], cr, ci, len(gr)), L))


def to_rational(x: ExpPoly) -> RatFunc:
    """Operational image in C(s): c*t^k at rate a -> c*k!/(s-a)^(k+1).

    The sum runs on Gaussian-integer coefficient lists in one scaled
    variable.  With L the lcm of the rate denominators and C that of the
    polynomial denominators, each l_a = L*s - L*a has Gaussian-integer
    coefficients, and the rate a, with m_a = deg P_a + 1, contributes
    Lambda_a / (C * l_a^m_a), where Lambda_a = sum_k g_k l_a^(m_a-1-k) and
    g_k = C*p_k*k!*L^(k+1).  When the conjugate rate carries the conjugate
    polynomial, as in every real signal, its l^m and Lambda are the
    conjugates of l_a^m_a and Lambda_a, and the two take one real step:
    2 Re(Lambda_a conj(l_a^m_a)) over |l_a^m_a|^2, from the one local
    numerator.  Any other rate is a term of its own.  Summed over the
    common denominator prod l_a^m_a = L^M prod (s-a)^m_a, M = sum m_a, the
    image is canonicalized once: numerator over C*L^M, denominator over L^M.
    A pair's real step, or a real rate with a real polynomial, gives a real
    term, and while the sum so far is real too, a step folds the real lists
    alone: one `_conv` per product and one `_lincomb`.  So a real signal's
    image is summed on real lists throughout.

    The sum needs no gcd.  At s = a the numerator equals L^M times
    (m_a-1)! times the leading coefficient of P_a, which is nonzero, times
    the other factors at a, which are nonzero because the rates are
    distinct; so numerator and denominator are coprime, and the
    denominator is monic.
    """
    if not x.terms:
        return RatFunc.ZERO
    L = math.lcm(*(rate._d for rate, _ in x.terms))
    C = math.lcm(*(poly._d for _, poly in x.terms))
    rest = dict(x.terms)
    num = den = None        # the sum so far over its poles; im None if real
    while rest:
        rate, poly = rest.popitem()
        fac, lam = _local_numerator(rate, poly, L, C)
        twin = rest.get(rate.conjugate()) if rate._b else None
        if (twin is not None and twin._re == poly._re and twin._d == poly._d
                and twin._im == tuple(-y for y in poly._im)):
            del rest[rate.conjugate()]
            (fr, fi), (lr, li) = fac, lam
            lam = _lincomb(_conv(lr, fr), 2, _conv(li, fi), 2), None
            fac = _lincomb(_conv(fr, fr), 1, _conv(fi, fi), 1), None
        elif not (rate._b or any(poly._im)):
            fac, lam = (fac[0], None), (lam[0], None)
        if den is None:
            num, den = lam, fac
        elif num[1] is None and lam[1] is None:
            num = _lincomb(_conv(num[0], fac[0]), 1,
                           _conv(lam[0], den[0]), 1), None
            den = _conv(den[0], fac[0]), None
        else:
            (nr, ni), (fr, fi), (lr, li), (dr, di) = (
                _gaussian(*part) for part in (num, fac, lam, den))
            (ar, ai), (br, bi) = _gconv(nr, ni, fr, fi), _gconv(lr, li, dr, di)
            num = _lincomb(ar, 1, br, 1), _lincomb(ai, 1, bi, 1)
            den = _gconv(dr, di, fr, fi)
    M = len(den[0]) - 1
    (nr, ni), (dr, di) = _gaussian(*num), _gaussian(*den)
    return RatFunc._from_reduced(CPoly._canon(nr, ni, C * L ** M),
                                 CPoly._canon(dr, di, L ** M))


def spectrum_of_exppoly(x: ExpPoly) -> Spectrum:
    """Spectrum read off the exact rates, with no root finding.

    The poles of the image are the rates themselves, a rate whose
    polynomial has degree m being a pole of order m + 1.
    """
    return _spectrum([(z, rate, "pole", order) for z, rate, order
                      in _root_points((rate, len(poly._re))
                                      for rate, poly in x.terms)])


def to_exppoly(r: RatFunc) -> ExpPoly:
    """Inverse image of a strictly proper rational function.

    The term c/(s-a)^(k+1) gives c/k! * t^k at the rate a, so each pole
    gives the polynomial of its rate at once.  A pole in Q(i) gives its rate
    and coefficients exactly; a float pole gives them as the dyadic
    rationals of its floats, and its leading one may vanish.  Each c/k! is
    reduced by its own gcd, so the polynomial is canonical over the lcm of
    the reduced denominators, with no gcd over all of it: for a canonical c
    over d, gcd(Re c*d, Im c*d, d*k!) = gcd(Re c*d, Im c*d, k!)."""
    if not r.is_strictly_proper:
        raise ValueError("inverse image requires a strictly proper input")
    terms: dict[Qi, CPoly] = {}    # the poles are distinct rates
    for pole, c in _local_terms(r)[1]:
        if pole.exact is None:
            rate, c = (Qi.coerce(pole.location),
                       [Qi.coerce(complex(x)) for x in c])
        else:
            rate = pole.exact
        if len(c) == 1:
            terms[rate] = CPoly.scalar(c[0])
            continue
        c = c[::-1]                           # orders 1, ..., m
        while c and not c[-1]:
            c.pop()
        parts, f = [], 1                      # (Re, Im, denominator), k!
        for k, x in enumerate(c):
            if k:
                f *= k
            g = math.gcd(x._a, x._b, f)
            parts.append((x._a // g, x._b // g, x._d * (f // g)))
        d = math.lcm(*(e for _, _, e in parts))
        terms[rate] = CPoly._make(tuple(a * (d // e) for a, _, e in parts),
                                  tuple(b * (d // e) for _, b, e in parts), d)
    return ExpPoly._from_terms(terms)


def dirac_image() -> RatFunc:
    """The impulse corresponds to the constant 1; its spectrum is empty."""
    return RatFunc.ONE


def mult_by_minus_t(x: ExpPoly) -> ExpPoly:
    """Time-domain counterpart of d/ds: each P(t) becomes -t*P(t)."""
    shift = CPoly([0, -1])
    return ExpPoly(tuple((rate, poly * shift) for rate, poly in x.terms))


def taylor_truncate(e: SignalExpr, t0: float, order: int) -> ExpPoly:
    """Truncated Taylor expansion of e at t0, as a pure polynomial signal.

    The result has the single rate 0, hence an empty spectrum, regardless
    of the spectrum of e.  Its coefficients are those of one truncated
    Taylor series of e (`sigexpr._jet`), at O(order^2) per node; at t0 = 0
    they are exact for every signal, so an exponential polynomial gives the
    Taylor coefficients of its expansion `from_signal(e)`, phases included.
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    jet = CPoly(_jet(e, t0, order))        # in h = t - t0
    poly = CPoly(_taylor_shift(jet, Qi.coerce(-Fraction(t0)), order + 1))
    return ExpPoly(((_QI_ZERO, poly),))
