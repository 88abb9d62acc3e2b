"""Differential operators over C(s) and singularity-based spectra.

Signals outside the exponential-polynomial class have no rational image,
but each catalog atom satisfies a linear operational equation L x = rhs
with L in the noncommutative ring C(s)[d/ds].  Frequencies are then the
nonzero imaginary parts of the singular points of the equation's solution:
candidates are the poles of the normalized coefficients r_k/r_n and rhs/r_n,
each factor of a coprime base of their denominators is classified once by
the Fuchs criterion, and infinity from the degrees of the same coefficients,
scaled by powers of s and Lah numbers.  Operator products and actions
hold every coefficient as a Gaussian-integer numerator over one integer,
whose imaginary half is None while it is real, and an exponent vector
over one coprime base of the operands' denominators: products add
exponents, derivatives raise them, and sums meet at their elementwise
maximum, with no gcd and no canonical form.  Real numerators multiply
and add on their real lists alone.  Each product is added, as it is
made, into the sum of its output order and exponent vector; each output
coefficient is then lifted to one denominator in one loop, canonicalized
once and reduced over the base, one factor at a time: a linear factor by
an integer Horner sum at its root, any other by gcds with that factor
alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from functools import reduce

from .ratfield import (CPoly, Qi, RatFunc, Spectrum, _FrozenValue, _QI_ONE,
                       _gaussian, _gmul, _gsum, _reported, _rmul,
                       _root_points, _scaled_value, _spectrum, poly_gcd,
                       square_free_factors)
from .sigexpr import (Chirp, Delay, RaisedCos, Sinc, SignalExpr,
                      ExpressionError, _unit_phase, split_scale)

__all__ = [
    "WeylOp", "OdeSystem", "SingularPoint", "apply", "mul_ops",
    "catalog_equation", "finite_singularities", "singularity_at_infinity",
    "spectrum_of_points", "spectrum_of_ode", "format_weylop",
    "format_equation",
]


class WeylOp(_FrozenValue):
    """Operator sum(r_k * (d/ds)^k) with rational coefficients.

    coeffs[k] is the coefficient of the k-th derivative; trailing zeros are
    stripped, so order == len(coeffs) - 1 and the leading coefficient of a
    nonzero operator is nonzero.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple = (RatFunc.ZERO,)):
        cs = [c if isinstance(c, RatFunc) else RatFunc(c) for c in coeffs]
        while len(cs) > 1 and cs[-1].is_zero:
            cs.pop()
        if not cs:
            cs = [RatFunc.ZERO]
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_zero

    def __add__(self, other: "WeylOp") -> "WeylOp":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return WeylOp(tuple(out))

    def __sub__(self, other: "WeylOp") -> "WeylOp":
        return self + WeylOp(tuple(-c for c in other.coeffs))

    def __mul__(self, other: "WeylOp") -> "WeylOp":
        return mul_ops(self, other)


WeylOp.D = WeylOp((RatFunc.ZERO, RatFunc.ONE))
WeylOp.IDENTITY = WeylOp((RatFunc.ONE,))
WeylOp.S = WeylOp((RatFunc.S,))


class OdeSystem(_FrozenValue):
    """Defining equation op x = rhs with op of positive order."""

    _fields = ("op", "rhs")

    def __init__(self, op: WeylOp, rhs: RatFunc):
        if op.order < 1:
            raise ValueError("defining operator must have order >= 1")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "rhs", rhs)


class SingularPoint(_FrozenValue):
    """Classified singular point; location None encodes the point at
    infinity.  `kind` is "regular" or "irregular"; `refinement` is
    "logarithmic", "pole" or "unclassified"; `order` is the pole order of
    the solution when the refinement is "pole"; `exact` is the location when
    it lies in Q(i)."""

    _fields = ("location", "kind", "refinement", "order", "exact")

    def __init__(self, location: complex | None, kind: str, refinement: str,
                 order: int = 0, exact: Qi | None = None):
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "refinement", refinement)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "exact", exact)

    @property
    def is_infinite(self) -> bool:
        return self.location is None

    @property
    def label(self) -> str:
        """Display form of the refinement: "pole(m)" for a pole."""
        if self.refinement == "pole":
            return f"pole({self.order})"
        return self.refinement


def _coprime_base(dens) -> tuple[list[CPoly], dict[CPoly, tuple[int, ...]]]:
    """A coprime base B of monic polynomials and, for each, its exponent
    vector e over B: d = prod(B_i^e_i).  Refining the square-free factors
    (Bach, Driscoll and Shallit, J. Algorithms 15, 1993) replaces a base
    factor b and a factor f by g = gcd(b, f), b/g and f/g, pairwise coprime
    for square-free inputs; a base factor then divides at most one
    square-free factor of a denominator, whose multiplicity is its
    exponent.  Each base factor carries those multiplicities along."""
    dens = list(dict.fromkeys(dens))
    base: list[tuple[CPoly, dict[int, int]]] = []
    for k, d in enumerate(dens):
        if not d.degree:
            continue   # a constant adds no base factor
        for f, m in square_free_factors(d):
            refined = []
            for b, mults in base:
                # two distinct monic linear factors are coprime
                g = (b if b == f else CPoly.ONE
                     if f.degree == 0 or b.degree == f.degree == 1
                     else poly_gcd(b, f))
                if g.degree > 0:
                    f = f // g
                    refined.append((g, {**mults, k: m}))
                    if b != g:
                        refined.append((b // g, mults))
                else:
                    refined.append((b, mults))
            if f.degree > 0:
                refined.append((f, {k: m}))
            base = refined
    return [b for b, _ in base], {
        d: tuple(mults.get(k, 0) for _, mults in base)
        for k, d in enumerate(dens)}


def _raw(p: CPoly) -> tuple:
    """p as (re, im, d): Gaussian-integer coefficients over one integer,
    im None when p is real."""
    return p._re, p._im if any(p._im) else None, p._d


def _canon(x: tuple) -> CPoly:
    """The polynomial of a raw numerator."""
    return CPoly._canon(*_gaussian(x[0], x[1]), x[2])


def _nonzero(x: tuple) -> bool:
    return any(x[0]) or x[1] is not None and any(x[1])


def _degree(x: tuple) -> int:
    """The degree of the polynomial of a raw numerator, -1 for zero."""
    re, im, _ = x
    k = len(re)
    while k and not re[k - 1] and not (im and im[k - 1]):
        k -= 1
    return k - 1


class _Base:
    """Rational functions N/prod(B_i^e_i) held as (N, e) over a coprime
    base B of their denominators, N a raw (re, im, d) numerator, a
    Gaussian-integer numerator over one integer whose im is None while it
    is real, that no product, derivative or sum canonicalizes; `total`
    canonicalizes and reduces once.  Caches last for one operation."""

    def __init__(self, dens):
        self.factors, self._exps = _coprime_base(dens)
        self._derivs = [b.deriv() for b in self.factors]
        self._roots = [-b.coeffs[0] if b.degree == 1 else None
                       for b in self.factors]
        self._powers = {(0,) * len(self.factors): _raw(CPoly.ONE)}
        self._rads: dict[tuple, tuple] = {}

    def over(self, r: RatFunc) -> tuple[tuple, tuple]:
        return _raw(r.num), self._exps[r.den]

    def power(self, e: tuple) -> tuple:
        """prod(B_i^e_i) as a raw numerator."""
        p = self._powers.get(e)
        if p is None:
            # one product by a base factor from a power already built
            i = next(i for i, k in enumerate(e) if k)
            p = self._powers[e] = _rmul(_raw(self.factors[i]), self.power(
                e[:i] + (e[i] - 1,) + e[i + 1:]))
        return p

    def deriv(self, term: tuple) -> tuple:
        """With P = prod(B_i^e_i) and R the product of the B_i with e_i > 0,
        (N/P)' = (N'R - N*sum(e_i B_i' R/B_i)) / (P R)."""
        (re, im, d), e = term
        dre = [k * x for k, x in enumerate(re)][1:]
        dim = None if im is None else [k * y for k, y in enumerate(im)][1:]
        if not (re and any(e)):
            return (dre, dim, d), e
        rad = self._rads.get(e)
        if rad is None:
            r, s = CPoly.ONE, CPoly.ZERO
            for i, k in enumerate(e):
                if k:
                    # s = sum(e_j B_j' r/B_j) over the factors so far
                    db = self._derivs[i]
                    s = s * self.factors[i] + r * (db * k if k > 1 else db)
                    r = r * self.factors[i]
            rad = self._rads[e] = (_raw(r), _raw(s))
        r, s = rad
        return (_gsum(_rmul((dre, dim, d), r), _rmul((re, im, d), s), -1),
                tuple(k + (k > 0) for k in e))

    def common(self, terms) -> tuple[list[tuple], tuple]:
        """The raw numerators of (N, e) terms over one denominator
        prod(B_i^E_i), E the elementwise max of the e, and E."""
        top = tuple(map(max, zip(*(e for _, e in terms))))
        return [num if e == top else
                _rmul(num, self.power(tuple(map(int.__sub__, top, e))))
                for num, e in terms], top

    def total(self, sums: dict) -> RatFunc:
        """The sum of the numerators sums[e] over prod(B_i^e_i), each
        lifted to the elementwise max of the e, canonicalized and reduced
        once."""
        if not sums:
            return RatFunc.ZERO
        nums, top = self.common([(num, e) for e, num in sums.items()])
        return self._reduced(_canon(reduce(_gsum, nums)), top)

    def _reduced(self, num: CPoly, top: tuple) -> RatFunc:
        """num / prod(B_i^top_i) in lowest terms.  The B_i are monic,
        square-free and pairwise coprime, so the gcd of num and the product
        is the product of the gcd(num, B_i^top_i): a linear B_i = s - b
        divides num as often as num(b) = 0, an integer Horner sum, and for
        any other B_i the chain g_1 = gcd(num, B_i),
        g_(j+1) = gcd(num/(g_1...g_j), g_j) collects it in at most top_i
        steps."""
        if not num:
            return RatFunc.ZERO
        e, rest = list(top), CPoly.ONE
        for i, k in enumerate(top):
            if not k:
                continue
            b, root = self.factors[i], self._roots[i]
            if root is not None:
                while e[i] and _scaled_value(num, root) == (0, 0):
                    num, e[i] = num // b, e[i] - 1
                continue
            part, g = CPoly.ONE, b
            for _ in range(k):
                g = poly_gcd(num, g)
                if not g.degree:
                    break
                num, part = num // g, part * g
            if part.degree:
                e[i], rest = 0, rest * (b ** k // part)
        den = _canon(self.power(tuple(e)))
        return RatFunc._from_reduced(num, den * rest)


def _add(e: tuple, f: tuple) -> tuple:
    return tuple(map(int.__add__, e, f))


def _accumulate(sums: dict, e: tuple, num: tuple) -> None:
    """Add num over prod(B_i^e_i) into sums[e]."""
    sums[e] = _gsum(sums[e], num) if e in sums else num


def apply(op: WeylOp, r: RatFunc) -> RatFunc:
    """Act on a rational function: sum of r_k times the k-th d/ds of r."""
    base = _Base([c.den for c in op.coeffs] + [r.den])
    sums: dict[tuple, tuple] = {}
    dn, de = base.over(r)   # the k-th derivative of r
    for k, c in enumerate(op.coeffs):
        if c and _nonzero(dn):
            num, e = base.over(c)
            _accumulate(sums, _add(e, de), _rmul(num, dn))
        if k < op.order:
            dn, de = base.deriv((dn, de))
    return base.total(sums)


def mul_ops(a: WeylOp, b: WeylOp) -> WeylOp:
    """Noncommutative composition: (d/ds)^k r = sum_l C(k,l) r^(l) (d/ds)^(k-l)
    puts r_k * C(k,l) * b_j^(l) on (d/ds)^(k-l+j)."""
    base = _Base([c.den for c in a.coeffs + b.coeffs])
    derivs = [[base.over(c) for c in b.coeffs]]   # derivs[l][j]: b_j^(l)
    while len(derivs) <= a.order:
        derivs.append([base.deriv(d) for d in derivs[-1]])
    sums = [{} for _ in range(a.order + b.order + 1)]   # by output order
    for k, ak in enumerate(a.coeffs):
        if not ak:
            continue
        (re, im, d), e = base.over(ak)
        for l in range(k + 1):
            scaled = (*_gmul(re, im, math.comb(k, l), 0), d)
            for j, (dn, de) in enumerate(derivs[l]):
                if _nonzero(dn):
                    _accumulate(sums[k - l + j], _add(e, de),
                                _rmul(scaled, dn))
    return WeylOp(tuple(map(base.total, sums)))


def _sum_of_squares(w: Fraction) -> CPoly:
    """s^2 + w^2, which is monic and, for w = p/q in lowest terms, has the
    canonical form (p^2 + q^2 s^2)/q^2."""
    p, q = w.numerator, w.denominator
    return CPoly._make((p * p, 0, q * q), (0, 0, 0), q * q)


def catalog_equation(e: SignalExpr) -> OdeSystem:
    """Defining operational equation of a (possibly scaled) catalog atom.

    Every value is built in its canonical form: the right-hand sides of
    sinc and rcos are coprime over the monic s^2 + w^2, but for rcos(0),
    whose s/s^2 reduces to 1/s."""
    scale, atom = split_scale(e)
    if isinstance(atom, Sinc):
        w = atom.omega
        c = scale * Qi._make(-w.numerator, 0, w.denominator)
        rhs = RatFunc._from_reduced(CPoly.scalar(c), _sum_of_squares(w))
        return OdeSystem(WeylOp.D, rhs)
    if isinstance(atom, RaisedCos):
        w = atom.omega
        op = WeylOp((RatFunc.ONE, RatFunc.ZERO, RatFunc.ONE))
        num = CPoly._make((0, scale._a), (0, scale._b), scale._d)
        den = _sum_of_squares(w)
        rhs = RatFunc._from_reduced(num, den) if w else RatFunc(num, den)
        return OdeSystem(op, rhs)
    if isinstance(atom, Delay):
        op = WeylOp((RatFunc(Qi(atom.lag)), RatFunc.ONE))
        return OdeSystem(op, RatFunc.ZERO)
    if isinstance(atom, Chirp):
        r0 = RatFunc(CPoly([Qi(0, -atom.b), _QI_ONE]))
        r1 = RatFunc(Qi(0, 2 * atom.a))
        rhs = RatFunc._from_reduced(
            CPoly.scalar(_unit_phase(atom.c) * scale), CPoly.ONE)
        return OdeSystem(WeylOp((r0, r1)), rhs)
    raise ExpressionError("expression has no catalog equation")


# ---------------------------------------------------------------------------
# Singularity analysis


def _normalized(sys: OdeSystem) -> tuple[list[RatFunc], RatFunc]:
    """The coefficients r_k/r_n for k < n, and rhs/r_n: as they are when
    r_n is 1, each numerator scaled by 1/r_n when r_n is a constant."""
    *cs, rn = sys.op.coeffs
    if rn == RatFunc.ONE:
        return cs, sys.rhs
    if rn.is_polynomial and rn.num.degree == 0:
        q = 1 / rn.num.coeffs[0]
        *qs, g = [RatFunc._from_reduced(r.num * q, r.den)
                  for r in (*cs, sys.rhs)]
        return qs, g
    return [c / rn for c in cs], sys.rhs / rn


def _classify(qs: Sequence, orders: list[int]) -> SingularPoint | None:
    """Fuchs classification from the pole orders at one point of qs, then of
    g, located at infinity (a finite caller sets it); None if ordinary.
    Of qs only their number and whether qs[0] is zero are read, so any
    common nonzero multiple of them serves."""
    n = len(qs)
    *orders_q, order_g = orders
    if not any(orders):
        return None   # ordinary point: every normalized coefficient analytic
    regular = all(o <= n - k for k, o in enumerate(orders_q))
    kind = "regular" if regular else "irregular"
    if n == 1 and qs[0].is_zero:
        # quadrature x' = g: a simple pole integrates to a logarithm, higher
        # orders to a pole one order lower (possibly with a log part)
        if order_g == 1:
            return SingularPoint(None, kind, "logarithmic")
        if order_g >= 2:
            return SingularPoint(None, kind, "pole", order_g - 1)
    return SingularPoint(None, kind, "unclassified")


def _pole_orders(rs: list[RatFunc]) -> list[tuple[CPoly, list[int]]]:
    """The factors of a coprime base of the denominators of rs, each with
    the pole order of every r at its roots: the exponents over the base."""
    base, exps = _coprime_base(r.den for r in rs)
    return [(b, [exps[r.den][i] for r in rs]) for i, b in enumerate(base)]


def finite_singularities(sys: OdeSystem) -> list[SingularPoint]:
    """Classified finite singular points of the defining equation.

    Candidates are the roots of the denominators of r_k/r_n and rhs/r_n.
    Each factor of their coprime base is classified once: regular iff the
    pole order of r_k/r_n stays within n-k (Fuchs criterion; a rational
    right-hand side is always compatible).  Float roots snap to an axis.
    """
    qs, g = _normalized(sys)
    return [SingularPoint(_reported(z, exact), p.kind, p.refinement, p.order,
                          exact)
            for z, exact, p in _root_points(
                (b, _classify(qs, orders))
                for b, orders in _pole_orders(qs + [g]))]


def singularity_at_infinity(sys: OdeSystem) -> SingularPoint | None:
    """Fuchs classification of s = infinity, None if ordinary.

    With q_k = r_k/r_n (q_n = 1) and g = rhs/r_n, the chart z = 1/s, where
    (-z^2 d/dz)^k = (-1)^k sum_j L(k,j) z^(k+j) (d/dz)^j with the Lah numbers
    L(k,j) = C(k-1, j-1) k!/j!, L(0,0) = 1 and L(k,0) = 0 for k >= 1
    (Comtet, Advanced Combinatorics, 1974), has the normalized coefficients

        Q_j(1/s) = sum_{k=j..n} (-1)^(n-k) L(k,j) s^(2n-k-j) q_k(s),
        G(1/s) = (-1)^n s^(2n) g(s),

    read here in s.  The pole order of f(z) at z = 0 is the degree excess
    of f(1/s), so the Fuchs test at infinity (Ince, Ordinary Differential
    Equations, 1926) is a test on degrees.  Over a common denominator M of
    the r_k, from their coprime base, q_k = p_k/p_n for the polynomials
    p_k = r_k M, so each Q_j is a polynomial sum over p_n: no quotient
    needs reducing, as a common factor lowers both degrees alike, and only
    the degrees of the raw sums are read, with no canonical form.
    """
    n = sys.op.order
    base = _Base([r.den for r in sys.op.coeffs])
    ps, top = base.common([base.over(r) for r in sys.op.coeffs])
    pn = _degree(ps[n])
    m_degree = sum(k * b.degree for k, b in zip(top, base.factors))
    orders = []   # the degree excess of Q_j, from Q_j p_n summed raw
    for j in range(n):
        terms = []
        for k in range(j, n + 1):
            c = (-1) ** (n - k) * _lah(k, j)
            re, im, d = ps[k]
            if c and re:
                pad = [0] * (2 * n - k - j)
                terms.append((pad + [x * c for x in re],
                              None if im is None else
                              pad + [y * c for y in im], d))
        orders.append(max(0, _degree(reduce(_gsum, terms)) - pn)
                      if terms else 0)
    g = sys.rhs   # deg G = 2n + deg g - deg r_n
    orders.append(max(0, 2 * n + g.num.degree - g.den.degree
                      - (pn - m_degree)) if g else 0)
    # r_k = q_k r_n: a common nonzero multiple of the q_k, k < n
    return _classify(sys.op.coeffs[:n], orders)


def _lah(k: int, j: int) -> int:
    """The Lah number L(k, j), with L(0, 0) = 1 and L(k, 0) = 0 for k > 0."""
    if j == 0:
        return int(k == 0)
    return math.comb(k - 1, j - 1) * math.factorial(k) // math.factorial(j)


def _chirp_like(sys: OdeSystem, finite: Sequence[SingularPoint],
                infinity: SingularPoint | None) -> bool:
    """Whether infinity is irregular, there is no finite point, and some
    r_k/r_n, k < n, has positive degree.  With no finite point every r_k/r_n
    is a polynomial, as a factor of its denominator would give one, so its
    degree is deg r_k - deg r_n, for deg r = deg num - deg den."""
    if finite or infinity is None or infinity.kind != "irregular":
        return False
    *cs, rn = sys.op.coeffs
    top = rn.num.degree - rn.den.degree
    return any(c.num and c.num.degree - c.den.degree > top for c in cs)


def spectrum_of_points(sys: OdeSystem, finite: Sequence[SingularPoint],
                       infinity: SingularPoint | None) -> Spectrum:
    """Spectrum of a system from its classified singular points: finite
    must be `finite_singularities(sys)` and infinity
    `singularity_at_infinity(sys)`, as `spectrum_of_ode` and
    `pipeline.analyze` pass them.

    Frequencies are the distinct nonzero imaginary parts of the finite
    points, merged at FREQ_TOL for float points.  The infinity flag is
    raised for one pattern, on catalog and hand-built systems alike: an
    irregular point at infinity, no finite point, and a normalized
    coefficient r_k/r_n of positive degree, read off the operator's own
    degrees as deg r_k > deg r_n.  Of the catalog families only the chirp
    has it: sinc and rcos have finite points, and a delay's normalized
    coefficient is constant.
    """
    return _spectrum([(p.location, p.exact, "none", 0)
                      if p.refinement == "unclassified" else
                      (p.location, p.exact, p.refinement, p.order)
                      for p in finite], _chirp_like(sys, finite, infinity))


def spectrum_of_ode(sys: OdeSystem) -> Spectrum:
    """Frequencies = nonzero imaginary parts of finite singular points
    (`spectrum_of_points` over both classification passes)."""
    return spectrum_of_points(sys, finite_singularities(sys),
                              singularity_at_infinity(sys))


# ---------------------------------------------------------------------------
# Display


def _coeff_text(r: RatFunc) -> str:
    """A constant as it prints, bare or already wrapped; anything else
    wrapped when its text holds a space or a fraction bar."""
    txt = r.format()
    if r.is_polynomial and r.num.degree <= 0:
        return txt
    return f"({txt})" if " " in txt or "/" in txt else txt


def format_weylop(op: WeylOp) -> str:
    if op.is_zero:
        return "0"
    parts = []
    for k in range(op.order, -1, -1):
        c = op.coeffs[k]
        if c.is_zero:
            continue
        if k == 0:
            parts.append(_coeff_text(c))
            continue
        dtxt = "d/ds" if k == 1 else f"(d/ds)^{k}"
        if c == RatFunc.ONE:
            parts.append(dtxt)
        else:
            parts.append(f"{_coeff_text(c)}*{dtxt}")
    return " + ".join(parts)


def format_equation(sys: OdeSystem) -> str:
    return f"[{format_weylop(sys.op)}] x = {sys.rhs.format()}"
