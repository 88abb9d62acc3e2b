"""Differential operators over C(s) and singularity-based spectra.

Signals outside the exponential-polynomial class have no rational image,
but each catalog atom satisfies a linear operational equation L x = rhs
with L in the noncommutative ring C(s)[d/ds].  Frequencies are then the
nonzero imaginary parts of the singular points of the equation's solution:
candidates are the poles of the normalized coefficients r_k/r_n and rhs/r_n,
each factor of a coprime base of their denominators is classified once by
the Fuchs criterion, and infinity from the degrees of the same coefficients,
scaled by powers of s and Lah numbers.  Operator products and actions
collect the terms of each coefficient and sum them over one denominator.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .ratfield import (CPoly, Qi, RatFunc, SingularitySource, Spectrum,
                       _location_key, clean_frequencies, poly_gcd, snap_axes,
                       square_free_factors, square_free_roots)
from .sigexpr import (Chirp, Delay, RaisedCos, Sinc, SignalClass, SignalExpr,
                      ExpressionError, classify, split_scale)

__all__ = [
    "WeylOp", "OdeSystem", "SingularPoint", "apply", "mul_ops",
    "catalog_equation", "finite_singularities", "singularity_at_infinity",
    "spectrum_of_points", "spectrum_of_ode", "format_weylop",
    "format_equation",
]


@dataclass(frozen=True)
class WeylOp:
    """Operator sum(r_k * (d/ds)^k) with rational coefficients.

    coeffs[k] is the coefficient of the k-th derivative; trailing zeros are
    stripped, so order == len(coeffs) - 1 and the leading coefficient of a
    nonzero operator is nonzero.
    """

    coeffs: tuple = (RatFunc.ZERO,)

    def __post_init__(self):
        cs = [c if isinstance(c, RatFunc) else RatFunc(c)
              for c in self.coeffs]
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


@dataclass(frozen=True)
class OdeSystem:
    """Defining equation op x = rhs with op of positive order."""

    op: WeylOp
    rhs: RatFunc

    def __post_init__(self):
        if self.op.order < 1:
            raise ValueError("defining operator must have order >= 1")


@dataclass(frozen=True)
class SingularPoint:
    """Classified singular point; location None encodes the point at
    infinity."""

    location: complex | None
    kind: str           # "regular" | "irregular"
    refinement: str     # "logarithmic" | "pole" | "unclassified"
    order: int = 0      # pole order of the solution when refinement is "pole"
    exact: Qi | None = None   # the location when it lies in Q(i)

    @property
    def is_infinite(self) -> bool:
        return self.location is None

    @property
    def label(self) -> str:
        """Display form of the refinement: "pole(m)" for a pole."""
        if self.refinement == "pole":
            return f"pole({self.order})"
        return self.refinement


def _lcm(polys) -> CPoly:
    """Monic least common multiple of monic polynomials."""
    acc = CPoly.ONE
    # largest first: the later ones then mostly divide acc, a cheap gcd
    for p in sorted(set(polys), key=lambda p: -p.degree):
        if p.degree > 0:
            acc = acc * (p // poly_gcd(acc, p))
    return acc


def _sum(terms) -> RatFunc:
    """Sum of rational functions over the lcm of their denominators,
    reduced once."""
    terms = [t for t in terms if not t.is_zero]
    if len(terms) == 1:
        return terms[0]
    m = _lcm(t.den for t in terms)
    num = CPoly.ZERO
    for t in terms:
        num = num + t.num * (m // t.den)
    return RatFunc(num, m)


def _scaled(r: RatFunc, c, shift: int = 0) -> RatFunc:
    """c * s^shift * r for a nonzero scalar c, reduced.  Only a factor s
    shared with the denominator can cancel, so the gcd runs only when
    shift > 0 and den(0) = 0."""
    num = r.num * CPoly((0,) * shift + (c,))
    if shift and not (r.den._re[0] or r.den._im[0]):
        return RatFunc(num, r.den)
    return RatFunc._from_reduced(num, r.den)


def apply(op: WeylOp, r: RatFunc) -> RatFunc:
    """Act on a rational function: sum of r_k times the k-th d/ds of r."""
    terms = []
    d = r
    for k, c in enumerate(op.coeffs):
        if not c.is_zero:
            terms.append(c * d)
        if k < op.order:
            d = d.deriv()
    return _sum(terms)


def mul_ops(a: WeylOp, b: WeylOp) -> WeylOp:
    """Noncommutative composition: (d/ds)^k r = sum_l C(k,l) r^(l) (d/ds)^(k-l)
    puts r_k * C(k,l) * b_j^(l) on (d/ds)^(k-l+j)."""
    derivs = [b.coeffs]   # derivs[l][j]: the l-th derivative of b_j
    while len(derivs) <= a.order:
        derivs.append(tuple(d.deriv() for d in derivs[-1]))
    terms: dict[int, list[RatFunc]] = {}
    for k, ak in enumerate(a.coeffs):
        for l in range(k + 1):
            for j, d in enumerate(derivs[l]):
                if not (ak.is_zero or d.is_zero):
                    terms.setdefault(k - l + j, []).append(
                        _scaled(ak * d, math.comb(k, l)))
    order = max(terms, default=0)
    return WeylOp(tuple(_sum(terms.get(k, ())) for k in range(order + 1)))


def catalog_equation(e: SignalExpr) -> OdeSystem:
    """Defining operational equation of a (possibly scaled) catalog atom."""
    if classify(e) != SignalClass.ODE_DEFINED:
        raise ExpressionError("expression has no catalog equation")
    scale, atom = split_scale(e)
    scale_rf = RatFunc(scale)
    if isinstance(atom, Sinc):
        w = atom.omega
        den = CPoly([Qi(w * w), Qi(0), Qi(1)])
        rhs = RatFunc(CPoly([Qi(-w)]), den) * scale_rf
        return OdeSystem(WeylOp.D, rhs)
    if isinstance(atom, RaisedCos):
        w = atom.omega
        op = WeylOp((RatFunc.ONE, RatFunc.ZERO, RatFunc.ONE))
        den = CPoly([Qi(w * w), Qi(0), Qi(1)])
        rhs = RatFunc(CPoly.S, den) * scale_rf
        return OdeSystem(op, rhs)
    if isinstance(atom, Delay):
        op = WeylOp((RatFunc(Qi(atom.lag)), RatFunc.ONE))
        return OdeSystem(op, RatFunc.ZERO)
    if isinstance(atom, Chirp):
        r0 = RatFunc(CPoly([Qi(0, -atom.b), Qi(1)]))
        r1 = RatFunc(Qi(0, 2 * atom.a))
        f = float(atom.c)
        if atom.c == 0:
            rhs_scalar = Qi(1)
        else:
            rhs_scalar = Qi.coerce(complex(math.cos(f), math.sin(f)))
        rhs = RatFunc(rhs_scalar) * scale_rf
        return OdeSystem(WeylOp((r0, r1)), rhs)
    raise ExpressionError("expression has no catalog equation")


# ---------------------------------------------------------------------------
# Singularity analysis


def _normalized(sys: OdeSystem) -> tuple[list[RatFunc], RatFunc]:
    """The coefficients r_k/r_n for k < n, and rhs/r_n."""
    rn = sys.op.coeffs[sys.op.order]
    return [c / rn for c in sys.op.coeffs[:-1]], sys.rhs / rn


def _classify(qs: list[RatFunc], orders: list[int]) -> SingularPoint | None:
    """Fuchs classification from the pole orders at one point of qs, then of
    g, located at infinity (a finite caller sets it); None if ordinary."""
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
    the pole order of every r at its roots.  Refining the square-free
    factors (Bach, Driscoll and Shallit, J. Algorithms 15, 1993) replaces a
    base factor b and a factor f by g = gcd(b, f), b/g and f/g, pairwise
    coprime for square-free inputs; a base factor then divides at most one
    square-free factor of a denominator, whose multiplicity is the order."""
    factors = {d: square_free_factors(d)
               for d in dict.fromkeys(r.den for r in rs)}
    base: list[CPoly] = []
    for f in (f for fs in factors.values() for f, _ in fs):
        refined = []
        for b in base:
            g = b if b == f else poly_gcd(b, f)
            if g.degree > 0:
                f = f // g
                refined += [h for h in (g, b // g) if h.degree > 0]
            else:
                refined.append(b)
        base = refined + [f] if f.degree > 0 else refined
    return [(b, [next((m for f, m in factors[r.den] if not f % b), 0)
                 for r in rs]) for b in base]


def finite_singularities(sys: OdeSystem) -> list[SingularPoint]:
    """Classified finite singular points of the defining equation.

    Candidates are the roots of the denominators of r_k/r_n and rhs/r_n.
    Each factor of their coprime base is classified once: regular iff the
    pole order of r_k/r_n stays within n-k (Fuchs criterion; a rational
    right-hand side is always compatible).  Float roots snap to an axis.
    """
    qs, g = _normalized(sys)
    found = []
    for b, orders in _pole_orders(qs + [g]):
        point = _classify(qs, orders)
        for z, exact in square_free_roots(b):
            loc = z if exact is not None else snap_axes(z)
            found.append((z, replace(point, location=loc, exact=exact)))
    return [p for _, p in sorted(found, key=lambda zp: _location_key(zp[0]))]


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
    Equations, 1926) is a test on degrees.
    """
    n = sys.op.order
    qs, g = _normalized(sys)
    qs.append(RatFunc.ONE)
    chart = [_scaled(qs[0], (-1) ** n, 2 * n)] + [_sum(
        _scaled(qs[k], (-1) ** (n - k) * math.comb(k - 1, j - 1)
                * math.factorial(k) // math.factorial(j), 2 * n - k - j)
        for k in range(j, n + 1))
        for j in range(1, n)]
    return _classify(chart, [max(0, r.num.degree - r.den.degree)
                             for r in chart + [_scaled(g, (-1) ** n, 2 * n)]])


def _chirp_like(sys: OdeSystem, finite: Sequence[SingularPoint],
                infinity: SingularPoint | None) -> bool:
    if finite or infinity is None or infinity.kind != "irregular":
        return False
    qs = _normalized(sys)[0]
    return (all(q.is_polynomial for q in qs)
            and max(q.num.degree for q in qs) >= 1)


def _source_of(point: SingularPoint) -> SingularitySource:
    if point.refinement == "unclassified":
        return SingularitySource(point.location, "none", 0)
    return SingularitySource(point.location, point.refinement, point.order)


def spectrum_of_points(sys: OdeSystem, finite: Sequence[SingularPoint],
                       infinity: SingularPoint | None) -> Spectrum:
    """Spectrum of a system from its classified singular points.

    Frequencies are the distinct nonzero imaginary parts of the finite
    points, merged at FREQ_TOL for float points.  The infinity flag is
    raised for one pattern, on catalog and hand-built systems alike: an
    irregular point at infinity, no finite point, and polynomial normalized
    coefficients of positive degree.  Of the catalog families only the
    chirp has it: sinc and rcos have finite points, and a delay's
    normalized coefficient is constant.
    """
    flag = _chirp_like(sys, finite, infinity)
    sources = tuple(_source_of(p) for p in finite)
    exact = {p.location.imag for p in finite if p.exact is not None}
    freqs = tuple(sorted((exact - {0.0}).union(clean_frequencies(
        p.location.imag for p in finite if p.exact is None))))
    return Spectrum(freqs, sources, infinite_singularity=flag)


def spectrum_of_ode(sys: OdeSystem) -> Spectrum:
    """Frequencies = nonzero imaginary parts of finite singular points
    (`spectrum_of_points` over both classification passes)."""
    return spectrum_of_points(sys, finite_singularities(sys),
                              singularity_at_infinity(sys))


# ---------------------------------------------------------------------------
# Display


def _fully_wrapped(txt: str) -> bool:
    if not (txt.startswith("(") and txt.endswith(")")):
        return False
    depth = 0
    for pos, ch in enumerate(txt):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return pos == len(txt) - 1
    return False


def _coeff_text(r: RatFunc, var: str = "s") -> str:
    txt = r.format(var)
    if (" " in txt or "/" in txt) and not _fully_wrapped(txt):
        return f"({txt})"
    return txt


def format_weylop(op: WeylOp, var: str = "s") -> str:
    if op.is_zero:
        return "0"
    parts = []
    for k in range(op.order, -1, -1):
        c = op.coeffs[k]
        if c.is_zero:
            continue
        if k == 0:
            parts.append(_coeff_text(c, var))
            continue
        dtxt = f"d/d{var}" if k == 1 else f"(d/d{var})^{k}"
        if c == RatFunc.ONE:
            parts.append(dtxt)
        else:
            parts.append(f"{_coeff_text(c, var)}*{dtxt}")
    return " + ".join(parts)


def format_equation(sys: OdeSystem, var: str = "s") -> str:
    return f"[{format_weylop(sys.op, var)}] x = {sys.rhs.format(var)}"
