"""Differential operators over C(s) and singularity-based spectra.

Signals outside the exponential-polynomial class have no rational image,
but each catalog atom satisfies a linear operational equation L x = rhs
with L in the noncommutative ring C(s)[d/ds].  Frequencies are then the
nonzero imaginary parts of the singular points of the equation's solution:
candidates come from the zeros of the cleared leading coefficient, each is
classified by the Fuchs criterion, and the point at infinity is examined
through the substitution s = 1/z, d/ds = -z^2 d/dz.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from .ratfield import (CPoly, Qi, RatFunc, SingularitySource, Spectrum,
                       clean_frequencies, poly_gcd, poly_roots, snap_axes,
                       square_free_factors)
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
    family: str | None = None   # catalog tag: sinc, rcos, delay, chirp

    def __post_init__(self):
        if self.op.order < 1:
            raise ValueError("defining operator must have order >= 1")


@dataclass(frozen=True)
class SingularPoint:
    """Classified singular point; location None encodes the point at
    infinity (reached through the z = 1/s chart)."""

    location: complex | None
    kind: str           # "regular" | "irregular"
    refinement: str     # "logarithmic" | "pole" | "unclassified"
    order: int = 0      # pole order of the solution when refinement is "pole"

    @property
    def is_infinite(self) -> bool:
        return self.location is None

    @property
    def label(self) -> str:
        """Display form of the refinement: "pole(m)" for a pole."""
        if self.refinement == "pole":
            return f"pole({self.order})"
        return self.refinement


def apply(op: WeylOp, r: RatFunc) -> RatFunc:
    """Act on a rational function: sum of r_k times the k-th d/ds of r."""
    acc = RatFunc.ZERO
    d = r
    for k, c in enumerate(op.coeffs):
        if not c.is_zero:
            acc = acc + c * d
        if k < op.order:
            d = d.deriv()
    return acc


def mul_ops(a: WeylOp, b: WeylOp) -> WeylOp:
    """Noncommutative composition, using (d/ds) r = r (d/ds) + r'."""
    out: dict[int, RatFunc] = {}
    for k, ak in enumerate(a.coeffs):
        if ak.is_zero:
            continue
        for j, bj in enumerate(b.coeffs):
            if bj.is_zero:
                continue
            d = bj
            for l in range(k + 1):
                if not d.is_zero:
                    idx = k - l + j
                    term = ak * Qi(math.comb(k, l)) * d
                    out[idx] = out.get(idx, RatFunc.ZERO) + term
                if l < k:
                    d = d.deriv()
    if not out:
        return WeylOp((RatFunc.ZERO,))
    coeffs = [out.get(k, RatFunc.ZERO) for k in range(max(out) + 1)]
    return WeylOp(tuple(coeffs))


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
        return OdeSystem(WeylOp.D, rhs, family="sinc")
    if isinstance(atom, RaisedCos):
        w = atom.omega
        op = WeylOp((RatFunc.ONE, RatFunc.ZERO, RatFunc.ONE))
        den = CPoly([Qi(w * w), Qi(0), Qi(1)])
        rhs = RatFunc(CPoly.S, den) * scale_rf
        return OdeSystem(op, rhs, family="rcos")
    if isinstance(atom, Delay):
        op = WeylOp((RatFunc(Qi(atom.lag)), RatFunc.ONE))
        return OdeSystem(op, RatFunc.ZERO, family="delay")
    if isinstance(atom, Chirp):
        r0 = RatFunc(CPoly([Qi(0, -atom.b), Qi(1)]))
        r1 = RatFunc(Qi(0, 2 * atom.a))
        f = float(atom.c)
        if atom.c == 0:
            rhs_scalar = Qi(1)
        else:
            rhs_scalar = Qi.coerce(complex(math.cos(f), math.sin(f)))
        rhs = RatFunc(rhs_scalar) * scale_rf
        return OdeSystem(WeylOp((r0, r1)), rhs, family="chirp")
    raise ExpressionError("expression has no catalog equation")


# ---------------------------------------------------------------------------
# Singularity analysis


def _den_lcm(parts: list[RatFunc]) -> CPoly:
    acc = CPoly.ONE
    for r in parts:
        g = poly_gcd(acc, r.den)
        acc = (acc * r.den) // g
    return acc


def _cleared_leading(sys: OdeSystem) -> CPoly:
    m = _den_lcm(list(sys.op.coeffs) + [sys.rhs])
    lead = sys.op.coeffs[sys.op.order] * RatFunc(m)
    return lead.num   # the product clears to a polynomial


def _pole_order_near(r: RatFunc, p: complex) -> int:
    """Multiplicity of p as a pole of r, matching float roots of the exact
    square-free structure of the denominator."""
    if r.is_zero or r.is_polynomial:
        return 0
    for factor, mult in square_free_factors(r.den):
        tol = 1e-6 * max(1.0, abs(p)) ** factor.degree
        if abs(factor(p)) <= tol:
            return mult
    return 0


def _pole_order_at_zero(r: RatFunc) -> int:
    """Exact multiplicity of 0 as a pole of r (reduced form)."""
    if r.is_zero:
        return 0
    k = 0
    for c in r.den.coeffs:
        if c:
            break
        k += 1
    return k


def _classify_candidate(location: complex | None, n: int,
                        orders_q: list[int], order_g: int,
                        quadrature: bool) -> SingularPoint | None:
    if not any(orders_q) and order_g == 0:
        return None   # ordinary point: every normalized coefficient analytic
    regular = all(o <= n - k for k, o in enumerate(orders_q))
    kind = "regular" if regular else "irregular"
    if quadrature:
        # x' = g: a simple pole integrates to a logarithm, higher orders to
        # a pole one order lower (possibly with a log part)
        if order_g == 1:
            return SingularPoint(location, kind, "logarithmic")
        if order_g >= 2:
            return SingularPoint(location, kind, "pole", order_g - 1)
    return SingularPoint(location, kind, "unclassified")


def finite_singularities(sys: OdeSystem) -> list[SingularPoint]:
    """Classified finite singular points of the defining equation.

    Candidates are the roots of the cleared leading coefficient; each is
    kept only if some normalized coefficient r_k/r_n or rhs/r_n actually has
    a pole there, and classified regular iff the pole order of r_k/r_n stays
    within n-k (Fuchs criterion; a rational right-hand side is always
    compatible).
    """
    n = sys.op.order
    rn = sys.op.coeffs[n]
    qs = [sys.op.coeffs[k] / rn for k in range(n)]
    g = sys.rhs / rn
    quadrature = n == 1 and qs[0].is_zero
    out = []
    for cand in poly_roots(_cleared_leading(sys)):
        p = cand.location
        orders_q = [_pole_order_near(q, p) for q in qs]
        order_g = _pole_order_near(g, p)
        point = _classify_candidate(snap_axes(p), n, orders_q, order_g,
                                    quadrature)
        if point is not None:
            out.append(point)
    return out


_MINUS_Z2 = RatFunc(CPoly([0, 0, -1]))


def transform_to_infinity(sys: OdeSystem) -> OdeSystem:
    """Rewrite the system in the chart z = 1/s, where d/ds = -z^2 d/dz."""
    w = WeylOp((RatFunc.ZERO, _MINUS_Z2))
    acc = WeylOp((RatFunc.ZERO,))
    wk = WeylOp.IDENTITY
    for k, rk in enumerate(sys.op.coeffs):
        if not rk.is_zero:
            acc = acc + mul_ops(WeylOp((rk.subst_reciprocal(),)), wk)
        if k < sys.op.order:
            wk = mul_ops(w, wk)
    return OdeSystem(acc, sys.rhs.subst_reciprocal(), family=sys.family)


def singularity_at_infinity(sys: OdeSystem) -> SingularPoint | None:
    """Classification of z = 0 in the reciprocal chart, None if ordinary."""
    tsys = transform_to_infinity(sys)
    n = tsys.op.order
    lead = _cleared_leading(tsys)
    if lead.coeffs and lead.coeffs[0]:
        return None   # leading coefficient does not vanish at z = 0
    rn = tsys.op.coeffs[n]
    qs = [tsys.op.coeffs[k] / rn for k in range(n)]
    g = tsys.rhs / rn
    orders_q = [_pole_order_at_zero(q) for q in qs]
    order_g = _pole_order_at_zero(g)
    quadrature = n == 1 and qs[0].is_zero
    return _classify_candidate(None, n, orders_q, order_g, quadrature)


def _chirp_like(sys: OdeSystem, finite: Sequence[SingularPoint],
                infinity: SingularPoint | None) -> bool:
    # untagged systems: flag the infinite singularity only for the pattern
    # the catalog associates with it: an irregular point at infinity, no
    # finite singularities, and polynomial normalized coefficients of
    # positive degree (a delay-style constant coefficient stays unflagged)
    if finite or infinity is None or infinity.kind != "irregular":
        return False
    rn = sys.op.coeffs[sys.op.order]
    degrees = []
    for k in range(sys.op.order):
        q = sys.op.coeffs[k] / rn
        if not q.is_polynomial:
            return False
        degrees.append(q.num.degree)
    return bool(degrees) and max(degrees) >= 1


def _source_of(point: SingularPoint) -> SingularitySource:
    if point.refinement == "unclassified":
        return SingularitySource(point.location, "none", 0)
    return SingularitySource(point.location, point.refinement, point.order)


def spectrum_of_points(sys: OdeSystem, finite: Sequence[SingularPoint],
                       infinity: SingularPoint | None) -> Spectrum:
    """Spectrum of a system from its classified singular points.

    Frequencies are the nonzero imaginary parts of the finite points.  The
    infinite-singularity flag is raised for the chirp catalog family; the
    other catalog families keep it off even when the reciprocal chart shows
    an irregular point, matching the scope the catalog gives it.
    """
    if sys.family is not None:
        flag = sys.family == "chirp"
    else:
        flag = _chirp_like(sys, finite, infinity)
    sources = tuple(_source_of(p) for p in finite)
    freqs = clean_frequencies(p.location.imag for p in finite)
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
