"""Signal expression language: parser, canonical AST, symbolic time derivative
and truncated Taylor series.

Signals live on t >= 0 and are written in a small grammar:

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ["-"] atom ("^" uint)?
    atom   := number | "i" | "t" | call | "(" expr ")"
    call   := ident "(" args ")" ,  ident in
              {exp, sin, cos, sinc, rcos, dirac, delay, chirp}

Numbers are decimal literals with optional scientific notation and are kept
exact (no float rounding at parse time).  sin/cos accept a single argument
that is constant or linear in t, or an explicit (omega, phase) pair; exp
takes a constant rate times t, written exp(a*t).  Division is restricted to
divisors that are rational in t; a quotient of two constants is a constant,
and any other quotient folds into a dedicated rational-in-t node so that
differentiating sinc-like signals stays closed.

Parsing produces a canonical tree: sums and products are flattened, scalar
factors are folded and kept leftmost, terms are sorted by a structural key,
and trivial powers collapse.  pretty_print renders a canonical tree back to
a string that reparses to an equal tree.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .ratfield import CPoly, Qi, RatFunc, _int_text

__all__ = [
    "SignalExpr", "Const", "TimeVar", "Add", "Mul", "Pow", "Exp", "Sin",
    "Cos", "Sinc", "RaisedCos", "Dirac", "Delay", "Chirp", "TFrac",
    "SignalClass", "ExpressionError", "SignalSyntaxError", "ParameterError",
    "EvaluationError", "parse", "pretty_print", "canonical", "classify",
    "diff_time", "evaluate", "make_add", "make_mul", "make_pow", "make_div",
    "make_exp", "as_ratfunc_in_t", "split_scale",
]


class ExpressionError(ValueError):
    """Base class for expression-language failures."""


class SignalSyntaxError(ExpressionError):
    """Malformed expression text; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


class ParameterError(ExpressionError):
    """Structurally valid call with an out-of-domain or ill-typed parameter."""


class EvaluationError(ExpressionError):
    """Expression has no pointwise numerical value at the requested point."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float)):
        return Fraction(x)
    if isinstance(x, Qi) and x.is_real:
        return x.re
    raise TypeError(f"expected a real parameter, got {x!r}")


# ---------------------------------------------------------------------------
# AST


class SignalExpr:
    """Marker base for expression nodes; all nodes are immutable values."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(SignalExpr):
    value: Qi

    def __post_init__(self):
        if type(self.value) is not Qi:
            object.__setattr__(self, "value", Qi.coerce(self.value))


@dataclass(frozen=True)
class TimeVar(SignalExpr):
    pass


@dataclass(frozen=True)
class Add(SignalExpr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("empty sum")


@dataclass(frozen=True)
class Mul(SignalExpr):
    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("empty product")


@dataclass(frozen=True)
class Pow(SignalExpr):
    base: SignalExpr
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("negative power")


@dataclass(frozen=True)
class Exp(SignalExpr):
    """e^(rate * t)."""
    rate: Qi

    def __post_init__(self):
        object.__setattr__(self, "rate", Qi.coerce(self.rate))


@dataclass(frozen=True)
class Sin(SignalExpr):
    """sin(omega*t + phase), omega in rad/s, phase in rad."""
    omega: Fraction
    phase: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_fraction(self.omega))
        object.__setattr__(self, "phase", _as_fraction(self.phase))


@dataclass(frozen=True)
class Cos(SignalExpr):
    """cos(omega*t + phase)."""
    omega: Fraction
    phase: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_fraction(self.omega))
        object.__setattr__(self, "phase", _as_fraction(self.phase))


@dataclass(frozen=True)
class Sinc(SignalExpr):
    """sin(omega*t)/t, omega nonzero; value omega at t = 0 by the limit."""
    omega: Fraction

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_fraction(self.omega))
        if self.omega == 0:
            raise ParameterError("sinc frequency must be nonzero")


@dataclass(frozen=True)
class RaisedCos(SignalExpr):
    """cos(omega*t)/(t^2 + 1)."""
    omega: Fraction

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_fraction(self.omega))


@dataclass(frozen=True)
class Dirac(SignalExpr):
    pass


@dataclass(frozen=True)
class Delay(SignalExpr):
    """Shift by lag seconds; lag of either sign (delay or advance)."""
    lag: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lag", _as_fraction(self.lag))


@dataclass(frozen=True)
class Chirp(SignalExpr):
    """exp((a*t^2 + b*t + c) * i), a nonzero."""
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", _as_fraction(self.a))
        object.__setattr__(self, "b", _as_fraction(self.b))
        object.__setattr__(self, "c", _as_fraction(self.c))
        if self.a == 0:
            raise ParameterError("chirp sweep rate must be nonzero")


@dataclass(frozen=True)
class TFrac(SignalExpr):
    """A rational function of t; produced by division and by differentiating
    sinc and raised-cosine atoms."""
    rat: RatFunc


_T_POLY = CPoly([0, 1])
_QI_ZERO, _QI_ONE, _QI_I = Qi(0), Qi(1), Qi(0, 1)


def _rat_key(r: RatFunc):
    return (tuple(c.order_key for c in r.num.coeffs),
            tuple(c.order_key for c in r.den.coeffs))


_KEY_OF = {
    Const: lambda e: (0, e.value.order_key),
    TimeVar: lambda e: (1, ()),
    TFrac: lambda e: (2, _rat_key(e.rat)),
    Exp: lambda e: (3, e.rate.order_key),
    Sin: lambda e: (4, (e.omega, e.phase)),
    Cos: lambda e: (5, (e.omega, e.phase)),
    Sinc: lambda e: (6, (e.omega,)),
    RaisedCos: lambda e: (7, (e.omega,)),
    Dirac: lambda e: (8, ()),
    Delay: lambda e: (9, (e.lag,)),
    Chirp: lambda e: (10, (e.a, e.b, e.c)),
    Pow: lambda e: (11, (_key(e.base), e.k)),
    Mul: lambda e: (12, tuple(map(_key, e.factors))),
    Add: lambda e: (13, tuple(map(_key, e.terms))),
}


def _key(e: SignalExpr):
    """Deterministic structural sort key; total over all node types.

    It is computed once per node and stored on the node, outside its
    fields, so equality, hashing and repr do not see it, and the key of a
    sum or product reads its children's stored keys instead of walking
    them again."""
    of = _KEY_OF.get(type(e))
    if of is None:
        raise TypeError(f"not a signal expression: {e!r}")
    stored = e.__dict__
    k = stored.get("_key")
    if k is None:
        k = stored["_key"] = of(e)
    return k


# ---------------------------------------------------------------------------
# Canonical constructors


def as_ratfunc_in_t(e: SignalExpr) -> RatFunc | None:
    """Read e as an element of C(t) if it is one, else None."""
    if isinstance(e, Const):
        return RatFunc(e.value)
    if isinstance(e, TimeVar):
        return RatFunc(_T_POLY)
    if isinstance(e, TFrac):
        return e.rat
    if isinstance(e, Add):
        acc = RatFunc.ZERO
        for t in e.terms:
            r = as_ratfunc_in_t(t)
            if r is None:
                return None
            acc = acc + r
        return acc
    if isinstance(e, Mul):
        acc = RatFunc.ONE
        for f in e.factors:
            r = as_ratfunc_in_t(f)
            if r is None:
                return None
            acc = acc * r
        return acc
    if isinstance(e, Pow):
        r = as_ratfunc_in_t(e.base)
        return None if r is None else r ** e.k
    return None


def _tfrac(rat: RatFunc) -> SignalExpr:
    """Canonical node for an element of C(t): plain polynomial trees when the
    denominator cancels, a TFrac node otherwise."""
    if rat.is_zero:
        return Const(Qi(0))
    if not rat.is_polynomial:
        return TFrac(rat)
    p = rat.num
    if p.degree == 0:
        return Const(p.coeffs[0])
    terms = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        if k == 0:
            terms.append(Const(c))
            continue
        tpow = TimeVar() if k == 1 else Pow(TimeVar(), k)
        terms.append(tpow if c == Qi(1) else Mul((Const(c), tpow)))
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=_key)
    return Add(tuple(terms))


def make_add(terms) -> SignalExpr:
    const = _QI_ZERO
    rest = []
    for t in terms:
        if isinstance(t, Add):
            for u in t.terms:
                if isinstance(u, Const):
                    const = const + u.value
                else:
                    rest.append(u)
        elif isinstance(t, Const):
            const = const + t.value
        else:
            rest.append(t)
    if const:
        rest.append(Const(const))
    if not rest:
        return Const(_QI_ZERO)
    if len(rest) == 1:
        return rest[0]
    rest.sort(key=_key)
    return Add(tuple(rest))


# The node types a scalar multiplies without flattening or folding.
_ATOMS = frozenset((TimeVar, Pow, Exp, Sin, Cos, Sinc, RaisedCos, Dirac,
                    Delay, Chirp))


def _scaled(c: Qi, x: SignalExpr) -> SignalExpr:
    """c*x for an atom x of a type in _ATOMS."""
    if not c:
        return Const(_QI_ZERO)
    if c == _QI_ONE:
        return x
    return Mul((Const(c), x))


def make_mul(factors) -> SignalExpr:
    if type(factors) is list and len(factors) == 2:
        a, b = factors
        if type(b) is Const:
            a, b = b, a
        if type(a) is Const:
            if type(b) is Const:
                return Const(a.value * b.value)
            if type(b) in _ATOMS:
                return _scaled(a.value, b)
            if (type(b) is Mul and len(b.factors) == 2
                    and type(b.factors[0]) is Const
                    and type(b.factors[1]) in _ATOMS):
                return _scaled(a.value * b.factors[0].value, b.factors[1])
    scalar = _QI_ONE
    rest = []
    fold_rational = False
    for f in factors:
        for g in f.factors if isinstance(f, Mul) else (f,):
            if isinstance(g, Const):
                scalar = g.value if scalar is _QI_ONE else scalar * g.value
            else:
                rest.append(g)
                fold_rational = fold_rational or isinstance(g, TFrac)
    if not scalar:
        return Const(_QI_ZERO)
    # A rational-in-t factor forces every other rational-in-t factor into a
    # single fraction; otherwise the same signal would admit two spellings
    # (t * (1/(t^2+1)) versus t/(t^2+1)).
    if fold_rational:
        rat = RatFunc(scalar)
        others = []
        for f in rest:
            r = as_ratfunc_in_t(f)
            if r is None:
                others.append(f)
            else:
                rat = rat * r
        if rat.is_zero:
            return Const(_QI_ZERO)
        scalar, rest = _QI_ONE, others
        folded = _tfrac(rat)
        if isinstance(folded, Const):
            scalar = folded.value
        elif isinstance(folded, Mul):
            for sub in folded.factors:
                if isinstance(sub, Const):
                    scalar = scalar * sub.value
                else:
                    rest.append(sub)
        else:
            rest.append(folded)
    if not rest:
        return Const(scalar)
    if scalar != _QI_ONE:
        rest.append(Const(scalar))
    if len(rest) == 1:
        return rest[0]
    rest.sort(key=_key)
    return Mul(tuple(rest))


def make_pow(base: SignalExpr, k: int) -> SignalExpr:
    if k < 0:
        raise ParameterError("power exponent must be a nonnegative integer")
    if k == 0:
        return Const(Qi(1))
    if k == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** k)
    if isinstance(base, TFrac):
        return _tfrac(base.rat ** k)
    if isinstance(base, Exp):
        return make_exp(base.rate * Qi(k))
    if isinstance(base, Pow):
        return make_pow(base.base, base.k * k)
    return Pow(base, k)


def make_exp(rate) -> SignalExpr:
    rate = Qi.coerce(rate)
    if not rate:
        return Const(Qi(1))
    return Exp(rate)


def make_div(num: SignalExpr, den: SignalExpr, offset: int = 0) -> SignalExpr:
    q = _quotient(num, den)
    if q is None:
        raise SignalSyntaxError("divisor must be constant or rational in t",
                                offset)
    return q


def _quotient(num: SignalExpr, den: SignalExpr) -> SignalExpr | None:
    """num/den, or None when den is neither constant nor rational in t."""
    if isinstance(den, Const):
        if not den.value:
            raise ParameterError("division by zero")
        if isinstance(num, Const):
            return Const(num.value / den.value)
    dr = as_ratfunc_in_t(den)
    if dr is None:
        return None
    if dr.is_zero:
        raise ParameterError("division by zero")
    nr = as_ratfunc_in_t(num)
    if nr is not None:
        return _tfrac(nr / dr)
    return make_mul([num, _tfrac(RatFunc.ONE / dr)])


def canonical(e: SignalExpr) -> SignalExpr:
    """Normal form: flattened, folded, deterministically ordered."""
    if isinstance(e, Add):
        return make_add([canonical(t) for t in e.terms])
    if isinstance(e, Mul):
        return make_mul([canonical(f) for f in e.factors])
    if isinstance(e, Pow):
        return make_pow(canonical(e.base), e.k)
    if isinstance(e, Exp):
        return make_exp(e.rate)
    if isinstance(e, TFrac):
        return _tfrac(e.rat)
    return e


# ---------------------------------------------------------------------------
# Classification


class SignalClass(Enum):
    EXP_POLYNOMIAL = "exponential-polynomial"
    DIRAC = "dirac"
    ODE_DEFINED = "ode-defined"
    UNSUPPORTED = "unsupported"


_ODE_ATOMS = (Sinc, RaisedCos, Delay, Chirp)


def _is_exppoly(e: SignalExpr) -> bool:
    if isinstance(e, (Const, TimeVar, Exp, Sin, Cos)):
        return True
    if isinstance(e, Add):
        return all(_is_exppoly(t) for t in e.terms)
    if isinstance(e, Mul):
        return all(_is_exppoly(f) for f in e.factors)
    if isinstance(e, Pow):
        return _is_exppoly(e.base)
    return False


def classify(e: SignalExpr) -> SignalClass:
    """Route an expression to its analysis pipeline.

    Exponential polynomials (built from constants, t, sums, products,
    powers, exp, sin, cos) go through the rational-image path; a possibly
    scaled Dirac or catalog atom (sinc, rcos, delay, chirp) has its own
    treatment; everything else is refused rather than guessed.
    """
    if _is_exppoly(e):
        return SignalClass.EXP_POLYNOMIAL
    if isinstance(e, Dirac):
        return SignalClass.DIRAC
    if isinstance(e, _ODE_ATOMS):
        return SignalClass.ODE_DEFINED
    if isinstance(e, Mul):
        others = [f for f in e.factors if not isinstance(f, Const)]
        if len(others) == 1:
            if isinstance(others[0], Dirac):
                return SignalClass.DIRAC
            if isinstance(others[0], _ODE_ATOMS):
                return SignalClass.ODE_DEFINED
    return SignalClass.UNSUPPORTED


def split_scale(e: SignalExpr) -> tuple[Qi, SignalExpr]:
    """Separate a leading scalar from a scaled atom: c*x -> (c, x)."""
    if isinstance(e, Mul):
        scale = Qi(1)
        rest = []
        for f in e.factors:
            if isinstance(f, Const):
                scale = scale * f.value
            else:
                rest.append(f)
        if len(rest) == 1:
            return scale, rest[0]
    return Qi(1), e


# ---------------------------------------------------------------------------
# Differentiation and evaluation


def diff_time(e: SignalExpr) -> SignalExpr:
    """Exact symbolic d/dt; rejects atoms with no pointwise derivative."""
    if isinstance(e, Const):
        return Const(Qi(0))
    if isinstance(e, TimeVar):
        return Const(Qi(1))
    if isinstance(e, Add):
        return make_add([diff_time(t) for t in e.terms])
    if isinstance(e, Mul):
        parts = []
        for j, f in enumerate(e.factors):
            df = diff_time(f)
            parts.append(make_mul(list(e.factors[:j]) + [df]
                                  + list(e.factors[j + 1:])))
        return make_add(parts)
    if isinstance(e, Pow):
        return make_mul([Const(Qi(e.k)), make_pow(e.base, e.k - 1),
                         diff_time(e.base)])
    if isinstance(e, Exp):
        return make_mul([Const(e.rate), e])
    if isinstance(e, Sin):
        return make_mul([Const(Qi(e.omega)), Cos(e.omega, e.phase)])
    if isinstance(e, Cos):
        return make_mul([Const(Qi(-e.omega)), Sin(e.omega, e.phase)])
    if isinstance(e, Sinc):
        # d/dt sin(wt)/t = w*cos(wt)/t - sin(wt)/t^2
        inv_t = RatFunc(CPoly.ONE, _T_POLY)
        inv_t2 = RatFunc(CPoly.ONE, _T_POLY * _T_POLY)
        return make_add([
            make_mul([Const(Qi(e.omega)), TFrac(inv_t), Cos(e.omega)]),
            make_mul([Const(Qi(-1)), TFrac(inv_t2), Sin(e.omega)]),
        ])
    if isinstance(e, RaisedCos):
        # d/dt cos(wt)/(t^2+1) = -w*sin(wt)/(t^2+1) - 2t*cos(wt)/(t^2+1)^2
        den = CPoly([1, 0, 1])
        return make_add([
            make_mul([Const(Qi(-e.omega)),
                      TFrac(RatFunc(CPoly.ONE, den)), Sin(e.omega)]),
            make_mul([Const(Qi(-1)),
                      TFrac(RatFunc(CPoly([0, 2]), den * den)), Cos(e.omega)]),
        ])
    if isinstance(e, Chirp):
        # x' = i*(2at + b) * x
        lin = _tfrac(RatFunc(CPoly([Qi(0, e.b), Qi(0, 2 * e.a)])))
        return make_mul([lin, e])
    if isinstance(e, TFrac):
        return _tfrac(e.rat.deriv())
    if isinstance(e, Dirac):
        raise ExpressionError("dirac impulse is not differentiable")
    if isinstance(e, Delay):
        raise ExpressionError("delay atom is not differentiable")
    raise TypeError(f"not a signal expression: {e!r}")


def evaluate(e: SignalExpr, t: float) -> complex:
    """Pointwise value at time t; sinc takes its limit value at t = 0."""
    if isinstance(e, Const):
        return complex(e.value)
    if isinstance(e, TimeVar):
        return complex(t)
    if isinstance(e, Add):
        return sum(evaluate(term, t) for term in e.terms)
    if isinstance(e, Mul):
        acc = 1 + 0j
        for f in e.factors:
            acc *= evaluate(f, t)
        return acc
    if isinstance(e, Pow):
        return evaluate(e.base, t) ** e.k
    if isinstance(e, Exp):
        return cmath.exp(complex(e.rate) * t)
    if isinstance(e, Sin):
        return complex(math.sin(float(e.omega) * t + float(e.phase)))
    if isinstance(e, Cos):
        return complex(math.cos(float(e.omega) * t + float(e.phase)))
    if isinstance(e, Sinc):
        w = float(e.omega)
        if t == 0:
            return complex(w)
        return complex(math.sin(w * t) / t)
    if isinstance(e, RaisedCos):
        return complex(math.cos(float(e.omega) * t) / (t * t + 1.0))
    if isinstance(e, Chirp):
        a, b, c = float(e.a), float(e.b), float(e.c)
        return cmath.exp(1j * (a * t * t + b * t + c))
    if isinstance(e, TFrac):
        # a finite t is a pole when the exact denominator vanishes there:
        # at a root such as t = 1/2 of t^2 - 5/6*t + 1/6 its float value
        # rounds to a tiny nonzero number
        den = e.rat.den(complex(t))
        if den == 0 or (math.isfinite(t)
                        and not e.rat.den.at(Qi.coerce(Fraction(t)))):
            raise EvaluationError(f"rational factor has a pole at t = {t}")
        return e.rat.num(complex(t)) / den
    if isinstance(e, Dirac):
        raise EvaluationError("dirac impulse has no pointwise value")
    if isinstance(e, Delay):
        raise EvaluationError("standalone delay atom has no pointwise value")
    raise TypeError(f"not a signal expression: {e!r}")


# ---------------------------------------------------------------------------
# Truncated Taylor series (jets)
#
# Forward-mode truncated Taylor arithmetic (Griewank and Walther, Evaluating
# Derivatives, 2nd ed., 2008, ch. 13): each node maps to its series in
# h = t - t0, so the tree never grows and a product costs O(n^2) for n
# terms.  A series is a pair (v, c): h^v * (c[0] + c[1] h + ... ), known up
# to O(h^(v + len(c))).  The valuation v is negative only below a rational
# factor with a pole at t0.

# Terms beyond the order asked that may be spent showing that poles cancel
_CANCEL_BUDGET = 64


def _leaves(e: SignalExpr) -> list:
    """The nodes of e under its sums, products and powers, in tree order;
    refuses the atoms with no derivative."""
    out = []
    stack = [e]
    while stack:
        x = stack.pop()
        tx = type(x)
        if tx is Add:
            stack.extend(reversed(x.terms))
        elif tx is Mul:
            stack.extend(reversed(x.factors))
        elif tx is Pow:
            stack.append(x.base)
        elif tx is Dirac:
            raise ExpressionError("dirac impulse is not differentiable")
        elif tx is Delay:
            raise ExpressionError("delay atom is not differentiable")
        else:
            out.append(x)
    return out


def _exact_at_zero(x: SignalExpr) -> bool:
    """Whether the value of the atom x at t = 0 lies in Q(i)."""
    if type(x) in (Sin, Cos):
        return not x.phase
    if type(x) is Chirp:
        return not x.c
    return True


def _shifted(c: list, x0) -> list:
    """The coefficients of p(x0 + h) in h, for p with coefficients c, by
    repeated synthetic division."""
    c = list(c)
    if x0:
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] = c[j] + x0 * c[j + 1]
    return c


def _valuation(c: list) -> int:
    """The number of leading zero coefficients."""
    v = 0
    while v < len(c) and not c[v]:
        v += 1
    return v


def _cauchy(a: list, b: list, n: int) -> list:
    """The first n coefficients of the product of two series."""
    return [sum([a[j] * b[k - j] for j in range(k + 1)]) for k in range(n)]


def _powers(z, n: int) -> list:
    """z^k / k! for k < n."""
    out = [z ** 0]
    for k in range(1, n):
        out.append(out[-1] * z / k)
    return out


_INV_T = RatFunc(CPoly.ONE, _T_POLY)
_INV_T2_PLUS_1 = RatFunc(CPoly.ONE, CPoly([1, 0, 1]))


class _JetWalk:
    """One evaluation of series of n terms at t0.

    Scalars are `Qi` when exact, which needs t0 = 0, else complex floats;
    `conv` takes an exact `Qi` to a scalar.  A float series refuses a
    rational factor with a pole at t0, found by exact evaluation of its
    denominator; an exact one keeps the pole as a negative valuation, for
    another factor or a sum to cancel."""

    def __init__(self, t0, n: int, exact: bool):
        self.t0 = t0
        self.n = n
        self.exact = exact
        self.conv = Qi.coerce if exact else complex
        self.zero = self.conv(_QI_ZERO)
        self.one = self.conv(_QI_ONE)
        self.x0 = self.zero if exact else complex(t0)

    def series(self, e: SignalExpr) -> tuple:
        v, c = self._series(e)
        if self.exact:    # the exact leading zeros raise the valuation
            z = _valuation(c)
            v, c = v + z, c[z:]
        return v, c

    def _series(self, e: SignalExpr) -> tuple:
        tx = type(e)
        n = self.n
        if tx is Add:
            return self._add([self.series(x) for x in e.terms])
        if tx is Mul:
            scale = _QI_ONE
            parts = []
            for f in e.factors:
                if type(f) is Const:
                    scale = scale * f.value
                else:
                    parts.append(self.series(f))
            if not parts:
                return self.series(Const(scale))
            v, c = parts[0]
            for w, d in parts[1:]:
                v, c = v + w, _cauchy(c, d, min(len(c), len(d)))
            s = self.conv(scale)
            return v, [s * x for x in c]
        if tx is Pow:
            v, c = self.series(e.base)
            k, out = e.k, None
            while k:      # binary powering
                if k & 1:
                    out = c if out is None else _cauchy(out, c, len(c))
                k >>= 1
                if k:
                    c = _cauchy(c, c, len(c))
            if out is None:
                return self.series(Const(_QI_ONE))
            return v * e.k, out
        if tx is Const:
            return 0, [self.conv(e.value)] + [self.zero] * (n - 1)
        if tx is TimeVar:
            return 0, ([self.x0, self.one] + [self.zero] * n)[:n]
        if tx is Exp:
            e0 = (self.one if self.exact
                  else cmath.exp(complex(e.rate) * self.t0))
            return 0, [e0 * p for p in _powers(self.conv(e.rate), n)]
        if tx is Sin or tx is Cos:
            return 0, self._trig(tx is Sin, e.omega, e.phase)
        if tx is Sinc:
            if self.t0:
                return self._product(self._trig(True, e.omega, 0), _INV_T)
            # sin(wt)/t = sum_k (-1)^k w^(2k+1) t^(2k) / (2k+1)!
            p = _powers(self.conv(Qi(e.omega)), n + 1)
            return 0, [self.zero if k % 2 else p[k + 1] if k % 4 == 0
                       else -p[k + 1] for k in range(n)]
        if tx is RaisedCos:
            return self._product(self._trig(False, e.omega, 0),
                                 _INV_T2_PLUS_1)
        if tx is Chirp:
            return 0, self._chirp(e)
        if tx is TFrac:
            return self._rational(e.rat)
        raise TypeError(f"not a signal expression: {e!r}")

    def _add(self, parts: list) -> tuple:
        v = min(w for w, _ in parts)
        top = min(w + len(c) for w, c in parts)   # known up to O(h^top)
        acc = [self.zero] * (top - v)
        for w, c in parts:
            for k in range(top - w):
                acc[w - v + k] += c[k]
        return v, acc

    def _trig(self, is_sin: bool, omega: Fraction, phase: Fraction) -> list:
        """Series of sin or cos(omega*t + phase): the k-th derivative steps
        round (s, c, -s, -c) from sin, or from cos a quarter turn on."""
        if self.exact:
            s, c = self.zero, self.one
        else:
            theta = float(omega) * self.t0 + float(phase)
            s, c = complex(math.sin(theta)), complex(math.cos(theta))
        cycle = (s, c, -s, -c) if is_sin else (c, -s, -c, s)
        return [cycle[k % 4] * p for k, p in
                enumerate(_powers(self.conv(Qi(omega)), self.n))]

    def _chirp(self, e: Chirp) -> list:
        """exp(g) for g = i(a t^2 + b t + c), by k e_k = g_1 e_(k-1) +
        2 g_2 e_(k-2)."""
        g = _shifted([self.conv(Qi(0, x)) for x in (e.c, e.b, e.a)], self.x0)
        out = [self.one if self.exact else cmath.exp(g[0])]
        for k in range(1, self.n):
            acc = g[1] * out[k - 1]
            if k > 1:
                acc = acc + 2 * g[2] * out[k - 2]
            out.append(acc / k)
        return out

    def _rational(self, r: RatFunc) -> tuple:
        """The series of r at t0, as (valuation, coefficients)."""
        if self.exact:    # at t0 = 0 the coefficients are the series
            num, den = list(r.num.coeffs), list(r.den.coeffs)
            vn, vd = _valuation(num), _valuation(den)
            num, den = num[vn:], den[vd:]
        else:
            num = _shifted(r.num.to_complex(), self.x0)
            den = _shifted(r.den.to_complex(), self.x0)
            if not den[0] or not r.den.at(Qi.coerce(Fraction(self.t0))):
                raise EvaluationError(
                    f"rational factor has a pole at t = {self.t0}")
            vn = vd = 0
        num += [self.zero] * (self.n - len(num))
        q = []
        for k in range(self.n):
            acc = num[k]
            for j in range(1, min(k, len(den) - 1) + 1):
                acc = acc - den[j] * q[k - j]
            q.append(acc / den[0])
        return vn - vd, q

    def _product(self, a: list, r: RatFunc) -> tuple:
        v, b = self._rational(r)
        return v, _cauchy(a, b, self.n)


def _jet(e: SignalExpr, t0, order: int) -> list:
    """The Taylor coefficients c_0..c_order of e at t0, so that
    e(t0 + h) = sum_k c_k h^k + O(h^(order + 1)).

    They are exact `Qi` when t0 = 0 and every atom's value there lies in
    Q(i) (no phase, no chirp offset), else complex floats.  A rational
    factor with a pole at t0 is refused with float coefficients; with exact
    ones the pole must cancel in the exact coefficients, within
    `_CANCEL_BUDGET` extra terms, or it is refused as well.  Dirac and delay
    atoms are refused, and so is a time that is not finite.
    """
    if not math.isfinite(t0):
        raise EvaluationError(f"time must be finite, got {t0}")
    leaves = _leaves(e)
    exact = t0 == 0 and all(map(_exact_at_zero, leaves))
    pole = f"rational factor has a pole at t = {t0}"
    n = order + 1
    while True:
        v, c = _JetWalk(t0, n, exact).series(e)
        if exact and c and v < 0:
            raise EvaluationError(pole)
        if not exact and not all(map(cmath.isfinite, c)):
            raise OverflowError("a series coefficient exceeds the float range")
        if v + len(c) > order:
            break
        n += order + 1 - v - len(c)
        if n > order + 1 + _CANCEL_BUDGET:
            raise EvaluationError(pole)
    zero = _QI_ZERO if exact else 0j
    return ([zero] * min(v, order + 1) + c)[:order + 1]


# ---------------------------------------------------------------------------
# Tokenizer and parser


_LEXEME = re.compile(r"\s+|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
                     r"|[A-Za-z_][A-Za-z_0-9]*|[-+*/^(),]")

_FUNCTIONS = frozenset(("exp", "sin", "cos", "sinc", "rcos", "dirac", "delay",
                        "chirp"))
_MINUS_ONE = Const(Qi(-1))


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[str]:
    """The token texts, whitespace dropped, then "" for the end.  The texts
    of different kinds never coincide, so a token is told by its text.

    findall skips a character no lexeme starts at; when none is skipped,
    the lexemes cover the text and each is the one a match at its start
    takes."""
    lexemes = _LEXEME.findall(text)
    if sum(map(len, lexemes)) != len(text):
        pos = 0
        for m in _LEXEME.finditer(text):
            if m.start() != pos:
                break
            pos = m.end()
        raise SignalSyntaxError(f"unexpected character {text[pos]!r}",
                                _byte_offset(text, pos))
    words = [w for w in lexemes if not w[0].isspace()]
    words.append("")
    return words


def _token_starts(text: str) -> list[int]:
    """The character position of each token of _tokenize(text)."""
    starts = []
    for m in _LEXEME.finditer(text):
        if not m.group()[0].isspace():
            starts.append(m.start())
    starts.append(len(text))
    return starts


def _has_tfrac(e: SignalExpr) -> bool:
    """Whether e is, or as a canonical product holds, a rational function
    of t."""
    if type(e) is Mul:
        return any(type(f) is TFrac for f in e.factors)
    return type(e) is TFrac


def _product(factors: list) -> SignalExpr:
    return factors[0] if len(factors) == 1 else make_mul(factors)


# The deepest nesting of parentheses and call arguments that parse accepts.
# A level costs the parser up to five interpreter frames, so the budget
# leaves half of the default recursion limit to the caller and keeps every
# accepted tree shallow enough for the recursive walks over it.
_MAX_NESTING = 100


class _Parser:
    """Recursive descent over the token texts, read by index k.  Token
    positions are found again only for an error message."""

    def __init__(self, text: str, words: list[str]):
        self.text = text
        self.words = words
        self.k = 0
        self.depth = 0

    def _open(self, k: int):
        """Enter the group that token k opens."""
        self.depth += 1
        if self.depth > _MAX_NESTING:
            self._fail("expression nested too deeply", k)

    def _offset(self, k: int) -> int:
        return _byte_offset(self.text, _token_starts(self.text)[k])

    def _fail(self, message: str, k: int):
        raise SignalSyntaxError(message, self._offset(k))

    def _expect_op(self, op: str):
        k = self.k
        self.k = k + 1
        if self.words[k] != op:
            self._fail(f"expected {op!r}", k)

    def expr(self) -> SignalExpr:
        # make_add flattens, so one call over all terms equals the left fold
        words = self.words
        terms = [self.term()]
        while words[self.k] in ("+", "-"):
            op = words[self.k]
            self.k += 1
            rhs = self.term()
            terms.append(rhs if op == "+" else make_mul([_MINUS_ONE, rhs]))
        return terms[0] if len(terms) == 1 else make_add(terms)

    def term(self) -> SignalExpr:
        # Factors free of rational functions of t are multiplied in one
        # make_mul, which equals the left fold there.  A TFrac folds every
        # rational-in-t factor into itself, so a product that holds one is
        # folded left, a factor at a time, as in (1/t*t)*(1 + t)^2.
        words = self.words
        factors = [self.factor()]
        while words[self.k] in ("*", "/"):
            k = self.k
            self.k = k + 1
            rhs = self.factor()
            if words[k] == "/":
                q = _quotient(_product(factors), rhs)
                if q is None:
                    self._fail("divisor must be constant or rational in t", k)
                factors = [q]
            elif _has_tfrac(rhs) or _has_tfrac(factors[0]):
                factors = [make_mul([_product(factors), rhs])]
            else:
                factors.append(rhs)
        return _product(factors)

    def factor(self) -> SignalExpr:
        words = self.words
        negate = words[self.k] == "-"
        if negate:
            self.k += 1
        node = self.atom()
        if words[self.k] == "^":
            k = self.k + 1
            self.k = k + 1
            if not words[k].isdigit():
                self._fail("expected a nonnegative integer exponent", k)
            try:
                exponent = int(words[k])
            except ValueError:   # more digits than int() converts
                self._fail("exponent too large", k)
            node = make_pow(node, exponent)
        if negate:
            node = make_mul([_MINUS_ONE, node])
        return node

    def atom(self) -> SignalExpr:
        k = self.k
        self.k = k + 1
        text = self.words[k]
        if text.isdigit():
            try:
                return Const(Qi(int(text)))
            except ValueError:   # more digits than int() converts
                return Const(Qi(Fraction(Decimal(text))))
        if text == "t":
            return TimeVar()
        if text == "(":
            self._open(k)
            node = self.expr()
            self._expect_op(")")
            self.depth -= 1
            return node
        if text in _FUNCTIONS:
            return self.call(text)
        if text == "i":
            return Const(_QI_I)
        head = text[:1]
        if head.isdecimal() or head == ".":     # a number with a point or
            return Const(Qi(Fraction(Decimal(text))))   # an exponent
        if head.isalpha() or head == "_":
            self._fail(f"unknown identifier {text!r}", k)
        self._fail("expected a number, 'i', 't', a function call, or '('", k)

    def call(self, name: str) -> SignalExpr:
        self._expect_op("(")
        self._open(self.k - 1)
        args = []
        if self.words[self.k] != ")":
            args.append(self.expr())
            while self.words[self.k] == ",":
                self.k += 1
                args.append(self.expr())
        self._expect_op(")")
        self.depth -= 1
        return _build_call(name, args)

    def done(self):
        if self.words[self.k]:
            self._fail(f"unexpected trailing input {self.words[self.k]!r}",
                       self.k)


def _arity_error(name: str, expected: str, got: int):
    return ParameterError(f"{name} takes {expected}, got {got} argument(s)")


def _linear_coeffs(arg: SignalExpr) -> tuple[Qi, Qi] | None:
    """(c0, c1) with arg = c0 + c1*t, or None when arg is not a polynomial
    of degree at most 1 in t.  A constant, t and c*t are read off the
    node; any other shape goes through its rational function."""
    if isinstance(arg, Const):
        return arg.value, _QI_ZERO
    if isinstance(arg, TimeVar):
        return _QI_ZERO, _QI_ONE
    if (isinstance(arg, Mul) and len(arg.factors) == 2
            and isinstance(arg.factors[0], Const)
            and isinstance(arg.factors[1], TimeVar)):
        return _QI_ZERO, arg.factors[0].value
    r = as_ratfunc_in_t(arg)
    if r is None or not r.is_polynomial or r.num.degree > 1:
        return None
    coeffs = list(r.num.coeffs) + [_QI_ZERO, _QI_ZERO]
    return coeffs[0], coeffs[1]


def _const_real(name: str, arg: SignalExpr) -> Fraction:
    parts = _linear_coeffs(arg)
    if parts is None or parts[1]:
        raise ParameterError(f"{name} parameter must be a constant")
    value = parts[0]
    if not value.is_real:
        raise ParameterError(f"{name} parameter must be real")
    return value.re


def _linear_in_t(name: str, arg: SignalExpr) -> tuple[Fraction, Fraction]:
    parts = _linear_coeffs(arg)
    if parts is None:
        raise ParameterError(
            f"{name} argument must be constant or linear in t")
    c0, c1 = parts
    if not (c0.is_real and c1.is_real):
        raise ParameterError(f"{name} argument must have real coefficients")
    if not c1:
        return c0.re, Fraction(0)   # single constant reads as the frequency
    return c1.re, c0.re


def _rate_times_t(arg: SignalExpr) -> Qi:
    parts = _linear_coeffs(arg)
    if parts is None or parts[0]:
        raise ParameterError("exp argument must be of the form a*t")
    return parts[1]


def _build_call(name: str, args: list) -> SignalExpr:
    n = len(args)
    if name == "exp":
        if n != 1:
            raise _arity_error("exp", "1 argument", n)
        return make_exp(_rate_times_t(args[0]))
    if name in ("sin", "cos"):
        node = Sin if name == "sin" else Cos
        if n == 1:
            omega, phase = _linear_in_t(name, args[0])
        elif n == 2:
            omega = _const_real(name, args[0])
            phase = _const_real(name, args[1])
        else:
            raise _arity_error(name, "1 or 2 arguments", n)
        return node(omega, phase)
    if name == "sinc":
        if n != 1:
            raise _arity_error("sinc", "1 argument", n)
        return Sinc(_const_real("sinc", args[0]))
    if name == "rcos":
        if n != 1:
            raise _arity_error("rcos", "1 argument", n)
        return RaisedCos(_const_real("rcos", args[0]))
    if name == "dirac":
        if n != 0:
            raise _arity_error("dirac", "no arguments", n)
        return Dirac()
    if name == "delay":
        if n != 1:
            raise _arity_error("delay", "1 argument", n)
        return Delay(_const_real("delay", args[0]))
    if name == "chirp":
        if n != 3:
            raise _arity_error("chirp", "3 arguments", n)
        return Chirp(_const_real("chirp", args[0]),
                     _const_real("chirp", args[1]),
                     _const_real("chirp", args[2]))
    raise ParameterError(f"unknown function {name!r}")


def parse(text: str) -> SignalExpr:
    """Parse expression text to a canonical AST.

    Raises SignalSyntaxError (with byte offset) for malformed input,
    including nesting deeper than `_MAX_NESTING` levels, and
    ParameterError for arity or parameter-domain violations.
    """
    parser = _Parser(text, _tokenize(text))
    node = parser.expr()
    parser.done()
    return node


# ---------------------------------------------------------------------------
# Pretty printer


def _pp_frac(f: Fraction) -> str:
    return _int_text(f.numerator, f.denominator)


def _pp_qi(q: Qi) -> str:
    if q.im == 0:
        return _pp_frac(q.re)
    if q.re == 0:
        if q.im == 1:
            return "i"
        if q.im == -1:
            return "-i"
        return f"{_pp_frac(q.im)}*i"
    sign = "+" if q.im > 0 else "-"
    mag = abs(q.im)
    imtxt = "i" if mag == 1 else f"{_pp_frac(mag)}*i"
    return f"({_pp_frac(q.re)} {sign} {imtxt})"


def _pp_poly_t(p: CPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        if k == 0:
            txt = _pp_qi(c)
        else:
            tvar = "t" if k == 1 else f"t^{k}"
            if c == Qi(1):
                txt = tvar
            elif c == Qi(-1):
                txt = f"-{tvar}"
            else:
                txt = f"{_pp_qi(c)}*{tvar}"
        if not parts:
            parts.append(txt)
        elif txt.startswith("-"):
            parts.append(f"- {txt[1:]}")
        else:
            parts.append(f"+ {txt}")
    return " ".join(parts)


def _pp_trig(name: str, omega: Fraction, phase: Fraction) -> str:
    if phase == 0:
        return f"{name}({_pp_frac(omega)}*t)"
    if omega == 0:
        return f"{name}(0, {_pp_frac(phase)})"
    sign = "+" if phase > 0 else "-"
    return f"{name}({_pp_frac(omega)}*t {sign} {_pp_frac(abs(phase))})"


def pretty_print(e: SignalExpr) -> str:
    """Render a canonical AST to text that reparses to an equal AST."""
    if isinstance(e, Const):
        return _pp_qi(e.value)
    if isinstance(e, TimeVar):
        return "t"
    if isinstance(e, TFrac):
        return f"({_pp_poly_t(e.rat.num)})/({_pp_poly_t(e.rat.den)})"
    if isinstance(e, Exp):
        if e.rate == Qi(1):
            return "exp(t)"
        if e.rate == Qi(-1):
            return "exp(-t)"
        return f"exp({_pp_qi(e.rate)}*t)"
    if isinstance(e, Sin):
        return _pp_trig("sin", e.omega, e.phase)
    if isinstance(e, Cos):
        return _pp_trig("cos", e.omega, e.phase)
    if isinstance(e, Sinc):
        return f"sinc({_pp_frac(e.omega)})"
    if isinstance(e, RaisedCos):
        return f"rcos({_pp_frac(e.omega)})"
    if isinstance(e, Dirac):
        return "dirac()"
    if isinstance(e, Delay):
        return f"delay({_pp_frac(e.lag)})"
    if isinstance(e, Chirp):
        return f"chirp({_pp_frac(e.a)}, {_pp_frac(e.b)}, {_pp_frac(e.c)})"
    if isinstance(e, Pow):
        base = pretty_print(e.base)
        if isinstance(e.base, (Add, Mul)):
            base = f"({base})"
        return f"{base}^{e.k}"
    if isinstance(e, Mul):
        parts = []
        for f in e.factors:
            txt = pretty_print(f)
            if isinstance(f, Add):
                txt = f"({txt})"
            parts.append(txt)
        return "*".join(parts)
    if isinstance(e, Add):
        parts = [pretty_print(e.terms[0])]
        for t in e.terms[1:]:
            txt = pretty_print(t)
            if txt.startswith("-"):
                parts.append(f"- {txt[1:]}")
            else:
                parts.append(f"+ {txt}")
        return " ".join(parts)
    raise TypeError(f"not a signal expression: {e!r}")
