"""Signal expression language: parser, canonical AST, and truncated Taylor
series, which give pointwise values and time derivatives.

Signals live on t >= 0 and are written in a small grammar:

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ["-"] atom ("^" uint)?
    atom   := number | "i" | "t" | call | "(" expr ")"
    call   := ident "(" args ")" ,  ident in
              {exp, sin, cos, sinc, rcos, dirac, delay, chirp}

Numbers are decimal literals with optional scientific notation and are kept
exact (no float rounding at parse time).  sin/cos accept a single argument
that is constant or linear in t, or an explicit (omega, phase) pair; a
single argument whose text names no t is the frequency, so sin(3) is
sin(3*t), while sin(0*t + 3) is the constant sin(3); exp takes a constant
rate times t, written exp(a*t).  Division is restricted to
divisors that are rational in t; a quotient of two constants is a constant,
and any other quotient folds into a dedicated rational-in-t node.

Parsing produces a canonical tree: sums and products are flattened, scalar
factors are folded and kept leftmost, terms are sorted by a structural key,
and trivial powers collapse.  pretty_print renders a canonical tree back to
a string that reparses to an equal tree.

The parser builds each node of that tree once.  A digit literal that leads
a term, over a digit literal, is one fraction; t is one shared node and t^k
a power of it; and a term that is a constant, alone or times one atom,
takes the sign of a minus into that constant and is built as its node
directly.  Everything else goes through the canonical constructors.

The series of a tree at a time t0 is walked node by node.  At t0 = 0 it is
exact in Q(i) for every signal: the sine and cosine of a phase, and a
chirp's offset, are read as the exact values of their float parts, as the
expansion `opcalc.from_signal` reads them.  At any other time it is in
complex floats.
"""

from __future__ import annotations

import cmath
import math
import re
from decimal import Decimal
from enum import Enum
from fractions import Fraction

from .ratfield import (CPoly, Qi, RatFunc, _FrozenValue, _QI_ONE, _QI_ZERO,
                       _int_text, _power, _series_quotient)

__all__ = [
    "SignalExpr", "Const", "TimeVar", "Add", "Mul", "Pow", "Exp", "Sin",
    "Cos", "Sinc", "RaisedCos", "Dirac", "Delay", "Chirp", "TFrac",
    "SignalClass", "ExpressionError", "SignalSyntaxError", "ParameterError",
    "EvaluationError", "parse", "pretty_print", "canonical", "classify",
    "evaluate", "make_add", "make_mul", "make_pow", "make_div", "make_exp",
    "as_ratfunc_in_t", "split_scale",
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


class SignalExpr(_FrozenValue):
    """Marker base for expression nodes; all nodes are immutable values."""

    __slots__ = ()


class Const(SignalExpr):
    _fields = ("value",)

    def __init__(self, value: Qi):
        if type(value) is not Qi:
            value = Qi.coerce(value)
        object.__setattr__(self, "value", value)


class TimeVar(SignalExpr):
    pass


class Add(SignalExpr):
    _fields = ("terms",)

    def __init__(self, terms: tuple):
        terms = tuple(terms)
        if not terms:
            raise ValueError("empty sum")
        object.__setattr__(self, "terms", terms)


class Mul(SignalExpr):
    _fields = ("factors",)

    def __init__(self, factors: tuple):
        factors = tuple(factors)
        if not factors:
            raise ValueError("empty product")
        object.__setattr__(self, "factors", factors)


class Pow(SignalExpr):
    _fields = ("base", "k")

    def __init__(self, base: SignalExpr, k: int):
        if k < 0:
            raise ValueError("negative power")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "k", k)


class Exp(SignalExpr):
    """e^(rate * t)."""

    _fields = ("rate",)

    def __init__(self, rate: Qi):
        object.__setattr__(self, "rate", Qi.coerce(rate))


class _Trig(SignalExpr):
    """The fields of `Sin` and `Cos`: omega in rad/s, phase in rad.  The two
    are siblings, so that a cosine is no instance of `Sin`."""

    _fields = ("omega", "phase")

    def __init__(self, omega: Fraction, phase: Fraction = Fraction(0)):
        object.__setattr__(self, "omega", _as_fraction(omega))
        object.__setattr__(self, "phase", _as_fraction(phase))


class Sin(_Trig):
    """sin(omega*t + phase), omega in rad/s, phase in rad."""


class Cos(_Trig):
    """cos(omega*t + phase)."""


class Sinc(SignalExpr):
    """sin(omega*t)/t, omega nonzero; value omega at t = 0 by the limit."""

    _fields = ("omega",)

    def __init__(self, omega: Fraction):
        omega = _as_fraction(omega)
        if omega == 0:
            raise ParameterError("sinc frequency must be nonzero")
        object.__setattr__(self, "omega", omega)


class RaisedCos(SignalExpr):
    """cos(omega*t)/(t^2 + 1)."""

    _fields = ("omega",)

    def __init__(self, omega: Fraction):
        object.__setattr__(self, "omega", _as_fraction(omega))


class Dirac(SignalExpr):
    pass


class Delay(SignalExpr):
    """Shift by lag seconds; lag of either sign (delay or advance)."""

    _fields = ("lag",)

    def __init__(self, lag: Fraction):
        object.__setattr__(self, "lag", _as_fraction(lag))


class Chirp(SignalExpr):
    """exp((a*t^2 + b*t + c) * i), a nonzero."""

    _fields = ("a", "b", "c")

    def __init__(self, a: Fraction, b: Fraction, c: Fraction):
        a, b, c = _as_fraction(a), _as_fraction(b), _as_fraction(c)
        if a == 0:
            raise ParameterError("chirp sweep rate must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


class TFrac(SignalExpr):
    """A rational function of t that is not a polynomial; produced by
    division."""

    _fields = ("rat",)

    def __init__(self, rat: RatFunc):
        object.__setattr__(self, "rat", rat)


_T_POLY = CPoly.S
_QI_I = Qi(0, 1)


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
    """Read e as an element of C(t) if it is one, else None.  A canonical
    polynomial tree is read whole by `_polynomial`; a fraction, and a sum,
    product or power of other shapes, by `RatFunc` arithmetic on its
    parts."""
    poly = _polynomial(e)
    if poly is not None:
        return RatFunc._from_reduced(poly, CPoly.ONE)
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
    return _poly_tree(rat.num) if rat.is_polynomial else TFrac(rat)


def _poly_tree(p: CPoly) -> SignalExpr:
    """The canonical tree of a polynomial in t: a constant, or the sorted
    sum of its terms c*t^k."""
    if p.degree <= 0:
        return Const(p.coeffs[0] if p.degree == 0 else _QI_ZERO)
    terms = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        if k == 0:
            terms.append(Const(c))
            continue
        tpow = TimeVar() if k == 1 else Pow(TimeVar(), k)
        terms.append(tpow if c == _QI_ONE else Mul((Const(c), tpow)))
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=_key)
    return Add(tuple(terms))


def _polynomial(e: SignalExpr) -> CPoly | None:
    """The polynomial that a canonical monomial c, t^k or c*t^k, or a sum
    of them, spells, like terms summed; None for a tree of another shape.
    It reads back every tree `_poly_tree` builds."""
    coeffs: dict[int, Qi] = {}
    for term in e.terms if type(e) is Add else (e,):
        kind = type(term)
        if kind is Const:
            k, c = 0, term.value
        else:
            c = _QI_ONE
            if kind is Mul and len(term.factors) == 2:
                scale, term = term.factors
                if type(scale) is not Const:
                    return None
                c, kind = scale.value, type(term)
            if kind is TimeVar:
                k = 1
            elif kind is Pow and type(term.base) is TimeVar:
                k = term.k
            else:
                return None
        prev = coeffs.get(k)
        coeffs[k] = c if prev is None else prev + c
    d = math.lcm(*(c._d for c in coeffs.values()))
    n = max(coeffs) + 1
    re, im = [0] * n, [0] * n
    for k, c in coeffs.items():
        re[k], im[k] = c._a * (d // c._d), c._b * (d // c._d)
    return CPoly._canon(re, im, d)


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
    """The canonical product: products flattened, constants folded into one
    scalar kept leftmost, and, when a factor is a `TFrac`, every factor
    that is rational in t folded into one `_tfrac`, whose scalar
    `split_scale` takes off."""
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
        rest = others
        scalar, folded = split_scale(_tfrac(rat))
        if type(folded) is Const:
            scalar = folded.value
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
        return Const(_QI_ONE)
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
        return Const(_QI_ONE)
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
    atom = split_scale(e)[1]
    if isinstance(atom, Dirac):
        return SignalClass.DIRAC
    if isinstance(atom, _ODE_ATOMS):
        return SignalClass.ODE_DEFINED
    return SignalClass.UNSUPPORTED


def split_scale(e: SignalExpr) -> tuple[Qi, SignalExpr]:
    """Separate a leading scalar from a scaled atom: c*x -> (c, x)."""
    if isinstance(e, Mul):
        scale = _QI_ONE
        rest = []
        for f in e.factors:
            if isinstance(f, Const):
                scale = scale * f.value
            else:
                rest.append(f)
        if len(rest) == 1:
            return scale, rest[0]
    return _QI_ONE, e


# ---------------------------------------------------------------------------
# Float overflow


def _angle(theta: float) -> float:
    """theta, the float argument of sin, cos or a unit exponential; one
    that overflowed, as rate * t can at a large finite t, raises
    OverflowError, where math would report a domain error."""
    if not math.isfinite(theta):
        raise OverflowError("an angle exceeds the float range")
    return theta


def _cexp(z: complex) -> complex:
    """cmath.exp(z), refusing an angle z.imag that overflowed."""
    _angle(z.imag)
    return cmath.exp(z)


def _unit_phase(phase: Fraction) -> Qi:
    """e^(i*phase), the phase of a trigonometric atom or a chirp, as the
    exact value of its float parts: exactly 1 at phase 0."""
    if not phase:
        return _QI_ONE
    f = float(phase)
    return Qi(math.cos(f), math.sin(f))


def _finite(value: complex, t: float) -> complex:
    """value, the value of a signal at the finite time t; one that is not
    finite has overflowed the float range and raises OverflowError."""
    if not cmath.isfinite(value):
        raise OverflowError(f"the value at t = {t} exceeds the float range")
    return value


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

    Scalars are `Qi` when exact, at t0 = 0, else complex floats; `conv`
    takes an exact `Qi` to a scalar.  The exact sine and cosine of a phase,
    and a chirp's exact unit factor at 0, are those of `_unit_phase`, as in
    the expansion and the catalog equation.  A float series refuses a
    rational factor with a pole at t0, found by exact evaluation of its
    denominator; an exact one keeps the pole as a negative valuation, for
    another factor or a sum to cancel.  A dirac or delay atom is refused
    where the walk meets it: with n = 1 it has no value, above that no
    derivative.  A walk with more terms than the order asked follows one
    of n = order + 1 terms, which met every atom."""

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
            return v * e.k, _power(c, e.k, lambda a, b: _cauchy(a, b, len(b)),
                                   [self.one] + [self.zero] * (n - 1))
        if tx is Const:
            return 0, [self.conv(e.value)] + [self.zero] * (n - 1)
        if tx is TimeVar:
            return 0, ([self.x0, self.one] + [self.zero] * n)[:n]
        if tx is Exp:
            e0 = (self.one if self.exact
                  else _cexp(complex(e.rate) * self.t0))
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
        if tx is Dirac:
            if n > 1:
                raise ExpressionError("dirac impulse is not differentiable")
            raise EvaluationError("dirac impulse has no pointwise value")
        if tx is Delay:
            if n > 1:
                raise ExpressionError("delay atom is not differentiable")
            raise EvaluationError(
                "standalone delay atom has no pointwise value")
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
            ph = _unit_phase(phase)
            s, c = Qi.coerce(ph.im), Qi.coerce(ph.re)
        else:
            theta = _angle(float(omega) * self.t0 + float(phase))
            s, c = complex(math.sin(theta)), complex(math.cos(theta))
        cycle = (s, c, -s, -c) if is_sin else (c, -s, -c, s)
        return [cycle[k % 4] * p for k, p in
                enumerate(_powers(self.conv(Qi(omega)), self.n))]

    def _chirp(self, e: Chirp) -> list:
        """exp(g) for g = i(a t^2 + b t + c), by k e_k = g_1 e_(k-1) +
        2 g_2 e_(k-2)."""
        g = _shifted([self.conv(Qi(0, x)) for x in (e.c, e.b, e.a)], self.x0)
        out = [_unit_phase(e.c) if self.exact else _cexp(g[0])]
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
        return vn - vd, _series_quotient(num, den, self.n)

    def _product(self, a: list, r: RatFunc) -> tuple:
        v, b = self._rational(r)
        return v, _cauchy(a, b, self.n)


def _jet(e: SignalExpr, t0, order: int) -> list:
    """The Taylor coefficients c_0..c_order of e at t0, so that
    e(t0 + h) = sum_k c_k h^k + O(h^(order + 1)).

    They are exact `Qi` when t0 = 0, with each phase read as the
    expansion reads it (`_unit_phase`), else complex floats.  A rational
    factor with a pole at t0 is refused with float coefficients; with exact
    ones the pole must cancel in the exact coefficients, within
    `_CANCEL_BUDGET` extra terms, or it is refused as well.  Dirac and delay
    atoms are refused where the walk meets them, and so is a time that is
    not finite.
    """
    if not math.isfinite(t0):
        raise EvaluationError(f"time must be finite, got {t0}")
    exact = t0 == 0
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


def evaluate(e: SignalExpr, t: float) -> complex:
    """Pointwise value at time t, the constant term of the series of e at
    t (`_jet`).  At t = 0 a pole that the other factors cancel leaves its
    limit value, as in sinc or sin(t)/t.  A time that is not finite, a
    dirac or delay atom and a pole that does not cancel raise
    EvaluationError; an angle or a value that overflows raises
    OverflowError."""
    return complex(_jet(e, t, 0)[0])


# ---------------------------------------------------------------------------
# Tokenizer and parser


# The operators, the most frequent lexemes, are tried first; the three
# kinds start with different characters, so the order picks no other match.
_LEXEME = re.compile(r"\s*([-+*/^(),]|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
                     r"|[A-Za-z_][A-Za-z_0-9]*)")

# The calls whose argument `_linear_call` may read off the tokens
_LINEAR_CALLS = frozenset(("exp", "sin", "cos"))
# The calls whose parameters are real constants, in their node's field
# order: name -> (parameter count, that count in the arity error's words,
# node class).  The parser, the printer and the tokenizer read this table.
_CONST_CALLS = {
    "sinc": (1, "1 argument", Sinc),
    "rcos": (1, "1 argument", RaisedCos),
    "dirac": (0, "no arguments", Dirac),
    "delay": (1, "1 argument", Delay),
    "chirp": (3, "3 arguments", Chirp),
}
_CALL_NAME = {node: name for name, (_, _, node) in _CONST_CALLS.items()}
_FUNCTIONS = _LINEAR_CALLS.union(_CONST_CALLS)
_MINUS_ONE = Const(Qi(-1))
_T = TimeVar()          # the one t of every parsed tree


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str) -> list[str]:
    """The token texts, whitespace dropped, then "" for the end.  The texts
    of different kinds never coincide, so a token is told by its text.

    findall skips a character where no lexeme starts after whitespace; when
    the lexemes hold all the text but its whitespace, none is skipped."""
    words = _LEXEME.findall(text)
    if "".join(words) != "".join(text.split()):
        pos = 0     # the end of the matches that follow each other
        for m in _LEXEME.finditer(text):
            if m.start() != pos:
                break
            pos = m.end()
        while text[pos].isspace():
            pos += 1
        raise SignalSyntaxError(f"unexpected character {text[pos]!r}",
                                _byte_offset(text, pos))
    words.append("")
    return words


def _token_starts(text: str) -> list[int]:
    """The character position of each token of _tokenize(text)."""
    starts = [m.start(1) for m in _LEXEME.finditer(text)]
    starts.append(len(text))
    return starts


def _has_tfrac(e: SignalExpr) -> bool:
    """Whether e is, or as a canonical product holds, a rational function
    of t."""
    if type(e) is Mul:
        return any(type(f) is TFrac for f in e.factors)
    return type(e) is TFrac


# The deepest nesting of parentheses and call arguments that parse accepts.
# A level costs the parser two interpreter frames, and the budget keeps
# every accepted tree shallow enough for the recursive walks over it.
_MAX_NESTING = 100


def _product(factors: list) -> SignalExpr:
    return factors[0] if len(factors) == 1 else make_mul(factors)


def _fail(text: str, message: str, k: int):
    """Refuse token k of text; its position is found only here."""
    raise SignalSyntaxError(message,
                            _byte_offset(text, _token_starts(text)[k]))


def _sum(text: str, words: list, k: int, depth: int) -> tuple:
    """expr from token k, as (node, index of the token after it).

    Sums and terms are loops, and a factor is a call.  A term that starts
    with a constant keeps its bare value while the term may be that constant
    alone or times one atom, and builds its one Const, with the sign of a
    binary minus in it, at the end.  A leading literal is read by
    `_literal`."""
    terms = []
    negate = False
    while True:
        lead = None         # the term's leading constant, while it is kept
        factors = []
        minus = words[k] == "-"
        literal = _literal(words, k + 1 if minus else k)
        if literal is not None:
            n, d, k = literal
            lead = Qi._canon(-n if minus else n, 0, d)
        else:
            node, k = _factor(text, words, k, depth)
            if type(node) is Const:
                lead = node.value
            else:
                factors.append(node)
        # Factors free of rational functions of t are multiplied in one
        # make_mul, which equals the left fold there.  A TFrac folds every
        # rational-in-t factor into itself, so a product that holds one is
        # folded left, a factor at a time, as in (1/t*t)*(1 + t)^2.
        while True:
            op = words[k]
            if op != "*" and op != "/":
                break
            kop = k
            node, k = _factor(text, words, k + 1, depth)
            if lead is not None:
                if op == "*" and not factors and type(node) in _ATOMS:
                    factors.append(node)
                    continue
                factors.insert(0, Const(lead))
                lead = None
            if op == "/":
                q = _quotient(_product(factors), node)
                if q is None:
                    _fail(text, "divisor must be constant or rational in t",
                          kop)
                factors = [q]
            elif _has_tfrac(node) or _has_tfrac(factors[0]):
                factors = [make_mul([_product(factors), node])]
            else:
                factors.append(node)
        if lead is not None:
            if negate:
                lead = -lead
            node = _scaled(lead, factors[0]) if factors else Const(lead)
        else:
            node = _product(factors)
            if negate:
                node = make_mul([_MINUS_ONE, node])
        terms.append(node)
        op = words[k]
        if op != "+" and op != "-":
            break
        negate = op == "-"
        k += 1
    # make_add flattens, so one call over all terms equals the left fold
    return (terms[0] if len(terms) == 1 else make_add(terms)), k


def _literal(words: list, j: int) -> tuple[int, int, int] | None:
    """(n, d, k) for the literal n/d at token j, k being the index of the
    token after it: the integer literal n, over the next digit literal d
    when a '/' joins them and d is not raised to a power, else over 1.
    None when token j is no digit literal or is raised to a power, or when
    a literal has more digits than int() converts.  A divisor 0 raises
    ParameterError."""
    w = words[j]
    if not w.isdigit() or words[j + 1] == "^":
        return None
    d, k = 1, j + 1
    try:
        n = int(w)
        if (words[k] == "/" and words[k + 1].isdigit()
                and words[k + 2] != "^"):
            d, k = int(words[k + 1]), k + 2
    except ValueError:      # more digits than int() converts: the literals
        return None         # are ordinary factors
    if not d:
        raise ParameterError("division by zero")
    return n, d, k


def _linear_call(name: str, words: list, k: int) -> tuple | None:
    """(node, index of the token after the ')') for the call of sin, cos or
    exp whose arguments start at token k, when the argument is c1*t or t,
    either negated, followed for sin and cos by an optional + c0 or - c0,
    each c a `_literal`; None for any other argument, which goes through
    `_sum` and `_build_call`.  The node equals theirs: the argument holds
    t, so c1 is the frequency, 0 included."""
    minus = words[k] == "-"
    j = k + 1 if minus else k
    if words[j] == "t":
        n1, d1, j = 1, 1, j + 1
    else:
        literal = _literal(words, j)
        if literal is None:
            return None
        n1, d1, j = literal
        if words[j] != "*" or words[j + 1] != "t":
            return None
        j += 2
    if minus:
        n1 = -n1
    n0, d0, sign = 0, 1, words[j]
    if name != "exp" and (sign == "+" or sign == "-"):
        literal = _literal(words, j + 1)
        if literal is None:
            return None
        n0, d0, j = literal
        if sign == "-":
            n0 = -n0
    if words[j] != ")":
        return None
    if name == "exp":
        return make_exp(Qi._canon(n1, 0, d1)), j + 1
    node = Sin if name == "sin" else Cos
    return node(Fraction(n1, d1), Fraction(n0, d0)), j + 1


def _factor(text: str, words: list, k: int, depth: int) -> tuple:
    """factor from token k, as (node, index of the token after it)."""
    w = words[k]
    minus = w == "-"
    if minus:
        k += 1
        w = words[k]
    k += 1
    if w == "t":
        node = _T
    elif w.isdigit():
        try:
            node = Const(Qi(int(w)))
        except ValueError:   # more digits than int() converts
            node = Const(Qi(Fraction(Decimal(w))))
    elif w == "(" or w in _FUNCTIONS:     # a group, or a call's arguments
        call = w != "("
        if call:
            if words[k] != "(":
                _fail(text, "expected '('", k)
            k += 1
        if depth >= _MAX_NESTING:
            _fail(text, "expression nested too deeply", k - 1)
        linear = _linear_call(w, words, k) if w in _LINEAR_CALLS else None
        if linear is not None:
            node, k = linear
        else:
            start, args = k, []
            if not call or words[k] != ")":
                node, k = _sum(text, words, k, depth + 1)
                args.append(node)
                while call and words[k] == ",":
                    node, k = _sum(text, words, k + 1, depth + 1)
                    args.append(node)
            if words[k] != ")":
                _fail(text, "expected ')'", k)
            k += 1
            if call:
                node = _build_call(w, args, "t" in words[start:k])
    elif w == "i":
        node = Const(_QI_I)
    else:
        head = w[:1]
        if head.isdecimal() or head == ".":     # a number with a point or
            node = Const(Qi(Fraction(Decimal(w))))   # an exponent
        elif head.isalpha() or head == "_":
            _fail(text, f"unknown identifier {w!r}", k - 1)
        else:
            _fail(text, "expected a number, 'i', 't', a function call, or "
                  "'('", k - 1)
    if words[k] == "^":
        w = words[k + 1]
        if not w.isdigit():
            _fail(text, "expected a nonnegative integer exponent", k + 1)
        try:
            e = int(w)
        except ValueError:   # more digits than int() converts
            _fail(text, "exponent too large", k + 1)
        k += 2
        node = Pow(_T, e) if node is _T and e > 1 else make_pow(node, e)
    if minus:
        node = make_mul([_MINUS_ONE, node])
    return node, k


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


def _linear_in_t(name: str, arg: SignalExpr,
                 timed: bool) -> tuple[Fraction, Fraction]:
    """(omega, phase) of the one argument c0 + c1*t of sin or cos.  An
    argument whose text names no t (timed false) is a constant c0, read as
    the frequency, so that sin(3) is sin(3*t); one whose text names t is
    read as written, so that sin(0*t + 3) is the constant sin(3)."""
    parts = _linear_coeffs(arg)
    if parts is None:
        raise ParameterError(
            f"{name} argument must be constant or linear in t")
    c0, c1 = parts
    if not (c0.is_real and c1.is_real):
        raise ParameterError(f"{name} argument must have real coefficients")
    if not timed:
        return c0.re, Fraction(0)
    return c1.re, c0.re


def _rate_times_t(arg: SignalExpr) -> Qi:
    parts = _linear_coeffs(arg)
    if parts is None or parts[0]:
        raise ParameterError("exp argument must be of the form a*t")
    return parts[1]


def _build_call(name: str, args: list, timed: bool) -> SignalExpr:
    """The node of a call: exp, sin and cos by their own rules, any other
    name by its row of `_CONST_CALLS`; timed tells whether the text of its
    arguments names t (`_linear_in_t`)."""
    n = len(args)
    if name == "exp":
        if n != 1:
            raise _arity_error("exp", "1 argument", n)
        return make_exp(_rate_times_t(args[0]))
    if name in ("sin", "cos"):
        node = Sin if name == "sin" else Cos
        if n == 1:
            omega, phase = _linear_in_t(name, args[0], timed)
        elif n == 2:
            omega = _const_real(name, args[0])
            phase = _const_real(name, args[1])
        else:
            raise _arity_error(name, "1 or 2 arguments", n)
        return node(omega, phase)
    count, words, node = _CONST_CALLS[name]
    if n != count:
        raise _arity_error(name, words, n)
    return node(*[_const_real(name, a) for a in args])


def parse(text: str) -> SignalExpr:
    """Parse expression text to a canonical AST.

    Raises SignalSyntaxError (with byte offset) for malformed input,
    including nesting deeper than `_MAX_NESTING` levels, and
    ParameterError for arity or parameter-domain violations.
    """
    words = _tokenize(text)
    node, k = _sum(text, words, 0, 0)
    if words[k]:
        _fail(text, f"unexpected trailing input {words[k]!r}", k)
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
        return (f"({pretty_print(_poly_tree(e.rat.num))})/"
                f"({pretty_print(_poly_tree(e.rat.den))})")
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
    name = _CALL_NAME.get(type(e))
    if name is not None:
        return f"{name}({', '.join(map(_pp_frac, e._astuple()))})"
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
