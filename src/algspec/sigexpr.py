"""Signal expression language: parser, canonical AST, symbolic time derivative.

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
_QI_ZERO, _QI_ONE = Qi(0), Qi(1)


def _rat_key(r: RatFunc):
    return (tuple(c.order_key for c in r.num.coeffs),
            tuple(c.order_key for c in r.den.coeffs))


def _key(e: SignalExpr):
    """Deterministic structural sort key; total over all node types."""
    if isinstance(e, Const):
        return (0, e.value.order_key)
    if isinstance(e, TimeVar):
        return (1, ())
    if isinstance(e, TFrac):
        return (2, _rat_key(e.rat))
    if isinstance(e, Exp):
        return (3, e.rate.order_key)
    if isinstance(e, Sin):
        return (4, (e.omega, e.phase))
    if isinstance(e, Cos):
        return (5, (e.omega, e.phase))
    if isinstance(e, Sinc):
        return (6, (e.omega,))
    if isinstance(e, RaisedCos):
        return (7, (e.omega,))
    if isinstance(e, Dirac):
        return (8, ())
    if isinstance(e, Delay):
        return (9, (e.lag,))
    if isinstance(e, Chirp):
        return (10, (e.a, e.b, e.c))
    if isinstance(e, Pow):
        return (11, (_key(e.base), e.k))
    if isinstance(e, Mul):
        return (12, tuple(_key(f) for f in e.factors))
    if isinstance(e, Add):
        return (13, tuple(_key(t) for t in e.terms))
    raise TypeError(f"not a signal expression: {e!r}")


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
    flat = []
    for t in terms:
        if isinstance(t, Add):
            flat.extend(t.terms)
        else:
            flat.append(t)
    const = Qi(0)
    rest = []
    for t in flat:
        if isinstance(t, Const):
            const = const + t.value
        else:
            rest.append(t)
    if const:
        rest.append(Const(const))
    if not rest:
        return Const(Qi(0))
    if len(rest) == 1:
        return rest[0]
    rest.sort(key=_key)
    return Add(tuple(rest))


def make_mul(factors) -> SignalExpr:
    flat = []
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    scalar = Qi(1)
    rat = None
    rest = []
    # A rational-in-t factor forces every other rational-in-t factor into a
    # single fraction; otherwise the same signal would admit two spellings
    # (t * (1/(t^2+1)) versus t/(t^2+1)).
    fold_rational = any(isinstance(f, TFrac) for f in flat)
    for f in flat:
        if isinstance(f, Const):
            scalar = scalar * f.value
            continue
        if fold_rational:
            r = as_ratfunc_in_t(f)
            if r is not None:
                rat = r if rat is None else rat * r
                continue
        rest.append(f)
    if not scalar:
        return Const(Qi(0))
    if rat is not None:
        rat = rat * RatFunc(scalar)
        scalar = Qi(1)
        if rat.is_zero:
            return Const(Qi(0))
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
    if scalar != Qi(1):
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
    if isinstance(den, Const):
        if not den.value:
            raise ParameterError("division by zero")
        if isinstance(num, Const):
            return Const(num.value / den.value)
    dr = as_ratfunc_in_t(den)
    if dr is None:
        raise SignalSyntaxError("divisor must be constant or rational in t",
                                offset)
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
        den = e.rat.den(complex(t))
        if den == 0:
            raise EvaluationError(f"rational factor has a pole at t = {t}")
        return e.rat.num(complex(t)) / den
    if isinstance(e, Dirac):
        raise EvaluationError("dirac impulse has no pointwise value")
    if isinstance(e, Delay):
        raise EvaluationError("standalone delay atom has no pointwise value")
    raise TypeError(f"not a signal expression: {e!r}")


# ---------------------------------------------------------------------------
# Tokenizer and parser


_TOKEN = re.compile(r"""
      (?P<ws>\s+)
    | (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>[-+*/^(),])
""", re.X)

_FUNCTIONS = ("exp", "sin", "cos", "sinc", "rcos", "dirac", "delay", "chirp")


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


def _tokenize(text: str):
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise SignalSyntaxError(f"unexpected character {text[pos]!r}",
                                    _byte_offset(text, pos))
        if m.lastgroup != "ws":
            toks.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, tokens):
        self.text = text
        self.toks = tokens
        self.k = 0

    def _peek(self):
        return self.toks[self.k]

    def _next(self):
        tok = self.toks[self.k]
        self.k += 1
        return tok

    def _offset(self, tok) -> int:
        return _byte_offset(self.text, tok[2])

    def _fail(self, message: str, tok):
        raise SignalSyntaxError(message, self._offset(tok))

    def _expect_op(self, op: str):
        tok = self._next()
        if tok[0] != "op" or tok[1] != op:
            self._fail(f"expected {op!r}", tok)

    def expr(self) -> SignalExpr:
        node = self.term()
        while self._peek()[0] == "op" and self._peek()[1] in "+-":
            op = self._next()[1]
            rhs = self.term()
            if op == "-":
                rhs = make_mul([Const(Qi(-1)), rhs])
            node = make_add([node, rhs])
        return node

    def term(self) -> SignalExpr:
        node = self.factor()
        while self._peek()[0] == "op" and self._peek()[1] in "*/":
            tok = self._next()
            rhs = self.factor()
            if tok[1] == "*":
                node = make_mul([node, rhs])
            else:
                node = make_div(node, rhs, self._offset(tok))
        return node

    def factor(self) -> SignalExpr:
        negate = False
        if self._peek()[0] == "op" and self._peek()[1] == "-":
            self._next()
            negate = True
        node = self.atom()
        if self._peek()[0] == "op" and self._peek()[1] == "^":
            self._next()
            tok = self._next()
            if tok[0] != "num" or not tok[1].isdigit():
                self._fail("expected a nonnegative integer exponent", tok)
            node = make_pow(node, int(tok[1]))
        if negate:
            node = make_mul([Const(Qi(-1)), node])
        return node

    def atom(self) -> SignalExpr:
        tok = self._next()
        kind, text, _ = tok
        if kind == "num":
            if text.isdigit():
                try:
                    return Const(Qi(int(text)))
                except ValueError:   # more digits than int() converts
                    pass
            return Const(Qi(Fraction(Decimal(text))))
        if kind == "ident":
            if text == "i":
                return Const(Qi(0, 1))
            if text == "t":
                return TimeVar()
            if text in _FUNCTIONS:
                return self.call(text, tok)
            self._fail(f"unknown identifier {text!r}", tok)
        if kind == "op" and text == "(":
            node = self.expr()
            self._expect_op(")")
            return node
        self._fail("expected a number, 'i', 't', a function call, or '('",
                   tok)

    def call(self, name: str, name_tok) -> SignalExpr:
        self._expect_op("(")
        args = []
        if not (self._peek()[0] == "op" and self._peek()[1] == ")"):
            args.append(self.expr())
            while self._peek()[0] == "op" and self._peek()[1] == ",":
                self._next()
                args.append(self.expr())
        self._expect_op(")")
        return _build_call(name, args)

    def done(self):
        tok = self._peek()
        if tok[0] != "end":
            self._fail(f"unexpected trailing input {tok[1]!r}", tok)


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
    including nesting deeper than the interpreter's recursion limit, and
    ParameterError for arity or parameter-domain violations.
    """
    parser = _Parser(text, _tokenize(text))
    try:
        node = parser.expr()
    except RecursionError:
        raise SignalSyntaxError("expression nested too deeply",
                                parser._offset(parser._peek())) from None
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
