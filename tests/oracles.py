"""Plain reference implementations of the parser, of the reading of a tree
as a rational function of t, of the expansion to
exponential-polynomial terms, of the text of a polynomial and of an
operator coefficient, of the polynomial lcm, of pointwise values, of the
derivatives behind Phi and the Taylor truncation, of the catalog equations
and of the roots of a quadratic, kept as test oracles, and the random
grammar texts the parser is compared on.

`parse` tokenizes one match at a time, walks the tokens through peek and
next calls, and folds every sum and product left, two operands at a time,
with canonical constructors that sort by a structural key walked afresh on
each call, and reads a tree as a rational function of t by `RatFunc`
arithmetic on every node (`ratfunc_in_t`), where the library reads a
polynomial tree whole.  `terms_of` expands with isinstance dispatch and
builds every polynomial through the `CPoly` constructor, where the library
reads a polynomial in t as one `CPoly`.  `cpoly_format` prints a
polynomial from its `Qi` coefficients, where the library prints from its
integers, and
`coeff_text` wraps a Weyl-operator coefficient by scanning its text for
balanced parentheses, where the library decides from the value.
`evaluate` walks the expression tree in floats, `diff_time` differentiates
it symbolically, and `phi_symbolic` and `taylor_truncate` evaluate those
derivatives, where the library reads values and derivatives off one
truncated Taylor series (`sigexpr._jet`); `exppoly_taylor` sums the
series of each term of an exponential polynomial, which the exact series
at t = 0 of its signal must equal.  `catalog_equation` builds
every value through the generic constructors, where the library builds
each in its canonical form, and `quadratic_roots` solves a monic quadratic
by `Qi` arithmetic on its coefficients, where the library stays on its
Gaussian integers.
`tone_dft_dominant` samples a tone and reads its dominant bins through the
public `dft`, with its validation and its tuples, where the contrast
report reuses one cached grid and the DFT kernels on arrays.  Neither
shortcut of the library is used, so agreement checks them.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

from hypothesis import strategies as st

from algspec.instfreq import _real_part
from algspec.opcalc import ExpPoly
from algspec.ratfield import CPoly, Qi, RatFunc, poly_gcd
from algspec.sigexpr import (Add, Chirp, Const, Cos, Delay, Dirac, Exp, Mul,
                             EvaluationError, ParameterError, Pow, RaisedCos,
                             SignalClass, SignalExpr, SignalSyntaxError, Sin,
                             Sinc, TFrac, TimeVar, ExpressionError, _T_POLY,
                             _angle, _build_call, _cexp, _finite, _rat_key,
                             _tfrac, classify, make_add, make_mul, make_pow,
                             split_scale)
from algspec.weylode import OdeSystem, WeylOp


# ---------------------------------------------------------------------------
# Canonical constructors


def ratfunc_in_t(e: SignalExpr) -> RatFunc | None:
    """e as an element of C(t), by `RatFunc` arithmetic on every node, or
    None when it is not one."""
    if isinstance(e, Const):
        return RatFunc(e.value)
    if isinstance(e, TimeVar):
        return RatFunc(_T_POLY)
    if isinstance(e, TFrac):
        return e.rat
    if isinstance(e, Add):
        acc = RatFunc.ZERO
        for t in e.terms:
            r = ratfunc_in_t(t)
            if r is None:
                return None
            acc = acc + r
        return acc
    if isinstance(e, Mul):
        acc = RatFunc.ONE
        for f in e.factors:
            r = ratfunc_in_t(f)
            if r is None:
                return None
            acc = acc * r
        return acc
    if isinstance(e, Pow):
        r = ratfunc_in_t(e.base)
        return None if r is None else r ** e.k
    return None


def key(e: SignalExpr):
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
        return (11, (key(e.base), e.k))
    if isinstance(e, Mul):
        return (12, tuple(key(f) for f in e.factors))
    if isinstance(e, Add):
        return (13, tuple(key(t) for t in e.terms))
    raise TypeError(f"not a signal expression: {e!r}")


def add(terms) -> SignalExpr:
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
    rest.sort(key=key)
    return Add(tuple(rest))


def mul(factors) -> SignalExpr:
    flat = []
    for f in factors:
        if isinstance(f, Mul):
            flat.extend(f.factors)
        else:
            flat.append(f)
    scalar = Qi(1)
    rat = None
    rest = []
    fold_rational = any(isinstance(f, TFrac) for f in flat)
    for f in flat:
        if isinstance(f, Const):
            scalar = scalar * f.value
            continue
        if fold_rational:
            r = ratfunc_in_t(f)
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
    rest.sort(key=key)
    return Mul(tuple(rest))


def div(num: SignalExpr, den: SignalExpr, offset: int) -> SignalExpr:
    if isinstance(den, Const):
        if not den.value:
            raise ParameterError("division by zero")
        if isinstance(num, Const):
            return Const(num.value / den.value)
    dr = ratfunc_in_t(den)
    if dr is None:
        raise SignalSyntaxError("divisor must be constant or rational in t",
                                offset)
    if dr.is_zero:
        raise ParameterError("division by zero")
    nr = ratfunc_in_t(num)
    if nr is not None:
        return _tfrac(nr / dr)
    return mul([num, _tfrac(RatFunc.ONE / dr)])


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
                rhs = mul([Const(Qi(-1)), rhs])
            node = add([node, rhs])
        return node

    def term(self) -> SignalExpr:
        node = self.factor()
        while self._peek()[0] == "op" and self._peek()[1] in "*/":
            tok = self._next()
            rhs = self.factor()
            if tok[1] == "*":
                node = mul([node, rhs])
            else:
                node = div(node, rhs, self._offset(tok))
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
            if len(tok[1]) > sys.get_int_max_str_digits() > 0:
                self._fail("exponent too large", tok)
            node = make_pow(node, int(tok[1]))
        if negate:
            node = mul([Const(Qi(-1)), node])
        return node

    def atom(self) -> SignalExpr:
        tok = self._next()
        kind, text, _ = tok
        if kind == "num":
            if text.isdigit():
                try:
                    return Const(Qi(int(text)))
                except ValueError:
                    pass
            return Const(Qi(Fraction(Decimal(text))))
        if kind == "ident":
            if text == "i":
                return Const(Qi(0, 1))
            if text == "t":
                return TimeVar()
            if text in _FUNCTIONS:
                return self.call(text)
            self._fail(f"unknown identifier {text!r}", tok)
        if kind == "op" and text == "(":
            node = self.expr()
            self._expect_op(")")
            return node
        self._fail("expected a number, 'i', 't', a function call, or '('",
                   tok)

    def call(self, name: str) -> SignalExpr:
        self._expect_op("(")
        start = self.k
        args = []
        if not (self._peek()[0] == "op" and self._peek()[1] == ")"):
            args.append(self.expr())
            while self._peek()[0] == "op" and self._peek()[1] == ",":
                self._next()
                args.append(self.expr())
        # whether the arguments' text names t: sin(3) reads 3 as the
        # frequency, sin(0*t + 3) is the constant sin(3)
        timed = any(tok[:2] == ("ident", "t")
                    for tok in self.toks[start:self.k])
        self._expect_op(")")
        return _build_call(name, args, timed)

    def done(self):
        tok = self._peek()
        if tok[0] != "end":
            self._fail(f"unexpected trailing input {tok[1]!r}", tok)


def parse(text: str) -> SignalExpr:
    parser = _Parser(text, _tokenize(text))
    node = parser.expr()
    parser.done()
    return node


# ---------------------------------------------------------------------------
# Expansion to terms


def _phase_factor(phase: Fraction) -> Qi:
    if phase == 0:
        return Qi(1)
    f = float(phase)
    return Qi(Fraction(math.cos(f)), Fraction(math.sin(f)))


def terms_of(e: SignalExpr) -> dict[Qi, CPoly]:
    if isinstance(e, Const):
        return {Qi(0): CPoly([e.value])}
    if isinstance(e, TimeVar):
        return {Qi(0): CPoly([0, 1])}
    if isinstance(e, Exp):
        return {e.rate: CPoly.ONE}
    if isinstance(e, (Sin, Cos)):
        w = Qi(0, e.omega)
        ph = _phase_factor(e.phase)
        if isinstance(e, Sin):
            c_plus = ph / (2 * Qi(0, 1))
            c_minus = -(ph.conjugate()) / (2 * Qi(0, 1))
        else:
            c_plus = ph * Qi(Fraction(1, 2))
            c_minus = ph.conjugate() * Qi(Fraction(1, 2))
        out: dict[Qi, CPoly] = {}
        for rate, c in ((w, c_plus), (-w, c_minus)):
            out[rate] = out.get(rate, CPoly.ZERO) + CPoly([c])
        return out
    if isinstance(e, Add):
        out = {}
        for term in e.terms:
            for rate, poly in terms_of(term).items():
                out[rate] = out.get(rate, CPoly.ZERO) + poly
        return out
    if isinstance(e, Mul):
        acc = None
        for factor in e.factors:
            terms = terms_of(factor)
            acc = terms if acc is None else _convolve(acc, terms)
        return acc
    if isinstance(e, Pow):
        k = e.k
        if isinstance(e.base, TimeVar):
            return {Qi(0): CPoly._make((0,) * k + (1,), (0,) * (k + 1), 1)}
        acc, base = {Qi(0): CPoly.ONE}, terms_of(e.base)
        while k:
            if k & 1:
                acc = _convolve(acc, base)
            k >>= 1
            if k:
                base = _convolve(base, base)
        return acc
    raise ExpressionError("expression is not an exponential polynomial")


def _convolve(a: dict[Qi, CPoly], b: dict[Qi, CPoly]) -> dict[Qi, CPoly]:
    out: dict[Qi, CPoly] = {}
    for ra, pa in a.items():
        for rb, pb in b.items():
            rate = ra + rb
            out[rate] = out.get(rate, CPoly.ZERO) + pa * pb
    return out


# ---------------------------------------------------------------------------
# Polynomial text


def _coeff_str(c: Qi) -> str:
    s = str(c)
    if "/" in s and not s.startswith("("):
        return f"({s})"
    return s


def _term_str(c: Qi, k: int) -> str:
    if k == 0:
        return _coeff_str(c)
    vtxt = "s" if k == 1 else f"s^{k}"
    if c == Qi(1):
        return vtxt
    if c == Qi(-1):
        return "-" + vtxt
    return f"{_coeff_str(c)}{vtxt}"


def cpoly_format(p: CPoly) -> str:
    """The text of p, term by term from the `Qi` coefficients."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if not c:
            continue
        txt = _term_str(c, k)
        if parts and not txt.startswith("-"):
            parts.append("+ " + txt)
        elif parts:
            parts.append("- " + txt[1:])
        else:
            parts.append(txt)
    return " ".join(parts)


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


def coeff_text(r: RatFunc) -> str:
    """The text of a Weyl-operator coefficient, read off its printed text:
    in parentheses when it holds a space or a fraction bar, unless one pair
    of parentheses already wraps all of it."""
    txt = r.format()
    if (" " in txt or "/" in txt) and not _fully_wrapped(txt):
        return f"({txt})"
    return txt


# ---------------------------------------------------------------------------
# Polynomial lcm


def poly_lcm(polys) -> CPoly:
    """Monic least common multiple of monic polynomials."""
    acc = CPoly.ONE
    # largest first: the later ones then mostly divide acc, a cheap gcd
    for p in sorted(set(polys), key=lambda p: -p.degree):
        if p.degree > 0:
            acc = acc * (p // poly_gcd(acc, p))
    return acc


# ---------------------------------------------------------------------------
# Values by a tree walk, derivatives by symbolic differentiation


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
    """Pointwise value at time t; sinc takes its limit value at t = 0.  A
    time that is not finite is refused, and an angle or a value that
    overflows raises OverflowError."""
    if not math.isfinite(t):
        raise EvaluationError(f"time must be finite, got {t}")
    return _finite(_evaluate(e, t), t)


def _evaluate(e: SignalExpr, t: float) -> complex:
    """`evaluate` at a finite t, its value not yet checked."""
    if isinstance(e, Const):
        return complex(e.value)
    if isinstance(e, TimeVar):
        return complex(t)
    if isinstance(e, Add):
        return sum(_evaluate(term, t) for term in e.terms)
    if isinstance(e, Mul):
        acc = 1 + 0j
        for f in e.factors:
            acc *= _evaluate(f, t)
        return acc
    if isinstance(e, Pow):
        return _evaluate(e.base, t) ** e.k
    if isinstance(e, Exp):
        return _cexp(complex(e.rate) * t)
    if isinstance(e, Sin):
        return complex(math.sin(_angle(float(e.omega) * t + float(e.phase))))
    if isinstance(e, Cos):
        return complex(math.cos(_angle(float(e.omega) * t + float(e.phase))))
    if isinstance(e, Sinc):
        w = float(e.omega)
        if t == 0:
            return complex(w)
        return complex(math.sin(_angle(w * t)) / t)
    if isinstance(e, RaisedCos):
        return complex(math.cos(_angle(float(e.omega) * t)) / (t * t + 1.0))
    if isinstance(e, Chirp):
        a, b, c = float(e.a), float(e.b), float(e.c)
        return cmath.exp(1j * _angle(a * t * t + b * t + c))
    if isinstance(e, TFrac):
        # a finite t is a pole when the exact denominator vanishes there:
        # at a root such as t = 1/2 of t^2 - 5/6*t + 1/6 its float value
        # rounds to a tiny nonzero number
        den = e.rat.den(complex(t))
        if den == 0 or not e.rat.den.at(Qi.coerce(Fraction(t))):
            raise EvaluationError(f"rational factor has a pole at t = {t}")
        return e.rat.num(complex(t)) / den
    if isinstance(e, Dirac):
        raise EvaluationError("dirac impulse has no pointwise value")
    if isinstance(e, Delay):
        raise EvaluationError("standalone delay atom has no pointwise value")
    raise TypeError(f"not a signal expression: {e!r}")




def _sinc_jets(e: SignalExpr) -> SignalExpr:
    """e with every sinc(w) under sums, products and powers replaced by its
    2-jet w - w^3 t^2/6, which has the same value and first two derivatives
    at t = 0."""
    if isinstance(e, Sinc):
        return make_add([Const(Qi(e.omega)),
                         make_mul([Const(Qi(-e.omega ** 3 / 6)),
                                   Pow(TimeVar(), 2)])])
    if isinstance(e, Add):
        return make_add([_sinc_jets(x) for x in e.terms])
    if isinstance(e, Mul):
        return make_mul([_sinc_jets(x) for x in e.factors])
    if isinstance(e, Pow):
        return make_pow(_sinc_jets(e.base), e.k)
    return e


def phi_symbolic(e: SignalExpr, t: float) -> float:
    """Phi(t) from symbolic first and second time derivatives; at t = 0
    they are taken of `_sinc_jets(e)`, and a rational factor with a pole
    there is refused even where the other factors cancel it."""
    d1 = diff_time(_sinc_jets(e) if t == 0 else e)
    d2 = diff_time(d1)
    _real_part("signal", evaluate(e, t))
    x1 = _real_part("first derivative", evaluate(d1, t))
    x2 = _real_part("second derivative", evaluate(d2, t))
    return x2 / math.sqrt(1.0 + x1 * x1)


def taylor_truncate(e: SignalExpr, t0: float, order: int) -> ExpPoly:
    """The Taylor polynomial of e at t0 from iterated symbolic derivatives,
    each evaluated at t0 and divided by k!."""
    base = CPoly([Qi.coerce(-Fraction(t0)), Qi(1)])   # (t - t0)
    acc = CPoly.ZERO
    d = e
    for k in range(order + 1):
        coeff = Qi.coerce(evaluate(d, t0)) / Qi(math.factorial(k))
        if coeff:
            acc = acc + base ** k * coeff
        if k < order:
            d = diff_time(d)
    return ExpPoly(((Qi(0), acc),))


def exppoly_taylor(x: ExpPoly, order: int) -> list[Qi]:
    """The Taylor coefficients c_0..c_order at t = 0 of the exponential
    polynomial x, in Q(i): each term P(t) e^(rt) adds p_i r^j / j! to
    c_(i+j)."""
    out = [Qi(0)] * (order + 1)
    for rate, poly in x.terms:
        for i, p in enumerate(poly.coeffs[:order + 1]):
            for j in range(order + 1 - i):
                out[i + j] = out[i + j] + p * rate ** j / Qi(math.factorial(j))
    return out


# ---------------------------------------------------------------------------
# Catalog equations and quadratic roots


def catalog_equation(e: SignalExpr) -> OdeSystem:
    """The defining equation of a scaled catalog atom, every value built by
    the generic `CPoly` and `RatFunc` constructors and the scale entering
    as a `RatFunc` product."""
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


def sqrt_qi(z: Qi) -> Qi | None:
    """A square root of z = w/d in Q(i), or None: (u + i*v)/d where
    (u + i*v)^2 = w*d, so u^2 - v^2 = Re(w*d) and u^2 + v^2 = |w*d|."""
    x, y, d = z._a * z._d, z._b * z._d, z._d
    n = math.isqrt(x * x + y * y)
    u, v = math.isqrt((n + x) // 2), math.isqrt((n - x) // 2)
    v = -v if y < 0 else v
    return Qi._canon(u, v, d) if (u * u - v * v, 2 * u * v) == (x, y) else None


def quadratic_roots(f: CPoly) -> tuple[Qi, Qi] | None:
    """The roots of a monic quadratic f in Q(i), by `Qi` arithmetic on its
    coefficients: those of s^2 + b*s + c are (-b +- r)/2 for
    r^2 = b^2 - 4c, else None."""
    c, b = f.coeffs[:2]
    r = sqrt_qi(b * b - 4 * c)
    return None if r is None else ((r - b) / 2, (-r - b) / 2)


def tone_dft_dominant(atom: Sin) -> tuple:
    """The two dominant DFT bins of sin(w*t + phase) on 256 times 0.05
    apart: the samples wrapped in a `SampledSignal` and sent to `dft`."""
    import numpy as np

    from algspec.fouriercontrast import dft
    from algspec.instfreq import SampledSignal

    times = np.arange(256) * 0.05
    phases = times * float(atom.omega) + float(atom.phase)
    values = np.fromiter(map(math.sin, phases.tolist()), float, 256)
    return dft(SampledSignal(times, values)).dominant_frequencies(2)


# ---------------------------------------------------------------------------
# Random grammar texts


_numbers = st.one_of(
    st.integers(0, 12).map(str),
    st.builds("{}.{}".format, st.integers(0, 9), st.integers(0, 99)),
    st.builds(".{}".format, st.integers(0, 99)),
    st.builds("{}.".format, st.integers(0, 9)),
    st.builds("{}{}{}{}".format, st.sampled_from(["1", "2.5", ".5", "3."]),
              st.sampled_from("eE"), st.sampled_from(["", "+", "-"]),
              st.integers(0, 3)),
)
_divisors = st.one_of(
    _numbers, st.just("0"),
    st.sampled_from(["t", "(t^2 + 1)", "(2*t + 1)", "(t - 1)", "(t^2 - 4)",
                     "(t - t)", "(1 + i*t)", "(t^2 + 1)^2", "(1 + t)^2"]),
)
_linear = st.builds("{}{}*t{}".format, st.sampled_from(["", "-"]), _numbers,
                    st.sampled_from(["", " + 1/2", " - 3"]))
_exponents = st.one_of(st.integers(0, 3).map(str),
                       st.sampled_from(["t", "1.5", "-1", "(2)", ""]))


# the argument count drawn most often for each function
_ARITY = {"exp": 1, "sin": 1, "cos": 2, "sinc": 1, "rcos": 1, "dirac": 0,
          "delay": 1, "chirp": 3}


@st.composite
def _atom(draw, depth: int) -> str:
    choices = ["number", "i", "t", "t"] + (["call", "call", "paren"]
                                           if depth > 0 else [])
    kind = draw(st.sampled_from(choices))
    if kind == "number":
        return draw(_numbers)
    if kind in ("i", "t"):
        return kind
    if kind == "paren":
        return f"({draw(_expr(depth - 1))})"
    name = draw(st.sampled_from(_FUNCTIONS))
    n = draw(st.sampled_from([_ARITY[name]] * 4 + [0, 1, 2, 3]))
    args = [draw(st.one_of(_numbers, _linear, _expr(depth - 1)))
            for _ in range(n)]
    return f"{name}({', '.join(args)})"


@st.composite
def _factor(draw, depth: int) -> str:
    text = draw(_atom(depth))
    if draw(st.integers(0, 5)) == 0:
        text += "^" + draw(_exponents)
    if draw(st.integers(0, 4)) == 0:
        text = "-" + text
    return text


@st.composite
def _term(draw, depth: int) -> str:
    text = draw(_factor(depth))
    for _ in range(draw(st.integers(0, 2))):
        step = draw(st.sampled_from(["*", "/", "cancel"]))
        if step == "*":
            text += "*" + draw(_factor(depth))
        elif step == "/":
            text += "/" + draw(st.one_of(_divisors, _factor(depth)))
        else:   # a rational factor that the next cancels, then a power
            divisor = draw(_divisors)
            text += f"/{divisor}*{divisor}*" + draw(st.sampled_from(
                ["t", "t^2", "(1 + t)^2", "(t - 1)*(t + 2)"]))
    return text


@st.composite
def _expr(draw, depth: int) -> str:
    text = draw(_term(depth))
    for _ in range(draw(st.integers(0, 2))):
        text += draw(st.sampled_from([" + ", " - ", "+", "-"]))
        text += draw(_term(depth))
    return text


@st.composite
def _malformed(draw) -> str:
    text = draw(_expr(2))
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(["cut", "drop", "insert"]))
    if edit == "cut":
        return text[:at]
    if edit == "drop":
        return text[:at] + text[at + 1:]
    return text[:at] + draw(st.sampled_from(
        list("@é.()^,*/+-") + [" ", "x", "sinc", "1e", "٣"])) + text[at:]


well_formed_texts = _expr(2)
signal_texts = st.one_of(_expr(2), _expr(2), _malformed())
