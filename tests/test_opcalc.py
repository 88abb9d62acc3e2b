"""Exponential polynomials, their rational images, and the inverse map."""

import functools
import math
import random
import runpy
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

import algspec.ratfield as ratfield
from algspec import opcalc, sigexpr
from algspec.opcalc import (ExpPoly, _convolve, _terms_of, dirac_image,
                            from_signal, mult_by_minus_t,
                            spectrum_of_exppoly, taylor_truncate, to_exppoly,
                            to_rational)
from algspec.ratfield import CPoly, Qi, RatFunc, RootFindingError, \
    alg_deriv, poles, spectrum_of_rational
from algspec.sigexpr import (Add, Cos, EvaluationError, ExpressionError,
                             Pow, SignalClass, Sin, _jet, _poly_tree,
                             classify, evaluate, make_add, make_exp,
                             make_mul, parse, pretty_print)

_S = CPoly([0, 1])
DIGEST = Path(__file__).resolve().parent.parent / "tools" / "digest_outputs.py"


def _rand_rate(rng, span=3):
    return Qi(Fraction(rng.randint(-span, span)),
              Fraction(rng.randint(-span, span)))


def _rand_exppoly(rng, max_rates=4, max_deg=4):
    rates = set()
    while len(rates) < rng.randint(1, max_rates):
        rates.add(_rand_rate(rng))
    terms = []
    for rate in rates:
        coeffs = [Qi(Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                     Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
                  for _ in range(rng.randint(0, max_deg) + 1)]
        poly = CPoly(coeffs)
        if poly.is_zero:
            poly = CPoly.ONE
        terms.append((rate, poly))
    return ExpPoly(tuple(terms))


def _rand_mixture(rng, max_rates=9, max_mult=4, rate_den=4, coeff_den=2):
    """Distinct rates with decay and frequency in steps of 1/rate_den, each
    with a polynomial of degree below max_mult, coefficients in steps of
    1/coeff_den and a nonzero leading coefficient."""
    rates = set()
    span = 2 * rate_den
    while len(rates) < rng.randint(1, max_rates):
        rates.add(Qi(Fraction(rng.randint(-span, 0), rate_den),
                     Fraction(rng.randint(-span, span), rate_den)))
    terms = []
    for rate in sorted(rates, key=lambda q: (q.re, q.im)):
        coeffs = [Qi(Fraction(rng.randint(-5, 5), coeff_den),
                     Fraction(rng.randint(-5, 5), coeff_den))
                  for _ in range(rng.randint(1, max_mult))]
        if not coeffs[-1]:
            coeffs[-1] = Qi(1)
        terms.append((rate, CPoly(coeffs)))
    return ExpPoly(tuple(terms))


def _image_term_by_term(x: ExpPoly) -> RatFunc:
    """The image summed one monomial at a time in C(s), with the gcd of
    every sum: the reference for the gcd-free to_rational."""
    acc = RatFunc.ZERO
    for rate, poly in x.terms:
        base = RatFunc(CPoly.ONE, CPoly([-rate, 1]))
        for k, c in enumerate(poly.coeffs):
            if c:
                term = RatFunc(c * Qi(math.factorial(k))) * base ** (k + 1)
                acc = acc + term
    return acc


def _image_by_running_products(x: ExpPoly) -> RatFunc:
    """The image as a running sum of CPoly products, one rate at a time,
    Horner in (s - a) for its numerator: the reference for the
    Gaussian-integer to_rational."""
    num, den = CPoly.ZERO, CPoly.ONE
    for rate, poly in x.terms:
        lin = CPoly([-rate, 1])
        local = CPoly.ZERO
        fact = 1
        for k, c in enumerate(poly.coeffs):
            fact *= k or 1
            local = local * lin + CPoly([c * Qi(fact)])
        factor = lin ** len(poly.coeffs)
        num = num * factor + local * den
        den = den * factor
    return RatFunc._from_reduced(num, den)


def _rand_strictly_proper(rng, max_den_deg=5):
    den_deg = rng.randint(1, max_den_deg)
    den = CPoly([Qi(rng.randint(-4, 4)) for _ in range(den_deg)] + [Qi(1)])
    num = CPoly([Qi(rng.randint(-4, 4)) for _ in range(den_deg)])
    while num.is_zero:
        num = CPoly([Qi(rng.randint(-4, 4)) for _ in range(den_deg)])
    return RatFunc(num, den)


def _rat_close(a: RatFunc, b: RatFunc, tol=1e-9) -> bool:
    """Coefficient-wise agreement of two reduced rational functions."""
    if a.den.degree != b.den.degree:
        return False
    width_n = max(len(a.num.coeffs), len(b.num.coeffs))
    width_d = max(len(a.den.coeffs), len(b.den.coeffs))
    for ca, cb, width in ((a.num.coeffs, b.num.coeffs, width_n),
                          (a.den.coeffs, b.den.coeffs, width_d)):
        pa = list(ca) + [Qi(0)] * (width - len(ca))
        pb = list(cb) + [Qi(0)] * (width - len(cb))
        scale = 1 + max(abs(complex(c)) for c in pa + pb)
        if any(abs(complex(x) - complex(y)) > tol * scale
               for x, y in zip(pa, pb)):
            return False
    return True


# --- expansion to canonical terms --------------------------------------------


def test_a_repeated_rate_is_merged_and_a_zero_sum_dropped():
    x = ExpPoly(((1, [1]), (1, [2]), (2, [1]), (2, [-1])))
    assert x == ExpPoly(((1, [3]),))
    assert x.terms == ((Qi(1), CPoly([3])),)


def test_both_constructors_give_the_rate_order():
    rates = [Qi(1, -1), Qi(0, 3), Qi(-2), Qi(0, -3), Qi(1, 1), Qi(0),
             Qi(Fraction(-1, 2), 5)]
    terms = {rate: CPoly([k + 1, 0, Qi(0, k)]) for k, rate in enumerate(rates)}
    terms[Qi(7)] = CPoly.ZERO
    for order in (rates, rates[::-1]):
        items = tuple((rate, terms[rate]) for rate in order)
        x = ExpPoly(items + ((Qi(7), CPoly.ZERO),))
        assert x.terms == ExpPoly._from_terms(dict(items)).terms
        assert [r for r, _ in x.terms] == sorted(
            rates, key=lambda q: (q.re, q.im))
    assert ExpPoly._from_terms(terms) == x


def test_tone_terms_are_the_euler_pair():
    x = from_signal(parse("sin(3*t)"))
    assert len(x.terms) == 2
    terms = dict(x.terms)
    half_i = Qi(0, Fraction(1, 2))
    assert terms[Qi(0, -3)] == CPoly.scalar(half_i)
    assert terms[Qi(0, 3)] == CPoly.scalar(-half_i)


def test_damped_monomial_single_term():
    x = from_signal(parse("t^2*exp(-t)"))
    assert x.terms == ((Qi(-1), CPoly([0, 0, 1])),)


def test_squared_tone_rates_and_constants():
    x = from_signal(parse("sin(t)^2"))
    terms = dict(x.terms)
    quarter = Qi(Fraction(-1, 4))
    assert terms[Qi(0, 2)] == CPoly.scalar(quarter)
    assert terms[Qi(0, -2)] == CPoly.scalar(quarter)
    assert terms[Qi(0)] == CPoly.scalar(Qi(Fraction(1, 2)))
    rng = random.Random(2301)
    e = parse("sin(t)^2")
    for _ in range(20):
        t = rng.uniform(0, 5)
        assert abs(x.evaluate(t) - evaluate(e, t)) <= 1e-12


def test_expansion_agrees_with_evaluation():
    rng = random.Random(2302)
    exprs = ["(t+1)*cos(2*t)", "exp(-t)*sin(t) + t^2",
             "(sin(t) + cos(t))^2", "2*exp(i*t)", "sin(2*t + 1/2)"]
    for text in exprs:
        e = parse(text)
        x = from_signal(e)
        for _ in range(10):
            t = rng.uniform(0, 4)
            assert abs(x.evaluate(t) - evaluate(e, t)) <= 1e-9, text


@pytest.mark.parametrize("text", ["sin(2*t)", "cos(3*t)", "exp(2*i*t)",
                                  "t*exp(-t)"])
def test_expansion_evaluate_refuses_as_evaluate_does(text):
    e = parse(text)
    x = from_signal(e)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(EvaluationError, match="finite"):
            x.evaluate(t)
    if text != "t*exp(-t)":
        with pytest.raises(OverflowError, match="float range"):
            x.evaluate(1e308)
    assert abs(x.evaluate(1.5) - evaluate(e, 1.5)) <= 1e-12


@pytest.mark.parametrize("text", ["exp(2*t)*sin(t)", "exp(2*t)"])
def test_a_value_beyond_the_float_range_is_an_overflow(text):
    # the rate overflows at a finite t while the angle stays finite; both
    # routes used to return nan or inf
    e = parse(text)
    for value in (lambda t: evaluate(e, t), from_signal(e).evaluate):
        with pytest.raises(OverflowError, match="float range"):
            value(1e308)
        assert abs(value(1.5) - evaluate(e, 1.5)) <= 1e-12


def _power_by_repeated_products(base, k):
    """The expansion of base^k as k products with the base: the reference
    for the monomial and binary-powering routes."""
    acc, terms = {Qi(0): CPoly.ONE}, _terms_of(base)
    for _ in range(k):
        acc = _convolve(acc, terms)
    return ExpPoly(tuple(acc.items()))


@pytest.mark.parametrize("base", [
    "t", "t + 1", "sin(t)", "sin(t) + cos(2*t) + exp(-t)", "t*exp(i*t)",
    "(1/2 - t)*cos(3/8*t)*exp(-1/8*t)",
])
def test_powers_match_repeated_products(base):
    e = parse(base)
    for k in range(10):
        assert from_signal(Pow(e, k)) == _power_by_repeated_products(e, k)


def test_a_power_of_t_is_its_monomial():
    x = from_signal(parse("t^3000"))
    assert x.terms == ((Qi(0), CPoly([0] * 3000 + [1])),)


def test_from_signal_rejects_other_classes():
    for text in ("sinc(2)", "dirac()", "2*dirac()", "t*sin(t) + rcos(1)",
                 "exp(-t)*t/(t^2 + 1)"):
        with pytest.raises(ExpressionError,
                           match="^expression is not an exponential "
                                 "polynomial$"):
            from_signal(parse(text))


def test_from_signal_refuses_before_it_expands():
    # expanding the power first took seconds before the impulse was met
    e = parse("(t+1)^3000 + t*dirac()")
    start = time.perf_counter()
    with pytest.raises(ExpressionError,
                       match="^expression is not an exponential polynomial$"):
        from_signal(e)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text", [
    "t + t", "t^2 - t^2 + 1", "2*t + 3*t - 5*t", "i*t + 1/3",
    "2.5e-3*t^4 - t", "(t + t)*exp(-t)", "t^3 + sin(t)"])
def test_polynomial_sums_expand_as_the_reference(text):
    # like terms are summed, never overwritten, and a sum with a term of
    # another shape goes to the dict fold
    e = parse(text)
    assert from_signal(e) == ExpPoly(tuple(oracles.terms_of(e).items()))
    for node in (e, *getattr(e, "factors", ())):
        if type(node) is Add:
            whole = sigexpr._polynomial(node)
            assert (whole is None) == (text == "t^3 + sin(t)")


def test_a_polynomial_sum_makes_no_products(monkeypatch):
    # one product with the cosine and one with the exponential, and none
    # for the polynomial's monomials
    e = parse("(1/2 - 3/2*t + 5/2*t^3)*cos(3/8*t)*exp(-5/8*t)")
    calls = []

    def counting_convolve(a, b):
        calls.append(None)
        return _convolve(a, b)

    monkeypatch.setattr(opcalc, "_convolve", counting_convolve)
    got = _terms_of(e)
    assert len(calls) == 2
    monkeypatch.undo()
    assert got == oracles.terms_of(e)


@pytest.mark.parametrize("x, text", [
    (ExpPoly(()), "0"),
    (ExpPoly(((0, CPoly([3])),)), "3"),
    (ExpPoly(((0, CPoly([Fraction(1, 2), 0, -1])),)), "1/2 - 1*t^2"),
    (ExpPoly(((Qi(Fraction(-1, 2), 2), CPoly([Qi(0, Fraction(-3, 4))])),)),
     "-3/4*i*exp((-1/2 + 2*i)*t)"),
    (ExpPoly(((-1, CPoly([0, Fraction(2, 3), 1])), (Qi(0, 1), CPoly([1])))),
     "exp(i*t) + exp(-t)*(t^2 + 2/3*t)"),
    (ExpPoly(((-1, CPoly([Qi(1 / 3)])),)),
     "6004799503160661/18014398509481984*exp(-t)"),
])
def test_exppoly_text(x, text):
    # the zero signal, a constant, a rate-0 polynomial, a complex rate with
    # a constant polynomial, a polynomial of degree > 0 in parentheses, and
    # a float-origin coefficient as its exact dyadic fraction: the text is
    # pretty_print's, and it reads back to the signal
    assert x.format() == text
    assert from_signal(parse(text)) == x


_exppoly_parts = st.one_of(
    st.builds(Fraction, st.integers(-45, 45), st.integers(1, 9)),
    st.floats(-1e6, 1e6).map(Fraction),
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
)
_exppoly_scalars = st.builds(Qi, _exppoly_parts, _exppoly_parts)
_drawn_exppolys = st.lists(
    st.tuples(_exppoly_scalars,
              st.lists(_exppoly_scalars, min_size=1, max_size=5)),
    max_size=4,
).map(lambda terms: ExpPoly(tuple((r, CPoly(c)) for r, c in terms)))


@functools.cache
def _corpus_signals() -> list:
    """The inverse images of the strictly proper images of
    tools/digest_outputs.py's `roots_corpus`: float-origin dyadic rates and
    coefficients, and up to 70 terms."""
    corpus = runpy.run_path(str(DIGEST))["roots_corpus"](parse)
    return [to_exppoly(r) for r in corpus if r.is_strictly_proper]


@settings(max_examples=200, deadline=None)
@given(st.one_of(_drawn_exppolys, st.deferred(
    lambda: st.sampled_from(_corpus_signals()))))
@example(ExpPoly(()))
def test_exppoly_text_reparses_to_the_signal(x):
    # zero, complex rates and coefficients, degrees up to 4, float-origin
    # coefficients, and the inverse images of the root corpus
    assert from_signal(parse(x.format())) == x


@settings(max_examples=300, deadline=None)
@given(oracles.signal_texts)
@example("sin(2*t + 1/3)")
@example("cos(2*t - 1/3)*exp(-t)")
@example("cos(0, 1/3) + sin(0, -2)*t")
def test_expansion_equals_the_reference_expansion(text):
    try:
        e = parse(text)
    except ExpressionError:
        return
    if classify(e) == SignalClass.EXP_POLYNOMIAL:
        want = ExpPoly(tuple(oracles.terms_of(e).items()))
        assert from_signal(e) == want, text


# --- rational image ------------------------------------------------------------


def test_tone_image():
    r = to_rational(from_signal(parse("sin(3*t)")))
    assert r == RatFunc(CPoly([3]), CPoly([9, 0, 1]))


def test_ramp_exponential_image():
    r = to_rational(from_signal(parse("t*exp(2*t)")))
    assert r == RatFunc(CPoly.ONE, (_S - CPoly.scalar(Qi(2))) ** 2)
    back = to_exppoly(r)
    assert back == from_signal(parse("t*exp(2*t)"))


def test_unit_step_image():
    r = to_rational(from_signal(parse("1")))
    assert r == RatFunc(CPoly.ONE, _S)


def test_image_is_always_strictly_proper():
    rng = random.Random(2303)
    for _ in range(50):
        x = _rand_exppoly(rng)
        assert to_rational(x).is_strictly_proper


def test_gcd_free_image_equals_term_by_term_sum():
    rng = random.Random(2311)
    for _ in range(12):
        x = _rand_mixture(rng)
        r = to_rational(x)
        assert r == _image_term_by_term(x), x.format()
        assert r == RatFunc(r.num, r.den), x.format()   # reduced, monic
        assert r.den.degree == sum(len(p.coeffs) for _, p in x.terms)


def test_gcd_free_image_of_zero_and_of_real_rates():
    assert to_rational(ExpPoly()) == RatFunc.ZERO
    x = from_signal(parse("(t^2 + 1)*exp(-t) + 3*t + exp(2*t)"))
    assert to_rational(x) == _image_term_by_term(x)


_q = st.builds(Fraction, st.integers(-4, 4),
               st.sampled_from([1, 2, 3, 7, 8, 1024]))
_scalars = st.one_of(st.builds(Qi, _q), st.builds(Qi, _q, _q))
_polys = st.lists(_scalars, min_size=1, max_size=4).map(
    lambda cs: CPoly(cs) or CPoly.ONE)


@st.composite
def _exppolys(draw):
    """Up to 6 rates, real and complex, each of multiplicity up to 4, with
    conjugate twins that carry the conjugate polynomial or another one."""
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        rate, poly = draw(_scalars), draw(_polys)
        terms[rate] = poly
        twin = draw(st.sampled_from(["none", "conjugate", "other"]))
        if rate.im and twin != "none" and len(terms) < 6:
            terms[rate.conjugate()] = draw(_polys) if twin == "other" \
                else CPoly([c.conjugate() for c in poly.coeffs])
        if len(terms) == 6:
            break
    return ExpPoly(tuple(terms.items()))


@settings(max_examples=60, deadline=None)
@given(_exppolys())
def test_image_equals_the_running_products_and_the_term_sum(x):
    r = to_rational(x)
    assert r == _image_by_running_products(x), x.format()
    assert r == _image_term_by_term(x), x.format()


def _counting_local_numerators(monkeypatch):
    calls = []
    local = opcalc._local_numerator

    def counting(*args):
        calls.append(None)
        return local(*args)

    monkeypatch.setattr(opcalc, "_local_numerator", counting)
    return calls


@pytest.mark.parametrize("text, pairs, reals", [
    ("sin(t)^2", 1, 1),
    ("(1/2 - t)*cos(3/8*t)*exp(-1/8*t) + (t^2 + 3)*sin(5/8*t)*exp(-3/8*t)"
     " + (2 - t)*exp(-5/8*t) + 3*t*exp(-7/8*t)", 2, 2),
    ("(5/2 - 1/2*t + 3/2*t^3)*sin(7/8*t)*exp(-1/8*t)", 1, 0),
])
def test_a_conjugate_pair_takes_one_local_numerator(monkeypatch, text,
                                                    pairs, reals):
    x = from_signal(parse(text))
    calls = _counting_local_numerators(monkeypatch)
    r = to_rational(x)
    assert len(calls) == pairs + reals
    monkeypatch.undo()
    assert r == _image_by_running_products(x)


_rate_parts = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 1024))


@st.composite
def _real_exppolys(draw):
    """Up to 4 rates of multiplicity up to 6, each complex one with its
    conjugate twin carrying the conjugate polynomial, each real one a real
    polynomial: a real signal."""
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        rate = Qi(draw(_rate_parts), draw(_rate_parts) if draw(st.booleans())
                  else 0)
        coeffs = draw(st.lists(_scalars, min_size=1, max_size=6))
        if not rate.im:
            coeffs = [Qi(c.re) for c in coeffs]
        poly = CPoly(coeffs) or CPoly.ONE
        terms[rate] = poly
        terms[rate.conjugate()] = CPoly([c.conjugate() for c in poly.coeffs])
    return ExpPoly(tuple(terms.items()))


@settings(max_examples=40, deadline=None)
@given(_real_exppolys())
def test_a_real_signal_has_a_real_image_by_the_pair_step(x):
    r = to_rational(x)
    assert r == _image_by_running_products(x), x.format()
    assert r == _image_term_by_term(x), x.format()
    assert not any(r.num._im) and not any(r.den._im), x.format()


_RATE = Qi(Fraction(-1, 3), Fraction(5, 8))


@pytest.mark.parametrize("twin", [
    CPoly([Qi(1, -2), Qi(Fraction(1, 2), 1)]),      # one coefficient off
    CPoly([Qi(1, -2), Qi(Fraction(1, 2), -1), 3]),  # another degree
])
def test_a_twin_other_than_the_conjugate_is_a_rate_of_its_own(
        monkeypatch, twin):
    # no real step: each of the two rates has its own local numerator
    x = ExpPoly(((_RATE, CPoly([Qi(1, 2), Qi(Fraction(1, 2), 1)])),
                 (_RATE.conjugate(), twin)))
    calls = _counting_local_numerators(monkeypatch)
    r = to_rational(x)
    assert len(calls) == 2
    monkeypatch.undo()
    assert r == _image_by_running_products(x)
    assert r == _image_term_by_term(x)


def test_a_real_image_is_folded_on_real_lists(monkeypatch):
    # two conjugate pairs and a real rate with a real polynomial: every
    # term is real, so the sum takes no complex product and no complex sum
    x = from_signal(parse("(1 - t)*sin(3/4*t)*exp(-1/8*t) + cos(5/2*t)"
                          " + t^2*exp(-1/2*t)"))
    assert len(x.terms) == 5
    calls = []
    for module in (opcalc, ratfield):
        for name in ("_gconv", "_gsum"):
            if hasattr(module, name):
                def counting(*args, _name=name,
                             _original=getattr(module, name)):
                    calls.append(_name)
                    return _original(*args)
                monkeypatch.setattr(module, name, counting)
    r = to_rational(x)
    assert calls == []
    monkeypatch.undo()
    assert r == _image_by_running_products(x)


@pytest.mark.parametrize("text", [
    "t^3000", "t^1400*exp(-t)", "(t+1)^200*exp(-t/3)"])
def test_large_images_equal_the_running_products(text):
    x = from_signal(parse(text))
    assert to_rational(x) == _image_by_running_products(x)


@pytest.mark.parametrize("rate", [
    Qi(0), Qi(-2), Qi(Fraction(3, 8)), Qi(0, 1), Qi(Fraction(-1, 3), 5)])
def test_linear_power_equals_repeated_products(rate):
    # the l^m of _local_numerator, (L*s + c)^m from its binomial row, for a
    # polynomial of degree m - 1
    big = 24                        # L: a multiple of each denominator
    lin = CPoly([-rate * big, big])
    want = lin
    for m in range(1, 62):
        if m in (1, 2, 7, 61):
            poly = CPoly([Qi(m, 1)] * m)
            got = opcalc._local_numerator(rate, poly, big, poly._d)[0]
            assert CPoly._canon(*got, 1) == want
        want = want * lin


def test_spectrum_from_rates_equals_spectrum_of_image():
    rng = random.Random(2304)
    for _ in range(25):
        x = _rand_exppoly(rng, max_rates=3, max_deg=2)
        want = sorted({float(rate.im) for rate, _ in x.terms
                       if rate.im != 0})
        assert spectrum_of_rational(to_rational(x)).frequencies == tuple(want)


@pytest.mark.parametrize("text, freqs, locations", [
    ("sin(1e-12*t)", (-1e-12, 1e-12), [-1e-12j, 1e-12j]),
    ("exp(i*t)+exp((1+1/10000000000)*i*t)", (1.0, 1.0000000001),
     [1j, 1.0000000001j]),
    ("exp((1/10000000000+i)*t)", (1.0,), [1e-10 + 1j]),
])
def test_exact_poles_are_reported_as_they_are(text, freqs, locations):
    # neither snapped to an axis nor merged with a neighbour at 1e-9
    x = from_signal(parse(text))
    got = spectrum_of_rational(to_rational(x))
    assert got == spectrum_of_exppoly(x)
    assert got.frequencies == freqs
    assert [src.location for src in got.sources] == locations


_exact_re = st.sampled_from([Fraction(0), Fraction(1, 10 ** 10),
                             Fraction(-1, 3), Fraction(-1),
                             Fraction(-1, 10 ** 12)])
_exact_im = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1),
                             1 + Fraction(1, 10 ** 10), Fraction(1, 10 ** 12),
                             -Fraction(1, 10 ** 12), Fraction(-5, 2)])


@st.composite
def _exact_pole_mixtures(draw):
    """Up to 4 rates, near an axis or near each other; rates 2k and 2k+1
    have multiplicity k + 1, so every square-free factor of the image has
    degree 1 or 2 and every pole lies in Q(i) exactly."""
    rates = draw(st.lists(st.builds(Qi, _exact_re, _exact_im), min_size=1,
                          max_size=4, unique=True))
    return ExpPoly(tuple(
        (rate, CPoly(draw(st.lists(_scalars, min_size=k // 2,
                                   max_size=k // 2)) + [draw(_scalars) or 1]))
        for k, rate in enumerate(rates)))


@settings(max_examples=80, deadline=None)
@given(_exact_pole_mixtures())
def test_spectrum_of_exact_image_equals_spectrum_from_rates(x):
    r = to_rational(x)
    assert all(p.exact is not None for p in poles(r))
    assert spectrum_of_rational(r) == spectrum_of_exppoly(x), x.format()


def test_exact_rate_spectrum_equals_spectrum_of_image():
    # Larger mixtures than above; spectrum_of_rational is the oracle
    # wherever its root iteration converges.
    rng = random.Random(2304)
    checked = 0
    for _ in range(25):
        x = _rand_mixture(rng)
        got = spectrum_of_exppoly(x)
        assert got.frequencies == tuple(sorted(
            {float(rate.im) for rate, _ in x.terms if rate.im != 0}))
        try:
            want = spectrum_of_rational(to_rational(x))
        except RootFindingError:
            continue
        checked += 1
        assert len(got.frequencies) == len(want.frequencies)
        for g, w in zip(got.frequencies, want.frequencies):
            assert abs(g - w) <= 1e-9 * max(1.0, abs(w))
        assert len(got.sources) == len(want.sources)
        for g, w in zip(got.sources, want.sources):
            assert (g.kind, g.order) == (w.kind, w.order)
            assert abs(g.location - w.location) <= 1e-9 * max(
                1.0, abs(w.location))
    assert checked >= 20


# --- inverse map -----------------------------------------------------------------


def test_inverse_of_tone_image():
    x = to_exppoly(RatFunc(CPoly([2]), CPoly([4, 0, 1])))
    assert x == from_signal(parse("sin(2*t)"))


def test_inverse_of_double_pole():
    rng = random.Random(2305)
    for _ in range(10):
        a = Qi(Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        r = RatFunc(CPoly.ONE, (_S - CPoly.scalar(a)) ** 2)
        x = to_exppoly(r)
        want = ExpPoly(((a, CPoly([0, 1])),))   # t * e^{at}
        assert x == want


def test_inverse_of_hyperbolic_pair():
    x = to_exppoly(RatFunc(CPoly([0, 2]), CPoly([-1, 0, 1])))
    want = ExpPoly(((Qi(-1), CPoly.ONE), (Qi(1), CPoly.ONE)))  # e^t + e^-t
    assert x == want


def test_inverse_requires_strictly_proper():
    with pytest.raises(ValueError):
        to_exppoly(RatFunc.ONE)
    with pytest.raises(ValueError):
        to_exppoly(RatFunc(_S ** 2, _S - CPoly.ONE))


def test_round_trip_from_signal_side():
    rng = random.Random(2306)
    for _ in range(60):
        x = _rand_exppoly(rng)
        back = to_exppoly(to_rational(x))
        assert back == x, x.format()


@pytest.mark.parametrize("text", [
    "sin(t)^12", "sin(1000*t)+sin(1/1000*t)", "(sin(t)+cos(2*t))^4",
    "sin(t)^30"])
def test_round_trip_with_roots_of_wide_moduli(text):
    x = from_signal(parse(text))
    assert to_exppoly(to_rational(x)) == x


def test_round_trip_of_mixtures_is_exact():
    # every pole of the image is a rate in Q(i), found exactly, so the
    # inverse image returns the very rates and coefficients, dyadic or not
    rng = random.Random(2309)
    for rate_den, coeff_den in ((4, 2), (3, 7), (7, 3)):
        for _ in range(30):
            x = _rand_mixture(rng, rate_den=rate_den, coeff_den=coeff_den)
            assert to_exppoly(to_rational(x)) == x, x.format()


def test_degree_70_image_round_trips_with_every_pole_exact():
    # the roots' common denominator is far beyond float accuracy, so only
    # the candidates with denominators of at most 8 find them
    x = from_signal(parse(
        "(sin(3/8*t)+cos(5/4*t)*exp(-3/8*t)+exp(1/8*t))^4"))
    r = to_rational(x)
    ps = poles(r)
    assert r.den.degree == len(ps) == 70
    assert all(p.exact is not None and p.multiplicity == 1 for p in ps)
    assert to_exppoly(r) == x


@st.composite
def _mixtures_at_multiplicity_4(draw):
    """4 distinct rates in sevenths or eighths, each with a cubic in
    halves: a real signal of two conjugate pairs, or a complex one."""
    den = draw(st.sampled_from([7, 8]))
    part = st.integers(-2 * den, 2 * den)
    cubic = st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                     min_size=4, max_size=4)
    real = draw(st.booleans())
    rates = draw(st.lists(st.tuples(part, st.integers(1, 2 * den) if real
                                    else part),
                          min_size=2 if real else 4, max_size=2 if real else 4,
                          unique=True))
    terms = []
    for a, b in rates:
        cs = [Qi(Fraction(u, 2), Fraction(v, 2)) for u, v in draw(cubic)]
        if not cs[-1]:
            cs[-1] = Qi(1)
        rate = Qi(Fraction(a, den), Fraction(b, den))
        terms.append((rate, CPoly(cs)))
        if real:
            terms.append((rate.conjugate(),
                          CPoly([c.conjugate() for c in cs])))
    return ExpPoly(tuple(terms))


@settings(max_examples=60, deadline=None)
@given(_mixtures_at_multiplicity_4())
def test_round_trip_at_multiplicity_4_is_exact(x):
    r = to_rational(x)
    assert r.den.degree == 16
    assert to_exppoly(r) == x


def test_round_trip_of_a_high_power_of_t():
    # the image of t^1400 e^(-t) is 1400!/(s + 1)^1401, whose denominator
    # is the lone monomial y^1401 shifted by its binomial row
    x = from_signal(parse("t^1400*exp(-t)"))
    r = to_rational(x)
    assert r == RatFunc(CPoly([math.factorial(1400)]),
                        CPoly([1, 1]) ** 1401)
    assert to_exppoly(r) == x


def test_round_trip_at_multiplicity_401():
    x = from_signal(parse("t^400*exp(-t)"))
    assert to_exppoly(to_rational(x)) == x


def test_a_vanishing_leading_coefficient_at_a_float_pole_is_dropped():
    # the numerator vanishes at a float pole of the double factor s^2 - 2,
    # read as its dyadic rational, so that pole's polynomial loses its
    # t term and stays canonical
    s, two = CPoly.S, CPoly.scalar(2)
    den = (s * s - two) ** 2
    z = poles(RatFunc(CPoly.ONE, den))[0].location
    r = RatFunc((s - CPoly.scalar(Qi.coerce(z))) * (s + CPoly.ONE), den)
    x = to_exppoly(r)
    assert complex(x.terms[0][0]) == z
    assert [poly.degree for _, poly in x.terms] == [0, 1]
    assert all(poly == CPoly(poly.coeffs) for _, poly in x.terms)


def test_round_trip_keeps_rates_off_the_dyadic_grid():
    x = from_signal(parse("exp(-1/3*t)*(1/3+t)"))
    back = to_exppoly(to_rational(x))
    assert back == x
    assert back.terms == ((Qi(Fraction(-1, 3)),
                           CPoly([Qi(Fraction(1, 3)), Qi(1)])),)


def test_round_trip_from_rational_side():
    rng = random.Random(2307)
    for _ in range(60):
        r = _rand_strictly_proper(rng)
        back = to_rational(to_exppoly(r))
        assert _rat_close(back, r), r.format()


def test_dirac_image_is_one():
    assert dirac_image() == RatFunc.ONE
    assert spectrum_of_rational(dirac_image()).frequencies == ()


# --- multiplication by -t ---------------------------------------------------------


def test_minus_t_on_pure_exponential():
    rng = random.Random(2308)
    for _ in range(20):
        a = _rand_rate(rng)
        x = ExpPoly(((a, CPoly.ONE),))
        image = to_rational(mult_by_minus_t(x))
        pole = RatFunc(CPoly.ONE, _S - CPoly.scalar(a))
        assert image == -RatFunc(CPoly.ONE, (_S - CPoly.scalar(a)) ** 2)
        assert image == alg_deriv(pole)


def test_minus_t_on_tone_matches_derivative_of_image():
    x = from_signal(parse("sin(2*t)"))
    assert to_rational(mult_by_minus_t(x)) == alg_deriv(to_rational(x))


def test_minus_t_on_constant():
    x = from_signal(parse("1"))
    shifted = mult_by_minus_t(x)
    assert shifted.terms == ((Qi(0), CPoly([0, -1])),)    # -t
    assert to_rational(shifted) == alg_deriv(RatFunc(CPoly.ONE, _S))


def test_derivation_correspondence_random():
    rng = random.Random(2309)
    for _ in range(50):
        x = _rand_exppoly(rng, max_rates=3, max_deg=3)
        assert to_rational(mult_by_minus_t(x)) == alg_deriv(to_rational(x))


# --- truncation ---------------------------------------------------------------------


def test_truncation_fixes_polynomials():
    rng = random.Random(2310)
    for _ in range(20):
        coeffs = [Qi(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))]
        poly = CPoly(coeffs)
        if poly.is_zero:
            poly = CPoly.ONE
        x = ExpPoly(((Qi(0), poly),))
        text_terms = []
        for k, c in enumerate(poly.coeffs):
            if c:
                text_terms.append(f"{c.re}*t^{k}")
        e = parse(" + ".join(text_terms))
        got = taylor_truncate(e, 0.0, poly.degree + rng.randint(0, 2))
        assert got == x


def test_truncated_tone_coefficients():
    x = taylor_truncate(parse("sin(2*t)"), 0.0, 5)
    assert x.terms[0][0] == Qi(0)
    coeffs = x.terms[0][1].coeffs
    assert coeffs[1] == Qi(2)
    assert coeffs[3] == Qi(Fraction(-4, 3))
    assert coeffs[5] == Qi(Fraction(4, 15))


def test_truncated_tone_approximates_on_short_window():
    x = taylor_truncate(parse("sin(2*t)"), 0.0, 5)
    worst = max(abs(x.evaluate(k * 0.0001) - math.sin(2 * k * 0.0001))
                for k in range(1001))
    assert worst <= 1e-8


def test_truncated_tone_spectrum_is_empty():
    x = taylor_truncate(parse("sin(2*t)"), 0.0, 5)
    spec = spectrum_of_rational(to_rational(x))
    assert spec.frequencies == ()
    assert all(p.location.imag == 0 for p in poles(to_rational(x)))


def test_truncation_rejects_negative_order():
    with pytest.raises(ValueError):
        taylor_truncate(parse("sin(2*t)"), 0.0, -1)


def _coefficients_at(x: ExpPoly, t0: float) -> list:
    """The coefficients of x's one polynomial in powers of (t - t0)."""
    assert [rate for rate, _ in x.terms] in ([], [Qi(0)])
    acc = CPoly.ZERO
    h = CPoly([Qi.coerce(Fraction(t0)), Qi(1)])     # t = t0 + h
    for c in reversed(x.terms[0][1].coeffs if x.terms else ()):
        acc = acc * h + CPoly([c])
    return [complex(c) for c in acc.coeffs]


def _assert_same_truncation(got: ExpPoly, want: ExpPoly, t0: float, text):
    a, b = _coefficients_at(got, t0), _coefficients_at(want, t0)
    n = max(len(a), len(b))
    a, b = a + [0j] * (n - len(a)), b + [0j] * (n - len(b))
    for p, q in zip(a, b):
        assert abs(p - q) <= 1e-9 * max(1.0, abs(q)), (text, a, b)


def _outcome(fn, *args):
    """The value, or the class of the failure, with every expression error
    counted as one: the oracle refuses an impulse in `evaluate`
    (`EvaluationError`), the series before its walk (`ExpressionError`)."""
    try:
        return fn(*args)
    except ExpressionError:
        return ExpressionError
    except Exception as err:            # compared, not swallowed
        return type(err)


@settings(max_examples=150, deadline=None)
@given(oracles.well_formed_texts, st.sampled_from([0.5, 1.25, -0.75]),
       st.integers(0, 6))
@example("sin(t)*exp(-t)/(t+2)", 0.5, 6)
def test_truncation_equals_iterated_differentiation(text, t0, order):
    try:
        e = parse(text)
    except ExpressionError:
        return
    got = _outcome(taylor_truncate, e, t0, order)
    want = _outcome(oracles.taylor_truncate, e, t0, order)
    if isinstance(want, type):
        assert got is want, text
    else:
        _assert_same_truncation(got, want, t0, text)


def test_truncation_at_high_order_is_fast():
    # iterated differentiation grows the tree about 3.3 times per order
    # and took about 4 s at order 9; the series costs O(order^2) per node
    e = parse("sin(t)*exp(-t)/(t+2)")
    start = time.perf_counter()
    x = taylor_truncate(e, 0.5, 30)
    assert time.perf_counter() - start < 1.0
    for h in (0.05, -0.1):
        want = math.sin(0.5 + h) * math.exp(-0.5 - h) / (2.5 + h)
        assert abs(x.evaluate(0.5 + h) - want) <= 1e-12


def test_truncation_at_zero_is_exact():
    # exp(t/3)*cos(2*t) = 1 + t/3 - (35/18) t^2 + ...: each c_k in Q(i)
    x = taylor_truncate(parse("exp(1/3*t)*cos(2*t) + sinc(2)"), 0.0, 2)
    assert x.terms[0][1].coeffs == (Qi(3), Qi(Fraction(1, 3)),
                                    Qi(Fraction(-35, 18) - Fraction(4, 3)))


_phases = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 3, 8]))


@st.composite
def _phased_exppolys(draw):
    """Sums of one to three terms P(t)*exp(r*t) times up to two sines or
    cosines of w*t + phi: complex rates r, rational phases phi and P of
    degree up to 3."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [_poly_tree(draw(_polys)), make_exp(draw(_scalars))]
        for _ in range(draw(st.integers(0, 2))):
            trig = draw(st.sampled_from([Sin, Cos]))
            factors.append(trig(draw(_q), draw(_phases)))
        terms.append(make_mul(factors))
    return make_add(terms)


@settings(max_examples=300, deadline=None)
@given(_phased_exppolys(), st.integers(0, 6))
@example(make_mul([Sin(2, Fraction(1, 3)), make_exp(Qi(-1, 1))]), 4)
def test_the_jet_at_zero_is_the_taylor_series_of_the_expansion(e, order):
    # the jet reads each phase as the expansion does, so the two agree in
    # Q(i), with no rounding between them
    want = oracles.exppoly_taylor(from_signal(e), order)
    assert _jet(e, 0, order) == want, pretty_print(e)
    assert taylor_truncate(e, 0.0, order) \
        == ExpPoly(((Qi(0), CPoly(want)),))
