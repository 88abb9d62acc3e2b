"""Differential operators over rational functions and their singular points."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from algspec import ratfield, weylode
from algspec.cli import _c12, _g12
from algspec.ratfield import (CPoly, Qi, RatFunc, _aberth, _location_key,
                              alg_deriv, poly_gcd, snap_axes,
                              square_free_factors)
from algspec.sigexpr import (Chirp, Const, Delay, ExpressionError, RaisedCos,
                             Sinc, make_mul, parse)
from algspec.weylode import (OdeSystem, WeylOp, _classify, _normalized,
                             _pole_orders, apply, catalog_equation,
                             finite_singularities, format_equation,
                             format_weylop, mul_ops, singularity_at_infinity,
                             spectrum_of_ode)

_S = CPoly([0, 1])


def _rand_ratfunc(rng, max_deg=2):
    def poly():
        return CPoly([Qi(rng.randint(-3, 3)) for _ in range(max_deg)]
                     + [Qi(rng.randint(1, 3))])
    return RatFunc(poly(), poly())


def _rand_op(rng, max_order=2):
    order = rng.randint(0, max_order)
    coeffs = [_rand_ratfunc(rng) for _ in range(order + 1)]
    if coeffs[-1].is_zero:
        coeffs[-1] = RatFunc.ONE
    return WeylOp(tuple(coeffs))


# --- action and composition ----------------------------------------------------


def test_derivative_op_matches_algebraic_derivative():
    r = RatFunc(CPoly.ONE, _S)
    assert apply(WeylOp.D, r) == alg_deriv(r)
    assert apply(WeylOp.D, r) == RatFunc(-CPoly.ONE, _S ** 2)


def test_second_order_action():
    op = WeylOp((RatFunc.ONE, RatFunc.ZERO, RatFunc.ONE))   # (d/ds)^2 + 1
    r = RatFunc(_S, CPoly([4, 0, 1]))
    assert apply(op, r) == alg_deriv(alg_deriv(r)) + r


def test_commutator_is_identity():
    left = mul_ops(WeylOp.D, WeylOp.S)
    right = mul_ops(WeylOp.S, WeylOp.D)
    assert left - right == WeylOp.IDENTITY


def test_composition_matches_sequential_action():
    rng = random.Random(2401)
    for _ in range(20):
        a, b = _rand_op(rng), _rand_op(rng)
        r = _rand_ratfunc(rng)
        assert apply(mul_ops(a, b), r) == apply(a, apply(b, r))


def test_composition_order_adds():
    rng = random.Random(2402)
    for _ in range(20):
        a, b = _rand_op(rng), _rand_op(rng)
        assert mul_ops(a, b).order == a.order + b.order


def test_composition_is_associative():
    rng = random.Random(2403)
    for _ in range(30):
        a, b, c = (_rand_op(rng, max_order=1) for _ in range(3))
        assert mul_ops(mul_ops(a, b), c) == mul_ops(a, mul_ops(b, c))


# --- oracles: one `+` per term, and the chart as repeated products ---------


def _mul_ops_by_terms(a, b):
    out = {}
    for k, ak in enumerate(a.coeffs):
        if ak.is_zero:
            continue
        for j, bj in enumerate(b.coeffs):
            if bj.is_zero:
                continue
            d = bj
            for l in range(k + 1):
                if not d.is_zero:
                    term = ak * Qi(math.comb(k, l)) * d
                    out[k - l + j] = out.get(k - l + j, RatFunc.ZERO) + term
                if l < k:
                    d = d.deriv()
    if not out:
        return WeylOp((RatFunc.ZERO,))
    return WeylOp(tuple(out.get(k, RatFunc.ZERO) for k in range(max(out) + 1)))


def _apply_by_terms(op, r):
    acc, d = RatFunc.ZERO, r
    for k, c in enumerate(op.coeffs):
        if not c.is_zero:
            acc = acc + c * d
        if k < op.order:
            d = d.deriv()
    return acc


def _reciprocal(r):
    # r(1/z): numerator and denominator reversed at a common degree
    d = max(r.num.degree, r.den.degree, 0)
    def rev(p):
        return CPoly(tuple(reversed(p.coeffs + (Qi(0),) * (d - p.degree))))
    return RatFunc(rev(r.num), rev(r.den))


def _chart_by_products(sys):
    # sum of r_k(1/z) (-z^2 d/dz)^k, each power built by composition
    w = WeylOp((RatFunc.ZERO, RatFunc(CPoly([0, 0, -1]))))
    acc, wk = WeylOp((RatFunc.ZERO,)), WeylOp.IDENTITY
    for k, rk in enumerate(sys.op.coeffs):
        if not rk.is_zero:
            acc = acc + _mul_ops_by_terms(WeylOp((_reciprocal(rk),)), wk)
        if k < sys.op.order:
            wk = _mul_ops_by_terms(w, wk)
    return OdeSystem(acc, _reciprocal(sys.rhs))


def _infinity_by_chart(sys):
    # z = 0 of the chart; the pole order there is the lowest power of z in
    # the reduced denominator
    qs, g = _normalized(_chart_by_products(sys))
    return _classify(qs, [next(k for k, c in enumerate(r.den.coeffs) if c)
                          for r in qs + [g]])


# a few denominators shared among the coefficients, so that the terms of a
# sum have equal or overlapping denominators
_SHARED_DENS = (CPoly.ONE, CPoly([0, 1]), CPoly([1, 1]), CPoly([-2, 1]))


def _shared_den_ratfunc(rng):
    if rng.random() < 0.25:
        return RatFunc.ZERO
    num = CPoly([Qi(rng.randint(-2, 2), rng.randint(-1, 1)),
                 Qi(rng.randint(-1, 1))])
    return RatFunc(num or CPoly.ONE, rng.choice(_SHARED_DENS))


def _shared_den_op(rng, order):
    coeffs = [_shared_den_ratfunc(rng) for _ in range(order)]
    return WeylOp(tuple(coeffs) + (_shared_den_ratfunc(rng) or RatFunc.ONE,))


def _oracle_cases():
    """100 seeded (a, b, r, system): a of order 1 to 4 in turn, b of order
    1, and a system on a whose right side is zero in half the cases of
    each order."""
    rng = random.Random(2404)
    for case in range(100):
        a = _shared_den_op(rng, case % 4 + 1)
        b = _shared_den_op(rng, 1)
        r = _shared_den_ratfunc(rng) or RatFunc.ONE
        rhs = RatFunc.ZERO if case // 4 % 2 else _shared_den_ratfunc(rng) or r
        yield a, b, r, OdeSystem(a, rhs)


def test_mul_ops_equals_the_term_by_term_sum():
    for a, b, _, _ in _oracle_cases():
        assert mul_ops(a, b) == _mul_ops_by_terms(a, b)


def test_apply_equals_the_term_by_term_sum():
    for a, b, r, _ in _oracle_cases():
        assert apply(a, r) == _apply_by_terms(a, r)
        assert apply(b, r) == _apply_by_terms(b, r)


def _hand_built_cases():
    """(system, outcome at infinity) for outcomes the seeded cases miss."""
    s = RatFunc(_S)
    return [
        (OdeSystem(WeylOp((RatFunc.ZERO, RatFunc(Qi(2)) / s, RatFunc.ONE)),
                   RatFunc.ZERO), "ordinary"),            # x'' + (2/s)x' = 0
        (OdeSystem(WeylOp.D, RatFunc(CPoly.ONE, _S ** 3)), "ordinary"),
        (OdeSystem(WeylOp.D, RatFunc(CPoly.ONE, _S)), "logarithmic"),
        (OdeSystem(WeylOp.D, s), "pole"),                   # x = s^2/2
        (OdeSystem(WeylOp((RatFunc.ONE, s, s * s)), RatFunc.ZERO),
         "unclassified"),                                 # Euler equation
    ]


def _outcome(point):
    if point is None:
        return "ordinary"
    return "irregular" if point.kind == "irregular" else point.refinement


def test_infinity_equals_the_chart_by_repeated_products():
    orders, outcomes = set(), set()
    systems = [sys for _, _, _, sys in _oracle_cases()]
    systems += [sys for sys, _ in _hand_built_cases()]
    systems += [catalog_equation(parse(text)) for text in (
        "sinc(3)", "rcos(2)", "rcos(0)", "delay(1/2)", "delay(0)",
        "chirp(1, 2, 3)", "(1+i)*chirp(-1/2, 1/3, 2)")]
    for sys in systems:
        point = singularity_at_infinity(sys)
        assert point == _infinity_by_chart(sys)
        orders.add((sys.op.order, sys.rhs.is_zero))
        outcomes.add(_outcome(point))
    assert orders == {(n, z) for n in (1, 2, 3, 4) for z in (False, True)}
    assert outcomes == {"ordinary", "logarithmic", "pole", "unclassified",
                        "irregular"}


def test_infinity_of_hand_built_systems():
    for sys, want in _hand_built_cases():
        point = singularity_at_infinity(sys)
        assert _outcome(point) == want
        assert point is None or point.kind == "regular"
        if want == "pole":
            assert point.order == 2


# --- drawn operators against the same oracles ------------------------------

# factors whose products share only part of a factor, e.g. (s-1)(s-2) beside
# (s-1)^2 (s^2+1), and Gaussian roots: s^2 + 1 = (s - i)(s + i)
_PARTIAL_FACTORS = (CPoly([-1, 1]), CPoly([-2, 1]), CPoly([-1, 0, 0, 1]),
                    CPoly([1, 0, 1]), CPoly([Qi(0, -1), 1]),
                    CPoly([Qi(-1, -1), 1]), _S)
_drawn_qi = st.builds(Qi, st.sampled_from([0, 1, -1, 3, Fraction(-1, 2)]),
                      st.sampled_from([0, 0, 1, Fraction(1, 3)]))
_drawn_nums = st.lists(_drawn_qi, max_size=3).map(CPoly)
_drawn_dens = st.lists(
    st.tuples(st.sampled_from(_PARTIAL_FACTORS), st.integers(1, 2)),
    max_size=2).map(lambda fs: math.prod((f ** e for f, e in fs),
                                         start=CPoly.ONE))
_drawn_rats = st.builds(RatFunc, _drawn_nums, _drawn_dens)
# order 0 to 3, zero coefficients included; all zero is the zero operator
_drawn_ops = st.lists(_drawn_rats, min_size=1, max_size=4).map(
    lambda cs: WeylOp(tuple(cs)))


@st.composite
def _cancelling_pairs(draw):
    """(a, b) whose composition or commutator cancels terms: (D + x, D - x),
    whose d/ds coefficient x - x cancels inside mul_ops; two operators of
    order 0, whose commutator is zero; D and an order-0 x, whose
    commutator drops to order 0; or two drawn operators."""
    x, y = draw(_drawn_rats), draw(_drawn_rats)
    return draw(st.sampled_from([
        (WeylOp((x, RatFunc.ONE)), WeylOp((-x, RatFunc.ONE))),
        (WeylOp((x,)), WeylOp((y,))),
        (WeylOp.D, WeylOp((x,))),
        (draw(_drawn_ops), draw(_drawn_ops))]))


@settings(max_examples=150, deadline=None)
@given(_drawn_ops, _drawn_ops)
def test_mul_ops_equals_the_term_by_term_sum_on_drawn_operators(a, b):
    assert mul_ops(a, b) == _mul_ops_by_terms(a, b)


@settings(max_examples=150, deadline=None)
@given(_drawn_ops, _drawn_rats)
def test_apply_equals_the_term_by_term_sum_on_drawn_operators(op, r):
    assert apply(op, r) == _apply_by_terms(op, r)


@settings(max_examples=150, deadline=None)
@given(_cancelling_pairs())
def test_commutators_equal_the_term_by_term_sums(pair):
    a, b = pair
    got = mul_ops(a, b) - mul_ops(b, a)
    assert got == _mul_ops_by_terms(a, b) - _mul_ops_by_terms(b, a)
    assert mul_ops(a, b) == _mul_ops_by_terms(a, b)
    if a.order == b.order == 0:
        assert got.is_zero
    if a == WeylOp.D and b.order == 0:
        assert got == WeylOp((b.coeffs[0].deriv(),))


@settings(max_examples=150, deadline=None)
@given(_drawn_ops, _drawn_rats)
def test_infinity_equals_the_chart_on_drawn_systems(op, rhs):
    if op.order == 0:
        op = WeylOp(op.coeffs + (RatFunc.ONE,))
    sys = OdeSystem(op, rhs)
    assert singularity_at_infinity(sys) == _infinity_by_chart(sys)


def test_composition_makes_few_gcds(monkeypatch):
    # one 3x3 composition with coefficients (a0 + a1 s)/(s - b) at even
    # orders: one gcd per term made 64 calls here, and one gcd per output
    # coefficient against its whole denominator 12; the base factors are
    # linear, so they are told apart by comparison and each output
    # coefficient is reduced by evaluating its numerator at their roots
    h = Fraction(1, 2)
    a = _bench_shaped_op([3 * h, -5 * h, h, h, 3 * h, -h, 5 * h, 3 * h,
                          5 * h, h], 3)
    b = _bench_shaped_op([-3 * h, h, -5 * h, 3 * h, -h, h, h, 5 * h,
                          -5 * h, 3 * h], 3)
    calls = []

    def counting_gcd(a, b):
        calls.append(None)
        return poly_gcd(a, b)

    monkeypatch.setattr(ratfield, "poly_gcd", counting_gcd)
    monkeypatch.setattr(weylode, "poly_gcd", counting_gcd)
    product = mul_ops(a, b)
    assert len(calls) == 0
    monkeypatch.undo()
    assert product == _mul_ops_by_terms(a, b)


_s, _i = RatFunc(_S), Qi(0, 1)


@pytest.mark.parametrize("x, y, want", [
    # a double root at the linear base factor s - 1 of exponent 2
    ((_s - 1) ** 2 / (_s + 1), 1 / (_s - 1) ** 2, 1 / (_s + 1)),
    # s - i cancels from the base factor s^2 + 1 and s + i stays, once
    # and at exponent 2
    ((_s - _i) / (_s + 2), 1 / (_s * _s + 1), 1 / ((_s + 2) * (_s + _i))),
    ((_s - _i) ** 2 / (_s + 2), 1 / (_s * _s + 1) ** 2,
     1 / ((_s + 2) * (_s + _i) ** 2)),
])
def test_reduction_cancels_part_of_the_base(x, y, want):
    a, b = WeylOp((x,)), WeylOp((y,))
    assert mul_ops(a, b) == _mul_ops_by_terms(a, b) == WeylOp((want,))
    assert apply(a, y) == _apply_by_terms(a, y) == want
    c = WeylOp((x, x))
    assert mul_ops(c, b) == _mul_ops_by_terms(c, b)
    assert apply(c, y) == _apply_by_terms(c, y)


# --- the operator shapes of the equation benchmark -------------------------

# coefficients (a0 + a1 s)/(s - b) at even orders and a0 + a1 s at odd
# orders, a0, a1 and b halves of odd numbers, so no numerator cancels
_HALVES = [Fraction(n, 2) for n in (-5, -3, -1, 1, 3, 5)]


def _bench_shaped_rat(a0, a1, b=None):
    den = CPoly.ONE if b is None else CPoly([-b, 1])
    return RatFunc(CPoly([a0, a1]), den)


def _bench_shaped_op(values, order):
    """The operator of the given order read off a list of halves, three
    per even-order coefficient and two per odd-order one."""
    values = iter(values)
    return WeylOp(tuple(
        _bench_shaped_rat(next(values), next(values),
                          next(values) if k % 2 == 0 else None)
        for k in range(order + 1)))


_bench_values = st.lists(st.sampled_from(_HALVES), min_size=10, max_size=10)
_bench_orders = st.integers(1, 3)


@settings(max_examples=60, deadline=None)
@given(_bench_values, _bench_orders, _bench_values, _bench_orders)
def test_bench_shaped_compositions_equal_the_oracle(va, oa, vb, ob):
    a, b = _bench_shaped_op(va, oa), _bench_shaped_op(vb, ob)
    m = mul_ops(a, b)
    assert m == _mul_ops_by_terms(a, b)
    assert m.order == oa + ob


@settings(max_examples=60, deadline=None)
@given(_bench_values, _bench_orders, st.sampled_from(_HALVES),
       st.sampled_from(_HALVES), st.sampled_from(_HALVES))
def test_bench_shaped_actions_equal_the_oracle(va, order, a0, a1, b):
    op, r = _bench_shaped_op(va, order), _bench_shaped_rat(a0, a1, b)
    assert apply(op, r) == _apply_by_terms(op, r)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_HALVES), st.sampled_from(_HALVES),
       st.sampled_from(_HALVES))
def test_bench_shaped_commutators_equal_the_oracle(a0, a1, b):
    r = _bench_shaped_rat(a0, a1, b)
    x = WeylOp((r,))
    got = mul_ops(WeylOp.D, x) - mul_ops(x, WeylOp.D)
    assert got == (_mul_ops_by_terms(WeylOp.D, x)
                   - _mul_ops_by_terms(x, WeylOp.D))
    assert got == WeylOp((r.deriv(),))


def test_system_validation():
    with pytest.raises(ValueError):
        OdeSystem(WeylOp((RatFunc.ZERO,)), RatFunc.ZERO)
    with pytest.raises(ValueError):
        OdeSystem(WeylOp((RatFunc.ONE,)), RatFunc.ZERO)


# --- the catalog -----------------------------------------------------------------


def test_cardinal_sine_equation():
    sys = catalog_equation(parse("sinc(3)"))
    assert sys.op == WeylOp.D
    assert sys.rhs == RatFunc(CPoly([-3]), CPoly([9, 0, 1]))


def test_raised_cosine_equation():
    sys = catalog_equation(parse("rcos(2)"))
    assert sys.op == WeylOp((RatFunc.ONE, RatFunc.ZERO, RatFunc.ONE))
    assert sys.rhs == RatFunc(_S, CPoly([4, 0, 1]))


def test_delay_equation():
    sys = catalog_equation(parse("delay(1/2)"))
    assert sys.op == WeylOp((RatFunc(Qi(Fraction(1, 2))), RatFunc.ONE))
    assert sys.rhs == RatFunc.ZERO


def test_chirp_equation():
    sys = catalog_equation(parse("chirp(1, 2, 3)"))
    assert sys.op == WeylOp((RatFunc(CPoly([Qi(0, -2), Qi(1)])),
                             RatFunc(Qi(0, 2))))
    assert sys.rhs.den == CPoly.ONE and sys.rhs.num.degree == 0
    unit = complex(sys.rhs.num.coeffs[0])
    assert abs(unit - complex(math.cos(3), math.sin(3))) <= 1e-12


def test_chirp_zero_phase_rhs_is_one():
    assert catalog_equation(parse("chirp(1, 2, 0)")).rhs == RatFunc.ONE


def test_scale_multiplies_rhs():
    base = catalog_equation(parse("sinc(2)"))
    scaled = catalog_equation(parse("3*sinc(2)"))
    assert scaled.op == base.op
    assert scaled.rhs == base.rhs * RatFunc(Qi(3))


_signed = st.fractions(-20, 20, max_denominator=12)
_scales = st.one_of(
    st.sampled_from([Qi(1), Qi(-1), Qi(0, 1), Qi(0, -1), Qi(-3, 2)]),
    st.builds(Qi, _signed, _signed).filter(bool))


@st.composite
def _catalog_atoms(draw):
    """A scaled sinc, rcos (rcos(0) included), delay or chirp (c = 0
    included) with signed fractional parameters."""
    zero_or = st.one_of(st.just(Fraction(0)), _signed)
    atom = draw(st.sampled_from([
        st.builds(Sinc, _signed.filter(bool)),
        st.builds(RaisedCos, zero_or),
        st.builds(Delay, _signed),
        st.builds(Chirp, _signed.filter(bool), _signed, zero_or)]))
    return make_mul([Const(draw(_scales)), draw(atom)])


@settings(max_examples=300, deadline=None)
@given(_catalog_atoms())
def test_catalog_equations_equal_the_generic_constructors(e):
    sys = catalog_equation(e)
    assert sys == oracles.catalog_equation(e)
    # normalized by generic division, also for the chirp's constant r_n
    rn = sys.op.coeffs[-1]
    assert _normalized(sys) == ([c / rn for c in sys.op.coeffs[:-1]],
                                sys.rhs / rn)


def test_catalog_rejects_other_signals():
    with pytest.raises(ExpressionError):
        catalog_equation(parse("sin(2*t)"))
    with pytest.raises(ExpressionError):
        catalog_equation(parse("dirac()"))


# --- singular points --------------------------------------------------------------


def test_cardinal_sine_singular_points():
    pts = finite_singularities(catalog_equation(parse("sinc(3)")))
    assert len(pts) == 2
    for p, want in zip(pts, (-3j, 3j)):
        assert p.location.real == 0
        assert abs(p.location - want) <= 1e-9
    assert all(p.kind == "regular" for p in pts)
    assert all(p.refinement == "logarithmic" for p in pts)


def test_raised_cosine_singular_points():
    pts = finite_singularities(catalog_equation(parse("rcos(2)")))
    assert len(pts) == 2
    for p, want in zip(pts, (-2j, 2j)):
        assert p.location.real == 0
        assert abs(p.location - want) <= 1e-9
    assert all(p.kind == "regular" for p in pts)


def test_delay_has_no_finite_singularities():
    for lag in ("1/2", "-1/2"):
        sys = catalog_equation(parse(f"delay({lag})"))
        assert finite_singularities(sys) == []


def test_chirp_has_no_finite_singularities():
    sys = catalog_equation(parse("chirp(1, 2, 3)"))
    assert finite_singularities(sys) == []


def test_infinity_classification():
    assert singularity_at_infinity(
        catalog_equation(parse("sinc(3)"))) is None
    for text in ("delay(1/2)", "chirp(1, 0, 0)", "rcos(2)"):
        pt = singularity_at_infinity(catalog_equation(parse(text)))
        assert pt is not None and pt.kind == "irregular", text
        assert pt.is_infinite


# --- spectra -----------------------------------------------------------------------


def test_cardinal_sine_spectrum():
    spec = spectrum_of_ode(catalog_equation(parse("sinc(5)")))
    assert spec.frequencies == (-5.0, 5.0)
    assert spec.infinite_singularity is False


def test_raised_cosine_spectrum():
    spec = spectrum_of_ode(catalog_equation(parse("rcos(2)")))
    assert spec.frequencies == (-2.0, 2.0)


def test_delay_spectrum_empty_for_both_signs():
    for lag in ("1/2", "-1/2"):
        spec = spectrum_of_ode(catalog_equation(parse(f"delay({lag})")))
        assert spec.frequencies == ()
        assert spec.infinite_singularity is False


def test_chirp_spectrum_empty_with_flag():
    spec = spectrum_of_ode(catalog_equation(parse("chirp(1, 2, 3)")))
    assert spec.frequencies == ()
    assert spec.infinite_singularity is True


@pytest.mark.parametrize("scale", ["", "2*", "-1/2*", "i*", "(1+i)*"])
def test_only_the_chirp_raises_the_infinity_flag(scale):
    for text in ("sinc(1)", "sinc(5/3)", "rcos(0)", "rcos(1)", "rcos(7/4)",
                 "delay(0)", "delay(1/2)", "delay(-3)", "chirp(1, 0, 0)",
                 "chirp(-1/2, 1/3, 2)", "chirp(3, -2, 1/2)"):
        spec = spectrum_of_ode(catalog_equation(parse(scale + text)))
        assert spec.infinite_singularity is text.startswith("chirp"), \
            scale + text


def test_untagged_systems_use_shape_of_coefficients():
    # Same shape as a linear-phase sweep but built by hand.
    sweep_like = OdeSystem(WeylOp((RatFunc(_S), RatFunc(Qi(0, 2)))),
                           RatFunc.ONE)
    assert spectrum_of_ode(sweep_like).infinite_singularity is True

    # First order with a non-polynomial rational right side: no flag.
    sinc_like = OdeSystem(WeylOp.D, RatFunc(CPoly([-3]), CPoly([9, 0, 1])))
    assert spectrum_of_ode(sinc_like).infinite_singularity is False


def _flag_by_normalizing(sys):
    """The infinity flag by its definition: irregular infinity, no finite
    point, and every r_k/r_n, k < n, a polynomial, one of positive degree."""
    *cs, rn = sys.op.coeffs
    qs = [c / rn for c in cs]
    infinity = singularity_at_infinity(sys)
    return (not finite_singularities(sys) and infinity is not None
            and infinity.kind == "irregular"
            and all(q.is_polynomial for q in qs)
            and max(q.num.degree for q in qs) >= 1)


def test_the_infinity_flag_equals_its_definition():
    # first- and second-order systems with polynomial and rational
    # coefficients and right sides, with and without finite points
    s = RatFunc(_S)
    coeffs = [RatFunc.ZERO, RatFunc.ONE, RatFunc(Qi(0, 2)), s, -3 * s * s,
              s * s * s + Qi(1, 1), RatFunc(Qi(1, 2)) / s,
              RatFunc(Qi(2, 0)) / (s * s), s * s * s / (s - 1),
              s / (s * s + 1), (s * s + 4) / (s * s)]
    rhss = [RatFunc.ZERO, RatFunc.ONE, s, RatFunc.ONE / s]
    rng = random.Random(3503)
    ops = []
    for _ in range(400):
        order = rng.randint(1, 2)
        op = [rng.choice(coeffs) for _ in range(order)]
        ops.append(op + [rng.choice(coeffs[1:])])
    # x'' + x' = g over r_n = 2/s^2: a zero r_0 has no degree to compare
    c = RatFunc(Qi(2)) / (s * s)
    ops += [[RatFunc.ZERO, c, c], [RatFunc.ZERO, 3 * c, c]]
    seen = set()
    for op in ops:
        sys = OdeSystem(WeylOp(tuple(op)), rng.choice(rhss))
        want = _flag_by_normalizing(sys)
        assert spectrum_of_ode(sys).infinite_singularity is want, sys
        seen.add((want, bool(finite_singularities(sys))))
    assert seen == {(True, False), (False, False), (False, True)}


def test_quadrature_poles_carry_their_order():
    # x' = 1/(s^2+1)^3: x has poles of order 2 at -i and i
    sys = OdeSystem(WeylOp.D, RatFunc(CPoly.ONE, CPoly([1, 0, 1]) ** 3))
    pts = finite_singularities(sys)
    assert [(p.refinement, p.order, p.label) for p in pts] \
        == [("pole", 2, "pole(2)")] * 2
    spec = spectrum_of_ode(sys)
    assert [(s.kind, s.order) for s in spec.sources] == [("pole", 2)] * 2
    assert spec.frequencies == pytest.approx((-1.0, 1.0), abs=1e-9)


def test_a_pole_keeps_its_order_next_to_a_close_simple_root():
    # x' = 1/((s-1)^3 (s-1-eps)): x has a pole of order 2 at s = 1 and a
    # logarithm at 1 + eps, however small eps is
    for eps in (Fraction(1, 10 ** 3), Fraction(1, 10 ** 7)):
        den = (_S - CPoly([1])) ** 3 * (_S - CPoly([1 + eps]))
        sys = OdeSystem(WeylOp.D, RatFunc(CPoly.ONE, den))
        pts = finite_singularities(sys)
        assert [(p.exact, p.label) for p in pts] \
            == [(Qi(1), "pole(2)"), (Qi(1 + eps), "logarithmic")]
        assert [p.location for p in pts] == [1, float(1 + eps)]


@pytest.mark.parametrize("den, points, freqs", [
    (CPoly([2, 0, 1]), ["-1.41421356237i", "1.41421356237i"],
     ["-1.41421356237", "1.41421356237"]),
    (CPoly([2, 0, 1]) * CPoly([3, 0, 1]),
     ["-1.73205080757i", "-1.41421356237i", "1.41421356237i",
      "1.73205080757i"],
     ["-1.73205080757", "-1.41421356237", "1.41421356237", "1.73205080757"]),
    (CPoly([-2, 0, 0, 1]),
     ["-0.629960524947 - 1.09112363597i", "-0.629960524947 + 1.09112363597i",
      "1.25992104989"], ["-1.09112363597", "1.09112363597"]),
])
def test_points_without_a_root_in_qi_stay_float(den, points, freqs):
    # no root of s^2+2, s^2+3 or s^3-2 lies in Q(i): these points are float
    # roots, printed as before the exact roots
    sys = OdeSystem(WeylOp.D, RatFunc(CPoly.ONE, den))
    pts = finite_singularities(sys)
    assert all(p.exact is None and p.label == "logarithmic" for p in pts)
    assert [_c12(p.location) for p in pts] == points
    assert [_g12(f) for f in spectrum_of_ode(sys).frequencies] == freqs


def test_exact_and_float_points_share_one_spectrum():
    # (s^2+1)(s^2+2) is one square-free factor: +-i come back exact and
    # +-sqrt(2)i float, each pair symmetric
    sys = OdeSystem(WeylOp.D, RatFunc(CPoly.ONE,
                                      CPoly([1, 0, 1]) * CPoly([2, 0, 1])))
    pts = finite_singularities(sys)
    assert [p.exact for p in pts] == [None, Qi(0, -1), Qi(0, 1), None]
    freqs = spectrum_of_ode(sys).frequencies
    assert freqs[1:3] == (-1.0, 1.0) and freqs[0] == -freqs[3]
    assert freqs[3] == pytest.approx(math.sqrt(2), abs=1e-12)


def _finite_by_tolerance(sys):
    """The classifier before the coprime base: float roots of the square-free
    factors of the lcm of the denominators, each coefficient's pole order
    read off the first of its square-free factors within 1e-6 there."""
    def order_near(r, p):
        for factor, mult in square_free_factors(r.den):
            if abs(factor(p)) <= 1e-6 * max(1.0, abs(p)) ** factor.degree:
                return mult
        return 0

    qs, g = _normalized(sys)
    lcm = oracles.poly_lcm(r.den for r in qs + [g])
    roots = sorted((z for f, _ in square_free_factors(lcm)
                    for z in _aberth(f.to_complex())), key=_location_key)
    return [(snap_axes(z), _classify(qs, [order_near(r, z) for r in qs + [g]]))
            for z in roots]


_CATALOG = [scale + atom for scale in ("", "2*", "-1/2*", "(1+i)*")
            for atom in ("sinc(1)", "sinc(5/3)", "sinc(1/8)", "rcos(1)",
                         "rcos(7/4)", "rcos(3)", "delay(1/2)",
                         "chirp(1, 2, 3)")]


def test_points_equal_the_tolerance_classifier():
    systems = [sys for _, _, _, sys in _oracle_cases()]
    systems += [catalog_equation(parse(text)) for text in _CATALOG]
    systems += [OdeSystem(WeylOp.D, RatFunc(CPoly([1, 1]), den)) for den in (
        CPoly([1, 0, 1]) ** 3, _S ** 2 * (_S - CPoly([Fraction(1, 2)])))]
    # x' + x/(s^2 (s^2+4)) = 0: irregular at 0, regular at +-2i
    systems.append(OdeSystem(WeylOp((RatFunc(CPoly.ONE, _S ** 2 * CPoly(
        [4, 0, 1])), RatFunc.ONE)), RatFunc.ZERO))
    outcomes = set()
    for sys in systems:
        got = finite_singularities(sys)
        want = _finite_by_tolerance(sys)
        assert [(p.kind, p.refinement, p.order) for p in got] \
            == [(w.kind, w.refinement, w.order) for _, w in want]
        for p, (z, _) in zip(got, want):
            assert p.exact is not None
            assert abs(p.location - z) <= 1e-9 * max(1.0, abs(z))
        outcomes.update((p.kind, p.label) for p in got)
    assert {"regular", "irregular"} == {kind for kind, _ in outcomes}
    assert {"logarithmic", "unclassified", "pole(1)", "pole(2)"} \
        == {label for _, label in outcomes}


# factors that share roots over Q(i): s^2 + 1 = (s - i)(s + i)
_FACTORS = (CPoly([0, 1]), CPoly([1, 1]), CPoly([-2, 1]), CPoly([1, 0, 1]),
            CPoly([Qi(0, -1), 1]), CPoly([2, 0, 1]), CPoly([1, 1, 1]))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=len(_FACTORS),
                         max_size=len(_FACTORS)), min_size=1, max_size=4))
def test_coprime_base_factors_every_denominator(exponents):
    dens = [math.prod((f ** e for f, e in zip(_FACTORS, es)), start=CPoly.ONE)
            for es in exponents]
    rs = [RatFunc(CPoly.ONE, d) for d in dens] + [RatFunc.ZERO]
    pairs = _pole_orders(rs)
    base = [b for b, _ in pairs]
    for j, b in enumerate(base):
        assert b.degree > 0 and poly_gcd(b, b.deriv()) == CPoly.ONE
        assert all(poly_gcd(b, c) == CPoly.ONE for c in base[j + 1:])
    for k, r in enumerate(rs):
        prod = math.prod((b ** orders[k] for b, orders in pairs),
                         start=CPoly.ONE)
        assert prod == r.den


# --- rendering --------------------------------------------------------------------


def test_operator_rendering():
    assert format_weylop(WeylOp((RatFunc.ONE, RatFunc.ZERO, RatFunc.ONE))) \
        == "(d/ds)^2 + 1"
    sys = catalog_equation(parse("chirp(1, 2, 3)"))
    assert format_weylop(sys.op) == "2i*d/ds + (s - 2i)"


def test_equation_rendering():
    sys = catalog_equation(parse("sinc(3)"))
    assert format_equation(sys) == "[d/ds] x = -3 / (s^2 + 9)"


def _coefficient_parts(rng):
    """Real parts of every kind a coefficient prints: 0 and +-1, small
    fractions, float origins, and values of many digits, below and beyond
    the float range."""
    return ([Fraction(0)] * 8 + [Fraction(1), Fraction(-1)] * 2
            + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
               for _ in range(16)]
            + [Fraction(rng.uniform(-1e3, 1e3)) for _ in range(8)]
            + [Fraction(rng.randint(-10 ** 30, 10 ** 30),
                        rng.randint(10 ** 9, 10 ** 12)) for _ in range(4)]
            + [Fraction(rng.randint(1, 7), rng.randint(2 ** 1030, 2 ** 1040))
               for _ in range(2)]
            + [Fraction(rng.randint(-10 ** 320, 10 ** 320), rng.randint(1, 10))
               for _ in range(2)])


def test_coefficient_text_equals_the_text_scan():
    # the wrapping decided from the value equals the scan of the printed
    # text for balanced parentheses, on constants, polynomials and
    # fractions with coefficients of every printed kind
    rng = random.Random(3001)
    parts = _coefficient_parts(rng)
    scalars = [Qi(a, b) for a in parts for b in parts[:12] + parts[12::7]]

    def poly(degree):
        cs = [rng.choice(scalars) for _ in range(degree + 1)]
        return CPoly(cs[:-1] + [cs[-1] or Qi(1)])

    kinds = [0] * 4       # bare or in parentheses, constant or not
    for k in range(100_000):
        if k % 3 == 0:
            r = RatFunc(rng.choice(scalars))
        elif k % 3 == 1:
            r = RatFunc(poly(rng.randint(1, 2)))
        else:
            r = RatFunc(poly(rng.randint(0, 1)), poly(rng.randint(1, 2)))
        txt = weylode._coeff_text(r)
        assert txt == oracles.coeff_text(r), r
        kinds[2 * (r.num.degree == r.den.degree == 0) + (txt[0] == "(")] += 1
    assert min(kinds) > 1000
