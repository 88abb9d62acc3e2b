"""Differential operators over rational functions and their singular points."""

import math
import random
from fractions import Fraction

import pytest

from algspec.ratfield import CPoly, Qi, RatFunc, alg_deriv
from algspec.sigexpr import ExpressionError, parse
from algspec.weylode import (OdeSystem, WeylOp, apply, catalog_equation,
                             finite_singularities, format_equation,
                             format_weylop, mul_ops, singularity_at_infinity,
                             spectrum_of_ode, transform_to_infinity)

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


def _chart_by_products(sys):
    # sum of r_k(1/z) (-z^2 d/dz)^k, each power built by composition
    w = WeylOp((RatFunc.ZERO, RatFunc(CPoly([0, 0, -1]))))
    acc, wk = WeylOp((RatFunc.ZERO,)), WeylOp.IDENTITY
    for k, rk in enumerate(sys.op.coeffs):
        if not rk.is_zero:
            acc = acc + _mul_ops_by_terms(WeylOp((rk.subst_reciprocal(),)), wk)
        if k < sys.op.order:
            wk = _mul_ops_by_terms(w, wk)
    return OdeSystem(acc, sys.rhs.subst_reciprocal())


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


def test_chart_at_infinity_equals_repeated_products():
    orders = set()
    for _, _, _, sys in _oracle_cases():
        assert transform_to_infinity(sys) == _chart_by_products(sys)
        orders.add((sys.op.order, sys.rhs.is_zero))
    assert orders == {(n, z) for n in (1, 2, 3, 4) for z in (False, True)}


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


def test_quadrature_poles_carry_their_order():
    # x' = 1/(s^2+1)^3: x has poles of order 2 at -i and i
    sys = OdeSystem(WeylOp.D, RatFunc(CPoly.ONE, CPoly([1, 0, 1]) ** 3))
    pts = finite_singularities(sys)
    assert [(p.refinement, p.order, p.label) for p in pts] \
        == [("pole", 2, "pole(2)")] * 2
    spec = spectrum_of_ode(sys)
    assert [(s.kind, s.order) for s in spec.sources] == [("pole", 2)] * 2
    assert spec.frequencies == pytest.approx((-1.0, 1.0), abs=1e-9)


# --- rendering --------------------------------------------------------------------


def test_operator_rendering():
    assert format_weylop(WeylOp((RatFunc.ONE, RatFunc.ZERO, RatFunc.ONE))) \
        == "(d/ds)^2 + 1"
    sys = catalog_equation(parse("chirp(1, 2, 3)"))
    assert format_weylop(sys.op) == "2i*d/ds + (s - 2i)"


def test_equation_rendering():
    sys = catalog_equation(parse("sinc(3)"))
    assert format_equation(sys) == "[d/ds] x = -3 / (s^2 + 9)"
