"""Expression grammar, canonical AST, classification, evaluation, and the
symbolic differentiation oracle."""

import cmath
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles

from algspec import sigexpr
from algspec.ratfield import CPoly, Qi
from algspec.sigexpr import (_key, _linear_coeffs, Add, Chirp, Const, Cos, Delay, Dirac,
                             EvaluationError, Exp, ExpressionError, Mul,
                             ParameterError, Pow, RaisedCos, SignalClass,
                             SignalSyntaxError, Sin, Sinc, TFrac, TimeVar,
                             _jet, as_ratfunc_in_t, canonical, classify,
                             evaluate, make_add, make_div, make_exp, make_mul,
                             make_pow, parse, pretty_print, split_scale)


# --- parsing ------------------------------------------------------------------


def test_parse_plain_tone():
    assert parse("sin(2*t)") == Sin(2, 0)


def test_parse_sum_of_products():
    got = parse("3*t^2*exp(-t) + sinc(5)")
    want = make_add([
        make_mul([Const(3), make_pow(TimeVar(), 2), make_exp(-1)]),
        Sinc(5),
    ])
    assert got == want
    product = next(term for term in got.terms if isinstance(term, Mul))
    assert product.factors[0] == Const(3)
    assert Pow(TimeVar(), 2) in product.factors
    assert Exp(-1) in product.factors
    assert Sinc(5) in got.terms


def test_parse_rejects_zero_sinc_parameter():
    with pytest.raises(ParameterError):
        parse("sinc(0)")
    with pytest.raises(ParameterError):
        parse("chirp(0, 1, 1)")


def test_syntax_error_carries_byte_offset():
    with pytest.raises(SignalSyntaxError) as info:
        parse("sin(2*t")
    assert "byte offset" in str(info.value)
    with pytest.raises(SignalSyntaxError) as info:
        parse("2*@")
    assert info.value.offset == 2


def test_an_exponent_past_the_int_digit_limit_is_a_syntax_error():
    # int() converts at most sys.get_int_max_str_digits() digits
    text = "2*t^" + "9" * 5000 + " + 1"
    with pytest.raises(SignalSyntaxError) as info:
        parse(text)
    assert str(info.value) == "exponent too large at byte offset 4"
    assert info.value.offset == 4
    assert _outcome(parse, text) == _outcome(oracles.parse, text)


def _nesting_offset(text: str, frames: int) -> int:
    """The offset of the nesting refusal, from `frames` calls deeper."""
    if frames:
        return _nesting_offset(text, frames - 1)
    with pytest.raises(SignalSyntaxError,
                       match="^expression nested too deeply") as info:
        parse(text)
    return info.value.offset


def test_the_nesting_budget_is_a_property_of_the_text():
    # the 101st "(" is refused, whatever the depth of the caller's stack
    parens = "(" * 250 + "t" + ")" * 250
    calls = "exp(" * 150 + "t" + ")" * 150
    for text, offset in ((parens, 100), (calls, 403)):
        assert _nesting_offset(text, 0) == offset
        assert _nesting_offset(text, 100) == offset
        assert _nesting_offset(text, 300) == offset
    assert parse("(" * 100 + "t" + ")" * 100) == TimeVar()


def test_syntax_error_offset_counts_bytes_not_characters():
    # the two-byte character before the bad token shifts the offset by 2
    with pytest.raises(SignalSyntaxError) as info:
        parse("é")
    assert info.value.offset == 0
    with pytest.raises(SignalSyntaxError) as info:
        parse("(é)")
    assert info.value.offset == 1


def test_parse_numbers_and_fractions():
    assert parse("1/2") == Const(Qi(Fraction(1, 2)))
    assert parse("2.5") == Const(Qi(Fraction(5, 2)))
    assert parse("1e2") == Const(Qi(100))
    assert parse("2.5e-1") == Const(Qi(Fraction(1, 4)))
    assert parse("i^2") == Const(Qi(-1))


def test_parse_call_forms():
    assert parse("sin(3)") == Sin(3, 0)
    assert parse("sin(2*t + 1/2)") == Sin(2, Fraction(1, 2))
    assert parse("cos(2, 1)") == Cos(2, 1)
    assert parse("exp(2*t)") == Exp(2)
    assert parse("exp(-t)") == Exp(-1)
    assert parse("exp(i*t)") == Exp(Qi(0, 1))
    assert parse("delay(-1/2)") == Delay(Fraction(-1, 2))
    assert parse("chirp(1, 2, 3)") == Chirp(1, 2, 3)
    assert parse("dirac()") == Dirac()


@pytest.mark.parametrize("text, want", [
    ("sin(0*t + 3)", "sin(0, 3)"), ("sin(t - t + 3)", "sin(0, 3)"),
    ("cos(2*t - 2*t)", "cos(0, 0)"), ("sin((t - t)*5 + 2)", "sin(0, 2)"),
    ("cos(0*t - 1/2)", "cos(0, -1/2)"), ("sin(exp(0*t))", "sin(0, 1)"),
    ("sin(3)", "sin(3*t)"), ("cos(1/2 + 1/4)", "cos(3/4*t)"),
])
def test_a_trig_argument_naming_t_is_read_as_written(text, want):
    # only an argument whose text names no t is read as the frequency
    assert parse(text) == parse(want)


def test_parse_arity_and_form_errors():
    with pytest.raises(ParameterError):
        parse("sin()")
    with pytest.raises(ParameterError):
        parse("dirac(1)")
    with pytest.raises(ParameterError):
        parse("chirp(1, 2)")
    with pytest.raises(ExpressionError):
        parse("exp(t^2)")
    with pytest.raises(ExpressionError):
        parse("exp(1 + t)")
    with pytest.raises(ParameterError):
        parse("sin(i*t)")


@pytest.mark.parametrize("text, message", [
    ("exp()", "exp takes 1 argument, got 0 argument(s)"),
    ("sin(1, 2, 3)", "sin takes 1 or 2 arguments, got 3 argument(s)"),
    ("cos()", "cos takes 1 or 2 arguments, got 0 argument(s)"),
    ("sinc(1, 2)", "sinc takes 1 argument, got 2 argument(s)"),
    ("rcos()", "rcos takes 1 argument, got 0 argument(s)"),
    ("dirac(1)", "dirac takes no arguments, got 1 argument(s)"),
    ("delay(1, 2)", "delay takes 1 argument, got 2 argument(s)"),
    ("chirp(1, 2)", "chirp takes 3 arguments, got 2 argument(s)"),
    ("sinc(t)", "sinc parameter must be a constant"),
    ("delay(i)", "delay parameter must be real"),
])
def test_a_call_refuses_its_arguments_in_its_own_words(text, message):
    with pytest.raises(ParameterError) as info:
        parse(text)
    assert str(info.value) == message


def test_division_folds_into_a_single_fraction():
    e = parse("1/(t^2+1)")
    assert isinstance(e, TFrac)
    assert parse("t/(t^2+1)") == make_div(TimeVar(), parse("t^2+1"))
    assert parse("t/t") == Const(1)
    assert parse("(t^2+1)/1") == parse("t^2+1")
    with pytest.raises(ParameterError):
        parse("1/0")
    with pytest.raises(ExpressionError):
        parse("1/sin(2*t)")


def test_constant_quotients_fold_to_scalars():
    assert make_div(Const(Qi(1, 2)), Const(Qi(0, 3))) == Const(
        Qi(Fraction(2, 3), Fraction(-1, 3)))
    assert parse("(1/3)/(2/7)") == Const(Qi(Fraction(7, 6)))
    assert parse("0/5") == Const(Qi(0))
    for text in ("0/0", "2/(1-1)", "sin(2/0*t)", "t/0"):
        with pytest.raises(ParameterError, match="division by zero"):
            parse(text)


def test_digit_literals_parse_exactly_at_any_length():
    assert parse("007") == Const(Qi(7))
    for n in (4299, 4300, 4301, 6000):     # around int()'s digit limit
        assert parse("1" * n) == Const(Qi((10 ** n - 1) // 9))


def _linear_coeffs_by_ratfunc(e):
    r = oracles.ratfunc_in_t(e)
    if r is None or not r.is_polynomial or r.num.degree > 1:
        return None
    coeffs = list(r.num.coeffs) + [Qi(0), Qi(0)]
    return coeffs[0], coeffs[1]


def test_linear_arguments_read_off_the_node_match_the_ratfunc_route():
    shapes = [Const(Qi(3)), Const(Qi(0)), Const(Qi(1, -2)), TimeVar(),
              Mul((Const(Qi(Fraction(1, 8))), TimeVar())),
              Mul((Const(Qi(0)), TimeVar())), Mul((Const(Qi(0, 1)), TimeVar())),
              parse("2*t + 1/2"), parse("t - t"), parse("t^2"),
              parse("t/(t+1)"), parse("(t+1)^2 - t^2"), parse("sin(t)")]
    rng = random.Random(2210)
    shapes += [_rand_expr(rng, rng.randint(0, 2)) for _ in range(300)]
    for e in shapes:
        assert _linear_coeffs(e) == _linear_coeffs_by_ratfunc(e), e


_q = st.builds(Fraction, st.integers(-5, 5), st.sampled_from([1, 2, 3, 8]))
_scalars = st.one_of(st.builds(Qi, _q), st.builds(Qi, _q, _q),
                     st.floats(-1e3, 1e3).map(Qi))
_drawn_polys = st.one_of(st.just(CPoly.ZERO), _scalars.map(CPoly.scalar),
                         st.lists(_scalars, min_size=1, max_size=6).map(CPoly))


@settings(max_examples=300, deadline=None)
@given(_drawn_polys)
def test_the_polynomial_reader_inverts_the_tree_builder(p):
    assert sigexpr._polynomial(sigexpr._poly_tree(p)) == p


def test_the_polynomial_reader_reads_polynomial_trees_alone():
    # a canonical tree is read exactly when it is the tree of its polynomial
    rng = random.Random(3501)
    trees = [_rand_expr(rng, rng.randint(0, 3)) for _ in range(400)]
    trees += [parse(text) for text in (
        "t/(t^2 + 1)", "sin(t) + t", "t*sin(t)", "(t + 1)^2", "t*exp(t)",
        "2*(1 + t)^2", "2*(1 + t)", "dirac()", "3*t^2*exp(-t) + 1")]
    read = 0
    for e in trees:
        r = oracles.ratfunc_in_t(e)
        if (r is not None and r.is_polynomial
                and sigexpr._poly_tree(r.num) == e):
            assert sigexpr._polynomial(e) == r.num, e
            read += 1
        else:
            assert sigexpr._polynomial(e) is None, e
    assert 20 < read < len(trees) - 100


@settings(max_examples=300, deadline=None)
@given(oracles.signal_texts)
def test_rational_reading_equals_the_reference_on_parsed_trees(text):
    try:
        e = parse(text)
    except ExpressionError:
        return
    for node in (e, *getattr(e, "terms", ()), *getattr(e, "factors", ())):
        assert as_ratfunc_in_t(node) == oracles.ratfunc_in_t(node), text


def test_rational_reading_equals_the_reference_on_other_trees():
    # random and non-canonical trees: factors out of order, a product of
    # constants, a sum inside a sum, t^0
    rng = random.Random(3502)
    trees = [_rand_expr(rng, rng.randint(0, 3)) for _ in range(400)]
    trees += [Mul((TimeVar(), Const(Qi(2)))), Mul((Const(Qi(2)), Const(Qi(3)))),
              Add((Add((TimeVar(), Const(Qi(1)))), TimeVar())),
              Pow(TimeVar(), 0), Mul((Const(Qi(0)), TimeVar())),
              Add((Mul((Const(Qi(2)), Pow(TimeVar(), 3))), Sin(1, 0)))]
    for e in trees:
        assert as_ratfunc_in_t(e) == oracles.ratfunc_in_t(e), e


def test_scalars_collect_leftmost_in_products():
    e = parse("t*3")
    assert e == parse("3*t")
    assert isinstance(e, Mul)
    assert e.factors[0] == Const(3)


# --- classification -------------------------------------------------------------


def test_classify_exponential_polynomials():
    assert classify(parse("sin(3*t)")) == SignalClass.EXP_POLYNOMIAL
    assert classify(parse("(t^2+1)*exp(-t)*cos(2*t)")) == \
        SignalClass.EXP_POLYNOMIAL
    assert classify(parse("3")) == SignalClass.EXP_POLYNOMIAL


def test_classify_impulse():
    assert classify(parse("dirac()")) == SignalClass.DIRAC
    assert classify(parse("2*dirac()")) == SignalClass.DIRAC


def test_classify_equation_defined_atoms():
    for text in ("sinc(2)", "rcos(3)", "delay(1)", "chirp(1,0,0)",
                 "3*sinc(2)"):
        assert classify(parse(text)) == SignalClass.ODE_DEFINED, text


def test_classify_refuses_mixed_products():
    assert classify(make_mul([Sinc(2), Sin(3, 0)])) == SignalClass.UNSUPPORTED
    assert classify(parse("sinc(2)*sin(3*t)")) == SignalClass.UNSUPPORTED
    assert classify(parse("sin(2*t)/t")) == SignalClass.UNSUPPORTED
    assert classify(parse("1/(t^2+1)")) == SignalClass.UNSUPPORTED


def test_split_scale():
    scale, atom = split_scale(parse("3*sinc(2)"))
    assert scale == Qi(3)
    assert atom == Sinc(2)
    scale, atom = split_scale(parse("dirac()"))
    assert scale == Qi(1)
    assert atom == Dirac()


# --- the symbolic differentiation oracle ----------------------------------------


def test_diff_time_tone():
    assert oracles.diff_time(Sin(2, 0)) == make_mul([Const(2), Cos(2, 0)])
    assert oracles.diff_time(Cos(2, 0)) == make_mul([Const(-2), Sin(2, 0)])


def test_diff_time_monomial():
    want = make_mul([Const(2), TimeVar()])
    assert oracles.diff_time(Pow(TimeVar(), 2)) == want
    assert oracles.diff_time(TimeVar()) == Const(1)
    assert oracles.diff_time(Const(7)) == Const(0)


def test_diff_time_sinc_closed_form():
    # d/dt [sin(wt)/t] at t=1 is w*cos(w) - sin(w)
    for w in (2, 5):
        got = oracles.evaluate(oracles.diff_time(Sinc(w)), 1.0)
        want = w * math.cos(w) - math.sin(w)
        assert abs(got - want) <= 1e-12


def test_diff_time_rejects_nondifferentiable_atoms():
    with pytest.raises(ExpressionError):
        oracles.diff_time(Dirac())
    with pytest.raises(ExpressionError):
        oracles.diff_time(Delay(1))


def test_diff_time_matches_finite_differences():
    rng = random.Random(2201)
    exprs = [
        parse("sin(2*t)"), parse("cos(3*t + 1)"), parse("t^3*exp(-t)"),
        parse("sinc(2)"), parse("rcos(3)"), parse("exp(i*t)"),
        parse("chirp(1, 2, 0)"), parse("(t^2+1)*sin(t)"),
        parse("t/(t^2+1)"), parse("(sin(t) + cos(2*t))^2"),
    ]
    h = 1e-6
    for e in exprs:
        d = oracles.diff_time(e)
        for _ in range(5):
            t = rng.uniform(0.1, 10.0)
            got = oracles.evaluate(d, t)
            fd = (oracles.evaluate(e, t + h)
                  - oracles.evaluate(e, t - h)) / (2 * h)
            assert abs(got - fd) <= 1e-5 * (1 + abs(got)), (e, t)


# --- evaluation --------------------------------------------------------------------


def test_evaluate_examples():
    assert evaluate(Sinc(2), 0.0) == 2.0
    assert abs(evaluate(Sin(2, 0), math.pi / 4) - 1) <= 1e-15
    assert abs(evaluate(RaisedCos(3), 1.0) - math.cos(3) / 2) <= 1e-15


def test_evaluate_rejects_impulse_and_delay():
    with pytest.raises(EvaluationError, match="^dirac impulse has no pointwise"):
        evaluate(Dirac(), 0.0)
    with pytest.raises(EvaluationError, match="^standalone delay atom has no"):
        evaluate(Delay(1), 0.0)
    # a derivative of either is refused as the jets refuse it
    for atom in (Dirac(), Delay(1)):
        with pytest.raises(ExpressionError, match="not differentiable") as err:
            _jet(atom, 0.0, 1)
        assert type(err.value) is ExpressionError


@pytest.mark.parametrize("t", [0.0, 1.0])
@pytest.mark.parametrize("text, value, slope", [
    ("dirac()", "dirac impulse has no pointwise value",
     "dirac impulse is not differentiable"),
    ("delay(1)", "standalone delay atom has no pointwise value",
     "delay atom is not differentiable"),
])
def test_an_impulse_or_delay_is_refused_with_one_text_at_any_time(
        text, value, slope, t):
    # the exact walk at 0 and the float walk elsewhere refuse it alike
    e = parse(text)
    with pytest.raises(EvaluationError) as err:
        evaluate(e, t)
    assert str(err.value) == value
    with pytest.raises(ExpressionError) as err:
        _jet(e, t, 2)
    assert (type(err.value), str(err.value)) == (ExpressionError, slope)


def test_evaluate_rejects_fraction_pole():
    with pytest.raises(EvaluationError):
        evaluate(parse("1/t"), 0.0)
    # identically zero over t^100, beyond the terms spent on cancelling
    with pytest.raises(EvaluationError, match="pole at t = 0.0"):
        evaluate(parse("(sin(t)^2+cos(t)^2-1)/t^100"), 0.0)


@pytest.mark.parametrize("text, want", [
    ("sin(t)/t", 1.0), ("(1-cos(t))/t^2", 0.5), ("(sinc(2)-2)/t^2", -4 / 3)])
def test_evaluate_takes_the_limit_where_a_pole_cancels(text, want):
    assert evaluate(parse(text), 0.0) == want


def test_evaluate_overflows_only_where_the_value_does():
    # the scale 3 is applied last, so 3*t does not overflow on its own
    got = evaluate(parse("3*t*cos(3/10*t)"), 1e308)
    assert got == 3 * (1e308 * math.cos(0.3 * 1e308))
    assert abs(got - 8.6396e307) <= 1e-4 * 8.6396e307
    with pytest.raises(OverflowError, match="float range"):
        evaluate(parse("t^200*exp(3*t)"), 1e308)


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_a_constant_beyond_the_float_range_is_an_overflow(t):
    # exact at 0, float at 0.5: either way the constant has no float value
    with pytest.raises(OverflowError, match="exceeds the float range"):
        evaluate(parse("10^400"), t)


def test_evaluate_decides_a_fraction_pole_exactly():
    # at t = 1/2 the float value of t^2 - 5/6*t + 1/6 is -2^-55, not 0
    with pytest.raises(EvaluationError):
        evaluate(parse("1/(t^2-5/6*t+1/6)"), 0.5)
    assert abs(evaluate(parse("1/(t^2-5/6*t+1/6)"), 0.25) - 48) <= 1e-12


@pytest.mark.parametrize("text", ["sinc(2)", "1/(t+1)", "sin(t)", "t"])
@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_evaluate_refuses_a_time_that_is_not_finite(text, t):
    with pytest.raises(EvaluationError, match="finite"):
        evaluate(parse(text), t)


@pytest.mark.parametrize("text", ["sin(2*t)", "cos(3*t)", "sinc(2)",
                                  "rcos(3)", "chirp(1,0,0)", "exp(2*i*t)"])
def test_an_angle_beyond_the_float_range_is_an_overflow(text):
    # rate * t overflows at a finite t; math would call it a domain error
    # and cmath.exp of chirp's infinite angle would give nan
    e = parse(text)
    with pytest.raises(OverflowError, match="float range"):
        evaluate(e, 1e308)
    with pytest.raises(OverflowError, match="float range"):
        _jet(e, 1e308, 2)
    evaluate(e, 1e150 if text.startswith("chirp") else 1e300)


def test_evaluate_chirp_is_unimodular():
    e = parse("chirp(1, 2, 3)")
    for t in (0.0, 0.5, 2.0):
        assert abs(abs(evaluate(e, t)) - 1) <= 1e-12


def test_chirp_jet_follows_the_closed_form():
    # x = exp(g) with g = i(t^2 + 2t + 3): x' = g'x, x''/2 = (g'' + g'^2)x/2
    # and x'''/6 = (3g'g'' + g'^3)x/6, at t = 1/2 in floats
    t = 0.5
    x = cmath.exp(1j * (t * t + 2 * t + 3))
    g1, g2 = 1j * (2 * t + 2), 2j
    want = [x, g1 * x, (g2 + g1 * g1) * x / 2,
            (3 * g1 * g2 + g1 ** 3) * x / 6]
    got = _jet(parse("chirp(1, 2, 3)"), t, 3)
    assert all(abs(a - b) <= 1e-14 * abs(b) for a, b in zip(got, want))
    # with no offset the jet at 0 is exact: g' = 2i, g'' = 2i
    assert _jet(parse("chirp(1, 2, 0)"), 0, 3) \
        == [Qi(1), Qi(0, 2), Qi(-2, 1), Qi(-2, Fraction(-4, 3))]


def _value_or_class(fn, *args):
    """The value, or the class of the failure."""
    try:
        return fn(*args)
    except Exception as err:            # compared, not swallowed
        return type(err)


# The float walk of `oracles.evaluate` rounds at each sum and product, so
# its error is a multiple of eps times `_rounding_scale`, and where the
# exact value cancels to 0 its value is that residue.  The check allows 64
# roundings at that scale.
_RESIDUE_ULPS = 64


def _rounding_scale(e, t: float) -> float:
    """The walk of `oracles.evaluate` over magnitudes: a sum of the scales
    of the terms, a product of those of the factors, a rational factor its
    numerator's coefficients by magnitude at |t| over its denominator, and
    any other atom the magnitude of its value; inf where a float overflows.
    """
    try:
        if isinstance(e, Add):
            return math.fsum(_rounding_scale(x, t) for x in e.terms)
        if isinstance(e, Mul):
            return math.prod(_rounding_scale(x, t) for x in e.factors)
        if isinstance(e, Pow):
            return _rounding_scale(e.base, t) ** e.k
        if isinstance(e, TFrac):
            size = math.fsum(abs(complex(c)) * abs(t) ** k
                             for k, c in enumerate(e.rat.num.coeffs))
            return size / abs(e.rat.den(complex(t)))
        return abs(oracles.evaluate(e, t))
    except OverflowError:
        return math.inf


@settings(max_examples=300, deadline=None)
@given(oracles.well_formed_texts,
       st.sampled_from([0.0, 0.5, 1.25, -0.75, 3.0, 1e308, 1e-300]))
@example("sin(t)/t", 0.0)
@example("-sin(0)/t", 0.0)
@example("(1-cos(t))/t^2", 0.0)
@example("-i + i/1*1*(1 + t)^2/.14*.14*(1 + t)^2", 0.0)
@example("-i + -t/.6 + -i*-t", 1e308)
def test_evaluate_equals_the_tree_walk(text, t):
    try:
        e = parse(text)
    except ExpressionError:
        return
    got = _value_or_class(evaluate, e, t)
    want = _value_or_class(oracles.evaluate, e, t)
    jet = _value_or_class(_jet, e, t, 2)
    if not isinstance(jet, type):
        assert got == complex(jet[0]), text
    if t == 0 and want is EvaluationError and isinstance(got, complex):
        # the walk stops at a pole that the series cancels, and the limit
        # is the walk's value nearby, up to the rounding that the
        # cancellation magnifies
        with pytest.raises(EvaluationError, match="has a pole at t = 0"):
            oracles.evaluate(e, t)
        for h in (2.0 ** -20, -2.0 ** -20):
            near = oracles.evaluate(e, h)
            assert abs(near - got) <= 1e-3 * max(1.0, abs(got)), text
        return
    if want is OverflowError:
        # the walk multiplies left to right, and at 1e308 it can overflow
        # before it meets the impulse or delay the series refuses first
        if not isinstance(got, type):
            return
        if got is EvaluationError and ("dirac" in pretty_print(e)
                                       or "delay" in pretty_print(e)):
            return
    if isinstance(want, type):
        assert got is want, text
    else:
        assert isinstance(got, complex), text
        # both values over 4, which is exact, so that no modulus of finite
        # parts overflows; the bound is the same
        got, want = got / 4, want / 4
        if abs(got - want) > 1e-12 * abs(want):
            # admitted only where the oracle's value is within its own
            # rounding residue of 0, and the walk's within that of it; a
            # scale beyond the float range admits nothing
            residue = (_RESIDUE_ULPS * sys.float_info.epsilon
                       * _rounding_scale(e, t) / 4)
            assert residue < math.inf, text
            assert abs(want) <= residue, text
            assert abs(got - want) <= residue, text


# --- canonical form and round trip ----------------------------------------------


def _rand_leaf(rng):
    k = rng.randrange(8)
    if k == 0:
        return Const(Qi(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                        Fraction(rng.randint(-2, 2))))
    if k == 1:
        return TimeVar()
    if k == 2:
        return Sin(Fraction(rng.randint(-4, 4)),
                   Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    if k == 3:
        return Cos(Fraction(rng.randint(-4, 4)),
                   Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
    if k == 4:
        return make_exp(Qi(Fraction(rng.randint(-3, 3)),
                           Fraction(rng.randint(-3, 3))))
    if k == 5:
        return Sinc(Fraction(rng.randint(1, 5)))
    if k == 6:
        return RaisedCos(Fraction(rng.randint(-4, 4)))
    num = make_add([make_mul([Const(rng.randint(1, 3)),
                              make_pow(TimeVar(), rng.randint(0, 2))]),
                    Const(rng.randint(-3, 3))])
    den = make_add([make_pow(TimeVar(), 2), Const(rng.randint(1, 4))])
    return make_div(num, den)


def _rand_expr(rng, depth):
    if depth <= 0:
        return _rand_leaf(rng)
    k = rng.randrange(5)
    if k == 0:
        return make_add([_rand_expr(rng, depth - 1)
                         for _ in range(rng.randint(2, 3))])
    if k == 1:
        return make_mul([_rand_expr(rng, depth - 1)
                         for _ in range(rng.randint(2, 3))])
    if k == 2:
        return make_pow(_rand_expr(rng, depth - 1), rng.randint(0, 3))
    if k == 3:
        return rng.choice([Dirac(), Delay(Fraction(rng.randint(-2, 2))),
                           Chirp(rng.randint(1, 3), rng.randint(-2, 2),
                                 rng.randint(-2, 2))])
    return _rand_leaf(rng)


def test_pretty_print_round_trip_on_random_expressions():
    rng = random.Random(2202)
    for _ in range(300):
        e = _rand_expr(rng, rng.randint(0, 3))
        text = pretty_print(e)
        back = parse(text)
        assert back == canonical(e), f"{text!r} -> {back!r}"


def test_pretty_print_round_trip_on_parsed_text():
    samples = [
        "sin(2*t)", "3*t^2*exp(-t) + sinc(5)", "sin(2*t + 1/2)",
        "sin(0, 1/2)", "2*dirac()", "chirp(1, 2, 3)", "delay(-1/2)",
        "(t^2+1)*cos(3*t)", "t/(t^2+1)", "1/(t^2+4) + exp(-t)",
        "exp((1+2*i)*t)", "(sin(t)+cos(t))^2", "-t^2 + 1",
    ]
    for text in samples:
        e = parse(text)
        assert parse(pretty_print(e)) == e, text


_pp_coeffs = st.sampled_from(["1", "-1", "2", "-3", "1/2", "-5/3", "i",
                              "-2*i", "(1 + i)", "(1/2 - 3*i)", "2.5e-3"])
_pp_polys = st.lists(st.builds("{}*t^{}".format, _pp_coeffs,
                               st.integers(0, 4)),
                     min_size=1, max_size=4).map(" + ".join)


@settings(max_examples=200, deadline=None)
@given(st.builds("({})/({}){}".format, _pp_polys, _pp_polys, st.sampled_from(
    ["", "*sin(t)", "*exp(-t)", "*sinc(2)", " + t^2", " - cos(2*t - 1/3)",
     "*(t + i)^2", "^2*exp((1 + i)*t)"])))
@example("(t^2+1)/(t^3-2*t+1/2)*sin(t)")
def test_pretty_print_round_trip_on_rational_functions_of_t(text):
    try:
        e = parse(text)
    except ParameterError:          # a zero divisor
        return
    assert parse(pretty_print(e)) == e, text


def test_canonical_is_idempotent():
    rng = random.Random(2203)
    for _ in range(100):
        e = _rand_expr(rng, 3)
        c = canonical(e)
        assert canonical(c) == c


def test_classify_is_total_on_random_expressions():
    rng = random.Random(2204)
    for _ in range(200):
        e = _rand_expr(rng, 3)
        assert classify(e) in SignalClass


def test_add_and_mul_flatten():
    e = make_add([make_add([Const(1), TimeVar()]), Sin(2, 0)])
    assert isinstance(e, Add)
    assert all(not isinstance(term, Add) for term in e.terms)
    m = make_mul([make_mul([Const(2), TimeVar()]), Sin(2, 0)])
    assert isinstance(m, Mul)
    assert all(not isinstance(f, Mul) for f in m.factors)


def test_pow_normalization():
    assert make_pow(TimeVar(), 0) == Const(1)
    assert make_pow(Sin(2, 0), 1) == Sin(2, 0)
    assert make_pow(Const(3), 2) == Const(9)
    assert make_pow(make_exp(2), 3) == make_exp(6)
    with pytest.raises(ValueError):
        Pow(TimeVar(), -1)


# --- the parser against its plain reference ----------------------------------


def _outcome(parse_fn, text):
    """The tree, or the class, message and byte offset of the failure."""
    try:
        return parse_fn(text)
    except Exception as err:            # compared, not swallowed
        return type(err), str(err), getattr(err, "offset", None)


# The texts where the parser's shortcuts (a literal fraction, a sign folded
# into a scalar, t^k and c*atom built directly) must stop: a numerator that
# is itself a divisor, a divisor raised to a power, a sign on -1*t, a zero
# divisor or numerator, and a literal with more digits than int() converts.
_SHORTCUT_TEXTS = [
    "t/2/3", "2/3^2", "-2/3^2*t", "-0^0 - -t", "1/0*t", "0/2*t", "2*3/4*t",
    "1/t*3/4", "3/2/t", "-(-t)", "- -t", "2^3/4",
]
_LONG_LITERAL_TEXT = "9" * 5000 + "/7*t"
# The call arguments where reading c1*t + c0 off the tokens must stop, or
# must give what the general path gives: a sign, a zero rate, spaces, a
# phase in either order or sign, unreduced fractions, a sign on a sign, a
# power, a divisor raised to a power or 0, exp with a constant or a divisor,
# and a literal with more digits than int() converts.
_CALL_TEXTS = [
    "sin(-t)", "sin(0*t)", "sin(2 * t)", "cos(2*t + 1/3)", "sin(1/3 + 2*t)",
    "cos(-3/4*t - 5/2)", "sin(-2/4*t + 6/8)", "sin(t - -1)", "sin(2*t^2)",
    "sin(2/3^2*t)", "sin(3/0*t)", "exp(0*t)", "exp(t+1)", "exp(-t/2)",
]
_LONG_RATE_TEXT = "sin(" + "7" * 5000 + "*t)"


@settings(max_examples=400, deadline=None)
@given(oracles.signal_texts)
@example("t/2/3")
@example("2/3^2")
@example("-2/3^2*t")
@example("-0^0 - -t")
@example("1/0*t")
@example("0/2*t")
@example("2*3/4*t")
@example("1/t*3/4")
@example("3/2/t")
@example("-(-t)")
@example("- -t")
@example("2^3/4")
@example(_LONG_LITERAL_TEXT)
def test_parse_equals_the_reference_parser(text):
    assert _outcome(parse, text) == _outcome(oracles.parse, text), text


@pytest.mark.parametrize("text", [
    "1/t*t*(1 + t)^2", "t*(1/t)*(1 + t)^2", "(1 + t)^2*t/t", "sin(t)/t*t",
    "2*t/(t^2 + 1)*(t^2 + 1)*cos(t)", "-2^2", "-2^2*t", "- 1/3*t", "3 - -t",
    "1 - (2 - t)", "t - t", "0*sin(t)*t/(t + 1)", "2e3*t - 1.5E-2",
    "exp(-1/8*t)*(1/2 - 3/2*t)", "2*@", "sin(t", "t^t", "1/sin(t)",
    "1/(t - t)", "é + t", "1..5", "1.5.t", "t . 5", "sinc(0)",
] + _SHORTCUT_TEXTS + _CALL_TEXTS + [
    pytest.param(_LONG_LITERAL_TEXT, id="9...9/7*t"),
    pytest.param(_LONG_RATE_TEXT, id="sin(7...7*t)")])
def test_parse_equals_the_reference_parser_on_edge_texts(text):
    assert _outcome(parse, text) == _outcome(oracles.parse, text)


def test_linear_call_arguments_are_read_off_the_tokens(monkeypatch):
    # c1*t and c1*t + c0 in sin, cos and exp build their atom directly, with
    # no argument node read back as a rational function of t
    text = "(1/2 - 3/2*t)*sin(7/8*t - 1/3)*exp(-5/8*t)"
    calls = []
    for name in ("_linear_coeffs", "as_ratfunc_in_t"):
        def counting(*args, _name=name, _original=getattr(sigexpr, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(sigexpr, name, counting)
    got = parse(text)
    assert calls == []
    monkeypatch.undo()
    assert got == oracles.parse(text)


def test_a_polynomial_of_literal_fractions_makes_no_products(monkeypatch):
    # every monomial's fraction, sign, t^k and scalar product is built as
    # its node directly, with no quotient of two constants and no make_mul
    text = "3/2 - 1/2*t + 5/2*t^2 - 1/2*t^3"
    calls = []
    for name in ("_quotient", "make_mul"):
        def counting(*args, _name=name, _original=getattr(sigexpr, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(sigexpr, name, counting)
    got = parse(text)
    assert calls == []
    monkeypatch.undo()
    assert got == oracles.parse(text)


def test_a_rational_factor_keeps_the_product_folded_left():
    # 1/t*t folds to 1 before the square meets it, so the square stays
    assert parse("1/t*t*(1 + t)^2") == make_pow(parse("1 + t"), 2)
    assert parse("t*(1 + t)^2/t") == parse("1 + t^2 + 2*t")


def test_long_sums_parse_in_linear_time():
    terms = [f"sin({k}*t)" for k in range(1, 4001)]
    t0 = time.perf_counter()
    got = parse(" + ".join(terms))
    assert time.perf_counter() - t0 < 2.0
    assert got == make_add([parse(term) for term in terms])


def test_stored_keys_are_not_part_of_the_value():
    e = parse("sin(t) + 2*t^2 + exp(-t)")
    bare = Add(e.terms)                 # a new node with no stored key
    _key(e)
    assert (bare == e, hash(bare), repr(bare)) == (True, hash(e), repr(e))
    assert "_key" in e.__dict__ and "_key" not in bare.__dict__
