"""Exact arithmetic in C(s), root finding, poles, and pole-based spectra."""

import cmath
import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import algspec.ratfield as ratfield
import oracles
from algspec.opcalc import (ExpPoly, _convolve, from_signal, to_exppoly,
                            to_rational)
from algspec.sigexpr import _cauchy, parse
from algspec.ratfield import (CPoly, DigitLimitError, PartialFractions,
                              PFTerm, Pole, Qi, RatFunc, RootFindingError,
                              SingularitySource, Spectrum, _I_MOD,
                              _P, _aberth, _conv, _coprime_mod_p, _euclid_gcd,
                              _gconv, _image_mod_p, _power, _series_quotient,
                              _shift, _stretched, alg_deriv, clean_frequencies,
                              partial_fractions,
                              poles, poly_gcd, poly_roots, snap_axes,
                              spectrum_of_rational, square_free_factors)


def _rand_qi(rng, span=4):
    return Qi(Fraction(rng.randint(-span, span), rng.randint(1, 3)),
              Fraction(rng.randint(-span, span), rng.randint(1, 3)))


def _rand_poly(rng, max_deg=3, span=4):
    return CPoly([_rand_qi(rng, span) for _ in range(rng.randint(0, max_deg) + 1)])


def _rand_nonzero_poly(rng, max_deg=3, span=4):
    while True:
        p = _rand_poly(rng, max_deg, span)
        if not p.is_zero:
            return p


def _rand_ratfunc(rng, max_deg=3):
    return RatFunc(_rand_poly(rng, max_deg), _rand_nonzero_poly(rng, max_deg))


# --- scalars ----------------------------------------------------------------


def test_qi_field_axioms():
    rng = random.Random(2101)
    for _ in range(200):
        a, b, c = (_rand_qi(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if b:
            assert (a / b) * b == a


def test_qi_conjugate_and_powers():
    z = Qi(Fraction(1, 2), Fraction(-3, 4))
    assert z.conjugate() == Qi(Fraction(1, 2), Fraction(3, 4))
    assert (z * z.conjugate()).is_real
    assert Qi(0, 1) ** 2 == Qi(-1)
    assert Qi(2) ** -1 == Qi(Fraction(1, 2))
    assert Qi(0, 1) ** -1 == Qi(0, -1)


def test_qi_display():
    assert str(Qi(3)) == "3"
    assert str(Qi(Fraction(-1, 2))) == "-1/2"
    assert str(Qi(0, 1)) == "i"
    assert str(Qi(0, 2)) == "2i"
    assert str(Qi(1, 2)) == "(1+2i)"


# The scalar oracle: Qi as it was when it held a pair of Fractions.


def _ofrac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def _ofrac_str(f):
    if f.denominator > 1_000_000_000:
        if f and abs(f) < Fraction(sys.float_info.min):
            return _sci12(f)
        try:
            return format(float(f), ".12g")
        except OverflowError:
            return _sci12(f)
    return str(f)


def _sci12(f):
    """f != 0 at 12 significant digits in the style of "%.12g" for a
    magnitude outside the normal float range, rounded half to even from the
    exact value."""
    a = abs(f)
    e = math.floor(math.log10(a.numerator) - math.log10(a.denominator))
    while a >= Fraction(10) ** (e + 1):
        e += 1
    while a < Fraction(10) ** e:
        e -= 1
    q = round(a * Fraction(10) ** (11 - e))
    if q == 10 ** 12:
        q, e = q // 10, e + 1
    digits = str(q).rstrip("0")
    mant = digits[0] + ("." + digits[1:] if len(digits) > 1 else "")
    return f"{'-' if f < 0 else ''}{mant}e{e:+03d}"


class _OQi:
    def __init__(self, re=0, im=0):
        self.re, self.im = _ofrac(re), _ofrac(im)

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __add__(self, other):
        return _OQi(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _OQi(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _OQi(self.re * other.re - self.im * other.im,
                    self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero scalar")
        return _OQi((self.re * other.re + self.im * other.im) / d,
                    (self.im * other.re - self.re * other.im) / d)

    def __pow__(self, k):
        if k < 0:
            return _OQi(1) / (self ** (-k))
        out, base = _OQi(1), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"Qi({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return _ofrac_str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{_ofrac_str(self.im)}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imtxt = "i" if mag == 1 else f"{_ofrac_str(mag)}i"
        return f"({_ofrac_str(self.re)}{sign}{imtxt})"


def _outcome(f, *args):
    """f(*args), or the type of the exception it raised; a ValueError
    stands for a DigitLimitError."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as exc:
        return ValueError if isinstance(exc, ValueError) else type(exc)


def _assert_canonical_qi(z):
    assert z._d > 0 and math.gcd(z._a, z._b, z._d) == 1
    assert (z._a, z._b, z._d) == (z.re.numerator * (z._d // z.re.denominator),
                                  z.im.numerator * (z._d // z.im.denominator),
                                  z._d)


def _assert_same_scalar(z, o):
    if isinstance(z, type):
        assert z is o
        return
    _assert_canonical_qi(z)
    assert (z.re, z.im) == (o.re, o.im)
    assert bool(z) == bool(o)
    assert _outcome(repr, z) == _outcome(repr, o)
    assert _outcome(str, z) == _outcome(str, o)
    assert _outcome(complex, z) == _outcome(complex, o)


# exact parts: small, huge, with large denominators, and from floats
_parts = st.one_of(
    st.integers(-12, 12),
    st.integers(-2 ** 300, 2 ** 300),
    st.fractions(max_denominator=50),
    st.builds(Fraction, st.integers(-2 ** 200, 2 ** 200),
              st.integers(1, 2 ** 120)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6, allow_nan=False).map(Fraction),
)


@settings(max_examples=400, deadline=None)
@given(_parts, _parts, _parts, _parts, st.integers(-4, 6))
def test_qi_matches_the_fraction_pair_oracle(a, b, c, d, k):
    x, y = Qi(a, b), Qi(c, d)
    ox, oy = _OQi(a, b), _OQi(c, d)
    _assert_same_scalar(x, ox)
    _assert_same_scalar(y, oy)
    assert (x == y) == (ox == oy)
    assert x == Qi(a, b) and (x != y) == (not ox == oy)
    _assert_same_scalar(-x, _OQi(0) - ox)
    _assert_same_scalar(x.conjugate(), _OQi(ox.re, -ox.im))
    for op in (lambda u, v: u + v, lambda u, v: u - v,
               lambda u, v: u * v, lambda u, v: u / v):
        _assert_same_scalar(_outcome(op, x, y), _outcome(op, ox, oy))
        _assert_same_scalar(_outcome(op, y, x), _outcome(op, oy, ox))
        _assert_same_scalar(_outcome(op, x, x), _outcome(op, ox, ox))
    for u, ou in ((x, ox), (Qi(a), _OQi(a)), (Qi(0, c), _OQi(0, c))):
        _assert_same_scalar(_outcome(pow, u, k), _outcome(pow, ou, k))
    # mixed operands coerce as before
    _assert_same_scalar(x + 2, ox + _OQi(2))
    _assert_same_scalar(3 - x, _OQi(3) - ox)
    _assert_same_scalar(x * Fraction(1, 3), ox * _OQi(Fraction(1, 3)))
    _assert_same_scalar(_outcome(lambda: 1 / x), _outcome(lambda: _OQi(1) / ox))
    assert (x == a) == (ox == _OQi(a))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(Qi, _parts, _parts), min_size=1, max_size=6),
       st.one_of(st.just(Qi(0)), st.builds(Qi, _parts),
                 st.builds(Qi, _parts, _parts)))
def test_a_product_by_a_constant_equals_the_convolution(coeffs, c):
    # a factor of degree 0 scales the other one's integers: the product is
    # the canonical convolution product, either way round
    p, k = CPoly(coeffs), CPoly.scalar(c)
    want = (CPoly._canon(*_gconv(p._re, p._im, k._re, k._im), p._d * k._d)
            if p and k else CPoly.ZERO)
    assert p * k == want and k * p == want and p * c == want


def test_qi_display_keeps_the_digit_limit_apart():
    big = 10 ** 5000
    with pytest.raises(DigitLimitError, match="limit of 4300 digits"):
        str(Qi(big))
    with pytest.raises(DigitLimitError):
        str(Qi(1, Fraction(1, 7) + big))
    assert str(Qi(Fraction(big, 3 * big + 1))) == "0.333333333333"
    assert str(Qi(10 ** 4299)) == "1" + "0" * 4299


def test_qi_repr_keeps_the_digit_limit_apart():
    z = Qi(3.124745509000873e+214, 2.225073858507203e-309) ** -4
    with pytest.raises(DigitLimitError, match="limit of 4300 digits"):
        repr(z)
    assert repr(Qi(Fraction(1, 3), -2)) \
        == "Qi(Fraction(1, 3), Fraction(-2, 1))"


# coefficients: zero, +-1, +-i, small complex values, reduced denominators
# above 10^9 (printed at 12 digits), and magnitudes below 2^-1022 or beyond
# the float range (printed from the integers)
_format_parts = st.one_of(
    st.fractions(max_denominator=9),
    st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
              st.integers(10 ** 9 + 1, 10 ** 12)),
    st.builds(Fraction, st.integers(1, 7), st.integers(2 ** 1030, 2 ** 1040)),
    st.builds(Fraction, st.integers(-10 ** 320, 10 ** 320),
              st.integers(1, 10 ** 10)),
)
_format_coeffs = st.one_of(
    st.sampled_from([Qi(0), Qi(0), Qi(1), Qi(-1), Qi(0, 1), Qi(0, -1)]),
    st.builds(Qi, _format_parts),
    st.builds(lambda im: Qi(0, im), _format_parts),
    st.builds(Qi, _format_parts, _format_parts),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_format_coeffs, max_size=7))
def test_polynomial_text_equals_the_coefficient_text(coeffs):
    p = CPoly(coeffs)
    assert p.format() == oracles.cpoly_format(p)


def test_polynomial_text_keeps_the_digit_limit_apart():
    for p in (CPoly([1, 10 ** 5000]), CPoly([Qi(0, -(10 ** 5000))]),
              CPoly([Fraction(1, 3), Fraction(10 ** 5000, 7)])):
        with pytest.raises(DigitLimitError, match="limit of 4300 digits"):
            p.format()
        with pytest.raises(DigitLimitError):
            oracles.cpoly_format(p)


def test_an_image_beyond_the_float_range_has_a_repr():
    # its coefficients reach 1e375 over powers of 3, and print at 12 digits
    r = to_rational(from_signal(parse("(t+1)^200*exp(-t/3)")))
    parts = [x for q in r.num.coeffs + r.den.coeffs for x in (q.re, q.im)]
    big = max(parts, key=abs)
    assert big > 10 ** 375 and big.denominator > 10 ** 9
    assert _ofrac_str(big) in repr(r)


def test_qi_float_overflow_is_an_overflow_error():
    with pytest.raises(OverflowError, match="exceeds the float range"):
        complex(Qi(10 ** 400))
    with pytest.raises(OverflowError, match="exceeds the float range"):
        complex(Qi(0, Fraction(-(10 ** 400), 3)))
    assert complex(Qi(Fraction(1, 10 ** 400))) == 0j


def test_a_polynomial_beyond_the_float_range_names_it():
    with pytest.raises(OverflowError, match="exceeds the float range"):
        CPoly([1, 10 ** 400]).to_complex()
    # the exact-root pass refuses the float coefficients and the split
    # goes on to the float roots, which cannot be had either
    s4 = CPoly([0, 0, 0, 0, 1])
    with pytest.raises(OverflowError, match="exceeds the float range"):
        poles(RatFunc(CPoly.ONE, s4 - CPoly([10 ** 800])))


@pytest.mark.parametrize("value", [
    Fraction(2), Fraction(-3, 4), Fraction(0), 2.5 + 0.5j, 0.125j, -0.5 - 3j,
])
def test_equal_scalars_hash_equal_by_every_route(value):
    if isinstance(value, complex):
        re, im = Fraction(value.real), Fraction(value.imag)
    else:
        re, im = value, Fraction(0)
    d = math.lcm(re.denominator, im.denominator)
    a, b = int(re * d), int(im * d)
    routes = [
        Qi(re, im), Qi(re) + Qi(0, im), Qi(float(re), float(im)),
        Qi.coerce(complex(float(re), float(im))), Qi(str(re), str(im)),
        Qi._canon(6 * a, 6 * b, 6 * d), Qi._canon(a, b, d),
        CPoly([Fraction(1, 9), Qi(re, im), 1]).coeffs[1],
        (CPoly([0, Qi(re, im), 1]) * CPoly([Fraction(1, 3)]) * 3).coeffs[1],
    ]
    if not im:
        routes += [Qi.coerce(re), Qi.coerce(float(re))]
        if re.denominator == 1:
            routes += [Qi(int(re)), Qi.coerce(int(re)), Qi(int(re), 0)]
    for z in routes:
        _assert_canonical_qi(z)
        assert z == routes[0] and hash(z) == hash(routes[0]), z
    assert len(set(routes)) == 1


@settings(max_examples=200, deadline=None)
@given(_parts, _parts, st.integers(1, 10 ** 6))
def test_canonical_form_does_not_depend_on_the_scale(a, b, k):
    z = Qi(a, b)
    again = Qi._canon(z._a * k, z._b * k, z._d * k)
    assert again == z and hash(again) == hash(z)


# small parts often share a real part across denominators: 1, 2/2, 3/3;
# dyadic parts reach the bounds of exact float division
_near_parts = st.one_of(
    st.integers(-3, 3),
    st.fractions(-3, 3, max_denominator=6),
    st.builds(Fraction, st.integers(-2 ** 54, 2 ** 54),
              st.sampled_from([2, 8, 2 ** 60, 2 ** 1074, 2 ** 1075])),
    _parts,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.builds(Qi, _near_parts, _near_parts), max_size=12))
@example([Qi(Fraction(2 ** 53 + 1, 2)), Qi(2 ** 52), Qi(2 ** 52 + 1),
          Qi(Fraction(1, 2 ** 1075)), Qi(0), Qi(Fraction(3, 2 ** 1075)),
          Qi(Fraction(1, 2 ** 1074))])
def test_order_key_sorts_as_the_fraction_parts(zs):
    def oracle(q):
        return q.re, q.im
    assert sorted(zs, key=lambda q: q.order_key) == sorted(zs, key=oracle)
    for x in zs:
        for y in zs:
            assert ((x.order_key < y.order_key) == (oracle(x) < oracle(y))
                    and (x.order_key == y.order_key) == (x == y))


# --- polynomials ------------------------------------------------------------


def test_cpoly_divmod_is_exact():
    rng = random.Random(2102)
    for _ in range(100):
        a = _rand_poly(rng, 5)
        b = _rand_nonzero_poly(rng, 3)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


# The oracle: the arithmetic CPoly had when each coefficient was a Qi of two
# Fractions, on ascending lists of Qi with no trailing zero.


def _o_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _o_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] = out[k] + c
    return _o_trim(out)


def _o_scale(a, c):
    return _o_trim([x * c for x in a])


def _o_mul(a, b):
    if not a or not b:
        return []
    out = [Qi(0)] * (len(a) + len(b) - 1)
    for j, x in enumerate(a):
        for k, y in enumerate(b):
            out[j + k] = out[j + k] + x * y
    return _o_trim(out)


def _o_divmod(a, b):
    rem = list(a)
    dn, dd = len(rem) - 1, len(b) - 1
    if dn < dd:
        return [], list(a)
    quot = [Qi(0)] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = rem[k + dd] / b[-1]
        quot[k] = c
        for j, bc in enumerate(b):
            rem[k + j] = rem[k + j] - c * bc
    return _o_trim(quot), _o_trim(rem)


def _o_deriv(a):
    return _o_trim([c * Qi(k) for k, c in enumerate(a)][1:])


def _o_monic(a):
    return [c / a[-1] for c in a]


def _o_image_mod_p(cs):
    out = []
    for c in cs:
        v = 0
        for part, unit in ((c.re, 1), (c.im, _I_MOD)):
            if part.denominator % _P == 0:
                return None
            v += part.numerator * unit * pow(part.denominator, -1, _P)
        out.append(v % _P)
    return out


def _assert_canonical(p):
    assert len(p._re) == len(p._im)
    if p.is_zero:
        assert (p._re, p._im, p._d) == ((), (), 1)
        return
    assert p._d > 0
    assert p._re[-1] or p._im[-1]
    assert math.gcd(p._d, *p._re, *p._im) == 1
    # the same value built from its Qi coefficients
    again = CPoly(p.coeffs)
    assert again == p and hash(again) == hash(p)


def _rand_kernel_poly(rng, max_deg=12):
    dens = (1, 2, 3, 7, 12)
    return [Qi(Fraction(rng.randint(-9, 9), rng.choice(dens)),
               Fraction(rng.randint(-9, 9), rng.choice(dens)) * rng.randint(0, 1))
            for _ in range(rng.randint(0, max_deg) + 1)]


def _same(p, oracle):
    _assert_canonical(p)
    assert list(p.coeffs) == _o_trim(oracle)


def test_kernel_ring_operations_match_the_fraction_oracle():
    rng = random.Random(2120)
    for _ in range(300):
        a, b = _rand_kernel_poly(rng), _rand_kernel_poly(rng)
        c = _rand_qi(rng)
        pa, pb = CPoly(a), CPoly(b)
        a, b = _o_trim(a), _o_trim(b)
        _same(pa, a)
        _same(pa + pb, _o_add(a, b))
        _same(pa - pb, _o_add(a, _o_scale(b, Qi(-1))))
        _same(pa - pa, [])
        _same(-pa, _o_scale(a, Qi(-1)))
        _same(pa * pb, _o_mul(a, b))
        _same(pa * c, _o_scale(a, c))
        _same(c * pa, _o_scale(a, c))
        _same(pa * 3, _o_scale(a, Qi(3)))
        _same(pa.deriv(), _o_deriv(a))
        if a:
            _same(pa.monic(), _o_monic(a))
        k = rng.randint(0, 3)
        want = [Qi(1)]
        for _ in range(k):
            want = _o_mul(want, a)
        _same(pa ** k, want)


_int_lists = st.integers(1, 40).flatmap(lambda n: st.lists(
    st.integers(-(1 << 200), 1 << 200), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(_int_lists, _int_lists)
def test_conv_is_the_naive_double_sum(a, b):
    want = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            want[i + j] += x * y
    assert _conv(a, b) == want
    assert _conv(b, a) == want


@pytest.mark.parametrize("p, r", [
    ([Qi(1, -2), Qi(Fraction(1, 3)), Qi(0, 1)], [Qi(2), Qi(0)]),
    ([Qi(-1), Qi(0), Qi(1)], [Qi(Fraction(2, 7)), Qi(1)]),
    ([Qi(Fraction(5, 2))], [Qi(0, -1), Qi(Fraction(3, 8), 1)]),
    ([Qi(0), Qi(1)], [Qi(1)]),
    ([Qi(1), Qi(0), Qi(1)], [Qi(1), Qi(2)]),
])
def test_powers_equal_repeated_products(p, r):
    # binary powering squares only while bits remain
    poly = CPoly(p)
    rat = RatFunc(CPoly(r), poly)
    want_p, want_r = CPoly.ONE, RatFunc.ONE
    for k in range(10):
        assert poly ** k == want_p
        assert rat ** k == want_r
        assert rat ** -k == RatFunc.ONE / want_r
        want_p, want_r = want_p * poly, want_r * rat


def test_kernel_divmod_matches_the_fraction_oracle():
    rng = random.Random(2121)
    leads = [Qi(-2), Qi(0, 3), Qi(1, 1), Qi(Fraction(1, 7))]
    cases = 0
    for trial in range(400):
        a = _rand_kernel_poly(rng)
        b = _o_trim(_rand_kernel_poly(rng, 6))[:-1] + [leads[trial % 4]]
        if trial % 10 == 0:
            b = [leads[trial // 10 % 4]]        # a degree-0 divisor
        if trial % 25 == 0:
            a = []                               # a zero dividend
        pa, pb = CPoly(a), CPoly(b)
        q, r = divmod(pa, pb)
        want_q, want_r = _o_divmod(_o_trim(a), b)
        _same(q, want_q)
        _same(r, want_r)
        assert q * pb + r == pa
        assert r.degree < pb.degree
        assert pa // pb == q and pa % pb == r
        cases += 1
    assert cases == 400


def test_equal_values_by_different_routes_are_equal_and_hash_equal():
    s, half = CPoly.S, Qi(Fraction(1, 2))
    routes = [
        CPoly([Fraction(1, 2), Fraction(1, 2)]),
        (s + CPoly.ONE) * half,
        (CPoly([2, 2]) * half) * half,
        (CPoly([-1, 0, 1]) // (s - CPoly.ONE)) * half,
        CPoly([Qi(0, 1), Qi(0, 1)]) * Qi(0, Fraction(-1, 2)),
        CPoly([3, 3]).monic() * half,
    ]
    for p in routes:
        _assert_canonical(p)
        assert p == routes[0] and hash(p) == hash(routes[0])
    assert CPoly([0, 0]) == CPoly.ZERO and CPoly([1, 0]) == CPoly.ONE


def test_division_by_a_negative_lead_leaves_a_positive_denominator():
    # (s^2 + 1) divided by 3 - 2s: every scale of the remainder is by -2
    q, r = divmod(CPoly([1, 0, 1]), CPoly([3, -2]))
    for p in (q, r):
        _assert_canonical(p)
    assert q == CPoly([Fraction(-3, 4), Fraction(-1, 2)])
    assert r == CPoly([Fraction(13, 4)])


def test_image_mod_p_matches_the_per_coefficient_image():
    rng = random.Random(2122)
    for _ in range(200):
        a = _rand_kernel_poly(rng)
        assert _image_mod_p(CPoly(a)) == _o_image_mod_p(_o_trim(a))
    tiny = CPoly([Fraction(1, _P), Qi(0, Fraction(3, 2))])
    assert tiny._d % _P == 0
    assert _image_mod_p(tiny) is None


def test_poly_gcd_examples():
    s = CPoly([0, 1])
    one = CPoly([1])
    assert poly_gcd((s - one) * (s + one), s - one) == (s - one).monic()
    assert poly_gcd(CPoly([0, 2]), CPoly([2])) == CPoly([1])


def _is_prime(n):
    # Miller-Rabin with the first twelve primes as bases: deterministic
    # below 3.3e24
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_certificate_prime_has_a_square_root_of_minus_one():
    assert _is_prime(_P) and _P % 4 == 1
    assert _I_MOD * _I_MOD % _P == _P - 1


def test_certified_gcd_matches_euclid_on_random_pairs():
    rng = random.Random(2110)
    certified = 0
    for trial in range(120):
        a = _rand_nonzero_poly(rng, 8, span=6)
        b = _rand_nonzero_poly(rng, 8, span=6)
        if trial % 2:
            common = _rand_nonzero_poly(rng, 3, span=6)
            a, b = a * common, b * common
        want = _euclid_gcd(a, b)
        assert poly_gcd(a, b) == want
        if _coprime_mod_p(a, b):
            certified += 1
            assert want == CPoly.ONE
    assert certified >= 40


def test_certificate_falls_back_to_euclid():
    s = CPoly.S
    # coprime over Q(i) but equal mod P
    shifted = CPoly([_P, 1])
    # a coefficient that has no image mod P
    tiny = CPoly([Fraction(1, _P), 1])
    # leading coefficient (P - _I_MOD) + i, which maps to 0 mod P
    vanishing = CPoly([1, Qi(_P - _I_MOD, 1)])
    cases = [
        (s, shifted),
        (tiny, s + CPoly.ONE),
        (tiny * (s + CPoly.ONE), s + CPoly.ONE),
        (vanishing, s + CPoly.ONE),
        (vanishing * (s - CPoly.ONE), vanishing * s),
    ]
    for a, b in cases:
        assert not _coprime_mod_p(a, b)
        assert not _coprime_mod_p(b, a)
        assert poly_gcd(a, b) == _euclid_gcd(a, b)
    assert poly_gcd(s, shifted) == CPoly.ONE
    assert poly_gcd(tiny * (s + CPoly.ONE), s + CPoly.ONE) \
        == s + CPoly.ONE
    assert poly_gcd(vanishing * (s - CPoly.ONE), vanishing * s) \
        == vanishing.monic()


def test_square_free_factors_recover_multiplicities():
    rng = random.Random(2103)
    s = CPoly([0, 1])
    for _ in range(30):
        roots = {}
        for _ in range(rng.randint(1, 3)):
            roots[Qi(rng.randint(-3, 3), rng.randint(-3, 3))] = rng.randint(1, 3)
        p = CPoly([1])
        for root, mult in roots.items():
            p = p * (s - CPoly.scalar(root)) ** mult
        expanded = CPoly([1])
        for factor, mult in square_free_factors(p):
            expanded = expanded * factor ** mult
        assert expanded.monic() == p.monic()


# --- rational functions -----------------------------------------------------


def test_partial_sum_of_simple_fractions():
    s = CPoly([0, 1])
    one = CPoly([1])
    left = RatFunc(one, s - one) + RatFunc(one, s + one)
    assert left == RatFunc(CPoly([0, 2]), CPoly([-1, 0, 1]))


def test_product_cancels_common_factor():
    r = RatFunc(CPoly([0, 1]), CPoly([1, 0, 1])) * RatFunc(CPoly([1, 0, 1]))
    assert r == RatFunc.S


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc.ONE / RatFunc.ZERO
    with pytest.raises(ZeroDivisionError):
        RatFunc(CPoly.ONE, CPoly.ZERO)


def test_reduce_examples():
    assert RatFunc(CPoly([-1, 0, 1]), CPoly([-1, 1])) == RatFunc(CPoly([1, 1]))
    assert RatFunc(CPoly([0, 2]), CPoly([2])) == RatFunc.S
    p = CPoly([9, 0, 1])
    assert RatFunc(p, p) == RatFunc.ONE


def test_reduced_form_is_canonical():
    rng = random.Random(2104)
    for _ in range(100):
        r = _rand_ratfunc(rng)
        if r.is_zero:
            assert r.num == CPoly.ZERO and r.den == CPoly.ONE
            continue
        assert r.den.leading() == Qi(1)
        assert poly_gcd(r.num, r.den).degree == 0
        extra = _rand_nonzero_poly(rng, 2)
        assert RatFunc(r.num * extra, r.den * extra) == r


def test_field_axioms_random():
    rng = random.Random(2105)
    for _ in range(60):
        a, b, c = (_rand_ratfunc(rng, 2) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero:
            assert (a / b) * b == a


# --- roots and poles ----------------------------------------------------------


def test_poles_conjugate_pair():
    ps = poles(RatFunc(CPoly([3]), CPoly([9, 0, 1])))
    assert len(ps) == 2
    assert abs(ps[0].location - (-3j)) <= 1e-9
    assert abs(ps[1].location - 3j) <= 1e-9
    assert [p.multiplicity for p in ps] == [1, 1]


def test_pole_multiplicity_from_repeated_factor():
    s = CPoly([0, 1])
    two = CPoly.scalar(Qi(2))
    ps = poles(RatFunc(CPoly.ONE, (s - two) ** 3))
    assert len(ps) == 1
    assert abs(ps[0].location - 2) <= 1e-9
    assert ps[0].multiplicity == 3


def test_poles_of_mixed_real_complex_product():
    s = CPoly([0, 1])
    den = (s - CPoly.scalar(Qi(1))) * (s - CPoly.scalar(Qi(1, 5)))
    r = RatFunc(CPoly.ONE, den)
    ps = poles(r)
    assert len(ps) == 2
    locs = sorted((p.location for p in ps),
                  key=lambda z: (round(z.real, 6), z.imag))
    assert abs(locs[0] - 1) <= 1e-9
    assert abs(locs[1] - (1 + 5j)) <= 1e-9
    # the found roots really are roots of the denominator
    for p in ps:
        assert abs(den(p.location)) <= 1e-10


def test_roots_of_random_products_have_small_residuals():
    rng = random.Random(2106)
    s = CPoly([0, 1])
    for _ in range(25):
        roots = []
        p = CPoly([1])
        for _ in range(rng.randint(2, 6)):
            root = Qi(rng.randint(-4, 4), rng.randint(-4, 4))
            roots.append(complex(root))
            p = p * (s - CPoly.scalar(root))
        found = poly_roots(p)
        assert sum(q.multiplicity for q in found) == len(roots)
        for q in found:
            assert abs(p(q.location)) <= 1e-10 * max(
                abs(complex(c)) for c in p.coeffs)
            assert min(abs(q.location - r) for r in roots) <= 1e-7


_gauss = st.builds(lambda a, b, c, d: Qi(Fraction(a, b), Fraction(c, d)),
                   st.integers(-6, 6), st.integers(1, 6),
                   st.integers(-6, 6), st.integers(1, 6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_gauss, st.integers(1, 4)), min_size=1, max_size=4,
                unique_by=lambda qm: qm[0]),
       st.sampled_from([None, (2, 0, 1), (-2, 0, 0, 1)]))
def test_roots_in_qi_come_back_exact(roots, cofactor):
    # prod (s - q_k)^m_k, times s^2 + 2 or s^3 - 2, which have no root in Q(i)
    p = CPoly.ONE
    for q, m in roots:
        p = p * CPoly([-q, 1]) ** m
    if cofactor:
        p = p * CPoly(cofactor)
    found = poly_roots(p)
    exact = sorted(((q.exact, q.multiplicity) for q in found
                    if q.exact is not None), key=lambda qm: qm[0].order_key)
    assert exact == sorted(roots, key=lambda qm: qm[0].order_key)
    for q in found:
        if q.exact is not None:
            assert q.location == complex(q.exact)
    floats = [q for q in found if q.exact is None]
    assert len(floats) == (len(cofactor) - 1 if cofactor else 0)
    assert all(q.multiplicity == 1 for q in floats)
    for q in floats:
        assert abs(CPoly(cofactor)(q.location)) <= 1e-9


def test_a_root_rounding_to_its_neighbour_does_not_take_its_value():
    # s^3 - 4s^2 + s has the roots 0 and 2 +- sqrt(3); 2 - sqrt(3) = 0.27
    # also rounds to 0, but only the root 0 may take it
    found = poly_roots(CPoly([0, 1, -4, 1]))
    assert [q.exact for q in found] == [Qi(0), None, None]
    assert found[1].location == pytest.approx(2 - math.sqrt(3), abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.lists(_gauss, min_size=1, max_size=7), _gauss,
       st.integers(1, 9))
def test_taylor_shift_gives_the_derivatives_over_factorials(coeffs, q, count):
    p = CPoly(coeffs)
    want, d, fact = [], p, 1
    for k in range(count):
        want.append(d.at(q) / fact if d else Qi(0))
        d, fact = d.deriv(), fact * (k + 1)
    assert ratfield._taylor_shift(p, q, count) == want


_small = st.integers(-9, 9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_small, _small), min_size=1, max_size=7),
       _small, _small, st.integers(1, 6))
def test_shift_and_stretch_compose_with_a_linear_map(coeffs, cr, ci, big):
    # F(L*s + c) by Horner's rule on CPoly products
    re, im = [a for a, _ in coeffs], [b for _, b in coeffs]
    lin = CPoly([Qi(cr, ci), big])
    want = CPoly.ZERO
    for a, b in reversed(coeffs):
        want = want * lin + CPoly([Qi(a, b)])
    got = _stretched(*_shift(re, im, cr, ci, len(re)), big)
    assert CPoly._canon(*got, 1) == want
    # coefficients beyond the degree are 0
    assert _shift(re, im, cr, ci, len(re) + 2)[0][len(re):] == [0, 0]


@settings(max_examples=100, deadline=None)
@given(_small, _small, _small, _small, st.integers(0, 12), st.integers(-2, 2))
def test_a_monomial_shifts_as_by_repeated_division(ar, ai, cr, ci, n, extra):
    # a*y^n shifted by its binomial row against count synthetic divisions
    count = max(1, n + 1 + extra)
    re, im = [0] * n + [ar], [0] * n + [ai]
    want_r, want_i = [0] * count, [0] * count
    qr, qi = re, im
    for k in range(min(count, n + 1)):
        if len(qr) > 1:
            qr, qi, want_r[k], want_i[k] = ratfield._synthetic_division(
                qr, qi, cr, ci)
        else:
            want_r[k], want_i[k] = qr[0], qi[0]
    assert _shift(re, im, cr, ci, count) == (want_r, want_i)


@settings(max_examples=200, deadline=None)
@given(st.lists(_gauss, min_size=1, max_size=6),
       st.lists(st.one_of(st.just(Qi(0)), _gauss), min_size=1,
                max_size=12).filter(lambda d: d[0]),
       st.integers(1, 8))
@example([Qi(1), Qi(2)], [Qi(1)] + [Qi(0)] * 9, 8)
@example([Qi(3)], [Qi(2), Qi(0), Qi(0), Qi(-1), Qi(0), Qi(0, 1)], 8)
def test_series_quotient_times_the_divisor_gives_back_the_dividend(
        num, den, n):
    # divisors may be sparse, with zeros between nonzero terms, and longer
    # than n
    num = num + [Qi(0)] * (n - len(num))
    q = _series_quotient(num, den, n)
    assert len(q) == n
    assert _cauchy(q, den + [Qi(0)] * n, n) == num[:n]


def _drop_zero_terms(terms):
    return {rate: poly for rate, poly in terms.items() if poly}


def test_binary_powering_equals_repeated_products():
    poly = CPoly([Qi(1, -2), 0, Qi(Fraction(1, 3))])
    terms = {Qi(0): CPoly([1, 1]), Qi(0, 2): CPoly([Qi(0, Fraction(-1, 2))]),
             Qi(0, -2): CPoly([Qi(0, Fraction(1, 2))])}
    series = [Qi(1), Qi(0, 1), Qi(Fraction(-1, 2)), Qi(0, Fraction(-1, 6))]
    jet_mul = lambda a, b: _cauchy(a, b, len(b))     # noqa: E731
    one_series = [Qi(1)] + [Qi(0)] * (len(series) - 1)
    want_p, want_t, want_s = CPoly.ONE, {Qi(0): CPoly.ONE}, one_series
    for k in range(10):
        assert _power(poly, k, CPoly.__mul__, CPoly.ONE) == want_p
        assert _drop_zero_terms(
            _power(terms, k, _convolve, {Qi(0): CPoly.ONE})) \
            == _drop_zero_terms(want_t)
        assert _power(series, k, jet_mul, one_series) == want_s
        want_p = want_p * poly
        want_t = _convolve(want_t, terms)
        want_s = jet_mul(want_s, series)


def test_roots_a_trillionth_apart_stay_two_exact_roots():
    # the float roots of (s - 1/3)(s - 1/3 - 10^-12) blur into one; 1/3 is
    # certified with multiplicity 1, and the cofactor holds the other
    s = CPoly([0, 1])
    a, b = Qi(Fraction(1, 3)), Qi(Fraction(1, 3) + Fraction(1, 10 ** 12))
    pair = (s - CPoly([a])) * (s - CPoly([b]))
    for p in (pair, pair * (s + CPoly.ONE)):
        found = [(q.exact, q.multiplicity) for q in poly_roots(p)]
        assert (a, 1) in found and (b, 1) in found
        assert all(q is not None for q, _ in found)
    x = from_signal(parse(f"exp(1/3*t) + exp({b.re}*t) + exp(-t)"))
    assert to_exppoly(to_rational(x)) == x


def test_roots_only_the_split_certifies_come_back_exact():
    # the float roots of ((s - 1/1000)(s - 1/500)(s^3 - 2))^3 blur in
    # clusters of three, so no candidate before Yun's split is a root; the
    # pass over the square-free factors certifies 1/1000 and 1/500
    s = CPoly([0, 1])
    a, b = Qi(Fraction(1, 1000)), Qi(Fraction(1, 500))
    p = ((s - CPoly.scalar(a)) * (s - CPoly.scalar(b))
         * (s ** 3 - CPoly.scalar(2))) ** 3
    assert ratfield._exact_roots(p)[0] == []
    found = poly_roots(p)
    assert {(q.exact, q.multiplicity) for q in found
            if q.exact is not None} == {(a, 3), (b, 3)}
    floats = [q for q in found if q.exact is None]
    assert [q.multiplicity for q in floats] == [3, 3, 3]
    for q in floats:
        assert abs(q.location ** 3 - 2) <= 1e-12


def test_a_clustered_quartic_keeps_its_roots_exact():
    # (s^2 + 1)(s^2 + w^2) with w = 1 + 10^-6: four roots in two tight pairs
    s, w = CPoly([0, 1]), Fraction(1) + Fraction(1, 10 ** 6)
    found = poly_roots((s * s + CPoly.ONE) * (s * s + CPoly([w * w])))
    assert sorted((q.exact for q in found), key=lambda q: q.order_key) == [
        Qi(0, -w), Qi(0, -1), Qi(0, 1), Qi(0, w)]


def test_an_image_split_over_qi_makes_no_aberth_call(monkeypatch):
    calls = []
    aberth = ratfield._aberth

    def counted(*args, **kwargs):
        calls.append(args)
        return aberth(*args, **kwargs)

    monkeypatch.setattr(ratfield, "_aberth", counted)
    x = from_signal(parse("(t+1)^2*sin(3/8*t)*exp(-1/8*t) + t*exp(-5/8*t)"
                          " + cos(7/4*t) + (2*t - 1)*exp(1/7*t)"))
    r = to_rational(x)
    assert r.den.degree == 12
    assert to_exppoly(r) == x
    assert all(p.exact is not None for p in poles(r))
    assert calls == []
    # s^3 - 2 has no root in Q(i), so its cofactor does call it
    poles(RatFunc(CPoly.ONE, CPoly([-2, 0, 0, 1]) * CPoly([1, 1])))
    assert len(calls) == 1


def _shift_spy(monkeypatch) -> list:
    """The exact Taylor shifts made while installed, as (point, degree)
    pairs: a shift scales its polynomial once (`_scaled`) and then divides
    the scaled polynomial at the point (`_synthetic_division`)."""
    shifts, scaling = [], []
    scaled, divide = ratfield._scaled, ratfield._synthetic_division

    def spy_scaled(re, im, e):
        scaling[:] = [(len(re), e)]
        return scaled(re, im, e)

    def spy_divide(re, im, gr, gi):
        if scaling and scaling[0][0] == len(re):
            n, e = scaling.pop()
            shifts.append((Qi(Fraction(gr, e), Fraction(gi, e)), n - 1))
        return divide(re, im, gr, gi)

    monkeypatch.setattr(ratfield, "_scaled", spy_scaled)
    monkeypatch.setattr(ratfield, "_synthetic_division", spy_divide)
    return shifts


_NO_ROOT_IN_QI = [CPoly([-2, 0, 0, 1]), CPoly([-3, 0, 0, 1]),
                  CPoly([-1, -1, 0, 0, 0, 1]), CPoly([1, 1, 1])]


@pytest.mark.parametrize("a, b", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("f, g", [
    pytest.param(f, g, id=f"{f.format()},{g.format()}".replace(" ", ""))
    for k, f in enumerate(_NO_ROOT_IN_QI) for g in _NO_ROOT_IN_QI[k + 1:]])
def test_a_refused_candidate_is_shifted_once(monkeypatch, f, g, a, b):
    # every candidate the pass before the split refuses is a root of no
    # square-free factor either, so the factors do not shift it again
    r = RatFunc(CPoly.ONE, f ** a * g ** b)
    shifts = _shift_spy(monkeypatch)
    pf = partial_fractions(r)
    assert len(pf.terms) == r.den.degree
    points = [q for q, _ in shifts]
    assert points and len(set(points)) == len(points)


def _counting_root_shifts(monkeypatch) -> list:
    """The candidates `_root_shift` is called on, from now on."""
    calls = []
    shift = ratfield._root_shift

    def counting(p, q, *args):
        calls.append(q)
        return shift(p, q, *args)

    monkeypatch.setattr(ratfield, "_root_shift", counting)
    return calls


def test_a_denominator_with_no_root_in_qi_is_never_shifted(monkeypatch):
    # each candidate of the 24 images is refused by its value in GF(P)
    calls = _counting_root_shifts(monkeypatch)
    for k, f in enumerate(_NO_ROOT_IN_QI):
        for g in _NO_ROOT_IN_QI[k + 1:]:
            for a, b in ((1, 1), (1, 2), (2, 1), (2, 2)):
                r = RatFunc(CPoly.ONE, f ** a * g ** b)
                assert len(partial_fractions(r).terms) == r.den.degree
    assert calls == []


def test_only_the_root_is_shifted_in_a_high_multiplicity_cluster(
        monkeypatch):
    # (s + 1/3)^61: the float cluster proposes many candidates, and the
    # root -1/3 is the one shifted; its shift gives the whole series
    x = from_signal(parse("(t+1)^60*exp(-t/3)"))
    r = to_rational(x)
    calls = _counting_root_shifts(monkeypatch)
    assert to_exppoly(r) == x
    assert calls == [Qi(Fraction(-1, 3))]


_NEAR = Qi(Fraction(1, 1000), Fraction(1, 500))


@pytest.mark.parametrize("m, twin", [
    (4, CPoly([0, 0, Qi(0, 1)])), (3, CPoly([1, 0, Qi(2, 1)]))])
def test_roots_only_the_split_finds_keep_their_own_series(m, twin):
    # t^(m-1) e^(qt) beside another polynomial at conj(q), q = 1/1000 +
    # i/500: no candidate before the split is a root, and the twin, of
    # another multiplicity (a complex image) or with a complex numerator
    # (a real one), takes the conjugate of q's series only when the image
    # is real, and then only for the denominator
    x = ExpPoly(((_NEAR, CPoly([0] * (m - 1) + [1])),
                 (_NEAR.conjugate(), twin)))
    r = to_rational(x)
    assert any(r.den._im) == (twin.degree != m - 1)
    assert ratfield._exact_roots(r.den)[0] == []
    assert to_exppoly(r) == x


_SIGNAL = "exp(-t/8)*sin(t) + exp(-t/4)*cos(2*t) + t*exp(-t/2)*sin(3*t)"


@pytest.mark.parametrize("scale, num_shifts", [(Qi(1), 3), (Qi(1, 1), 6)])
def test_a_real_denominator_is_shifted_once_per_conjugate_pair(
        monkeypatch, scale, num_shifts):
    # three conjugate pairs, one of them double: the denominator is shifted
    # once per pair, never at the twin, and no deflated cofactor is shifted;
    # the numerator is shifted at each pole only when it is complex
    x = from_signal(parse(_SIGNAL))
    x = ExpPoly(tuple((rate, poly * scale) for rate, poly in x.terms))
    r = to_rational(x)
    assert r.den.degree == 8 and not any(r.den._im)
    shifts = _shift_spy(monkeypatch)
    assert to_exppoly(r) == x
    den = [q for q, n in shifts if n == r.den.degree]
    assert len(den) == 3
    assert not {q.conjugate() for q in den} & set(den)
    assert len(shifts) - len(den) == num_shifts
    assert {n for _, n in shifts} == {r.den.degree, r.num.degree}


def test_a_mixed_image_keeps_its_poles_and_terms():
    # ((s + 1/8)^2 + 49/64)^2 (s^3 - 2): an exact double pair, whose
    # series come from its certificate, beside three float poles
    s = CPoly.S
    damped = (s + CPoly.scalar(Fraction(1, 8))) ** 2 \
        + CPoly.scalar(Fraction(49, 64))
    r = RatFunc(CPoly.ONE, damped ** 2 * CPoly([-2, 0, 0, 1]))
    lo, hi = Qi(Fraction(-1, 8), Fraction(-7, 8)), Qi(Fraction(-1, 8),
                                                      Fraction(7, 8))
    want = [Pole(-0.6299605249474369 - 1.091123635971722j, 1),
            Pole(-0.6299605249474367 + 1.0911236359717218j, 1),
            Pole(-0.125 - 0.875j, 2, lo), Pole(-0.125 + 0.875j, 2, hi),
            Pole(1.2599210498948736 + 0j, 1)]
    assert poles(r) == want
    assert partial_fractions(r) == PartialFractions((
        PFTerm(-0.6299605249474369 - 1.091123635971722j, 1,
               0.12460286685353872 + 0.11404161587258001j),
        PFTerm(-0.6299605249474367 + 1.0911236359717218j, 1,
               0.12460286685353907 - 0.11404161587258042j),
        PFTerm(-0.125 - 0.875j, 1, -0.13918148578304834 - 0.2851930848608136j),
        PFTerm(-0.125 - 0.875j, 2, 0.16783973951267647 + 0.06155398191694969j),
        PFTerm(-0.125 + 0.875j, 1, -0.13918148578304834 + 0.2851930848608136j),
        PFTerm(-0.125 + 0.875j, 2, 0.16783973951267647 - 0.06155398191694969j),
        PFTerm(1.2599210498948736 + 0j, 1, 0.029157237859018144 + 0j)),
        CPoly.ZERO)
    assert spectrum_of_rational(r) == Spectrum(
        (-1.091123635971722, -0.875, 0.875, 1.091123635971722),
        tuple(SingularitySource(p.location, "pole", p.multiplicity)
              for p in want))


_part = st.builds(Fraction, st.integers(-16, 16), st.integers(1, 8))
_coefficient = st.builds(Qi, st.builds(Fraction, st.integers(-5, 5),
                                       st.integers(1, 8)),
                         st.builds(Fraction, st.integers(-5, 5),
                                   st.integers(1, 8)))


@st.composite
def _signals_of_rates_in_qi(draw):
    """Exact signals of 1 to 6 distinct rates whose parts have denominators
    up to 8, each with a polynomial of degree 0 to 3 (a pole of multiplicity
    1 to 4).  A real one has real polynomials at real rates and the
    conjugate polynomial at the conjugate of each non-real rate; a complex
    one may leave a rate without its conjugate, or give the twin another
    polynomial."""
    real = draw(st.booleans())
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        rate = Qi(draw(_part), draw(_part))
        if rate in terms or rate.conjugate() in terms:
            continue
        cs = draw(st.lists(_coefficient, min_size=1, max_size=4))
        if real and not rate.im:
            cs = [Qi(c.re) for c in cs]
        if not cs[-1]:
            cs[-1] = Qi(1)
        terms[rate] = CPoly(cs)
        if rate.im and len(terms) < 6 and (real or draw(st.booleans())):
            terms[rate.conjugate()] = (
                CPoly([c.conjugate() for c in cs]) if real
                else CPoly(draw(st.lists(_coefficient, min_size=1,
                                         max_size=4))) or CPoly.ONE)
        if len(terms) == 6:
            break
    return ExpPoly(tuple(terms.items()))


@settings(max_examples=150, deadline=None)
@given(_signals_of_rates_in_qi())
def test_inverse_image_round_trips_signals_of_rates_in_qi(x):
    assert to_exppoly(to_rational(x)) == x


@pytest.mark.parametrize("den", [
    CPoly([Fraction(-2, 10 ** 20), 0, 1]),
    CPoly([Fraction(-1, 10 ** 30), 0, 0, 1])] + [
    CPoly([-2 * Fraction(10) ** (3 * k), 0, 0, 1]) for k in range(-12, 13)])
def test_partial_fractions_at_float_poles_of_any_scale(den):
    # 1/(s^2 - 2*10^-20), 1/(s^3 - 10^-30) and 1/(s^3 - 2*lambda^3) for
    # lambda = 10^-12 ... 10^12: the certificate is relative to the scale
    r = RatFunc(CPoly.ONE, den)
    pf = partial_fractions(r)
    assert len(pf.terms) == den.degree
    assert all(t.order == 1 for t in pf.terms)
    scale = max(abs(t.pole) for t in pf.terms)
    for z in (scale * (2 + 1j), scale * (-1.5 + 0.5j)):
        want = 1 / den(z)
        got = sum(t.coefficient / (z - t.pole) for t in pf.terms)
        assert abs(got - want) <= 1e-12 * abs(want)
    to_exppoly(r)


def test_float_poles_far_from_their_roots_are_refused():
    # the roots of (s - 1000)^3 - 10^-21 lie 1e-7 from 1000, and the root
    # finder meets its backward error about 1e-2 away from them; the terms
    # read at those floats still pass the componentwise backward error, so
    # each float pole's forward error must hold them
    s = CPoly([0, 1])
    r = RatFunc(CPoly.ONE, (s - CPoly([1000])) ** 3
                - CPoly([Fraction(1, 10 ** 21)]))
    roots = [1000 + 1e-7 * cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    for decompose, rates in (
            (partial_fractions, lambda out: [t.pole for t in out.terms]),
            (to_exppoly, lambda out: [complex(q) for q, _ in out.terms])):
        try:
            out = decompose(r)
        except RootFindingError:
            continue
        for z in rates(out):
            assert min(abs(z - w) for w in roots) <= 1e-12 * abs(z)
    # a double float pole of the right accuracy passes
    cube = CPoly([-2, 0, 0, 1])
    pf = partial_fractions(RatFunc(CPoly.ONE, cube * cube))
    assert sorted(t.order for t in pf.terms) == [1, 1, 1, 2, 2, 2]


def test_a_float_root_near_an_axis_is_snapped_only_where_reported():
    # (s - e)^2 + 2 has the float roots e +- i*sqrt(2), e = 5e-10 being
    # within 1e-9 of the axis; the coefficients are read at the raw roots
    s, e = CPoly([0, 1]), Fraction(5, 10 ** 10)
    r = RatFunc(CPoly.ONE, (s * s - CPoly([2 * e]) * s + CPoly([e * e + 2]))
                * (s + CPoly.ONE))
    floats = [p.location for p in poles(r)][1:]
    assert [z.real for z in floats] == pytest.approx([5e-10] * 2, abs=1e-15)
    for t in partial_fractions(r).terms:
        if abs(t.pole.imag) > 1:
            want = 1 / ((t.pole - t.pole.conjugate()) * (t.pole + 1))
            assert t.pole.real == pytest.approx(5e-10, abs=1e-15)
            assert abs(t.coefficient - want) <= 1e-14
    rates = [complex(q) for q, _ in to_exppoly(r).terms]
    assert [z.real for z in rates if abs(z.imag) > 1] == pytest.approx(
        [5e-10] * 2, abs=1e-15)
    spec = spectrum_of_rational(r)
    assert [src.location for src in spec.sources] == [-1, floats[0].imag * 1j,
                                                      floats[1].imag * 1j]
    # s^2 - 2e-20: two distinct roots, both reported at 0
    r = RatFunc(CPoly.ONE, s * s - CPoly([Fraction(2, 10 ** 20)]))
    assert len({p.location for p in poles(r)}) == 2
    spec = spectrum_of_rational(r)
    assert [src.location for src in spec.sources] == [0j, 0j]
    assert spec.frequencies == ()


@st.composite
def _monic_quadratics(draw):
    """s^2 + b*s + c over Q(i): drawn b and c, mostly without roots in
    Q(i), or (s - p)(s - q) with p and q drawn or equal."""
    kind = draw(st.sampled_from(["drawn", "split", "double"]))
    if kind == "drawn":
        return CPoly([draw(_gauss), draw(_gauss), 1])
    p = draw(_gauss)
    q = p if kind == "double" else draw(_gauss)
    return CPoly([p * q, -p - q, 1])


@settings(max_examples=300, deadline=None)
@given(_monic_quadratics())
@example(CPoly([1, 0, 1]))
@example(CPoly([-2, 0, 1]))
@example(CPoly([Fraction(1, 4), -1, 1]))
def test_quadratic_roots_equal_the_qi_oracle(f):
    assert ratfield._quadratic_roots(f) == oracles.quadratic_roots(f)


def test_quadratic_roots_need_no_iteration():
    # the discriminant's square root in Q(i) gives both roots exactly
    s = CPoly([0, 1])
    for a, b in ((Qi(0, 1), Qi(0, -1)),
                 (Qi(Fraction(1, 3), 2), Qi(-5, Fraction(1, 7))),
                 (Qi(10 ** 200), Qi(-(10 ** 200))),
                 (Qi(Fraction(1, 10 ** 300)), Qi(0))):
        p = (s - CPoly([a])) * (s - CPoly([b]))
        assert {q.exact for q in poly_roots(p)} == {a, b}


def test_stall_message_reads_zero_backward_error_at_an_exact_zero_root():
    # z + z^5 has the root 0 exactly, where residual and scale are both 0;
    # with no iteration allowed the stall message must still read a number.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootFindingError) as info:
            _aberth([0, 1, 0, 0, 0, 1], max_iter=0)
    assert "nan" not in str(info.value)


def test_aberth_refines_estimates_the_eigenvalues_miss(monkeypatch):
    # s^3 + 4000 s^2 + 5e6 s - 1/5 with every eigenvalue estimate off by a
    # relative 1e-6: the iteration, not np.roots, meets the bound
    coeffs = [-0.2, 5e6, 4000.0, 1.0]

    def backward(zs):
        return max(abs(sum(c * z ** k for k, c in enumerate(coeffs)))
                   / sum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))
                   for z in zs)

    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda c: roots(c) * (1 + 1e-6))
    assert backward(np.roots(coeffs[::-1])) > 1e-7
    assert backward(_aberth(coeffs)) <= 1e-12


def test_aberth_moves_an_estimate_off_a_zero_of_the_derivative(monkeypatch):
    # s^3 - 3s + 1 with the estimate of its root 2cos(2pi/9) = 1.532 put at
    # 1, a zero of 3s^2 - 3: the step at a zero derivative moves it, and
    # the iteration goes on to every root
    coeffs = [1.0, -3.0, 0.0, 1.0]
    roots = np.roots
    monkeypatch.setattr(np, "roots", lambda c: np.sort_complex(roots(c))
                        * np.array([1, 1, 0]) + np.array([0, 0, 1]))
    assert list(np.roots(coeffs[::-1]))[-1] == 1.0
    zero_derivative = []
    polyval = np.polynomial.polynomial.polyval

    def spying_polyval(z, c):
        out = polyval(z, c)
        if len(c) == 3:         # the derivative 3s^2 - 3
            zero_derivative.append(bool(np.any(out == 0.0)))
        return out

    monkeypatch.setattr(np.polynomial.polynomial, "polyval", spying_polyval)
    got = _aberth(coeffs)
    assert zero_derivative[0] and not any(zero_derivative[1:])
    for z in got:
        backward = (abs(z ** 3 - 3 * z + 1)
                    / (abs(z) ** 3 + 3 * abs(z) + 1))
        assert backward <= 1e-12
    want = [2 * math.cos(2 * math.pi * k / 9) for k in (1, 2, 4)]
    assert sorted(z.real for z in got) == pytest.approx(sorted(want))


def test_roots_beyond_the_float_range_are_refused_quietly(capfd):
    # s^3 - 10^300 s + 1 has roots near +-1e150, whose cubes overflow
    s = CPoly([0, 1])
    p = s ** 3 - CPoly.scalar(10 ** 300) * s + CPoly.ONE
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RootFindingError) as info:
            poles(RatFunc(CPoly.ONE, p))
    assert caught == []
    assert capfd.readouterr().err == ""
    assert "float range" in str(info.value)
    assert "backward error 0.000e+00" not in str(info.value)


# --- spectra ------------------------------------------------------------------


def test_spectrum_of_shifted_conjugate_pair():
    spec = spectrum_of_rational(RatFunc(CPoly([1]), CPoly([17, -2, 1])))
    assert len(spec.frequencies) == 2
    assert abs(spec.frequencies[0] + 4) <= 1e-9
    assert abs(spec.frequencies[1] - 4) <= 1e-9
    assert not spec.infinite_singularity


def test_laurent_polynomial_spectrum_empty():
    r = RatFunc(CPoly([1, 0, 0, 0, 2]), CPoly([0, 0, 0, 1]))   # s^-3 + 2s
    assert spectrum_of_rational(r).frequencies == ()


def test_constant_image_spectrum_empty():
    assert spectrum_of_rational(RatFunc.ONE).frequencies == ()
    assert spectrum_of_rational(RatFunc.ONE).sources == ()


def test_real_pole_rationals_have_empty_spectrum():
    rng = random.Random(2107)
    s = CPoly([0, 1])
    for _ in range(25):
        den = CPoly([1])
        for _ in range(rng.randint(1, 4)):
            den = den * (s - CPoly.scalar(Qi(rng.randint(-5, 5))))
        num = CPoly([Qi(rng.randint(-5, 5)) for _ in range(den.degree)])
        if num.is_zero:
            num = CPoly.ONE
        spec = spectrum_of_rational(RatFunc(num, den))
        assert spec.frequencies == ()


def test_spectrum_symmetry_for_real_coefficients():
    rng = random.Random(2108)
    for _ in range(25):
        num = CPoly([Qi(rng.randint(-4, 4)) for _ in range(3)])
        den = CPoly([Qi(rng.randint(-4, 4)) for _ in range(4)] + [Qi(1)])
        if num.is_zero:
            num = CPoly.ONE
        freqs = spectrum_of_rational(RatFunc(num, den)).frequencies
        assert freqs == tuple(sorted(-f for f in freqs))


def test_zero_frequency_never_listed():
    # real poles only on the axis: a pole at 0 and at 5
    r = RatFunc(CPoly.ONE, CPoly([0, -5, 1]))
    assert spectrum_of_rational(r).frequencies == ()


def test_clean_frequencies_merges_and_symmetrizes():
    vals = clean_frequencies([3.0000000000000004, -2.9999999999999996,
                              1e-15, 0.0])
    assert len(vals) == 2
    assert vals[0] == -vals[1]
    assert abs(vals[1] - 3) <= 1e-9


def test_snap_axes_zeroes_roundoff_components():
    assert snap_axes(complex(2.2e-16, -3.0)) == -3j
    assert snap_axes(complex(5.0, 1e-12)) == 5.0 + 0j
    assert snap_axes(complex(1.0, 2.0)) == 1 + 2j
    assert snap_axes(complex(1e-4, 1.0)) == complex(1e-4, 1.0)


# --- partial fractions --------------------------------------------------------


def test_partial_fractions_simple_pair():
    r = RatFunc(CPoly([0, 2]), CPoly([-1, 0, 1]))   # 2s/(s^2-1)
    pf = partial_fractions(r)
    assert pf.poly_part.is_zero
    assert len(pf.terms) == 2
    for pole, order, coeff in pf.terms:
        assert order == 1
        assert abs(coeff - 1) <= 1e-9
    assert {round(t.pole.real) for t in pf.terms} == {-1, 1}


def test_partial_fractions_double_pole():
    rng = random.Random(2109)
    s = CPoly([0, 1])
    for _ in range(10):
        a = Qi(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        r = RatFunc(CPoly.ONE, (s - CPoly.scalar(a)) ** 2)
        pf = partial_fractions(r)
        assert len(pf.terms) == 1
        pole, order, coeff = pf.terms[0]
        assert order == 2
        assert abs(pole - complex(a)) <= 1e-9
        assert abs(coeff - 1) <= 1e-9


def test_partial_fractions_mixed_orders():
    # (s+1)/((s-2)^2 (s+3)): hand calculation gives
    # 2/25/(s-2) + 3/5/(s-2)^2 - 2/25/(s+3)
    s = CPoly([0, 1])
    den = (s - CPoly.scalar(Qi(2))) ** 2 * (s + CPoly.scalar(Qi(3)))
    pf = partial_fractions(RatFunc(CPoly([1, 1]), den))
    want = {(-3, 1): -2 / 25, (2, 1): 2 / 25, (2, 2): 3 / 5}
    assert len(pf.terms) == 3
    for pole, order, coeff in pf.terms:
        key = (round(pole.real), order)
        assert key in want
        assert abs(coeff - want[key]) <= 1e-9


def test_partial_fractions_polynomial_part():
    s = CPoly([0, 1])
    r = RatFunc(s ** 3, s - CPoly.scalar(Qi(1)))
    pf = partial_fractions(r)
    assert pf.poly_part == CPoly([1, 1, 1])
    assert len(pf.terms) == 1
    pole, order, coeff = pf.terms[0]
    assert order == 1 and abs(pole - 1) <= 1e-9 and abs(coeff - 1) <= 1e-9


def test_partial_fractions_reconstruction_property():
    rng = random.Random(2110)
    for _ in range(25):
        r = _rand_ratfunc(rng, 4)
        if r.is_zero:
            continue
        pf = partial_fractions(r)
        for _ in range(5):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(r.den(z)) < 1e-3:
                continue
            back = complex(pf.poly_part(z)) + sum(
                c / (z - p) ** m for p, m, c in pf.terms)
            assert abs(back - r(z)) <= 1e-6 * (1 + abs(r(z)))


# --- algebraic derivative -----------------------------------------------------


def test_alg_deriv_simple_pole():
    rng = random.Random(2111)
    s = CPoly([0, 1])
    for _ in range(20):
        a = CPoly.scalar(_rand_qi(rng))
        r = RatFunc(CPoly.ONE, s - a)
        assert alg_deriv(r) == -RatFunc(CPoly.ONE, (s - a) ** 2)


def test_alg_deriv_tone_image():
    w2 = Qi(9)
    r = RatFunc(CPoly([0, 1]), CPoly([w2, Qi(0), Qi(1)]))
    want = RatFunc(CPoly([w2, Qi(0), Qi(-1)]),
                   CPoly([w2, Qi(0), Qi(1)]) ** 2)
    assert alg_deriv(r) == want


def test_alg_deriv_of_constants_is_zero():
    assert alg_deriv(RatFunc.ONE).is_zero
    assert alg_deriv(RatFunc(Qi(2, 5))).is_zero


def test_deriv_matches_the_reduced_quotient_rule():
    rng = random.Random(2113)
    s = CPoly.S
    for _ in range(150):
        den = CPoly.ONE
        for _ in range(rng.randint(1, 3)):
            den = den * (s - CPoly.scalar(_rand_qi(rng, 3))) ** rng.randint(1, 3)
        r = RatFunc(_rand_poly(rng, 4), den)
        n, d = r.num, r.den
        assert r.deriv() == RatFunc(n.deriv() * d - n * d.deriv(), d * d)
    assert alg_deriv(RatFunc(s * s)) == RatFunc(CPoly([0, 2]))


def test_alg_deriv_product_rule():
    rng = random.Random(2112)
    for _ in range(40):
        a = _rand_ratfunc(rng, 2)
        b = _rand_ratfunc(rng, 2)
        assert alg_deriv(a * b) == alg_deriv(a) * b + a * alg_deriv(b)
