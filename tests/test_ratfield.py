"""Exact arithmetic in C(s), root finding, poles, and pole-based spectra."""

import math
import random
import warnings
from fractions import Fraction

import pytest

from algspec.ratfield import (CPoly, Qi, RatFunc, RootFindingError, _I_MOD,
                              _P, _aberth, _coprime_mod_p, _euclid_gcd,
                              _image_mod_p, alg_deriv, clean_frequencies, partial_fractions,
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


def test_stall_message_reads_zero_backward_error_at_an_exact_zero_root():
    # z + z^5 has the root 0 exactly, where residual and scale are both 0;
    # with no iteration allowed the stall message must still read a number.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootFindingError) as info:
            _aberth([0, 1, 0, 0, 0, 1], max_iter=0)
    assert "nan" not in str(info.value)


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
