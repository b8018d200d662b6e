"""Exact cyclotomic arithmetic: canonical forms, field axioms, text round-trips."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gradedmat.cyclotomic
from gradedmat.cyclotomic import (MAX_ROOT_LEVEL, CycNumber, cyclotomic_polynomial, euler_phi,
                                  parse_scalar, root_of_unity)


def test_cyclotomic_polynomial_small_table():
    assert cyclotomic_polynomial(1) == (Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(2) == (Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(3) == (Fraction(1), Fraction(1), Fraction(1))
    assert cyclotomic_polynomial(4) == (Fraction(1), Fraction(0), Fraction(1))
    assert cyclotomic_polynomial(6) == (Fraction(1), Fraction(-1), Fraction(1))
    assert cyclotomic_polynomial(12) == (Fraction(1), Fraction(0), Fraction(-1),
                                         Fraction(0), Fraction(1))


def test_euler_phi_matches_polynomial_degree():
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 15):
        assert euler_phi(n) == len(cyclotomic_polynomial(n)) - 1


def test_zeta4_squared_is_minus_one():
    z4 = root_of_unity(4, 1)
    assert z4 * z4 == CycNumber.rational(-1)


def test_one_plus_minus_one_is_zero():
    one = CycNumber.one()
    assert (one + CycNumber.rational(-1)).is_zero()


def test_zeta3_plus_zeta3_squared_is_minus_one():
    z3 = root_of_unity(3, 1)
    assert z3 + z3 * z3 == CycNumber.rational(-1)


def test_root_of_unity_values():
    assert root_of_unity(2, 1) == CycNumber.rational(-1)
    assert root_of_unity(1, 0) == CycNumber.one()
    assert root_of_unity(4, 2) == CycNumber.rational(-1)


def test_root_of_unity_rejects_bad_level():
    with pytest.raises(ValueError):
        root_of_unity(0, 1)
    with pytest.raises(ValueError):
        root_of_unity(-3, 1)


def test_root_of_unity_has_exact_order():
    for n in (2, 3, 4, 6, 8):
        z = root_of_unity(n, 1)
        power = CycNumber.one()
        for k in range(1, n):
            power = power * z
            assert power != CycNumber.one()
        assert power * z == CycNumber.one()


def test_lift_preserves_value():
    one = CycNumber.one()
    assert one.lift(12) == one
    z2 = root_of_unity(2, 1)
    assert z2.lift(4) == root_of_unity(4, 2)
    z3 = root_of_unity(3, 1)
    assert z3.lift(6) == root_of_unity(6, 2)


def test_lift_rejects_non_divisible_target():
    z3 = root_of_unity(3, 1)
    with pytest.raises(ValueError):
        z3.lift(4)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero().inverse()


def test_inverse_of_roots():
    for n in (3, 4, 5, 8):
        z = root_of_unity(n, 1)
        assert z * z.inverse() == CycNumber.one()
        assert z.inverse() == root_of_unity(n, n - 1)


def test_mixed_level_equality():
    # same value presented at levels 2 and 6
    assert root_of_unity(2, 1) == root_of_unity(6, 3)
    assert root_of_unity(3, 1) != root_of_unity(6, 1)


def test_power_negative_exponent():
    z = root_of_unity(8, 1)
    assert z ** -1 == root_of_unity(8, 7)
    assert z ** 0 == CycNumber.one()


@pytest.mark.parametrize("level", [3, 5, 8, 12])
def test_negative_powers_invert_the_positive_ones(level):
    rng = random.Random(level)
    z = CycNumber.zero()
    while z.is_zero():
        z = CycNumber.from_poly(level, _random_poly(rng, level))
    for k in (1, 2, 3):
        assert z ** -k == (z ** k).inverse()
        assert root_of_unity(level, 1) ** -k == root_of_unity(level, -k)


def test_level_zero_is_refused():
    with pytest.raises(ValueError, match="^level must be positive, got 0$"):
        cyclotomic_polynomial(0)
    with pytest.raises(ValueError, match="^level must be positive, got 0$"):
        CycNumber.from_poly(0, [1])


def test_text_round_trip():
    samples = [
        CycNumber.zero(),
        CycNumber.one(),
        CycNumber.rational(Fraction(-7, 3)),
        root_of_unity(4, 1),
        root_of_unity(3, 2) * CycNumber.rational(Fraction(2, 5)) + CycNumber.rational(3),
        root_of_unity(8, 3) + root_of_unity(8, 5),
    ]
    for x in samples:
        assert parse_scalar(x.to_string()) == x


def test_parse_scalar_forms():
    assert parse_scalar("1") == CycNumber.one()
    assert parse_scalar("-1") == CycNumber.rational(-1)
    assert parse_scalar("2/3") == CycNumber.rational(Fraction(2, 3))
    assert parse_scalar("z4^1") == root_of_unity(4, 1)
    assert parse_scalar("1/2*z6^5") == root_of_unity(6, 5) * CycNumber.rational(Fraction(1, 2))
    assert parse_scalar(" 1 + z3^1 ") == CycNumber.one() + root_of_unity(3, 1)


def test_parse_scalar_rejects_garbage():
    for bad in ("", "z", "z4", "one", "1..2", "z4^", "^3", "1 +", "q5^1"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_parse_scalar_caps_root_levels_and_their_lcm():
    assert parse_scalar(f"z{MAX_ROOT_LEVEL}^1") == root_of_unity(MAX_ROOT_LEVEL, 1)
    for bad in (f"z{MAX_ROOT_LEVEL + 1}^1", "z0^1", "1 + z1000003^2", "z100^1 + z101^1"):
        with pytest.raises(ValueError, match="cap"):
            parse_scalar(bad)


_scalars = st.builds(
    lambda num, den, level, power: CycNumber.rational(Fraction(num, den))
    + root_of_unity(level, power),
    st.integers(-30, 30), st.integers(1, 12), st.sampled_from([1, 2, 3, 4, 6]),
    st.integers(0, 11))


@settings(max_examples=60, deadline=None)
@given(_scalars, _scalars, _scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(_scalars)
def test_multiplicative_inverse(a):
    if not a.is_zero():
        assert a * a.inverse() == CycNumber.one()


@settings(max_examples=60, deadline=None)
@given(_scalars, _scalars)
def test_lift_is_a_homomorphism(a, b):
    target = 12
    assert (a * b).lift(target) == a.lift(target) * b.lift(target)
    assert (a + b).lift(target) == a.lift(target) + b.lift(target)


@settings(max_examples=60, deadline=None)
@given(_scalars)
def test_text_round_trip_random(a):
    assert parse_scalar(a.to_string()) == a


# --- reference: padded coefficients reduced by long division by Phi_N -------

def _ref_trim(poly):
    while poly and poly[-1] == 0:
        poly.pop()
    return poly


def _ref_divmod(a, b):
    rem = _ref_trim(list(a))
    quot = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        factor = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        quot[shift] = factor
        for i, bi in enumerate(b):
            rem[shift + i] -= factor * bi
        _ref_trim(rem)
    return _ref_trim(quot), rem


def _ref_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return _ref_trim(out)


_REF_PHI = {}


def _ref_cyclotomic(n):
    """Phi_n by exact division of x^n - 1 by Phi_d for every proper divisor d."""
    if n not in _REF_PHI:
        poly = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d == 0:
                divisor = _ref_cyclotomic(d)
                quot = [0] * (len(poly) - len(divisor) + 1)
                for shift in range(len(quot) - 1, -1, -1):  # Phi_d is monic
                    quot[shift] = poly[shift + len(divisor) - 1]
                    for i, c in enumerate(divisor):
                        poly[shift + i] -= quot[shift] * c
                assert not any(poly), f"Phi_{d} does not divide x^{n} - 1"
                poly = quot
        _REF_PHI[n] = tuple(poly)
    return _REF_PHI[n]


class _Ref:
    """The padded, divmod-based arithmetic that CycNumber is checked against."""

    def __init__(self, level, poly):
        modulus = [Fraction(c) for c in _ref_cyclotomic(level)]
        poly = _ref_trim([Fraction(c) for c in poly])
        if len(poly) >= len(modulus):
            _, poly = _ref_divmod(poly, modulus)
        self.level = level
        self.coeffs = tuple(poly + [Fraction(0)] * (len(modulus) - 1 - len(poly)))

    def lift(self, level):
        step = level // self.level
        poly = [Fraction(0)] * (len(self.coeffs) * step)
        poly[::step] = self.coeffs
        return _Ref(level, poly)

    def _common(self, other):
        level = math.lcm(self.level, other.level)
        return self.lift(level), other.lift(level)

    def __add__(self, other):
        a, b = self._common(other)
        return _Ref(a.level, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return _Ref(self.level, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self._common(other)
        return _Ref(a.level, _ref_mul(a.coeffs, b.coeffs))

    def inverse(self):
        r0 = [Fraction(c) for c in _ref_cyclotomic(self.level)]
        r1, s0, s1 = _ref_trim(list(self.coeffs)), [], [Fraction(1)]
        while len(r1) > 1:
            q, r = _ref_divmod(r0, r1)
            r0, r1 = r1, r
            prod = _ref_mul(q, s1)
            width = max(len(s0), len(prod))
            s0, s1 = s1, [(s0[i] if i < len(s0) else 0) - (prod[i] if i < len(prod) else 0)
                          for i in range(width)]
        return _Ref(self.level, [c / r1[0] for c in s1])

    def __truediv__(self, other):
        return self * other.inverse()

    def __eq__(self, other):
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    def is_zero(self):
        return not any(self.coeffs)

    def to_string(self):
        terms = [str(c) if i == 0 else f"{c}*z{self.level}^{i}"
                 for i, c in enumerate(self.coeffs) if c != 0]
        return " + ".join(terms) or "0"


_LEVELS = (1, 2, 3, 4, 5, 6, 8, 12, 15)


def _random_poly(rng, level):
    phi = euler_phi(level)
    width = rng.choice((0, 1, 1, phi, phi, 2 * phi - 1, 3 * phi + 2))
    return [Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) if rng.random() < 0.7 else 0
            for _ in range(width)]


def _assert_matches(x, ref):
    assert isinstance(x, CycNumber)
    assert x.level == ref.level
    assert not x.coeffs or x.coeffs[-1] != 0, x.coeffs
    assert x.coeffs + (Fraction(0),) * (len(ref.coeffs) - len(x.coeffs)) == ref.coeffs
    assert x.to_string() == ref.to_string()
    assert x.is_zero() == ref.is_zero()


def test_arithmetic_matches_padded_divmod_reference():
    rng = random.Random(20240611)
    pool = []
    for _ in range(60):
        level = rng.choice(_LEVELS)
        poly = _random_poly(rng, level)
        x, ref = CycNumber.from_poly(level, poly), _Ref(level, poly)
        _assert_matches(x, ref)
        pool.append((x, ref))
    for _ in range(300):
        (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool)
        op = rng.choice(("+", "-", "*", "*", "/", "inverse", "lift"))
        if op == "+":
            z, rz = x + y, rx + ry
        elif op == "-":
            z, rz = x - y, rx - ry
        elif op == "*":
            z, rz = x * y, rx * ry
        elif op == "lift":
            level = x.level * rng.choice((1, 2, 3, 5, 6))
            z, rz = x.lift(level), rx.lift(level)
        elif ry.is_zero() or rx.is_zero():
            continue
        elif op == "/":
            z, rz = x / y, rx / ry
        else:
            z, rz = x.inverse(), rx.inverse()
        _assert_matches(z, rz)
        _assert_matches(z - y, rz - ry)
        assert (x == y) == (rx == ry)
        assert (z == x) == (rz == rx)
        pool.append((z, rz))


def test_trimmed_zero():
    x = root_of_unity(5, 2) + CycNumber.rational(Fraction(1, 3))
    assert (x - x).coeffs == ()
    assert (x - x).is_zero() and (x - x).is_rational()
    assert CycNumber.zero().coeffs == ()
    assert CycNumber.zero().as_rational() == 0
    assert CycNumber.rational(0).coeffs == ()
    assert (root_of_unity(4, 1) * root_of_unity(4, 3)).coeffs == (Fraction(1),)


def test_cyclotomic_polynomial_matches_division_construction():
    for n in range(1, 301):
        assert cyclotomic_polynomial(n) == tuple(Fraction(c) for c in _ref_cyclotomic(n)), n


# --- the stored form: integer numerators over one denominator ---------------

def _assert_lowest_terms(x):
    assert all(type(c) is int for c in x.nums) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.nums) == 1
    assert not x.nums or x.nums[-1] != 0
    assert len(x.nums) <= euler_phi(x.level)


def _form(x):
    return x.level, x.nums, x.den


_pairs = st.builds(lambda level, poly: (CycNumber.from_poly(level, poly), _Ref(level, poly)),
                   st.sampled_from(_LEVELS),
                   st.lists(st.fractions(-6, 6, max_denominator=12), max_size=12))


@settings(max_examples=80, deadline=None)
@given(_pairs, _pairs, st.sampled_from((1, 2, 3, 5)))
def test_every_result_is_in_lowest_terms_and_prints_like_the_reference(xr, yr, step):
    (x, rx), (y, ry) = xr, yr
    level = x.level * step
    results = [(x, rx), (x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
               (x.lift(level), rx.lift(level))]
    if not y.is_zero():
        results += [(x / y, rx / ry), (y.inverse(), ry.inverse())]
        q = (x * y) / y
        assert _form(q) == _form(x.lift(q.level))
    for z, rz in results:
        _assert_lowest_terms(z)
        assert z.to_string() == rz.to_string()
    assert _form(x + x - x) == _form(x)
    assert _form((x + x) * Fraction(1, 2)) == _form(x)


def test_equal_values_reached_by_different_routes_are_stored_alike():
    half = CycNumber.rational(Fraction(1, 2))
    assert _form(half + half) == _form(CycNumber.one()) == (1, (1,), 1)
    z = root_of_unity(6, 1)
    third = z * Fraction(1, 3) + CycNumber.rational(Fraction(2, 3))
    assert _form(third + third + third) == _form(z + 2) == (6, (2, 1), 1)
    assert _form(CycNumber.from_poly(4, [Fraction(1, 6), 0, Fraction(1, 3)])) == (4, (-1,), 6)
    assert _form(z - z) == _form(third * 0) == (6, (), 1)


def test_sums_products_and_lifts_build_no_fraction(monkeypatch):
    x = root_of_unity(12, 1) * Fraction(2, 3) + Fraction(1, 4)
    y = root_of_unity(4, 1) + Fraction(5, 6)
    expected = [(x + y).to_string(), (x * y).to_string(), (y * y).to_string(),
                x.lift(24).to_string(), y.lift(12).to_string()]
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(gradedmat.cyclotomic, "Fraction", CountingFraction)
    results = [x + y, x * y, y * y, x.lift(24), y.lift(12)]
    assert built == []
    assert [z.to_string() for z in results] == expected
    assert built  # printing goes through Fraction, so the patch is in effect


# --- the integer Euclid against the Fraction one, beyond _LEVELS -------------

_WIDE_LEVELS = (16, 20, 21, 30, 60, 97, 101)


def _wide_poly(rng, level, terms=None):
    """Numerators up to 10^6 over denominators up to 10^3: at random lengths, or with the
    given number of terms at random positions below phi(level)."""
    phi = euler_phi(level)
    coeff = lambda: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
    if terms is None:
        return [coeff() if rng.random() < 0.6 else 0 for _ in range(rng.choice((2, 3, phi, phi + 5)))]
    poly = [0] * phi
    for i in rng.sample(range(phi), terms):
        poly[i] = coeff()
    return poly


def test_inverse_matches_the_fraction_euclid_at_wide_levels():
    # The Fraction Euclid of _Ref is far slower than the integer one on longer inputs at
    # the two prime levels, so there it checks binomials only.
    rng = random.Random(26)
    for level in _WIDE_LEVELS:
        for _ in range(3):
            poly = _wide_poly(rng, level, 2 if level > 90 else None)
            x, ref = CycNumber.from_poly(level, poly), _Ref(level, poly)
            if ref.is_zero():
                continue
            inverse = x.inverse()
            _assert_matches(inverse, ref.inverse())
            _assert_lowest_terms(inverse)
            assert x * inverse == CycNumber.one()
            assert inverse.inverse() == x
        with pytest.raises(ZeroDivisionError):
            CycNumber.from_poly(level, [0]).inverse()


def test_inverse_times_self_is_one_at_wide_prime_levels():
    rng = random.Random(97)
    for level in (97, 101):
        x = CycNumber.from_poly(level, _wide_poly(rng, level, 4))
        inverse = x.inverse()
        _assert_lowest_terms(inverse)
        assert x * inverse == CycNumber.one() and inverse * x == CycNumber.one()


def test_inverse_builds_no_fraction(monkeypatch):
    xs = [root_of_unity(12, 1) * Fraction(2, 3) + Fraction(1, 4),
          root_of_unity(5, 2) * Fraction(-7, 2) + root_of_unity(5, 1) + 3,
          CycNumber.rational(Fraction(-5, 3))]
    expected = [x.inverse().to_string() for x in xs]
    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(gradedmat.cyclotomic, "Fraction", CountingFraction)
    results = [x.inverse() for x in xs]
    assert built == []
    assert [z.to_string() for z in results] == expected


def test_mixed_levels_meet_at_their_lcm():
    half = CycNumber.rational(Fraction(-1, 2))
    z7, z3, z4 = root_of_unity(7, 3), root_of_unity(3, 1), root_of_unity(4, 1)
    cases = [(half * z7, _Ref(1, [Fraction(-1, 2)]) * _Ref(7, [0, 0, 0, 1])),
             (z7 * half, _Ref(7, [0, 0, 0, 1]) * _Ref(1, [Fraction(-1, 2)])),
             (half + z7, _Ref(1, [Fraction(-1, 2)]) + _Ref(7, [0, 0, 0, 1])),
             (z3 * z4, _Ref(3, [0, 1]) * _Ref(4, [0, 1])),
             (z3 + z4, _Ref(3, [0, 1]) + _Ref(4, [0, 1])),
             ((z3 + 1) * (z4 + half), _Ref(3, [1, 1]) * _Ref(4, [Fraction(-1, 2), 1])),
             (CycNumber.zero() * z7, _Ref(7, []))]
    for got, ref in cases:
        _assert_matches(got, ref)
        _assert_lowest_terms(got)
    lifted = z3.lift(12)
    assert lifted.level == 12
    assert lifted == z3 and z3 == lifted and z3 * 1 == lifted
    assert lifted != root_of_unity(3, 2) and root_of_unity(3, 2) != lifted
    assert half == half.lift(6) and half.lift(6) == Fraction(-1, 2) and half.lift(6) != 1
    assert (lifted + z3).level == 12 and lifted + z3 == z3 * 2


# --- the table of signed roots: products and inverses by exponent ------------

def _convolution(x, y):
    """The integer coefficients of x * y before reduction, skipping zero numerators,
    and their denominator."""
    out = [0] * max(0, len(x.nums) + len(y.nums) - 1)
    for i, u in enumerate(x.nums):
        if u:
            for j, v in enumerate(y.nums, i):
                if v:
                    out[j] += u * v
    return tuple(out), x.den * y.den


def _from_convolution(level, conv):
    nums, den = conv
    return _form(CycNumber.from_poly(level, [Fraction(c, den) for c in nums]))


def _signed_roots(level):
    """(sign, k, +-zeta^k) for every signed root at the level, each checked against from_poly.
    The negations are fresh instances, so the table finds them by value."""
    roots = []
    for k in range(level):
        z = root_of_unity(level, k)
        assert _form(z) == _form(CycNumber.from_poly(level, [0] * k + [1]))
        roots += [(1, k, z), (-1, k, -z)]
    return roots


@pytest.mark.parametrize("level", list(range(1, 37)) + [60, 64, 97])
def test_root_products_and_inverses_equal_the_polynomial_path(level):
    reference = {}  # from_poly is a function of its input, so each convolution is reduced once
    # from an empty table, the powers of -zeta build every entry through a product first
    gradedmat.cyclotomic._root_cache.pop(level, None)
    w = -root_of_unity(level, 1)
    power = w
    for _ in range(2 * level):
        conv = _convolution(power, w)
        power = power * w
        assert _form(power) == _from_convolution(level, conv)
    assert _form(power) == _form(w)
    roots = _signed_roots(level)
    for sign, k, x in roots:
        inverse = x.inverse()
        assert _form(inverse) == _form(CycNumber.from_poly(level, [0] * (-k % level) + [sign]))
        assert x * inverse == 1
        for _, _, y in roots:
            conv = _convolution(x, y)
            if conv not in reference:
                reference[conv] = _from_convolution(level, conv)
            assert _form(x * y) == reference[conv]
    exponents = gradedmat.cyclotomic._root_cache[level][1]
    assert all(x.nums in exponents for _, _, x in roots)


def test_the_table_is_filled_one_root_at_a_time():
    gradedmat.cyclotomic._root_cache.pop(997, None)
    z = root_of_unity(997, 5)
    square = z * z
    assert _form(square) == _form(root_of_unity(997, 10))
    modulus, exponents, roots = gradedmat.cyclotomic._root_cache[997]
    assert modulus == 2 * 997
    assert len(exponents) == len(roots) <= 4
    assert square.nums in exponents and (-z).nums in exponents


def test_stored_roots_multiply_and_invert_without_reduction(monkeypatch):
    z = root_of_unity(12, 5)
    w = -root_of_unity(12, 7)
    expected = [_form(v) for v in (z * w, z * z, w.inverse(), z.inverse(), w * w.inverse())]

    def refuse(*args):
        raise AssertionError("a stored root went through the polynomial path")

    monkeypatch.setattr(gradedmat.cyclotomic, "_reduce", refuse)
    assert [_form(v) for v in (z * w, z * z, w.inverse(), z.inverse(), w * w.inverse())] == expected


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 12, 97])
def test_root_of_unity_returns_the_stored_instance(level):
    for k in (-level - 1, -1, 0, 1, 2, level + 3):
        assert root_of_unity(level, k) is root_of_unity(level, k + level)
        assert root_of_unity(level, k) is root_of_unity(level, k % level)


_TABLE_LEVELS = (3, 4, 5, 12)

_table_scalars = st.one_of(
    st.builds(lambda sign, level, k: root_of_unity(level, k) * sign,
              st.sampled_from((1, -1)), st.sampled_from(_TABLE_LEVELS), st.integers(-12, 12)),
    st.builds(CycNumber.rational, st.fractions(-6, 6, max_denominator=6)),
    st.builds(CycNumber.from_poly, st.sampled_from(_TABLE_LEVELS),
              st.lists(st.fractions(-6, 6, max_denominator=6), max_size=8)))


def _product_reference(x, y):
    level = math.lcm(x.level, y.level)
    return _from_convolution(level, _convolution(x.lift(level), y.lift(level)))


@settings(max_examples=80, deadline=None)
@given(_table_scalars, _table_scalars, _table_scalars)
def test_products_of_roots_and_scalars_commute_associate_and_match_from_poly(x, y, z):
    assert _form(x * y) == _form(y * x) == _product_reference(x, y)
    assert _form((x * y) * z) == _form(x * (y * z))
