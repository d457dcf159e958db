import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qsl2.algebra import AlgElement, generator, uq_params
from qsl2.cyclotomic import (CycField, CycNum, FieldMismatchError,
                             cyclotomic_polynomial, square_and_multiply)
from qsl2.hyperalgebra import TruncatedSeries2
from qsl2.linalg import Mat


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def test_cyclotomic_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)


def test_cyclotomic_9_by_independent_product():
    # Phi_1 * Phi_3 * Phi_9 must equal x^9 - 1
    prod = poly_mul(poly_mul(cyclotomic_polynomial(1), cyclotomic_polynomial(3)),
                    cyclotomic_polynomial(9))
    assert prod == tuple([-1] + [0] * 8 + [1])
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)


def test_cyclotomic_rejects_nonpositive():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


@pytest.mark.parametrize("ell", [3, 5, 7, 9])
def test_lambda_order(ell):
    field = CycField(ell)
    assert field.lambda_pow(ell) == field.one()
    for k in range(1, ell):
        assert field.lambda_pow(k) != field.one()


def test_lambda_times_inverse_power():
    field = CycField(7)
    assert field.lam() * field.lambda_pow(6) == field.one()
    assert field.lambda_pow(-1) * field.lambda_pow(1) == field.one()


def test_phi3_relation():
    field = CycField(3)
    lam = field.lam()
    assert field.one() + lam + lam * lam == field.zero()


def test_additive_identity():
    field = CycField(5)
    a = field.lam() + field.rational(Fraction(7, 3))
    assert a + field.zero() == a


@pytest.mark.parametrize("ell", [3, 5, 7, 9, 15])
def test_inverse_roundtrip_random(ell):
    field = CycField(ell)
    rng = random.Random(ell)
    count = 0
    while count < 200:
        coeffs = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                       for _ in range(field.degree))
        a = CycNum(ell, coeffs)
        if a.is_zero():
            continue
        count += 1
        assert a * a.inverse() == field.one()


def test_inverse_of_one_and_lambda():
    field = CycField(5)
    assert field.one().inverse() == field.one()
    assert field.lam().inverse() == field.lambda_pow(4)
    d = field.lam() - field.lambda_pow(-1)
    assert d.inverse() * d == field.one()


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        CycField(3).zero().inverse()


def test_order_mismatch():
    with pytest.raises(FieldMismatchError):
        CycField(3).one() + CycField(5).one()


def ref_mul(order, a, b):
    """The Fraction-tuple multiply that CycNum used before it stored integer
    numerators over a common denominator, the reference for its arithmetic:
    convolve, then reduce mod Phi_order by long division.  `inverse` runs
    through `CycNum.__mul__`, so this is also the one check of `inverse`
    that does not."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    out = list(poly_mul(a, b))
    for k in range(len(out) - 1, deg - 1, -1):
        top = out[k]
        if top:
            for i, c in enumerate(phi):
                out[k - deg + i] -= top * c
    return tuple(out[:deg])


def ref_add(a, b, sign=1):
    return tuple(x + sign * y for x, y in zip(a, b))


def is_canonical(x):
    return x.den > 0 and math.gcd(x.den, *x.num) == 1


rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@st.composite
def elements(draw, order):
    """A general element, or one time in three a rational one (0, +-1, p/q),
    by which `CycNum.__mul__` scales instead of convolving."""
    if draw(st.integers(0, 2)) == 0:
        return CycNum.from_rational(order, draw(st.sampled_from([0, 1, -1]) | rationals))
    return CycNum(order, tuple(draw(rationals)
                               for _ in range(CycField(order).degree)))


@st.composite
def triples(draw):
    order = draw(st.sampled_from([3, 5, 7, 9, 15]))
    return draw(elements(order)), draw(elements(order)), draw(elements(order))


@given(triples(), rationals)
def test_field_axioms(abc, s):
    a, b, c = abc
    order = a.order
    one = CycNum.from_rational(order, 1)
    for x in (a, b, c, a + b, a * b, a - c):
        assert is_canonical(x)
        assert CycNum(order, x.coeffs) == x
    assert (a + b).coeffs == ref_add(a.coeffs, b.coeffs)
    assert (a - b).coeffs == ref_add(a.coeffs, b.coeffs, -1)
    assert (a * b).coeffs == ref_mul(order, a.coeffs, b.coeffs)
    assert (a * s).coeffs == (s * a).coeffs == tuple(x * s for x in a.coeffs)
    assert (-a).coeffs == tuple(-x for x in a.coeffs)
    assert (a == b) == (a.coeffs == b.coeffs)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    if a:
        assert ref_mul(order, a.coeffs, a.inverse().coeffs) == one.coeffs
        assert a * a.inverse() == one
    # one value built two ways has one stored form and one hash
    for x, y in ((a * b, b * a), ((a + b) - b, a), (a * b + a * c, a * (b + c)),
                 (a - a, CycNum.from_rational(order, 0))):
        assert (x.num, x.den) == (y.num, y.den)
        assert x == y and hash(x) == hash(y)


def test_wrong_length_coefficients_raise():
    with pytest.raises(ValueError):
        CycNum(5, (1, 2)) + CycField(5).one()


def test_float_rational_raises():
    with pytest.raises(TypeError):
        CycField(5).rational(0.1)
    with pytest.raises(TypeError):
        CycNum.from_rational(5, 0.5)
    with pytest.raises(TypeError):
        CycNum(5, (0.5, 0, 0, 0))


def test_float_scalar_raises():
    with pytest.raises(TypeError):
        CycField(5).one() * 0.5
    with pytest.raises(TypeError):
        0.5 * CycField(5).one()


def test_canonical_form_is_unique():
    field = CycField(3)
    lam = field.lam()
    # lam^2 = -1 - lam after reduction; equality must see through that
    assert lam * lam == -(field.one() + lam)


def test_root_exponent_picks_other_primitive_root():
    field = CycField(5, root_exponent=2)
    lam = field.lam()
    assert lam ** 5 == field.one()
    for k in range(1, 5):
        assert lam ** k != field.one()


def test_root_exponent_must_be_coprime():
    with pytest.raises(ValueError):
        CycField(9, root_exponent=3)


def test_even_or_tiny_order_rejected():
    with pytest.raises(ValueError):
        CycField(4)
    with pytest.raises(ValueError):
        CycField(1)


def test_pow_negative():
    field = CycField(7)
    x = field.rational(2) + field.lam()
    assert (x ** -2) * (x ** 2) == field.one()


def test_square_and_multiply_counts_its_products_in_every_ring(monkeypatch):
    # bit_length(k) - 1 squarings and popcount(k) - 1 further products, and
    # `one` itself at k = 0, on each ring that raises powers through it.
    field = CycField(5)
    params = uq_params(3)
    series = TruncatedSeries2(7, 9, 0, {(0, 0): 1, (1, 0): 3})
    mat = Mat(2, 2, field, {(0, 0): field.lam(), (0, 1): field.one(),
                            (1, 1): field.rational(2)})
    # (class, base, one, its power routine, the value compared)
    rings = [
        (CycNum, field.lam() + field.one(), field.one(),
         CycNum.__pow__, lambda x: x),
        (AlgElement, generator(params, "F", 0) + generator(params, "K", 0),
         AlgElement.unit(params), AlgElement.__pow__, lambda x: x),
        (TruncatedSeries2, series, TruncatedSeries2.one(7, 9, 0),
         TruncatedSeries2.pow, lambda x: x.coeffs),
        (Mat, mat, Mat.identity(2, field), Mat.pow, lambda x: x),
    ]
    for cls, base, one, power, value in rings:
        repeated = [one]
        for _ in range(9):
            repeated.append(repeated[-1] * base)
        assert square_and_multiply(base, 0, one) is one
        calls = 0
        original = cls.__mul__

        def counting(self, other):
            nonlocal calls
            calls += 1
            return original(self, other)

        with monkeypatch.context() as patch:
            patch.setattr(cls, "__mul__", counting)
            for k in range(10):
                calls = 0
                result = power(base, k)
                products = k.bit_length() + bin(k).count("1") - 2 if k else 0
                assert calls == products, (cls.__name__, k)
                assert value(result) == value(repeated[k]), (cls.__name__, k)
