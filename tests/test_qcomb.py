import math
import random

import pytest

from qsl2.cyclotomic import CycField
from qsl2.qcomb import (gen_q_binom, k_binom_at_power, k_binom_laurent,
                        lucas_binom, q_binom, q_factorial, q_int, to_digits)


def test_digits_roundtrip():
    assert to_digits(14, 3) == (2, 1, 1)
    assert to_digits(0, 5) == ()
    assert to_digits(4, 3, width=3) == (1, 1, 0)
    with pytest.raises(ValueError):
        to_digits(10, 3, width=2)


def test_q_int_basics():
    field = CycField(5)
    assert q_int(field, 1) == field.one()
    assert q_int(field, 2) == field.lam() + field.lambda_pow(-1)


def test_q_int_vanishes_at_order():
    field = CycField(3)
    assert q_int(field, 3).is_zero()


def test_q_factorial_range():
    field = CycField(3)
    assert q_factorial(field, 0) == field.one()
    with pytest.raises(ValueError):
        q_factorial(field, 3)


def test_q_binom_empty_product():
    field = CycField(7)
    assert q_binom(field, -4, 0) == field.one()


def test_q_binom_examples_ell3():
    field = CycField(3)
    # independent evaluation of the two product factors for (5, 2)
    lam = field.lam()

    def factor(m, j):
        num = field.lambda_pow(m - j + 1) - field.lambda_pow(j - 1 - m)
        den = field.lambda_pow(j) - field.lambda_pow(-j)
        return num * den.inverse()

    assert q_binom(field, 5, 2) == factor(5, 1) * factor(5, 2)
    assert q_binom(field, 5, 2) == field.one()
    assert q_binom(field, 1, 2).is_zero()


def test_q_binom_against_factorials():
    for ell in (3, 5, 7):
        field = CycField(ell)
        for m in range(ell):
            for n in range(m + 1):
                expected = q_factorial(field, m) * (
                    q_factorial(field, n) * q_factorial(field, m - n)).inverse()
                assert q_binom(field, m, n) == expected


def test_q_binom_lower_index_bound():
    with pytest.raises(ValueError):
        q_binom(CycField(3), 5, 3)


def test_gen_q_binom_examples():
    field = CycField(3)
    assert gen_q_binom(field, 7, 0) == field.one()
    assert gen_q_binom(field, 4, 3) == field.one()   # digits (1,1) vs (0,1)
    assert gen_q_binom(field, 4, 2).is_zero()        # digit pair (1,2)


def test_gen_q_binom_matches_q_binom_below_ell():
    for ell in (3, 5):
        field = CycField(ell)
        for m in range(ell):
            for n in range(ell):
                assert gen_q_binom(field, m, n) == q_binom(field, m, n)


def test_gen_q_binom_identities_sampled():
    rng = random.Random(0)
    for ell in (5, 9):
        field = CycField(ell)
        for _ in range(300):
            m, n, p = (rng.randrange(ell * ell) for _ in range(3))
            assert gen_q_binom(field, m + n, m) == gen_q_binom(field, m + n, n)
            lhs = gen_q_binom(field, m + n, n) * gen_q_binom(field, m + n + p, p)
            rhs = gen_q_binom(field, n + p, n) * gen_q_binom(field, m + n + p, m)
            assert lhs == rhs


def test_k_binom_laurent_examples():
    field = CycField(5)
    inv = (field.lam() - field.lambda_pow(-1)).inverse()
    assert k_binom_laurent(field, 4, 0) == {0: field.one()}
    assert k_binom_laurent(field, 0, 1) == {1: inv, -1: -inv}
    assert k_binom_laurent(field, 2, 1) == {
        1: field.lambda_pow(2) * inv, -1: -(field.lambda_pow(-2) * inv)}
    with pytest.raises(ValueError):
        k_binom_laurent(field, 0, 5)


def test_k_binom_group_like_specialization():
    for ell in (3, 5):
        field = CycField(ell)
        for s in range(-ell, ell + 1):
            for a in range(ell):
                for z in range(ell):
                    value = k_binom_at_power(field, k_binom_laurent(field, s, a), z)
                    assert value == q_binom(field, z + s, a)


def test_lucas_examples():
    assert lucas_binom(9, 0, 5) == 1
    assert lucas_binom(3, 1, 3) == 0
    assert lucas_binom(6, 3, 3) == 2
    with pytest.raises(ValueError):
        lucas_binom(4, 2, 6)


def test_lucas_against_factorials_sampled():
    rng = random.Random(1)
    for p in (2, 3, 5):
        for _ in range(400):
            m = rng.randrange(p ** 3)
            n = rng.randrange(p ** 3)
            assert lucas_binom(m, n, p) == math.comb(m, n) % p
