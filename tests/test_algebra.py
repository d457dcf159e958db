import math
import random

import pytest

from qsl2.algebra import (AlgebraParams, AlgElement, all_residues_zero,
                          basis_monomials, counit_mono, divided_power,
                          engine_for, generator, inclusion_iota,
                          k_binom_element, projection_pi, relation_residues,
                          uq_params)
from qsl2.modules import element_matrix, monomial_matrix, verma
from qsl2.qcomb import gen_q_binom, k_binom_laurent, q_factorial


def rand_mono(rng, params):
    b = params.bound
    return (rng.randrange(b), rng.randrange(b), rng.randrange(b))


def rand_elem(rng, params):
    return AlgElement(params, {rand_mono(rng, params): params.field.one()})


def test_generator_basics():
    p = AlgebraParams(3, 1)
    assert generator(p, "E", 0).terms == {(0, 0, 1): p.field.one()}
    assert generator(p, "F", 1).terms == {(3, 0, 0): p.field.one()}
    k = generator(p, "K", 1) * generator(p, "Kinv", 1)
    assert k == AlgElement.unit(p)


def test_level0_bracket_is_small_quantum_group():
    p = uq_params(3)
    e, f = generator(p, "E", 0), generator(p, "F", 0)
    k, kinv = generator(p, "K", 0), generator(p, "Kinv", 0)
    inv = (p.field.lam() - p.field.lambda_pow(-1)).inverse()
    assert e * f - f * e == (k - kinv).scaled(inv)


def test_k_twists():
    p = uq_params(5)
    e, k = generator(p, "E", 0), generator(p, "K", 0)
    assert k * e == (e * k).scaled(p.field.lambda_pow(2))
    f = generator(p, "F", 0)
    assert k * f == (f * k).scaled(p.field.lambda_pow(-2))


def test_divided_power_merge_against_letter_products():
    # oracle: build E^(m) from single letters and q-factorials, then compare
    # the merge coefficient with the ell-adic binomial
    p = AlgebraParams(3, 1)
    field = p.field

    def from_letters(m):
        out = AlgElement.unit(p)
        rest, i = m, 0
        while rest:
            rest, d = divmod(rest, 3)
            for _ in range(d):
                out = out * generator(p, "E", i)
            if d:
                out = out.scaled(q_factorial(field, d).inverse())
            i += 1
        return out

    for m in range(9):
        assert from_letters(m) == divided_power(p, "E", m)
    for m in range(9):
        for n in range(9):
            prod = divided_power(p, "E", m) * divided_power(p, "E", n)
            coeff = gen_q_binom(field, m + n, m)
            if coeff.is_zero() or m + n >= 9:
                assert prod.is_zero() or not coeff.is_zero()
                if m + n >= 9:
                    continue
            expected = divided_power(p, "E", m + n).scaled(coeff) \
                if m + n < 9 else AlgElement.zero(p)
            assert prod == expected


def test_nilpotency_by_repeated_multiplication():
    p = AlgebraParams(3, 1)
    for kind in ("E", "F"):
        for i in range(2):
            assert (generator(p, kind, i) ** 3).is_zero()


def test_k_order():
    p = AlgebraParams(3, 1)
    assert generator(p, "K", 1) ** 3 == AlgElement.unit(p)


def test_power_by_squaring(monkeypatch):
    p = uq_params(3)
    x = generator(p, "K", 0) + generator(p, "E", 0) + generator(p, "F", 0)
    power = AlgElement.unit(p)
    for k in range(12):
        assert x ** k == power
        power = power * x
    k0 = generator(p, "K", 0)
    assert k0 ** 1000000001 == k0 ** 2
    calls = []
    original = AlgElement.__mul__

    def counted(self, other):
        calls.append(1)
        return original(self, other)
    monkeypatch.setattr(AlgElement, "__mul__", counted)
    assert k0 ** 1000 == k0  # K^3 = 1
    # 9 squarings and 5 multiplications for the 10 bits of 1000.
    assert len(calls) <= 2 * math.log2(1000) + 2


@pytest.mark.parametrize("ell,level", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 1)])
def test_relation_residues(ell, level):
    assert all_residues_zero(relation_residues(AlgebraParams(ell, level)))


def test_relation_residues_with_other_root():
    assert all_residues_zero(relation_residues(AlgebraParams(3, 1, root_exponent=2)))


def test_root_exponent_is_taken_mod_ell():
    a, b = AlgebraParams(3, 1, 1), AlgebraParams(3, 1, 4)
    assert a == b and b.root_exponent == 1
    assert generator(a, "E", 0) + generator(b, "E", 0) == \
        generator(a, "E", 0).scaled(2)


@pytest.mark.parametrize("ell, level, r", [(3, 2, 1), (5, 1, 3), (3, 3, 2)])
def test_three_digit_products(ell, level, r):
    # associativity, and the Verma matrices as an oracle independent of the
    # product engine
    p = AlgebraParams(ell, level, r)
    rng = random.Random(7)
    for _ in range(300):
        a, b, c = rand_elem(rng, p), rand_elem(rng, p), rand_elem(rng, p)
        assert (a * b) * c == a * (b * c)
    for z in (0, p.bound // 2, p.bound - 1):
        rep = verma(p, z)
        for _ in range(30):
            ma, mb = rand_mono(rng, p), rand_mono(rng, p)
            prod = AlgElement.monomial(p, *ma) * AlgElement.monomial(p, *mb)
            assert element_matrix(rep, prod) == \
                monomial_matrix(rep, ma) @ monomial_matrix(rep, mb)


def _flat(key):
    return [d for part in key for d in (part if isinstance(part, tuple) else (part,))]


def test_product_memo_is_level_independent():
    # the product engine memoizes level-0 data only, whatever the level
    for ell, level in ((3, 3), (5, 1)):
        p = AlgebraParams(ell, level)
        rng = random.Random(11)
        for _ in range(200):
            rand_elem(rng, p) * rand_elem(rng, p)
        eng = engine_for(p)
        assert eng._collide and eng._ef
        for key in list(eng._collide) + list(eng._ef):
            assert all(0 <= d < ell for d in _flat(key)), key
        assert len(eng._collide) <= ell ** 4


def test_top_bracket_normal_form():
    # E[1]F[1] = F[1]E[1] + (K[1] - K[1]^-1)/(lam - lam^-1), assembled from
    # basis monomials without the engine
    p = AlgebraParams(3, 1)
    field = p.field
    inv = (field.lam() - field.lambda_pow(-1)).inverse()
    expected = AlgElement(p, {
        (3, 0, 3): field.one(),
        (0, 3, 0): inv,
        (0, 6, 0): -inv,
    })
    assert generator(p, "E", 1) * generator(p, "F", 1) == expected


def test_triangular_decomposition_hits_basis_once():
    p = AlgebraParams(3, 1)
    seen = set()
    for (m, n, pp) in basis_monomials(p):
        k_n = AlgElement.monomial(p, 0, n, 0)
        prod = divided_power(p, "F", m) * k_n * divided_power(p, "E", pp)
        assert prod.terms == {(m, n, pp): p.field.one()}
        seen.add((m, n, pp))
    assert len(seen) == 729


def _grading_degree(x):
    """Common Z-degree of all terms (deg E[i] = -deg F[i] = ell^i), or None
    if mixed."""
    degrees = {p - m for (m, _, p) in x.terms}
    if len(degrees) > 1:
        return None
    return degrees.pop() if degrees else 0


def test_grading():
    p = AlgebraParams(3, 1)
    assert _grading_degree(generator(p, "E", 1)) == 3
    assert _grading_degree(AlgElement.unit(p)) == 0
    assert _grading_degree(generator(p, "E", 0) + generator(p, "F", 0)) is None
    rng = random.Random(3)
    for _ in range(50):
        a = rand_elem(rng, p)
        b = rand_elem(rng, p)
        da, db = _grading_degree(a), _grading_degree(b)
        prod = a * b
        if not prod.is_zero():
            assert _grading_degree(prod) == da + db


def test_projection_on_generators():
    p = AlgebraParams(3, 1)
    down = projection_pi(generator(p, "E", 1), 0)
    assert down == generator(uq_params(3), "E", 0)
    assert projection_pi(generator(p, "E", 0), 0).is_zero()
    assert projection_pi(generator(p, "K", 0), 0) == AlgElement.unit(uq_params(3))


def test_projection_multiplicative():
    p = AlgebraParams(3, 1)
    rng = random.Random(11)
    for _ in range(1000):
        a, b = rand_elem(rng, p), rand_elem(rng, p)
        assert projection_pi(a * b, 0) == projection_pi(a, 0) * projection_pi(b, 0)


def test_projection_composition():
    p2 = AlgebraParams(3, 2)
    for kind in ("E", "F", "K"):
        for i in range(3):
            g = generator(p2, kind, i)
            via_mid = projection_pi(projection_pi(g, 1), 0)
            assert via_mid == projection_pi(g, 0)


def test_inclusion():
    p0 = uq_params(3)
    assert inclusion_iota(AlgElement.unit(p0), 1) == AlgElement.unit(AlgebraParams(3, 1))
    x = generator(p0, "E", 0) * generator(p0, "F", 0)
    up = inclusion_iota(x, 1)
    p1 = AlgebraParams(3, 1)
    assert up == generator(p1, "E", 0) * generator(p1, "F", 0)


def test_counit():
    # The augmentation sums the coefficients of the K monomials.
    p = AlgebraParams(3, 1)

    def counit(x):
        return sum((c for mono, c in x.terms.items() if counit_mono(mono)),
                   p.field.zero())

    assert counit(generator(p, "K", 1)) == p.field.one()
    assert counit(generator(p, "E", 1)).is_zero()
    rng = random.Random(5)
    for _ in range(200):
        a, b = rand_elem(rng, p), rand_elem(rng, p)
        assert counit(a * b) == counit(a) * counit(b)


def test_bad_parameters():
    with pytest.raises(ValueError):
        AlgebraParams(4, 1)
    with pytest.raises(ValueError):
        AlgebraParams(3, -1)
    with pytest.raises(ValueError):
        AlgebraParams(9, 0, root_exponent=3)
    p = AlgebraParams(3, 0)
    with pytest.raises(ValueError):
        generator(p, "E", 1)
    with pytest.raises(ValueError):
        AlgElement.monomial(p, 3, 0, 0)
    with pytest.raises(ValueError):
        divided_power(p, "K", 1)


def test_mixed_params_refused():
    a = AlgElement.unit(AlgebraParams(3, 1))
    b = AlgElement.unit(AlgebraParams(3, 2))
    with pytest.raises(ValueError):
        a * b


@pytest.mark.parametrize("level,t", [(0, 3), (1, -1), (1, 9), (1, 10)])
def test_k_binom_element_refuses_depth_outside_basis(level, t):
    with pytest.raises(ValueError, match="depth"):
        k_binom_element(AlgebraParams(3, level), 0, t)


def test_k_binom_element_is_the_product_of_its_digit_factors():
    p = AlgebraParams(3, 1)
    ell = p.ell
    for s in range(-ell, p.bound):
        for t in range(p.bound):
            product = AlgElement.unit(p)
            for i in range(p.level + 1):
                sd, td = (s // ell ** i) % ell, (t // ell ** i) % ell
                laurent = k_binom_laurent(p.field, sd, td)
                factor = AlgElement(p, {(0, (b % ell) * ell ** i, 0): c
                                        for b, c in laurent.items()})
                product = product * factor
            assert k_binom_element(p, s, t) == product, (s, t)
