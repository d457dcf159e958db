"""Galois conjugation: changing the root exponent from 1 to r (coprime to
ell) applies sigma_r, x^k -> x^(r*k) mod Phi_ell, to every coefficient.
lam is x^r at exponent r, and every structure constant is a rational
polynomial in lam, so products, relation reports and Verma monomial matrices
at exponent r are the sigma_r-images of those at exponent 1."""

import random

import pytest

from qsl2.algebra import AlgebraParams, AlgElement, relation_residues
from qsl2.cyclotomic import CycField
from qsl2.modules import monomial_matrix, verma

POINTS = [(3, 1, 2), (5, 1, 3), (7, 0, 3), (3, 2, 2)]


def sigma(r, c):
    """sigma_r applied coefficientwise to c, an element of Q(x)/(Phi_ell)."""
    field = CycField(c.order)
    out = field.zero()
    for k, coeff in enumerate(c.coeffs):
        if coeff:
            out = out + field.lambda_pow(r * k) * coeff
    return out


def conjugated(r, store):
    return {key: sigma(r, v) for key, v in store.items()}


def random_monomial(rng, bound):
    return tuple(rng.randrange(bound) for _ in range(3))


@pytest.mark.parametrize("ell,level,r", POINTS)
def test_products_are_galois_conjugate(ell, level, r):
    base, twisted = AlgebraParams(ell, level), AlgebraParams(ell, level, r)
    rng = random.Random(ell * 100 + level * 10 + r)
    for _ in range(60):
        a, b = random_monomial(rng, base.bound), random_monomial(rng, base.bound)
        prod = AlgElement.monomial(base, *a) * AlgElement.monomial(base, *b)
        prod_r = AlgElement.monomial(twisted, *a) * AlgElement.monomial(twisted, *b)
        assert prod_r.terms == conjugated(r, prod.terms), (a, b)


@pytest.mark.parametrize("ell,level,r", POINTS)
def test_relation_residues_are_galois_conjugate(ell, level, r):
    report = relation_residues(AlgebraParams(ell, level))
    assert relation_residues(AlgebraParams(ell, level, r)) == report


@pytest.mark.parametrize("ell,level,r", POINTS)
def test_verma_monomial_matrices_are_galois_conjugate(ell, level, r):
    base, twisted = AlgebraParams(ell, level), AlgebraParams(ell, level, r)
    rng = random.Random(ell * 100 + level * 10 + r)
    nonzero = 0
    for z in rng.sample(range(base.bound), 3):
        rep, rep_r = verma(base, z), verma(twisted, z)
        for _ in range(12):
            mono = random_monomial(rng, base.bound)
            entries = monomial_matrix(rep, mono).entries
            assert monomial_matrix(rep_r, mono).entries == conjugated(r, entries), (z, mono)
            nonzero += bool(entries)
    assert nonzero >= 5
