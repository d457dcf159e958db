"""Galois conjugation: changing the root exponent from 1 to r (coprime to
ell) applies sigma_r, x^k -> x^(r*k) mod Phi_ell, to every coefficient.
lam is x^r at exponent r, and every structure constant is a rational
polynomial in lam, so products, relation reports, Verma and simple monomial
matrices and Steinberg intertwiners at exponent r are the sigma_r-images of
those at exponent 1, and the integer character tables are equal."""

import random

import pytest

from qsl2.algebra import AlgebraParams, AlgElement, relation_residues
from qsl2.cyclotomic import CycField
from qsl2.modules import (character, monomial_matrix, simple,
                          steinberg_intertwiner, verma)

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


def check_monomial_matrices(module, ell, level, r):
    base, twisted = AlgebraParams(ell, level), AlgebraParams(ell, level, r)
    rng = random.Random(ell * 100 + level * 10 + r)
    nonzero = 0
    for z in rng.sample(range(base.bound), 3):
        rep, rep_r = module(base, z), module(twisted, z)
        # F and E indices drawn from the basis labels, so that on a simple
        # module most monomials act by a nonzero matrix.
        labels = rep.basis_labels
        for _ in range(12):
            mono = (rng.choice(labels), rng.randrange(base.bound),
                    rng.choice(labels))
            entries = monomial_matrix(rep, mono).entries
            assert monomial_matrix(rep_r, mono).entries == conjugated(r, entries), (z, mono)
            nonzero += bool(entries)
    assert nonzero >= 5


@pytest.mark.parametrize("ell,level,r", POINTS)
def test_verma_monomial_matrices_are_galois_conjugate(ell, level, r):
    check_monomial_matrices(verma, ell, level, r)


@pytest.mark.parametrize("ell,level,r", POINTS)
def test_simple_monomial_matrices_are_galois_conjugate(ell, level, r):
    check_monomial_matrices(simple, ell, level, r)


@pytest.mark.parametrize("ell,level,r", POINTS)
def test_characters_are_galois_invariant(ell, level, r):
    base, twisted = AlgebraParams(ell, level), AlgebraParams(ell, level, r)
    for z in range(base.bound):
        assert character(simple(twisted, z)) == character(simple(base, z)), z


# The tensor factorization needs level >= 1, so (7, 0, 3) has no intertwiner.
@pytest.mark.parametrize("ell,level,r", [pt for pt in POINTS if pt[1] >= 1])
def test_steinberg_intertwiners_are_galois_conjugate(ell, level, r):
    base, twisted = AlgebraParams(ell, level), AlgebraParams(ell, level, r)
    rng = random.Random(ell * 100 + level * 10 + r)
    for p in rng.sample(range(base.bound), 4):
        entries = steinberg_intertwiner(base, p).intertwiner.entries
        assert steinberg_intertwiner(twisted, p).intertwiner.entries \
            == conjugated(r, entries), p
