"""Acceptance suite: one test per criterion, exact checks, one verdict line each.

Everything here is exact arithmetic; "tolerance" for every criterion is
equality on the nose.  Exhaustive ranges and sample counts follow the stated
requirements; randomized parts use fixed seeds.
"""

import io
import json
import math
import random
import time

import pytest

from qsl2.algebra import (AlgebraParams, AlgElement, all_residues_zero,
                          basis_monomials, divided_power, generator,
                          k_binom_element, relation_residues, uq_params)
from qsl2.cyclotomic import CycField
from qsl2.exprs import ast_to_string, parse_expr
from qsl2.hopf import (coinvariants, convolve, gamma_colinear,
                       hopf_axiom_check, is_coinvariant, section,
                       section_inverse, unit_counit_map)
from qsl2.hyperalgebra import (HypParams, erratum_report, frobenius_pi,
                               hyp_basis, hyp_monomial, hyp_multiply,
                               kernel_dimensions, xy_normal_order)
from qsl2.linalg import Mat
from qsl2.modules import (element_matrix, monomial_matrix, simple,
                          steinberg_intertwiner, verma)
from qsl2.qcomb import (gen_q_binom, k_binom_laurent, lucas_binom, to_digits)
from qsl2 import cli


def verdict(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_relation_suite():
    times = []
    for (ell, level) in [(3, 0), (3, 1), (5, 0), (5, 1)]:
        t0 = time.time()
        report = relation_residues(AlgebraParams(ell, level))
        elapsed = time.time() - t0
        times.append(elapsed)
        assert all_residues_zero(report), (ell, level)
        assert elapsed < 60, (ell, level, elapsed)
    verdict(1, True,
            f"relations zero at (3,0),(3,1),(5,0),(5,1); "
            f"max runtime {max(times):.2f}s < 60s")


def test_criterion_02_ell_adic_binomial_identities():
    field = CycField(3)
    bad = 0
    for m in range(9):
        for n in range(9):
            if gen_q_binom(field, m + n, m) != gen_q_binom(field, m + n, n):
                bad += 1
            for p in range(9):
                lhs = gen_q_binom(field, m + n, n) * gen_q_binom(field, m + n + p, p)
                rhs = gen_q_binom(field, n + p, n) * gen_q_binom(field, m + n + p, m)
                if lhs != rhs:
                    bad += 1
    assert bad == 0
    rng = random.Random(0)
    for ell in (5, 9):
        f2 = CycField(ell)
        for _ in range(10000):
            m, n, p = (rng.randrange(ell * ell) for _ in range(3))
            assert gen_q_binom(f2, m + n, m) == gen_q_binom(f2, m + n, n)
            assert gen_q_binom(f2, m + n, n) * gen_q_binom(f2, m + n + p, p) == \
                gen_q_binom(f2, n + p, n) * gen_q_binom(f2, m + n + p, m)
    verdict(2, True, "symmetry+product identities: exhaustive at ell=3 "
            "(m,n,p < 9), 10^4 sampled triples at ell=5 and ell=9")


def test_criterion_03_commutation_formula():
    for ell in (3, 5, 7):
        params = uq_params(ell)
        field = params.field
        for m in range(ell):
            for n in range(ell):
                lhs = divided_power(params, "E", m) * divided_power(params, "F", n)
                rhs = AlgElement.zero(params)
                for i in range(min(m, n) + 1):
                    # assemble from the Laurent expansion, no engine products
                    laurent = k_binom_laurent(field, 2 * i - m - n, i)
                    for b, coeff in laurent.items():
                        rhs = rhs + AlgElement(
                            params, {(n - i, b % ell, m - i): coeff})
                assert lhs == rhs, (ell, m, n)
    verdict(3, True, "divided-power commutation formula exhaustive for "
            "0 <= m,n < ell, ell in {3,5,7}")


def test_criterion_04_simple_dimensions():
    checked = 0
    for (ell, level) in [(3, 1), (3, 2), (5, 1)]:
        params = AlgebraParams(ell, level)
        for weight in range(params.bound):
            expected = 1
            for d in to_digits(weight, ell, level + 1):
                expected *= d + 1
            assert simple(params, weight).dim == expected, (ell, level, weight)
            checked += 1
    verdict(4, True, f"dim L(p) = prod(p_i + 1) for all {checked} weights "
            "at (3,1), (3,2), (5,1)")


def test_criterion_05_steinberg_factorization():
    t0 = time.time()
    count = 0
    for (ell, level) in [(3, 1), (3, 2), (5, 1)]:
        params = AlgebraParams(ell, level)
        for weight in range(params.bound):
            steinberg_intertwiner(params, weight)  # raises on any failure
            count += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    verdict(5, True, f"intertwiner bijective+equivariant for all {count} "
            f"weights at (3,1),(3,2),(5,1) in {elapsed:.1f}s < 300s")


def test_criterion_06_cleft_extension():
    params = AlgebraParams(3, 1)
    basis = coinvariants(params)
    assert len(basis) == 27
    from qsl2.algebra import inclusion_iota
    lower = uq_params(3)
    iota_ok = all(
        is_coinvariant(inclusion_iota(
            AlgElement(lower, {mono: params.field.one()}), 1))
        for mono in basis_monomials(lower))
    assert iota_ok
    for ell in (3, 5):
        p = AlgebraParams(ell, 1)
        uparams = uq_params(ell)
        assert gamma_colinear(p)
        gmap = section(p)
        ginv = section_inverse(p)
        ident = unit_counit_map(p)
        left = convolve(gmap, ginv, p)
        right = convolve(ginv, gmap, p)
        for mono in basis_monomials(uparams):
            assert left[mono] == ident(mono), (ell, mono)
            assert right[mono] == ident(mono), (ell, mono)
    verdict(6, True, "coinvariants = iota image (dim 27) at (3,1); section "
            "colinear and two-sided convolution-invertible on all 27/125 "
            "basis elements for ell=3,5")


def test_criterion_07_hopf_axioms():
    for ell in (3, 5):
        report = hopf_axiom_check(uq_params(ell))
        assert report["pass"], report
    report = hopf_axiom_check(AlgebraParams(3, 1))
    assert report["pass"], report
    verdict(7, True, "Hopf axioms exhaustive on the ell^3 basis for ell=3,5; "
            "coaction axioms exhaustive at (3,1)")


def test_criterion_08_associativity_and_verma_compatibility():
    params = AlgebraParams(3, 1)
    field = params.field
    gens = [generator(params, kind, i)
            for kind in ("E", "F", "K", "Kinv") for i in range(2)]
    for a in gens:
        for b in gens:
            for c in gens:
                assert (a * b) * c == a * (b * c)
    rng = random.Random(1)

    def mono():
        return AlgElement(params, {(rng.randrange(9), rng.randrange(9),
                                    rng.randrange(9)): field.one()})

    for _ in range(10000):
        a, b, c = mono(), mono(), mono()
        assert (a * b) * c == a * (b * c)

    pair_budget = 1000
    pairs_done = 0
    for z in range(9):
        rep = verma(params, z)
        for ga in gens:
            for gb in gens:
                assert element_matrix(rep, ga * gb) == \
                    element_matrix(rep, ga) @ element_matrix(rep, gb)
        for _ in range(pair_budget // 9):
            a, b = mono(), mono()
            (ma,), (mb,) = a.terms, b.terms
            assert element_matrix(rep, a * b) == \
                monomial_matrix(rep, ma) @ monomial_matrix(rep, mb)
            pairs_done += 1
    verdict(8, True, "associativity exhaustive on 512 generator triples and "
            f"10^4 random monomial triples; matrix(ab)=matrix(a)matrix(b) on "
            f"all generator pairs and {pairs_done} random pairs for all z < 9")


def test_criterion_09_char_p_suite():
    for p in (2, 3, 5):
        table = dict(xy_normal_order(HypParams(p, 1), 1, 1))
        assert table.pop((1, 0, 1)) == 1
        assert table == {(0, 1, 0): 1}, p

    big2, low2 = HypParams(2, 2), HypParams(2, 1)
    for a in hyp_basis(big2):
        for b in hyp_basis(big2):
            x, y = hyp_monomial(big2, *a), hyp_monomial(big2, *b)
            assert frobenius_pi(big2, hyp_multiply(big2, x, y), 1) == \
                hyp_multiply(low2, frobenius_pi(big2, x, 1),
                             frobenius_pi(big2, y, 1))

    big3, low3 = HypParams(3, 2), HypParams(3, 1)
    rng = random.Random(2)
    for _ in range(10000):
        a = (rng.randrange(9), rng.randrange(9), rng.randrange(9))
        b = (rng.randrange(9), rng.randrange(9), rng.randrange(9))
        x, y = hyp_monomial(big3, *a), hyp_monomial(big3, *b)
        assert frobenius_pi(big3, hyp_multiply(big3, x, y), 1) == \
            hyp_multiply(low3, frobenius_pi(big3, x, 1),
                         frobenius_pi(big3, y, 1))

    dims2 = kernel_dimensions(big2, 1)
    assert dims2["kernel_matches"] and dims2["ideal_spans_kernel"]
    assert dims2["products_contained_in_kernel"]
    dims3 = kernel_dimensions(big3, 1)
    assert dims3["kernel_matches"] and dims3["ideal_spans_kernel"]
    # containment covers every level-2 monomial times each generator
    assert dims3["products_contained_in_kernel"]
    assert dims3["products_checked"] == 3 ** 6 * 3

    for p in (2, 3, 5):
        report = erratum_report(p)
        assert not report["xy_closed_form"]["agrees"]
        assert not report["gm_product"]["as_printed_agrees"]
        assert report["gm_product"]["digit_corrected_agrees"]
    verdict(9, True, "bracket oracle for p=2,3,5; level-lowering map "
            "multiplicative (4096 exhaustive at p=2, 10^4 sampled at p=3); "
            "kernel dims by exact rank; erratum reports generated")


def test_criterion_10_lucas_binomials():
    for p in (2, 3, 5):
        bound = p ** 4
        for m in range(bound):
            for n in range(bound):
                assert lucas_binom(m, n, p) == math.comb(m, n) % p
    verdict(10, True, "Lucas binomials equal factorial binomials mod p for "
            "all m,n < p^4, p in {2,3,5}")


def test_criterion_11_cli():
    def run(argv):
        out = io.StringIO()
        code = cli.main(argv, out=out)
        return code, out.getvalue()

    goldens = [
        (["nf", "E[0]*F[0]-F[0]*E[0]", "--ell", "3", "--N", "0"],
         "(-1/3 - 2/3*q)*K[0] + (1/3 + 2/3*q)*K[0]^2\n"),
        (["nf", "1"], "1\n"),
        (["nf", "E(2)*E(1)", "--ell", "3", "--N", "1"], "0\n"),
        (["rep", "simple", "--ell", "3", "--N", "1", "--p", "5"], "dim = 6\n"),
        (["rep", "simple", "--ell", "3", "--N", "1", "--p", "0"], "dim = 1\n"),
        (["rep", "steinberg", "--ell", "3", "--N", "1", "--p", "5"],
         "PASS (6 = 2x3)\n"),
    ]
    for argv, expected in goldens:
        code, out = run(argv)
        assert code == 0 and out == expected, (argv, out)
    code, out = run(["verify", "relations", "--ell", "3", "--N", "1"])
    assert code == 0 and out.endswith("PASS\n")
    code, out = run(["verify", "cleft", "--ell", "3", "--N", "1"])
    assert code == 0
    assert out.startswith("coinvariant dim 27 == iota image dim 27: PASS")

    from tests.test_exprs import CORPUS
    params = AlgebraParams(3, 1)
    for text in CORPUS:
        ast = parse_expr(text, params)
        assert parse_expr(ast_to_string(ast), params) == ast
    verdict(11, True, "golden invocations match; parse/print fixed point on "
            f"{len(CORPUS)} expressions")
