import io
import json
import random
import re
from fractions import Fraction

import pytest

from qsl2 import algebra, cli, hopf, qcomb
from qsl2.algebra import (AlgebraParams, AlgElement, basis_monomials,
                          generator, uq_params)
from qsl2.cyclotomic import CycNum
from qsl2.hopf import (Tensor2, coinvariants, convolve, gamma, gamma_colinear,
                       hopf_axiom_check, is_coinvariant, rho, section,
                       section_inverse, unit_counit_map, uq_antipode)
from qsl2.qcomb import q_factorial, q_int


def test_coproduct_group_like_and_unit():
    # At level 0 the coaction rho is the coproduct of u.
    p = uq_params(3)
    k = generator(p, "K", 0)
    assert rho(k) == Tensor2.of(k, k)
    one = AlgElement.unit(p)
    assert rho(one) == Tensor2.of(one, one)


def test_coproduct_of_divided_square_directly():
    # Delta(E)^2 / [2] expanded by hand: E^(2)(x)1 + lam-weighted EK(x)E + K^2(x)E^(2)
    p = uq_params(5)
    field = p.field
    e = generator(p, "E", 0)
    d = rho(e)
    square = (d * d).scaled(q_int(field, 2).inverse())
    e2 = AlgElement.monomial(p, 0, 0, 2)
    ek = AlgElement(p, {(0, 1, 1): field.one()})
    k2 = AlgElement.monomial(p, 0, 2, 0)
    one = AlgElement.unit(p)
    # (E(x)1 + K(x)E)^2 = E^2(x)1 + (EK + KE)(x)E + K^2(x)E^2, with
    # EK = lam^-2 KE in normal form
    manual = Tensor2.of(e2, one) + Tensor2.of(k2, e2)
    ek_coeff = (field.one() + field.lambda_pow(-2)) * q_int(field, 2).inverse()
    manual = manual + Tensor2.of(ek.scaled(ek_coeff), e)
    assert square == rho(e2)
    assert square == manual


def test_antipode_axiom_and_square():
    p = uq_params(3)
    field = p.field
    e, k, kinv = generator(p, "E", 0), generator(p, "K", 0), generator(p, "Kinv", 0)
    assert uq_antipode(k) * k == AlgElement.unit(p)
    # m(S (x) id) Delta(E) = eps(E) 1 = 0
    acc = AlgElement.zero(p)
    for (u1, u2), coeff in rho(e).terms.items():
        acc = acc + (uq_antipode(AlgElement(p, {u1: field.one()}))
                     * AlgElement(p, {u2: field.one()})).scaled(coeff)
    assert acc.is_zero()
    # S^2(E) = K^-1 E K, composed from the generator formulas
    assert uq_antipode(uq_antipode(e)) == kinv * e * k


@pytest.mark.parametrize("ell", [3, 5])
def test_hopf_axioms(ell):
    report = hopf_axiom_check(uq_params(ell))
    assert report["pass"], report


def test_coaction_generator_values():
    p = AlgebraParams(3, 1)
    u = uq_params(3)
    one_u = AlgElement.unit(u)
    assert rho(generator(p, "E", 0)) == Tensor2.of(one_u, generator(p, "E", 0))
    assert rho(generator(p, "K", 1)) == Tensor2.of(generator(u, "K", 0),
                                                   generator(p, "K", 1))
    e_top = rho(generator(p, "E", 1))
    expected = Tensor2.of(generator(u, "E", 0), AlgElement.unit(p)) + \
        Tensor2.of(generator(u, "K", 0), generator(p, "E", 1))
    assert e_top == expected


def test_coaction_counit_on_random_monomials():
    p = AlgebraParams(3, 1)
    rng = random.Random(4)
    for _ in range(200):
        mono = (rng.randrange(9), rng.randrange(9), rng.randrange(9))
        x = AlgElement(p, {mono: p.field.one()})
        out = AlgElement.zero(p)
        for ((a, _, c), d), coeff in rho(x).terms.items():
            if a == 0 and c == 0:
                out = out + AlgElement(p, {d: coeff})
        assert out == x


def test_coaction_axiom_report():
    report = hopf_axiom_check(AlgebraParams(3, 1))
    assert report["pass"], report


def test_coinvariants_dimension_and_span():
    p = AlgebraParams(3, 1)
    basis = coinvariants(p)
    assert len(basis) == 27
    from qsl2.algebra import inclusion_iota
    lower = uq_params(3)
    for mono in basis_monomials(lower):
        x = inclusion_iota(AlgElement(lower, {mono: p.field.one()}), 1)
        assert is_coinvariant(x)
    assert is_coinvariant(AlgElement.unit(p))


def test_coinvariants_split_into_low_digit_blocks():
    p = AlgebraParams(3, 2)
    basis = coinvariants(p)
    assert len(basis) == 729
    for vec in basis:
        (mono,) = vec.terms
        assert all(x < 9 for x in mono)  # top digit zero
    assert len({next(iter(vec.terms)) for vec in basis}) == 729


def test_coinvariants_refuse_a_column_outside_its_block(monkeypatch):
    original = hopf._HopfCache.rho_mono

    def leaky(self, mono):
        out = original(self, mono)
        if mono != (1, 0, 0):
            return out
        # (2, 0, 0) has low digits (2, 0, 0), not those of (1, 0, 0).
        terms = dict(out.terms)
        terms[((0, 0, 0), (2, 0, 0))] = self.field.one()
        return Tensor2(out.uparams, out.dparams, terms)

    monkeypatch.setattr(hopf._HopfCache, "rho_mono", leaky)
    with pytest.raises(AssertionError, match=r"rho\(\(1, 0, 0\)\).*\(2, 0, 0\)"):
        coinvariants(AlgebraParams(3, 1))


def test_coinvariants_refuse_a_block_zero_row_outside_its_block(monkeypatch):
    # Every coaction leaks the same shifted row, so each block is still
    # block 0 relabelled; only the row check on block 0 can see the leak.
    original = hopf._HopfCache.rho_mono

    def leaky(self, mono):
        out = original(self, mono)
        terms = dict(out.terms)
        terms[((0, 0, 0), (mono[0] + 1, mono[1], mono[2]))] = self.field.one()
        return Tensor2(out.uparams, out.dparams, terms)

    monkeypatch.setattr(hopf._HopfCache, "rho_mono", leaky)
    with pytest.raises(AssertionError, match=r"rho\(\(0, 0, 0\)\) has the row "
                       r"\(\(0, 0, 0\), \(1, 0, 0\)\) outside the block"):
        coinvariants(AlgebraParams(3, 1))


def _ref_coinvariants(params):
    """The per-block solve that `coinvariants` replaced, kept as its oracle:
    one nullspace per low-digit label, each from its own rho columns."""
    cache = hopf._cache(params)
    field = params.field
    top = params.ell ** params.level
    lower = AlgebraParams(params.ell, params.level - 1, params.root_exponent)
    basis = []
    for label in basis_monomials(lower):
        monos = [tuple(low + top * d for low, d in zip(label, digits))
                 for digits in basis_monomials(cache.uparams)]
        columns = []
        for mono in monos:
            col = dict(cache.rho_mono(mono).terms)
            hopf._acc(col, ((0, 0, 0), mono), -field.one())
            columns.append(col)
        for vec in hopf.nullspace_of_columns(columns, field):
            basis.append(AlgElement(params, {monos[i]: v for i, v in vec.items()}))
    return basis


@pytest.mark.parametrize("ell,level", [(3, 1), (3, 2), (5, 1)])
def test_coinvariants_match_the_per_block_solve(ell, level):
    params = AlgebraParams(ell, level)
    assert coinvariants(params) == _ref_coinvariants(params)


def _rescale_one_coaction_term(monkeypatch):
    """Make rho((1, 0, 3)) at (3, 1) double its E (x) F[0] term: the column
    stays inside its block of low digits (1, 0, 0), but is no longer the
    block-0 column of (0, 0, 3) relabelled."""
    original = hopf._HopfCache.rho_mono
    key = ((0, 0, 1), (1, 0, 0))

    def rescaled(self, mono):
        out = original(self, mono)
        if (self.dparams.level, mono) != (1, (1, 0, 3)):
            return out
        terms = dict(out.terms)
        terms[key] = terms[key] + terms[key]
        return Tensor2(out.uparams, out.dparams, terms)

    monkeypatch.setattr(hopf._HopfCache, "rho_mono", rescaled)
    return r"rho\(\(1, 0, 3\)\).*\(\(0, 0, 1\), \(1, 0, 0\)\)"


def test_coinvariants_refuse_a_block_that_is_not_block_zero_relabelled(monkeypatch):
    message = _rescale_one_coaction_term(monkeypatch)
    with pytest.raises(AssertionError, match=message):
        coinvariants(AlgebraParams(3, 1))


def test_hopf_axiom_check_reports_a_broken_relabelling(monkeypatch):
    message = _rescale_one_coaction_term(monkeypatch)
    report = hopf_axiom_check(AlgebraParams(3, 1))
    assert not report["pass"]
    (failure,) = report["checks"]["coaction_relabelling"]["failures"]
    assert re.search(message, failure)


def test_verify_cleft_reports_a_broken_relabelling(monkeypatch):
    # The coinvariant check fails with the monomial and row; the other
    # checks still run, and the run ends in FAIL, not in a traceback.
    message = _rescale_one_coaction_term(monkeypatch)
    argv = ["verify", "cleft", "--ell", "3", "--N", "1"]
    out = io.StringIO()
    assert cli.main(argv, out=out) == 1
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("coinvariant dim == iota image dim 27: FAIL (")
    assert re.search(message, lines[0])
    assert len(lines) == 4 and lines[-1] == "FAIL"
    out = io.StringIO()
    assert cli.main(argv + ["--format", "json"], out=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["pass"] is False and payload["coinvariant_dim"] is None
    assert re.search(message, payload["relabelling_failure"])


def test_verify_cleft_fails_on_a_section_that_is_not_colinear(monkeypatch):
    # u embedded at digit 0, where rho(x) = 1 (x) x: not (id (x) gamma)
    # Delta(x) for x = E, F or K.
    def digit_zero(params):
        one = params.field.one()
        return lambda mono: AlgElement(params, {mono: one})

    monkeypatch.setattr(hopf, "section", digit_zero)
    out = io.StringIO()
    assert cli.main(["verify", "cleft", "--ell", "3", "--N", "1"], out=out) == 1
    assert "cleaving section colinear: FAIL\n" in out.getvalue()


def test_verify_cleft_fails_when_the_iota_image_is_not_coinvariant(monkeypatch):
    # The coaction relabels block 0, so the coinvariant dim is 27; only the
    # containment of the iota image fails.
    monkeypatch.setattr(hopf, "is_coinvariant", lambda x: False)
    out = io.StringIO()
    assert cli.main(["verify", "cleft", "--ell", "3", "--N", "1"], out=out) == 1
    lines = out.getvalue().splitlines()
    assert lines[0] == "coinvariant dim 27 == iota image dim 27: FAIL"
    assert lines[-1] == "FAIL"


def test_hopf_axiom_check_reports_a_wrong_coproduct(monkeypatch):
    # Delta(E) with its K (x) E term doubled: E is neither counital on the
    # left nor coassociative.
    original = hopf._HopfCache.delta_mono
    key = ((0, 1, 0), (0, 0, 1))

    def doubled(self, mono):
        out = original(self, mono)
        if (self.dparams.level, mono) != (0, (0, 0, 1)):
            return out
        terms = dict(out.terms)
        terms[key] = terms[key] + terms[key]
        return Tensor2(out.uparams, out.dparams, terms)

    monkeypatch.setattr(hopf._HopfCache, "delta_mono", doubled)
    checks = hopf_axiom_check(uq_params(3))["checks"]
    assert "(0, 0, 1)" in checks["coassociativity"]["failures"]
    assert "(0, 0, 1)" in checks["counit"]["failures"]


def test_hopf_axiom_check_reports_a_wrong_top_digit_coaction(monkeypatch):
    # rho(E[1]) at (3, 1) with its K (x) E[1] term doubled: the coaction is
    # neither counital nor coassociative at E[1].
    original = hopf._HopfCache.rho_mono
    key = ((0, 1, 0), (0, 0, 3))

    def doubled(self, mono):
        out = original(self, mono)
        if (self.dparams.level, mono) != (1, (0, 0, 3)):
            return out
        terms = dict(out.terms)
        terms[key] = terms[key] + terms[key]
        return Tensor2(out.uparams, out.dparams, terms)

    monkeypatch.setattr(hopf._HopfCache, "rho_mono", doubled)
    checks = hopf_axiom_check(AlgebraParams(3, 1))["checks"]
    assert "(0, 0, 3)" in checks["coaction_coassociativity"]["failures"]
    assert checks["coaction_counit"]["failures"] == ["(0, 0, 3)"]
    assert checks["coassociativity"]["pass"] and checks["counit"]["pass"]


def test_level_n_caches_read_the_level_0_coproduct_table(monkeypatch):
    # Delta lives on u: after the (5, 1) suite the level-0 cache holds the
    # 125 coproducts of the u basis, and the level-1 cache holds no copy.
    monkeypatch.setattr(hopf, "_CACHES", {})
    assert hopf_axiom_check(AlgebraParams(5, 1))["pass"]
    assert sum(len(c._delta) for c in hopf._CACHES.values()) == 125


def test_gamma_examples_and_colinearity():
    p = AlgebraParams(3, 1)
    u = uq_params(3)
    assert gamma(AlgElement.unit(u), p) == AlgElement.unit(p)
    assert gamma(generator(u, "E", 0), p) == generator(p, "E", 1)
    assert gamma_colinear(p)


def test_gamma_refuses_other_root_of_unity_data():
    with pytest.raises(ValueError, match="incompatible root-of-unity data"):
        gamma(generator(uq_params(3), "E", 0), AlgebraParams(5, 1))
    with pytest.raises(ValueError, match="incompatible root-of-unity data"):
        gamma(generator(uq_params(5, 2), "E", 0), AlgebraParams(5, 1))
    assert gamma(generator(uq_params(5, 2), "E", 0), AlgebraParams(5, 1, 2)) \
        == generator(AlgebraParams(5, 1, 2), "E", 1)


@pytest.mark.parametrize("ell,level", [(3, 1), (3, 2), (5, 1)])
def test_section_table_is_gamma(ell, level):
    p = AlgebraParams(ell, level)
    u = uq_params(ell)
    table = section(p)
    for mono in basis_monomials(u):
        assert table(mono) == gamma(AlgElement(u, {mono: p.field.one()}), p)


def test_cleaving_map_convolution_inverse():
    p = AlgebraParams(3, 1)
    u = uq_params(3)
    gmap = section(p)
    ginv = section_inverse(p)
    # on group-likes: the inverse is the negative K power at the top level
    for b in range(3):
        assert ginv((0, b, 0)) == AlgElement.monomial(p, 0, ((3 - b) % 3) * 3, 0)
    ident = unit_counit_map(p)
    left = convolve(gmap, ginv, p)
    right = convolve(ginv, gmap, p)
    for mono in basis_monomials(u):
        assert left[mono] == ident(mono)
        assert right[mono] == ident(mono)


def _ref_convolve(f, g, params):
    """The element sum that `convolve` replaced, kept as its oracle: one new
    element per coproduct term."""
    cache = hopf._cache(params)
    out = {}
    for mono in basis_monomials(cache.uparams):
        acc = AlgElement.zero(params)
        for (u1, u2), coeff in cache.delta_mono(mono).terms.items():
            acc = acc + (f(u1) * g(u2)).scaled(coeff)
        out[mono] = acc
    return out


def _ref_convolution_inverse(f, params):
    """The convolution inverse of f solved triangularly along the coradical
    filtration, without the antipode: the oracle for `section_inverse`.
    f must send each K^b to a nonzero scalar times a K monomial, whose
    inverse negates each K digit and inverts the scalar.  For
    x = F^(a) K^b E^(c), the coproduct term K^(b+c) (x) x is peeled off, and
    the rest is known from lower degrees."""
    cache = hopf._cache(params)
    ell = params.ell
    g = {}
    group_inverse = {}
    for b in range(ell):
        ((m, n, p), coeff), = f((0, b, 0)).terms.items()
        assert m == p == 0
        inv_n = sum((-(n // ell ** i) % ell) * ell ** i
                    for i in range(params.level + 1))
        group_inverse[b] = AlgElement.monomial(params, 0, inv_n, 0,
                                               coeff=coeff.inverse())
        g[(0, b, 0)] = group_inverse[b]
    for degree in range(1, 2 * ell - 1):
        for a in range(max(0, degree - ell + 1), min(degree, ell - 1) + 1):
            c = degree - a
            for b in range(ell):
                mono = (a, b, c)
                lead_k = (b + c) % ell
                rest = AlgElement.zero(params)
                lead_coeff = None
                for (u1, u2), coeff in cache.delta_mono(mono).terms.items():
                    if u2 == mono and u1 == (0, lead_k, 0):
                        lead_coeff = coeff
                        continue
                    rest = rest + (f(u1) * g[u2]).scaled(coeff)
                solved = group_inverse[lead_k] * (-rest)
                g[mono] = solved.scaled(lead_coeff.inverse())
    return g


@pytest.mark.parametrize("ell,level,root_exponent",
                         [(3, 1, 1), (3, 1, 2), (3, 2, 1), (5, 1, 1)])
def test_convolution_tables_match_the_element_sums(ell, level, root_exponent):
    p = AlgebraParams(ell, level, root_exponent)
    u = uq_params(ell, root_exponent)
    gmap = section(p)
    inv = section_inverse(p)
    assert {mono: inv(mono) for mono in basis_monomials(u)} \
        == _ref_convolution_inverse(gmap, p)
    for f, g in ((gmap, gmap), (gmap, inv), (inv, gmap)):
        assert convolve(f, g, p) == _ref_convolve(f, g, p)


def _double_the_antipode_of_e(monkeypatch):
    original = hopf._HopfCache.antipode_mono

    def doubled(self, mono):
        s = original(self, mono)
        return s.scaled(2) if mono == (0, 0, 1) else s
    monkeypatch.setattr(hopf._HopfCache, "antipode_mono", doubled)


def test_hopf_axiom_check_reports_a_wrong_antipode(monkeypatch):
    _double_the_antipode_of_e(monkeypatch)
    report = hopf_axiom_check(uq_params(3))
    assert not report["pass"]
    assert report["checks"]["antipode"]["failures"]
    assert report["checks"]["coassociativity"]["pass"]


def test_verify_hopf_checks_that_the_coproduct_is_multiplicative_at_level_0(monkeypatch):
    # 2 rho is not an algebra map.  At N = 0 rho is Delta, and of the level-0
    # checks only the multiplicativity check reads rho itself.
    original = hopf.rho
    monkeypatch.setattr(hopf, "rho", lambda x: original(x).scaled(2))
    out = io.StringIO()
    assert cli.main(["verify", "hopf", "--ell", "3", "--N", "0"], out=out) == 1
    assert out.getvalue() == (
        "coassociativity (exhaustive): 27 instances, 0 failures\n"
        "counit (exhaustive): 27 instances, 0 failures\n"
        "antipode (exhaustive): 27 instances, 0 failures\n"
        "coaction_multiplicative (exhaustive): 16 instances, 16 failures\n"
        "FAIL\n")


def test_verify_cleft_fails_on_a_wrong_antipode(monkeypatch):
    _double_the_antipode_of_e(monkeypatch)
    out = io.StringIO()
    assert cli.main(["verify", "cleft", "--ell", "3", "--N", "1"], out=out) == 1
    assert "convolution inverse two-sided: FAIL\n" in out.getvalue()


def _ref_element_sum(table, zero, x):
    """zero + sum of table(mono).scaled(coeff) over the terms of x, one new
    element per term, as the coproduct, uq_antipode and rho summed before."""
    out = zero
    for mono, coeff in x.terms.items():
        out = out + table(mono).scaled(coeff)
    return out


def _random_element(params, rng, size=6):
    field = params.field
    return AlgElement(params, {
        tuple(rng.randrange(params.bound) for _ in range(3)):
            field.lambda_pow(rng.randrange(params.ell)) * field.rational(rng.randint(1, 4))
        for _ in range(size)})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_coproduct_antipode_and_coaction_match_the_element_sums(seed):
    rng = random.Random(seed)
    for ell in (3, 5):
        u = uq_params(ell)
        cache = hopf._cache(u)
        x = _random_element(u, rng)
        assert rho(x) == _ref_element_sum(cache.delta_mono, Tensor2(u, u), x)
        assert uq_antipode(x) == _ref_element_sum(cache.antipode_mono,
                                                  AlgElement.zero(u), x)
        assert rho(x) == _ref_element_sum(cache.rho_mono, Tensor2(u, u), x)
    for level in (1, 2):
        p = AlgebraParams(3, level)
        cache = hopf._cache(p)
        x = _random_element(p, rng)
        assert rho(x) == _ref_element_sum(cache.rho_mono,
                                          Tensor2(cache.uparams, p), x)


def test_tensor_scaled_accepts_int_and_fraction_factors():
    u = uq_params(3)
    d = rho(generator(u, "E", 0) + generator(u, "F", 0))
    assert d.scaled(2) == d + d
    half = d.scaled(Fraction(1, 2))
    assert half == d.scaled(u.field.rational(Fraction(1, 2)))
    assert half + half == d
    assert d.scaled(0) == Tensor2(u, u)
    assert d.scaled(0).is_zero()


def test_tensor_equality_compares_parameters():
    u = uq_params(3)
    assert Tensor2.unit(u, AlgebraParams(3, 1)) == Tensor2.unit(u, AlgebraParams(3, 1))
    assert Tensor2.unit(u, AlgebraParams(3, 1)) != Tensor2.unit(u, AlgebraParams(3, 2))
    assert Tensor2(u, u) != Tensor2(u, AlgebraParams(3, 1))


def test_rho_multiplicative_random_pairs():
    p = AlgebraParams(3, 1)
    rng = random.Random(9)
    for _ in range(150):
        a = AlgElement(p, {(rng.randrange(9), rng.randrange(9), rng.randrange(9)):
                           p.field.one()})
        b = AlgElement(p, {(rng.randrange(9), rng.randrange(9), rng.randrange(9)):
                           p.field.one()})
        assert rho(a * b) == rho(a) * rho(b)


def _rho_by_generators(params: AlgebraParams):
    """rho on the normal monomials as the ordered product of the generator
    coactions, built with Tensor2.of and Tensor2.__mul__ only:

        rho(X[i]) = 1 (x) X[i] for i < N,
        rho(F[N]) = F (x) K[N]^-1 + 1 (x) F[N],
        rho(E[N]) = E (x) 1 + K (x) E[N],    rho(K[N]) = K (x) K[N],

    and the divided power X[i]^(d) is rho(X[i])^d / [d]!.
    """
    u = uq_params(params.ell, params.root_exponent)
    ell, top, field = params.ell, params.level, params.field
    one_u, one_d = AlgElement.unit(u), AlgElement.unit(params)
    e_u, f_u, k_u = (generator(u, g, 0) for g in ("E", "F", "K"))

    def of_generator(kind, i):
        x = generator(params, kind, i)
        if i < top:
            return Tensor2.of(one_u, x)
        if kind == "F":
            return Tensor2.of(f_u, generator(params, "Kinv", top)) + \
                Tensor2.of(one_u, x)
        if kind == "E":
            return Tensor2.of(e_u, one_d) + Tensor2.of(k_u, x)
        return Tensor2.of(k_u, x)

    powers = {}

    def power(kind, i, d):
        key = (kind, i, d)
        if key not in powers:
            powers[key] = Tensor2.unit(u, params) if d == 0 else \
                power(kind, i, d - 1) * of_generator(kind, i)
        return powers[key]

    def of_monomial(mono):
        out = Tensor2.unit(u, params)
        for kind, index in zip("FKE", mono):
            for i in range(top + 1):
                d = index // ell ** i % ell
                factor = power(kind, i, d)
                if kind != "K":
                    factor = factor.scaled(q_factorial(field, d).inverse())
                out = out * factor
        return out

    return of_monomial


def _monomial(params, mono):
    return AlgElement(params, {mono: params.field.one()})


@pytest.mark.parametrize("root_exponent", [1, 2])
def test_rho_equals_product_of_generator_coactions_exhaustive(root_exponent):
    p = AlgebraParams(3, 1, root_exponent)
    oracle = _rho_by_generators(p)
    for m in range(9):
        for n in range(9):
            for q in range(9):
                assert rho(_monomial(p, (m, n, q))) == oracle((m, n, q)), (m, n, q)


@pytest.mark.parametrize("ell,level", [(3, 2), (5, 1)])
def test_rho_equals_product_of_generator_coactions_sampled(ell, level):
    p = AlgebraParams(ell, level)
    oracle = _rho_by_generators(p)
    rng = random.Random(ell * 10 + level)
    for _ in range(200):
        mono = tuple(rng.randrange(p.bound) for _ in range(3))
        assert rho(_monomial(p, mono)) == oracle(mono), mono


def test_uq_antipode_inverts_each_q_number_once(monkeypatch):
    # S(F^(a) K^b E^(c)) is scaled by 1/([a]! [c]!), and the products behind
    # it divide by [m] and lam - lam^-1: each inverse is taken once, in qcomb,
    # not once per monomial.  From cold caches, at most 15 inverses at ell = 5.
    monkeypatch.setattr(hopf, "_CACHES", {})
    monkeypatch.setattr(algebra, "_ENGINES", {})
    for cached in (qcomb._inverse_q_den, qcomb.q_int, qcomb.q_factorial,
                   qcomb.q_binom, qcomb.gen_q_binom, qcomb.inverse_q_int,
                   qcomb.inverse_q_factorial):
        cached.cache_clear()
    inverse, inverses = CycNum.inverse, []

    def counted_inverse(x):
        inverses.append(x)
        return inverse(x)

    monkeypatch.setattr(CycNum, "inverse", counted_inverse)
    p = uq_params(5)
    for mono in basis_monomials(p):
        uq_antipode(_monomial(p, mono))
    assert len(inverses) <= 15
