import random

import pytest

from qsl2 import modules, qcomb
from qsl2.algebra import (AlgebraParams, AlgElement, basis_monomials,
                          generator, uq_params)
from qsl2.cyclotomic import CycNum
from qsl2.hopf import rho
from qsl2.linalg import Mat
from qsl2.modules import (SteinbergError, character, element_matrix,
                          extend_by_trivial_top, monomial_matrix,
                          primitive_vectors, pullback_via_pi,
                          rep_relation_check, simple, steinberg_intertwiner,
                          tensor_rep, uq_simple, verma)
from qsl2.qcomb import q_binom, q_factorial, q_int, to_digits


def all_zero(report):
    return all(e["zero"] for e in report)


def test_simple_support_is_read_off_the_verma_matrices(monkeypatch):
    # Weight 8 = (2, 2) at (3, 1) with E[0] acting by zero: only v_3 and v_6
    # reach v_0, along E[1].  The support follows the matrices, not the
    # Verma formulas, which would keep all nine labels.
    original = modules.verma

    def e0_zero(params, z):
        rep = original(params, z)
        action = dict(rep.action)
        action[("E", 0)] = Mat.zero(rep.dim, rep.dim, params.field)
        return modules.ModuleRep(params, rep.dim, action, rep.basis_labels)

    monkeypatch.setattr(modules, "verma", e0_zero)
    rep = simple(AlgebraParams(3, 1), 8)
    assert rep.dim == 3
    assert rep.basis_labels == (0, 3, 6)


def test_verma_actions_examples():
    p = AlgebraParams(3, 1)
    rep = verma(p, 5)  # digits z = (2, 1)
    field = p.field
    # F[0] v_0 = [1] v_1 = v_1
    assert rep.mat("F", 0).get(1, 0) == field.one()
    # E[0] v_1 = [z_0 + 1 - 1] v_0 = [2] v_0
    assert rep.mat("E", 0).get(0, 1) == q_int(field, 2)
    # E[i] v_0 = 0 for all i
    for i in range(2):
        assert all(c != 0 for (r, c) in rep.mat("E", i).entries)


def test_verma_satisfies_relations():
    for (ell, level) in ((3, 1), (5, 1)):
        p = AlgebraParams(ell, level)
        rng = random.Random(ell)
        for z in [0, p.bound - 1] + [rng.randrange(p.bound) for _ in range(3)]:
            assert all_zero(rep_relation_check(verma(p, z)))


def test_verma_matches_uq_action_formulas():
    # level-0 universal module against the displayed divided-power actions
    for ell in (3, 5):
        p = uq_params(ell)
        field = p.field
        for z in range(ell):
            rep = verma(p, z)
            for m in range(ell):
                fmat = monomial_matrix(rep, (m, 0, 0))
                emat = monomial_matrix(rep, (0, 0, m))
                for n in range(ell):
                    for r in range(ell):
                        expect_f = q_binom(field, m + n, m) \
                            if r == m + n else field.zero()
                        assert fmat.get(r, n) == expect_f
                        expect_e = q_binom(field, z + m - n, m) \
                            if r == n - m and n - m >= 0 else field.zero()
                        assert emat.get(r, n) == expect_e


def test_uq_simple_dimensions():
    for ell in (3, 5):
        for z in range(ell):
            assert uq_simple(ell, z).dim == z + 1
    assert uq_simple(3, 0).dim == 1
    assert uq_simple(3, 2).dim == 3


def test_simple_examples():
    p = AlgebraParams(3, 1)
    triv = simple(p, 0)
    assert triv.dim == 1
    assert triv.mat("E", 0).is_zero_matrix()
    assert triv.mat("K", 1).get(0, 0) == p.field.one()
    assert simple(p, 5).dim == 6
    assert simple(p, 8).dim == 9


def test_simple_dimension_product_formula():
    for (ell, level) in ((3, 1), (5, 1)):
        p = AlgebraParams(ell, level)
        for weight in range(p.bound):
            digs = to_digits(weight, ell, level + 1)
            expected = 1
            for d in digs:
                expected *= d + 1
            assert simple(p, weight).dim == expected


def test_character_of_verma_is_multiplicity_free():
    # justifies the coordinate-submodule argument: all weight spaces are lines
    p = AlgebraParams(3, 1)
    for z in (0, 4, 8):
        table = character(verma(p, z))
        assert len(table) == 9
        assert set(table.values()) == {1}


def test_character_totals():
    p = AlgebraParams(3, 1)
    assert character(simple(p, 0)) == {(0, 0): 1}
    for weight in (3, 5, 7):
        rep = simple(p, weight)
        assert sum(character(rep).values()) == rep.dim


def test_primitive_vectors():
    p = AlgebraParams(3, 1)
    rep = verma(p, 5)
    prims = primitive_vectors(rep)
    weights = [w for _, w in prims]
    assert (2, 1) in weights  # v_0 of weight digits (2, 1)
    assert any(vec == {0: p.field.one()} for vec, _ in prims)
    for weight in range(9):
        assert len(primitive_vectors(simple(p, weight))) == 1
    # all digits maximal: only v_0 is primitive in the universal module
    assert len(primitive_vectors(verma(p, 8))) == 1


def test_restriction_of_small_weight_simples():
    # weight < ell^N: the top generators act trivially
    p = AlgebraParams(3, 1)
    for weight in range(3):
        rep = simple(p, weight)
        assert rep.mat("E", 1).is_zero_matrix()
        assert rep.mat("F", 1).is_zero_matrix()
        from qsl2.linalg import Mat
        assert rep.mat("K", 1) == Mat.identity(rep.dim, p.field)


def test_simples_pairwise_distinct_highest_weights():
    p = AlgebraParams(3, 1)
    tops = set()
    for weight in range(9):
        rep = simple(p, weight)
        (vec, w), = primitive_vectors(rep)
        tops.add(w)
    assert len(tops) == 9


def test_pullback():
    p = AlgebraParams(3, 1)
    u = uq_simple(3, 2)
    rep = pullback_via_pi(u, p)
    assert all_zero(rep_relation_check(rep))
    assert rep.mat("E", 0).is_zero_matrix()
    # pullback of L(p_N) has the same character as simple(p_N * ell^N)
    target = simple(p, 2 * 3)
    assert rep.dim == target.dim
    assert character(rep) == character(target)
    triv = pullback_via_pi(uq_simple(3, 0), p)
    assert character(triv) == character(simple(p, 0))


def test_tensor_action_formulas():
    p = AlgebraParams(3, 1)
    u = uq_simple(3, 1)
    w = verma(p, 4)
    t = tensor_rep(u, w)
    assert all_zero(rep_relation_check(t))
    field = p.field
    # E[1](v (x) w) = Ev (x) w + Kv (x) E[1]w on a chosen coordinate
    ue, uk = u.mat("E", 0), u.mat("K", 0)
    we1 = w.mat("E", 1)
    vec = {1 * w.dim + 4: field.one()}  # v_1 (x) w_4
    image = t.mat("E", 1).matvec(vec)
    expected = {}
    for (r, c), val in ue.entries.items():
        if c == 1:
            expected[r * w.dim + 4] = expected.get(r * w.dim + 4, field.zero()) + val
    kv = uk.get(1, 1)
    for (r, c), val in we1.entries.items():
        if c == 4:
            key = 1 * w.dim + r
            expected[key] = expected.get(key, field.zero()) + kv * val
    expected = {k: v for k, v in expected.items() if not v.is_zero()}
    assert image == expected
    # low generators act on the right factor alone
    vec = {0 * w.dim + 1: field.one()}
    image = t.mat("E", 0).matvec(vec)
    expected = {0 * w.dim + r: val for (r, c), val in w.mat("E", 0).entries.items()
                if c == 1}
    assert image == expected


def test_tensor_with_trivial_left_factor():
    p = AlgebraParams(3, 1)
    w = simple(p, 4)
    t = tensor_rep(uq_simple(3, 0), w)
    assert t.dim == w.dim
    for gid in w.generator_ids():
        assert t.mat(*gid).entries == w.mat(*gid).entries


@pytest.mark.parametrize("ell,level", [(3, 1), (5, 1)])
def test_steinberg_all_weights(ell, level):
    p = AlgebraParams(ell, level)
    for weight in range(p.bound):
        result = steinberg_intertwiner(p, weight)
        assert result.dim == simple(p, weight).dim


def test_steinberg_level_two():
    p = AlgebraParams(3, 2)
    for weight in (0, 5, 13, 26):
        result = steinberg_intertwiner(p, weight)
        assert result.dim == simple(p, weight).dim


def test_steinberg_needs_positive_level():
    with pytest.raises(ValueError):
        steinberg_intertwiner(uq_params(3), 1)


def test_extension_satisfies_relations():
    p0 = uq_params(3)
    rep = extend_by_trivial_top(simple(p0, 2))
    assert rep.params.level == 1
    assert all_zero(rep_relation_check(rep))


def test_element_matrix_is_multiplicative():
    p = AlgebraParams(3, 1)
    rep = verma(p, 6)
    rng = random.Random(2)
    for _ in range(60):
        a = (rng.randrange(9), rng.randrange(9), rng.randrange(9))
        b = (rng.randrange(9), rng.randrange(9), rng.randrange(9))
        ea = AlgElement(p, {a: p.field.one()})
        eb = AlgElement(p, {b: p.field.one()})
        assert element_matrix(rep, ea * eb) == \
            monomial_matrix(rep, a) @ monomial_matrix(rep, b)


def test_monomial_matrix_multiplies_only_nonzero_digit_factors(monkeypatch):
    p = AlgebraParams(3, 1)
    field = p.field
    rep = verma(p, 5)

    def reference(mono):
        out = Mat.identity(rep.dim, field)
        for kind, value in zip("FKE", mono):
            for i, d in enumerate(to_digits(value, 3, 2)):
                factor = rep.mat(kind, i).pow(d)
                if kind != "K":
                    factor = factor.scaled(q_factorial(field, d).inverse())
                out = out @ factor
        return out

    monos = list(basis_monomials(p))
    expected = [reference(mono) for mono in monos]
    identity = Mat.identity(rep.dim, field)
    matmul, power, inverse = Mat.__matmul__, Mat.pow, CycNum.inverse
    identity_operands, powers, inverses = [], [], []

    def counted_matmul(a, b):
        if a == identity or b == identity:
            identity_operands.append((a, b))
        return matmul(a, b)

    def counted_pow(a, k):
        powers.append(k)
        return power(a, k)

    def counted_inverse(x):
        inverses.append(x)
        return inverse(x)

    qcomb.inverse_q_factorial.cache_clear()
    monkeypatch.setattr(Mat, "__matmul__", counted_matmul)
    monkeypatch.setattr(Mat, "pow", counted_pow)
    monkeypatch.setattr(CycNum, "inverse", counted_inverse)
    got = [monomial_matrix(rep, mono) for mono in monos]
    monkeypatch.undo()
    assert got == expected
    assert not identity_operands
    # Each digit factor (kind, level, digit) is built once for the rep:
    # 3 kinds x 2 levels x digits 1-2 over all 729 basis monomials.
    assert len(powers) <= 12
    assert len(inverses) <= p.ell - 1

    # K^n alone is the product of the K[i] powers, also on a simple module.
    rep = simple(p, 7)
    for n in range(9):
        expected = rep.mat("K", 0).pow(n % 3) @ rep.mat("K", 1).pow(n // 3)
        assert monomial_matrix(rep, (0, n, 0)) == expected


def test_generator_matrices_are_read_only():
    rep = verma(AlgebraParams(3, 1), 5)
    with pytest.raises(TypeError):
        rep.action[("E", 0)] = Mat.zero(rep.dim, rep.dim, rep.params.field)


def test_memoized_factors_leave_derived_reps_unchanged():
    # Reps built from a rep whose digit factors are memoized, or built after
    # memoizing on a simple module, have the generator matrices of reps
    # built from scratch, and start with no memoized factors.
    p = AlgebraParams(3, 1)
    monos = list(basis_monomials(p))
    rep = verma(p, 5)
    small = simple(p, 7)
    for mono in monos:
        monomial_matrix(rep, mono)
        monomial_matrix(small, mono)
    assert rep._monomials and small._monomials
    extended = extend_by_trivial_top(rep)
    assert extended.action == extend_by_trivial_top(verma(p, 5)).action
    assert not extended._factors and not extended._monomials
    again = simple(p, 7)
    assert not again._factors and not again._monomials
    assert again.action == small.action
    assert extend_by_trivial_top(small).action == \
        extend_by_trivial_top(simple(p, 7)).action
    assert rep == verma(p, 5)


def test_tensor_rep_sums_each_coaction_into_one_matrix():
    # Each generator's matrix is the fold of c u(u1) (x) d(d1) over the
    # terms of rho(g), with no zero entry kept, and the factors' monomial
    # matrices are left unchanged.
    p = AlgebraParams(3, 1)
    u, w = uq_simple(3, 2), verma(p, 7)
    coactions = {gid: rho(generator(p, *gid)).terms for gid in w.generator_ids()}
    assert any(len(terms) > 1 for terms in coactions.values())
    factors = {(side, mono): monomial_matrix(rep, mono) for terms in coactions.values()
               for pair in terms for side, rep, mono in zip("uw", (u, w), pair)}
    before = {key: dict(mat.entries) for key, mat in factors.items()}
    t = tensor_rep(u, w)
    for gid, terms in coactions.items():
        fold = Mat.zero(t.dim, t.dim, p.field)
        for (u1, d1), c in terms.items():
            fold = fold + factors["u", u1].kron(factors["w", d1]).scaled(c)
        assert t.mat(*gid) == fold and all(t.mat(*gid).entries.values())
    assert all(factors[key].entries == entries for key, entries in before.items())


def test_element_matrix_sums_its_terms_into_a_new_matrix():
    # E F - F E at level 0 is (K - K^-1)/(q - q^-1) in normal form: two
    # diagonal terms that cancel where K acts by 1.  E F adds the term F E,
    # which cancels them where F E acts by 0.
    p = AlgebraParams(3, 1)
    rep = verma(p, 5)
    e, f = generator(p, "E", 0), generator(p, "F", 0)
    for elem in (e * f - f * e, e * f):
        mats = {mono: monomial_matrix(rep, mono) for mono in elem.terms}
        before = {mono: dict(mat.entries) for mono, mat in mats.items()}
        fold = Mat.zero(rep.dim, rep.dim, p.field)
        for mono, coeff in elem.terms.items():
            fold = fold + mats[mono].scaled(coeff)
        got = element_matrix(rep, elem)
        assert len(elem.terms) > 1 and got == fold
        assert all(got.entries.values())
        assert len(got.entries) < len(set().union(*(m.entries for m in mats.values())))
        assert element_matrix(rep, elem) is not got
        for mono, mat in mats.items():
            assert monomial_matrix(rep, mono) is mat
            assert mat.entries == before[mono]


def test_element_matrix_refuses_element_of_another_algebra():
    rep = verma(uq_params(3), 1)
    with pytest.raises(ValueError, match="level=1"):
        element_matrix(rep, generator(AlgebraParams(3, 1), "E", 0))
    with pytest.raises(ValueError, match="root_exponent=2"):
        element_matrix(uq_simple(5, 2), generator(uq_params(5, 2), "K", 0))


def test_module_matrices_refuse_bad_index_or_kind():
    rep = verma(AlgebraParams(3, 1), 5)
    for mono in ((9, 0, 0), (0, 9, 0), (0, 0, 12)):
        with pytest.raises(ValueError, match=r"\[0, 9\)"):
            monomial_matrix(rep, mono)
