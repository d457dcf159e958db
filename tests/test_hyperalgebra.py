import inspect
import itertools
import math
import random
import textwrap

import pytest

from qsl2 import hyperalgebra
from qsl2.hyperalgebra import (HypParams, TruncatedSeries2, _engine,
                               _HypEngine, erratum_report, erratum_text,
                               format_hyp, frobenius_pi, hx_normal_order,
                               hyp_add, hyp_basis, hyp_monomial,
                               hyp_multiply, hyp_scale, kernel_dimensions,
                               multiplicative_group_product, pi_of_product,
                               printed_xy_closed_form, xy_normal_order)
from qsl2.linalg import _acc_mod, rank_mod_p


def test_series_pow_squares_only_below_the_top_bit(monkeypatch):
    # (1+t)^k: one product per set bit of k but the first, one square per
    # lower bit.
    calls = 0
    original = TruncatedSeries2.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return original(self, other)

    monkeypatch.setattr(TruncatedSeries2, "__mul__", counting)
    base = TruncatedSeries2(5, 9, 0, {(0, 0): 1, (1, 0): 1})
    for k in range(1, 10):
        calls = 0
        result = base.pow(k)
        assert calls == bin(k).count("1") + k.bit_length() - 2, k
        assert result.coeffs == {(i, 0): math.comb(k, i) % 5
                                 for i in range(k + 1) if math.comb(k, i) % 5}


def _inv_one_plus_tu(p, order_t, order_u):
    """1/(1+tu) = sum (-1)^k (tu)^k, truncated."""
    out = {}
    for k in range(min(order_t, order_u) + 1):
        v = (-1) ** k % p
        if v:
            out[(k, k)] = v
    return TruncatedSeries2(p, order_t, order_u, out)


def _ref_xy_table(p, n, m):
    """X^(n) Y^(m) as the engine derived it before the one-variable reads:
    the coefficient of t^n u^m in Y(u/(1+tu)) H(tu) X(t/(1+tu)), from the
    bivariate powers (u/(1+tu))^a (t/(1+tu))^c.  Kept as the oracle for
    `_HypEngine.xy_table`."""
    inv = _inv_one_plus_tu(p, n, m)
    su = TruncatedSeries2(p, n, m, {(0, 1): 1}) * inv   # u/(1+tu)
    st = TruncatedSeries2(p, n, m, {(1, 0): 1}) * inv   # t/(1+tu)
    su_pows = [TruncatedSeries2.one(p, n, m)]
    for _ in range(m):
        su_pows.append(su_pows[-1] * su)
    st_pows = [TruncatedSeries2.one(p, n, m)]
    for _ in range(n):
        st_pows.append(st_pows[-1] * st)
    out = {}
    for a in range(m + 1):
        for c in range(n + 1):
            prod = su_pows[a] * st_pows[c]
            for b in range(min(n, m) + 1):
                v = prod.coeffs.get((n - b, m - b), 0)
                if v:
                    out[(a, b, c)] = v
    return out


def _ref_hh_table(p, m, n):
    """H^(m) H^(n) = sum_k [t^m u^n] (t+u+tu)^k H^(k), the bivariate powers
    expanded in full.  Kept as the oracle for `_HypEngine.hh_table`."""
    w = TruncatedSeries2(p, m, n, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    out = {}
    wk = TruncatedSeries2.one(p, m, n)
    for k in range(m + n + 1):
        if k:
            wk = wk * w
        v = wk.coeffs.get((m, n), 0)
        if v:
            out[k] = v
    return out


def _ref_xx_merge(p, m, n):
    """[t^m u^n] (t+u)^(m+n), the scalar of X^(m) X^(n) = c X^(m+n).  Kept as
    the oracle for `_HypEngine.xx_merge`."""
    w = TruncatedSeries2(p, m, n, {(1, 0): 1, (0, 1): 1})
    return w.pow(m + n).coeffs.get((m, n), 0)


def _table_mismatches(eng, keys):
    """The (table, i, j) on which an oracle table differs from its
    bivariate reference."""
    checks = (("xy", eng.xy_table, _ref_xy_table),
              ("hh", eng.hh_table, _ref_hh_table),
              ("xx", eng.xx_merge, _ref_xx_merge))
    return [(name, i, j) for i, j in keys for name, table, ref in checks
            if table(i, j) != ref(eng.p, i, j)]


@pytest.mark.parametrize("p,level,samples", [
    (2, 3, None), (3, 2, None), (5, 1, None), (7, 1, None), (5, 2, 100)])
def test_oracle_tables_match_bivariate_references(p, level, samples):
    # Every key, or a seeded sample of them at (5, 2), on a fresh engine.
    eng = _HypEngine(HypParams(p, level))
    keys = list(itertools.product(range(eng.bound), repeat=2))
    if samples:
        keys = random.Random(3).sample(keys, samples)
    assert _table_mismatches(eng, keys) == []


def test_table_comparison_catches_a_flipped_exponent(monkeypatch):
    # X^(n) Y^(m) read off (1+s)^(a+c) in place of (1+s)^-(a+c): the only
    # negative exponents the tables read are the XY ones.
    eng = _HypEngine(HypParams(3, 2))
    coeff = eng.coeff
    monkeypatch.setattr(eng, "coeff", lambda e, j: coeff(abs(e), j))
    mismatches = _table_mismatches(eng, itertools.product(range(9), repeat=2))
    assert mismatches and {name for name, _, _ in mismatches} == {"xy"}


def _ref_mono_mul(eng, left, right):
    """The monomial product as it was before the left and right tables: the
    move and merge loops walked again on every call.  Kept as the oracle for
    `_HypEngine.mono_mul`."""
    a, b, c = left
    a2, b2, c2 = right
    p = eng.p
    bound = eng.bound
    out = {}
    for (x, y, z), v in eng.xy_table(c, a2).items():
        y_merge = eng.xx_merge(a, x)
        if not y_merge:
            continue
        x_merge = eng.xx_merge(z, c2)
        if not x_merge:
            continue
        assert a + x < bound and z + c2 < bound
        base = v * y_merge * x_merge % p
        # H^(b) slides right past Y^(x) and meets H^(y): sum_k h_k H^(k).
        h_mid = {}
        for j, cj in eng.move_table(b, -2 * x).items():
            for k, ck in eng.hh_table(j, y).items():
                _acc_mod(h_mid, k, cj * ck, p)
        # X^(z) slides left past H^(b2), and H^(i) joins on the right.
        for i, ci in eng.move_table(b2, -2 * z).items():
            for k, ck in h_mid.items():
                for k2, ck2 in eng.hh_table(k, i).items():
                    assert k2 < bound
                    _acc_mod(out, (a + x, k2, z + c2), base * ci * ck * ck2, p)
    return out


def _assert_mono_mul_matches_reference(eng, left, right):
    # Each step keeps exactly the reference terms whose indices it divides:
    # all of them at step 1, the terms pi keeps at step p^k.
    reference = _ref_mono_mul(eng, left, right)
    for step in {1, eng.p, eng.bound // eng.p}:
        assert eng.mono_mul(left, right, step) == {
            mono: v for mono, v in reference.items()
            if not any(i % step for i in mono)}, step
    assert eng.mono_mul(left, right) == reference


@pytest.mark.parametrize("p,level", [(2, 1), (2, 2), (3, 1), (5, 1)])
def test_mono_mul_matches_reference_exhaustive(p, level):
    eng = _engine(HypParams(p, level))
    monos = list(hyp_basis(eng.params))
    for left in monos:
        for right in monos:
            _assert_mono_mul_matches_reference(eng, left, right)


# At (5, 2) each pair's products, built for three steps and by the
# reference, cost more than at (3, 2) or (2, 3): it samples fewer pairs.
@pytest.mark.parametrize("p,level,samples", [
    pytest.param(3, 2, 5000, id="3-2"), pytest.param(2, 3, 5000, id="2-3"),
    pytest.param(5, 2, 1000, id="5-2")])
def test_mono_mul_matches_reference_sampled(p, level, samples):
    eng = _engine(HypParams(p, level))
    rng = random.Random(11)
    bound = eng.bound
    for _ in range(samples):
        left, right = ((rng.randrange(bound), rng.randrange(bound),
                        rng.randrange(bound)) for _ in range(2))
        _assert_mono_mul_matches_reference(eng, left, right)


@pytest.mark.parametrize("p,level", [(2, 3), (3, 2), (5, 2), (7, 1)])
def test_merge_vanishes_where_step_divides_the_sum_but_not_a(p, level):
    # Kummer's theorem, read off the engine's own series: if p^j divides
    # a + x but not a, the lowest nonzero base-p digit of a carries, so
    # binom(a+x, a) = [s^a] (1+s)^(a+x) is 0 mod p.  mono_mul's early exit
    # rests on this (xx_merge is symmetric, so it covers c2 too).
    eng = _HypEngine(HypParams(p, level))
    bound = eng.bound
    cases = 0
    for j in range(1, level + 1):
        step = p ** j
        for a, x in itertools.product(range(bound), repeat=2):
            if (a + x) % step == 0 and a % step:
                assert eng.xx_merge(a, x) == 0, (step, a, x)
                assert eng.xx_merge(x, a) == 0, (step, x, a)
                cases += 1
    assert cases >= bound - 1


def test_reference_catches_a_wrong_early_exit():
    # mono_mul returns {} unless step divides a, c2 and c - a2.  A mutant
    # that drops one of the three tests keeps terms step does not divide; one
    # that tests more (a against step * p, or c read in place of c2) drops
    # terms step divides.  Each fails the reference on seeded pairs at (3, 2).
    # The same source, compiled unchanged, is the control.  The pairs have no
    # H part: uniform pairs at step 3 are nearly all {}, and 300 of them catch
    # only two of the five mutants.
    source = textwrap.dedent(inspect.getsource(_HypEngine.mono_mul))
    exit_test = "if a % step or c2 % step or (c - a2) % step:"
    assert source.count(exit_test) == 1
    rng = random.Random(5)
    pairs = [tuple((rng.randrange(9), 0, rng.randrange(9)) for _ in range(2))
             for _ in range(1000)]

    def failures(source):
        namespace = {}
        exec(source, vars(hyperalgebra), namespace)
        eng = type("Engine", (_HypEngine,), namespace)(HypParams(3, 2))
        count = 0
        for left, right in pairs:
            try:
                _assert_mono_mul_matches_reference(eng, left, right)
            except AssertionError:
                count += 1
        return count

    assert failures(source) == 0
    for mutant in ("if c2 % step or (c - a2) % step:",
                   "if a % step or (c - a2) % step:",
                   "if a % step or c2 % step:",
                   "if a % (step * self.p) or c2 % step or (c - a2) % step:",
                   "if a % step or c % step or (c - a2) % step:"):
        assert failures(source.replace(exit_test, mutant)) > 0, mutant


def test_mono_mul_refuses_a_step_that_is_not_a_power_of_p():
    # The early exit holds only for step = p^j: at p = 3, X(1) X(1) = 2 X(2)
    # has a term that 2 divides, yet 2 does not divide c2 = 1.
    eng = _engine(HypParams(3, 2))
    x1 = (0, 0, 1)
    for step in (0, -3, 2, 6, 27):
        with pytest.raises(ValueError):
            eng.mono_mul(x1, x1, step)
    assert eng.mono_mul(x1, x1, 1) == {(0, 0, 2): 2}
    assert eng.mono_mul(x1, x1, 3) == eng.mono_mul(x1, x1, 9) == {}
    assert eng.mono_mul((0, 0, 0), (0, 0, 0), 9) == {(0, 0, 0): 1}


def test_product_tables_stay_within_bound_cubed():
    # Per step, the left table has at most bound^3 keys (b, c, a2, step), and
    # a step-3 key holds exactly the step-1 groups whose x 3 divides.  The
    # right table has at most bound^3 keys.  A fresh engine: other tests'
    # keys do not count.
    eng = _HypEngine(HypParams(3, 2))
    bound = eng.bound
    for b, c, a2, b2 in itertools.product(range(bound), repeat=4):
        # With a = c2 = 0 both merges are 1, so step 1 reads every key that
        # any product at (3, 2) reads, and step 3 every key that any step-3
        # product reads: those with c = a2 (mod 3).
        eng.mono_mul((0, b, c), (a2, b2, 0))
        eng.mono_mul((0, b, c), (a2, b2, 0), 3)
    steps = {}
    for b, c, a2, step in eng._left:
        steps.setdefault(step, set()).add((b, c, a2))
    assert set(steps) == {1, 3}
    assert steps[1] == set(itertools.product(range(bound), repeat=3))
    assert steps[3] == {key for key in steps[1] if (key[1] - key[2]) % 3 == 0}
    assert len(eng._left) == bound ** 3 + bound ** 3 // 3
    for b, c, a2 in steps[3]:
        assert sorted(eng._left[(b, c, a2, 3)]) == sorted(
            group for group in eng._left[(b, c, a2, 1)] if group[0] % 3 == 0)
    assert 0 < len(eng._right) <= bound ** 3


def test_step_products_read_only_the_groups_step_divides():
    # 500 seeded step-5 products at (5, 2) build no full (step-1) left table,
    # read only keys with c = a2 (mod 5), and each key holds only the groups
    # whose x 5 divides.
    eng = _HypEngine(HypParams(5, 2))
    rng = random.Random(4)
    for _ in range(500):
        left, right = (tuple(rng.randrange(25) for _ in range(3)) for _ in range(2))
        eng.mono_mul(left, right, 5)
    assert eng._left
    assert all(step == 5 and (c - a2) % 5 == 0 for _, c, a2, step in eng._left)
    assert all(x % 5 == 0 for groups in eng._left.values() for x, _, _ in groups)
    # 5 fails to divide a, c2 or c - a2, one each: no term survives, and no
    # key is added.
    keys = set(eng._left)
    exits = [((1, 3, 1), (1, 2, 0)), ((0, 3, 1), (1, 2, 1)), ((0, 3, 1), (0, 2, 0))]
    assert not keys & {(3, 1, 1, 5), (3, 1, 0, 5)}
    for left, right in exits:
        assert eng.mono_mul(left, right, 5) == {}
    assert set(eng._left) == keys
    for left, right in exits:
        _assert_mono_mul_matches_reference(eng, left, right)


def test_pi_of_product_refuses_a_wrong_level():
    params = HypParams(3, 2)
    x1 = (0, 0, 1)
    assert pi_of_product(params, x1, x1, 1) == {}  # 2 X(2): pi keeps nothing
    assert pi_of_product(params, (0, 0, 3), x1, 1) == {}
    assert pi_of_product(params, (0, 0, 3), (0, 0, 3), 1) == {(0, 0, 2): 2}
    with pytest.raises(ValueError):
        pi_of_product(params, x1, x1, 0)  # a nonempty product at step 1
    with pytest.raises(ValueError):
        pi_of_product(params, x1, x1, 2)  # an empty product at step 9


def test_xy_bracket_is_h():
    for p in (2, 3, 5):
        params = HypParams(p, 1)
        table = dict(xy_normal_order(params, 1, 1))
        assert table.pop((1, 0, 1)) == 1      # Y X term
        assert table == {(0, 1, 0): 1}        # plus H


def test_xy_degenerate_sides():
    params = HypParams(3, 2)
    assert xy_normal_order(params, 4, 0) == {(0, 0, 4): 1}
    assert xy_normal_order(params, 0, 7) == {(7, 0, 0): 1}


def test_hx_examples():
    params = HypParams(5, 1)
    # X H = H X - 2 X = H X + 3 X, the product read by hyp_multiply; H X is
    # itself the basis monomial (0, 1, 1)
    x_h = hyp_multiply(params, {(0, 0, 1): 1}, {(0, 1, 0): 1})
    assert x_h == {(0, 1, 1): 1, (0, 0, 1): 3}
    assert hx_normal_order(params, 1, 1) == x_h
    assert hx_normal_order(params, 2, 0) == {(0, 2, 0): 1}
    # H Y = Y H - 2 Y: the Y version picks up the negative weight
    assert hyp_multiply(params, {(0, 1, 0): 1}, {(1, 0, 0): 1}) == {
        (1, 1, 0): 1, (1, 0, 0): 5 - 2}


def test_h_commutator_with_powers():
    # [H^(p^m), X^(p^n)] at p = 3, m, n <= 1.  The delta_mn 2 X^(p^n) claim
    # holds for m <= n; for m > n the oracle produces extra terms (recorded
    # in the erratum report), e.g. [H^(3), X] = X H + 2 X H^(2).
    params = HypParams(3, 2)

    def bracket(m, n):
        hm, xn = 3 ** m, 3 ** n
        lhs = hyp_multiply(params, hyp_monomial(params, 0, hm, 0),
                           hyp_monomial(params, 0, 0, xn))
        rhs = hyp_multiply(params, hyp_monomial(params, 0, 0, xn),
                           hyp_monomial(params, 0, hm, 0))
        comm = dict(lhs)
        for k, v in rhs.items():
            val = (comm.get(k, 0) - v) % 3
            if val:
                comm[k] = val
            else:
                comm.pop(k, None)
        return comm

    assert bracket(0, 0) == {(0, 0, 1): 2}
    assert bracket(1, 1) == {(0, 0, 3): 2}
    assert bracket(0, 1) == {}
    assert bracket(1, 0) == {(0, 0, 1): 1, (0, 2, 1): 2}


def test_merge_examples():
    params = HypParams(5, 1)
    h1 = hyp_monomial(params, 0, 1, 0)
    assert hyp_multiply(params, h1, h1) == {(0, 1, 0): 1, (0, 2, 0): 2}
    x1 = hyp_monomial(params, 0, 0, 1)
    assert hyp_multiply(params, x1, x1) == {(0, 0, 2): 2}


def test_divided_power_nilpotency():
    for p in (2, 3, 5):
        params = HypParams(p, 1)
        x = hyp_monomial(params, 0, 0, 1)
        acc = dict(x)
        for _ in range(p - 1):
            acc = hyp_multiply(params, acc, x)
        assert acc == {}  # X^(1)^p = p! X^(p) = 0


def test_hyp_associativity_sampled():
    params = HypParams(3, 2)
    rng = random.Random(0)
    for _ in range(400):
        a, b, c = ({(rng.randrange(9), rng.randrange(9), rng.randrange(9)): 1}
                   for _ in range(3))
        lhs = hyp_multiply(params, hyp_multiply(params, a, b), c)
        rhs = hyp_multiply(params, a, hyp_multiply(params, b, c))
        assert lhs == rhs


def test_hyp_multiply_single_term_path_matches_the_bilinear_sum():
    params = HypParams(3, 2)
    eng = _engine(params)
    basis = list(hyp_basis(params))
    rng = random.Random(5)
    assert hyp_multiply(params, {}, {(0, 0, 1): 1}) == {}
    assert hyp_multiply(params, {(0, 0, 1): 1}, {}) == {}
    for _ in range(300):
        m1, m2, n = rng.sample(basis, 3)
        c1, c2, d = (rng.choice((1, 2)) for _ in range(3))
        x1, x2, y = {m1: c1}, {m2: c2}, {n: d}
        # One term times one term: c*d times the monomial product.
        single = hyp_multiply(params, x1, y)
        assert single == hyp_scale(eng.mono_mul(m1, n), c1 * d, 3)
        # A two-term factor takes the bilinear sum; each of its terms alone
        # takes the single-term path.
        assert hyp_multiply(params, {m1: c1, m2: c2}, y) == \
            hyp_add(single, hyp_multiply(params, x2, y), 3)
        # The result is the caller's to change: the same call made again
        # is not affected.
        expected = dict(single)
        single.clear()
        single[(0, 0, 0)] = 1
        assert hyp_multiply(params, x1, y) == expected


def test_frobenius_pi_examples():
    params = HypParams(3, 2)
    assert frobenius_pi(params, hyp_monomial(params, 0, 0, 3), 1) == {(0, 0, 1): 1}
    assert frobenius_pi(params, hyp_monomial(params, 0, 0, 1), 1) == {}
    with pytest.raises(ValueError):
        frobenius_pi(HypParams(3, 1), {(0, 0, 1): 1}, 1)


def test_frobenius_pi_multiplicative_exhaustive_p2():
    params = HypParams(2, 2)
    low = HypParams(2, 1)
    monos = list(hyp_basis(params))
    for a in monos:
        for b in monos:
            x, y = hyp_monomial(params, *a), hyp_monomial(params, *b)
            lhs = frobenius_pi(params, hyp_multiply(params, x, y), 1)
            rhs = hyp_multiply(low, frobenius_pi(params, x, 1),
                               frobenius_pi(params, y, 1))
            assert lhs == rhs


def test_kernel_dimensions_p2():
    report = kernel_dimensions(HypParams(2, 2), 1)
    assert report["kernel_dim"] == 64 - 8 == report["kernel_dim_expected"]
    assert report["ideal_spans_kernel"]
    assert report["products_contained_in_kernel"]
    # every level-2 monomial times each of the 3k generators X(1), Y(1), H(1)
    assert report["products_checked"] == 2 ** 6 * 3


def _ref_kernel_dimensions(params, k):
    """The kernel check as it was before the generator rows: every level-(k+1)
    monomial times every non-unit level-k monomial, each product held to map
    to zero and all of them ranked.  Kept as the oracle for
    `kernel_dimensions`."""
    p, step = params.p, params.p ** k
    smalls = [mono for mono in hyp_basis(HypParams(p, k)) if any(mono)]
    products = [hyp_multiply(params, {big: 1}, {small: 1})
                for big in hyp_basis(params) for small in smalls]
    kernel_dim = sum(1 for mono in hyp_basis(params) if any(i % step for i in mono))
    span_rank = rank_mod_p(products, p)
    return {
        "kernel_dim": kernel_dim,
        "kernel_matches": kernel_dim == p ** (3 * (k + 1)) - p ** (3 * k),
        "ideal_span_rank": span_rank,
        "ideal_spans_kernel": span_rank == kernel_dim,
        "products_contained_in_kernel":
            not any(frobenius_pi(params, x, k) for x in products),
    }


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2)])
def test_kernel_dimensions_match_all_pairs_reference(p, k):
    params = HypParams(p, k + 1)
    reference = _ref_kernel_dimensions(params, k)
    report = kernel_dimensions(params, k)
    assert {key: report[key] for key in reference} == reference


def test_kernel_dimensions_fail_when_a_lemma_row_has_a_unit_term(monkeypatch):
    # Each level-1 row r becomes r + r[X(1)] * 1: an injective map on A_1^+,
    # so the lemma rank stays 26 of 26, but the rows leave A_1^+.
    multiply = hyperalgebra.hyp_multiply
    ranks = []

    def with_unit(params, x, y):
        prod = multiply(params, x, y)
        if params.level == 1 and (0, 0, 1) in prod:
            prod[(0, 0, 0)] = prod[(0, 0, 1)]
        return prod

    def recording(rows, p):
        ranks.append(rank_mod_p(rows, p))
        return ranks[-1]

    monkeypatch.setattr(hyperalgebra, "hyp_multiply", with_unit)
    monkeypatch.setattr(hyperalgebra, "rank_mod_p", recording)
    report = kernel_dimensions(HypParams(3, 2), 1)
    assert ranks == [26, 702]
    assert report["ideal_spans_kernel"] and report["kernel_matches"]
    assert not report["products_contained_in_kernel"]


def test_normal_orders_equal_the_products_they_name():
    # Each helper is the product of two basis monomials, and that product is
    # the series expansion its docstring states.
    for p, level in ((3, 2), (2, 3)):
        params = HypParams(p, level)
        eng = _engine(params)
        for i in range(params.bound):
            for j in range(params.bound):
                xy = hyp_multiply(params, {(0, 0, i): 1}, {(j, 0, 0): 1})
                assert xy_normal_order(params, i, j) == xy == eng.xy_table(i, j)
                hy = hyp_multiply(params, {(0, i, 0): 1}, {(j, 0, 0): 1})
                assert hy == {
                    (j, k, 0): v for k, v in eng.move_table(i, -2 * j).items()}
                hx = hyp_multiply(params, {(0, 0, j): 1}, {(0, i, 0): 1})
                assert hx_normal_order(params, i, j) == hx == {
                    (0, k, j): v for k, v in eng.move_table(i, -2 * j).items()}


def test_normal_orders_refuse_indices_outside_bound():
    params = HypParams(3, 1)
    for order in (hx_normal_order, xy_normal_order):
        for args in ((5, 4), (3, 0), (0, 3), (-1, 0)):
            with pytest.raises(ValueError):
                order(params, *args)
        order(params, 2, 2)


def test_gm_oracle_matches_digit_corrected_formula():
    # pi_1 pi_1 = pi_1 + 2 pi_2 by the duality oracle
    assert multiplicative_group_product(5, 1, 1, 8) == {1: 1, 2: 2}
    for p in (3, 5):
        for a in range(5):
            for b in range(5):
                oracle = multiplicative_group_product(p, a, b, 10)
                expected = {}
                for i in range(min(a, b) + 1):
                    coeff = (math.factorial(a + b - i)
                             // (math.factorial(a - i) * math.factorial(b - i)
                                 * math.factorial(i))) % p
                    if coeff:
                        idx = a + b - i
                        expected[idx] = (expected.get(idx, 0) + coeff) % p
                expected = {k: v for k, v in expected.items() if v}
                assert oracle == expected


def test_erratum_report_contents():
    report = erratum_report(3)
    assert not report["xy_closed_form"]["agrees"]
    assert not report["xy_bracket_case"]["agrees"]
    assert not report["gm_product"]["as_printed_agrees"]
    assert report["gm_product"]["digit_corrected_agrees"]
    text = erratum_text(report)
    assert "disagree" in text
    # the printed closed form differs from the oracle exactly by a constant
    oracle = xy_normal_order(HypParams(3, 1), 1, 1)
    printed = printed_xy_closed_form(3, 1, 1)
    diff = dict(printed)
    for k, v in oracle.items():
        val = (diff.get(k, 0) - v) % 3
        if val:
            diff[k] = val
        else:
            diff.pop(k, None)
    assert diff == {(0, 0, 0): 2}  # the spurious -1 (= 2 mod 3)


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        HypParams(6, 1)


def test_format_hyp():
    assert format_hyp({}) == "0"
    assert format_hyp({(1, 0, 1): 1, (0, 1, 0): 2}) == "2*H(1) + Y(1)*X(1)"
