import random
from fractions import Fraction

import pytest

from qsl2.cyclotomic import CycField, CycNum
from qsl2.linalg import Mat, _echelon, nullspace_of_columns, rank_mod_p


def test_identity_and_product():
    field = CycField(3)
    ident = Mat.identity(3, field)
    a = Mat.zero(3, 3, field)
    a.set(0, 1, field.lam())
    a.set(2, 0, field.one())
    assert ident @ a == a
    assert a @ ident == a


def test_kron_shape():
    field = CycField(3)
    a = Mat.identity(2, field)
    b = Mat.zero(3, 3, field)
    b.set(1, 2, field.lam())
    k = a.kron(b)
    assert (k.nrows, k.ncols) == (6, 6)
    assert k.get(1, 2) == field.lam()
    assert k.get(4, 5) == field.lam()


def test_scaled_accepts_int_and_fraction_factors():
    field = CycField(3)
    m = Mat.identity(2, field)
    m.set(0, 1, field.lam())
    assert m.scaled(2) == m + m
    half = m.scaled(Fraction(1, 2))
    assert half == m.scaled(field.rational(Fraction(1, 2)))
    assert half + half == m
    assert m.scaled(0) == Mat.zero(2, 2, field)


def test_add_and_sub_refuse_different_shapes():
    field = CycField(3)
    small, big = Mat.zero(2, 2, field), Mat.identity(3, field)
    with pytest.raises(ValueError, match="shapes"):
        small + big
    with pytest.raises(ValueError, match="shapes"):
        big - small
    with pytest.raises(ValueError, match="shapes"):
        Mat.zero(2, 3, field) + Mat.zero(3, 2, field)


def test_nullspace_known_system():
    field = CycField(3)
    one = field.one()
    # columns c0 = (1, 0), c1 = (1, 0), c2 = (0, 1): kernel = span{c0 - c1}
    cols = [{0: one}, {0: one}, {1: one}]
    null = nullspace_of_columns(cols, field)
    assert len(null) == 1
    vec = null[0]
    total0 = field.zero()
    for idx, v in vec.items():
        total0 = total0 + v * cols[idx].get(0, field.zero())
    assert total0.is_zero()
    assert len(_echelon(cols)) == 2


def test_nullspace_random_verified():
    field = CycField(5)
    rng = random.Random(0)
    cols = []
    for _ in range(12):
        col = {}
        for r in range(8):
            if rng.random() < 0.4:
                col[r] = field.lambda_pow(rng.randrange(5)) * rng.randint(1, 3)
        cols.append(col)
    null = nullspace_of_columns(cols, field)
    assert len(_echelon(cols)) + len(null) == 12
    for vec in null:
        acc = {}
        for idx, v in vec.items():
            for r, val in cols[idx].items():
                acc[r] = acc.get(r, field.zero()) + v * val
        assert all(x.is_zero() for x in acc.values())


def test_rank_mod_p():
    rows = [{0: 1, 1: 1}, {0: 2, 1: 2}, {1: 1}]
    assert rank_mod_p(rows, 3) == 2
    assert rank_mod_p([{0: 3}], 3) == 0


def test_nullspace_of_pivots_without_tails_takes_no_inverse(monkeypatch):
    field = CycField(5)
    # A diagonal system with entries 2, 3 and 5, and a zero (so dependent)
    # fourth column: every pivot row is its leading entry alone.
    cols = [{0: field.rational(2)}, {1: field.rational(3)},
            {2: field.rational(5)}, {}]
    inverse, calls = CycNum.inverse, []

    def counted(x):
        calls.append(x)
        return inverse(x)

    monkeypatch.setattr(CycNum, "inverse", counted)
    assert nullspace_of_columns(cols, field) == [{3: field.one()}]
    assert calls == []
    # With the fourth column c0 + c1 + c2, each pivot row has a tail.
    cols[3] = {0: field.rational(2), 1: field.rational(3), 2: field.rational(5)}
    minus_one = field.rational(-1)
    assert nullspace_of_columns(cols, field) == [
        {3: field.one(), 2: minus_one, 1: minus_one, 0: minus_one}]
    assert len(calls) == 3


def _dense_rank_mod_p(rows, p, ncols):
    matrix = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = pow(matrix[rank][col], -1, p)
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                f = matrix[r][col] * inv
                matrix[r] = [(x - f * y) % p for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("p", [2, 3, 7])
def test_rank_mod_p_matches_dense_elimination(p):
    rng = random.Random(p)
    for trial in range(40):
        ncols = rng.randint(1, 8)
        rows = [{c: rng.randint(-9, 9) for c in range(ncols) if rng.random() < 0.5}
                for _ in range(rng.randint(0, 10))]
        rank = _dense_rank_mod_p(rows, p, ncols)
        assert rank_mod_p(rows, p) == rank
        # Any sortable keys: the same rows with tuple keys in the same order.
        tupled = [{divmod(c, 3): v for c, v in row.items()} for row in rows]
        assert rank_mod_p(iter(tupled), p) == rank
