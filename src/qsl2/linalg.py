"""Sparse exact linear algebra over a cyclotomic field.

Matrices are small (dimensions up to a few hundred) and exact, so the
implementation favours clarity: a matrix is a dict from (row, col) to
nonzero field elements, and elimination runs over dicts keyed by arbitrary
hashable row labels.  No pivot-size heuristics are needed because every
computation here is exact; rows are processed in sorted order so results
are deterministic.
"""

from __future__ import annotations

from .cyclotomic import CycField, CycNum, _acc


class Mat:
    """A sparse matrix with CycNum entries."""

    __slots__ = ("nrows", "ncols", "field", "entries")

    def __init__(self, nrows: int, ncols: int, field: CycField,
                 entries: dict[tuple[int, int], CycNum] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.entries = entries or {}

    @staticmethod
    def identity(n: int, field: CycField) -> "Mat":
        one = field.one()
        return Mat(n, n, field, {(i, i): one for i in range(n)})

    @staticmethod
    def zero(nrows: int, ncols: int, field: CycField) -> "Mat":
        return Mat(nrows, ncols, field)

    def set(self, r: int, c: int, value: CycNum) -> None:
        if value.is_zero():
            self.entries.pop((r, c), None)
        else:
            self.entries[(r, c)] = value

    def get(self, r: int, c: int) -> CycNum:
        return self.entries.get((r, c), self.field.zero())

    def __add__(self, other: "Mat") -> "Mat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("matrix shapes differ")
        out = dict(self.entries)
        for key, val in other.entries.items():
            _acc(out, key, val)
        return Mat(self.nrows, self.ncols, self.field, out)

    def __sub__(self, other: "Mat") -> "Mat":
        return self + other.scaled(-1)

    def scaled(self, factor) -> "Mat":
        if isinstance(factor, int):
            factor = self.field.rational(factor)
        if factor.is_zero():
            return Mat(self.nrows, self.ncols, self.field)
        return Mat(self.nrows, self.ncols, self.field,
                   {k: v * factor for k, v in self.entries.items()})

    def __matmul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("matrix shapes do not compose")
        rows_of_other: dict[int, list[tuple[int, CycNum]]] = {}
        for (r, c), v in other.entries.items():
            rows_of_other.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], CycNum] = {}
        for (r, k), v in self.entries.items():
            for c, w in rows_of_other.get(k, ()):
                _acc(out, (r, c), v * w)
        return Mat(self.nrows, other.ncols, self.field, out)

    __mul__ = __matmul__

    def pow(self, k: int) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("powers need a square matrix")
        result = Mat.identity(self.nrows, self.field)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def matvec(self, vec: dict[int, CycNum]) -> dict[int, CycNum]:
        out: dict[int, CycNum] = {}
        for (r, c), v in self.entries.items():
            x = vec.get(c)
            if x is not None:
                _acc(out, r, v * x)
        return out

    def kron(self, other: "Mat") -> "Mat":
        out: dict[tuple[int, int], CycNum] = {}
        nb, mb = other.nrows, other.ncols
        for (ra, ca), va in self.entries.items():
            for (rb, cb), vb in other.entries.items():
                out[(ra * nb + rb, ca * mb + cb)] = va * vb
        return Mat(self.nrows * nb, self.ncols * mb, self.field, out)

    def is_zero_matrix(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) \
            and self.entries == other.entries

    def __hash__(self):
        raise TypeError("Mat is unhashable")

    def diagonal(self) -> list[CycNum]:
        """The diagonal entries in order; ValueError if any other entry is nonzero."""
        if any(r != c for r, c in self.entries):
            raise ValueError("matrix is not diagonal")
        return [self.get(i, i) for i in range(min(self.nrows, self.ncols))]

    def diagonal_inverse(self) -> "Mat":
        """Inverse of a diagonal matrix (used for K-generator matrices)."""
        diag = self.diagonal()
        if len(self.entries) != self.nrows:
            raise ZeroDivisionError("diagonal matrix has a zero entry")
        return Mat(self.nrows, self.ncols, self.field,
                   {(i, i): v.inverse() for i, v in enumerate(diag)})


def _reduce_row(row: dict, pivot_rows: dict) -> dict:
    """Eliminate every pivot column from `row` (ascending; pivots only add
    entries to the right of the column being cleared, so one sweep suffices)."""
    done = -1
    while True:
        nxt = min((c for c in row if c > done and c in pivot_rows), default=None)
        if nxt is None:
            return row
        done = nxt
        factor = row.pop(nxt)
        pivot = pivot_rows[nxt]
        if len(pivot) > 1:  # more than its leading 1: negate once per pivot
            factor = -factor
            for c, v in pivot.items():
                if c != nxt:
                    _acc(row, c, factor * v)


def _echelon(columns: list[dict], field: CycField):
    """Normalized echelon rows, keyed by pivot column, for the matrix whose
    i-th column is columns[i]."""
    rows: dict = {}
    for idx, col in enumerate(columns):
        for key, val in col.items():
            if not val.is_zero():
                rows.setdefault(key, {})[idx] = val
    pivot_rows: dict[int, dict[int, CycNum]] = {}
    for key in sorted(rows):
        row = _reduce_row(rows[key], pivot_rows)
        if row:
            lead = min(row)
            inv = row[lead].inverse()
            pivot_rows[lead] = {c: v * inv for c, v in row.items()}
    return pivot_rows


def rank_of_columns(columns: list[dict], field: CycField) -> int:
    return len(_echelon(columns, field))


def nullspace_of_columns(columns: list[dict], field: CycField) -> list[dict[int, CycNum]]:
    """Basis of {x : sum_i x_i * columns[i] = 0}, one vector per free column."""
    pivot_rows = _echelon(columns, field)
    pivot_cols = set(pivot_rows)
    basis: list[dict[int, CycNum]] = []
    for free in range(len(columns)):
        if free in pivot_cols:
            continue
        vec: dict[int, CycNum] = {free: field.one()}
        for pc in sorted(pivot_rows, reverse=True):
            row = pivot_rows[pc]
            acc = field.zero()
            for c, v in row.items():
                if c == pc:
                    continue
                x = vec.get(c)
                if x is not None:
                    acc = acc + v * x
            if not acc.is_zero():
                vec[pc] = -acc
        basis.append(vec)
    return basis


def solve_columns(columns: list[dict], target: dict, field: CycField) -> dict[int, CycNum] | None:
    """One solution x of sum_i x_i columns[i] = target, or None if inconsistent."""
    aug = columns + [{k: -v for k, v in target.items()}]
    t = len(columns)
    for vec in nullspace_of_columns(aug, field):
        coef = vec.get(t)
        if coef is not None and not coef.is_zero():
            inv = coef.inverse()
            return {c: v * inv for c, v in vec.items() if c != t}
    return None


def _acc_mod(store: dict, key, value: int, p: int) -> None:
    """The F_p twin of `_acc`: add value to store[key] mod p, dropping the
    key when the sum is zero."""
    value = (store.get(key, 0) + value) % p
    if value:
        store[key] = value
    else:
        store.pop(key, None)


def rank_mod_p(rows, p: int, stop_at: int | None = None) -> int:
    """Rank over F_p of sparse integer rows (dicts key->value), with early stop."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        work = {k: v % p for k, v in row.items() if v % p}
        done = None
        while True:
            nxt = min((c for c in work if (done is None or c > done) and c in pivots),
                      default=None)
            if nxt is None:
                break
            done = nxt
            factor = -work.pop(nxt)
            for c, v in pivots[nxt].items():
                if c != nxt:
                    _acc_mod(work, c, factor * v, p)
        if work:
            lead = min(work)
            inv = pow(work[lead], -1, p)
            pivots[lead] = {c: v * inv % p for c, v in work.items()}
            rank += 1
            if stop_at is not None and rank >= stop_at:
                return rank
    return rank
