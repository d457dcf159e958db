"""Sparse exact linear algebra over a cyclotomic field.

Matrices are small (dimensions up to a few hundred) and exact, so the
implementation favours clarity: a matrix is a dict from (row, col) to
nonzero field elements, and elimination runs over dicts keyed by arbitrary
hashable row labels.  No pivot-size heuristics are needed because every
computation here is exact; rows are processed in sorted order so results
are deterministic.

Elimination keeps each pivot row as the relation it expresses on the
kernel, x_pivot = sum_c tail[c] x_c, and stores only the tail: the leading
entry, which would be normalized to 1, is never stored or multiplied by.
The same sweep serves Q(lam) (`_acc`) and F_p (`_acc_mod`, `rank_mod_p`).
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycField, CycNum, _acc, square_and_multiply


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
        if isinstance(factor, (int, Fraction)):
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
        """self^k (self itself for k = 1, the identity for k = 0)."""
        if self.nrows != self.ncols or k < 0:
            raise ValueError("powers need a square matrix and k >= 0")
        return square_and_multiply(self, k, Mat.identity(self.nrows, self.field))

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


def _reduce_row(row: dict, pivot_rows: dict, acc=_acc, *ring) -> dict:
    """Eliminate every pivot column from `row`, smallest first, with the
    sparse accumulate `acc` of the coefficient ring (extra arguments `ring`).

    A pivot row is stored as its tail t, the relation x_pivot = sum t[c] x_c,
    so clearing the pivot's entry f adds f * t[c] at each c.  Every c is
    right of the pivot, so one ascending sweep clears the row."""
    while hits := [c for c in row if c in pivot_rows]:
        pivot = min(hits)
        factor = row.pop(pivot)
        for c, t in pivot_rows[pivot].items():
            acc(row, c, factor * t, *ring)
    return row


def _echelon(columns: list[dict]):
    """Echelon form of the matrix whose i-th column is columns[i], as a dict
    from pivot column to the tail of its row: a row with leading entry a at
    column j and entries v_c right of it is stored as {c: -v_c / a}, so that
    x_j = sum_c tail[c] x_c on the kernel.  The leading 1 is never stored,
    and a row with no tail needs no inverse."""
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
            lead_val = row.pop(lead)
            if row:
                scale = -lead_val.inverse()
                row = {c: v * scale for c, v in row.items()}
            pivot_rows[lead] = row
    return pivot_rows


def nullspace_of_columns(columns: list[dict], field: CycField) -> list[dict[int, CycNum]]:
    """Basis of {x : sum_i x_i * columns[i] = 0}, one vector per free column:
    x_free = 1, the other free coordinates 0, and each pivot coordinate
    x_pivot = sum tail[c] x_c, read from the last pivot back."""
    pivot_rows = _echelon(columns)
    basis: list[dict[int, CycNum]] = []
    for free in range(len(columns)):
        if free in pivot_rows:
            continue
        vec: dict[int, CycNum] = {free: field.one()}
        for pc in sorted(pivot_rows, reverse=True):
            for c, t in pivot_rows[pc].items():
                x = vec.get(c)
                if x is not None:
                    _acc(vec, pc, t * x)
        basis.append(vec)
    return basis


def _acc_mod(store: dict, key, value: int, p: int) -> None:
    """The F_p twin of `_acc`: add value to store[key] mod p, dropping the
    key when the sum is zero."""
    value = (store.get(key, 0) + value) % p
    if value:
        store[key] = value
    else:
        store.pop(key, None)


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of sparse integer rows (dicts key->value, any sortable
    keys), read once in order; pivot rows are kept as tails, as in `_echelon`."""
    pivots: dict = {}
    for row in rows:
        work = _reduce_row({k: v % p for k, v in row.items() if v % p},
                           pivots, _acc_mod, p)
        if work:
            lead = min(work)
            scale = -pow(work.pop(lead), -1, p)
            pivots[lead] = {c: v * scale % p for c, v in work.items()}
    return len(pivots)
