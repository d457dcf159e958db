"""Exact arithmetic in the cyclotomic field Q(lam), lam a primitive root of unity.

A field element is the canonical residue of a rational polynomial modulo the
n-th cyclotomic polynomial, of degree below deg(Phi_n) = phi(n).  It is
stored as a tuple of phi(n) integer numerators over one positive common
denominator, in canonical form: the content gcd(den, *num) is 1, so the sign
sits on the numerators and zero is all-zero numerators over 1.  An element
has exactly one such form (den is the lcm of its coefficients' reduced
denominators), so equality and hashing are plain tuple comparisons, and
sums and products need only integer arithmetic and gcds.  So does the
inverse: x^-1 is the product of the Galois conjugates sigma_r(x) (x -> x^r,
r != 1 a unit mod n) over the rational norm N(x), the product of all of
them (L. C. Washington, *Introduction to Cyclotomic Fields*, GTM 83, ch. 2).
`coeffs` gives the coefficients as `fractions.Fraction`.  No floating point
appears anywhere in this package.

The distinguished root `lam` of a :class:`CycField` is x^r where r is the
field's root exponent (coprime to the order).  The default r = 1 picks the
residue class of x itself; other exponents reinterpret which primitive root
"lam" names, which is useful for checking that downstream results do not
depend on the choice.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction


class FieldMismatchError(ValueError):
    """Raised when combining elements of cyclotomic fields of different order."""


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Ascending coefficients of the n-th cyclotomic polynomial.

    Computed by long division of x^n - 1 by the cyclotomic polynomials of
    the proper divisors of n, which are monic, so the division stays integral.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(3)
    (1, 1, 1)
    >>> cyclotomic_polynomial(9)
    (1, 0, 0, 1, 0, 0, 1)
    """
    if n < 1:
        raise ValueError(f"cyclotomic polynomial needs n >= 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            div = cyclotomic_polynomial(d)
            deg = len(div) - 1
            quot = [0] * (len(poly) - deg)
            for k in range(len(quot) - 1, -1, -1):
                quot[k] = q = poly[k + deg]
                for i, c in enumerate(div):
                    poly[k + i] -= q * c
            assert not any(poly)
            poly = quot
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _degree(order: int) -> int:
    return len(cyclotomic_polynomial(order)) - 1


@functools.lru_cache(maxsize=None)
def _power_residues(order: int) -> tuple[tuple[int, ...], ...]:
    """Residues of x^k mod Phi_order for 0 <= k <= max(2*deg-2, order-1)."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    top = max(2 * deg - 2, order - 1)
    rows: list[tuple[int, ...]] = []
    for k in range(deg):
        rows.append(tuple(1 if i == k else 0 for i in range(deg)))
    cur = list(rows[deg - 1]) if deg > 0 else []
    for _ in range(deg, top + 1):
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            for i in range(deg):
                cur[i] -= lead * phi[i]
        rows.append(tuple(cur))
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def _reduction_rows(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For deg <= k <= 2*deg-2, the nonzero (i, c) of x^k mod Phi_order:
    what a product's coefficient of x^k adds to its coefficients below deg."""
    deg = _degree(order)
    rows = _power_residues(order)
    return tuple(tuple((i, c) for i, c in enumerate(rows[k]) if c)
                 for k in range(deg, 2 * deg - 1))


def _mismatch(a: "CycNum", b: "CycNum") -> FieldMismatchError:
    return FieldMismatchError(f"cyclotomic orders differ: {a.order} vs {b.order}")


_new = object.__new__


def _make(order: int, num: tuple[int, ...], den: int) -> "CycNum":
    """The element num/den; num and den must already be in canonical form."""
    x = _new(CycNum)
    x.order = order
    x.num = num
    x.den = den
    return x


def _reduced(order: int, num, den: int) -> "CycNum":
    """The element num/den for den > 0, with the content gcd(den, *num) removed."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            return _make(order, tuple(n // g for n in num), den // g)
    return _make(order, tuple(num), den)


def _combine(a: "CycNum", b: "CycNum", op) -> "CycNum":
    """a + b or a - b, for op operator.add or operator.sub."""
    if a.order != b.order:
        raise _mismatch(a, b)
    da, db = a.den, b.den
    if da == db:
        return _reduced(a.order, tuple(map(op, a.num, b.num)), da)
    g = math.gcd(da, db)
    ma, mb = db // g, da // g
    return _reduced(a.order, [op(x * ma, y * mb) for x, y in zip(a.num, b.num)], da * ma)


def _scaled(x: "CycNum", n: int, d: int) -> "CycNum":
    """x * n/d for integers n and d > 0; x itself when n/d is 1/1."""
    if n == d == 1:
        return x
    return _reduced(x.order, [k * n for k in x.num], x.den * d)


def _conjugate(x: "CycNum", r: int) -> "CycNum":
    """sigma_r(x) for r a unit mod x.order: the numerator at x^k moves to
    x^(r*k mod order), whose residue mod Phi_order is a row of _power_residues."""
    rows = _power_residues(x.order)
    images = [rows[r * k % x.order] for k in range(len(x.num))]
    return _reduced(x.order, [sum(map(operator.mul, x.num, col)) for col in zip(*images)], x.den)


def _is_rational(value) -> bool:
    return isinstance(value, (int, Fraction))


class CycNum:
    """An element of Q[x]/(Phi_order), in canonical reduced form: the integer
    numerators `num` of its coefficients over one common denominator `den`.
    Every operation, `inverse` included, works on these integers."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        deg = _degree(order)
        if len(coeffs) != deg:
            raise ValueError(
                f"an element of Q(zeta_{order}) has {deg} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if not _is_rational(c):
                raise TypeError(
                    f"coefficients must be int or Fraction, got {type(c).__name__}")
        # The lcm of the reduced denominators leaves no common content.
        den = math.lcm(*(c.denominator for c in coeffs))
        self.order = order
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of 1, x, ..., x^(deg-1) as Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    @staticmethod
    def from_rational(order: int, value) -> "CycNum":
        if not _is_rational(value):
            raise TypeError(f"a rational must be int or Fraction, got {type(value).__name__}")
        return _make(order, (value.numerator,) + (0,) * (_degree(order) - 1),
                     value.denominator)

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # Two methods, not one aliased to the other, so that a wrapper around
    # either one sees only its own calls.
    def __add__(self, other: "CycNum") -> "CycNum":
        return _combine(self, other, operator.add)

    def __sub__(self, other: "CycNum") -> "CycNum":
        return _combine(self, other, operator.sub)

    def __neg__(self) -> "CycNum":
        return _make(self.order, tuple(-n for n in self.num), self.den)

    def __mul__(self, other) -> "CycNum":
        """The product: the convolution of the numerators reduced mod
        Phi_order, over the product of the denominators.

        When either factor is rational (every numerator past the constant one
        is 0) the convolution is the other factor's numerators times that
        integer, so the product scales instead, through the same `_reduced`:
        the canonical form is byte-identical.  A factor equal to 1 returns
        the other factor itself, which is immutable."""
        if other.__class__ is not CycNum:
            if _is_rational(other):
                return _scaled(self, other.numerator, other.denominator)
            return NotImplemented
        if self.order != other.order:
            raise _mismatch(self, other)
        a, b = self.num, other.num
        if not any(b[1:]):
            return _scaled(self, b[0], other.den)
        if not any(a[1:]):
            return _scaled(other, a[0], self.den)
        b = [(j, bj) for j, bj in enumerate(b) if bj]
        deg = len(a)
        conv = [0] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in b:
                    conv[i + j] += ai * bj
        out = conv[:deg]
        for ck, row in zip(conv[deg:], _reduction_rows(self.order)):
            if ck:
                for i, c in row:
                    out[i] += ck * c
        return _reduced(self.order, out, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse: the conjugates sigma_r(x), r != 1, over N(x)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in cyclotomic field")
        order = self.order
        conjugates = [_conjugate(self, r) for r in range(2, order) if math.gcd(r, order) == 1]
        others = functools.reduce(operator.mul, conjugates, CycNum.from_rational(order, 1))
        norm = self * others
        n0 = norm.num[0]
        if any(norm.num[1:]):
            raise ArithmeticError(f"Galois norm of {self!r} is not rational")
        # x^-1 = others * norm.den / n0, with the sign moved to the numerators
        scale = norm.den if n0 > 0 else -norm.den
        return _reduced(order, [n * scale for n in others.num], others.den * abs(n0))

    def __truediv__(self, other: "CycNum") -> "CycNum":
        return self * other.inverse()

    def __pow__(self, k: int) -> "CycNum":
        base = self if k >= 0 else self.inverse()
        return square_and_multiply(base, abs(k), CycNum.from_rational(self.order, 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.order == other.order and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.order, self.num, self.den))

    def __repr__(self) -> str:
        return f"CycNum({self.order}, {self.coeffs!r})"


def _acc(store: dict, key, value: CycNum) -> None:
    """Add value to store[key] in a sparse combination, which keeps only
    nonzero coefficients: the key is dropped when the sum is zero."""
    old = store.get(key)
    value = value if old is None else old + value
    if value.is_zero():
        store.pop(key, None)
    else:
        store[key] = value


def square_and_multiply(base, k: int, one):
    """base^k for k >= 0, in any ring whose elements multiply with `*`.

    Binary powering from the low bit, with no squaring past the top bit and
    no product by `one`: bit_length(k) - 1 squarings and popcount(k) - 1
    further products, and `one` itself for k = 0.  Every power in the
    package goes through here."""
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        k >>= 1
        if k:
            base = base * base
    return one if result is None else result


@dataclass(frozen=True)
class CycField:
    """The field Q(lam) with lam := x^root_exponent mod Phi_ell, ell odd > 1."""

    ell: int
    root_exponent: int = 1

    def __post_init__(self):
        if self.ell < 3 or self.ell % 2 == 0:
            raise ValueError(f"order must be odd and >= 3, got {self.ell}")
        if math.gcd(self.root_exponent % self.ell, self.ell) != 1:
            raise ValueError(
                f"root exponent {self.root_exponent} not coprime to {self.ell}")

    @property
    def degree(self) -> int:
        return _degree(self.ell)

    def zero(self) -> CycNum:
        return _zero_cached(self.ell)

    def one(self) -> CycNum:
        return _lambda_pow_cached(self.ell, 0)

    def rational(self, value) -> CycNum:
        return CycNum.from_rational(self.ell, value)

    def lam(self) -> CycNum:
        return self.lambda_pow(1)

    def lambda_pow(self, k: int) -> CycNum:
        """lam^k = x^(root_exponent * k mod ell), for any integer k."""
        return _lambda_pow_cached(self.ell, (self.root_exponent * k) % self.ell)


@functools.lru_cache(maxsize=None)
def _lambda_pow_cached(order: int, e: int) -> CycNum:
    return _make(order, _power_residues(order)[e], 1)


@functools.lru_cache(maxsize=None)
def _zero_cached(order: int) -> CycNum:
    return CycNum.from_rational(order, 0)
