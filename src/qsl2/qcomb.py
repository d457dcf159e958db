"""q-integers, Gaussian binomials, their ell-adic extensions, and Lucas binomials.

Conventions, with lam the distinguished root of a :class:`CycField`:

    [m]        = (lam^m - lam^-m) / (lam - lam^-1)            (any integer m)
    [m]!       = [m][m-1]...[1],  [0]! = 1                    (0 <= m < ell)
    qbinom     = prod_{j=1}^{n} (lam^(m-j+1) - lam^(j-1-m)) / (lam^j - lam^-j)
    ell-adic   = digitwise product of qbinom over base-ell digits
    K-binomial = prod_{j=1}^{a} (lam^(s-j+1) K - lam^(j-1-s) K^-1) / (lam^j - lam^-j)

The K-binomial is returned as a Laurent polynomial in K: a sparse map from
integer exponents to coefficients, supported on {-a, -a+2, ..., a}.
"""

from __future__ import annotations

import functools
import math

from .cyclotomic import CycField, CycNum, _acc


def to_digits(value: int, base: int, width: int | None = None) -> tuple[int, ...]:
    """Base-`base` digits of a nonnegative integer, least significant first."""
    if value < 0:
        raise ValueError(f"digit expansion needs a nonnegative value, got {value}")
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    if width is not None:
        if len(digits) > width:
            raise ValueError("value does not fit in the requested digit width")
        digits += [0] * (width - len(digits))
    return tuple(digits)


@functools.lru_cache(maxsize=None)
def _inverse_q_den(field: CycField, j: int) -> CycNum:
    """1/(lam^j - lam^-j), the denominator shared by [m], the Gaussian
    binomials and the K-binomials; j is nonzero mod ell."""
    return (field.lambda_pow(j) - field.lambda_pow(-j)).inverse()


@functools.lru_cache(maxsize=None)
def q_int(field: CycField, m: int) -> CycNum:
    """[m] = (lam^m - lam^-m)/(lam - lam^-1); defined for every integer m."""
    num = field.lambda_pow(m) - field.lambda_pow(-m)
    return num * _inverse_q_den(field, 1)


@functools.lru_cache(maxsize=None)
def q_factorial(field: CycField, m: int) -> CycNum:
    """[m]! for 0 <= m < ell (larger m would be zero, hence not invertible)."""
    if not 0 <= m < field.ell:
        raise ValueError(f"q-factorial needs 0 <= m < {field.ell}, got {m}")
    result = field.one()
    for j in range(1, m + 1):
        result = result * q_int(field, j)
    return result


@functools.lru_cache(maxsize=None)
def inverse_q_int(field: CycField, m: int) -> CycNum:
    """1/[m] for m nonzero mod ell, inverted once per (field, m)."""
    return q_int(field, m).inverse()


@functools.lru_cache(maxsize=None)
def inverse_q_factorial(field: CycField, m: int) -> CycNum:
    """1/[m]! for 0 <= m < ell, inverted once per (field, m)."""
    return q_factorial(field, m).inverse()


@functools.lru_cache(maxsize=None)
def q_binom(field: CycField, m: int, n: int) -> CycNum:
    """Gaussian binomial by the product formula; m may be any integer, 0 <= n < ell."""
    if not 0 <= n < field.ell:
        raise ValueError(f"q-binomial lower index must lie in [0, {field.ell}), got {n}")
    result = field.one()
    for j in range(1, n + 1):
        num = field.lambda_pow(m - j + 1) - field.lambda_pow(j - 1 - m)
        result = result * num * _inverse_q_den(field, j)
        if result.is_zero():
            break
    return result


@functools.lru_cache(maxsize=None)
def gen_q_binom(field: CycField, m: int, n: int) -> CycNum:
    """ell-adic binomial: digitwise product of q_binom over base-ell digits.

    Vanishes exactly when some digit of n exceeds the matching digit of m,
    in particular whenever adding (m - n) and n in base ell carries.
    """
    if m < 0 or n < 0:
        raise ValueError("ell-adic binomial needs nonnegative arguments")
    ell = field.ell
    result = field.one()
    while m or n:
        m, md = divmod(m, ell)
        n, nd = divmod(n, ell)
        if nd:
            result = result * q_binom(field, md, nd)
            if result.is_zero():
                return result
    return result


def k_binom_laurent(field: CycField, s: int, a: int) -> dict[int, CycNum]:
    """The K-binomial with shift s and depth a as a Laurent polynomial in K.

    Returns {exponent: coefficient} with exponents in {-a, -a+2, ..., a};
    s may be any integer, 0 <= a < ell.
    """
    if not 0 <= a < field.ell:
        raise ValueError(f"K-binomial depth must lie in [0, {field.ell}), got {a}")
    terms: dict[int, CycNum] = {0: field.one()}
    for j in range(1, a + 1):
        den_inv = _inverse_q_den(field, j)
        c_up = field.lambda_pow(s - j + 1) * den_inv
        c_down = -(field.lambda_pow(j - 1 - s) * den_inv)
        new: dict[int, CycNum] = {}
        for b, coeff in terms.items():
            for shift, c in ((1, c_up), (-1, c_down)):
                _acc(new, b + shift, coeff * c)
        terms = new
    return terms


def k_binom_at_power(field: CycField, laurent: dict[int, CycNum], z: int) -> CycNum:
    """Specialize a K-Laurent polynomial at the group-like K |-> lam^z."""
    result = field.zero()
    for b, coeff in laurent.items():
        result = result + coeff * field.lambda_pow(z * b)
    return result


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def lucas_binom(m: int, n: int, p: int) -> int:
    """binom(m, n) mod p by digitwise base-p products (p prime, m, n >= 0)."""
    if not is_prime(p):
        raise ValueError(f"Lucas binomial needs a prime modulus, got {p}")
    if m < 0 or n < 0:
        raise ValueError("Lucas binomial needs nonnegative arguments")
    result = 1
    while (m or n) and result:
        m, md = divmod(m, p)
        n, nd = divmod(n, p)
        result = result * math.comb(md, nd) % p
    return result
