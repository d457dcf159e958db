"""Truncated distribution algebras of SL2 over a prime field.

The algebra at level n has basis Y^(a) H^(b) X^(c), keyed (a, b, c), with
0 <= a, b, c < p^n and coefficients in F_p.  Structure constants are *derived*,
not transcribed: the defining data are the generating-function relations

    X(t) X(u) = X(t + u)                    Y(t) Y(u) = Y(t + u)
    H(t) H(u) = H(t + u + tu)
    H(t) X(u) = X((1+t)^2 u) H(t)           H(t) Y(u) = Y((1+t)^-2 u) H(t)
    X(t) Y(u) = Y(u / (1+tu)) H(tu) X(t / (1+tu))

where X(t) = sum_n t^n X^(n) and so on.  Every structure constant is a
coefficient [s^j] (1+s)^e of a one-variable series, e an integer, by three
exact identities of the relations above:

    X^(n) Y^(m):  (u/(1+tu))^a (t/(1+tu))^c = u^a t^c (1+tu)^-(a+c), so the
                  coefficient on Y^(a) H^(b) X^(c) is [s^j] (1+s)^-(a+c),
                  where j = n-b-c = m-b-a >= 0;
    H^(m) H^(n):  t+u+tu = t + u(1+t), so the coefficient on H^(k) is
                  [s^n] (1+s)^k * [s^(m+n-k)] (1+s)^n, max(m, n) <= k <= m+n;
    X^(m) X^(n):  [t^m u^n] (t+u)^(m+n) = [s^m] (1+s)^(m+n);

and moving H^(b) past a generator of H-weight w reads (1+s)^w.  The series
power is computed over F_p, never read off a binomial formula, so the
closed-form product formulas stay claims compared against these oracles
(see erratum_report, which records where the printed forms disagree).
Each normal-order helper, X^(n) Y^(m) or X^(c) H^(b), is `hyp_multiply`
of two monomials.  Restricted to the terms p^j divides, those the
level-lowering map keeps, most products are zero by Kummer's theorem.

Also here: the product of the distribution algebra of the multiplicative
group, computed from first principles by duality against its coordinate Hopf
algebra (the oracle the erratum report reads), and the level-lowering
(Frobenius-style) maps between truncation levels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .cyclotomic import square_and_multiply
from .linalg import _acc_mod, rank_mod_p
from .qcomb import is_prime

HypMonomial = tuple[int, int, int]  # (Y-part, H-part, X-part)
HypElement = dict[HypMonomial, int]


@dataclass(frozen=True)
class HypParams:
    """Prime p and truncation level n: indices run over [0, p^n)."""

    p: int
    level: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")
        if self.level < 1:
            raise ValueError("level must be >= 1")

    @property
    def bound(self) -> int:
        return self.p ** self.level


class TruncatedSeries2:
    """Power series in t, u over F_p, truncated at (order_t, order_u); the
    engine's series have order_u = 0, so they are series in t alone."""

    __slots__ = ("p", "order_t", "order_u", "coeffs")

    def __init__(self, p: int, order_t: int, order_u: int,
                 coeffs: dict[tuple[int, int], int] | None = None):
        self.p = p
        self.order_t = order_t
        self.order_u = order_u
        self.coeffs = coeffs if coeffs is not None else {}

    @staticmethod
    def one(p: int, order_t: int, order_u: int) -> "TruncatedSeries2":
        return TruncatedSeries2(p, order_t, order_u, {(0, 0): 1})

    def __mul__(self, other: "TruncatedSeries2") -> "TruncatedSeries2":
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i <= self.order_t and j <= self.order_u:
                    _acc_mod(out, (i, j), v1 * v2, self.p)
        return TruncatedSeries2(self.p, self.order_t, self.order_u, out)

    def pow(self, k: int) -> "TruncatedSeries2":
        return square_and_multiply(
            self, k, TruncatedSeries2.one(self.p, self.order_t, self.order_u))


def _one_plus_t_pow(p: int, e: int, order_t: int) -> dict[int, int]:
    """Coefficients of (1+t)^e mod p up to t^order_t, any integer e."""
    if e >= 0:
        base = {(0, 0): 1, (1, 0): 1}  # 1+t
    else:
        base = {(k, 0): (-1) ** k % p for k in range(order_t + 1)}  # (1+t)^-1
    ser = TruncatedSeries2(p, order_t, 0, base).pow(abs(e))
    return {k: v for (k, _), v in ser.coeffs.items()}


class _HypEngine:
    """Memo tables for one (p, level) pair; every index is below bound = p^level.

    Four oracle tables.  `_move` (keyed (b, e)) holds the coefficients of
    (1+s)^e up to s^b, read backwards: H^(b) moves past a generator of
    H-weight e = -2x or 2c, and `coeff(e, j)` = [s^j] (1+s)^e reads the entry
    (bound - 1, e), which holds every coefficient below s^bound.  The
    exponents run over |e| <= 2 (bound - 1), so `_move` has at most
    bound * (4 bound - 3) keys.  The other three are read off `coeff` by the
    identities in the module docstring: `_xy` (X^(n) Y^(m), keyed (n, m)),
    `_hh` (H^(m) H^(n), keyed (m, n)) and `_xx` (X^(m) X^(n), keyed (m, n)),
    each with at most bound^2 keys.

    Two product tables, built only from the oracle tables, split mono_mul.
    `_left` (keyed (b, c, a2, step)) holds the groups Y^(x) (...) X^(z) of
    H^(b) X^(c) Y^(a2) whose x `step` divides (all of them at step 1), and
    `_right` (H^(k) X^(z) H^(b2), keyed (k, z, b2)): per step at most
    bound^3 keys each.  The lemma: a product has a nonzero term Y^(a+x)
    H^(k2) X^(z+c2) that p^j divides only if p^j divides a and c2.  By
    Kummer's theorem (J. Reine Angew. Math. 44 (1852)) binom(a+x, a) has
    p-adic valuation the number of carries of a + x in base p, so if p^j
    divides a + x but not a, the lowest nonzero digit of a carries and the
    merge `xx_merge(a, x)` is 0; likewise `xx_merge(z, c2)`.
    """

    def __init__(self, params: HypParams):
        self.params = params
        self.p = params.p
        self.bound = params.bound
        self._xy: dict[tuple[int, int], HypElement] = {}
        self._hh: dict[tuple[int, int], dict[int, int]] = {}
        self._move: dict[tuple[int, int], dict[int, int]] = {}
        self._xx: dict[tuple[int, int], int] = {}
        self._left: dict[tuple[int, int, int, int], tuple] = {}
        self._right: dict[tuple[int, int, int], tuple] = {}

    def coeff(self, e: int, j: int) -> int:
        """[s^j] (1+s)^e mod p, for any integer e and 0 <= j < bound."""
        top = self.bound - 1
        return self.move_table(top, e).get(top - j, 0)

    def xy_table(self, n: int, m: int) -> HypElement:
        """Normal order of X^(n) Y^(m): Y^(a) H^(b) X^(c) has coefficient
        [s^j] (1+s)^-(a+c), j = m-a-b = n-c-b."""
        key = (n, m)
        memo = self._xy.get(key)
        if memo is not None:
            return memo
        out: HypElement = {}
        for a in range(max(0, m - n), m + 1):
            c = n - m + a
            for b in range(m - a + 1):
                v = self.coeff(-(a + c), m - a - b)
                if v:
                    out[(a, b, c)] = v
        self._xy[key] = out
        return out

    def hh_table(self, m: int, n: int) -> dict[int, int]:
        """H^(m) H^(n) = sum_k c_k H^(k), from H(t)H(u) = H(t + u(1+t)):
        c_k = [s^n] (1+s)^k * [s^(m+n-k)] (1+s)^n."""
        key = (m, n)
        memo = self._hh.get(key)
        if memo is not None:
            return memo
        p = self.p
        out: dict[int, int] = {}
        for k in range(max(m, n), m + n + 1):
            v = self.coeff(k, n) * self.coeff(n, m + n - k) % p
            if v:
                out[k] = v
        self._hh[key] = out
        return out

    def move_table(self, b: int, weight: int) -> dict[int, int]:
        """Coefficients c_j with H^(b) G^(x) = sum_j c_j G^(x) H^(j), where G
        is a generator of H-weight `weight` and x absorbs into weight.

        From H(t) G(u) = G((1+t)^weight u) H(t): c_j = [(1+t)^weight]_(b-j).
        The same table moves G^(x) rightward past H^(b) with weight negated.
        """
        key = (b, weight)
        memo = self._move.get(key)
        if memo is not None:
            return memo
        ser = _one_plus_t_pow(self.p, weight, b)
        out = {j: ser[b - j] for j in range(b + 1) if (b - j) in ser}
        self._move[key] = out
        return out

    def xx_merge(self, m: int, n: int) -> int:
        """Scalar c with X^(m) X^(n) = c X^(m+n), from X(t)X(u) = X(t+u):
        c = [s^m] (1+s)^(m+n)."""
        key = (m, n)
        memo = self._xx.get(key)
        if memo is None:
            memo = self.coeff(m + n, m)
            self._xx[key] = memo
        return memo

    def left_table(self, b: int, c: int, a2: int, step: int) -> tuple:
        """H^(b) X^(c) Y^(a2) in normal order, as (x, z, ((k, c_k), ...))
        groups: the sum over groups of Y^(x) (sum_k c_k H^(k)) X^(z).  Only
        the groups whose x `step` divides are built; step 1 builds them all."""
        key = (b, c, a2, step)
        memo = self._left.get(key)
        if memo is not None:
            return memo
        p = self.p
        groups: dict[tuple[int, int], dict[int, int]] = {}
        for (x, y, z), v in self.xy_table(c, a2).items():
            if x % step:
                continue
            # H^(b) slides right past Y^(x) and meets H^(y): sum_k h_k H^(k).
            h_mid = groups.setdefault((x, z), {})
            for j, cj in self.move_table(b, -2 * x).items():
                for k, ck in self.hh_table(j, y).items():
                    _acc_mod(h_mid, k, v * cj * ck, p)
        memo = tuple((x, z, tuple(h.items())) for (x, z), h in groups.items() if h)
        self._left[key] = memo
        return memo

    def right_table(self, k: int, z: int, b2: int) -> tuple:
        """H^(k) X^(z) H^(b2) in normal order, as ((k2, c_k2), ...): the sum
        of c_k2 H^(k2) X^(z)."""
        key = (k, z, b2)
        memo = self._right.get(key)
        if memo is not None:
            return memo
        p = self.p
        out: dict[int, int] = {}
        # X^(z) slides left past H^(b2), and H^(k) joins on the left.
        for i, ci in self.move_table(b2, -2 * z).items():
            for k2, ck2 in self.hh_table(k, i).items():
                assert k2 < self.bound
                _acc_mod(out, k2, ci * ck2, p)
        memo = tuple(out.items())
        self._right[key] = memo
        return memo

    def mono_mul(self, left: HypMonomial, right: HypMonomial,
                 step: int = 1) -> HypElement:
        """Y^(a) H^(b) X^(c) * Y^(a2) H^(b2) X^(c2).  The left table turns
        H^(b) X^(c) Y^(a2) into Y^(x) H^(k) X^(z) terms, the right table turns
        each H^(k) X^(z) H^(b2) into H^(k2) X^(z) terms, and Y^(a) Y^(x) and
        X^(z) X^(c2) merge on the outside.

        Only the terms whose three indices `step` divides are kept; the
        default 1 keeps them all.  `step` must be p^j, j <= level, else
        ValueError: only then does the class docstring's lemma make the
        product {} unless step divides a, c2 and c - a2 (so x and z), and
        only the left-table groups whose x step divides are read.  A
        right-table term is kept only if step divides k2."""
        if step < 1 or self.bound % step:
            raise ValueError(f"step {step} is not a power of {self.p} up to {self.bound}")
        a, b, c = left
        a2, b2, c2 = right
        if a % step or c2 % step or (c - a2) % step:
            return {}
        p, bound = self.p, self.bound
        xx = self._xx
        right_table = self.right_table
        out: HypElement = {}
        for x, z, h_mid in self.left_table(b, c, a2, step):
            y_merge = xx.get((a, x))
            if y_merge is None:
                y_merge = self.xx_merge(a, x)
            if not y_merge:
                continue
            x_merge = xx.get((z, c2))
            if x_merge is None:
                x_merge = self.xx_merge(z, c2)
            if not x_merge:
                continue
            assert a + x < bound and z + c2 < bound
            base = y_merge * x_merge % p
            for k, ck in h_mid:
                scale = base * ck
                for k2, ck2 in right_table(k, z, b2):
                    if k2 % step:
                        continue
                    _acc_mod(out, (a + x, k2, z + c2), scale * ck2, p)
        return out


_HYP_ENGINES: dict[tuple[int, int], _HypEngine] = {}


def _engine(params: HypParams) -> _HypEngine:
    key = (params.p, params.level)
    eng = _HYP_ENGINES.get(key)
    if eng is None:
        eng = _HypEngine(params)
        _HYP_ENGINES[key] = eng
    return eng


def hyp_monomial(params: HypParams, a: int, b: int, c: int) -> HypElement:
    bound = params.bound
    if not (0 <= a < bound and 0 <= b < bound and 0 <= c < bound):
        raise ValueError(f"monomial indices must lie in [0, {bound})")
    return {(a, b, c): 1}


def hyp_add(x: HypElement, y: HypElement, p: int) -> HypElement:
    out = dict(x)
    for k, v in y.items():
        _acc_mod(out, k, v, p)
    return out


def hyp_scale(x: HypElement, c: int, p: int) -> HypElement:
    c %= p
    return {k: v * c % p for k, v in x.items()} if c else {}


def hyp_multiply(params: HypParams, x: HypElement, y: HypElement) -> HypElement:
    """The product x*y, summed bilinearly over the monomial products.

    Two single terms c*m and d*n, the common case, skip the sum: the result
    is `_HypEngine.mono_mul(m, n)`, a fresh dict, scaled by c*d.  An empty
    factor gives {} without looking up the engine.  The result is always a
    new dict that the caller may change.
    """
    if not x or not y:
        return {}
    p = params.p
    eng = _engine(params)
    if len(x) == 1 and len(y) == 1:
        ((ma, ca),), ((mb, cb),) = x.items(), y.items()
        c = ca * cb % p
        prod = eng.mono_mul(ma, mb)
        return prod if c == 1 else hyp_scale(prod, c, p)
    out: HypElement = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            c = ca * cb % p
            for mono, coeff in eng.mono_mul(ma, mb).items():
                _acc_mod(out, mono, c * coeff, p)
    return out


def xy_normal_order(params: HypParams, n: int, m: int) -> HypElement:
    """X^(n) Y^(m) in the basis: the product of the two monomials."""
    return hyp_multiply(params, hyp_monomial(params, 0, 0, n),
                        hyp_monomial(params, m, 0, 0))


def hx_normal_order(params: HypParams, b: int, c: int) -> HypElement:
    """X^(c) H^(b) = sum_j [(1+t)^(-2c)]_(b-j) H^(j) X^(c), the product."""
    return hyp_multiply(params, hyp_monomial(params, 0, 0, c),
                        hyp_monomial(params, 0, b, 0))


def frobenius_pi(params: HypParams, x: HypElement, k: int) -> HypElement:
    """The level-lowering map onto level 1: a monomial survives iff all of
    its indices are divisible by p^k, and then the indices shift down."""
    if params.level != k + 1:
        raise ValueError(f"element lives at level {params.level}, expected {k + 1}")
    step = params.p ** k
    out: HypElement = {}
    for (a, b, c), v in x.items():
        if a % step or b % step or c % step:
            continue
        out[(a // step, b // step, c // step)] = v
    return out


def pi_of_product(params: HypParams, m: HypMonomial, n: HypMonomial,
                  k: int) -> HypElement:
    """pi(m*n) for two basis monomials at level k+1, exactly: the product is
    built only on the terms whose indices p^k divides, the terms pi keeps:
    {} at once unless p^k divides a, c2 and c - a2 (`_HypEngine.mono_mul`)."""
    prod = _engine(params).mono_mul(m, n, params.p ** k)
    # An empty product goes to frobenius_pi only at a wrong level, to raise.
    return frobenius_pi(params, prod, k) if prod or params.level != k + 1 else prod


def hyp_basis(params: HypParams):
    return itertools.product(range(params.bound), repeat=3)


def kernel_dimensions(params: HypParams, k: int) -> dict:
    """Dimension bookkeeping for the level-lowering map out of level k+1.

    The map sends basis monomials to basis monomials or zero, so the exact
    rank is the count of surviving monomials and the kernel has dimension
    p^(3(k+1)) - p^(3k).  The left ideal A A_k^+ generated by the
    augmentation ideal of the level-k subalgebra A_k is checked to be that
    kernel through the 3k generators g = X^(p^i), Y^(p^i), H^(p^i), i < k,
    each of counit zero.  Three exact checks over F_p, each product a row
    keyed by its monomials (tuple order is `hyp_basis` order):

    1. the lemma: the rows y g, y a level-k monomial, have no unit term and
       rank p^(3k) - 1, so they span A_k^+ and A_k^+ = sum_g A_k g;
    2. containment: every row x g, x a level-(k+1) monomial, maps to zero;
    3. the span: those rows have rank equal to the kernel dimension.

    By the lemma A A_k^+ = sum_g A g, so 2 and 3 say that A A_k^+ is the
    kernel, with no product left unchecked.  Containment is decided only
    through the lemma, so a failed lemma reports it as failed.
    """
    if params.level != k + 1:
        raise ValueError("parameters must sit at level k+1")
    p = params.p
    step = p ** k
    total = params.bound ** 3
    surviving = sum(1 for mono in hyp_basis(params)
                    if not (mono[0] % step or mono[1] % step or mono[2] % step))
    kernel_dim = total - surviving
    expected = p ** (3 * (k + 1)) - p ** (3 * k)

    gens = [{mono: 1} for i in range(k)
            for mono in ((0, 0, p ** i), (p ** i, 0, 0), (0, p ** i, 0))]
    faults = []  # lemma rows with a unit term, level-(k+1) rows not killed

    def rows(level, fault):
        # Each row goes to the rank as it is made; none is kept.
        for mono in hyp_basis(level):
            for g in gens:
                row = hyp_multiply(level, {mono: 1}, g)
                if fault(row):
                    faults.append(row)
                yield row

    lemma_rank = rank_mod_p(rows(HypParams(p, k), lambda row: (0, 0, 0) in row), p)
    span_rank = rank_mod_p(rows(params, lambda row: frobenius_pi(params, row, k)), p)
    return {
        "p": p, "k": k,
        "dim_level_k": p ** (3 * k),
        "dim_level_k_plus_1": total,
        "kernel_dim": kernel_dim,
        "kernel_dim_expected": expected,
        "kernel_matches": kernel_dim == expected,
        "ideal_span_rank": span_rank,
        "ideal_spans_kernel": span_rank == kernel_dim,
        "products_contained_in_kernel":
            lemma_rank == p ** (3 * k) - 1 and not faults,
        "products_checked": total * len(gens),
    }


# -- the multiplicative group by duality ---------------------------------------


def multiplicative_group_product(p: int, a: int, b: int, cap: int) -> dict[int, int]:
    """pi_a * pi_b in the distribution algebra of the multiplicative group.

    Duality oracle: evaluate on (t-1)^m using Delta(t) = t (x) t, i.e.
    Delta((t-1)^m) = ((t-1) (x) t + 1 (x) (t-1))^m, expanding t-powers back
    into the (t-1) basis.
    """
    out: dict[int, int] = {}
    for m in range(min(cap, a + b) + 1):
        total = 0
        for i in range(m + 1):
            # (t-1)^i (x) t^i (t-1)^(m-i), with binom(m, i) ways
            if i != a:
                continue
            # t^i (t-1)^(m-i) = sum_j binom(i, j) s^(j+m-i) with s = t-1;
            # pi_b reads the coefficient of s^b
            j = b - (m - i)
            if 0 <= j <= i:
                total += math.comb(m, i) * math.comb(i, j)
        total %= p
        if total:
            out[m] = total
    return out


# -- printed closed forms and the erratum report -------------------------------


def printed_xy_closed_form(p: int, n: int, m: int) -> HypElement:
    """The closed form for X^(n) Y^(m) as printed: signed binomial with
    upper index m+n-l-k (treated as a claim, not a definition)."""
    out: HypElement = {}
    for l in range(min(m, n) + 1):
        for k in range(l + 1):
            c = (-1) ** (l - k) * math.comb(m + n - l - k, l - k) % p
            if c:
                _acc_mod(out, (m - l, k, n - l), c, p)
    return out


def printed_xy_bracket_case(p: int, pn: int, pm: int) -> HypElement:
    """The printed special case for [X^(p^n), Y^(p^m)]: binom(l+k, l-k)."""
    out: HypElement = {}
    for l in range(1, min(pn, pm) + 1):
        for k in range(l + 1):
            c = math.comb(l + k, l - k) % p
            if c:
                _acc_mod(out, (pm - l, k, pn - l), c, p)
    return out


def format_hyp(x: HypElement) -> str:
    if not x:
        return "0"
    parts = []
    for (a, b, c), v in sorted(x.items()):
        letters = [f"Y({a})" if a else "", f"H({b})" if b else "",
                   f"X({c})" if c else ""]
        mono = "*".join(s for s in letters if s) or "1"
        parts.append(f"{v}*{mono}" if v != 1 or mono == "1" else mono)
    return " + ".join(parts)


def erratum_report(p: int) -> dict:
    """Compare the printed closed forms against the generating-function and
    duality oracles at level 1, and record every disagreement verbatim: the
    XY closed form on all p^2 index pairs, the XY bracket case [X(1), Y(1)],
    the HX bracket case [H(p^m), X(p^n)] for m, n in {0, 1}, and the
    multiplicative-group product on indices below min(p, 6)."""
    eng = _engine(HypParams(p, 1))

    xy_mismatches = []
    for n in range(p):
        for m in range(p):
            oracle = eng.xy_table(n, m)
            printed = printed_xy_closed_form(p, n, m)
            if oracle != printed:
                xy_mismatches.append({
                    "n": n, "m": m,
                    "oracle": format_hyp(oracle),
                    "printed": format_hyp(printed)})

    oracle = hyp_add(eng.xy_table(1, 1), {(1, 0, 1): -1}, p)
    printed = printed_xy_bracket_case(p, 1, 1)
    case_mismatches = [] if oracle == printed else [{
        "exp_n": 0, "exp_m": 0, "oracle_bracket": format_hyp(oracle),
        "printed": format_hyp(printed)}]

    hx_mismatches = []
    for mm, nn in itertools.product((0, 1), repeat=2):
        hm, xn = p ** mm, p ** nn
        big = HypParams(p, 1 + max(mm, nn))
        # H^(hm) X^(xn) is the basis monomial (0, hm, xn).
        comm = hyp_add({(0, hm, xn): 1},
                       hyp_scale(hx_normal_order(big, hm, xn), -1, p), p)
        printed = {(0, 0, xn): 2} if mm == nn and p > 2 else {}
        if comm != printed:
            hx_mismatches.append({
                "exp_m": mm, "exp_n": nn,
                "oracle": format_hyp(comm), "printed": format_hyp(printed)})

    gm_cap = min(p, 6)
    gm_as_printed = []       # all terms on index m+n-1, as literally printed
    gm_digit_corrected = []  # terms on m+n-i
    for a in range(gm_cap):
        for b in range(gm_cap):
            oracle = multiplicative_group_product(p, a, b, 2 * gm_cap)
            printed_literal: dict[int, int] = {}
            printed_fixed: dict[int, int] = {}
            for i in range(min(a, b) + 1):
                coeff = (math.factorial(a + b - i)
                         // (math.factorial(a - i) * math.factorial(b - i)
                             * math.factorial(i))) % p
                _acc_mod(printed_literal, a + b - 1, coeff, p)
                _acc_mod(printed_fixed, a + b - i, coeff, p)
            if oracle != printed_literal:
                gm_as_printed.append({"m": a, "n": b,
                                      "oracle": repr(sorted(oracle.items())),
                                      "printed": repr(sorted(printed_literal.items()))})
            if oracle != printed_fixed:
                gm_digit_corrected.append({"m": a, "n": b,
                                           "oracle": repr(sorted(oracle.items())),
                                           "candidate": repr(sorted(printed_fixed.items()))})

    return {
        "p": p,
        "xy_closed_form": {
            "instances": p * p,
            "mismatches": xy_mismatches,
            "agrees": not xy_mismatches,
        },
        "xy_bracket_case": {
            "instances": 1,
            "mismatches": case_mismatches,
            "agrees": not case_mismatches,
        },
        "hx_bracket_case": {
            "instances": 4,
            "mismatches": hx_mismatches,
            "agrees": not hx_mismatches,
        },
        "gm_product": {
            "instances": gm_cap * gm_cap,
            "as_printed_mismatches": gm_as_printed,
            "digit_corrected_mismatches": gm_digit_corrected,
            "as_printed_agrees": not gm_as_printed,
            "digit_corrected_agrees": not gm_digit_corrected,
        },
    }


def erratum_text(report: dict) -> str:
    lines = [f"Closed-form vs oracle comparison at p = {report['p']}"]
    xy = report["xy_closed_form"]
    lines.append(
        f"  XY normal-order closed form: {len(xy['mismatches'])} of "
        f"{xy['instances']} instances disagree with the series oracle")
    for mm in xy["mismatches"][:3]:
        lines.append(f"    X({mm['n']})Y({mm['m']}): oracle {mm['oracle']}"
                     f" | printed {mm['printed']}")
    case = report["xy_bracket_case"]
    lines.append(
        f"  XY bracket special case: {len(case['mismatches'])} of "
        f"{case['instances']} instances disagree")
    hx = report["hx_bracket_case"]
    lines.append(
        f"  HX bracket special case: {len(hx['mismatches'])} of "
        f"{hx['instances']} instances disagree")
    for mm in hx["mismatches"][:2]:
        lines.append(f"    [H(p^{mm['exp_m']}), X(p^{mm['exp_n']})]: oracle "
                     f"{mm['oracle']} | printed {mm['printed']}")
    gm = report["gm_product"]
    lines.append(
        f"  Multiplicative-group product, subscripts as printed: "
        f"{len(gm['as_printed_mismatches'])} of {gm['instances']} disagree; "
        f"digit-corrected subscripts: "
        f"{len(gm['digit_corrected_mismatches'])} disagree")
    return "\n".join(lines)
