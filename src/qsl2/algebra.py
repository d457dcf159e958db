"""The level-N quantum distribution algebra of sl2 at an odd root of unity.

Generators E[i], F[i], K[i] for 0 <= i <= N, subject to:

  * the K[i] commute with everything up to scalars and have order ell:
    K[i] E[j] = lam^(2 delta_ij) E[j] K[i],  K[i] F[j] = lam^(-2 delta_ij) F[j] K[i];
  * E's commute among themselves, F's likewise, and E[i] F[j] = F[j] E[i] for i != j;
  * (E[i])^ell = (F[i])^ell = 0;
  * the level-j bracket
        E[j] F[j] - F[j] E[j] = (K[j] - K[j]^-1)/(lam - lam^-1).

This presentation is written once, in `relations`, which evaluates it in any
ring: `relation_residues` on algebra elements, `modules.rep_relation_check`
on the matrices of a module.

The bracket has no lower-level correction terms, so the package implements
the tensor power u^(x)(N+1) below, which satisfies the abstract's claims (a
u-cleft extension over the level-(N-1) coinvariants, Steinberg-type
factorization of simples).  Those hold for any tensor power, so they do not
show that the paper's algebra lacks cross-level terms; the char-p mirror has
them ([X^(p), Y] = X^(p-1) + H X^(p-1) in Dist(G_2)), and the center tells
the two kinds apart.

Elements are stored on the normal basis F^(m) K^(n) E^(p) with
0 <= m, n, p < ell^(N+1): m and p are ell-adic multi-indices of divided powers
F^(m) = prod_i F[i]^(m_i)/[m_i]! (same for E), and n collects the K digits.
A monomial is the integer triple (m, n, p); its digit i, the triple of base-ell
digits at position i, is a monomial of the small quantum group u.

With no lower-level corrections in the brackets, the levels commute and the
algebra is the (N+1)-fold tensor power of u on this digit basis: a product of
level-N monomials is the digitwise product of level-0 products, merged with
coefficient 1.  The level-0 product rests on ef_single, the normal form of
E^(a) F^(b) in u, derived by induction on a + b from the level-0 bracket.
Every memo table is keyed by single digits, so its size does not grow with
the level.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycField, CycNum, _acc, square_and_multiply
from .qcomb import _inverse_q_den, inverse_q_int, k_binom_laurent, q_binom

Monomial = tuple[int, int, int]
GeneratorId = tuple[str, int]

GENERATOR_KINDS = ("E", "F", "K", "Kinv")


@dataclass(frozen=True)
class AlgebraParams:
    """Root-of-unity order, level, and the choice of primitive root."""

    ell: int
    level: int
    root_exponent: int = 1

    def __post_init__(self):
        if self.ell < 3 or self.ell % 2 == 0:
            raise ValueError(f"ell must be odd and >= 3, got {self.ell}")
        if self.level < 0:
            raise ValueError(f"level must be nonnegative, got {self.level}")
        if math.gcd(self.root_exponent % self.ell, self.ell) != 1:
            raise ValueError("root exponent must be coprime to ell")
        # Exponents congruent mod ell name the same root, hence the same algebra.
        object.__setattr__(self, "root_exponent", self.root_exponent % self.ell)

    @functools.cached_property
    def field(self) -> CycField:
        """Built once per params object; equality and hashing read only the fields."""
        return CycField(self.ell, self.root_exponent)

    @property
    def bound(self) -> int:
        """Monomial indices run over [0, ell^(level+1))."""
        return self.ell ** (self.level + 1)

    def check_generator(self, gen: GeneratorId) -> None:
        kind, i = gen
        if kind not in GENERATOR_KINDS:
            raise ValueError(f"unknown generator kind {kind!r}")
        if not 0 <= i <= self.level:
            raise ValueError(f"generator index {i} exceeds level {self.level}")


def uq_params(ell: int, root_exponent: int = 1) -> AlgebraParams:
    """Parameters of the small quantum group: the level-0 algebra."""
    return AlgebraParams(ell, 0, root_exponent)


class _Engine:
    """Normal-form multiplication engine, shared per (ell, root exponent).

    The memo tables hold level-0 data only: `_ef` maps digits (a, b) to
    E^(a) F^(b), at most (ell-1)^2 keys, and `_collide` maps K-free digit
    pairs to their product in u, at most ell^4 keys.  The level only bounds
    which monomials a caller may form.
    """

    def __init__(self, ell: int, root_exponent: int):
        self.ell = ell
        self.field = CycField(ell, root_exponent)
        self._ef: dict[tuple[int, int], dict[Monomial, CycNum]] = {}
        self._collide: dict[tuple[tuple[int, int], ...], dict[Monomial, CycNum]] = {}

    # -- the single-digit kernel -------------------------------------------

    def bracket_tail(self) -> dict[Monomial, CycNum]:
        """E F - F E in u, in normal form: (K - K^-1)/(lam - lam^-1).

        It carries no lower-level correction terms (the module docstring
        says why), so the level subalgebras are pairwise commuting copies
        of the small quantum group.
        """
        inv = _inverse_q_den(self.field, 1)
        return {(0, 1, 0): inv, (0, self.ell - 1, 0): -inv}

    def ef_single(self, a: int, b: int) -> dict[Monomial, CycNum]:
        """Normal form of E^(a) * F^(b) in u, 0 <= a, b < ell."""
        if a == 0 or b == 0:
            return {(b, 0, a): self.field.one()}
        key = (a, b)
        memo = self._ef.get(key)
        if memo is not None:
            return memo
        if a == 1:
            # E F^(b) = (1/[b]) (F * E F^(b-1) + tail * F^(b-1))
            steps = [((1, 0, 0), m, c) for m, c in self.ef_single(1, b - 1).items()]
            steps += [(m, (b - 1, 0, 0), c) for m, c in self.bracket_tail().items()]
        else:
            # E^(a) F^(b) = (1/[a]) E * (E^(a-1) F^(b))
            steps = [((0, 0, 1), m, c) for m, c in self.ef_single(a - 1, b).items()]
        inv = inverse_q_int(self.field, b if a == 1 else a)
        out = {}
        for left, right, coeff in steps:
            for mono, c in self.mono_mul(left, right).items():
                _acc(out, mono, coeff * c)
        out = {mono: c * inv for mono, c in out.items()}
        self._ef[key] = out
        return out

    # -- level-0 products and their digitwise merge --------------------------

    def collide(self, a: tuple[int, int], b: tuple[int, int]) -> dict[Monomial, CycNum]:
        """Normal form in u of F^(a_f) E^(a_e) * F^(b_f) E^(b_e), for single
        digits a = (a_f, a_e) and b = (b_f, b_e); memoized under (a, b).

        The middle E^(a_e) F^(b_f) is ef_single.  The outer divided powers
        merge by single-digit q-binomials, and F^ell = E^ell = 0 drops every
        term whose merged digit reaches ell.
        """
        key = (a, b)
        memo = self._collide.get(key)
        if memo is not None:
            return memo
        (a_f, a_e), (b_f, b_e) = a, b
        field = self.field
        out = {}
        for (x, y, z), c in self.ef_single(a_e, b_f).items():
            if a_f + x >= self.ell or z + b_e >= self.ell:
                continue
            if a_f and x:
                c = c * q_binom(field, a_f + x, x)
            if z and b_e:
                c = c * q_binom(field, z + b_e, z)
            out[(a_f + x, y, z + b_e)] = c
        self._collide[key] = out
        return out

    def mono_mul(self, a: Monomial, b: Monomial) -> dict[Monomial, CycNum]:
        """Product of two normal monomials, expanded on the normal basis.

        Digit i of the product is the level-0 product of digit i of a with
        digit i of b: the collide table of their F and E digits, with the K
        digits moved outward by K^k F^(x) = lam^(-2kx) F^(x) K^k and
        E^(z) K^k = lam^(-2kz) K^k E^(z).  The levels commute, so the digit
        tables merge with coefficient 1.  The result may be a shared memo
        table and is read-only.
        """
        ell, field = self.ell, self.field
        one = field.one()
        out = None
        power = 1
        while out is None or any(a) or any(b):
            (af, ak, ae), (bf, bk, be) = [v % ell for v in a], [v % ell for v in b]
            a, b = [v // ell for v in a], [v // ell for v in b]
            table = self.collide((af, ae), (bf, be))
            if ak or bk:
                twisted = {}
                for (f, k, e), c in table.items():
                    t = (ak * (f - af) + bk * (e - be)) % ell
                    twisted[(f, (k + ak + bk) % ell, e)] = \
                        c * field.lambda_pow(-2 * t) if t else c
                table = twisted
            if out is None:
                out = table
            else:
                out = {(x + f * power, y + k * power, z + e * power):
                       c if dc == one else c * dc
                       for (x, y, z), c in out.items()
                       for (f, k, e), dc in table.items()}
            power *= ell
        return out


_ENGINES: dict[tuple[int, int], _Engine] = {}


def engine_for(params: AlgebraParams) -> _Engine:
    key = (params.ell, params.root_exponent)
    if key not in _ENGINES:
        _ENGINES[key] = _Engine(*key)
    return _ENGINES[key]


class AlgElement:
    """A sparse exact linear combination of normal monomials."""

    __slots__ = ("params", "terms")

    def __init__(self, params: AlgebraParams, terms: dict[Monomial, CycNum]):
        self.params = params
        self.terms = terms

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(params: AlgebraParams) -> "AlgElement":
        return AlgElement(params, {})

    @staticmethod
    def unit(params: AlgebraParams) -> "AlgElement":
        return AlgElement(params, {(0, 0, 0): params.field.one()})

    @staticmethod
    def monomial(params: AlgebraParams, m: int, n: int, p: int, coeff=None) -> "AlgElement":
        bound = params.bound
        if not (0 <= m < bound and 0 <= n < bound and 0 <= p < bound):
            raise ValueError(f"monomial indices must lie in [0, {bound})")
        c = params.field.one() if coeff is None else coeff
        if isinstance(c, (int, Fraction)):
            c = params.field.rational(c)
        if c.is_zero():
            return AlgElement(params, {})
        return AlgElement(params, {(m, n, p): c})

    # -- ring operations -----------------------------------------------------

    def _check(self, other: "AlgElement") -> None:
        if self.params != other.params:
            raise ValueError(
                f"algebra parameters differ: {self.params} vs {other.params}")

    def __add__(self, other: "AlgElement") -> "AlgElement":
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            _acc(out, mono, coeff)
        return AlgElement(self.params, out)

    def __sub__(self, other: "AlgElement") -> "AlgElement":
        return self + -other

    def __neg__(self) -> "AlgElement":
        return AlgElement(self.params, {m: -c for m, c in self.terms.items()})

    def scaled(self, factor) -> "AlgElement":
        if isinstance(factor, (int, Fraction)):
            factor = self.params.field.rational(factor)
        if factor.is_zero():
            return AlgElement(self.params, {})
        return AlgElement(self.params, {m: c * factor for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scaled(other)
        self._check(other)
        eng = engine_for(self.params)
        out: dict[Monomial, CycNum] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                c = ca * cb
                for mono, coeff in eng.mono_mul(ma, mb).items():
                    _acc(out, mono, c * coeff)
        return AlgElement(self.params, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scaled(other)
        return NotImplemented

    def __pow__(self, k: int) -> "AlgElement":
        if k < 0:
            raise ValueError("negative powers are not defined on elements")
        return square_and_multiply(self, k, AlgElement.unit(self.params))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgElement):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """Terms in lexicographic monomial order (deterministic)."""
        return sorted(self.terms.items())

    def __repr__(self) -> str:
        from .exprs import format_element
        return f"<AlgElement {format_element(self)}>"


# -- generators and named maps ----------------------------------------------


def generator(params: AlgebraParams, kind: str, i: int) -> AlgElement:
    """The generator E[i], F[i], K[i], or Kinv[i] as a basis element."""
    params.check_generator((kind, i))
    power = params.ell ** i
    if kind == "E":
        return AlgElement.monomial(params, 0, 0, power)
    if kind == "F":
        return AlgElement.monomial(params, power, 0, 0)
    if kind == "K":
        return AlgElement.monomial(params, 0, power, 0)
    return AlgElement.monomial(params, 0, (params.ell - 1) * power, 0)


def divided_power(params: AlgebraParams, kind: str, m: int) -> AlgElement:
    """E^(m) or F^(m): the divided-power basis monomial with multi-index m."""
    if kind not in ("E", "F"):
        raise ValueError(f"divided powers exist for E and F only, got {kind!r}")
    if not 0 <= m < params.bound:
        raise ValueError(f"divided-power index {m} outside [0, {params.bound})")
    if kind == "E":
        return AlgElement.monomial(params, 0, 0, m)
    return AlgElement.monomial(params, m, 0, 0)


def k_binom_element(params: AlgebraParams, shift: int, t: int) -> AlgElement:
    """The digitwise K-binomial <K; shift; t> expanded into K monomials,
    for a depth 0 <= t < ell^(N+1); any integer shift."""
    if not 0 <= t < params.bound:
        raise ValueError(f"K-binomial depth {t} outside [0, {params.bound})")
    field, ell = params.field, params.ell
    terms: dict[int, CycNum] = {0: field.one()}
    power = 1
    while t:
        shift, sd = divmod(shift, ell)
        t, td = divmod(t, ell)
        if td:
            new: dict[int, CycNum] = {}
            laurent = k_binom_laurent(field, sd, td)
            for n, coeff in terms.items():
                for b, c in laurent.items():
                    _acc(new, n + (b % ell) * power, coeff * c)
            terms = new
        power *= ell
    return AlgElement(params, {(0, n, 0): c for n, c in terms.items()})


def basis_monomials(params: AlgebraParams):
    """All (m, n, p) triples of the normal basis, in lexicographic order."""
    return itertools.product(range(params.bound), repeat=3)


def counit_mono(mono: Monomial) -> bool:
    """The augmentation of F^(m) K^n E^(p): 1 (True) on a K monomial, else 0."""
    return mono[0] == mono[2] == 0


def projection_pi(x: AlgElement, target_level: int) -> AlgElement:
    """The level-lowering algebra map onto the level-M algebra, M <= N.

    Generators at levels >= N-M shift down by N-M; E and F generators below
    that die and K generators below become 1.  The M = 0 case is the
    quantum analogue of a Frobenius map onto the small quantum group.
    """
    params = x.params
    if not 0 <= target_level <= params.level:
        raise ValueError(
            f"target level {target_level} outside [0, {params.level}]")
    drop = params.level - target_level
    shift = params.ell ** drop
    target = AlgebraParams(params.ell, target_level, params.root_exponent)
    out: dict[Monomial, CycNum] = {}
    for (m, n, p), coeff in x.terms.items():
        if m % shift or p % shift:
            continue  # a killed E/F digit makes the whole monomial vanish
        n_kept = n // shift  # low K digits map to 1 and are dropped
        _acc(out, (m // shift, n_kept, p // shift), coeff)
    return AlgElement(target, out)


def inclusion_iota(x: AlgElement, target_level: int | None = None) -> AlgElement:
    """The level-raising inclusion: identical digit data inside a larger algebra."""
    params = x.params
    target_level = params.level + 1 if target_level is None else target_level
    if target_level < params.level:
        raise ValueError("inclusion cannot lower the level")
    target = AlgebraParams(params.ell, target_level, params.root_exponent)
    return AlgElement(target, dict(x.terms))


# -- relation verification ----------------------------------------------------


def relations(E, F, K, Kinv, one, field: CycField):
    """LHS - RHS of every defining relation instance, as (name, i, j, residue).

    The presentation is written here once.  E, F, K and Kinv hold the images
    of the generators, indexed by level, in any ring whose elements multiply
    with `*`, subtract, and scale by a field element with `scaled`; `one` is
    the ring's unit.  E[i]^ell, F[i]^ell and K[i]^ell are computed by
    `square_and_multiply`.
    """
    lam2, lam_neg2 = field.lambda_pow(2), field.lambda_pow(-2)
    inv = _inverse_q_den(field, 1)
    levels = range(len(E))

    for i in levels:
        for j in levels:
            yield "k_commute", i, j, K[i] * K[j] - K[j] * K[i]
            twist = lam2 if i == j else field.one()
            yield "k_twist_e", i, j, K[i] * E[j] - (E[j] * K[i]).scaled(twist)
            twist = lam_neg2 if i == j else field.one()
            yield "k_twist_f", i, j, K[i] * F[j] - (F[j] * K[i]).scaled(twist)
            yield "e_commute", i, j, E[i] * E[j] - E[j] * E[i]
            yield "f_commute", i, j, F[i] * F[j] - F[j] * F[i]
            if i != j:
                yield "ef_commute", i, j, E[i] * F[j] - F[j] * E[i]
        yield "k_order", i, i, square_and_multiply(K[i], field.ell, one) - one
        yield "e_nilpotent", i, i, square_and_multiply(E[i], field.ell, one)
        yield "f_nilpotent", i, i, square_and_multiply(F[i], field.ell, one)
        yield "ef_bracket", i, i, \
            E[i] * F[i] - (F[i] * E[i] + (K[i] - Kinv[i]).scaled(inv))


def relation_residues(params: AlgebraParams) -> list[dict]:
    """`relations` on the generators as `AlgElement`s, Kinv[i] assembled from
    its basis monomial rather than by the engine.

    An all-zero report means the normal-form structure constants satisfy
    the presentation.
    """
    gens = [[generator(params, kind, i) for i in range(params.level + 1)]
            for kind in GENERATOR_KINDS]
    return [{"relation": name, "i": i, "j": j, "zero": residue.is_zero(),
             "residue_terms": len(residue.terms)}
            for name, i, j, residue
            in relations(*gens, AlgElement.unit(params), params.field)]


def all_residues_zero(report: list[dict]) -> bool:
    return all(entry["zero"] for entry in report)
