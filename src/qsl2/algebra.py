"""The level-N quantum distribution algebra of sl2 at an odd root of unity.

Generators E[i], F[i], K[i] for 0 <= i <= N, subject to:

  * the K[i] commute with everything up to scalars and have order ell:
    K[i] E[j] = lam^(2 delta_ij) E[j] K[i],  K[i] F[j] = lam^(-2 delta_ij) F[j] K[i];
  * E's commute among themselves, F's likewise, and E[i] F[j] = F[j] E[i] for i != j;
  * (E[i])^ell = (F[i])^ell = 0;
  * the level-j bracket
        E[j] F[j] - F[j] E[j] = (K[j] - K[j]^-1)/(lam - lam^-1).

The bracket's canonical form was chosen by exhaustive analysis: any system
of lower-level correction terms on its right side that keeps the universal
highest-weight modules well defined, the comodule map multiplicative, and
normal forms associative spans a gauge family that none of the observable
structure (characters, simple dimensions, coinvariants, the tensor
factorization of simples) can distinguish; the empty correction sum is the
unique parameter-free member, uniform in (ell, level, root choice).

Elements are stored on the normal basis F^(m) K^(n) E^(p) with
0 <= m, n, p < ell^(N+1): m and p are ell-adic multi-indices of divided powers
F^(m) = prod_i F[i]^(m_i)/[m_i]! (same for E), and n collects the K digits.
A monomial is the integer triple (m, n, p).

With no lower-level corrections in the brackets, the levels commute and the
algebra is the (N+1)-fold tensor power of u on this digit basis: digit i of
(m, n, p) is a monomial of the i-th tensor factor.  Multiplication therefore
needs one memoized single-digit kernel ef_single(a, b) = normal form of
E^(a) F^(b) in u, computed by induction on a + b from the level-0 bracket.
E^(p) F^(m) for multi-indices is the digitwise product of those tables, and
everything else (K twists, divided-power merges) is a closed-form scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycField, CycNum
from .qcomb import gen_q_binom, q_int, k_binom_laurent, to_digits

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

    @property
    def field(self) -> CycField:
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

    Keys and memo tables are level-independent; the level only bounds which
    monomials a caller may form.
    """

    def __init__(self, ell: int, root_exponent: int):
        self.ell = ell
        self.field = CycField(ell, root_exponent)
        self._ef: dict[tuple[int, int], dict[Monomial, CycNum]] = {}
        self._collide: dict[tuple[int, int], dict[Monomial, CycNum]] = {}
        self._digs: dict[int, tuple[int, ...]] = {}

    # -- digit helpers ----------------------------------------------------

    def digits(self, value: int) -> tuple[int, ...]:
        digs = self._digs.get(value)
        if digs is None:
            digs = to_digits(value, self.ell)
            self._digs[value] = digs
        return digs

    def digit(self, value: int, i: int) -> int:
        d = self.digits(value)
        return d[i] if i < len(d) else 0

    def k_add(self, *parts: int) -> int:
        """Digitwise sum mod ell of K multi-indices."""
        width = 0
        for v in parts:
            if v:
                width = max(width, len(self.digits(v)))
        total = 0
        power = 1
        for i in range(width):
            s = sum(self.digit(v, i) for v in parts) % self.ell
            total += s * power
            power *= self.ell
        return total

    def _k_pair(self, n: int, x: int) -> int:
        """Sum over levels of n_i * x_i (exponent pairing for K twists)."""
        dn, dx = self.digits(n), self.digits(x)
        return sum(a * b for a, b in zip(dn, dx))

    # -- the single-digit kernel -------------------------------------------

    def bracket_tail(self) -> dict[Monomial, CycNum]:
        """E F - F E in u, in normal form: (K - K^-1)/(lam - lam^-1).

        Every consistent choice of lower-level correction terms for the
        level-j bracket (consistent = the universal highest-weight modules
        exist, the coaction is multiplicative, and normal forms are
        associative) differs from this one by a gauge family that no
        observable structure distinguishes; the empty correction sum is the
        unique uniform, parameter-free member, and it makes the level
        subalgebras pairwise commuting copies of the small quantum group.
        """
        inv = (self.field.lam() - self.field.lambda_pow(-1)).inverse()
        return {(0, 1, 0): inv, (0, self.ell - 1, 0): -inv}

    def ef_single(self, a: int, b: int) -> dict[Monomial, CycNum]:
        """Normal form of E^(a) * F^(b) in u, 0 <= a, b < ell."""
        key = (a, b)
        memo = self._ef.get(key)
        if memo is not None:
            return memo
        if a == 0:
            out = {(b, 0, 0): self.field.one()}
        elif b == 0:
            out = {(0, 0, a): self.field.one()}
        elif a == 1:
            # E F^(b) = (1/[b]) (F * E F^(b-1) + tail * F^(b-1))
            out = {}
            for mono, coeff in self.ef_single(1, b - 1).items():
                for m2, c2 in self.mono_mul((1, 0, 0), mono).items():
                    _acc(out, m2, coeff * c2)
            for mono, coeff in self.bracket_tail().items():
                for m2, c2 in self.mono_mul(mono, (b - 1, 0, 0)).items():
                    _acc(out, m2, coeff * c2)
            out = _scale(out, q_int(self.field, b).inverse())
        else:
            # E^(a) F^(b) = (1/[a]) E * (E^(a-1) F^(b))
            out = {}
            for mono, coeff in self.ef_single(a - 1, b).items():
                for m2, c2 in self.mono_mul((0, 0, 1), mono).items():
                    _acc(out, m2, coeff * c2)
            out = _scale(out, q_int(self.field, a).inverse())
        self._ef[key] = out
        return out

    # -- the level-N product ------------------------------------------------

    def collide(self, p: int, m: int) -> dict[Monomial, CycNum]:
        """Normal form of E^(p) * F^(m) for arbitrary multi-indices.

        Levels commute, so E^(p) F^(m) is the product over digits i of
        E[i]^(p_i) F[i]^(m_i): each digit's ef_single terms go into digit
        position i, and their coefficients multiply.
        """
        if p == 0 or m == 0:
            return {(m, 0, p): self.field.one()}
        key = (p, m)
        memo = self._collide.get(key)
        if memo is not None:
            return memo
        out = {(0, 0, 0): self.field.one()}
        power = 1
        while p or m:
            p, a = divmod(p, self.ell)
            m, b = divmod(m, self.ell)
            if a and b:
                out = {(x + dx * power, y + dy * power, z + dz * power): c * dc
                       for (x, y, z), c in out.items()
                       for (dx, dy, dz), dc in self.ef_single(a, b).items()}
            else:
                out = {(x + b * power, y, z + a * power): c
                       for (x, y, z), c in out.items()}
            power *= self.ell
        self._collide[key] = out
        return out

    def mono_mul(self, a: Monomial, b: Monomial) -> dict[Monomial, CycNum]:
        """Product of two normal monomials, expanded on the normal basis."""
        a_f, a_k, a_e = a
        b_f, b_k, b_e = b
        field = self.field
        out: dict[Monomial, CycNum] = {}
        for (x, y, z), coeff in self.collide(a_e, b_f).items():
            c_f = gen_q_binom(field, a_f + x, x)
            if c_f.is_zero():
                continue
            c_e = gen_q_binom(field, z + b_e, z)
            if c_e.is_zero():
                continue
            scalar = coeff * c_f * c_e
            if a_k and x:
                scalar = scalar * field.lambda_pow(-2 * self._k_pair(a_k, x))
            if b_k and z:
                scalar = scalar * field.lambda_pow(-2 * self._k_pair(z, b_k))
            _acc(out, (a_f + x, self.k_add(a_k, y, b_k), z + b_e), scalar)
        return out


_ENGINES: dict[tuple[int, int], _Engine] = {}


def engine_for(params: AlgebraParams) -> _Engine:
    key = (params.ell, params.root_exponent)
    eng = _ENGINES.get(key)
    if eng is None:
        eng = _Engine(params.ell, params.root_exponent)
        _ENGINES[key] = eng
    return eng


def _acc(store: dict, key, value: CycNum) -> None:
    old = store.get(key)
    value = value if old is None else old + value
    if value.is_zero():
        store.pop(key, None)
    else:
        store[key] = value


def _scale(store: dict, factor: CycNum) -> dict:
    return {k: v * factor for k, v in store.items()}


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
        self._check(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            _acc(out, mono, -coeff)
        return AlgElement(self.params, out)

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
        result = AlgElement.unit(self.params)
        for _ in range(k):
            result = result * self
        return result

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


def k_monomial(params: AlgebraParams, n: int) -> AlgElement:
    """The K-monomial with digit vector given by n."""
    return AlgElement.monomial(params, 0, n % params.bound, 0)


def k_binom_element(params: AlgebraParams, shift: int, t: int) -> AlgElement:
    """The digitwise K-binomial <K; shift; t> expanded into K monomials."""
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


def multiply(a: AlgElement, b: AlgElement) -> AlgElement:
    return a * b


def basis_monomials(params: AlgebraParams):
    """All (m, n, p) triples of the normal basis, in lexicographic order."""
    bound = params.bound
    for m in range(bound):
        for n in range(bound):
            for p in range(bound):
                yield (m, n, p)


def grading_degree(x: AlgElement) -> int | None:
    """Common Z-degree of all terms (deg E[i] = -deg F[i] = ell^i), or None if mixed."""
    degree = None
    for (m, _, p) in x.terms:
        d = p - m
        if degree is None:
            degree = d
        elif degree != d:
            return None
    return 0 if degree is None else degree


def counit_eps(x: AlgElement) -> CycNum:
    """The augmentation: kills E and F parts, sends every K monomial to 1."""
    result = x.params.field.zero()
    for (m, _, p), coeff in x.terms.items():
        if m == 0 and p == 0:
            result = result + coeff
    return result


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


def bracket_rhs(params: AlgebraParams, j: int) -> AlgElement:
    """Right-hand side of the level-j bracket relation, assembled from basis
    monomials (independently of the multiplication engine's memo tables)."""
    field = params.field
    power = params.ell ** j
    inv = (field.lam() - field.lambda_pow(-1)).inverse()
    return (generator(params, "F", j) * generator(params, "E", j)
            + k_monomial(params, power).scaled(inv)
            - k_monomial(params, (params.ell - 1) * power).scaled(inv))


def relation_residues(params: AlgebraParams) -> list[dict]:
    """LHS - RHS of every defining relation instance, computed via multiply.

    An all-zero report means the normal-form structure constants satisfy
    the presentation.
    """
    ell, level = params.ell, params.level
    field = params.field
    lam2 = field.lambda_pow(2)
    lam_neg2 = field.lambda_pow(-2)
    report: list[dict] = []

    def record(name, i, j, residue: AlgElement):
        report.append({
            "relation": name,
            "i": i,
            "j": j,
            "zero": residue.is_zero(),
            "residue_terms": len(residue.terms),
        })

    E = {i: generator(params, "E", i) for i in range(level + 1)}
    F = {i: generator(params, "F", i) for i in range(level + 1)}
    K = {i: generator(params, "K", i) for i in range(level + 1)}
    for i in range(level + 1):
        for j in range(level + 1):
            record("k_commute", i, j, K[i] * K[j] - K[j] * K[i])
            twist = lam2 if i == j else field.one()
            record("k_twist_e", i, j, K[i] * E[j] - (E[j] * K[i]).scaled(twist))
            twist = lam_neg2 if i == j else field.one()
            record("k_twist_f", i, j, K[i] * F[j] - (F[j] * K[i]).scaled(twist))
            record("e_commute", i, j, E[i] * E[j] - E[j] * E[i])
            record("f_commute", i, j, F[i] * F[j] - F[j] * F[i])
            if i != j:
                record("ef_commute", i, j, E[i] * F[j] - F[j] * E[i])
        record("k_order", i, i, K[i] ** ell - AlgElement.unit(params))
        record("e_nilpotent", i, i, E[i] ** ell)
        record("f_nilpotent", i, i, F[i] ** ell)
        record("ef_bracket", i, i, E[i] * F[i] - bracket_rhs(params, i))
    return report


def all_residues_zero(report: list[dict]) -> bool:
    return all(entry["zero"] for entry in report)
