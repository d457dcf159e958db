"""Hopf structure of the small quantum group and the comodule structure of
the level-N algebra over it.

The small quantum group u carries

    Delta(E) = E (x) 1 + K (x) E      eps(E) = 0      S(E) = -K^-1 E
    Delta(F) = F (x) K^-1 + 1 (x) F   eps(F) = 0      S(F) = -F K
    Delta(K) = K (x) K                eps(K) = 1      S(K) = K^-1

The antipode formulas are forced by coproduct and counit; they are
machine-verified against the antipode axiom (see hopf_axiom_check) rather
than assumed.

The level-N algebra is a left u-comodule algebra through

    rho(E[i]) = 1 (x) E[i]  (i < N)       rho(E[N]) = E (x) 1 + K (x) E[N]
    rho(F[i]) = 1 (x) F[i]  (i < N)       rho(F[N]) = F (x) K[N]^-1 + 1 (x) F[N]
    rho(K[i]) = 1 (x) K[i]  (i < N)       rho(K[N]) = K (x) K[N]

Its coinvariants recover the level-(N-1) subalgebra, and the section
gamma(F^(a) K^b E^(c)) = F[N]^(a) K[N]^b E[N]^(c) is a colinear,
convolution-invertible cleaving map.
"""

from __future__ import annotations

from .algebra import (AlgebraParams, AlgElement, Monomial, _acc, counit_eps,
                      engine_for, generator, uq_params)
from .cyclotomic import CycNum
from .errors import ResourceCapError
from .linalg import nullspace_of_columns, solve_columns
from .qcomb import q_factorial, q_int


class Tensor2:
    """Sparse element of (small quantum group) (x) (level-N algebra)."""

    __slots__ = ("uparams", "dparams", "terms")

    def __init__(self, uparams: AlgebraParams, dparams: AlgebraParams,
                 terms: dict[tuple[Monomial, Monomial], CycNum] | None = None):
        self.uparams = uparams
        self.dparams = dparams
        self.terms = terms if terms is not None else {}

    @staticmethod
    def unit(uparams: AlgebraParams, dparams: AlgebraParams) -> "Tensor2":
        return Tensor2(uparams, dparams, {((0, 0, 0), (0, 0, 0)): uparams.field.one()})

    @staticmethod
    def of(u_elem: AlgElement, d_elem: AlgElement) -> "Tensor2":
        out: dict[tuple[Monomial, Monomial], CycNum] = {}
        for mu, cu in u_elem.terms.items():
            for md, cd in d_elem.terms.items():
                _acc(out, (mu, md), cu * cd)
        return Tensor2(u_elem.params, d_elem.params, out)

    def _check(self, other: "Tensor2") -> None:
        if self.uparams != other.uparams or self.dparams != other.dparams:
            raise ValueError("tensor factors live over different parameters")

    def __add__(self, other: "Tensor2") -> "Tensor2":
        self._check(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            _acc(out, key, val)
        return Tensor2(self.uparams, self.dparams, out)

    def __sub__(self, other: "Tensor2") -> "Tensor2":
        self._check(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            _acc(out, key, -val)
        return Tensor2(self.uparams, self.dparams, out)

    def scaled(self, factor: CycNum) -> "Tensor2":
        if factor.is_zero():
            return Tensor2(self.uparams, self.dparams, {})
        return Tensor2(self.uparams, self.dparams,
                       {k: v * factor for k, v in self.terms.items()})

    def __mul__(self, other: "Tensor2") -> "Tensor2":
        self._check(other)
        ueng = engine_for(self.uparams)
        deng = engine_for(self.dparams)
        out: dict[tuple[Monomial, Monomial], CycNum] = {}
        for (u1, d1), c1 in self.terms.items():
            for (u2, d2), c2 in other.terms.items():
                c = c1 * c2
                for mu, cu in ueng.mono_mul(u1, u2).items():
                    for md, cd in deng.mono_mul(d1, d2).items():
                        _acc(out, (mu, md), c * cu * cd)
        return Tensor2(self.uparams, self.dparams, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor2):
            return NotImplemented
        return self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        return sorted(self.terms.items())


class _HopfCache:
    """Per-(ell, root, level) tables of coproducts, coactions, and antipodes."""

    def __init__(self, params: AlgebraParams):
        self.dparams = params
        self.uparams = uq_params(params.ell, params.root_exponent)
        self.field = params.field
        self._delta: dict[Monomial, Tensor2] = {}
        self._rho: dict[Monomial, Tensor2] = {}
        self._antipode: dict[Monomial, AlgElement] = {}
        self._delta_pows: dict[tuple[str, int], Tensor2] = {}
        self._rho_top_pows: dict[tuple[str, int], Tensor2] = {}

    # -- coproduct of the small quantum group --------------------------------

    def _delta_gen(self, kind: str) -> Tensor2:
        up = self.uparams
        one = AlgElement.unit(up)
        e, f, k = (generator(up, g, 0) for g in ("E", "F", "K"))
        if kind == "E":
            return Tensor2.of(e, one) + Tensor2.of(k, e)
        if kind == "F":
            return Tensor2.of(f, generator(up, "Kinv", 0)) + Tensor2.of(one, f)
        return Tensor2.of(k, k)

    def _delta_pow(self, kind: str, c: int) -> Tensor2:
        """Coproduct of a divided power E^(c) or F^(c)."""
        key = (kind, c)
        memo = self._delta_pows.get(key)
        if memo is None:
            if c == 0:
                memo = Tensor2.unit(self.uparams, self.uparams)
            else:
                memo = (self._delta_pow(kind, c - 1) * self._delta_gen(kind)) \
                    .scaled(q_int(self.field, c).inverse())
            self._delta_pows[key] = memo
        return memo

    def delta_mono(self, mono: Monomial) -> Tensor2:
        memo = self._delta.get(mono)
        if memo is None:
            a, b, c = mono
            memo = self._delta_pow("F", a)
            if b:
                kb = AlgElement.monomial(self.uparams, 0, b, 0)
                memo = memo * Tensor2.of(kb, kb)
            if c:
                memo = memo * self._delta_pow("E", c)
            self._delta[mono] = memo
        return memo

    # -- coaction of the level-N algebra --------------------------------------

    def _rho_top_gen(self, kind: str) -> Tensor2:
        up, dp = self.uparams, self.dparams
        n = dp.level
        e_u, f_u, k_u = (generator(up, g, 0) for g in ("E", "F", "K"))
        if kind == "E":
            return Tensor2.of(e_u, AlgElement.unit(dp)) + \
                Tensor2.of(k_u, generator(dp, "E", n))
        if kind == "F":
            return Tensor2.of(f_u, generator(dp, "Kinv", n)) + \
                Tensor2.of(AlgElement.unit(up), generator(dp, "F", n))
        return Tensor2.of(k_u, generator(dp, "K", n))

    def _rho_top_pow(self, kind: str, digit: int) -> Tensor2:
        key = (kind, digit)
        memo = self._rho_top_pows.get(key)
        if memo is None:
            if digit == 0:
                memo = Tensor2.unit(self.uparams, self.dparams)
            else:
                memo = (self._rho_top_pow(kind, digit - 1) * self._rho_top_gen(kind)) \
                    .scaled(q_int(self.field, digit).inverse())
            self._rho_top_pows[key] = memo
        return memo

    def rho_mono(self, mono: Monomial) -> Tensor2:
        memo = self._rho.get(mono)
        if memo is None:
            dp = self.dparams
            top_power = dp.ell ** dp.level
            m, n, p = mono
            m_low, m_top = m % top_power, m // top_power
            p_low, p_top = p % top_power, p // top_power
            n_top = n // top_power
            one_u = AlgElement.unit(self.uparams)
            # Low-level letters are coinvariant; the K part contributes a
            # group-like left factor from its top digit only.
            memo = Tensor2.of(one_u, AlgElement.monomial(dp, m_low, 0, 0)) \
                if m_low else Tensor2.unit(self.uparams, dp)
            if m_top:
                memo = memo * self._rho_top_pow("F", m_top)
            if n:
                u_part = AlgElement.monomial(self.uparams, 0, n_top, 0)
                memo = memo * Tensor2.of(u_part, AlgElement.monomial(dp, 0, n, 0))
            if p_low:
                memo = memo * Tensor2.of(one_u, AlgElement.monomial(dp, 0, 0, p_low))
            if p_top:
                memo = memo * self._rho_top_pow("E", p_top)
            self._rho[mono] = memo
        return memo

    # -- antipode --------------------------------------------------------------

    def antipode_mono(self, mono: Monomial) -> AlgElement:
        memo = self._antipode.get(mono)
        if memo is None:
            up = self.uparams
            a, b, c = mono
            s_e = -(generator(up, "Kinv", 0) * generator(up, "E", 0))
            s_f = -(generator(up, "F", 0) * generator(up, "K", 0))
            # Antihomomorphism: S(F^(a) K^b E^(c)) = S(E)^(c) K^-b S(F)^(a).
            result = (s_e ** c) * AlgElement.monomial(up, 0, (-b) % up.ell, 0) \
                * (s_f ** a)
            scale = (q_factorial(self.field, a) * q_factorial(self.field, c)).inverse()
            memo = result.scaled(scale)
            self._antipode[mono] = memo
        return memo


_CACHES: dict[tuple[int, int, int], _HopfCache] = {}


def _cache(params: AlgebraParams) -> _HopfCache:
    key = (params.ell, params.root_exponent, params.level)
    cache = _CACHES.get(key)
    if cache is None:
        cache = _HopfCache(params)
        _CACHES[key] = cache
    return cache


def uq_coproduct(x: AlgElement) -> Tensor2:
    """Coproduct on the small quantum group, extended multiplicatively."""
    if x.params.level != 0:
        raise ValueError("the coproduct lives on the level-0 algebra")
    cache = _cache(x.params)
    out = Tensor2(cache.uparams, cache.uparams)
    for mono, coeff in x.terms.items():
        out = out + cache.delta_mono(mono).scaled(coeff)
    return out


def uq_antipode(x: AlgElement) -> AlgElement:
    """Antipode on the small quantum group, extended antimultiplicatively."""
    if x.params.level != 0:
        raise ValueError("the antipode lives on the level-0 algebra")
    cache = _cache(x.params)
    out = AlgElement.zero(x.params)
    for mono, coeff in x.terms.items():
        out = out + cache.antipode_mono(mono).scaled(coeff)
    return out


def rho(x: AlgElement) -> Tensor2:
    """The comodule-algebra coaction; at level 0 it is the coproduct."""
    if x.params.level == 0:
        return uq_coproduct(x)
    cache = _cache(x.params)
    out = Tensor2(cache.uparams, cache.dparams)
    for mono, coeff in x.terms.items():
        out = out + cache.rho_mono(mono).scaled(coeff)
    return out


def gamma(u_elem: AlgElement, params: AlgebraParams) -> AlgElement:
    """The cleaving section: basis-wise, push every letter to the top level."""
    if u_elem.params.level != 0:
        raise ValueError("the section starts from the level-0 algebra")
    shift = params.ell ** params.level
    out: dict[Monomial, CycNum] = {}
    for (a, b, c), coeff in u_elem.terms.items():
        _acc(out, (a * shift, b * shift, c * shift), coeff)
    return AlgElement(params, out)


def u_basis(uparams: AlgebraParams):
    ell = uparams.ell
    for a in range(ell):
        for b in range(ell):
            for c in range(ell):
                yield (a, b, c)


def is_coinvariant(x: AlgElement) -> bool:
    """Whether rho(x) = 1 (x) x."""
    expected = Tensor2(_cache(x.params).uparams, x.params,
                       {((0, 0, 0), mono): c for mono, c in x.terms.items()})
    return rho(x) == expected


def coinvariants(params: AlgebraParams, size_cap: int = 1000):
    """Basis of {x : rho(x) = 1 (x) x}, by exact nullspace computation.

    The solve splits into blocks along the Z-degree (deg E[i] = ell^i on the
    algebra side, deg E = ell^N on the comodule side), which rho preserves.
    Returns (basis, report); the report carries the dimension count.
    """
    if params.level < 1:
        raise ValueError("coinvariants need level >= 1")
    dim = params.bound ** 3
    if dim > size_cap:
        raise ResourceCapError(
            f"coinvariant solve needs dimension {dim}, above the cap {size_cap}")
    cache = _cache(params)
    bound = params.bound
    blocks: dict[int, list[Monomial]] = {}
    for m in range(bound):
        for n in range(bound):
            for p in range(bound):
                blocks.setdefault(p - m, []).append((m, n, p))
    field = params.field
    basis: list[AlgElement] = []
    for deg in sorted(blocks):
        monos = blocks[deg]
        columns = []
        for mono in monos:
            col = dict(cache.rho_mono(mono).terms)
            _acc(col, ((0, 0, 0), mono), -field.one())
            columns.append(col)
        for vec in nullspace_of_columns(columns, field):
            basis.append(AlgElement(params, {monos[i]: v for i, v in vec.items()}))
    report = {"dimension": len(basis),
              "expected": params.ell ** (3 * params.level)}
    return basis, report


# -- convolution algebra --------------------------------------------------------


def unit_counit_map(params: AlgebraParams):
    """The convolution identity: x |-> eps(x) 1."""
    unit = AlgElement.unit(params)
    zero = AlgElement.zero(params)

    def f(mono: Monomial) -> AlgElement:
        a, _, c = mono
        return unit if a == 0 and c == 0 else zero
    return f


def convolve(f, g, params: AlgebraParams) -> dict[Monomial, AlgElement]:
    """Convolution product of linear maps u -> level-N algebra, tabulated on
    the PBW basis of u."""
    cache = _cache(params)
    out: dict[Monomial, AlgElement] = {}
    for mono in u_basis(cache.uparams):
        acc = AlgElement.zero(params)
        for (u1, u2), coeff in cache.delta_mono(mono).terms.items():
            acc = acc + (f(u1) * g(u2)).scaled(coeff)
        out[mono] = acc
    return out


def element_inverse(a: AlgElement) -> AlgElement:
    """Two-sided inverse of an algebra element, when one exists.

    Pure K-monomials invert by negating digits; otherwise an exact linear
    solve of x * a = 1 runs over the full basis (desk scale only) and the
    candidate is confirmed on both sides.
    """
    params = a.params
    ell = params.ell
    if len(a.terms) == 1:
        (mono, coeff), = a.terms.items()
        m, n, p = mono
        if m == 0 and p == 0:
            inv_n, power, rest = 0, 1, n
            while rest:
                rest, d = divmod(rest, ell)
                inv_n += ((-d) % ell) * power
                power *= ell
            return AlgElement.monomial(params, 0, inv_n, 0, coeff=coeff.inverse())
    if counit_eps(a).is_zero():
        raise ZeroDivisionError("element has counit zero, hence no inverse")
    bound = params.bound
    if bound ** 3 > 4000:
        raise ResourceCapError("element inversion above the desk-scale cap")
    monos = [(m, n, p) for m in range(bound)
             for n in range(bound) for p in range(bound)]
    index = {mono: i for i, mono in enumerate(monos)}
    columns = []
    for mono in monos:
        base = AlgElement(params, {mono: params.field.one()})
        columns.append({index[m2]: c2 for m2, c2 in (base * a).terms.items()})
    sol = solve_columns(columns, {index[(0, 0, 0)]: params.field.one()},
                        params.field)
    if sol is None:
        raise ZeroDivisionError("element is not invertible")
    x = AlgElement(params, {monos[i]: v for i, v in sol.items()})
    if (a * x) != AlgElement.unit(params):
        raise ZeroDivisionError("element has a one-sided inverse only")
    return x


def convolution_inverse(f, params: AlgebraParams):
    """Convolution inverse of a linear map from u to the level-N algebra.

    Solved triangularly along the coradical filtration: group-likes first
    (f must be invertible there; the failing group-like is named otherwise),
    then increasing E/F-degree.  For x = F^(a) K^b E^(c), the coproduct has
    exactly one summand whose left factor is group-like, namely
    K^(b+c) (x) x itself; peeling it off determines the inverse on x from
    already-known lower-degree values.
    """
    cache = _cache(params)
    ell = params.ell
    g: dict[Monomial, AlgElement] = {}
    group_inverse: dict[int, AlgElement] = {}
    for b in range(ell):
        try:
            group_inverse[b] = element_inverse(f((0, b, 0)))
        except ZeroDivisionError as exc:
            raise ZeroDivisionError(
                f"map is not invertible on the group-like K^{b}") from exc
        g[(0, b, 0)] = group_inverse[b]
    for degree in range(1, 2 * ell - 1):
        for a in range(max(0, degree - ell + 1), min(degree, ell - 1) + 1):
            c = degree - a
            for b in range(ell):
                mono = (a, b, c)
                lead_k = (b + c) % ell
                rest = AlgElement.zero(params)
                lead_coeff = None
                for (u1, u2), coeff in cache.delta_mono(mono).terms.items():
                    if u2 == mono and u1 == (0, lead_k, 0):
                        lead_coeff = coeff
                        continue
                    known = g.get(u2)
                    if known is None:
                        raise AssertionError("coradical filtration order violated")
                    rest = rest + (f(u1) * known).scaled(coeff)
                if lead_coeff is None:
                    raise AssertionError("leading coproduct term missing")
                solved = group_inverse[lead_k] * (-rest)
                g[mono] = solved.scaled(lead_coeff.inverse())
    return lambda mono: g[mono]


# -- axiom checks ---------------------------------------------------------------


def _tensor3_delta_left(t: Tensor2, cache: _HopfCache) -> dict:
    """(Delta (x) id) applied to an element of u (x) A."""
    out: dict = {}
    for (u, d), coeff in t.terms.items():
        for (u1, u2), c in cache.delta_mono(u).terms.items():
            _acc(out, (u1, u2, d), coeff * c)
    return out


def _tensor3_rho_right(t: Tensor2, cache: _HopfCache) -> dict:
    """(id (x) rho) applied to an element of u (x) A."""
    out: dict = {}
    for (u, d), coeff in t.terms.items():
        inner = cache.rho_mono(d) if cache.dparams.level > 0 \
            else cache.delta_mono(d)
        for (u2, d2), c in inner.terms.items():
            _acc(out, (u, u2, d2), coeff * c)
    return out


def _counit_left(t: Tensor2) -> AlgElement:
    """(eps (x) id) applied to an element of u (x) A."""
    out: dict[Monomial, CycNum] = {}
    for ((a, _, c), d), coeff in t.terms.items():
        if a == 0 and c == 0:
            _acc(out, d, coeff)
    return AlgElement(t.dparams, out)


def hopf_axiom_check(params: AlgebraParams) -> dict:
    """Machine verification of the Hopf axioms of u and, for level >= 1,
    the comodule-algebra axioms of the coaction.

    Returns a JSON-compatible report with failure counts per axiom.
    """
    cache = _cache(params)
    up = cache.uparams
    field = params.field
    report: dict = {"ell": params.ell, "level": params.level, "checks": {}}

    def run(name, instances, test):
        failures = []
        total = 0
        for inst in instances:
            total += 1
            if not test(inst):
                failures.append(repr(inst))
        report["checks"][name] = {
            "instances": total, "failures": failures, "pass": not failures}

    u_monos = list(u_basis(up))

    def coassoc(mono):
        d = cache.delta_mono(mono)
        return _tensor3_delta_left(d, cache) == _tensor3_rho_right(
            Tensor2(up, up, dict(d.terms)), _cache(up))

    run("coassociativity", u_monos, coassoc)

    def counit_both(mono):
        d = cache.delta_mono(mono)
        left = _counit_left(Tensor2(up, up, dict(d.terms)))
        right: dict[Monomial, CycNum] = {}
        for (u1, u2), coeff in d.terms.items():
            a, _, c = u2
            if a == 0 and c == 0:
                _acc(right, u1, coeff)
        base = {mono: field.one()}
        return left.terms == base and right == base

    run("counit", u_monos, counit_both)

    def antipode_both(mono):
        x = AlgElement(up, {mono: field.one()})
        d = cache.delta_mono(mono)
        left = AlgElement.zero(up)
        right = AlgElement.zero(up)
        for (u1, u2), coeff in d.terms.items():
            s1 = cache.antipode_mono(u1)
            s2 = cache.antipode_mono(u2)
            left = left + (s1 * AlgElement(up, {u2: field.one()})).scaled(coeff)
            right = right + (AlgElement(up, {u1: field.one()}) * s2).scaled(coeff)
        target = AlgElement.unit(up).scaled(counit_eps(x))
        return left == target and right == target

    run("antipode", u_monos, antipode_both)

    if params.level >= 1:
        d_monos = [(m, n, p) for m in range(params.bound)
                   for n in range(params.bound) for p in range(params.bound)]

        def coaction_coassoc(mono):
            r = cache.rho_mono(mono)
            return _tensor3_delta_left(r, cache) == _tensor3_rho_right(r, cache)

        run("coaction_coassociativity", d_monos, coaction_coassoc)

        def coaction_counit(mono):
            r = cache.rho_mono(mono)
            return _counit_left(r).terms == {mono: field.one()}

        run("coaction_counit", d_monos, coaction_counit)

        gens = [(kind, i) for i in range(params.level + 1)
                for kind in ("E", "F", "K", "Kinv")]

        def rho_multiplicative(pair):
            (k1, i1), (k2, i2) = pair
            x = generator(params, k1, i1)
            y = generator(params, k2, i2)
            return rho(x * y) == rho(x) * rho(y)

        run("coaction_multiplicative",
            [(g1, g2) for g1 in gens for g2 in gens], rho_multiplicative)

    report["pass"] = all(c["pass"] for c in report["checks"].values())
    return report


def gamma_colinear(params: AlgebraParams) -> bool:
    """Whether rho(gamma(x)) = (id (x) gamma) Delta(x) on the whole u basis."""
    cache = _cache(params)
    up = cache.uparams
    for mono in u_basis(up):
        x = AlgElement(up, {mono: params.field.one()})
        lhs = rho(gamma(x, params))
        rhs_terms: dict = {}
        for (u1, u2), coeff in cache.delta_mono(mono).terms.items():
            g2 = gamma(AlgElement(up, {u2: params.field.one()}), params)
            for md, cd in g2.terms.items():
                _acc(rhs_terms, (u1, md), coeff * cd)
        if lhs.terms != rhs_terms:
            return False
    return True
