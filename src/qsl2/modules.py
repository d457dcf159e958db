"""Highest-weight representations of the level-N algebra.

A representation is a read-only mapping of exact matrices, one per
generator.  The universal highest-weight module of weight z has basis (v_t)
indexed by 0 <= t < ell^(N+1) and action

    E[i] v_t = [z_i + 1 - t_i] v_(t - ell^i)   (0 if t_i = 0)
    F[i] v_t = [t_i + 1] v_(t + ell^i)
    K[i] v_t = lam^(z_i - 2 t_i) v_t

with ell-adic digits z_i, t_i.  Because 2 is invertible mod odd ell, the map
t -> (z_i - 2 t_i mod ell) is injective, so all weight spaces are lines and
every submodule is spanned by a subset of the v_t.  The simple quotient is
therefore computed by reachability: v_t survives iff v_0 is reachable from
v_t along single-generator moves with nonzero scalars, the nonzero entries
of the universal module's matrices.  That reasoning is not assumed silently:
the weight-injectivity fact is itself covered by the test-suite (characters
of universal modules are multiplicity-free).

The module structures built from other modules read the algebra's own
maps: `tensor_rep` is (u_rep (x) d_rep) o rho, with rho the coaction of
`hopf`, and `pullback_via_pi` is u_rep o pi, with pi `projection_pi`.
"""

from __future__ import annotations

import functools
import operator
import types
from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field

from .algebra import (AlgebraParams, AlgElement, GeneratorId, generator,
                      projection_pi, relations, uq_params)
from .cyclotomic import CycNum, _acc
from .hopf import rho
from .linalg import Mat, nullspace_of_columns
from .qcomb import inverse_q_factorial, q_int, to_digits


@dataclass
class ModuleRep:
    """Exact generator matrices indexed by ("E"|"F"|"K", level).

    The generator matrices never change after construction: `action` is a
    read-only view, and nothing calls `Mat.set` on its matrices.  Every
    construction below builds a new rep, with empty memos.  Two memos rest
    on that invariant: `_factors` holds the digit factors of
    `_digit_factors`, and `_monomials` the matrix of each monomial that
    `monomial_matrix` was asked for.  Both are read-only once stored, and
    neither takes part in equality or repr."""

    params: AlgebraParams
    dim: int
    action: Mapping[GeneratorId, Mat]
    basis_labels: tuple[int, ...]
    _factors: dict[tuple[str, int, int], Mat] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False)
    _monomials: dict[tuple[int, int, int], Mat] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.action = types.MappingProxyType(dict(self.action))

    def mat(self, kind: str, i: int) -> Mat:
        """The matrix of the generator E, F or K at level i; K^-1 acts by
        the monomial matrix of K^(ell-1) (see `rep_relation_check`)."""
        return self.action[(kind, i)]

    def generator_ids(self):
        for i in range(self.params.level + 1):
            for kind in ("E", "F", "K"):
                yield (kind, i)


def verma(params: AlgebraParams, z: int) -> ModuleRep:
    """The universal highest-weight module of weight z, dimension ell^(N+1)."""
    bound = params.bound
    if not 0 <= z < bound:
        raise ValueError(f"weight {z} outside [0, {bound})")
    zdig = to_digits(z, params.ell, params.level + 1)
    field = params.field
    dim = bound
    action: dict[GeneratorId, Mat] = {}
    for i in range(params.level + 1):
        step = params.ell ** i
        e_mat = Mat.zero(dim, dim, field)
        f_mat = Mat.zero(dim, dim, field)
        k_mat = Mat.zero(dim, dim, field)
        for t in range(dim):
            ti = (t // step) % params.ell
            if ti > 0:
                scalar = q_int(field, zdig[i] + 1 - ti)
                e_mat.set(t - step, t, scalar)
            if ti < params.ell - 1:
                f_mat.set(t + step, t, q_int(field, ti + 1))
            k_mat.set(t, t, field.lambda_pow(zdig[i] - 2 * ti))
        action[("E", i)] = e_mat
        action[("F", i)] = f_mat
        action[("K", i)] = k_mat
    return ModuleRep(params, dim, action, tuple(range(dim)))


def _support_of_simple(big: ModuleRep) -> list[int]:
    """Labels t from which v_0 is reachable along nonzero generator moves,
    read off the matrices of the universal module `big`: `Mat.set` drops
    zeros, so an entry (u, t) is present iff the move t -> u has a nonzero
    scalar.  K is diagonal and adds no moves."""
    # Predecessor search from 0: t reaches u iff u is reachable from t.
    moves_into: dict[int, list[int]] = {}
    for mat in big.action.values():
        for u, t in mat.entries:
            moves_into.setdefault(u, []).append(t)
    reachable = {0}
    frontier = [0]
    while frontier:
        for t in moves_into.get(frontier.pop(), ()):
            if t not in reachable:
                reachable.add(t)
                frontier.append(t)
    return sorted(reachable)


def simple(params: AlgebraParams, p: int) -> ModuleRep:
    """The simple highest-weight module of weight p: the universal module
    modulo the labels that cannot reach v_0."""
    big = verma(params, p)
    support = _support_of_simple(big)
    index = {t: k for k, t in enumerate(support)}
    dim = len(support)
    action: dict[GeneratorId, Mat] = {}
    for gid, mat in big.action.items():
        small = Mat.zero(dim, dim, params.field)
        for (r, c), v in mat.entries.items():
            ri, ci = index.get(r), index.get(c)
            if ri is not None and ci is not None:
                small.set(ri, ci, v)
        action[gid] = small
    return ModuleRep(params, dim, action, tuple(support))


def uq_simple(ell: int, z: int, root_exponent: int = 1) -> ModuleRep:
    """Simple module of the small quantum group; dimension z + 1."""
    return simple(uq_params(ell, root_exponent), z)


def _digit_factors(rep: ModuleRep, kind: str, m: int) -> list[Mat]:
    """One matrix per nonzero ell-adic digit d of m at level i: K[i]^d for
    kind "K", and the divided power E[i]^d/[d]! or F[i]^d/[d]! otherwise.

    Each factor is built once per rep and kept in `rep._factors` under
    (kind, i, d); the generator matrices it comes from never change."""
    memo = rep._factors
    factors = []
    for i, d in enumerate(to_digits(m, rep.params.ell)):
        if not d:
            continue
        factor = memo.get((kind, i, d))
        if factor is None:
            factor = rep.mat(kind, i).pow(d)
            if kind != "K" and d > 1:  # [1]! = 1
                factor = factor.scaled(inverse_q_factorial(rep.params.field, d))
            memo[(kind, i, d)] = factor
        factors.append(factor)
    return factors


def monomial_matrix(rep: ModuleRep, mono: tuple[int, int, int]) -> Mat:
    """Matrix of F^(m) K^n E^(p): the product of its memoized nonzero digit
    factors, built once per rep and kept in `rep._monomials`.  The result is
    shared with the rep (and may be a generator matrix or a stored factor,
    when only one digit is nonzero), so it is read-only."""
    memo = rep._monomials
    mat = memo.get(mono)
    if mat is not None:
        return mat
    m, n, p = mono
    if max(mono) >= rep.params.bound:
        raise ValueError(f"monomial indices must lie in [0, {rep.params.bound})")
    factors = (_digit_factors(rep, "F", m) + _digit_factors(rep, "K", n)
               + _digit_factors(rep, "E", p))
    mat = (functools.reduce(operator.matmul, factors) if factors
           else Mat.identity(rep.dim, rep.params.field))
    memo[mono] = mat
    return mat


def element_matrix(rep: ModuleRep, x: AlgElement) -> Mat:
    """Matrix of x: the sum over its terms c m of c times the matrix of m,
    accumulated entry by entry into one new matrix, which the caller owns."""
    if x.params != rep.params:
        raise ValueError(f"an element of {x.params} cannot act on a module of {rep.params}")
    entries: dict[tuple[int, int], CycNum] = {}
    for mono, coeff in x.terms.items():
        for key, v in monomial_matrix(rep, mono).entries.items():
            _acc(entries, key, v * coeff)
    return Mat(rep.dim, rep.dim, rep.params.field, entries)


def weight_of_coordinate(rep: ModuleRep, idx: int) -> tuple[int, ...]:
    """Residues (p_i) with K[i] acting by lam^(p_i) on the idx-th basis vector."""
    field = rep.params.field
    out = []
    for i in range(rep.params.level + 1):
        d = rep.mat("K", i).get(idx, idx)
        for e in range(rep.params.ell):
            if d == field.lambda_pow(e):
                out.append(e)
                break
        else:
            raise ValueError("K-matrix entry is not a power of the root")
    return tuple(out)


def character(rep: ModuleRep) -> dict[tuple[int, ...], int]:
    """Weight-multiplicity table; multiplicities sum to the dimension."""
    table: dict[tuple[int, ...], int] = {}
    for idx in range(rep.dim):
        w = weight_of_coordinate(rep, idx)
        table[w] = table.get(w, 0) + 1
    return table


def primitive_vectors(rep: ModuleRep) -> list[tuple[dict[int, CycNum], tuple[int, ...]]]:
    """Basis of the joint kernel of the E-matrices, organized by weight."""
    by_weight: dict[tuple[int, ...], list[int]] = {}
    for idx in range(rep.dim):
        by_weight.setdefault(weight_of_coordinate(rep, idx), []).append(idx)
    e_mats = [rep.mat("E", i) for i in range(rep.params.level + 1)]
    out = []
    for w in sorted(by_weight):
        coords = by_weight[w]
        columns = []
        for c in coords:
            col: dict = {}
            for lvl, mat in enumerate(e_mats):
                for (r, cc), v in mat.entries.items():
                    if cc == c:
                        col[(lvl, r)] = v
            columns.append(col)
        for vec in nullspace_of_columns(columns, rep.params.field):
            out.append(({coords[j]: v for j, v in vec.items()}, w))
    return out


def pullback_via_pi(u_rep: ModuleRep, params: AlgebraParams) -> ModuleRep:
    """Make a small-quantum-group module a level-N module through the
    level-lowering map: each generator g acts by u_rep(pi(g))."""
    if u_rep.params.level != 0:
        raise ValueError("pullback starts from a level-0 module")
    if (u_rep.params.ell, u_rep.params.root_exponent) != (params.ell, params.root_exponent):
        raise ValueError("incompatible root-of-unity data")
    action = {(kind, i): element_matrix(u_rep, projection_pi(generator(params, kind, i), 0))
              for i in range(params.level + 1) for kind in ("E", "F", "K")}
    return ModuleRep(params, u_rep.dim, action, u_rep.basis_labels)


def extend_by_trivial_top(rep: ModuleRep) -> ModuleRep:
    """Lift a level-(N-1) module to level N: the new E and F act by zero
    and the new K by the identity."""
    params = rep.params
    target = AlgebraParams(params.ell, params.level + 1, params.root_exponent)
    field = params.field
    action = dict(rep.action)
    action[("E", target.level)] = Mat.zero(rep.dim, rep.dim, field)
    action[("F", target.level)] = Mat.zero(rep.dim, rep.dim, field)
    action[("K", target.level)] = Mat.identity(rep.dim, field)
    return ModuleRep(target, rep.dim, action, rep.basis_labels)


def tensor_rep(u_rep: ModuleRep, d_rep: ModuleRep) -> ModuleRep:
    """Tensor a small-quantum-group module onto a level-N module through the
    comodule structure: each generator g acts by the sum, over the terms
    c (u1 (x) d1) of rho(g), of c u_rep(u1) (x) d_rep(d1)."""
    if u_rep.params.level != 0:
        raise ValueError("left tensor factor must be a level-0 module")
    params = d_rep.params
    if (u_rep.params.ell, u_rep.params.root_exponent) != (params.ell, params.root_exponent):
        raise ValueError("incompatible root-of-unity data")
    dim = u_rep.dim * d_rep.dim
    action: dict[GeneratorId, Mat] = {}
    for gid in d_rep.generator_ids():
        entries: dict[tuple[int, int], CycNum] = {}
        for (u1, d1), c in rho(generator(params, *gid)).terms.items():
            term = monomial_matrix(u_rep, u1).kron(monomial_matrix(d_rep, d1))
            for key, v in term.entries.items():
                _acc(entries, key, v * c)
        action[gid] = Mat(dim, dim, params.field, entries)
    return ModuleRep(params, dim, action, tuple(range(dim)))


class SteinbergError(Exception):
    """Raised with a counterexample payload when the factorization fails."""

    def __init__(self, message: str, detail: dict):
        super().__init__(message)
        self.detail = detail


@dataclass
class SteinbergResult:
    params: AlgebraParams
    p: int
    p_top: int
    p_rest: int
    dim: int
    intertwiner: Mat = dc_field(repr=False)


def _simple_rest_factor(params: AlgebraParams, p_rest: int) -> ModuleRep:
    """The right tensor factor: the simple of weight p_rest one level down,
    lifted back up with a trivial top level."""
    lower = AlgebraParams(params.ell, params.level - 1, params.root_exponent)
    return extend_by_trivial_top(simple(lower, p_rest))


def steinberg_intertwiner(params: AlgebraParams, p: int) -> SteinbergResult:
    """Explicit isomorphism from the simple of weight p onto
    (small-quantum-group simple of the top digit) (x) (simple of the rest).

    The map sends the highest-weight vector to v0 (x) v0 and each surviving
    F^(t) v0 to F^(t) (v0 (x) v0); bijectivity and equivariance for every
    generator are verified, not assumed.
    """
    if params.level < 1:
        raise ValueError("the tensor factorization needs level >= 1")
    top_power = params.ell ** params.level
    p_top, p_rest = divmod(p, top_power)

    left = simple(params, p)
    u_factor = uq_simple(params.ell, p_top, params.root_exponent)
    d_factor = _simple_rest_factor(params, p_rest)
    right = tensor_rep(u_factor, d_factor)

    if left.dim != right.dim:
        raise SteinbergError("dimension mismatch", {
            "p": p, "simple_dim": left.dim, "tensor_dim": right.dim})

    field = params.field
    # Column t of the intertwiner: F^(t) applied to v0 (x) v0, one digit
    # factor of the tensor rep at a time.
    smat = Mat.zero(right.dim, left.dim, field)
    columns = []
    for col, t in enumerate(left.basis_labels):
        vec = {0: field.one()}
        for factor in _digit_factors(right, "F", t):
            vec = factor.matvec(vec)
        columns.append(vec)
        for r, v in vec.items():
            smat.set(r, col, v)

    if nullspace_of_columns(columns, field):
        raise SteinbergError("intertwiner is not injective", {"p": p})

    for gid in left.generator_ids():
        lhs = smat @ left.mat(*gid)
        rhs = right.mat(*gid) @ smat
        if lhs != rhs:
            diff = lhs - rhs
            raise SteinbergError("intertwiner is not equivariant", {
                "p": p, "generator": gid,
                "residue_entries": len(diff.entries)})
    return SteinbergResult(params, p, p_top, p_rest, left.dim, smat)


def rep_relation_check(rep: ModuleRep) -> list[dict]:
    """Verify every defining relation in `relations` as an exact matrix
    identity, Kinv[i] acting by the matrix of the monomial K[i]^(ell-1)."""
    params = rep.params
    levels = range(params.level + 1)
    gens = [[rep.mat(kind, i) for i in levels] for kind in ("E", "F", "K")]
    kinv = [monomial_matrix(rep, (0, (params.ell - 1) * params.ell ** i, 0))
            for i in levels]
    return [{"relation": name, "i": i, "j": j, "zero": residue.is_zero_matrix(),
             "residue_entries": len(residue.entries)}
            for name, i, j, residue
            in relations(*gens, kinv, Mat.identity(rep.dim, params.field), params.field)]
