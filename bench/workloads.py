"""The benchmark's three workloads: inputs made from a seed, the measured call,
and the check of its outputs.

Each workload is dominated by layers the other two barely touch or never call
(see NOTES.md), so an optimisation of one layer shows on one workload and is
predicted to change nothing on another.

* ``cleft``: the CLI job ``verify cleft --ell 3 --N 2 --cap 20000``.  It has no
  random input; the seed does not change it.
* ``verma``: the Verma-module oracle of acceptance criterion 8 at
  (ell, N) = (7, 0): for every weight z < 7 and 49 seeded monomial pairs
  (a, b), ``element_matrix(rep, a*b) == monomial_matrix(rep, a) @
  monomial_matrix(rep, b)``.
* ``charp``: the CLI job ``verify charp --p 3 --k 1 --samples 100000`` with a
  seeded ``--seed``.

A job's outputs are reduced to a SHA-256 digest.  The stdout of ``cleft`` and
``charp`` does not depend on the seed, so their digests are compared with the
digests the code printed when this benchmark was defined.  The ``verma`` digest covers the canonical
products and matrices, which depend on the seed; the identity itself is its
correctness check.
"""

from __future__ import annotations

import hashlib
import io
import random
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class Outcome:
    """What one call of a workload produced."""

    exit_code: int
    passed: bool
    digest: str
    inputs_digest: str


@dataclass(frozen=True)
class Workload:
    name: str
    instances: int            # checked instances per call, the unit of ops_per_s
    prepare: Callable[[int], Any]
    run: Callable[[Any], Any]
    judge: Callable[[Any, Any], Outcome]
    expected_digest: str | None


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    from qsl2 import cli
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def _judge_cli(argv: list[str], result: tuple[int, str]) -> Outcome:
    code, text = result
    lines = text.splitlines()
    passed = code == 0 and bool(lines) and lines[-1] == "PASS"
    return Outcome(code, passed, _sha(text), _sha(repr(argv)))


# -- cleft ---------------------------------------------------------------------

CLEFT_ARGV = ["verify", "cleft", "--ell", "3", "--N", "2", "--cap", "20000"]
CLEFT_BASIS = 3 ** 9          # basis monomials of the level-2 algebra at ell = 3


def _cleft_prepare(seed: int) -> list[str]:
    return list(CLEFT_ARGV)


# -- verma ---------------------------------------------------------------------

VERMA_ELL = 7


def _verma_prepare(seed: int) -> list[tuple[int, list]]:
    """For each weight, one pair per value of (E-power of a, F-power of b),
    the two indices that set the size of a*b.  The other four indices are
    seeded shuffles of every value, equally often, so that every seed gives
    about the same amount of work."""
    rng = random.Random(seed)
    ell = VERMA_ELL
    inputs = []
    for z in range(ell):
        cols = []
        for _ in range(4):
            col = list(range(ell)) * ell
            rng.shuffle(col)
            cols.append(col)
        m1, n1, n2, p2 = cols
        sizes = [(p1, m2) for p1 in range(ell) for m2 in range(ell)]
        pairs = [((m1[i], n1[i], p1), (m2, n2[i], p2[i]))
                 for i, (p1, m2) in enumerate(sizes)]
        rng.shuffle(pairs)
        inputs.append((z, pairs))
    return inputs


def _verma_run(inputs) -> list[tuple]:
    # Names are looked up on the modules at call time, so that the traced
    # job's wrappers see these calls.
    from qsl2 import algebra, modules
    params = algebra.uq_params(VERMA_ELL)
    results = []
    for z, pairs in inputs:
        rep = modules.verma(params, z)
        for a, b in pairs:
            prod = algebra.AlgElement.monomial(params, *a) \
                * algebra.AlgElement.monomial(params, *b)
            lhs = modules.element_matrix(rep, prod)
            rhs = modules.monomial_matrix(rep, a) @ modules.monomial_matrix(rep, b)
            results.append((z, a, b, prod, lhs, lhs == rhs))
    return results


def _verma_judge(inputs, results) -> Outcome:
    canon = [(z, a, b, sorted(prod.terms.items()), sorted(lhs.entries.items()))
             for z, a, b, prod, lhs, _ in results]
    passed = len(results) == VERMA_ELL ** 3 \
        and all(ok for *_, ok in results)
    return Outcome(0, passed, _sha(repr(canon)), _sha(repr(inputs)))


# -- charp ---------------------------------------------------------------------

CHARP_SAMPLES = 100000


def _charp_prepare(seed: int) -> list[str]:
    return ["verify", "charp", "--p", "3", "--k", "1",
            "--samples", str(CHARP_SAMPLES), "--seed", str(seed)]


WORKLOADS: dict[str, Workload] = {
    "cleft": Workload(
        "cleft", CLEFT_BASIS, _cleft_prepare, _cli, _judge_cli,
        "d7d881789c3ccc36b99d7303e6f20c1e48e5902b0c6dffc0e60c93a4f6e62de6"),
    "verma": Workload(
        "verma", VERMA_ELL ** 3, _verma_prepare,
        _verma_run, _verma_judge, None),
    "charp": Workload(
        "charp", CHARP_SAMPLES, _charp_prepare, _cli, _judge_cli,
        "6724af97fa223602c1f0bc41f190772e8b1f27b5a4f22e496ad6b9b320bda983"),
}
