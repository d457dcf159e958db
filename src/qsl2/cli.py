"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 refusal by --cap (default 1000), which bounds one quantity per command:
the module dimension ell^(N+1) for rep, the basis monomials checked,
ell^(3(N+1)), for verify hopf, and the columns of one coinvariant block,
ell^3, for verify cleft.  The other suites take no --cap; of them only
verify charp grows with the basis: it indexes all p^(3(k+1)) monomials and
multiplies each by the 3k generators X^(p^i), Y^(p^i), H^(p^i), i < k,
3k*p^(3(k+1)) products for the kernel check.  Its check that pi is
multiplicative holds one basis triple and one pi image per basis index and
frees both tables before the kernel check; of each sampled product it
builds, and memoizes, only the left-table groups that give the terms pi
keeps (by Kummer's theorem, none on most pairs).  The sampled suites draw
indices from `_indices`, the stream of repeated rng.randrange(n): charp
two per pair, qbinom its pairs and then its triples from one stream.
Each verify-only flag is read by some suites only (`VERIFY_FLAGS`): --cap by
hopf and cleft, --p and --k by charp, --samples and --seed by charp and
qbinom.  Giving one of them to any other suite is a usage error.
Global options may also come from environment variables QSL2_ELL, QSL2_N,
QSL2_ROOT_EXPONENT, QSL2_FORMAT (precedence: flag, then environment, then
default).  An invalid value, from a flag or from the environment, is a
usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from itertools import islice

from . import hopf  # looked up at call time, so a replaced hopf function reaches the verify suites
from .algebra import (AlgebraParams, AlgElement, basis_monomials,
                      inclusion_iota, relation_residues, uq_params)
from .errors import ResourceCapError
from .exprs import (ExprSyntaxError, element_to_json, evaluate, format_cyc,
                    format_element, parse_expr)
from .hyperalgebra import (HypParams, erratum_report, erratum_text,
                           frobenius_pi, hyp_add, hyp_basis, hyp_multiply,
                           kernel_dimensions, pi_of_product, xy_normal_order)
from .modules import (SteinbergError, character, simple,
                      steinberg_intertwiner, verma)
from .qcomb import gen_q_binom

DEFAULT_CAP = 1000
# Each verify-only flag: its default and the suites that read it.  The parser
# defaults them to None, so that a flag given to another suite shows.
VERIFY_FLAGS = {
    "--cap": (DEFAULT_CAP, ("hopf", "cleft")),
    "--p": (3, ("charp",)),
    "--k": (1, ("charp",)),
    "--samples": (10000, ("charp", "qbinom")),
    "--seed": (0, ("charp", "qbinom")),
}
FORMATS = ("text", "json", "csv")


class _EnvText(str):
    """An option default read from the environment variable `variable`."""


def _env(name: str, fallback):
    value = os.environ.get(name)
    if value is None:
        return fallback
    text = _EnvText(value)
    text.variable = name
    return text


def _source(value) -> str:
    return f" from {value.variable}" if isinstance(value, _EnvText) else ""


def _int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {value!r}{_source(value)}") from None


def _positive_int(value: str) -> int:
    # Zero samples would check nothing and still report PASS, a cap below 1
    # refuses every size, and charp's k = 0 has no level to lower to.
    number = _int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value!r}")
    return number


def _format(value: str) -> str:
    # argparse checks choices only on the command line, not on defaults.
    if value not in FORMATS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r}{_source(value)} "
            f"(choose from {', '.join(FORMATS)})")
    return value


def _common_options(parser: argparse.ArgumentParser) -> None:
    # A string default goes through `type` like a command-line value, so an
    # environment value that does not parse is rejected, not ignored, and
    # the message names the variable it came from.
    parser.add_argument("--ell", type=_int, default=_env("QSL2_ELL", 3),
                        help="order of the root of unity (odd, >= 3)")
    parser.add_argument("--N", type=_int, dest="level",
                        default=_env("QSL2_N", 0),
                        help="level of the algebra (default 0)")
    parser.add_argument("--root-exponent", type=_int,
                        default=_env("QSL2_ROOT_EXPONENT", 1),
                        help="which primitive root q names (coprime to ell)")
    parser.add_argument("--format", type=_format, choices=FORMATS,
                        default=_env("QSL2_FORMAT", "text"),
                        help="output format (csv: rep character only)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsl2",
        description="Exact computations with quantum distribution algebras of sl2")
    sub = parser.add_subparsers(dest="command", required=True)

    p_nf = sub.add_parser("nf", help="normal form of an expression")
    p_nf.add_argument("exprs", nargs="+", metavar="EXPR")
    _common_options(p_nf)

    p_mul = sub.add_parser("mul", help="normalized product of expressions")
    p_mul.add_argument("exprs", nargs="+", metavar="EXPR")
    _common_options(p_mul)

    p_rep = sub.add_parser("rep", help="representation computations")
    p_rep.add_argument("what", choices=("verma", "simple", "character", "steinberg"))
    weight = p_rep.add_mutually_exclusive_group(required=True)
    weight.add_argument("--z", type=int, dest="weight", help="highest weight")
    weight.add_argument("--p", type=int, dest="weight", help="highest weight")
    p_rep.add_argument("--module", choices=("simple", "verma"),
                       help="which module a character table describes "
                       "(rep character only; default simple)")
    p_rep.add_argument("--dump-matrix", action="store_true",
                       help="print the intertwiner entries (rep steinberg only)")
    p_rep.add_argument("--cap", type=_positive_int, default=DEFAULT_CAP,
                       help="refuse a module dimension ell^(N+1) above this "
                       f"(default {DEFAULT_CAP})")
    _common_options(p_rep)

    p_ver = sub.add_parser("verify", help="verification suites")
    p_ver.add_argument("suite",
                       choices=("relations", "hopf", "cleft", "charp", "qbinom"))
    p_ver.add_argument("--p", type=int, help="prime for charp")
    p_ver.add_argument("--k", type=_positive_int, help="level index for charp")
    p_ver.add_argument("--samples", type=_positive_int,
                       help="sample count for randomized suites")
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--cap", type=_positive_int,
                       help="refuse hopf above this many basis monomials, "
                       "ell^(3(N+1)), and cleft above this many columns in "
                       f"one coinvariant block, ell^3 (default {DEFAULT_CAP}); "
                       "the other suites take no --cap")
    _common_options(p_ver)
    return parser


def _params(args) -> AlgebraParams:
    return AlgebraParams(args.ell, args.level, args.root_exponent)


def _check_cap(args, quantity: str, value: int) -> None:
    """Refuse, with exit code 3, a run whose `quantity` exceeds --cap."""
    if value > args.cap:
        raise ResourceCapError(
            f"{quantity} {value} at (ell, N) = ({args.ell}, {args.level}) "
            f"is above --cap {args.cap}")


def _emit(args, payload: dict, text_lines: list[str], out) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, default=str), file=out)
    else:
        for line in text_lines:
            print(line, file=out)


def _cmd_nf(args, out) -> int:
    params = _params(args)
    elements = []
    for text in args.exprs:
        ast = parse_expr(text, params)
        elements.append(evaluate(ast, params))
    if args.command == "mul":
        result = elements[0]
        for e in elements[1:]:
            result = result * e
        results = [result]
    else:
        results = elements
    _emit(args, {"results": [element_to_json(e) for e in results]},
          [format_element(e) for e in results], out)
    return 0


def _cmd_rep(args, out) -> int:
    params = _params(args)
    _check_cap(args, "module dimension", params.bound)
    weight = args.weight
    if args.what == "verma":
        rep = verma(params, weight)
        _emit(args, {"dim": rep.dim}, [f"dim = {rep.dim}"], out)
        return 0
    if args.what == "simple":
        rep = simple(params, weight)
        _emit(args, {"dim": rep.dim, "labels": list(rep.basis_labels)},
              [f"dim = {rep.dim}"], out)
        return 0
    if args.what == "character":
        rep = verma(params, weight) if args.module == "verma" \
            else simple(params, weight)
        table = character(rep)
        rows = [(list(w), mult) for w, mult in sorted(table.items())]
        if args.format == "csv":
            hdr = [f"w{i}" for i in range(params.level + 1)] + ["multiplicity"]
            print(",".join(hdr), file=out)
            for w, mult in rows:
                print(",".join(str(x) for x in w + [mult]), file=out)
        else:
            _emit(args, {"dim": rep.dim,
                         "character": [{"weight": w, "multiplicity": m}
                                       for w, m in rows]},
                  [f"{' '.join(str(x) for x in w)} : {mult}" for w, mult in rows],
                  out)
        return 0
    # steinberg
    try:
        result = steinberg_intertwiner(params, weight)
    except SteinbergError as exc:
        _emit(args, {"pass": False, "detail": exc.detail},
              [f"FAIL ({exc})"], out)
        return 1
    u_dim = result.p_top + 1
    d_dim = result.dim // u_dim
    lines = [f"PASS ({result.dim} = {u_dim}x{d_dim})"]
    if args.dump_matrix:
        for (r, c), v in sorted(result.intertwiner.entries.items()):
            lines.append(f"S[{r},{c}] = {format_cyc(v)}")
    _emit(args, {"pass": True, "dim": result.dim,
                 "factor_dims": [u_dim, d_dim]}, lines, out)
    return 0


def _verify_relations(args, out) -> int:
    params = _params(args)
    report = relation_residues(params)
    failures = [e for e in report if not e["zero"]]
    ok = not failures
    lines = [f"relation residues at ell={params.ell}, N={params.level}: "
             f"{len(report)} instances, {len(failures)} nonzero",
             "PASS" if ok else "FAIL"]
    _emit(args, {"suite": "relations", "ell": params.ell, "N": params.level,
                 "instances": len(report), "failures": failures, "pass": ok},
          lines, out)
    return 0 if ok else 1


def _verify_hopf(args, out) -> int:
    params = _params(args)
    _check_cap(args, "basis monomials", params.bound ** 3)
    report = hopf.hopf_axiom_check(params)
    lines = []
    for name, chk in report["checks"].items():
        lines.append(f"{name} (exhaustive): {chk['instances']} instances, "
                     f"{len(chk['failures'])} failures")
    lines.append("PASS" if report["pass"] else "FAIL")
    _emit(args, report, lines, out)
    return 0 if report["pass"] else 1


def _verify_cleft(args, out) -> int:
    params = _params(args)
    if params.level < 1:
        print("error: cleft verification needs --N >= 1", file=sys.stderr)
        return 2
    _check_cap(args, "coinvariant block columns", params.ell ** 3)
    try:  # a coaction that is not block 0's relabelled fails this check only
        coinvariant_dim, relabel_error = len(hopf.coinvariants(params)), None
    except AssertionError as exc:
        coinvariant_dim, relabel_error = None, str(exc)
    lower = AlgebraParams(params.ell, params.level - 1, params.root_exponent)
    iota_dim = lower.bound ** 3
    iota_inside = all(
        hopf.is_coinvariant(inclusion_iota(
            AlgElement.monomial(lower, m, n, p), params.level))
        for (m, n, p) in basis_monomials(lower))
    span_ok = coinvariant_dim == iota_dim and iota_inside
    if relabel_error is None:
        span_line = (f"coinvariant dim {coinvariant_dim} == iota image dim "
                     f"{iota_dim}: {'PASS' if span_ok else 'FAIL'}")
    else:
        span_line = (f"coinvariant dim == iota image dim {iota_dim}: "
                     f"FAIL ({relabel_error})")

    colinear = hopf.gamma_colinear(params)
    conv_ok = not hopf.inverse_failures(params)
    ok = span_ok and colinear and conv_ok
    lines = [
        span_line,
        f"cleaving section colinear: {'PASS' if colinear else 'FAIL'}",
        f"convolution inverse two-sided: {'PASS' if conv_ok else 'FAIL'}",
        "PASS" if ok else "FAIL",
    ]
    payload = {"suite": "cleft", "coinvariant_dim": coinvariant_dim,
               "iota_dim": iota_dim, "iota_contained": iota_inside,
               "colinear": colinear, "convolution_ok": conv_ok, "pass": ok}
    if relabel_error is not None:
        payload["relabelling_failure"] = relabel_error
    _emit(args, payload, lines, out)
    return 0 if ok else 1


def _indices(rng: random.Random, n: int):
    """Endless uniform draws from range(n): rng.getrandbits(n.bit_length()),
    each draw >= n skipped.  On CPython 3.10-3.13 this is exactly the stream
    of repeated rng.randrange(n), without its per-call overhead."""
    bits = n.bit_length()
    getrandbits = rng.getrandbits
    while True:
        i = getrandbits(bits)
        if i < n:
            yield i


def _pi_multiplicative(params: HypParams, k: int, pairs) -> bool:
    """Whether pi(x*y) == pi(x)*pi(y) on each pair (i, j) of basis indices
    (`hyp_basis` order): `pi_of_product` on every pair, pi(x)*pi(y) {} unless
    both images are nonzero.  The basis monomials and their pi images are
    held once, in two tables freed when this returns."""
    low = HypParams(params.p, 1)
    basis = list(hyp_basis(params))
    images = [frobenius_pi(params, {mono: 1}, k) for mono in basis]
    for i, j in pairs:
        if pi_of_product(params, basis[i], basis[j], k) != (
                hyp_multiply(low, images[i], images[j]) if images[i] and images[j] else {}):
            return False
    return True


def _verify_charp(args, out) -> int:
    p, k = args.p, args.k
    params = HypParams(p, k + 1)
    rng = random.Random(args.seed)

    bracket = hyp_add(xy_normal_order(params, 1, 1), {(1, 0, 1): -1}, p)
    bracket_ok = bracket == {(0, 1, 0): 1}

    total = params.bound ** 3
    # The pairs are drawn as they are checked, not held in a list.
    if total * total <= 4096:
        count = total * total
        pairs = ((a, b) for a in range(total) for b in range(total))
        mode = "exhaustive"
    else:
        count = args.samples
        draws = _indices(rng, total)
        pairs = islice(zip(draws, draws), count)
        mode = f"sampled ({count})"

    pi_ok = _pi_multiplicative(params, k, pairs)

    dims = kernel_dimensions(params, k)
    dims_ok = dims["kernel_matches"] and dims["ideal_spans_kernel"] \
        and dims["products_contained_in_kernel"]

    report = erratum_report(p)
    ok = bracket_ok and pi_ok and dims_ok
    lines = [
        f"bracket [X(1), Y(1)] == H(1): {'PASS' if bracket_ok else 'FAIL'}",
        f"level-lowering map multiplicative on {count} pairs ({mode}): "
        + ("PASS" if pi_ok else "FAIL"),
        f"kernel dim {dims['kernel_dim']} == p^(3(k+1)) - p^(3k) = "
        f"{dims['kernel_dim_expected']}: {'PASS' if dims['kernel_matches'] else 'FAIL'}",
        f"augmentation ideal spans kernel (rank {dims['ideal_span_rank']}): "
        + ("PASS" if dims["ideal_spans_kernel"] else "FAIL"),
        erratum_text(report),
        "PASS" if ok else "FAIL",
    ]
    _emit(args, {"suite": "charp", "p": p, "k": k, "bracket_ok": bracket_ok,
                 "pi_multiplicative": pi_ok, "dimensions": dims,
                 "erratum": report, "pass": ok}, lines, out)
    return 0 if ok else 1


def _verify_qbinom(args, out) -> int:
    params = uq_params(args.ell, args.root_exponent)
    field = params.field
    ell = args.ell
    rng = random.Random(args.seed)
    side = ell * ell
    # Drawn as they are checked, not held in lists: every pair, then the triples.
    if ell <= 3:
        n_pairs, n_triples = side ** 2, side ** 3
        sym_pairs = ((m, n) for m in range(side) for n in range(side))
        triples = ((m, n, pp) for m in range(side)
                   for n in range(side) for pp in range(side))
        mode = "exhaustive"
    else:
        n_pairs = n_triples = args.samples
        draws = _indices(rng, side)
        sym_pairs = islice(zip(draws, draws), n_pairs)
        triples = islice(zip(draws, draws, draws), n_triples)
        mode = f"sampled, seed {args.seed}"
    sym_fail = sum(
        1 for m, n in sym_pairs
        if gen_q_binom(field, m + n, m) != gen_q_binom(field, m + n, n))
    prod_fail = sum(
        1 for m, n, pp in triples
        if gen_q_binom(field, m + n, n) * gen_q_binom(field, m + n + pp, pp)
        != gen_q_binom(field, n + pp, n) * gen_q_binom(field, m + n + pp, m))
    ok = sym_fail == 0 and prod_fail == 0
    lines = [
        f"symmetry identity ({mode}): {n_pairs} instances, "
        f"{sym_fail} failures",
        f"product identity ({mode}): {n_triples} instances, "
        f"{prod_fail} failures",
        "PASS" if ok else "FAIL",
    ]
    _emit(args, {"suite": "qbinom", "ell": ell, "mode": mode,
                 "symmetry_failures": sym_fail, "product_failures": prod_fail,
                 "pass": ok}, lines, out)
    return 0 if ok else 1


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.format == "csv" and (args.command, getattr(args, "what", None)) \
            != ("rep", "character"):
        print(f"error: --format csv{_source(args.format)} is supported "
              f"only by 'rep character'", file=sys.stderr)
        return 2
    if args.command == "verify":
        for flag, (default, suites) in VERIFY_FLAGS.items():
            if getattr(args, flag[2:]) is None:
                setattr(args, flag[2:], default)
            elif args.suite not in suites:
                print(f"error: verify {args.suite} takes no {flag}",
                      file=sys.stderr)
                return 2
    if args.command == "rep":
        for flag, given, only in (("--module", args.module is not None, "character"),
                                  ("--dump-matrix", args.dump_matrix, "steinberg")):
            if given and args.what != only:
                print(f"error: {flag} is supported only by 'rep {only}'",
                      file=sys.stderr)
                return 2
    try:
        if args.command in ("nf", "mul"):
            return _cmd_nf(args, out)
        if args.command == "rep":
            return _cmd_rep(args, out)
        dispatch = {
            "relations": _verify_relations,
            "hopf": _verify_hopf,
            "cleft": _verify_cleft,
            "charp": _verify_charp,
            "qbinom": _verify_qbinom,
        }
        return dispatch[args.suite](args, out)
    except (ExprSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
