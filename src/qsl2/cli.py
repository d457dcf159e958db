"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 desk-scale cap refusal.  Global options may also come from environment
variables QSL2_ELL, QSL2_N, QSL2_ROOT_EXPONENT, QSL2_FORMAT (precedence:
flag, then environment, then default).  An invalid value, from a flag or
from the environment, is a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .algebra import (AlgebraParams, all_residues_zero, basis_monomials,
                      relation_residues, uq_params)
from .errors import ResourceCapError
from .exprs import (ExprSyntaxError, element_to_json, evaluate, format_element,
                    parse_expr)
from .hyperalgebra import (HypParams, erratum_report, erratum_text,
                           frobenius_pi, hyp_monomial, hyp_multiply,
                           kernel_dimensions, xy_normal_order)
from .qcomb import gen_q_binom

DEFAULT_CAP = 1000
FORMATS = ("text", "json", "csv")


def _format(value: str) -> str:
    # argparse checks choices only on the command line, not on defaults.
    if value not in FORMATS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {', '.join(FORMATS)})")
    return value


def _common_options(parser: argparse.ArgumentParser) -> None:
    # A string default goes through `type` like a command-line value, so an
    # environment value that does not parse is rejected, not ignored.
    env = os.environ.get
    parser.add_argument("--ell", type=int, default=env("QSL2_ELL", 3),
                        help="order of the root of unity (odd, >= 3)")
    parser.add_argument("--N", type=int, dest="level", default=env("QSL2_N", 0),
                        help="level of the algebra (default 0)")
    parser.add_argument("--root-exponent", type=int,
                        default=env("QSL2_ROOT_EXPONENT", 1),
                        help="which primitive root q names (coprime to ell)")
    parser.add_argument("--format", type=_format, choices=FORMATS,
                        default=env("QSL2_FORMAT", "text"),
                        help="output format")
    parser.add_argument("--cap", type=int, default=DEFAULT_CAP,
                        help="desk-scale size cap for exact solves")


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
    p_rep.add_argument("--z", type=int, default=None, help="highest weight")
    p_rep.add_argument("--p", type=int, default=None, help="highest weight")
    p_rep.add_argument("--module", choices=("simple", "verma"), default="simple",
                       help="which module a character table describes")
    p_rep.add_argument("--dump-matrix", action="store_true",
                       help="print the intertwiner entries")
    _common_options(p_rep)

    p_ver = sub.add_parser("verify", help="verification suites")
    p_ver.add_argument("suite",
                       choices=("relations", "hopf", "cleft", "charp", "qbinom"))
    p_ver.add_argument("--p", type=int, default=3, help="prime for charp")
    p_ver.add_argument("--k", type=int, default=1, help="level index for charp")
    p_ver.add_argument("--samples", type=int, default=10000,
                       help="sample count for randomized suites")
    p_ver.add_argument("--seed", type=int, default=0)
    _common_options(p_ver)
    return parser


def _params(args) -> AlgebraParams:
    return AlgebraParams(args.ell, args.level, args.root_exponent)


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
    if args.format == "json":
        payload = {"results": [element_to_json(e) for e in results]}
        print(json.dumps(payload, sort_keys=True), file=out)
    else:
        for e in results:
            print(format_element(e), file=out)
    return 0


def _cmd_rep(args, out) -> int:
    from .modules import (SteinbergError, character, simple,
                          steinberg_intertwiner, verma)

    params = _params(args)
    if params.bound ** 2 > args.cap * 10:
        raise ResourceCapError(
            f"module dimension {params.bound} above cap {args.cap} "
            f"(raise --cap to proceed)")
    weight = args.p if args.p is not None else args.z
    if weight is None:
        print("error: rep needs --p or --z", file=sys.stderr)
        return 2
    if not 0 <= weight < params.bound:
        print(f"error: weight {weight} outside [0, {params.bound})",
              file=sys.stderr)
        return 2

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
        rep = simple(params, weight) if args.module == "simple" \
            else verma(params, weight)
        table = character(rep)
        rows = [(list(w), mult) for w, mult in sorted(table.items())]
        if args.format == "csv":
            hdr = [f"w{i}" for i in range(params.level + 1)] + ["multiplicity"]
            print(",".join(hdr), file=out)
            for w, mult in rows:
                print(",".join(str(x) for x in w + [mult]), file=out)
        elif args.format == "json":
            print(json.dumps({"dim": rep.dim,
                              "character": [{"weight": w, "multiplicity": m}
                                            for w, m in rows]},
                             sort_keys=True), file=out)
        else:
            for w, mult in rows:
                print(f"{' '.join(str(x) for x in w)} : {mult}", file=out)
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
            from .exprs import format_cyc
            lines.append(f"S[{r},{c}] = {format_cyc(v)}")
    _emit(args, {"pass": True, "dim": result.dim,
                 "factor_dims": [u_dim, d_dim]}, lines, out)
    return 0


def _verify_relations(args, out) -> int:
    params = _params(args)
    if params.bound ** 2 > args.cap * 10:
        raise ResourceCapError(
            f"relation suite at dimension {params.bound} above cap {args.cap}")
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
    from .hopf import hopf_axiom_check

    params = _params(args)
    if params.bound ** 3 > args.cap:
        raise ResourceCapError(
            f"hopf suite dimension {params.bound ** 3} above cap {args.cap}")
    report = hopf_axiom_check(params)
    lines = []
    for name, chk in report["checks"].items():
        lines.append(f"{name}: {chk['instances']} instances, "
                     f"{len(chk['failures'])} failures")
    lines.append("PASS" if report["pass"] else "FAIL")
    _emit(args, report, lines, out)
    return 0 if report["pass"] else 1


def _verify_cleft(args, out) -> int:
    from .algebra import AlgElement, inclusion_iota
    from .hopf import (coinvariants, convolution_inverse, convolve, gamma,
                       gamma_colinear, is_coinvariant, u_basis,
                       unit_counit_map)

    params = _params(args)
    if params.level < 1:
        print("error: cleft verification needs --N >= 1", file=sys.stderr)
        return 2
    basis, report = coinvariants(params, size_cap=args.cap)
    lower = AlgebraParams(params.ell, params.level - 1, params.root_exponent)
    iota_dim = lower.bound ** 3
    iota_inside = all(
        is_coinvariant(inclusion_iota(
            AlgElement.monomial(lower, m, n, p), params.level))
        for (m, n, p) in basis_monomials(lower))
    dims_ok = report["dimension"] == report["expected"] == iota_dim
    span_ok = dims_ok and iota_inside

    uparams = uq_params(params.ell, params.root_exponent)

    def gamma_map(mono):
        return gamma(AlgElement(uparams, {mono: params.field.one()}), params)

    colinear = gamma_colinear(params)
    inverse = convolution_inverse(gamma_map, params)
    identity = unit_counit_map(params)
    left = convolve(gamma_map, inverse, params)
    right = convolve(inverse, gamma_map, params)
    conv_ok = all(left[m] == identity(m) and right[m] == identity(m)
                  for m in u_basis(uparams))

    ok = span_ok and colinear and conv_ok
    lines = [
        f"coinvariant dim {report['dimension']} == iota image dim {iota_dim}: "
        + ("PASS" if span_ok else "FAIL"),
        f"cleaving section colinear: {'PASS' if colinear else 'FAIL'}",
        f"convolution inverse two-sided: {'PASS' if conv_ok else 'FAIL'}",
        "PASS" if ok else "FAIL",
    ]
    _emit(args, {"suite": "cleft", "coinvariant_dim": report["dimension"],
                 "iota_dim": iota_dim, "iota_contained": iota_inside,
                 "colinear": colinear, "convolution_ok": conv_ok, "pass": ok},
          lines, out)
    return 0 if ok else 1


def _verify_charp(args, out) -> int:
    p, k = args.p, args.k
    params = HypParams(p, k + 1)
    rng = random.Random(args.seed)

    bracket = dict(xy_normal_order(params, 1, 1))
    val = (bracket.get((1, 0, 1), 0) - 1) % p
    if val:
        bracket[(1, 0, 1)] = val
    else:
        bracket.pop((1, 0, 1), None)
    bracket_ok = bracket == {(0, 1, 0): 1}

    total = params.bound ** 3
    low = HypParams(p, 1)
    if total * total <= 4096:
        pairs = [(a, b) for a in range(total) for b in range(total)]
        mode = "exhaustive"
    else:
        pairs = [(rng.randrange(total), rng.randrange(total))
                 for _ in range(args.samples)]
        mode = f"sampled ({args.samples})"

    def unrank(i):
        b2 = params.bound
        return (i // (b2 * b2), (i // b2) % b2, i % b2)

    pi_ok = True
    for ia, ib in pairs:
        x = hyp_monomial(params, *unrank(ia))
        y = hyp_monomial(params, *unrank(ib))
        lhs = frobenius_pi(params, hyp_multiply(params, x, y), k)
        rhs = hyp_multiply(low, frobenius_pi(params, x, k),
                           frobenius_pi(params, y, k))
        if lhs != rhs:
            pi_ok = False
            break

    dims = kernel_dimensions(params, k)
    dims_ok = dims["kernel_matches"] and dims["ideal_spans_kernel"] \
        and dims["products_contained_in_kernel"]

    report = erratum_report(p, level=1)
    ok = bracket_ok and pi_ok and dims_ok
    lines = [
        f"bracket [X(1), Y(1)] == H(1): {'PASS' if bracket_ok else 'FAIL'}",
        f"level-lowering map multiplicative on {len(pairs)} pairs ({mode}): "
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
    if ell <= 3:
        sym_pairs = [(m, n) for m in range(ell * ell) for n in range(ell * ell)]
        triples = [(m, n, pp) for m in range(ell * ell)
                   for n in range(ell * ell) for pp in range(ell * ell)]
        mode = "exhaustive"
    else:
        sym_pairs = [(rng.randrange(ell * ell), rng.randrange(ell * ell))
                     for _ in range(args.samples)]
        triples = [(rng.randrange(ell * ell), rng.randrange(ell * ell),
                    rng.randrange(ell * ell)) for _ in range(args.samples)]
        mode = f"sampled ({args.samples})"
    sym_fail = sum(
        1 for m, n in sym_pairs
        if gen_q_binom(field, m + n, m) != gen_q_binom(field, m + n, n))
    prod_fail = sum(
        1 for m, n, pp in triples
        if gen_q_binom(field, m + n, n) * gen_q_binom(field, m + n + pp, pp)
        != gen_q_binom(field, n + pp, n) * gen_q_binom(field, m + n + pp, m))
    ok = sym_fail == 0 and prod_fail == 0
    lines = [
        f"symmetry identity ({mode}): {len(sym_pairs)} instances, "
        f"{sym_fail} failures",
        f"product identity ({mode}): {len(triples)} instances, "
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
