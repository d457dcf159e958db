import io
import json
import random
from itertools import islice

import pytest

from qsl2 import cli, hyperalgebra, modules
from qsl2.linalg import Mat


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_nf_bracket_golden():
    code, out = run(["nf", "E[0]*F[0]-F[0]*E[0]", "--ell", "3", "--N", "0"])
    assert code == 0
    assert out == "(-1/3 - 2/3*q)*K[0] + (1/3 + 2/3*q)*K[0]^2\n"


def test_nf_unit_golden():
    code, out = run(["nf", "1"])
    assert code == 0
    assert out == "1\n"


def test_nf_vanishing_divided_powers_golden():
    code, out = run(["nf", "E(2)*E(1)", "--ell", "3", "--N", "1"])
    assert code == 0
    assert out == "0\n"


def test_mul_command():
    code, out = run(["mul", "F[0]", "E[0]", "--ell", "3", "--N", "0"])
    assert code == 0
    assert out == "F(1)*E(1)\n"


def test_nf_json():
    code, out = run(["nf", "E[0]", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["results"][0]["terms"] == [
        {"f": 0, "k": 0, "e": 1, "coeff": ["1", "0"]}]


def test_rep_simple_golden():
    code, out = run(["rep", "simple", "--ell", "3", "--N", "1", "--p", "5"])
    assert code == 0
    assert out == "dim = 6\n"


def test_rep_verma():
    code, out = run(["rep", "verma", "--ell", "3", "--N", "1", "--z", "5"])
    assert code == 0
    assert out == "dim = 9\n"


def test_rep_steinberg_golden():
    code, out = run(["rep", "steinberg", "--ell", "3", "--N", "1", "--p", "5"])
    assert code == 0
    assert out == "PASS (6 = 2x3)\n"


def test_rep_character_csv():
    code, out = run(["rep", "character", "--ell", "3", "--N", "1", "--p", "5",
                     "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "w0,w1,multiplicity"
    assert len(lines) == 7


def test_verify_relations_golden():
    code, out = run(["verify", "relations", "--ell", "3", "--N", "1"])
    assert code == 0
    assert out.endswith("PASS\n")
    assert "30 instances, 0 nonzero" in out


def test_verify_relations_has_no_cap():
    code, out = run(["verify", "relations", "--ell", "3", "--N", "6"])
    assert code == 0
    assert out.endswith("PASS\n")


@pytest.mark.parametrize("argv,flag", [
    (["verify", "relations", "--ell", "3", "--N", "6", "--cap", "1"], "--cap"),
    (["verify", "charp", "--p", "2", "--k", "1", "--cap", "5000"], "--cap"),
    (["verify", "qbinom", "--ell", "3", "--cap", "1000"], "--cap"),
    (["verify", "relations", "--seed", "5"], "--seed"),
    (["verify", "hopf", "--samples", "7"], "--samples"),
    (["verify", "cleft", "--N", "1", "--p", "5"], "--p"),
    (["verify", "qbinom", "--k", "4"], "--k")],
    ids=["relations", "charp", "qbinom", "relations-seed", "hopf-samples",
         "cleft-p", "qbinom-k"])
def test_cap_on_an_uncapped_suite_exits_2(capsys, argv, flag):
    # Each verify-only flag is refused by every suite that does not read it.
    code, out = run(argv)
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == f"error: verify {argv[1]} takes no {flag}\n"


def test_verify_accepts_the_flags_each_suite_reads():
    assert run(["verify", "cleft", "--ell", "3", "--N", "1", "--cap", "27"])[0] == 0
    assert run(["verify", "hopf", "--ell", "3", "--cap", "27"])[0] == 0
    assert run(["verify", "charp", "--p", "2", "--k", "1", "--samples", "5",
                "--seed", "9"])[0] == 0
    assert run(["verify", "qbinom", "--ell", "3", "--samples", "5",
                "--seed", "9"])[0] == 0


def test_verify_cleft_golden():
    code, out = run(["verify", "cleft", "--ell", "3", "--N", "1"])
    assert code == 0
    assert out.startswith("coinvariant dim 27 == iota image dim 27: PASS\n")
    assert out.endswith("PASS\n")


def test_verify_qbinom():
    code, out = run(["verify", "qbinom", "--ell", "3"])
    assert code == 0
    assert "0 failures" in out


def test_verify_qbinom_sampled_golden():
    code, out = run(["verify", "qbinom", "--ell", "5", "--samples", "200",
                     "--seed", "3"])
    assert code == 0
    assert out == ("symmetry identity (sampled, seed 3): 200 instances, 0 failures\n"
                   "product identity (sampled, seed 3): 200 instances, 0 failures\n"
                   "PASS\n")


HOPF_3_1 = """\
coassociativity (exhaustive): 27 instances, 0 failures
counit (exhaustive): 27 instances, 0 failures
antipode (exhaustive): 27 instances, 0 failures
coaction_relabelling (exhaustive): 729 instances, 0 failures
coaction_coassociativity (exhaustive): 27 instances, 0 failures
coaction_counit (exhaustive): 27 instances, 0 failures
coaction_multiplicative (exhaustive): 64 instances, 0 failures
PASS
"""


def test_verify_hopf_golden():
    code, out = run(["verify", "hopf", "--ell", "3", "--N", "1"])
    assert code == 0
    assert out == HOPF_3_1


def test_verify_charp():
    code, out = run(["verify", "charp", "--p", "2", "--k", "1"])
    assert code == 0
    assert "bracket [X(1), Y(1)] == H(1): PASS" in out
    assert "disagree" in out  # erratum section present


CHARP_P2_K1 = """\
bracket [X(1), Y(1)] == H(1): PASS
level-lowering map multiplicative on 4096 pairs (exhaustive): PASS
kernel dim 56 == p^(3(k+1)) - p^(3k) = 56: PASS
augmentation ideal spans kernel (rank 56): PASS
Closed-form vs oracle comparison at p = 2
  XY normal-order closed form: 1 of 4 instances disagree with the series oracle
    X(1)Y(1): oracle H(1) + Y(1)*X(1) | printed 1*1 + H(1) + Y(1)*X(1)
  XY bracket special case: 1 of 1 instances disagree
  HX bracket special case: 1 of 4 instances disagree
    [H(p^1), X(p^0)]: oracle X(1) | printed 0
  Multiplicative-group product, subscripts as printed: 3 of 4 disagree; digit-corrected subscripts: 0 disagree
PASS
"""

CHARP_P3_K1_SAMPLED = """\
bracket [X(1), Y(1)] == H(1): PASS
level-lowering map multiplicative on 500 pairs (sampled (500)): PASS
kernel dim 702 == p^(3(k+1)) - p^(3k) = 702: PASS
augmentation ideal spans kernel (rank 702): PASS
Closed-form vs oracle comparison at p = 3
  XY normal-order closed form: 4 of 9 instances disagree with the series oracle
    X(1)Y(1): oracle H(1) + Y(1)*X(1) | printed 2*1 + H(1) + Y(1)*X(1)
    X(1)Y(2): oracle 2*Y(1) + Y(1)*H(1) + Y(2)*X(1) | printed Y(1) + Y(1)*H(1) + Y(2)*X(1)
    X(2)Y(1): oracle 2*X(1) + H(1)*X(1) + Y(1)*X(2) | printed X(1) + H(1)*X(1) + Y(1)*X(2)
  XY bracket special case: 1 of 1 instances disagree
  HX bracket special case: 1 of 4 instances disagree
    [H(p^1), X(p^0)]: oracle X(1) + 2*H(2)*X(1) | printed 0
  Multiplicative-group product, subscripts as printed: 7 of 9 disagree; digit-corrected subscripts: 0 disagree
PASS
"""


@pytest.mark.parametrize("argv, expected", [
    (["verify", "charp", "--p", "2", "--k", "1"], CHARP_P2_K1),
    (["verify", "charp", "--p", "3", "--k", "1", "--samples", "500"],
     CHARP_P3_K1_SAMPLED),
], ids=["p2-k1", "p3-k1-samples500"])
def test_verify_charp_golden(argv, expected):
    code, out = run(argv)
    assert code == 0
    assert out == expected


def test_parse_error_exits_2(capsys):
    code, _ = run(["nf", "E[0] +"])
    assert code == 2
    code, _ = run(["nf", "E[2]", "--N", "1"])
    assert code == 2


def test_out_of_range_weight_exits_2():
    code, _ = run(["rep", "simple", "--ell", "3", "--N", "1", "--p", "9"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["rep", "verma", "--z", "2", "--p", "1"],
    ["rep", "verma"]], ids=["both", "neither"])
def test_rep_takes_exactly_one_of_p_and_z(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--z" in err and "--p" in err


def test_cap_exceeded_exits_3(capsys):
    # One coinvariant block at ell = 11 has 11^3 columns.
    code, out = run(["verify", "cleft", "--ell", "11", "--N", "1"])
    assert code == 3
    assert out == ""
    assert capsys.readouterr().err == (
        "refused: coinvariant block columns 1331 at (ell, N) = (11, 1) "
        "is above --cap 1000\n")


@pytest.mark.parametrize("argv,refusal", [
    (["rep", "verma", "--ell", "3", "--N", "6", "--p", "1"],
     "module dimension 2187 at (ell, N) = (3, 6) is above --cap 1000"),
    (["verify", "hopf", "--ell", "5", "--N", "1"],
     "basis monomials 15625 at (ell, N) = (5, 1) is above --cap 1000"),
    (["verify", "hopf", "--ell", "3", "--N", "1", "--cap", "500"],
     "basis monomials 729 at (ell, N) = (3, 1) is above --cap 500")],
    ids=["rep-3-6", "hopf-5-1", "hopf-3-1-cap-500"])
def test_cap_refusal_names_quantity_value_point_and_cap(capsys, argv, refusal):
    code, out = run(argv)
    assert code == 3
    assert out == ""
    assert capsys.readouterr().err == f"refused: {refusal}\n"


def test_verification_failure_exits_1(monkeypatch):
    monkeypatch.setattr(cli, "relation_residues",
                        lambda params: [{"relation": "fake", "i": 0, "j": 0,
                                         "zero": False, "residue_terms": 1}])
    code, out = run(["verify", "relations"])
    assert code == 1
    assert out.endswith("FAIL\n")


def test_env_override(monkeypatch):
    # E(4) is out of range at the default ell=3, N=0 but fine at ell=5
    code, _ = run(["nf", "E(4)"])
    assert code == 2
    monkeypatch.setenv("QSL2_ELL", "5")
    code, out = run(["nf", "E(4)"])
    assert code == 0
    assert out == "E(4)\n"


@pytest.mark.parametrize("name,value", [
    ("QSL2_ELL", "abc"), ("QSL2_N", "-x"), ("QSL2_ROOT_EXPONENT", "1.5"),
    ("QSL2_FORMAT", "xml")])
def test_invalid_env_exits_2(monkeypatch, capsys, name, value):
    monkeypatch.setenv(name, value)
    with pytest.raises(SystemExit) as exc:
        run(["nf", "E[0]"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert repr(value) in err
    assert name in err


@pytest.mark.parametrize("argv,flag", [
    (["verify", "qbinom", "--ell", "5", "--samples", "0"], "--samples"),
    (["verify", "charp", "--p", "3", "--k", "1", "--samples", "-3"], "--samples"),
    (["verify", "hopf", "--cap", "-1"], "--cap"),
    (["verify", "relations", "--cap", "0"], "--cap"),
    (["verify", "charp", "--p", "3", "--k", "0"], "--k")],
    ids=["qbinom-samples-0", "charp-samples-minus-3", "hopf-cap-minus-1",
         "relations-cap-0", "charp-k-0"])
def test_non_positive_samples_or_cap_exits_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["nf", "E[0]*F[0]", "--format", "csv"],
    ["verify", "relations", "--format", "csv"]])
def test_format_csv_outside_rep_character_exits_2(capsys, argv):
    code, out = run(argv)
    assert code == 2
    assert out == ""
    assert "rep character" in capsys.readouterr().err


def test_flag_beats_env(monkeypatch):
    monkeypatch.setenv("QSL2_ELL", "5")
    code, out = run(["nf", "q^3", "--ell", "3"])
    assert code == 0
    # at ell = 3, q^3 = 1
    assert out == "1\n"


def test_rep_character_text_golden():
    code, out = run(["rep", "character", "--ell", "3", "--N", "1", "--p", "5"])
    assert code == 0
    assert out == "0 1 : 1\n0 2 : 1\n1 1 : 1\n1 2 : 1\n2 1 : 1\n2 2 : 1\n"


def test_rep_character_json_golden():
    code, out = run(["rep", "character", "--ell", "3", "--N", "1", "--p", "5",
                     "--format", "json"])
    assert code == 0
    assert out == (
        '{"character": [{"multiplicity": 1, "weight": [0, 1]}, '
        '{"multiplicity": 1, "weight": [0, 2]}, '
        '{"multiplicity": 1, "weight": [1, 1]}, '
        '{"multiplicity": 1, "weight": [1, 2]}, '
        '{"multiplicity": 1, "weight": [2, 1]}, '
        '{"multiplicity": 1, "weight": [2, 2]}], "dim": 6}\n')


def test_rep_character_of_verma_golden():
    code, out = run(["rep", "character", "--ell", "3", "--N", "1", "--p", "5",
                     "--module", "verma"])
    assert code == 0
    assert out == "".join(f"{a} {b} : 1\n" for a in range(3) for b in range(3))


def test_rep_steinberg_dump_matrix_golden():
    code, out = run(["rep", "steinberg", "--ell", "3", "--N", "1", "--p", "4",
                     "--dump-matrix"])
    assert code == 0
    assert out == ("PASS (4 = 2x2)\n"
                   "S[0,0] = 1\nS[1,1] = 1\nS[2,2] = 1\nS[3,3] = 1\n")


def test_verify_cleft_at_level_zero_exits_2(capsys):
    code, out = run(["verify", "cleft", "--N", "0"])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err == "error: cleft verification needs --N >= 1\n"


@pytest.mark.parametrize("argv,message", [
    (["rep", "verma", "--p", "1", "--dump-matrix"],
     "--dump-matrix is supported only by 'rep steinberg'"),
    (["rep", "character", "--p", "1", "--dump-matrix"],
     "--dump-matrix is supported only by 'rep steinberg'"),
    (["rep", "steinberg", "--N", "1", "--p", "4", "--module", "verma"],
     "--module is supported only by 'rep character'"),
    (["rep", "simple", "--p", "1", "--module", "simple"],
     "--module is supported only by 'rep character'")])
def test_rep_flag_outside_its_command_exits_2(capsys, argv, message):
    code, out = run(argv)
    assert code == 2
    assert out == ""
    assert message in capsys.readouterr().err


def test_rep_steinberg_fails_on_a_wrong_tensor_rep(monkeypatch):
    # F[0] of the tensor factor scaled by 2: the columns F^(t)(v0 (x) v0)
    # pick up 2^(t_0), which E[0] does not intertwine.
    from qsl2 import modules
    original = modules.tensor_rep

    def scaled_f(u_rep, d_rep):
        rep = original(u_rep, d_rep)
        action = dict(rep.action)
        action[("F", 0)] = action[("F", 0)].scaled(2)
        return modules.ModuleRep(rep.params, rep.dim, action, rep.basis_labels)

    monkeypatch.setattr(modules, "tensor_rep", scaled_f)
    code, out = run(["rep", "steinberg", "--ell", "3", "--N", "1", "--p", "5"])
    assert code == 1
    assert out == "FAIL (intertwiner is not equivariant)\n"
    code, out = run(["rep", "steinberg", "--ell", "3", "--N", "1", "--p", "5",
                     "--format", "json"])
    assert code == 1
    assert json.loads(out) == {"pass": False, "detail": {
        "p": 5, "generator": ["E", 0], "residue_entries": 4}}


def _rep_steinberg_with_tensor_rep(monkeypatch, change):
    """`rep steinberg` at (3, 1), weight 5, in text and in JSON, with
    `tensor_rep` returning change(rep) for each rep it builds."""
    original = modules.tensor_rep
    monkeypatch.setattr(modules, "tensor_rep",
                        lambda u_rep, d_rep: change(original(u_rep, d_rep)))
    argv = ["rep", "steinberg", "--ell", "3", "--N", "1", "--p", "5"]
    code, out = run(argv)
    json_code, json_out = run(argv + ["--format", "json"])
    assert code == json_code
    return code, out, json.loads(json_out)


def test_rep_steinberg_fails_on_a_tensor_rep_of_the_wrong_dimension(monkeypatch):
    code, out, payload = _rep_steinberg_with_tensor_rep(
        monkeypatch, lambda rep: modules.simple(rep.params, 0))
    assert (code, out) == (1, "FAIL (dimension mismatch)\n")
    assert payload == {"pass": False, "detail": {
        "p": 5, "simple_dim": 6, "tensor_dim": 1}}


def test_rep_steinberg_fails_on_a_tensor_rep_whose_f0_is_zero(monkeypatch):
    # Every column F^(t)(v0 (x) v0) with t_0 > 0 is then zero.
    def zero_f0(rep):
        action = dict(rep.action)
        action[("F", 0)] = Mat.zero(rep.dim, rep.dim, rep.params.field)
        return modules.ModuleRep(rep.params, rep.dim, action, rep.basis_labels)

    code, out, payload = _rep_steinberg_with_tensor_rep(monkeypatch, zero_f0)
    assert (code, out) == (1, "FAIL (intertwiner is not injective)\n")
    assert payload == {"pass": False, "detail": {"p": 5}}


def _pi_without_divisibility(params, x, k):
    """The level-lowering map with the test for indices divisible by p^k
    left out: floor division shifts every monomial down, X(1) onto 1."""
    step = params.p ** k
    return {(a // step, b // step, c // step): v for (a, b, c), v in x.items()}


def test_verify_charp_fails_when_pi_is_not_multiplicative(monkeypatch):
    monkeypatch.setattr(cli, "frobenius_pi", _pi_without_divisibility)
    code, out = run(["verify", "charp", "--p", "2", "--k", "1"])
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == ("level-lowering map multiplicative on 4096 pairs "
                        "(exhaustive): FAIL")
    assert lines[-1] == "FAIL"


def test_verify_charp_fails_when_products_leave_the_kernel(monkeypatch):
    monkeypatch.setattr(hyperalgebra, "frobenius_pi", _pi_without_divisibility)
    code, out = run(["verify", "charp", "--p", "2", "--k", "1", "--format", "json"])
    assert code == 1
    report = json.loads(out)
    assert report["pi_multiplicative"]
    assert not report["dimensions"]["products_contained_in_kernel"]
    assert report["dimensions"]["kernel_matches"]
    assert not report["pass"]


def test_verify_charp_fails_when_the_product_drops_terms_pi_keeps(monkeypatch):
    # Step p^(k+1) keeps only the level-2 terms with indices divisible by 4,
    # so pi(X(2) * 1) = X(1) is built as 0.
    def too_coarse(params, m, n, k):
        eng = hyperalgebra._engine(params)
        return hyperalgebra.frobenius_pi(
            params, eng.mono_mul(m, n, params.p ** (k + 1)), k)

    monkeypatch.setattr(cli, "pi_of_product", too_coarse)
    code, out = run(["verify", "charp", "--p", "2", "--k", "1"])
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == ("level-lowering map multiplicative on 4096 pairs "
                        "(exhaustive): FAIL")
    assert lines[-1] == "FAIL"


def test_verify_charp_fails_when_pi_keeps_a_term_of_a_pair_with_a_zero_image(monkeypatch):
    # pi(x) = 0 makes pi(x) pi(y) = 0 without a product being built, so a
    # pi(x*y) with a term there must still fail: here every such pair gets 1.
    def extra_term(params, m, n, k):
        prod = hyperalgebra.pi_of_product(params, m, n, k)
        if params.level == 2 and any(i % 2 for i in m):
            return {**prod, (0, 0, 0): 1}
        return prod

    monkeypatch.setattr(cli, "pi_of_product", extra_term)
    code, out = run(["verify", "charp", "--p", "2", "--k", "1"])
    assert code == 1
    assert out.splitlines()[1] == ("level-lowering map multiplicative on 4096 "
                                   "pairs (exhaustive): FAIL")


def test_verify_charp_checks_the_pairs_its_seed_draws(monkeypatch):
    # Two randrange(729) draws per pair, unranked in hyp_basis order: a seed
    # names the same level-2 factor pairs whatever the check holds in memory.
    # 729 < 2^10, so about 29% of the raw draws are rejected and redrawn.
    pairs = []

    def recording(params, m, n, k):
        if params.level == 2:
            pairs.append((m, n))
        return hyperalgebra.pi_of_product(params, m, n, k)

    def monomial(i):
        return (i // 81, (i // 9) % 9, i % 9)

    monkeypatch.setattr(cli, "pi_of_product", recording)
    for seed in (7, 0):
        pairs.clear()
        code, _ = run(["verify", "charp", "--p", "3", "--k", "1",
                       "--samples", "2000", "--seed", str(seed)])
        assert code == 0
        rng = random.Random(seed)
        assert pairs == [(monomial(rng.randrange(729)),
                          monomial(rng.randrange(729))) for _ in range(2000)]


@pytest.mark.parametrize("n", [1, 2, 3, 25, 64, 81, 729])
def test_indices_draw_the_randrange_stream(n):
    for seed in (0, 1, 7, 12345):
        rng = random.Random(seed)
        expected = [rng.randrange(n) for _ in range(1000)]
        assert list(islice(cli._indices(random.Random(seed), n), 1000)) == expected


def test_verify_qbinom_draws_its_pairs_then_its_triples(monkeypatch):
    # Each pair (m, n) is read off its first two binomials [m+n, m], [m+n, n]
    # and each triple (m, n, pp) off its first two, [m+n, n], [m+n+pp, pp];
    # the seeded stream must be the randrange draws the suite made before.
    calls = []
    binom = cli.gen_q_binom

    def recording(field, top, bottom):
        calls.append((top, bottom))
        return binom(field, top, bottom)

    monkeypatch.setattr(cli, "gen_q_binom", recording)
    for seed in (3, 0):
        calls.clear()
        assert run(["verify", "qbinom", "--ell", "5", "--samples", "300",
                    "--seed", str(seed)])[0] == 0
        assert len(calls) == 2 * 300 + 4 * 300
        pairs = [(calls[i][1], calls[i + 1][1]) for i in range(0, 600, 2)]
        triples = [(calls[i][0] - calls[i][1], calls[i][1], calls[i + 1][1])
                   for i in range(600, len(calls), 4)]
        rng = random.Random(seed)
        assert pairs == [(rng.randrange(25), rng.randrange(25)) for _ in range(300)]
        assert triples == [(rng.randrange(25), rng.randrange(25), rng.randrange(25))
                           for _ in range(300)]


def _verify_charp_p2_fails_on(line):
    code, out = run(["verify", "charp", "--p", "2", "--k", "1"])
    assert code == 1
    lines = out.splitlines()
    assert line in lines
    assert lines[-1] == "FAIL"


def test_verify_charp_fails_on_a_wrong_bracket(monkeypatch):
    # X(1) Y(1) without its H(1) term: the bracket [X(1), Y(1)] is 0.
    monkeypatch.setattr(cli, "xy_normal_order", lambda params, n, m: {(1, 0, 1): 1})
    _verify_charp_p2_fails_on("bracket [X(1), Y(1)] == H(1): FAIL")


def test_verify_charp_fails_on_a_wrong_kernel_dimension(monkeypatch):
    def mismatched(params, k):
        return {**hyperalgebra.kernel_dimensions(params, k), "kernel_matches": False}

    monkeypatch.setattr(cli, "kernel_dimensions", mismatched)
    _verify_charp_p2_fails_on("kernel dim 56 == p^(3(k+1)) - p^(3k) = 56: FAIL")


def test_verify_charp_fails_when_the_ideal_misses_the_kernel(monkeypatch):
    rank_mod_p = hyperalgebra.rank_mod_p
    monkeypatch.setattr(hyperalgebra, "rank_mod_p",
                        lambda rows, p: rank_mod_p(rows, p) - 1)
    _verify_charp_p2_fails_on("augmentation ideal spans kernel (rank 55): FAIL")


def test_verify_charp_fails_when_the_generators_miss_the_augmentation_ideal(monkeypatch):
    # Without X(1) the level-1 rows y g span 24 of the 26 dimensions of A_1^+,
    # so containment is unproven although the level-2 rows still span.
    multiply, rank_mod_p = hyperalgebra.hyp_multiply, hyperalgebra.rank_mod_p
    ranks = []

    def without_x1(params, x, y):
        return {} if params.level == 1 and y == {(0, 0, 1): 1} else multiply(params, x, y)

    def recording(rows, p):
        ranks.append(rank_mod_p(rows, p))
        return ranks[-1]

    monkeypatch.setattr(hyperalgebra, "hyp_multiply", without_x1)
    monkeypatch.setattr(hyperalgebra, "rank_mod_p", recording)
    code, out = run(["verify", "charp", "--p", "3", "--k", "1", "--samples", "50"])
    assert code == 1
    assert ranks == [24, 702]
    lines = out.splitlines()
    assert lines[3] == "augmentation ideal spans kernel (rank 702): PASS"
    assert all(line.endswith(": PASS") for line in lines[:4])
    assert lines[-1] == "FAIL"


@pytest.mark.parametrize("exponent, symmetry_failures, product_failures", [
    # lam^n: [m+n, m] != [m+n, n] unless m = n mod 3, and the products differ
    # unless m = pp mod 3.
    (lambda m, n: n, 54, 486),
    # lam^m is symmetric, but the products still differ unless m = pp mod 3.
    (lambda m, n: m, 0, 486),
], ids=["both", "product-only"])
def test_verify_qbinom_fails_on_a_wrong_binomial(monkeypatch, exponent,
                                                 symmetry_failures, product_failures):
    monkeypatch.setattr(cli, "gen_q_binom",
                        lambda field, m, n: field.lambda_pow(exponent(m, n)))
    code, out = run(["verify", "qbinom", "--ell", "3"])
    assert code == 1
    assert out == (
        f"symmetry identity (exhaustive): 81 instances, {symmetry_failures} failures\n"
        f"product identity (exhaustive): 729 instances, {product_failures} failures\n"
        "FAIL\n")
