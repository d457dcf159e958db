import io
import json

import pytest

from qsl2 import cli


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


def test_verify_cleft_golden():
    code, out = run(["verify", "cleft", "--ell", "3", "--N", "1"])
    assert code == 0
    assert out.startswith("coinvariant dim 27 == iota image dim 27: PASS\n")
    assert out.endswith("PASS\n")


def test_verify_qbinom():
    code, out = run(["verify", "qbinom", "--ell", "3"])
    assert code == 0
    assert "0 failures" in out


def test_verify_charp():
    code, out = run(["verify", "charp", "--p", "2", "--k", "1"])
    assert code == 0
    assert "bracket [X(1), Y(1)] == H(1): PASS" in out
    assert "disagree" in out  # erratum section present


def test_parse_error_exits_2(capsys):
    code, _ = run(["nf", "E[0] +"])
    assert code == 2
    code, _ = run(["nf", "E[2]", "--N", "1"])
    assert code == 2


def test_out_of_range_weight_exits_2():
    code, _ = run(["rep", "simple", "--ell", "3", "--N", "1", "--p", "9"])
    assert code == 2


def test_cap_exceeded_exits_3():
    code, _ = run(["verify", "cleft", "--ell", "5", "--N", "1"])
    assert code == 3


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
    assert repr(value) in capsys.readouterr().err


def test_flag_beats_env(monkeypatch):
    monkeypatch.setenv("QSL2_ELL", "5")
    code, out = run(["nf", "q^3", "--ell", "3"])
    assert code == 0
    # at ell = 3, q^3 = 1
    assert out == "1\n"
