"""Spec file parsing, CLI subcommands, JSON schema, exit codes."""

import json

import pytest

from weylzeta.cli import main
from weylzeta.quotient import KleinSpec, TorusSpec
from weylzeta.specfile import SpecFileError, parse_spec_text

A2_TORUS_TEXT = """\
# coroot lattice torus
root_system = A2
kind = torus
v1 = 2,-1
v2 = -1,2
"""

A2_KLEIN_TEXT = """\
root_system = A2
kind = klein
alpha = 1,0
beta = 0,1
a = 1
b = 1
m = 1
order = 32
"""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_torus():
    parsed = parse_spec_text(A2_TORUS_TEXT)
    assert parsed.root_system == "A2"
    assert parsed.spec == TorusSpec((2, -1), (-1, 2))
    assert parsed.order is None


def test_parse_klein_with_order():
    parsed = parse_spec_text(A2_KLEIN_TEXT)
    assert parsed.spec == KleinSpec((1, 0), (0, 1), 1, 1, 1)
    assert parsed.order == 32


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("root_system = A2\nkind = torus\nv1 = 1\nv2 = 0,3", 3, "comma-separated"),
        ("root_system = A2\nkind = torus\nv1 = 1,1\nv1 = 1,1\nv2 = 0,3", 4, "duplicate"),
        ("root_system = A2\nkind = torus\nwibble = 3\nv1 = 1,1\nv2 = 0,3", 3, "unknown"),
        ("root_system = X9\nkind = torus\nv1 = 1,1\nv2 = 0,3", 1, "A2 or C2"),
        ("root_system = A2\nkind = moebius", 2, "torus or klein"),
        ("root_system = A2\nkind = torus\nv1 = 1,1\nv2 = 0,3\na = 1", 5, "not valid"),
        ("root_system = A2\nkind = torus\nv1 = 1,1\nv2 = 0,3\norder = x", 5, "integer"),
        ("root_system = A2\nkind = torus\nv1: 1,1", 3, "key = value"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(SpecFileError) as exc:
        parse_spec_text(text)
    assert exc.value.line == line
    assert fragment in str(exc.value)


def test_parse_missing_key():
    with pytest.raises(SpecFileError, match="missing required key 'v2'"):
        parse_spec_text("root_system = A2\nkind = torus\nv1 = 1,1")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "a2_torus.spec"
    path.write_text(A2_TORUS_TEXT)
    return str(path)


@pytest.fixture
def klein_file(tmp_path):
    path = tmp_path / "a2_klein.spec"
    path.write_text(A2_KLEIN_TEXT)
    return str(path)


def test_cli_verify_exit_zero(torus_file, capsys):
    assert main(["verify", "--input", torus_file]) == 0
    out = capsys.readouterr().out
    assert "all identities hold" in out


def test_cli_default_order_covers_larger_quotients(tmp_path, capsys):
    # N = 18, so the required order 2*18*3 + 8 = 116 exceeds 48
    path = tmp_path / "a2_torus_n18.spec"
    path.write_text("root_system = A2\nkind = torus\nv1 = 6,0\nv2 = 0,3\n")
    assert main(["verify", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 116
    assert main(["zeta", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 116


def test_cli_verify_json_deterministic(klein_file, capsys):
    assert main(["verify", "--input", klein_file, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--input", klein_file, "--format", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["all_hold"] is True
    assert {rec["id"] for rec in payload["verify"]} >= {
        "main-identity[pi1]",
        "axis-parity",
    }


def test_cli_counts_json(torus_file, capsys):
    assert main(["counts", "--input", torus_file, "--max-n", "3", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"N":[0,0,9]' in out
    payload = json.loads(out)
    assert payload["counts"]["pi1"]["N"] == [0, 0, 9]
    assert payload["counts"]["pi1"]["gallery"] == [0, 0, 0]


def test_cli_describe_json(klein_file, capsys):
    assert main(["describe", "--input", klein_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    inv = payload["invariants"]
    assert inv["N"] == 3 and inv["k_gamma"] == 3 and inv["type"] == "pi1"


def test_cli_zeta_json(torus_file, capsys):
    assert main(["zeta", "--input", torus_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    z = payload["zeta"]["pi1"]
    # (1 - u^3)^{-3}: expanded denominator in u, numerator one
    assert z["var"] == "u" and z["num"] == [1]
    assert z["den"] == [1, 0, 0, -3, 0, 0, 3, 0, 0, -1]
    assert payload["l_poly"]["pi1"]["coeffs"] == [1, 0, 0, -3, 0, 0, 3, 0, 0, -1]


def test_cli_invalid_spec_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text(
        "root_system = A2\nkind = klein\nalpha = 2,0\nbeta = 0,1\na = 1\nb = 1\nm = 1\n"
    )
    assert main(["verify", "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "alpha is not a nontrivial weight" in err


def test_cli_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text("root_system = A2\nkind = torus\nv1 = 1,1\n")
    assert main(["verify", "--input", str(bad)]) == 2
    assert "missing required key" in capsys.readouterr().err


def test_cli_missing_file_exit_two(capsys):
    assert main(["describe", "--input", "/nonexistent/path.spec"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_insufficient_order_exit_two(torus_file, capsys):
    assert main(["verify", "--input", torus_file, "--order", "5"]) == 2
    err = capsys.readouterr().err
    assert "raise order to at least" in err


def test_cli_identity_failure_exit_one(torus_file, capsys, monkeypatch):
    # exit-code contract: any failing record turns the exit code to 1
    import weylzeta.cli as cli_mod
    from weylzeta.identities import VerificationReport, VerifyRecord

    def fake_verify(q, order=None):
        return VerificationReport(
            "A2", "torus", 48, (VerifyRecord("demo", "forced failure", False, {}),)
        )

    monkeypatch.setattr(cli_mod, "verify", fake_verify)
    assert main(["verify", "--input", torus_file]) == 1
    assert "identity failures" in capsys.readouterr().out


def test_cli_corpus_small(capsys):
    assert main(["corpus", "--seed", "5", "--tori", "2", "--kleins", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_hold"] is True
    names = [m["name"] for m in payload["members"]]
    assert len(names) == 2 * 2 + 5
    assert any("bodd" in n for n in names) and any("beven" in n for n in names)


def test_cli_file_order_used(klein_file, capsys):
    assert main(["verify", "--input", klein_file, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 32  # taken from the spec file
