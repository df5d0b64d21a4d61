"""Spec file parsing, CLI subcommands, JSON schema, exit codes."""

import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from weylzeta.cli import main
from weylzeta.corpus import MAX_MEMBERS
from weylzeta.quotient import MAX_CLASSES, KleinSpec, TorusSpec
from weylzeta.specfile import MAX_SPEC_BYTES, SpecFileError, parse_spec_text
from weylzeta.zeta import MAX_ORDER

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


def test_cli_reuses_one_parser_without_leaking_options(torus_file, klein_file, capsys, monkeypatch):
    import weylzeta.cli as cli_mod

    built, make_parser = [], cli_mod.make_parser

    def counting_parser():
        built.append(1)
        return make_parser()

    monkeypatch.setattr(cli_mod, "_PARSER", None)
    monkeypatch.setattr(cli_mod, "make_parser", counting_parser)
    text_call = ["zeta", "--input", torus_file]
    assert main(text_call) == 0
    first = capsys.readouterr().out
    # a call with other options and another subcommand in between
    assert main(["verify", "--input", klein_file, "--order", "40", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 40
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--format", "json"])  # --input is missing
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(text_call) == 0
    second = capsys.readouterr().out
    assert first == second and first.startswith("A2 torus: zeta data at order 48")
    assert main(text_call) == 0
    assert capsys.readouterr().out == first
    assert built == [1]


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


TORUS_TEXT = "root_system = A2\nkind = torus\nv1 = 2,-1\nv2 = -1,2\n"


@pytest.mark.parametrize("command", ("describe", "verify", "zeta"))
@pytest.mark.parametrize(
    "data, fragment",
    (
        (b"\xff", "not UTF-8"),
        (TORUS_TEXT.encode() + b"# \xff\n", "not UTF-8"),
        (b"#" * MAX_SPEC_BYTES + b"\n", "larger than 65536 bytes"),
    ),
    ids=("0xff", "0xff-in-comment", "64KiB+1-comment"),
)
def test_cli_unreadable_spec_file_exits_two(tmp_path, capsys, command, data, fragment):
    path = tmp_path / "bad.spec"
    path.write_bytes(data)
    assert main([command, "--input", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert fragment in captured.err


def test_cli_spec_file_of_exactly_the_byte_bound_loads(tmp_path, capsys):
    path = tmp_path / "full.spec"
    padding = "#" * (MAX_SPEC_BYTES - len(TORUS_TEXT) - 1) + "\n"
    path.write_text(TORUS_TEXT + padding, encoding="utf-8")
    assert path.stat().st_size == MAX_SPEC_BYTES
    assert main(["describe", "--input", str(path)]) == 0
    assert capsys.readouterr().out.startswith("A2 torus: N = 3")


def test_cli_insufficient_order_exit_two(torus_file, capsys):
    assert main(["verify", "--input", torus_file, "--order", "5"]) == 2
    err = capsys.readouterr().err
    assert "raise order to at least" in err


@pytest.mark.parametrize("command", ("zeta", "verify"))
def test_cli_order_above_maximum_exits_two(torus_file, capsys, command):
    t0 = time.perf_counter()
    assert main([command, "--input", torus_file, "--order", str(MAX_ORDER + 1)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert f"exceeds the supported maximum {MAX_ORDER}" in capsys.readouterr().err


@pytest.mark.parametrize("max_n", ("-3", "0", str(MAX_ORDER + 1)))
def test_cli_counts_max_n_out_of_range_exits_two(torus_file, capsys, max_n):
    assert main(["counts", "--input", torus_file, "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--max-n must be between 1 and {MAX_ORDER}" in captured.err


@pytest.mark.parametrize(
    "sizes", (("--tori", "-3"), ("--kleins", "-2"), ("--tori", "-3", "--kleins", "-2"))
)
def test_cli_corpus_negative_size_exits_two(capsys, sizes):
    assert main(["corpus", "--seed", "1", *sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {sizes[0]} must be at least 0, got {sizes[1]}" in captured.err


@pytest.mark.parametrize("flag", ("--tori", "--kleins"))
def test_cli_corpus_size_above_the_bound_exits_two_at_once(capsys, monkeypatch, flag):
    import weylzeta.cli as cli_mod

    drawn = []

    def fake_generate(seed, tori, kleins):
        drawn.append((tori, kleins))
        return []

    # a size far above the bound is refused before any member is drawn
    monkeypatch.setattr(cli_mod, "generate_corpus", fake_generate)
    start = time.perf_counter()
    assert main(["corpus", flag, str(10**12)]) == 2
    assert time.perf_counter() - start < 1 and drawn == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} must be at most {MAX_MEMBERS}, got {10**12}" in captured.err
    # the bound itself is admitted
    assert main(["corpus", flag, str(MAX_MEMBERS), "--format", "json"]) == 0
    assert len(drawn) == 1 and MAX_MEMBERS in drawn[0]


def test_cli_counts_max_n_admits_both_ends(torus_file, capsys):
    for max_n in (1, MAX_ORDER):
        assert main(["counts", "--input", torus_file, "--max-n", str(max_n), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["max_n"] == max_n
        assert len(payload["counts"]["pi1"]["semi"]) == 2 * max_n


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


# ---------------------------------------------------------------------------
# input size bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "root_system = C2\nkind = torus\nv1 = 1000000,0\nv2 = 0,2\n",
        "root_system = C2\nkind = klein\nalpha = 1,0\nbeta = 1,1\n"
        "a = 2\nb = 1\nm = 1000000\n",
    ],
)
def test_cli_oversized_quotient_exits_two_at_once(tmp_path, capsys, text):
    path = tmp_path / "huge.spec"
    path.write_text(text)
    for command in ("describe", "verify"):
        t0 = time.perf_counter()
        assert main([command, "--input", str(path)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert f"exceeds the supported maximum {MAX_CLASSES}" in capsys.readouterr().err


def test_cli_size_bound_admits_the_largest_supported_torus(tmp_path, capsys):
    # (12,0),(0,24) is a C2 torus with exactly MAX_CLASSES vertex classes;
    # (1,1),(145,-145) has two more
    path = tmp_path / "edge.spec"
    path.write_text("root_system = C2\nkind = torus\nv1 = 12,0\nv2 = 0,24\n")
    assert main(["describe", "--input", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["invariants"]["N"] == MAX_CLASSES
    path.write_text("root_system = C2\nkind = torus\nv1 = 1,1\nv2 = 145,-145\n")
    assert main(["describe", "--input", str(path)]) == 2


# ---------------------------------------------------------------------------
# fuzzed spec files: describe exits 0 or 2 and never raises
# ---------------------------------------------------------------------------

KEYS = ("root_system", "kind", "v1", "v2", "alpha", "beta", "a", "b", "m", "order")
WEIGHTS = ((1, 0), (-1, 1), (0, -1), (-1, 0), (1, -1), (0, 1), (1, 1), (-1, -1))
small_pair = st.one_of(
    st.sampled_from(WEIGHTS), st.tuples(st.integers(-3, 3), st.integers(-3, 3))
)
any_int = st.one_of(st.integers(-12, 12), st.integers(-(10**9), 10**9))
values = st.one_of(
    st.sampled_from(("A2", "C2", "torus", "klein", "", "1,", ",", "0x10", "1e3")),
    any_int.map(str),
    st.tuples(any_int, any_int).map(lambda t: f"{t[0]},{t[1]}"),
    st.text(max_size=12),
)
lines = st.one_of(
    st.text(max_size=24),
    st.builds(lambda k, v: f"{k} = {v}", st.sampled_from(KEYS), values),
)


def _pair(t):
    return f"{t[0]},{t[1]}"


torus_texts = st.builds(
    lambda rs, v1, v2: f"root_system = {rs}\nkind = torus\nv1 = {v1}\nv2 = {v2}\n",
    st.sampled_from(("A2", "C2")),
    st.tuples(any_int, any_int).map(_pair),
    st.tuples(any_int, any_int).map(_pair),
)
klein_texts = st.builds(
    lambda rs, alpha, beta, a, b, m: (
        f"root_system = {rs}\nkind = klein\nalpha = {alpha}\nbeta = {beta}\n"
        f"a = {a}\nb = {b}\nm = {m}\n"
    ),
    st.sampled_from(("A2", "C2")),
    small_pair.map(_pair),
    small_pair.map(_pair),
    any_int,
    any_int,
    any_int,
)
# coroot-lattice tori, most of them valid: c1 * b1 + c2 * b2 over a basis
COROOT_BASIS = {"A2": ((1, 1), (3, 0)), "C2": ((1, 1), (2, 0))}


def _coroot_torus(rs, c):
    (b1, b2) = COROOT_BASIS[rs]
    v1, v2 = (
        _pair((x * b1[0] + y * b2[0], x * b1[1] + y * b2[1])) for x, y in (c[:2], c[2:])
    )
    return f"root_system = {rs}\nkind = torus\nv1 = {v1}\nv2 = {v2}\n"


coroot_torus_texts = st.builds(
    _coroot_torus,
    st.sampled_from(("A2", "C2")),
    st.tuples(*[st.integers(-6, 6)] * 4),
)
spec_texts = st.one_of(
    coroot_torus_texts,
    st.lists(lines, max_size=10).map("\n".join),
    torus_texts,
    klein_texts,
    st.builds(
        lambda head, tail: head + "\n".join(tail),
        torus_texts | klein_texts,
        st.lists(lines, max_size=3),
    ),
)


@given(st.one_of(spec_texts.map(str.encode), st.binary(max_size=64)))
@settings(
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_describe_never_raises_on_fuzzed_spec_text(capsys, data):
    # describe checks no identity, so it never exits 1
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.spec"
        path.write_bytes(data)
        assert main(["describe", "--input", str(path)]) in (0, 2)
    capsys.readouterr()
