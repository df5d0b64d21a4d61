"""The `zeta` report: its bytes against a w-path reference, and its cost.

The CLI reduces a same-sign cycle product without the cyclotomic split,
reduces and expands a function of u in u, and expands each distinct
reduced polynomial once per call.  `reference.zeta_output` builds the
same report the literal way: every reduced form by the mu table,
expanded in w on its own and halved to u where only even powers occur.
The two are compared byte for byte, in both formats, on the seed-7
corpus, the benchmark ladder and three quotients of index 288.  The cost
guards count calls, not time.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import reference
import weylzeta.algebra as algebra_mod
from weylzeta.cli import main, poly_to_json, ratfunc_to_json
from weylzeta.corpus import generate_corpus
from weylzeta.quotient import KleinSpec, TorusSpec, build
from weylzeta.rootgeom import RootSystem
from weylzeta.specfile import load_spec_file, spec_to_json_dict
from weylzeta.zeta import zeta_bundle

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ("a2_klein", "a2_torus", "c2_klein_spin", "c2_torus")
# index 288 (N = 288 vertex classes), the largest the library supports
INDEX_288 = (
    ("C2", TorusSpec((12, 0), (0, 24))),
    ("C2", TorusSpec((1, 1), (144, -144))),
    ("A2", TorusSpec((1, 1), (96, -192))),
)


def _rungs() -> dict:
    """The literal rung tables of bench/workloads.py, read without running it."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "").endswith("_RUNGS")
    }


def _ladder() -> list:
    """The benchmark's ladder tori and the first spec of each Klein rung."""
    rungs = _rungs()
    out = [(rs, TorusSpec(v1, v2)) for rs, v1, v2 in rungs["TORUS_RUNGS"]]
    out += [(rs, KleinSpec(*specs[0])) for _, rs, _, _, specs in rungs["KLEIN_RUNGS"]]
    return out


def _spec_file(tmp_path: Path, root_system: str, spec) -> str:
    lines = []
    for key, value in spec_to_json_dict(root_system, spec).items():
        text = ",".join(map(str, value)) if isinstance(value, list) else value
        lines.append(f"{key} = {text}\n")
    path = tmp_path / "q.spec"
    path.write_text("".join(lines))
    return str(path)


def _members():
    return [(m.root_system, m.spec) for m in generate_corpus(7)]


@pytest.mark.parametrize(
    "cases", (_members, _ladder, lambda: INDEX_288), ids=("corpus-7", "ladder", "index-288")
)
def test_zeta_report_matches_the_w_path_reference(cases, tmp_path, capsys):
    for root_system, spec in cases():
        path = _spec_file(tmp_path, root_system, spec)
        q = build(RootSystem.make(root_system), spec)
        bundle = zeta_bundle(q)  # apart from the CLI's own
        for fmt in ("json", "text"):
            assert main(["zeta", "--input", path, "--format", fmt]) == 0
            got = capsys.readouterr().out
            assert got == reference.zeta_output(q, bundle, fmt), (root_system, spec, fmt)


def _expand_keys(monkeypatch) -> Counter:
    """Count the factor dicts that algebra._expand is called with."""
    calls = Counter()
    expand = algebra_mod._expand

    def counting(factors, top):
        calls[frozenset(factors.items())] += 1
        return expand(factors, top)

    monkeypatch.setattr(algebra_mod, "_expand", counting)
    return calls


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_one_zeta_call_expands_each_factor_dict_once(fmt, tmp_path, monkeypatch, capsys):
    calls = _expand_keys(monkeypatch)
    c2_torus = str(ROOT / "samples" / "c2_torus.spec")
    for path in (c2_torus, _spec_file(tmp_path, *INDEX_288[0])):
        calls.clear()
        assert main(["zeta", "--input", path, "--format", fmt]) == 0
        assert calls and max(calls.values()) == 1, calls.most_common(1)
    capsys.readouterr()


def test_same_sign_products_skip_the_cyclotomic_split(tmp_path, monkeypatch, capsys):
    split = algebra_mod._cyclotomic_exponents
    mixed = []

    def checked(k):
        signs = {x > 0 for x in k.values()}
        assert signs == {True, False}, k
        mixed.append(k)
        return split(k)

    monkeypatch.setattr(algebra_mod, "_cyclotomic_exponents", checked)
    paths = [str(ROOT / "samples" / f"{s}.spec") for s in SAMPLES]
    for path in paths + [_spec_file(tmp_path, *INDEX_288[0])]:
        assert main(["zeta", "--input", path, "--format", "json"]) == 0
    capsys.readouterr()
    # the Klein correction factors have mixed signs and take the split
    assert mixed


@pytest.mark.parametrize("sample", ("a2_torus", "c2_torus"))
def test_torus_p_and_reciprocal_zetas_share_one_expansion(sample):
    parsed = load_spec_file(str(ROOT / "samples" / f"{sample}.spec"))
    q = build(RootSystem.make(parsed.root_system), parsed.spec)
    bundle = zeta_bundle(q)
    memo: dict = {}
    for rep in q.rs.rep_names:
        den = ratfunc_to_json(bundle.zeta[rep], memo)["den"]
        assert ratfunc_to_json(bundle.zeta_semi[rep], memo)["den"] is den
        assert poly_to_json(bundle.l_poly[rep], memo)["coeffs"] is den
