"""The exact identity battery."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import weylzeta.algebra as algebra_mod
import weylzeta.census as census_mod
import weylzeta.identities as identities_mod
import weylzeta.zeta as zeta_mod
from weylzeta.algebra import CycleProduct
from weylzeta.corpus import generate_corpus
from weylzeta.identities import (
    VerificationReport,
    _log_compare,
    _poly_compare,
    _product_poly_compare,
    _ratfunc_compare,
    verify,
)
from weylzeta.quotient import KleinSpec, QuotientGroup, TorusSpec, build
from weylzeta.rootgeom import RootSystem
from weylzeta.specfile import load_spec_file
from weylzeta.zeta import (
    OrderInsufficientError,
    axis_factor,
    build_walk_system,
    l_poly_from_counts,
    required_order,
)

A2 = RootSystem.make("A2")
C2 = RootSystem.make("C2")

REFERENCE = (
    build(A2, TorusSpec((2, -1), (-1, 2))),
    build(C2, TorusSpec((1, 1), (1, -1))),
    build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1)),
    build(C2, KleinSpec((1, 0), (1, 1), 2, 1, 1)),
    build(C2, KleinSpec((1, 1), (1, 0), 1, 2, 1)),
    build(A2, KleinSpec((1, 0), (0, 1), 2, 2, 1)),
    build(C2, KleinSpec((1, 0), (1, 1), 2, 2, -1)),
)


@pytest.mark.parametrize("q", REFERENCE, ids=lambda q: repr(q))
def test_all_identities_hold(q):
    report = verify(q)
    assert isinstance(report, VerificationReport)
    assert report.all_hold, [r.identity_id for r in report.failures()]


def test_record_ids_unique_and_deterministic():
    q = REFERENCE[2]
    r1 = verify(q)
    r2 = verify(q)
    ids = [r.identity_id for r in r1.records]
    assert len(ids) == len(set(ids))
    assert ids == [r.identity_id for r in r2.records]
    assert r1.to_json_dict() == r2.to_json_dict()


def test_klein_records_present():
    report = verify(REFERENCE[2])
    ids = {r.identity_id for r in report.records}
    assert "axis-parity" in ids and "glide-line-count" in ids
    assert "l-zeta-axis-correction[pi1]" in ids
    assert "double-cover-square[pi2]" in ids
    assert "main-identity[pi1]" in ids


def test_torus_records_present():
    report = verify(REFERENCE[0])
    ids = {r.identity_id for r in report.records}
    assert "torus-three-way[pi1]" in ids
    assert "walks-close-without-corners[pi2]" in ids
    assert "axis-parity" not in ids


def test_the_torus_corner_record_reads_the_walk_zeta(monkeypatch):
    # a wrong translation period for one weight of a freshly built torus
    # (the census keeps its walk progressions on the quotient) changes the
    # census's walk table but not the engine's walk zeta, so the record
    # that compares them fails
    q = build(A2, TorusSpec((2, -1), (-1, 2)))
    lam = q.rs.weights("pi1")[0]
    period = census_mod._period

    def wrong(q_, step, modulus):
        return 2 * period(q_, step, modulus) if step == lam else period(q_, step, modulus)

    monkeypatch.setattr(census_mod, "_period", wrong)
    failed = {r.identity_id: r.detail for r in verify(q).failures()}
    assert failed["walks-close-without-corners[pi1]"] == {
        "first_mismatch_n": 3,
        "lhs": 6,
        "rhs": 9,
    }
    assert "walks-close-without-corners[pi2]" not in failed


def planted_census(monkeypatch, name: str, progression: tuple, which=None) -> None:
    """census.<name> with one more progression of count 1 (in the part
    which of a pair), as verify's count records read it.  P reads zeta's
    own binding of _walk_progressions, which the plant leaves alone."""
    real = getattr(census_mod, name)

    def plant(progressions):
        out = Counter(progressions)
        out[progression] += 1
        return out

    def planted(q, rep):
        got = real(q, rep)
        if which is None:
            return plant(got)
        return tuple(plant(p) if i == which else p for i, p in enumerate(got))

    monkeypatch.setattr(census_mod, name, planted)


# (census function, part of its pair, record, system, step in w, n) of
# each count record, planted at an n past the depth its dense table had
PLANTED_RECORDS = (
    ("_gallery_progressions", None, "gallery-log-counts", zeta_mod.build_gallery_system, 2, 11),
    ("_walk_progressions", 1, "walk-log-counts", zeta_mod.build_walk_system, 2, 25),
    ("_semi_progressions", None, "half-step-log-counts", zeta_mod.build_semi_system, 1, 49),
    ("_walk_progressions", 0, "walks-close-without-corners", zeta_mod.build_walk_system, 2, 97),
)


@pytest.mark.parametrize(
    "q, planted",
    [(q, p) for q in (REFERENCE[0], REFERENCE[3]) for p in PLANTED_RECORDS
     if q.kind == "torus" or p[2] != "walks-close-without-corners"],
    ids=lambda x: repr(x) if isinstance(x, QuotientGroup) else f"{x[2]}-{x[5]}",
)
def test_a_count_record_sees_a_plant_at_any_length(q, planted, monkeypatch):
    # one more census closing at every multiple of n: the record fails at
    # n, past every depth a dense table was read to, with the census count
    # one above the system's
    name, which, identity, system, step, n = planted
    planted_census(monkeypatch, name, (0, n), which)
    failed = {r.identity_id: r.detail for r in verify(q).failures()}
    for rep in q.rs.rep_names:
        rhs = reference.closed_path_table(system(q, rep).product, step, n)[-1]
        assert failed[f"{identity}[{rep}]"] == {"first_mismatch_n": n, "lhs": rhs + 1, "rhs": rhs}
    assert {i.split("[")[0] for i in failed} == {identity}


def test_an_off_form_count_progression_raises():
    # a residue neither 0 nor m/2 in a count record's census progressions
    # is a broken lemma, not a failed identity: verify raises, also with
    # asserts stripped
    script = (
        "import collections, weylzeta.census as c\n"
        "from weylzeta import KleinSpec, RootSystem, build, verify\n"
        "real = c._semi_progressions\n"
        "c._semi_progressions = lambda q, rep: real(q, rep) + collections.Counter({(1, 3): 1})\n"
        "q = build(RootSystem.make('A2'), KleinSpec((1, 0), (0, 1), 1, 1, 1))\n"
        "try:\n"
        "    verify(q)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(census_mod.__file__).resolve().parents[1])
    for flags in ((), ("-O",)):
        done = subprocess.run(
            [sys.executable, *flags, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert done.stdout == "semi progression (1, 3) has a residue neither 0 nor m/2\n"


def test_verify_tallies_nothing(monkeypatch):
    # every count record compares divisor-sum dicts: no census table is
    # tallied, on the samples, the seed-7 corpus and every benchmark rung
    from test_zeta_report import _rungs

    def refuse(*args):
        raise RuntimeError("verify tallied a count table")

    monkeypatch.setattr(census_mod, "_tally", refuse)
    rungs = _rungs()
    specs = [(m.root_system, m.spec) for m in generate_corpus(7)]
    specs += [(rs, TorusSpec(v1, v2)) for rs, v1, v2 in rungs["TORUS_RUNGS"]]
    specs += [(rs, KleinSpec(*s)) for _, rs, _, _, kleins in rungs["KLEIN_RUNGS"] for s in kleins]
    root = Path(__file__).resolve().parent.parent / "samples"
    for path in sorted(root.glob("*.spec")):
        parsed = load_spec_file(str(path))
        specs.append((parsed.root_system, parsed.spec))
    for rs, spec in specs:
        report = verify(build(RootSystem.make(rs), spec))
        assert report.all_hold, (rs, spec, [r.identity_id for r in report.failures()])


# (census progressions, transfer system, step in w, kind, the depth the
# record's dense table was read to) of each count record
COUNT_RECORDS = (
    (lambda q, rep: census_mod._walk_progressions(q, rep)[1], zeta_mod.build_walk_system, 2, "geodesic", 24),
    (census_mod._semi_progressions, zeta_mod.build_semi_system, 1, "semi", 24),
    (census_mod._gallery_progressions, zeta_mod.build_gallery_system, 2, "gallery", 10),
    (lambda q, rep: census_mod._walk_progressions(q, rep)[0], zeta_mod.build_walk_system, 2, "walk", 12),
)
RECORD_QUOTIENTS = [m.build() for m in generate_corpus(7)][:12] + list(REFERENCE)


@st.composite
def planted_records(draw):
    """A count record of a quotient and rep, with a few on-form
    progressions (r in {0, m/2}) planted in its census progressions and a
    few cycles planted in its system's zeta."""
    q = draw(st.sampled_from(RECORD_QUOTIENTS))
    rep = draw(st.sampled_from(q.rs.rep_names))
    # the corner record, last, is a torus record
    records = COUNT_RECORDS if q.kind == "torus" else COUNT_RECORDS[:-1]
    progressions_of, system, step, kind, depth = draw(st.sampled_from(records))
    progressions = Counter(progressions_of(q, rep))
    z = system(q, rep).product
    on_form = st.integers(1, 30).flatmap(
        lambda m: st.sampled_from(((0, m), (m // 2, m)) if m % 2 == 0 else ((0, m),))
    )
    for p, c in draw(st.lists(st.tuples(on_form, st.integers(-3, 3)), max_size=3)):
        progressions[p] += c
    for ell, c in draw(st.lists(st.tuples(st.integers(1, 30), st.integers(-2, 2)), max_size=2)):
        z = z * CycleProduct({step * ell: -c})
    return z, step, dict(progressions), kind, depth


@given(planted_records())
@settings(deadline=None, max_examples=200)
def test_count_records_match_the_dense_reference_within_its_depth(planted):
    # wherever the dense tables differ within the depth a record used to
    # read them to, the divisor-sum comparison names the same n and counts;
    # where they agree there, it finds no mismatch or one past that depth
    z, step, progressions, kind, depth = planted
    got = _log_compare(z, step, progressions, kind)
    dense = reference.log_compare(z, step, progressions, depth)
    if dense:
        assert got == dense
    else:
        assert got == {} or got["first_mismatch_n"] > depth
    # the unplanted tables agree, and no planted key exceeds 30: read that
    # far, the dense tables give the same detail
    assert got == reference.log_compare(z, step, progressions, 30)


def test_a2_klein_l_equals_zeta_times_axis_factor_concretely():
    # the smallest Klein bottle: k = 3, a single positive off-axis weight
    q = REFERENCE[2]
    p = l_poly_from_counts(census_mod._walk_progressions(q, "pi1")[0], q.N * 3)
    lhs = p.inverse()
    rhs = build_walk_system(q, "pi1").product * axis_factor(6, 1)
    assert lhs == rhs


GOLDEN = Path(__file__).resolve().parent / "golden"


PLANTED_PROGRESSIONS = {"tail": (0, 1), "non-integer": (0, 2)}


def planted_walk_counts(fault: str):
    """census._walk_progressions with one more walk progression of count
    1, for the bundle to read P from: "tail" adds (0, 1), one more closed
    walk at every n, so the counts are those of P (1 - u), one degree past
    the bound; "non-integer" adds (0, 2), so 2 p_2 becomes odd.  The
    progressions are a copy: those the quotient keeps are not changed."""

    def perturbed(q, rep):
        walks, geodesics = census_mod._walk_progressions(q, rep)
        walks = Counter(walks)
        walks[PLANTED_PROGRESSIONS[fault]] += 1
        return walks, geodesics

    return perturbed


def failed_p_golden(q, fault: str) -> Path:
    """tests/golden/verify_failed_p_<root system>_<kind>_<fault>.json"""
    return GOLDEN / f"verify_failed_p_{q.rs.kind.lower()}_{q.kind}_{fault}.json"


def report_bytes(report: VerificationReport) -> str:
    """The whole report, records in order and detail keys as built."""
    return json.dumps(report.to_json_dict(), indent=1) + "\n"


@pytest.mark.parametrize("q", (REFERENCE[0], REFERENCE[2]), ids=repr)
@pytest.mark.parametrize("fault", ("tail", "non-integer"))
def test_failed_l_reconstruction_reports_its_detail(q, fault, monkeypatch):
    def bound(rep):
        return q.N * len(q.rs.weights(rep))

    planted = planted_walk_counts(fault)
    kept = {rep: census_mod._walk_progressions(q, rep)[0].copy() for rep in q.rs.rep_names}

    def perturbed(q_, rep):
        # P of the real progressions has the degree bound
        real = census_mod._walk_progressions(q_, rep)[0]
        assert l_poly_from_counts(real, bound(rep)).degree == 2 * bound(rep)
        return planted(q_, rep)

    # the bundle that verify reads takes P from the walk progressions
    monkeypatch.setattr(zeta_mod, "_walk_progressions", perturbed)
    report = verify(q)
    assert {rep: census_mod._walk_progressions(q, rep)[0] for rep in q.rs.rep_names} == kept
    failed = {r.identity_id: r.detail for r in report.failures()}
    dependent = ("torus-three-way", "main-identity") if q.kind == "torus" else (
        "l-zeta-axis-correction",
        "main-identity",
    )
    for rep in q.rs.rep_names:
        assert failed[f"l-reconstruction[{rep}]"] == (
            {"nonzero_tail_exponent": 2 * (bound(rep) + 1)}
            if fault == "tail"
            else {"reason": "L-polynomial has non-integer coefficients"}
        )
        for identity in dependent:
            assert failed[f"{identity}[{rep}]"] == {"reason": "l-reconstruction failed"}
    # every record, in order, with its holds and detail: the records that
    # need no P still hold, each compared with its own census table
    assert report_bytes(report) == failed_p_golden(q, fault).read_text()


def test_cycle_records_report_a_planted_odd_cycle(monkeypatch):
    # the C2 torus sample with a spin walk system of the right size (8)
    # made of one 3-cycle and five fixed points
    spec = Path(__file__).resolve().parent.parent / "samples" / "c2_torus.spec"
    parsed = load_spec_file(str(spec))
    q = build(RootSystem.make(parsed.root_system), parsed.spec)
    real = zeta_mod.build_walk_system

    def planted(q_, rep):
        system = real(q_, rep)
        if rep != "spin":
            return system
        successor = (1, 2, 0) + tuple(range(3, system.size))
        planted = reference.PermutationSystem("walks", rep, successor, 2).product
        assert system.size == 8 and planted == CycleProduct({2: -5, 6: -1})
        return system._replace(product=planted)

    # the bundle that verify reads builds the walk system
    monkeypatch.setattr(zeta_mod, "build_walk_system", planted)
    failed = {r.identity_id: r.detail for r in verify(q).failures()}
    # the smallest odd length, not the first found in cycle order
    assert failed["parity-evenness[spin]"] == {"which": "spin walks", "odd_cycle_length": 1}
    # the census has no closed geodesic walk of one step; the planted log has five
    assert failed["walk-log-counts[spin]"] == {"first_mismatch_n": 1, "lhs": 0, "rhs": 5}


def test_a_successful_verify_expands_nothing(monkeypatch):
    # P's coefficients and the reduced forms are expanded only where they
    # are printed: a verify whose identities all hold expands no polynomial
    def refuse(factors, top):
        raise RuntimeError("a successful verify expanded a polynomial")

    monkeypatch.setattr(algebra_mod, "_expand", refuse)
    monkeypatch.setattr(identities_mod, "_expand", refuse)
    root = Path(__file__).resolve().parent.parent / "samples"
    quotients = []
    for name in ("a2_klein", "a2_torus", "c2_klein_spin", "c2_torus"):
        parsed = load_spec_file(str(root / f"{name}.spec"))
        quotients.append(build(RootSystem.make(parsed.root_system), parsed.spec))
    quotients += [q for q in (m.build() for m in generate_corpus(7)) if q.N <= 12]
    assert {q.kind for q in quotients} == {"torus", "klein"}
    for q in quotients:
        report = verify(q)
        assert report.all_hold, (q, [r.identity_id for r in report.failures()])


def test_explicit_order_too_small_raises():
    q = REFERENCE[1]
    with pytest.raises(OrderInsufficientError) as exc:
        verify(q, order=10)
    assert exc.value.required == required_order(q) == 24
    # automatic order selection never fails
    assert verify(q).order >= 24


def test_report_json_shape():
    report = verify(REFERENCE[0])
    payload = report.to_json_dict()
    assert payload["all_hold"] is True
    assert payload["root_system"] == "A2" and payload["kind"] == "torus"
    assert all(
        set(rec) == {"id", "statement", "holds", "detail"}
        for rec in payload["verify"]
    )


# ---------------------------------------------------------------------------
# failure-detail helpers
# ---------------------------------------------------------------------------


def test_poly_compare_reports_first_mismatch():
    a = [1, 2, 3]
    b = [1, 2, 4]
    detail = _poly_compare(a, b)
    assert detail["first_mismatch_exponent"] == 2
    assert detail["lhs_coefficient"] == "3" and detail["rhs_coefficient"] == "4"
    assert _poly_compare(a, a) == {}


def test_ratfunc_compare_reports_forms():
    f = CycleProduct({2: 1, 1: -1})  # 1 + w
    g = CycleProduct({1: 1})  # 1 - w
    detail = _ratfunc_compare(f, g)
    assert detail["lhs"]["num"] == [1, 1] and detail["rhs"]["num"] == [1, -1]
    assert detail["first_mismatch_exponent"] == 1
    assert _ratfunc_compare(f, f) == {}


def test_count_compare_reports_first_mismatch():
    # a system of one fixed point and one 2-cycle closes 1, 3, 1, 3, ...
    # paths; census counts 1, 5, 1, 5, ... first differ at n = 2
    z = CycleProduct({2: -1, 4: -1})
    detail = _log_compare(z, 2, {(0, 1): 1, (0, 2): 4}, "walk")
    assert detail == {"first_mismatch_n": 2, "lhs": 5, "rhs": 3}
    assert _log_compare(z, 2, {(0, 1): 1, (0, 2): 2}, "walk") == {}
    # the same counts as a progression at the odd n and one at the even n
    assert _log_compare(z, 2, {(1, 2): 1, (0, 2): 3}, "walk") == {}
    # a step of one power of w halves the cycle lengths read off z
    assert _log_compare(CycleProduct({1: -1, 2: -1}), 1, {(0, 1): 1, (0, 2): 2}, "semi") == {}
    assert _log_compare(z, 1, {(0, 1): 1, (0, 2): 2}, "semi") == {
        "first_mismatch_n": 1,
        "lhs": 1,
        "rhs": 0,
    }


# ---------------------------------------------------------------------------
# failure details against the dense cross multiplication of the reference
# ---------------------------------------------------------------------------


def assert_details_match(lhs: CycleProduct, rhs: CycleProduct) -> None:
    assert _ratfunc_compare(lhs, rhs) == reference.ratfunc_compare(lhs, rhs)
    assert _product_poly_compare(lhs, rhs) == reference.product_poly_compare(lhs, rhs)


exponent_dicts = st.dictionaries(st.integers(1, 10), st.integers(-3, 3), max_size=5)
# mixed-sign products, functions of w and (every exponent doubled) of u
mixed_products = st.one_of(
    exponent_dicts,
    exponent_dicts.map(lambda k: {2 * e: x for e, x in k.items()}),
).map(CycleProduct)


@given(mixed_products, mixed_products)
@settings(deadline=None, max_examples=300)
def test_failure_details_match_the_dense_reference(lhs, rhs):
    for a, b in ((lhs, rhs), (rhs, lhs), (lhs * rhs, lhs)):
        assert_details_match(a, b)


def perturbed_pairs(z: CycleProduct) -> list:
    """(z, z * (1 - w**e)**s) and the swapped pair, for a few e and s = +-1."""
    pairs = []
    for e in (1, 2, 3):
        for s in (1, -1):
            other = z * CycleProduct({e: s})
            pairs += [(z, other), (other, z)]
    return pairs


def test_failure_details_match_on_the_corpus_walk_zetas():
    # a walk zeta is a function of u; odd e make its partner one of w
    for member in generate_corpus(7):
        q = member.build()
        for rep in q.rs.rep_names:
            for lhs, rhs in perturbed_pairs(build_walk_system(q, rep).product):
                assert_details_match(lhs, rhs)


@pytest.mark.parametrize(
    "q",
    (
        build(C2, TorusSpec((12, 0), (0, 24))),
        build(C2, TorusSpec((1, 1), (144, -144))),
        build(A2, TorusSpec((1, 1), (96, -192))),
    ),
    ids=repr,
)
def test_failure_details_match_on_index_288_tori(q):
    assert q.N == 288
    for rep in q.rs.rep_names:
        z = build_walk_system(q, rep).product
        for lhs, rhs in perturbed_pairs(z):
            assert_details_match(lhs, rhs)
