"""The exact identity battery."""

import json
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
from weylzeta.census import walk_count_table, walk_period
from weylzeta.corpus import generate_corpus
from weylzeta.identities import (
    CORNER_DEPTH,
    GALLERY_LOG_DEPTH,
    SEMI_LOG_DEPTH,
    WALK_LOG_DEPTH,
    VerificationReport,
    _count_compare,
    _poly_compare,
    _product_poly_compare,
    _ratfunc_compare,
    verify,
)
from weylzeta.quotient import KleinSpec, TorusSpec, build
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


def test_a2_klein_l_equals_zeta_times_axis_factor_concretely():
    # the smallest Klein bottle: k = 3, a single positive off-axis weight
    q = REFERENCE[2]
    counts = walk_count_table(q, "pi1", walk_period(q, "pi1"))
    p = l_poly_from_counts(counts, q.N * 3)
    lhs = p.cycle_product().inverse()
    rhs = build_walk_system(q, "pi1").zeta() * axis_factor(6, 1)
    assert lhs == rhs


GOLDEN = Path(__file__).resolve().parent / "golden"


def planted_walk_counts(fault: str):
    """walk_count_table with a planted fault, for the bundle to read P
    from: "tail" adds 1 to every count, so the counts are those of
    P (1 - u), one degree past the bound; "non-integer" adds 1 to the
    second count, so 2 p_2 becomes odd."""

    def perturbed(q, rep, max_n):
        values = list(walk_count_table(q, rep, max_n))
        if fault == "tail":
            values = [v + 1 for v in values]
        else:
            values[1] += 1
        return tuple(values)

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

    def perturbed(q_, rep, max_n):
        # one period of the walk counts: P has degree N_M = bound
        assert max_n == walk_period(q_, rep) >= 2
        assert walk_count_table(q_, rep, max_n)[-1] == bound(rep)
        return planted(q_, rep, max_n)

    # the bundle that verify reads tallies one period of the walk counts
    monkeypatch.setattr(zeta_mod, "walk_count_table", perturbed)
    report = verify(q)
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
        planted = reference.PermutationSystem("walks", rep, successor, 2).zeta()
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


def test_no_verify_depth_exceeds_the_required_order():
    # verify reads its census tables at fixed depths, clamped by nothing:
    # Gamma0 lies in the coroot lattice, so N >= 3 on A2 and N >= 2 on C2,
    # and required_order(q) = 2 N (weights) + 8 >= 26 and 24 respectively.
    # Corpus seeds 0..11, the samples and every benchmark ladder spec.
    from test_zeta_report import _rungs

    rungs = _rungs()
    specs = [(m.root_system, m.spec) for seed in range(12) for m in generate_corpus(seed)]
    specs += [(rs, TorusSpec(v1, v2)) for rs, v1, v2 in rungs["TORUS_RUNGS"]]
    specs += [(rs, KleinSpec(*s)) for _, rs, _, _, kleins in rungs["KLEIN_RUNGS"] for s in kleins]
    root = Path(__file__).resolve().parent.parent / "samples"
    for path in sorted(root.glob("*.spec")):
        parsed = load_spec_file(str(path))
        specs.append((parsed.root_system, parsed.spec))
    lowest = {"A2": [], "C2": []}
    for rs, spec in specs:
        lowest[rs].append(required_order(build(RootSystem.make(rs), spec)))
    assert {rs: min(orders) for rs, orders in lowest.items()} == {"A2": 26, "C2": 24}
    depths = (WALK_LOG_DEPTH, SEMI_LOG_DEPTH, GALLERY_LOG_DEPTH, CORNER_DEPTH)
    assert min(map(min, lowest.values())) >= max(depths)


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
    detail = _count_compare([(1, 0, 0), (2, 5, 7)])
    assert detail == {"first_mismatch_n": 2, "lhs": 5, "rhs": 7}
    assert _count_compare([(1, 3, 3)]) == {}


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
            for lhs, rhs in perturbed_pairs(build_walk_system(q, rep).zeta()):
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
        z = build_walk_system(q, rep).zeta()
        for lhs, rhs in perturbed_pairs(z):
            assert_details_match(lhs, rhs)
