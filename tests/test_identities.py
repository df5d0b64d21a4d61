"""The exact identity battery."""

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
import weylzeta.algebra as algebra_mod
import weylzeta.identities as identities_mod
from weylzeta.algebra import CycleProduct, NotCycleProduct
from weylzeta.census import CountTable, walk_count_table
from weylzeta.corpus import generate_corpus
from weylzeta.identities import (
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
    LPolynomial,
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


def test_a2_klein_l_equals_zeta_times_axis_factor_concretely():
    # the smallest Klein bottle: k = 3, a single positive off-axis weight
    q = REFERENCE[2]
    counts = walk_count_table(q, "pi1", 48).values
    p = l_poly_from_counts(counts, q.N * 3)
    lhs = p.cycle_product().inverse()
    rhs = build_walk_system(q, "pi1").zeta() * axis_factor(6, 1)
    assert lhs == rhs


@pytest.mark.parametrize("q", (REFERENCE[0], REFERENCE[2]), ids=repr)
def test_failed_l_conversion_fails_dependent_records(q, monkeypatch):
    def refuse(p):
        raise NotCycleProduct("refused")

    monkeypatch.setattr(LPolynomial, "cycle_product", refuse)
    report = verify(q)
    failed = {r.identity_id: r.detail for r in report.failures()}
    dependent = ("torus-three-way", "main-identity") if q.kind == "torus" else (
        "l-zeta-axis-correction",
        "main-identity",
    )
    assert set(failed) == {f"{i}[{rep}]" for i in dependent for rep in q.rs.rep_names}
    assert all(
        d == {"reason": "l-polynomial is not a cycle product: refused"}
        for d in failed.values()
    )


@pytest.mark.parametrize("q", (REFERENCE[0], REFERENCE[2]), ids=repr)
@pytest.mark.parametrize("fault", ("tail", "non-integer"))
def test_failed_l_reconstruction_reports_its_detail(q, fault, monkeypatch):
    def bound(rep):
        return q.N * len(q.rs.weights(rep))

    def perturbed(q_, rep, max_n):
        values = list(walk_count_table(q_, rep, max_n).values)
        if fault == "tail":
            values[bound(rep)] += bound(rep) + 1  # p at bound + 1 becomes -1
        else:
            values[1] += 1  # 2 * p_2 becomes odd
        return CountTable(rep, "walks", tuple(values))

    monkeypatch.setattr(identities_mod, "walk_count_table", perturbed)
    failed = {r.identity_id: r.detail for r in verify(q).failures()}
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


def test_cycle_records_report_a_planted_odd_cycle(monkeypatch):
    # the C2 torus sample with a spin walk system of the right size (8)
    # made of one 3-cycle and five fixed points
    spec = Path(__file__).resolve().parent.parent / "samples" / "c2_torus.spec"
    parsed = load_spec_file(str(spec))
    q = build(RootSystem.make(parsed.root_system), parsed.spec)
    real = identities_mod.build_walk_system

    def planted(q_, rep):
        system = real(q_, rep)
        if rep != "spin":
            return system
        successor = (1, 2, 0) + tuple(range(3, system.size))
        return replace(system, successor=successor)

    monkeypatch.setattr(identities_mod, "build_walk_system", planted)
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
