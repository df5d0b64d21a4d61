"""The exact identity battery."""

import pytest

from weylzeta.algebra import CycleProduct, NotCycleProduct, Poly
from weylzeta.census import CountTable, walk_count_table
from weylzeta.identities import (
    VerificationReport,
    _count_compare,
    _poly_compare,
    _ratfunc_compare,
    verify,
)
from weylzeta.quotient import KleinSpec, TorusSpec, build
from weylzeta.rootgeom import RootSystem
from weylzeta.zeta import (
    LPolynomial,
    OrderInsufficientError,
    axis_factor,
    l_poly_from_counts,
    required_order,
    zeta_walks,
)

A2 = RootSystem.a2()
C2 = RootSystem.c2()

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
    rhs = zeta_walks(q, "pi1") * axis_factor(6, 1)
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
    import weylzeta.identities as identities_mod

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
    a = Poly([1, 2, 3])
    b = Poly([1, 2, 4])
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
