"""Acceptance criteria.

All arithmetic is exact, so every assertion is an exact equality; the
only tolerances are the runtime budgets.  Each criterion prints one
PASS line (visible with -s) after its assertions succeed.
"""

import time

import pytest

from reference import num_den
from weylzeta.algebra import CycleProduct
from weylzeta.corpus import generate_corpus
from weylzeta.identities import verify
from weylzeta.quotient import KleinSpec, TorusSpec, build
from weylzeta.rootgeom import RootSystem
from weylzeta.zeta import (
    OrderInsufficientError,
    build_gallery_system,
    build_semi_system,
    build_walk_system,
    required_order,
    zeta_bundle,
)

SEED = 20250808

A2 = RootSystem.make("A2")
C2 = RootSystem.make("C2")

_MEMBERS = generate_corpus(SEED, tori_per_system=20, kleins_min=12)
_RESULTS: dict = {}


def _result(member):
    if member.name not in _RESULTS:
        q = member.build()
        _RESULTS[member.name] = (q, verify(q))
    return _RESULTS[member.name]


def _tori():
    return [m for m in _MEMBERS if isinstance(m.spec, TorusSpec)]


def _kleins():
    return [m for m in _MEMBERS if isinstance(m.spec, KleinSpec)]


def _record(report, identity_id):
    matches = [r for r in report.records if r.identity_id == identity_id]
    assert len(matches) == 1, f"missing record {identity_id}"
    return matches[0]


def inverse_power(w_exp, e):
    return CycleProduct({w_exp: -e})


def test_criterion_1_regression_values():
    t0 = time.perf_counter()
    a2 = build(A2, TorusSpec((2, -1), (-1, 2)))
    c2 = build(C2, TorusSpec((1, 1), (1, -1)))
    # A2 coroot torus
    assert build_walk_system(a2, "pi1").zeta() == inverse_power(6, 3)
    assert build_walk_system(a2, "pi2").zeta() == inverse_power(6, 3)
    assert build_gallery_system(a2, "pi1").zeta() == inverse_power(12, 3)
    # C2 coroot torus
    assert build_walk_system(c2, "spin").zeta() == inverse_power(4, 4)
    assert build_walk_system(c2, "st").zeta() == inverse_power(2, 8)
    bundle = zeta_bundle(c2)
    assert bundle.l_func["st"] == inverse_power(2, 10)
    assert build_gallery_system(c2, "spin").zeta() == inverse_power(4, 8)
    assert build_gallery_system(c2, "st").zeta() == inverse_power(4, 8)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"regression suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1: PASS regression values ({elapsed:.2f}s)")


def test_criterion_2_torus_suite():
    t0 = time.perf_counter()
    tori = _tori()
    for kind in ("A2", "C2"):
        assert sum(1 for m in tori if m.root_system == kind) >= 20
    for member in tori:
        q, report = _result(member)
        assert report.all_hold, (member.name, [r.identity_id for r in report.failures()])
        for rep in q.rs.rep_names:
            assert _record(report, f"torus-three-way[{rep}]").holds
            assert _record(report, f"walks-close-without-corners[{rep}]").holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"torus suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 2: PASS torus suite, {len(tori)} members ({elapsed:.2f}s)")


def test_criterion_3_klein_suite():
    t0 = time.perf_counter()
    kleins = _kleins()
    assert len(kleins) >= 12
    cells = set()
    for member in kleins:
        q, report = _result(member)
        cells.add((q.rs.kind, q.type_rep if q.rs.kind == "C2" else None, q.b % 2))
        assert report.all_hold, (member.name, [r.identity_id for r in report.failures()])
        for rep in q.rs.rep_names:
            assert _record(report, f"l-zeta-axis-correction[{rep}]").holds
        assert _record(report, "axis-parity").holds
        assert _record(report, "glide-line-count").holds
    assert cells >= {
        ("A2", None, 0),
        ("A2", None, 1),
        ("C2", "spin", 0),
        ("C2", "spin", 1),
        ("C2", "st", 0),
    }
    elapsed = time.perf_counter() - t0
    assert elapsed < 90.0, f"klein suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 3: PASS klein suite, {len(kleins)} members ({elapsed:.2f}s)")


def test_criterion_4_cover_consistency():
    t0 = time.perf_counter()
    for member in _kleins():
        q, report = _result(member)
        for rep in q.rs.rep_names:
            assert _record(report, f"double-cover-square[{rep}]").holds
            assert _record(report, f"half-step-vs-walk[{rep}]").holds
        cover = build(q.rs, TorusSpec(*q.gamma0_basis))
        for rep in q.rs.rep_names:
            assert build_semi_system(cover, rep).zeta() == build_walk_system(cover, rep).zeta()
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 4: PASS cover consistency ({elapsed:.2f}s)")


def test_criterion_5_gallery_suite():
    t0 = time.perf_counter()
    for member in _MEMBERS:
        q, report = _result(member)
        for rep in q.rs.rep_names:
            assert _record(report, f"gallery-vs-half-step[{rep}]").holds
            assert _record(report, f"gallery-log-counts[{rep}]").holds
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 5: PASS gallery suite ({elapsed:.2f}s)")


def test_criterion_6_main_identity():
    t0 = time.perf_counter()
    for member in _MEMBERS:
        q, report = _result(member)
        for rep in q.rs.rep_names:
            assert _record(report, f"main-identity[{rep}]").holds, member.name
    elapsed = time.perf_counter() - t0
    print(
        f"\nACCEPTANCE 6: PASS main identity on all {len(_MEMBERS)} members "
        f"({elapsed:.2f}s)"
    )


def test_criterion_7_structural_invariants():
    t0 = time.perf_counter()
    reference = (
        build(A2, TorusSpec((2, -1), (-1, 2))),
        build(C2, TorusSpec((1, 1), (1, -1))),
        build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1)),
        build(C2, KleinSpec((1, 0), (1, 1), 2, 1, 1)),
        build(C2, KleinSpec((1, 1), (1, 0), 1, 2, 1)),
    )
    for q in reference:
        for rep in q.rs.rep_names:
            for sys in (
                build_walk_system(q, rep),
                build_semi_system(q, rep),
                build_gallery_system(q, rep),
            ):
                assert sorted(sys.successor) == list(range(sys.size))
        bundle = zeta_bundle(q)
        for rep in q.rs.rep_names:
            for z in (bundle.zeta[rep], bundle.zeta2[rep], bundle.zeta_semi[rep]):
                num, den = num_den(z)
                assert den.coefficient(0) == 1
                assert num.coeffs == (1,)
            assert bundle.l_poly[rep].u_coeffs()[0] == 1
        # parity: even u-powers only for spin walks and type-rep galleries
        if q.rs.kind == "C2":
            den = num_den(bundle.zeta["spin"])[1]
            assert all(i % 4 == 0 for i, c in enumerate(den.coeffs) if c != 0)
            if q.kind == "klein":
                den = num_den(bundle.zeta2[q.type_rep])[1]
                assert all(i % 4 == 0 for i, c in enumerate(den.coeffs) if c != 0)
        # insufficient order is detected, never silently truncated
        with pytest.raises(OrderInsufficientError) as exc:
            verify(q, order=5)
        assert exc.value.required == required_order(q)
        assert "raise order" in str(exc.value)
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 7: PASS structural invariants ({elapsed:.2f}s)")
