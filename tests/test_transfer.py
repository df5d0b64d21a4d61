"""The flat-index transfer-system builder: its index map, its
per-quotient grid, and its agreement with the tuple-canonicalizing
reference builders."""

import gc
import random
import weakref
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from weylzeta.algebra import CycleProduct
from weylzeta.corpus import generate_corpus
from weylzeta.identities import _closed_path_table, _cycles, verify
from weylzeta.quotient import (
    MAX_CLASSES,
    AffineMap,
    KleinSpec,
    SpecValidationError,
    TorusSpec,
    build,
)
from weylzeta.rootgeom import RootSystem, vec_add, vec_scale, vec_sub
from weylzeta.specfile import load_spec_file
from weylzeta.zeta import (
    TransferSystem,
    _grid,
    build_gallery_system,
    build_semi_system,
    build_walk_system,
)

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ("a2_klein", "a2_torus", "c2_klein_spin", "c2_torus")

BUILDERS = (
    (build_walk_system, reference.build_walk_system),
    (build_semi_system, reference.build_semi_system),
    (build_gallery_system, reference.build_gallery_system),
)


def _reference_quotients():
    qs = [member.build() for member in generate_corpus(7)]
    for name in SAMPLES:
        parsed = load_spec_file(str(ROOT / "samples" / f"{name}.spec"))
        qs.append(build(RootSystem.make(parsed.root_system), parsed.spec))
    kleins = [q for q in qs if q.kind == "klein"]
    return qs + [build(q.rs, TorusSpec(*q.gamma0_basis)) for q in kleins]


def test_builders_match_tuple_reference():
    qs = _reference_quotients()
    assert any(q.kind == "klein" for q in qs) and any(q.kind == "torus" for q in qs)
    for q in qs:
        for rep in q.rs.rep_names:
            for flat, ref in BUILDERS:
                got, want = flat(q, rep), ref(q, rep)
                where = (q, rep, got.kind)
                assert got.size == want.size, where
                # with a fixed step, equal zetas are equal multisets of cycle lengths
                assert got.zeta() == want.zeta(), where


def test_transfer_system_rejects_a_non_bijective_successor():
    for successor in (
        (1, 1, 0),  # 0 and 1 both go to 1; 2 has no predecessor
        (0, 2),  # out of range
        (0, -1, 1),  # -1: the number of a dropped semi state
        (1, 2, 1),  # rho-shaped: the walk from 0 closes at 1, not at 0
        (0, 2, 3, 2),  # a fixed point, then a tail into a 2-cycle
        (2, 0, 0),  # a walk that runs into an earlier cycle
    ):
        with pytest.raises(AssertionError, match="not a bijection"):
            TransferSystem("walks", "pi1", successor, 2)


def test_transfer_system_accepts_exactly_the_bijections_of_four_states():
    # the range and closure checks pass exactly the bijections
    for successor in product(range(4), repeat=4):
        bijective = sorted(successor) == [0, 1, 2, 3]
        try:
            TransferSystem("walks", "pi1", successor, 2)
        except AssertionError:
            assert not bijective, successor
        else:
            assert bijective, successor


def test_cycles_are_read_off_the_zeta():
    system = TransferSystem("walks", "pi1", (1, 0, 2, 3), 2)
    assert system.size == 4
    assert system.zeta() == CycleProduct({2: -2, 4: -1})
    cycles = _cycles(system.zeta(), system.step_in_w)
    assert cycles == [(1, 2), (2, 1)]
    # n = 1, 2, 3, 4: the two fixed points, and the 2-cycle at even n
    assert _closed_path_table(system.zeta(), system.step_in_w, 4) == [2, 4, 2, 4]


# ---------------------------------------------------------------------------
# the index map of the grid
# ---------------------------------------------------------------------------

# a basis of the coroot lattice of each root system
COROOT_BASIS = {"A2": ((1, 1), (3, 0)), "C2": ((1, 1), (2, 0))}

KLEIN_SPECS = sorted(
    {
        (member.root_system, member.spec)
        for seed in range(3)
        for member in generate_corpus(seed, 0, 12)
    },
    key=repr,
)

POINTS = st.tuples(st.integers(-60, 60), st.integers(-60, 60))


def _check_grid(q, x, half):
    grid = _grid(q, half)
    points, index, shifted, sigma = grid.points, grid.index, grid.shifted, grid.sigma
    u, v = q.gamma0_basis
    member = q.in_translation_subgroup
    if half:
        u, v = vec_scale(2, u), vec_scale(2, v)
        member = lambda d2: reference.in_gamma0(q, d2, 2 * q._det)
    assert points == (q.half_residues() if half else q.residues())
    assert len(points) == (4 if half else 1) * q._det
    assert all(index(p) == i for i, p in enumerate(points))
    i = index(x)
    assert 0 <= i < len(points)
    assert index(vec_add(x, u)) == i == index(vec_add(x, v))
    assert index(vec_sub(x, u)) == i == index(vec_sub(x, v))
    assert member(vec_sub(points[i], x))
    assert shifted(x) == [index(vec_add(p, x)) for p in points]
    if q.kind == "torus":
        assert sigma is None
        return
    assert sorted(sigma) == list(range(len(sigma)))
    assert all(sigma[k] != k and sigma[sigma[k]] == k for k in range(len(sigma)))


@given(
    st.sampled_from(("A2", "C2")),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    POINTS,
)
@settings(deadline=None, max_examples=30)
def test_torus_index_map(rs_name, c1, c2, x):
    (b1, b2) = COROOT_BASIS[rs_name]
    v1 = vec_add(vec_scale(c1[0], b1), vec_scale(c1[1], b2))
    v2 = vec_add(vec_scale(c2[0], b1), vec_scale(c2[1], b2))
    det = v1[0] * v2[1] - v2[0] * v1[1]
    assume(0 < abs(det) <= MAX_CLASSES)
    q = build(RootSystem.make(rs_name), TorusSpec(v1, v2))
    _check_grid(q, x, False)
    _check_grid(q, x, True)


@given(st.sampled_from(KLEIN_SPECS), st.sampled_from((1, 2, 3, -1, -2)), POINTS)
@settings(deadline=None, max_examples=30)
def test_klein_index_map(item, m, x):
    rs_name, spec = item
    try:
        q = build(RootSystem.make(rs_name), replace(spec, m=spec.m * m))
    except SpecValidationError:
        assume(False)
    _check_grid(q, x, False)
    _check_grid(q, x, True)


# ---------------------------------------------------------------------------
# the grid is built once per quotient and shared by its systems
# ---------------------------------------------------------------------------

A2 = RootSystem.a2()
C2 = RootSystem.c2()


def _klein_and_cover(rs, spec):
    q = build(rs, spec)
    return q, build(rs, TorusSpec(*q.gamma0_basis))


def _systems(q, calls):
    out = {}
    for flat, rep in calls:
        system = flat(q, rep)
        out[flat.__name__, rep] = (system.size, system.zeta())
    return out


def test_systems_agree_in_any_build_order():
    rng = random.Random(9)
    for q in (*_klein_and_cover(C2, KleinSpec((1, 0), (1, 1), 2, 1, 1)),
              build(A2, TorusSpec((6, 0), (0, 3)))):
        calls = [(flat, rep) for flat, _ in BUILDERS for rep in q.rs.rep_names]
        assert len(calls) == 6
        fresh = _systems(build(q.rs, q.spec), calls)
        for _ in range(2):
            rng.shuffle(calls)
            assert _systems(q, calls) == fresh, q


def test_klein_and_double_cover_hold_distinct_grids():
    q, cover = _klein_and_cover(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
    for half in (False, True):
        grid = _grid(q, half)
        assert _grid(q, half) is grid
        assert _grid(cover, half) is not grid
        assert grid.sigma is not None and _grid(cover, half).sigma is None
        assert len(_grid(cover, half).points) == len(grid.points)


def test_quotient_tables_die_with_the_quotient():
    q = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
    assert verify(q).all_hold
    tables = [weakref.ref(q), weakref.ref(_grid(q)), weakref.ref(_grid(q, True))]
    del q
    gc.collect()
    assert [ref() for ref in tables] == [None, None, None]


def test_a_glide_with_a_fixed_point_raises(monkeypatch):
    q = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
    monkeypatch.setattr(q, "sigma", AffineMap.identity())
    with pytest.raises(AssertionError, match="fixed-point-free involution"):
        build_walk_system(q, "pi1")
