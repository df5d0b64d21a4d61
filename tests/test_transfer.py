"""The flat-index transfer-system builder: its per-quotient grid (vertex
positions, the half-lattice classes as four parity cosets of them, block
shifts and the glide), and its agreement with the tuple-canonicalizing
reference builders."""

import gc
import random
from collections import Counter
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
    KleinSpec,
    SpecValidationError,
    TorusSpec,
    build,
)
from weylzeta.rootgeom import LabelTable, RootSystem, vec_add, vec_scale, vec_sub
from weylzeta.specfile import load_spec_file
from weylzeta.zeta import (
    TransferSystem,
    _Grid,
    _grid,
    _transfer_system,
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
    # the largest Klein bottle of the benchmark ladder (C2 spin, b even,
    # N = 96), and a torus whose box is one row, so that every step
    # between rows carries
    qs.append(build(RootSystem.make("C2"), KleinSpec((1, 0), (1, 1), -4, -4, 6)))
    qs.append(build(RootSystem.make("C2"), TorusSpec((1, 1), (5, -5))))
    kleins = [q for q in qs if q.kind == "klein"]
    return qs + [build(q.rs, TorusSpec(*q.gamma0_basis)) for q in kleins]


def test_builders_match_tuple_reference():
    qs = _reference_quotients()
    assert any(q.kind == "klein" and q.N == 96 for q in qs)
    assert any(q.kind == "torus" and q._triangle[2] == 1 for q in qs)
    for q in qs:
        for rep in q.rs.rep_names:
            for flat, ref in BUILDERS:
                got, want = flat(q, rep), ref(q, rep)
                where = (q, rep, got.kind)
                assert got.size == want.size, where
                # with a fixed step, equal zetas are equal multisets of cycle lengths
                assert got.zeta() == want.zeta(), where
            if q.kind == "torus":
                # the semi system keeps two of the four parity blocks per weight
                assert build_semi_system(q, rep).size == 2 * q.N * len(q.rs.weights(rep))


def test_a_step_off_the_kept_blocks_is_not_a_bijection(monkeypatch):
    moves = _Grid.moves

    def into(block):
        def patched(grid, b, lam, scale):
            _, ranks, flipped = moves(grid, b, lam, scale)
            return (block, ranks, flipped)

        return patched

    for q in (build(A2, TorusSpec((6, 0), (0, 3))), build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))):
        with monkeypatch.context() as patch:
            # every half step lands in the rational block 0
            patch.setattr(_Grid, "moves", into(0))
            with pytest.raises(AssertionError, match="not a bijection"):
                build_semi_system(q, "pi1")
            # one label on one block: sent to block 1, its states would
            # permute themselves if they were not given negative ids
            patch.setattr(_Grid, "moves", into(1))
            with pytest.raises(AssertionError, match="not a bijection"):
                one_label = LabelTable((((1, 0),),), "walks")
                _transfer_system(q, "walks", "pi1", 2, one_label)


def test_transfer_system_rejects_a_non_bijective_successor():
    for successor in (
        (1, 1, 0),  # 0 and 1 both go to 1; 2 has no predecessor
        (0, 2),  # out of range
        (0, -1, 1),  # a negative id, as of a state sent off the kept semi blocks
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
# the grid: positions, block shifts and the glide
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


def _check_grid(q, x):
    # a vertex class sits at the position of its box point, and the
    # half-lattice class of mu_b + 2 p (doubled coordinates) at b * n + that
    grid, n = _grid(q), q._det
    box, half = q.residues(), q.half_residues()
    assert grid.n == n == len(box)
    assert half == [((b & 1) + 2 * i, (b >> 1) + 2 * j) for b in range(4) for i, j in box]
    where = {p: k for k, p in enumerate(box)}
    half_where = {p: k for k, p in enumerate(half)}
    assert len(where) == n and len(half_where) == 4 * n

    def pos(p):
        return where[q.reduce(p)]

    def half_pos(p2):
        return half_where[q.reduce_half(p2)]

    u, v = q.gamma0_basis
    i = pos(x)
    assert pos(vec_add(x, u)) == i == pos(vec_add(x, v))
    assert pos(vec_sub(x, u)) == i == pos(vec_sub(x, v))
    assert reference.in_gamma0(q, vec_sub(box[i], x), q._det)
    assert grid.shifted(x) == [pos(vec_add(p, x)) for p in box]
    u2, v2 = vec_scale(2, u), vec_scale(2, v)
    i = half_pos(x)
    assert half_pos(vec_add(x, u2)) == i == half_pos(vec_sub(x, v2))
    assert reference.in_gamma0(q, vec_sub(half[i], x), 2 * q._det)
    # the half step by x of the representatives of each block: block shifts
    # of the vertex grid, and each orbit's representative by rank
    for b in range(4):
        block, ranks, flipped = grid.moves(b, x, 1)
        targets = [half_pos(vec_add(half[b * n + r], x)) for r in grid.reps[b]]
        assert {t // n for t in targets} <= {block}
        if q.kind == "torus":
            assert flipped is None and [block * n + r for r in ranks] == targets
            continue
        assert len(ranks) == len(flipped) == len(targets)
        for t, r, f in zip(targets, ranks, flipped):
            rep = grid.sigma[t] if f else t
            assert rep < grid.sigma[rep] and grid.reps[rep // n][r] == rep % n
    if q.kind == "torus":
        assert grid.sigma is None
        return
    sigma = grid.sigma
    assert sigma == [half_pos(reference.sigma_half(q, p)) for p in half]
    assert sorted(sigma) == list(range(4 * n))
    assert all(sigma[k] != k and sigma[sigma[k]] == k for k in range(4 * n))
    assert sum(map(len, grid.reps)) == 2 * n


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
    _check_grid(q, x)


@given(st.sampled_from(KLEIN_SPECS), st.sampled_from((1, 2, 3, -1, -2)), POINTS)
@settings(deadline=None, max_examples=30)
def test_klein_index_map(item, m, x):
    rs_name, spec = item
    try:
        q = build(RootSystem.make(rs_name), replace(spec, m=spec.m * m))
    except SpecValidationError:
        assume(False)
    _check_grid(q, x)


def test_the_grid_reads_the_quotient_representatives():
    # the quotient alone picks each glide orbit's representative, and the
    # grid numbers the states of each block by those, in their order
    kleins = [q for q in _reference_quotients() if q.kind == "klein"]
    assert len(kleins) == 15 + 2 + 1
    for q in kleins:
        grid, n = _grid(q), q._det
        box, half = q.residues(), q.half_residues()
        got = tuple(half[b * n + x] for b in range(4) for x in grid.reps[b])
        assert got == q.half_orbit_reps(), q
        assert tuple(box[x] for x in grid.reps[0]) == q.vertex_reps, q
        sizes = [len(reps) for reps in grid.reps]
        assert q._half_blocks == tuple(sum(sizes[:b]) for b in range(5)), q


# ---------------------------------------------------------------------------
# the grid is built once per quotient and shared by its systems
# ---------------------------------------------------------------------------

A2 = RootSystem.make("A2")
C2 = RootSystem.make("C2")


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
    grid = _grid(q)
    assert _grid(q) is grid
    assert _grid(cover) is not grid
    assert grid.sigma is not None and _grid(cover).sigma is None
    assert _grid(cover).n == grid.n
    assert sum(map(len, grid.reps)) == 2 * grid.n
    assert sum(map(len, _grid(cover).reps)) == 4 * grid.n


def test_quotient_tables_die_with_the_quotient():
    q = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
    assert verify(q).all_hold
    tables = [weakref.ref(q), weakref.ref(_grid(q))]
    del q
    gc.collect()
    assert [ref() for ref in tables] == [None, None]


def test_label_tables_are_derived_once_per_root_system(monkeypatch):
    # a fresh root system, so that no earlier test has made its tables
    rs = RootSystem("A2")
    made, flips = Counter(), Counter()
    init, derive = LabelTable.__init__, LabelTable._derive_flip

    def counting_init(table, labels, kind):
        made[labels, kind] += 1
        init(table, labels, kind)

    def counting_derive(table, m):
        flips[id(table), m] += 1
        return derive(table, m)

    monkeypatch.setattr(LabelTable, "__init__", counting_init)
    monkeypatch.setattr(LabelTable, "_derive_flip", counting_derive)
    kleins = [build(rs, KleinSpec((1, 0), (0, 1), 1, 1, m)) for m in (1, 2)]
    assert kleins[0].sigma.linear == kleins[1].sigma.linear
    assert kleins[0].N != kleins[1].N
    for q in kleins:
        for flat, _ in BUILDERS:
            for rep in rs.rep_names:
                flat(q, rep)
    # one layout per (rep, kind) and one flip per layout and reflection
    assert len(made) == 6 and set(made.values()) == {1}
    assert len(flips) == 6 and set(flips.values()) == {1}


def test_a_glide_with_a_fixed_point_raises(monkeypatch):
    q = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
    # an involution that fixes position 0 and its former partner
    glide = list(q._glide)
    partner = glide[0]
    glide[0], glide[partner] = 0, partner
    monkeypatch.setattr(q, "_glide", glide)
    with pytest.raises(AssertionError, match="fixed-point-free involution"):
        build_walk_system(q, "pi1")


def test_a_glide_that_is_not_an_involution_raises(monkeypatch):
    q = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
    size = len(q._glide)
    # one cycle through every position: no fixed point, and of order 4n
    monkeypatch.setattr(q, "_glide", [(p + 1) % size for p in range(size)])
    with pytest.raises(AssertionError, match="fixed-point-free involution"):
        build_walk_system(q, "pi1")
