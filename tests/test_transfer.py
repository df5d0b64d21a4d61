"""The segment-cycle transfer-system builder: its per-quotient grid
(vertex positions, the half-lattice classes as four parity cosets of
them, block shifts, the glide's block maps and orbit ranks), the segment
plans the label tables keep, its checks, its cost, and its agreement
with the tuple-canonicalizing reference builders and their explicit
successor walk."""

import ast
import gc
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
import weylzeta.zeta as zeta_mod
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
from weylzeta.rootgeom import (
    IDENTITY,
    LabelTable,
    RootSystem,
    mat_det,
    mat_vec,
    vec_add,
    vec_scale,
    vec_sub,
)
from weylzeta.specfile import load_spec_file
from weylzeta.zeta import (
    TransferSystem,
    _Grid,
    _compose,
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


def _stepping_into(block, labels, kind):
    """A fresh LabelTable whose every step lands in block, each by its own shift."""

    class Into(LabelTable):
        def _step(self, k, b):
            return block, LabelTable._step(self, k, b)[1]

    return Into(labels, kind)


def test_a_step_off_the_kept_blocks_is_not_a_bijection():
    semi = A2.label_table("pi1", "semi").labels
    for q in (build(A2, TorusSpec((6, 0), (0, 3))), build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))):
        # every half step lands in the rational block 0
        with pytest.raises(AssertionError, match="not a bijection"):
            _transfer_system(q, "pi1", _stepping_into(0, semi, "semi"))
        # one label on one block, sent to block 1: off its only segment
        with pytest.raises(AssertionError, match="not a bijection"):
            _transfer_system(q, "pi1", _stepping_into(1, (((1, 0),),), "walks"))


def test_transfer_system_rejects_a_non_bijective_successor():
    # the explicit walk of tests/reference.py, the oracle of the builders
    for successor in (
        (1, 1, 0),  # 0 and 1 both go to 1; 2 has no predecessor
        (0, 2),  # out of range
        (0, -1, 1),  # a negative id
        (1, 2, 1),  # rho-shaped: the walk from 0 closes at 1, not at 0
        (0, 2, 3, 2),  # a fixed point, then a tail into a 2-cycle
        (2, 0, 0),  # a walk that runs into an earlier cycle
    ):
        with pytest.raises(AssertionError, match="not a bijection"):
            reference.PermutationSystem("walks", "pi1", successor, 2)


def test_transfer_system_accepts_exactly_the_bijections_of_four_states():
    # the range and closure checks pass exactly the bijections
    for successor in product(range(4), repeat=4):
        bijective = sorted(successor) == [0, 1, 2, 3]
        try:
            reference.PermutationSystem("walks", "pi1", successor, 2)
        except AssertionError:
            assert not bijective, successor
        else:
            assert bijective, successor


def test_cycles_are_read_off_the_zeta():
    system = reference.PermutationSystem("walks", "pi1", (1, 0, 2, 3), 2)
    assert system.size == 4
    assert system.zeta() == CycleProduct({2: -2, 4: -1})
    cycles = _cycles(system.zeta(), system.step_in_w)
    assert cycles == [(1, 2), (2, 1)]
    # n = 1, 2, 3, 4: the two fixed points, and the 2-cycle at even n
    assert _closed_path_table(system.zeta(), system.step_in_w, 4) == [2, 4, 2, 4]
    # the package's record of the same cycles
    assert TransferSystem("walks", "pi1", 2, 4, system.zeta()).zeta() == system.zeta()


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
    # the half step by x of every point of each block is one block shift
    # of the vertex grid, and a step by 2x moves a vertex by x
    for b in range(4):
        block, shift = LabelTable(((x,),), "semi")._step(0, b)
        table = grid.shifted(shift)
        assert [block * n + t for t in table] == [half_pos(vec_add(p, x)) for p in half[b * n : b * n + n]]
    assert LabelTable(((x,),), "walks")._step(0, 0) == (0, x)
    # a run of steps is one shift by their sum
    assert _compose([grid.shifted(x), grid.shifted((1, 2))]) == grid.shifted(vec_add(x, (1, 2)))
    if q.kind == "torus":
        assert grid.sigma is None
        return
    sigma = grid.sigma
    assert sigma == [half_pos(reference.sigma_half(q, p)) for p in half]
    assert all(sigma[k] != k and sigma[sigma[k]] == k for k in range(4 * n))
    # the glide maps each block onto one block by its block map, and numbers
    # the pairs of a block it fixes by their lower positions
    for b in range(4):
        image, sig = grid.image[b], grid.sig[b]
        assert [image * n + s for s in sig] == sigma[b * n : b * n + n]
        assert sorted(sig) == list(range(n))
        if image != b:
            continue
        lows, rank = grid.orbit_ranks(b)
        assert lows == sorted({min(y, sig[y]) for y in range(n)})
        assert len(lows) == n // 2 and all(lows[rank[y]] == min(y, sig[y]) for y in range(n))


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
        q = build(RootSystem.make(rs_name), spec._replace(m=spec.m * m))
    except SpecValidationError:
        assume(False)
    _check_grid(q, x)


def _orbit_blocks(grid):
    """The positions of each block that name glide orbits: the ranked ones
    of a block the glide fixes, and every one of the earlier block of a
    pair the glide swaps."""
    out = []
    for b in range(4):
        if grid.image[b] == b:
            out.append(grid.orbit_ranks(b)[0])
        else:
            out.append(list(range(grid.n)) if b < grid.image[b] else [])
    return out


def test_the_grid_reads_the_quotient_representatives():
    # the quotient alone picks each glide orbit's representative, and the
    # grid ranks the pairs of each block the glide fixes by those, in order
    kleins = [q for q in _reference_quotients() if q.kind == "klein"]
    assert len(kleins) == 15 + 2 + 1
    swapped = 0
    for q in kleins:
        grid, n = _grid(q), q._det
        box, half = q.residues(), q.half_residues()
        blocks = _orbit_blocks(grid)
        got = tuple(half[b * n + x] for b in range(4) for x in blocks[b])
        assert got == q.half_orbit_reps(), q
        assert grid.image[0] == 0
        assert tuple(box[x] for x in grid.orbit_ranks(0)[0]) == q.vertex_reps, q
        sizes = [len(xs) for xs in blocks]
        assert q._half_blocks == tuple(sum(sizes[:b]) for b in range(5)), q
        swapped += grid.image != [0, 1, 2, 3]
    assert swapped


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


def _corpus_systems(members):
    """Every system of each member, built in the given member order on fresh
    root systems, so that each quotient meets the plans its predecessors
    left on the label tables."""
    fresh = {"A2": RootSystem("A2"), "C2": RootSystem("C2")}
    out = {}
    for member in members:
        q = build(fresh[member.root_system], member.spec)
        calls = [(flat, rep) for flat, _ in BUILDERS for rep in q.rs.rep_names]
        out[member.name] = _systems(q, calls)
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
    # across quotients: the corpus forward and reversed, and the explicit
    # walk on its Klein bottles
    members = generate_corpus(7)
    forward = _corpus_systems(members)
    assert _corpus_systems(members[::-1]) == forward
    kleins = [member for member in members if isinstance(member.spec, KleinSpec)]
    assert len(kleins) == 15
    for member in kleins:
        q = member.build()
        want = {}
        for flat, ref in BUILDERS:
            for rep in q.rs.rep_names:
                system = ref(q, rep)
                want[flat.__name__, rep] = (system.size, system.zeta())
        assert forward[member.name] == want, member.name


def test_klein_and_double_cover_hold_distinct_grids():
    q, cover = _klein_and_cover(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
    grid = _grid(q)
    assert _grid(q) is grid
    assert _grid(cover) is not grid
    assert grid.sigma is not None and _grid(cover).sigma is None
    assert _grid(cover).n == grid.n
    assert sum(map(len, _orbit_blocks(grid))) == 2 * grid.n
    assert len(cover.half_orbit_reps()) == 4 * grid.n


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
    made, plans = Counter(), Counter()
    init, plan = LabelTable.__init__, LabelTable._derive_plan

    def counting_init(table, labels, kind):
        made[labels, kind] += 1
        init(table, labels, kind)

    def counting_plan(table, linear):
        plans[id(table), linear] += 1
        return plan(table, linear)

    monkeypatch.setattr(LabelTable, "__init__", counting_init)
    monkeypatch.setattr(LabelTable, "_derive_plan", counting_plan)
    kleins = [build(rs, KleinSpec((1, 0), (0, 1), 1, 1, m)) for m in (1, 2)]
    assert kleins[0].sigma.linear == kleins[1].sigma.linear
    assert kleins[0].N != kleins[1].N
    qs = kleins + [build(rs, TorusSpec(*q.gamma0_basis)) for q in kleins]
    for q in qs + qs[::-1]:
        for flat, _ in BUILDERS:
            for rep in rs.rep_names:
                flat(q, rep)
    # one layout per (rep, kind)
    assert len(made) == 6 and set(made.values()) == {1}
    # one plan per layout and glide linear part: the torus's and the Klein
    # bottles' one, each deriving its label flip once
    glides = {None} | {q.sigma.linear for q in kleins}
    assert len(glides) == 2
    assert len(plans) == 6 * 2 and set(plans.values()) == {1}
    assert {glide for _, glide in plans} == glides


def _ladder_kleins():
    """The 36 Klein specs of the benchmark ladder, read from bench/workloads.py
    without running it."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "KLEIN_RUNGS":
            rungs = ast.literal_eval(node.value)
    return [(rs, KleinSpec(*spec)) for _, rs, _, _, specs in rungs for spec in specs]


def test_a_label_table_keeps_at_most_one_plan_per_glide_reflection():
    # the glide key is the glide's linear part, a reflection: a table keeps
    # the torus plan and at most one per reflection, and the corpus and the
    # ladder meet every reflection
    fresh = {"A2": RootSystem("A2"), "C2": RootSystem("C2")}
    specs = [(m.root_system, m.spec) for m in generate_corpus(7)] + _ladder_kleins()
    assert len(specs) == 55 + 36
    for rs_name, spec in specs:
        assert verify(build(fresh[rs_name], spec)).all_hold
    for rs in fresh.values():
        reflections = sum(mat_det(m) == -1 for m in rs.weyl)
        assert len(rs._labels) == 6
        held = [len(table._plans) for table in rs._labels.values()]
        assert max(held) == 1 + reflections, (rs, held)


def test_a_grid_keeps_no_two_equal_shift_tables():
    # a table is kept by the box point of its vector, so vectors equal
    # modulo Gamma0 share one table
    quotients = [member.build() for member in generate_corpus(7)]
    kept = 0
    for q in quotients:
        assert verify(q).all_hold
        tables = [tuple(table) for table in _grid(q)._shifted.values()]
        assert len(set(tables)) == len(tables), q
        kept += len(tables)
    assert kept > len(quotients)


def test_a_plan_dies_with_its_table():
    rs = RootSystem("C2")
    q = build(rs, KleinSpec((1, 0), (1, 1), 2, 1, 1))
    for flat, _ in BUILDERS:
        flat(q, "spin")
    plans = [weakref.ref(plan) for table in rs._labels.values() for plan in table._plans.values()]
    assert len(plans) == 3
    del rs, q
    gc.collect()
    assert [ref() for ref in plans] == [None] * 3


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


# ---------------------------------------------------------------------------
# the engine's own checks, in process and under python -O
# ---------------------------------------------------------------------------

# Each case breaks one thing the segment-cycle builder relies on: the
# step arithmetic of a fresh label table, whose segment plan checks it,
# or the grid of a fresh quotient; the runner at the end runs only in a
# subprocess.
_ENGINE_FAULTS = """
import sys

from weylzeta.quotient import KleinSpec, TorusSpec, build
from weylzeta.rootgeom import LabelTable, RootSystem
from weylzeta.zeta import _grid, _transfer_system, build_walk_system

A2 = RootSystem.make("A2")


def torus():
    q = build(A2, TorusSpec((6, 0), (0, 3)))
    return q, _grid(q)


# pi1 walks have one segment the glide fixes; the glide swaps blocks 2, 3
KLEIN = KleinSpec((1, 0), (0, 1), 1, 1, 1)


def klein():
    q = build(A2, KLEIN)
    return q, _grid(q)


def one_weight_stepping_into(into):
    # a fresh table of the one weight (1, 0), whose semi segments are
    # blocks 2 and 3, with a step from block b landing in block into(b)
    class Stepping(LabelTable):
        def _step(self, k, b):
            return into(b), LabelTable._step(self, k, b)[1]

    return Stepping((((1, 0),),), "semi")


def a_step_off_the_kept_segments():
    # of the two segments of one weight (blocks 2 and 3), the first steps
    # into the rational block 0 and the second into the first: a walk of
    # the segments alone would close
    q, _ = torus()
    _transfer_system(q, "pi1", one_weight_stepping_into(lambda b: 2 * (b == 3)))


def two_segments_stepping_into_one():
    # both segments of the one weight (blocks 2 and 3) step into block 3
    q, _ = torus()
    _transfer_system(q, "pi1", one_weight_stepping_into(lambda b: 3))


def a_shift_table_with_a_repeated_entry():
    q, grid = torus()
    shifted = grid.shifted

    def repeated(s):
        table = shifted(s)
        return [table[1]] + table[1:]

    grid.shifted = repeated
    build_walk_system(q, "pi1")


def a_glide_off_the_kept_segments():
    # a fresh pi1 semi table that keeps, for the weight (-1, 1), the blocks
    # 0 and 3 on its line in place of blocks 1 and 2: still a permutation of
    # its segments, but the glide swaps (-1, 1) with (0, -1) and fixes block
    # 0, where (0, -1) keeps nothing
    class OnTheLine(LabelTable):
        def __init__(self, labels, kind):
            super().__init__(labels, kind)
            self.segments = ((0, 2), (0, 3), (1, 0), (1, 3), (2, 1), (2, 3))

    q, _ = klein()
    assert q.sigma.linear == ((1, 1), (0, -1))
    _transfer_system(q, "pi1", OnTheLine(tuple((w,) for w in A2.weights("pi1")), "semi"))


def a_ranked_map_that_is_not_a_bijection():
    # every glide pair of the fixed block ranked as the first
    q, grid = klein()
    lows, rank = grid.orbit_ranks(0)
    grid.orbit_ranks = lambda b: (lows, [0] * len(rank))
    build_walk_system(q, "pi1")


def a_glide_that_splits_a_block():
    # pair two points of block 2 with each other, and their images in
    # block 3 with each other: still an involution without fixed points,
    # but block 2 now goes onto two blocks
    q = build(A2, KLEIN)
    glide, n = list(q._glide), q._det
    p, r = 2 * n, 2 * n + 1
    sp, sr = glide[p], glide[r]
    glide[p], glide[r], glide[sp], glide[sr] = r, p, sr, sp
    q._glide = glide
    build_walk_system(q, "pi1")


def a_glide_whose_blocks_disagree_with_its_linear_part():
    # the glide swaps blocks 2 and 3; the identity as its linear part fixes them
    q = build(A2, KLEIN)
    q.sigma = q.sigma._replace(linear=((1, 0), (0, 1)))
    build_walk_system(q, "pi1")


CASES = (
    a_step_off_the_kept_segments,
    two_segments_stepping_into_one,
    a_shift_table_with_a_repeated_entry,
    a_glide_off_the_kept_segments,
    a_ranked_map_that_is_not_a_bijection,
    a_glide_that_splits_a_block,
    a_glide_whose_blocks_disagree_with_its_linear_part,
)

if __name__ == "__main__":
    print("optimize", sys.flags.optimize)
    for case in CASES:
        try:
            case()
        except AssertionError as exc:
            print(case.__name__, "rejected:", exc)
        else:
            print(case.__name__, "accepted")
"""

ENGINE_FAULT_MESSAGES = {
    "a_step_off_the_kept_segments": "semi transition is not a bijection",
    "two_segments_stepping_into_one": "semi transition is not a bijection",
    "a_shift_table_with_a_repeated_entry": "walks transition is not a bijection",
    "a_glide_off_the_kept_segments": "the glide sends a kept semi segment off the kept ones",
    "a_ranked_map_that_is_not_a_bijection": "walks transition is not a bijection",
    "a_glide_that_splits_a_block": "the glide does not map each block onto one block",
    "a_glide_whose_blocks_disagree_with_its_linear_part": (
        "the glide's block images disagree with its linear part"
    ),
}


def test_the_engine_rejects_each_broken_invariant_in_process():
    scope = {"__name__": "engine_faults"}
    exec(compile(_ENGINE_FAULTS, "engine_faults", "exec"), scope)
    assert [case.__name__ for case in scope["CASES"]] == list(ENGINE_FAULT_MESSAGES)
    for case in scope["CASES"]:
        with pytest.raises(AssertionError) as exc:
            case()
        assert str(exc.value) == ENGINE_FAULT_MESSAGES[case.__name__]


def test_the_engine_rejects_each_broken_invariant_under_python_o():
    src = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "-O", "-c", _ENGINE_FAULTS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    ).stdout.splitlines()
    assert out[0] == "optimize 1"
    assert out[1:] == [f"{name} rejected: {msg}" for name, msg in ENGINE_FAULT_MESSAGES.items()]


# ---------------------------------------------------------------------------
# cost: each segment cycle is composed once and only its first-return map
# is walked
# ---------------------------------------------------------------------------

COST_QUOTIENTS = (
    (C2, TorusSpec((12, 0), (0, 24))),
    (A2, TorusSpec((12, 0), (0, 12))),
    (C2, KleinSpec((1, 0), (1, 1), -4, -4, 6)),
)


def _block_after(b, lam, scale):
    """The parity block of mu_b + scale * lam, in doubled coordinates."""
    x, y = (b & 1) + scale * lam[0], (b >> 1) + scale * lam[1]
    return (x & 1) + 2 * (y & 1)


def _reference_segments(q, rep, kind, scale):
    """(to, mirror) over the segments of the reference label layout: the
    index of the segment each one steps onto, and of its glide image
    (itself on a torus)."""
    linear = IDENTITY if q.kind == "torus" else q.sigma.linear
    labels, nexts, segments, flip = reference.label_layout(q.rs, rep, kind, linear)
    at = {s: i for i, s in enumerate(segments)}
    to = [at[nexts[k], _block_after(b, labels[k][0], scale)] for k, b in segments]
    if q.kind == "torus":
        return to, list(range(len(segments)))
    image = _grid(q).image
    return to, [at[flip[k], image[b]] for k, b in segments]


def _cycle_count(perm):
    seen, count = set(), 0
    for start in range(len(perm)):
        count += start not in seen
        while start not in seen:
            seen.add(start)
            start = perm[start]
    return count


def test_the_walk_visits_only_first_return_maps(monkeypatch):
    compose, count = zeta_mod._compose, zeta_mod._count_cycles
    derive, shifted = LabelTable._derive_plan, _Grid.shifted
    tally, composed = Counter(), []

    def counting_derive(table, linear):
        tally["plans"] += 1
        return derive(table, linear)

    def counting_shifted(grid, s):
        tally["shifted"] += 1
        return shifted(grid, s)

    def recording_compose(tables):
        composed.append(tables)
        return compose(tables)

    def counting_cycles(perm, steps, lengths, kind):
        tally["visited"] += len(perm)
        return count(perm, steps, lengths, kind)

    monkeypatch.setattr(LabelTable, "_derive_plan", counting_derive)
    monkeypatch.setattr(_Grid, "shifted", counting_shifted)
    monkeypatch.setattr(zeta_mod, "_compose", recording_compose)
    monkeypatch.setattr(zeta_mod, "_count_cycles", counting_cycles)
    seen = Counter()
    for rs, spec in COST_QUOTIENTS:
        q = build(rs, spec)
        assert q.N in (288, 144, 96)
        glide_maps = getattr(_grid(q), "sig", ())
        for rep in rs.rep_names:
            for flat, _ in BUILDERS:
                flat(q, rep)
                tally.clear()
                composed.clear()
                system = flat(q, rep)
                where = (spec, rep, system.kind)
                # a second build of the same table and glide derives no plan
                assert tally["plans"] == 0, where
                # each composition takes one shifted table per run of steps,
                # then the glide's block map where the run ends on the later
                # segment of a glide pair; a torus cycle is one table
                glided = [[any(t is g for g in glide_maps) for t in tables] for tables in composed]
                for flags in glided:
                    assert not flags[0] and all(map(bool.__ne__, flags, flags[1:])), where
                assert tally["shifted"] == sum(flags.count(False) for flags in glided), where
                to, mirror = _reference_segments(q, rep, system.kind, system.step_in_w)
                walked = [i for i, j in enumerate(mirror) if i <= j]
                crossings = sum(mirror[to[i]] < to[i] for i in walked)
                assert sum(map(sum, glided)) == crossings, where
                seen["crossed"] += crossings > 0
                seen["summed"] += tally["shifted"] < len(walked)
                if q.kind == "torus":
                    assert glided == [[False]] * _cycle_count(to), where
                if system.kind == "walks":
                    assert tally["visited"] == system.size, where
                elif q.kind == "torus":
                    assert 2 * tally["visited"] == system.size, where
                else:
                    assert tally["visited"] <= system.size, where
    # the Klein bottle crosses to later segments, and runs of steps are summed
    assert seen["crossed"] and seen["summed"]


# ---------------------------------------------------------------------------
# agreement with the explicit walk on conjugated and scaled Klein bottles
# ---------------------------------------------------------------------------


def _klein_variant(item, g, m):
    """The quotient of a corpus Klein spec conjugated by the g-th Weyl
    element and with t raised to the m-th power, or None when it is out of
    bounds or above N = 60."""
    rs_name, spec = item
    rs = RootSystem.make(rs_name)
    w = rs.weyl[g % len(rs.weyl)]
    conjugate = KleinSpec(mat_vec(w, spec.alpha), mat_vec(w, spec.beta), spec.a, spec.b, spec.m * m)
    try:
        q = build(rs, conjugate)
    except SpecValidationError:
        return None
    return q if q.N <= 60 else None


def _segment_cases(q):
    """Which of free segments, glide-fixed segments and steps onto the
    later segment of a glide pair q's systems meet, from the reference
    label layouts."""
    cases = set()
    for rep in q.rs.rep_names:
        for kind, scale in (("walks", 2), ("semi", 1), ("galleries", 2)):
            to, mirror = _reference_segments(q, rep, kind, scale)
            for i, j in enumerate(mirror):
                if j == i:
                    cases.add("fixed")
                    continue
                cases.add("free")
                if i < j and mirror[to[i]] < to[i]:
                    cases.add("mirror")
    return cases


# (corpus Klein spec index, Weyl element, power of t)
AGREEMENT_EXAMPLES = ((7, 0, -2), (30, 3, 2), (42, 7, 1), (25, 7, -1))


def _with_agreement_examples(test):
    for index, g, m in AGREEMENT_EXAMPLES:
        test = example(KLEIN_SPECS[index], g, m)(test)
    return test


@_with_agreement_examples
@given(st.sampled_from(KLEIN_SPECS), st.integers(0, 7), st.sampled_from((1, 2, 3, -1, -2)))
@settings(deadline=None, max_examples=10)
def test_klein_systems_match_the_explicit_walk_under_conjugation_and_scaling(item, g, m):
    q = _klein_variant(item, g, m)
    assume(q is not None)
    for rep in q.rs.rep_names:
        for flat, ref in BUILDERS:
            got, want = flat(q, rep), ref(q, rep)
            assert (got.size, got.zeta()) == (want.size, want.zeta()), (q.spec, rep, got.kind)


def test_the_agreement_examples_meet_every_segment_case():
    # each explicit example, of both root systems, walks free cycles,
    # glide-fixed cycles and steps onto the later segment of a glide pair
    kinds = set()
    for index, g, m in AGREEMENT_EXAMPLES:
        q = _klein_variant(KLEIN_SPECS[index], g, m)
        assert q is not None and q.kind == "klein"
        assert _segment_cases(q) == {"free", "fixed", "mirror"}, q.spec
        kinds.add(q.rs.kind)
    assert kinds == {"A2", "C2"}
