"""The segment-cycle transfer-system builder: the segment plans the label
tables keep, each first-return map composed as an affine map of
Z^2 / Gamma0 and read by its order and fixed-point counts (and the
residue-box index maps those rest on), its checks, its cost, and its
agreement with the tuple-canonicalizing reference builders and their
explicit successor walk."""

import ast
import gc
import importlib
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
import weylzeta.zeta as zeta_mod
from weylzeta.algebra import CycleProduct
from weylzeta.corpus import generate_corpus
from weylzeta.identities import _cycles, verify
from weylzeta.quotient import (
    MAX_CLASSES,
    KleinSpec,
    QuotientGroup,
    SpecValidationError,
    TorusSpec,
    _triangular_basis,
    build,
)
from weylzeta.rootgeom import (
    IDENTITY,
    LabelTable,
    RootSystem,
    block_maps,
    mat_det,
    mat_vec,
    vec_add,
    vec_scale,
    vec_sub,
)
from weylzeta.specfile import load_spec_file
from weylzeta.zeta import (
    TransferSystem,
    _fixed_points,
    _order,
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


A2 = RootSystem.make("A2")
C2 = RootSystem.make("C2")


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
                assert got.product == want.product, where
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
    assert system.product == CycleProduct({2: -2, 4: -1})
    cycles = _cycles(system.product, system.step_in_w)
    assert cycles == [(1, 2), (2, 1)]
    # n = 1, 2, 3, 4: the two fixed points, and the 2-cycle at even n
    assert reference.closed_path_table(system.product, system.step_in_w, 4) == [2, 4, 2, 4]
    # the package's record of the same cycles
    assert TransferSystem("walks", "pi1", 2, 4, system.product).product == system.product


# ---------------------------------------------------------------------------
# the residue box, the glide's block maps, orders and fixed points
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


def _brute_order(q, v):
    """The least k > 0 with k v in Gamma0, by the quotient's adjugate."""
    k = 1
    while not reference.in_gamma0(q, vec_scale(k, v), q._det):
        k += 1
    return k


def _block_map(q, b):
    """The glide's map of block b, x -> L x + t + carry, with L mu_b =
    mu_image + 2 carry, mu_b = (b & 1, b >> 1) (block_maps(L)[b])."""
    linear, t = q.sigma
    return reference.Affine(linear, vec_add(t, block_maps(linear)[b][1]))


def _mirror(q):
    """The triangular basis of (L - I) Z^2 + Gamma0, L the glide's linear part."""
    (l11, l12), (l21, l22) = q.sigma[0]
    return _triangular_basis((l11 - 1, l21), (l12, l22 - 1), *q.gamma0_basis)


def _check_index_map(q, x):
    # a vertex class sits at the position of its box point, and the
    # half-lattice class of mu_b + 2 p (doubled coordinates) at b * n + that
    n = q._det
    box, half = reference.residues(q), reference.half_residues(q)
    assert n == len(box) == q._triangle[0] * q._triangle[2]
    assert half == [((b & 1) + 2 * i, (b >> 1) + 2 * j) for b in range(4) for i, j in box]
    where = {p: k for k, p in enumerate(box)}
    half_where = {p: k for k, p in enumerate(half)}
    assert len(where) == n and len(half_where) == 4 * n

    def pos(p):
        return where[reference.reduce(q, p)]

    def half_pos(p2):
        return half_where[reference.reduce_half(q, p2)]

    u, v = q.gamma0_basis
    i = pos(x)
    assert pos(vec_add(x, u)) == i == pos(vec_add(x, v))
    assert pos(vec_sub(x, u)) == i == pos(vec_sub(x, v))
    assert reference.in_gamma0(q, vec_sub(box[i], x), n)
    u2, v2 = vec_scale(2, u), vec_scale(2, v)
    i = half_pos(x)
    assert half_pos(vec_add(x, u2)) == i == half_pos(vec_sub(x, v2))
    assert reference.in_gamma0(q, vec_sub(half[i], x), 2 * n)
    # the order of x, read off the triangular basis alone
    assert _order(q._triangle, x) == _brute_order(q, x)
    # the half step by x of every point of each block is one translation of
    # the residue box, and a step by 2x moves a vertex by x
    for b in range(4):
        block, shift = LabelTable(((x,),), "semi")._step(0, b)
        moved = [block * n + pos(vec_add(p, shift)) for p in box]
        assert moved == [half_pos(vec_add(p, x)) for p in half[b * n : b * n + n]]
    assert LabelTable(((x,),), "walks")._step(0, 0) == (0, x)
    if q.kind == "torus":
        return
    # the glide is a fixed-point-free involution of the positions that maps
    # each block b onto block image[b] by its block map
    sigma = [half_pos(reference.sigma_half(q, p)) for p in half]
    assert all(sigma[k] != k and sigma[sigma[k]] == k for k in range(4 * n))
    for b, (image, _) in enumerate(block_maps(q.sigma[0])):
        g = _block_map(q, b)
        assert [image * n + pos(g.apply(p)) for p in box] == sigma[b * n : b * n + n]


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
    _check_index_map(q, x)


@given(st.sampled_from(KLEIN_SPECS), st.sampled_from((1, 2, 3, -1, -2)), POINTS)
@settings(deadline=None, max_examples=30)
def test_klein_index_map(item, m, x):
    rs_name, spec = item
    try:
        q = build(RootSystem.make(rs_name), spec._replace(m=spec.m * m))
    except SpecValidationError:
        assume(False)
    _check_index_map(q, x)


def test_orders_match_the_least_multiple_in_gamma0():
    # every box point of every quotient of the corpus and its double covers
    cyclic = Counter()
    for q in _reference_quotients():
        box = reference.residues(q)
        orders = [_order(q._triangle, v) for v in box]
        assert orders == [_brute_order(q, v) for v in box], q
        assert _order(q._triangle, q.gamma0_basis[1]) == orders[0] == 1
        cyclic[max(orders) == q._det] += 1
    # both cyclic and non-cyclic groups Z^2 / Gamma0
    assert cyclic[True] and cyclic[False]


def test_fixed_points_match_a_count_over_the_residue_box():
    # x -> L x + u for every box point u, on every Klein bottle of the corpus
    kleins = [member.build() for member in generate_corpus(7) if isinstance(member.spec, KleinSpec)]
    assert len(kleins) == 15
    counts = Counter()
    for q in kleins:
        box, mirror, linear = reference.residues(q), _mirror(q), q.sigma[0]
        for u in box:
            got = _fixed_points(mirror, u)
            want = sum(reference.reduce(q, reference.Affine(linear, u).apply(x)) == x for x in box)
            assert got == want, (q, u)
            # the count depends on u modulo Gamma0 alone
            assert _fixed_points(mirror, vec_sub(u, q.gamma0_basis[0])) == got, (q, u)
            counts[got > 0] += 1
    assert counts[True] and counts[False]


@given(st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=2, max_size=4))
@settings(deadline=None, max_examples=200)
def test_a_triangular_basis_spans_the_lattice_of_its_generators(gens):
    # the index of the span is the gcd of the 2 x 2 minors of the generators
    index = 0
    for g, h in product(gens, repeat=2):
        index = gcd(index, g[0] * h[1] - g[1] * h[0])
    if index == 0:
        with pytest.raises(SpecValidationError, match="linearly dependent"):
            _triangular_basis(*gens)
        return
    h11, c, h22 = _triangular_basis(*gens)
    assert h11 > 0 and h22 > 0
    # every generator lies in the lattice of the basis, of the same index
    for x, y in gens:
        r, j = divmod(y, h22)
        assert j == 0 and (x - r * c) % h11 == 0, (x, y)
    assert h11 * h22 == index


def _with_glide_translation(monkeypatch, t):
    """Make each Klein bottle built below carry the glide translation t."""
    init = QuotientGroup._init_klein

    def init_klein(q, spec):
        init(q, spec)
        q.sigma = (q.sigma[0], t)

    monkeypatch.setattr(QuotientGroup, "_init_klein", init_klein)


def test_a_glide_with_a_fixed_point_raises(monkeypatch):
    # the glide's linear part alone fixes the origin, position 0
    _with_glide_translation(monkeypatch, (0, 0))
    with pytest.raises(AssertionError, match="fixed-point-free involution"):
        build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))


def test_a_glide_that_is_not_an_involution_raises(monkeypatch):
    # L t + t = (2, 0) is not in Gamma0, so the square of the glide moves
    # every position, and no position is fixed
    _with_glide_translation(monkeypatch, (1, 0))
    with pytest.raises(AssertionError, match="fixed-point-free involution"):
        build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))


def test_the_involution_check_matches_a_scan_of_the_doubled_box():
    # planted glide translations t + s on the corpus Klein bottles: the
    # arithmetic check raises exactly when a scan of the doubled box finds
    # a point that the glide fixes or does not return to
    kleins = [member.build() for member in generate_corpus(7) if isinstance(member.spec, KleinSpec)]
    outcomes = Counter()
    for q, s in product(kleins, product(range(-2, 3), repeat=2)):
        linear, t = q.sigma[0], vec_add(q.sigma[1], s)
        planted = build(q.rs, q.spec)
        planted.sigma = (linear, t)
        free = reference.glide_is_free_involution(planted)
        try:
            planted._check_glide()
        except AssertionError as exc:
            assert "fixed-point-free involution" in str(exc)
            assert not free, (q.spec, s)
        else:
            assert free, (q.spec, s)
        involution = reference.in_gamma0(planted, vec_add(mat_vec(linear, t), t), q._det)
        outcomes[involution, free] += 1
    # free glides, glides with a fixed point, and glides whose square is no
    # translation of Gamma0
    assert set(outcomes) == {(True, True), (True, False), (False, False)}


# ---------------------------------------------------------------------------
# systems agree in any build order; what is kept, and where
# ---------------------------------------------------------------------------


def _klein_and_cover(rs, spec):
    q = build(rs, spec)
    return q, build(rs, TorusSpec(*q.gamma0_basis))


def _systems(q, calls):
    out = {}
    for flat, rep in calls:
        system = flat(q, rep)
        out[flat.__name__, rep] = (system.size, system.product)
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
                want[flat.__name__, rep] = (system.size, system.product)
        assert forward[member.name] == want, member.name


def test_quotient_tables_die_with_the_quotient():
    # no cache outside the quotient holds it once its systems are built
    q = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
    assert verify(q).all_hold
    tables = [weakref.ref(q)]
    del q
    gc.collect()
    assert [ref() for ref in tables] == [None]


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
    assert kleins[0].sigma[0] == kleins[1].sigma[0]
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
    glides = {None} | {q.sigma[0] for q in kleins}
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


def test_a_plan_dies_with_its_table():
    # a plan is a tuple, which cannot be weakly referenced: its table's
    # plan dict is its only referrer, the table's is its root system's
    # table dict, and the root system dies.  The collector stays off until
    # then, since a full collection may untrack a dict of untracked values.
    gc.disable()
    try:
        rs = RootSystem("C2")
        q = build(rs, KleinSpec((1, 0), (1, 1), 2, 1, 1))
        for flat, _ in BUILDERS:
            flat(q, "spin")
        tables = list(rs._labels.values())
        assert sum(len(table._plans) for table in tables) == 3
        for table in tables:
            for plan in table._plans.values():
                assert gc.get_referrers(plan) == [table._plans]
        del tables, table
        for table in rs._labels.values():
            assert gc.get_referrers(table) == [rs._labels]
        del table
    finally:
        gc.enable()
    root = weakref.ref(rs)
    del rs, q
    gc.collect()
    assert root() is None


# ---------------------------------------------------------------------------
# the engine's own checks, in process and under python -O
# ---------------------------------------------------------------------------

# Each case breaks one thing the segment-cycle builder relies on: the
# step arithmetic or the plan of a fresh label table, or the glide or the
# residue box of a fresh quotient; the runner at the end runs only in a
# subprocess.
_ENGINE_FAULTS = """
import sys

from weylzeta.quotient import KleinSpec, TorusSpec, build
from weylzeta.rootgeom import LabelTable, RootSystem
from weylzeta.zeta import _transfer_system, build_walk_system

A2 = RootSystem.make("A2")
PI1 = tuple((w,) for w in A2.weights("pi1"))


def torus():
    return build(A2, TorusSpec((6, 0), (0, 3)))


# pi1 walks have one segment the glide fixes; the glide swaps blocks 2, 3
KLEIN = KleinSpec((1, 0), (0, 1), 1, 1, 1)


def klein():
    return build(A2, KLEIN)


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
    _transfer_system(torus(), "pi1", one_weight_stepping_into(lambda b: 2 * (b == 3)))


def two_segments_stepping_into_one():
    # both segments of the one weight (blocks 2 and 3) step into block 3
    _transfer_system(torus(), "pi1", one_weight_stepping_into(lambda b: 3))


def a_glide_off_the_kept_segments():
    # a fresh pi1 semi table that keeps, for the weight (-1, 1), the blocks
    # 0 and 3 on its line in place of blocks 1 and 2: still a permutation of
    # its segments, but the glide swaps (-1, 1) with (0, -1) and fixes block
    # 0, where (0, -1) keeps nothing
    class OnTheLine(LabelTable):
        def __init__(self, labels, kind):
            super().__init__(labels, kind)
            self.segments = ((0, 2), (0, 3), (1, 0), (1, 3), (2, 1), (2, 3))

    q = klein()
    assert q.sigma[0] == ((1, 1), (0, -1))
    _transfer_system(q, "pi1", OnTheLine(PI1, "semi"))


def a_glide_whose_blocks_disagree_with_its_linear_part():
    # the glide swaps blocks 2 and 3; the identity as its linear part fixes them
    q = klein()
    q.sigma = (((1, 0), (0, 1)), q.sigma[1])
    build_walk_system(q, "pi1")


def a_glide_fixed_segment_returning_through_the_glide():
    # a fresh pi1 walks table whose glide-fixed segment (block 0) returns
    # through the glide's map of block 0, which the glide maps onto itself
    class Glided(LabelTable):
        def _derive_plan(self, linear):
            return tuple(
                (b, fixed, steps, ops + (((0, 0), b),) if fixed else ops)
                for b, fixed, steps, ops in LabelTable._derive_plan(self, linear)
            )

    _transfer_system(klein(), "pi1", Glided(PI1, "walks"))


def a_residue_box_the_glide_does_not_preserve():
    # the box of (6, 0), (0, 1) in place of (3, 0), (-1, 2): of the same
    # size, but the glide's linear part takes (0, 1) to (1, -1), off it, so
    # the glide-fixed segment's glide pairs do not fill whole cycles
    q = klein()
    assert q._triangle == (3, -1, 2)
    q._triangle = (6, 0, 1)
    build_walk_system(q, "pi1")


def a_glide_reflection_outside_the_weyl_group():
    # diag(1, -1) is an involution of determinant -1, so it passes the
    # reflection check, but it takes the pi1 weight (-1, 1) to (-1, -1),
    # which is no weight of pi1
    q = klein()
    q.sigma = (((1, 0), (0, -1)), q.sigma[1])
    build_walk_system(q, "pi1")


CASES = (
    a_step_off_the_kept_segments,
    two_segments_stepping_into_one,
    a_glide_off_the_kept_segments,
    a_glide_whose_blocks_disagree_with_its_linear_part,
    a_glide_fixed_segment_returning_through_the_glide,
    a_residue_box_the_glide_does_not_preserve,
    a_glide_reflection_outside_the_weyl_group,
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
    "a_glide_off_the_kept_segments": "the glide sends a kept semi segment off the kept ones",
    "a_glide_whose_blocks_disagree_with_its_linear_part": (
        "the glide's linear part is not a reflection"
    ),
    "a_glide_fixed_segment_returning_through_the_glide": (
        "a glide-fixed walks segment does not return by a translation"
    ),
    "a_residue_box_the_glide_does_not_preserve": "walks transition is not a bijection",
    "a_glide_reflection_outside_the_weyl_group": (
        "the glide's linear part sends a walks label off the labels"
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
# cost: one order per segment cycle, and at most one fixed-point count
# ---------------------------------------------------------------------------

COST_QUOTIENTS = (
    (C2, TorusSpec((12, 0), (0, 24))),
    (A2, TorusSpec((12, 0), (0, 12))),
    (C2, KleinSpec((1, 0), (1, 1), -4, -4, 6)),
)


def test_each_build_takes_one_order_per_plan_cycle(monkeypatch):
    derive = LabelTable._derive_plan
    order, fixed_points = zeta_mod._order, zeta_mod._fixed_points
    tally = Counter()

    def counting_derive(table, linear):
        tally["plans"] += 1
        return derive(table, linear)

    def counting_order(tri, v):
        tally["orders"] += 1
        return order(tri, v)

    def counting_fixed_points(mirror, u):
        tally["fixed points"] += 1
        return fixed_points(mirror, u)

    monkeypatch.setattr(LabelTable, "_derive_plan", counting_derive)
    monkeypatch.setattr(zeta_mod, "_order", counting_order)
    monkeypatch.setattr(zeta_mod, "_fixed_points", counting_fixed_points)
    quotients = [build(rs, spec) for rs, spec in COST_QUOTIENTS]
    assert [q.N for q in quotients] == [288, 144, 96]
    quotients += [member.build() for member in generate_corpus(7)]
    counted = 0
    for q in quotients:
        linear = None if q.kind == "torus" else q.sigma[0]
        for rep in q.rs.rep_names:
            for flat, _ in BUILDERS:
                flat(q, rep)
                tally.clear()
                system = flat(q, rep)
                where = (q.spec, rep, system.kind)
                cycles = q.rs.label_table(rep, system.kind).plan(linear)
                # a second build of the same table and glide derives no plan
                assert tally["plans"] == 0, where
                assert tally["orders"] == len(cycles), where
                assert tally["fixed points"] <= len(cycles), where
                if q.kind == "torus":
                    assert tally["fixed points"] == 0, where
                counted += tally["fixed points"] > 0
    assert counted


def test_klein_builds_derive_lambda_and_block_maps_only_when_needed(monkeypatch):
    # Lambda's basis is derived by a build's first fixed-point count, and
    # only then; the block maps of a linear part are derived once, by
    # whichever of the glide check, a plan or a build asks first
    mirror, fixed_points = zeta_mod._mirror, zeta_mod._fixed_points
    tally = Counter()

    def counting_mirror(tri, linear):
        tally["mirrors"] += 1
        return mirror(tri, linear)

    def counting_fixed_points(lattice, u):
        tally["fixed points"] += 1
        return fixed_points(lattice, u)

    monkeypatch.setattr(zeta_mod, "_mirror", counting_mirror)
    monkeypatch.setattr(zeta_mod, "_fixed_points", counting_fixed_points)
    kleins = [member.quotient for member in generate_corpus(7) if member.quotient.kind == "klein"]
    block_maps.cache_clear()
    builds = reached = 0
    for q in kleins:
        for rep in q.rs.rep_names:
            for flat, _ in BUILDERS:
                tally.clear()
                flat(q, rep)
                builds += 1
                assert tally["mirrors"] == (tally["fixed points"] > 0), (q.spec, rep, flat.__name__)
                reached += tally["fixed points"] > 0
    assert (len(kleins), builds, reached) == (15, 90, 36)
    info = block_maps.cache_info()
    assert info.misses == len({q.sigma[0] for q in kleins})
    assert info.hits + info.misses >= builds


def test_first_return_maps_are_composed_without_affine_maps():
    # every affine map of the package is a (linear, translation) pair of
    # tuples, the first-return maps the engine composes and the glide
    # q.sigma alike, and q.t is the translation's vector: no module binds
    # an AffineMap class or names it, and the package exports none
    import weylzeta

    assert "AffineMap" not in weylzeta.__all__
    for path in sorted(Path(weylzeta.__file__).parent.glob("*.py")):
        assert "AffineMap" not in path.read_text(), path.name
        if path.stem not in ("__init__", "__main__"):
            module = importlib.import_module(f"weylzeta.{path.stem}")
            assert not hasattr(module, "AffineMap"), path.name
    assert not hasattr(weylzeta, "AffineMap")
    for rs, spec in (
        ("A2", KleinSpec((1, 0), (0, 1), 1, 1, 1)),
        ("C2", KleinSpec((1, 0), (1, 1), 2, 1, 1)),
    ):
        q = build(RootSystem.make(rs), spec)
        (linear, s), t = q.sigma, q.t
        assert type(q.sigma) is tuple and len(q.sigma) == 2
        assert all(type(v) is tuple for v in (linear, *linear, s, t))
        assert vec_add(mat_vec(linear, s), s) == vec_scale(q.k_gamma, q.alpha)
        assert mat_vec(linear, t) == vec_scale(-1, t)


# ---------------------------------------------------------------------------
# the engine reads Gamma0 through its triangular basis alone
# ---------------------------------------------------------------------------

ENGINE = (
    "_order",
    "_fixed_points",
    "_transfer_system",
    "build_walk_system",
    "build_semi_system",
    "build_gallery_system",
)


def _names_in(name):
    """The names and attributes that the function name of zeta.py reads."""
    tree = ast.parse(Path(zeta_mod.__file__).read_text())
    (function,) = [node for node in tree.body if getattr(node, "name", None) == name]
    nodes = list(ast.walk(function))
    names = {node.id for node in nodes if isinstance(node, ast.Name)}
    return names | {node.attr for node in nodes if isinstance(node, ast.Attribute)}


def test_the_engine_reads_gamma0_only_through_its_triangular_basis():
    # the census reads Gamma0 by its adjugate and determinant, so it stays
    # a second encoding of Gamma0; the engine reads no box either
    forbidden = {
        "_adj", "_det", "_glide", "_lower",
        "residues", "half_residues", "vertex_reps", "half_orbit_reps",
    }
    for name in ENGINE:
        assert not _names_in(name) & forbidden, name
    assert "_triangle" in _names_in("_transfer_system")


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


def _block_after(b, lam, scale):
    """The parity block of mu_b + scale * lam, in doubled coordinates."""
    x, y = (b & 1) + scale * lam[0], (b >> 1) + scale * lam[1]
    return (x & 1) + 2 * (y & 1)


def _reference_segments(q, rep, kind, scale):
    """(to, mirror) over the segments of the reference label layout: the
    index of the segment each one steps onto, and of its glide image."""
    linear = q.sigma[0]
    labels, nexts, segments, flip = reference.label_layout(q.rs, rep, kind, linear)
    at = {s: i for i, s in enumerate(segments)}
    to = [at[nexts[k], _block_after(b, labels[k][0], scale)] for k, b in segments]
    maps = block_maps(linear)
    return to, [at[flip[k], maps[b][0]] for k, b in segments]


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


AFFINE_CASES = {
    "free translation",
    "free reflection, m odd",
    "free reflection, m even",
    "fixed translation, m odd",
    "fixed translation, m even, short pairs",
    "fixed translation, m even, no short pairs",
}


def _affine_cases(q):
    """The case of each first-return map of q's systems: whether its
    segment is glide-fixed, whether it is a translation or x -> L x + v, the
    parity of the order m of it or of its square, and whether some point of
    a fixed segment meets its glide partner after m / 2 returns, all read
    by brute force over the residue box."""
    linear = None if q.kind == "torus" else q.sigma[0]
    box, cases = reference.residues(q), Counter()
    for rep in q.rs.rep_names:
        for kind in ("walks", "semi", "galleries"):
            for b, fixed, _, ops in q.rs.label_table(rep, kind).plan(linear):
                f = reference.Affine.identity()
                for shift, block in ops:
                    f = reference.Affine.from_translation(shift).compose(f)
                    if block is not None:
                        f = _block_map(q, block).compose(f)
                if f.linear != IDENTITY:
                    m = _brute_order(q, f.compose(f).translation)
                    cases[f"free reflection, m {('even', 'odd')[m % 2]}"] += 1
                    continue
                m = _brute_order(q, f.translation)
                if not fixed:
                    cases["free translation"] += 1
                elif m % 2:
                    cases["fixed translation, m odd"] += 1
                else:
                    half, g = f ** (m // 2), _block_map(q, b)
                    reduce = reference.reduce
                    short = any(reduce(q, half.apply(x)) == reduce(q, g.apply(x)) for x in box)
                    cases[f"fixed translation, m even, {'short' if short else 'no short'} pairs"] += 1
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
            assert (got.size, got.product) == (want.size, want.product), (q.spec, rep, got.kind)


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
    # corpus seed 7, whose systems the explicit walk checks, meets each
    # case of the affine first-return maps
    cases = Counter()
    for member in generate_corpus(7):
        cases.update(_affine_cases(member.build()))
    assert set(cases) == AFFINE_CASES
