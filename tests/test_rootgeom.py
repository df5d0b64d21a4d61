"""Root geometry: weights, pairing, Weyl group, coroot test, gallery pairs."""

import random
from math import gcd

import pytest

import reference
from weylzeta.rootgeom import (
    IDENTITY,
    LabelTable,
    RootSystem,
    block_maps,
    mat_det,
    mat_mul,
    mat_vec,
)

A2 = RootSystem.make("A2")
C2 = RootSystem.make("C2")


def weyl_orbit(rs, seed):
    orbit = {seed}
    frontier = [seed]
    while frontier:
        new = []
        for v in frontier:
            for m in rs.weyl:
                img = mat_vec(m, v)
                if img not in orbit:
                    orbit.add(img)
                    new.append(img)
        frontier = new
    return orbit


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_weights_listed_sets():
    assert set(A2.weights("pi1")) == {(1, 0), (-1, 1), (0, -1)}
    assert set(A2.weights("pi2")) == {(-1, 0), (1, -1), (0, 1)}
    assert set(C2.weights("spin")) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert set(C2.weights("st")) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def test_weights_are_single_weyl_orbits():
    # Independent derivation: each weight set is the full Weyl orbit of
    # any one of its members.
    for rs, rep in ((A2, "pi1"), (A2, "pi2"), (C2, "spin"), (C2, "st")):
        wts = rs.weights(rep)
        assert weyl_orbit(rs, wts[0]) == set(wts)


def test_weights_opposite_between_partner_reps():
    assert {(-x, -y) for x, y in A2.weights("pi1")} == set(A2.weights("pi2"))
    for rep in ("spin", "st"):
        wts = set(C2.weights(rep))
        assert {(-x, -y) for x, y in wts} == wts


def test_weights_primitive():
    for rs in (A2, C2):
        for rep in rs.rep_names:
            for v in rs.weights(rep):
                assert gcd(v[0], v[1]) == 1


def test_rep_kind_mismatch_rejected():
    with pytest.raises(ValueError):
        A2.weights("spin")
    with pytest.raises(ValueError):
        C2.weights("pi1")


def test_epsilon_and_n_value_tables():
    assert A2.rep("pi1").epsilon == 0 and A2.rep("pi2").epsilon == 0
    assert C2.rep("spin").epsilon == 0 and C2.rep("st").epsilon == 1
    assert A2.rep("pi1").n_value == 1 and A2.rep("pi2").n_value == 1
    assert C2.rep("spin").n_value == 2 and C2.rep("st").n_value == 1


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------


def test_pairing_values():
    assert A2.pairing((1, 0), (0, 1)) == 1
    assert A2.pairing((1, 0), (1, 0)) == 2
    assert type(A2.pairing((1, 0), (1, 0))) is int
    # normalization constant of the A2 case: 2(a,b)/(a,a) = 1
    assert divmod(2 * A2.pairing((1, 0), (0, 1)), A2.pairing((1, 0), (1, 0))) == (1, 0)
    assert C2.pairing((1, 0), (1, 1)) == 1
    assert divmod(2 * C2.pairing((1, 0), (1, 1)), C2.pairing((1, 0), (1, 0))) == (2, 0)


def test_pairing_positive_definite():
    rng = random.Random(3)
    for _ in range(20):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if v == (0, 0):
            v = (1, 2)
        for rs in (A2, C2):
            assert rs.pairing(v, v) > 0


def test_weyl_preserves_gram():
    for rs in (A2, C2):
        for m in rs.weyl:
            for v in rs.weights(rs.rep_names[0]):
                for w in rs.weights(rs.rep_names[1]):
                    assert rs.pairing(mat_vec(m, v), mat_vec(m, w)) == rs.pairing(
                        v, w
                    )


def test_weyl_group_orders():
    assert len(A2.weyl) == 6
    assert len(C2.weyl) == 8
    for rs in (A2, C2):
        assert all(mat_det(m) in (1, -1) for m in rs.weyl)
        assert IDENTITY in rs.weyl
        # closure
        for a in rs.weyl:
            for b in rs.weyl:
                assert mat_mul(a, b) in rs.weyl


def test_weyl_permutes_each_weight_set():
    for rs in (A2, C2):
        for rep in rs.rep_names:
            wts = set(rs.weights(rep))
            for m in rs.weyl:
                assert {mat_vec(m, v) for v in wts} == wts


# ---------------------------------------------------------------------------
# coroot lattice
# ---------------------------------------------------------------------------


def test_coroot_membership_examples():
    assert A2.in_coroot_lattice((1, 1)) and not A2.in_coroot_lattice((1, 0))
    assert C2.in_coroot_lattice((1, 1)) and not C2.in_coroot_lattice((1, 0))
    assert A2.in_coroot_lattice((0, 0)) and C2.in_coroot_lattice((0, 0))


def test_coroot_membership_c2_against_span():
    # Z(1,1) + 2Z(1,0) enumerated directly over a window.
    span = set()
    for s in range(-12, 13):
        for t in range(-6, 7):
            span.add((s + 2 * t, s))
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert ((x, y) in span) == C2.in_coroot_lattice((x, y))


def test_coroot_membership_a2_against_span():
    # spanned by the coroots (2,-1) and (-1,2)
    span = set()
    for s in range(-8, 9):
        for t in range(-8, 9):
            span.add((2 * s - t, -s + 2 * t))
    for x in range(-6, 7):
        for y in range(-6, 7):
            assert ((x, y) in span) == A2.in_coroot_lattice((x, y))


def test_coroot_index_by_residue_count():
    # membership is n-periodic in each coordinate, n the index of the coroot
    # lattice, so the index is the fraction of an n x n residue grid lying
    # in the sublattice
    for rs, n in ((A2, 3), (C2, 2)):
        count = sum(
            1 for x in range(n) for y in range(n) if rs.in_coroot_lattice((x, y))
        )
        assert n * n == count * n


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------


def test_reflection_fixing_examples():
    m = A2.reflection_fixing((1, 0))
    assert m == ((1, 1), (0, -1))
    assert mat_vec(m, (-1, 1)) == (0, -1) and mat_vec(m, (0, -1)) == (-1, 1)
    assert C2.reflection_fixing((1, 0)) == ((1, 0), (0, -1))
    assert C2.reflection_fixing((1, 1)) == ((0, 1), (1, 0))


def test_reflection_fixes_its_weight():
    for rs in (A2, C2):
        for rep in rs.rep_names:
            for d in rs.weights(rep):
                m = rs.reflection_fixing(d)
                assert mat_vec(m, d) == d
                assert m in rs.weyl
                assert mat_mul(m, m) == IDENTITY


def test_reflection_rejects_non_weight():
    with pytest.raises(ValueError):
        A2.reflection_fixing((2, 0))


# ---------------------------------------------------------------------------
# constants shared across a weight orbit
# ---------------------------------------------------------------------------


def test_n_value_is_orbit_independent():
    for rs, rep in ((A2, "pi1"), (A2, "pi2"), (C2, "spin"), (C2, "st")):
        comp = rs.weights(rs.complement(rep))
        values = set()
        for lam in rs.weights(rep):
            best = max(rs.pairing(lam, b) for b in comp)
            values.add(divmod(2 * best, rs.pairing(lam, lam)))
        assert values == {(rs.rep(rep).n_value, 0)}


# ---------------------------------------------------------------------------
# gallery pairs
# ---------------------------------------------------------------------------


def test_gallery_pair_counts():
    assert len(A2.gallery_pairs("pi1")) == 6
    assert len(A2.gallery_pairs("pi2")) == 6
    assert len(C2.gallery_pairs("spin")) == 8
    assert len(C2.gallery_pairs("st")) == 8


def test_gallery_successors_examples():
    succ = {m for (l, m) in A2.gallery_pairs("pi1") if l == (1, 0)}
    assert succ == {(-1, 1), (0, -1)}
    succ = {m for (l, m) in C2.gallery_pairs("spin") if l == (1, 0)}
    assert succ == {(0, 1), (0, -1)}
    succ = {m for (l, m) in C2.gallery_pairs("st") if l == (1, 1)}
    assert succ == {(1, -1), (-1, 1)}


def test_gallery_pair_sums():
    # C2 pair sums land in the coroot lattice, so torus galleries close in
    # two steps; A2 pair sums need three repeats.
    for rep in ("spin", "st"):
        for lam, mu in C2.gallery_pairs(rep):
            s = (lam[0] + mu[0], lam[1] + mu[1])
            assert C2.in_coroot_lattice(s)
    for rep in ("pi1", "pi2"):
        for lam, mu in A2.gallery_pairs(rep):
            s = (lam[0] + mu[0], lam[1] + mu[1])
            assert not A2.in_coroot_lattice(s)
            assert A2.in_coroot_lattice((3 * s[0], 3 * s[1]))


def test_gallery_pairs_never_backtrack():
    for rs, rep in ((A2, "pi1"), (A2, "pi2"), (C2, "spin"), (C2, "st")):
        for lam, mu in rs.gallery_pairs(rep):
            assert mu != (-lam[0], -lam[1])


# ---------------------------------------------------------------------------
# the tables each root system keeps
# ---------------------------------------------------------------------------


def _parity(v):
    """The parity block of a point in doubled coordinates."""
    return (v[0] & 1) + 2 * (v[1] & 1)


def test_block_maps_split_each_image_into_its_block_and_carry():
    # m mu_b = mu_image + 2 carry for every Weyl element and parity block b
    for rs in (A2, C2):
        for m in rs.weyl:
            maps = block_maps(m)
            assert len(maps) == 4
            for b, (image, carry) in enumerate(maps):
                assert image in range(4)
                mu_image = (image & 1, image >> 1)
                expected = mat_vec(m, (b & 1, b >> 1))
                assert (mu_image[0] + 2 * carry[0], mu_image[1] + 2 * carry[1]) == expected, (m, b)


def test_a_plan_refuses_a_linear_part_that_is_not_a_reflection():
    # the rotations of each Weyl group, the identity among them, and a
    # matrix of determinant -1 that does not square to the identity: each
    # raises on every call and leaves no plan on the table
    for rs in (A2, C2):
        rotations = [m for m in rs.weyl if mat_det(m) == 1]
        assert IDENTITY in rotations
        for rep in rs.rep_names:
            for kind in ("walks", "semi", "galleries"):
                table = LabelTable(rs.label_table(rep, kind).labels, kind)
                for m in rotations + [((0, 1), (1, 1))]:
                    for _ in range(2):
                        with pytest.raises(AssertionError, match="^the glide's linear part is not a reflection$"):
                            table.plan(m)
                assert table._plans == {}


def test_label_tables_match_the_per_call_derivation():
    for rs in (A2, C2):
        reflections = [m for m in rs.weyl if mat_det(m) == -1]
        assert len(reflections) == (3 if rs.kind == "A2" else 4)
        for rep in rs.rep_names:
            assert rs.gallery_pairs(rep) == reference.gallery_pairs(rs, rep)
            for kind in ("walks", "semi", "galleries"):
                table = rs.label_table(rep, kind)
                for m in reflections:
                    labels, nexts, segments, flip = reference.label_layout(rs, rep, kind, m)
                    where = (rs, rep, kind, m)
                    assert (table.labels, table.nexts, table.segments) == (labels, nexts, segments), where
                    # a glide of linear part m pairs segment (k, b) with (flip[k], the
                    # parity block of m mu_b); its plan walks each pair once, from its
                    # earlier segment, and each segment the glide fixes
                    at = {s: i for i, s in enumerate(segments)}
                    mirror = [at[flip[k], _parity(mat_vec(m, (b & 1, b >> 1)))] for k, b in segments]
                    cycles = table.plan(m)
                    assert sum(c[2] for c in cycles) == sum(i <= j for i, j in enumerate(mirror)), where
                    assert sum(c[2] for c in cycles if c[1]) == sum(i == j for i, j in enumerate(mirror)), where


def test_root_system_tables_are_made_once():
    for rs in (A2, C2):
        for rep in rs.rep_names:
            assert rs.gallery_pairs(rep) is rs.gallery_pairs(rep)
            for kind in ("walks", "semi", "galleries"):
                table = rs.label_table(rep, kind)
                assert rs.label_table(rep, kind) is table
                m = rs.reflection_fixing(rs.weights(rep)[0])
                assert table.plan(m) is table.plan(m)
    with pytest.raises(ValueError, match="unknown transfer system kind"):
        A2.label_table("pi1", "walk")
    with pytest.raises(ValueError, match="not defined"):
        A2.label_table("spin", "walks")
