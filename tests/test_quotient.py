"""Quotient groups: construction, invariants, canonicalization, transporters,
and the Klein generators against the normalization oracle of the references."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
import weylzeta
from reference import HalfVec, canonical_vertex, normalize_generators, sigma_half
from weylzeta.quotient import (
    MAX_CLASSES,
    AffineMap,
    KleinSpec,
    SpecValidationError,
    TorusSpec,
    build,
)
from weylzeta.rootgeom import RootSystem, vec_add, vec_scale

A2 = RootSystem.make("A2")
C2 = RootSystem.make("C2")


def a2_klein():
    return build(A2, KleinSpec(alpha=(1, 0), beta=(0, 1), a=1, b=1, m=1))


def c2_spin_klein():
    return build(C2, KleinSpec(alpha=(1, 0), beta=(1, 1), a=2, b=1, m=1))


def c2_st_klein():
    return build(C2, KleinSpec(alpha=(1, 1), beta=(1, 0), a=1, b=2, m=1))


def a2_coroot_torus():
    return build(A2, TorusSpec(v1=(2, -1), v2=(-1, 2)))


def c2_coroot_torus():
    return build(C2, TorusSpec(v1=(1, 1), v2=(1, -1)))


# ---------------------------------------------------------------------------
# build examples
# ---------------------------------------------------------------------------


def test_a2_klein_example():
    q = a2_klein()
    assert q.k_gamma == 3
    assert q.n_gamma == 1
    assert q.N == 3
    assert q.m_axes == 0
    assert q.type_rep == "pi1"
    assert set(q.gamma0_basis) == {(-1, 2), (3, 0)}


def test_c2_spin_klein_example():
    q = c2_spin_klein()
    assert q.k_gamma == 6
    assert q.n_gamma == 2
    assert q.N == 6
    assert q.m_axes == 0
    assert q.type_rep == "spin"
    assert (q.k_gamma // q.n_gamma) % 2 == 1 == q.b % 2


def test_a2_torus_example():
    q = build(A2, TorusSpec(v1=(1, 1), v2=(-1, 2)))
    assert q.N == 3 and q.kind == "torus"


def test_negative_k_normalization():
    # flipping all signs of (alpha, beta, a, b) describes the same group
    q = build(A2, KleinSpec(alpha=(-1, 0), beta=(0, -1), a=-1, b=-1, m=1))
    ref = a2_klein()
    assert (q.alpha, q.beta, q.a, q.b) == (ref.alpha, ref.beta, ref.a, ref.b)
    assert q.k_gamma == 3 and q.sigma == ref.sigma


def test_sigma_squared_is_axis_translation():
    for q in (a2_klein(), c2_spin_klein(), c2_st_klein()):
        sq = q.sigma.compose(q.sigma)
        k, al = q.k_gamma, q.alpha
        assert sq == AffineMap.from_translation((k * al[0], k * al[1]))
        tsig = q.t.compose(q.sigma)
        assert tsig.compose(tsig) == sq


def test_validation_errors():
    with pytest.raises(SpecValidationError, match="alpha is not a nontrivial weight"):
        build(A2, KleinSpec(alpha=(2, 0), beta=(0, 1), a=1, b=1, m=1))
    with pytest.raises(SpecValidationError, match="beta does not maximize pairing"):
        build(A2, KleinSpec(alpha=(1, 0), beta=(-1, 0), a=1, b=1, m=1))
    with pytest.raises(SpecValidationError, match="not in coroot lattice"):
        build(A2, KleinSpec(alpha=(1, 0), beta=(0, 1), a=1, b=0, m=1))
    with pytest.raises(SpecValidationError, match="k = 0"):
        build(C2, KleinSpec(alpha=(1, 1), beta=(1, 0), a=-1, b=2, m=1))
    with pytest.raises(SpecValidationError, match="not in coroot lattice"):
        build(A2, TorusSpec(v1=(1, 0), v2=(0, 3)))
    with pytest.raises(SpecValidationError, match="linearly dependent"):
        build(A2, TorusSpec(v1=(1, 1), v2=(2, 2)))
    with pytest.raises(SpecValidationError, match="m must be nonzero"):
        build(A2, KleinSpec(alpha=(1, 0), beta=(0, 1), a=1, b=1, m=0))


# ---------------------------------------------------------------------------
# canonical representatives
# ---------------------------------------------------------------------------


def test_canonical_vertex_idempotent_and_orbit_constant():
    rng = random.Random(11)
    for q in (a2_klein(), c2_spin_klein(), a2_coroot_torus()):
        for _ in range(100):
            x = (rng.randint(-30, 30), rng.randint(-30, 30))
            c = canonical_vertex(q, x)
            assert canonical_vertex(q, c) == c
            u, v = q.gamma0_basis
            assert canonical_vertex(q, (x[0] + u[0], x[1] + u[1])) == c
            assert canonical_vertex(q, (x[0] + v[0], x[1] + v[1])) == c
            if q.kind == "klein":
                assert canonical_vertex(q, q.sigma.apply(x)) == c


def test_canonical_vertex_sheet_fusion_example():
    q = a2_klein()
    assert q.sigma.apply((0, 0)) == (1, 1)
    assert canonical_vertex(q, (1, 1)) == canonical_vertex(q, (0, 0))


def test_vertex_classes_in_window():
    for q in (a2_klein(), c2_spin_klein(), c2_st_klein(), a2_coroot_torus()):
        classes = {
            canonical_vertex(q, (x, y)) for x in range(-10, 10) for y in range(-10, 10)
        }
        assert len(classes) == q.N
        # the quotient's representatives name each class once
        assert {canonical_vertex(q, v) for v in q.vertex_reps} == classes


def test_klein_index_is_twice_n():
    for q in (a2_klein(), c2_spin_klein(), c2_st_klein()):
        assert len(q.residues()) == 2 * q.N
        assert len(q.vertex_reps) == q.N


def test_canonical_vertex_half():
    q = a2_klein()
    h = HalfVec(7, -3)
    c = canonical_vertex(q, h)
    assert canonical_vertex(q, c) == c
    assert isinstance(c, HalfVec)
    sh = HalfVec(*sigma_half(q, h))
    assert canonical_vertex(q, sh) == c


# a basis of the coroot lattice of each root system
COROOT_BASIS = {"A2": ((1, 1), (3, 0)), "C2": ((1, 1), (2, 0))}


def _combine(c: tuple, u: tuple, v: tuple) -> tuple:
    return vec_add(vec_scale(c[0], u), vec_scale(c[1], v))


@given(
    st.sampled_from(("A2", "C2")),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.booleans(),
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
)
@settings(deadline=None, max_examples=40)
def test_torus_representatives_do_not_depend_on_the_basis(
    rs_name, c1, c2, k, l, swap, x
):
    rs = RootSystem.make(rs_name)
    b1, b2 = COROOT_BASIS[rs_name]
    v1, v2 = _combine(c1, b1, b2), _combine(c2, b1, b2)
    det = v1[0] * v2[1] - v2[0] * v1[1]
    assume(0 < abs(det) <= MAX_CLASSES)
    # (1 + k l, k), (l, 1) has determinant 1; the swap makes it -1
    w1, w2 = _combine((1 + k * l, k), v1, v2), _combine((l, 1), v1, v2)
    if swap:
        w1, w2 = w2, w1
    q, other = build(rs, TorusSpec(v1, v2)), build(rs, TorusSpec(w1, w2))
    assert other.residues() == q.residues()
    assert other.half_residues() == q.half_residues()
    assert other.vertex_reps == q.vertex_reps == tuple(q.residues())
    assert other.half_orbit_reps() == q.half_orbit_reps() == tuple(q.half_residues())
    # the canonical vertex is the reduced box point of x
    h = HalfVec(*x)
    for g in (q, other):
        assert canonical_vertex(g, x) == g.reduce(x) in g.residues()
        assert canonical_vertex(g, h) == HalfVec(*g.reduce_half(x))
        assert g.reduce_half(x) in g.half_residues()
    assert canonical_vertex(other, x) == canonical_vertex(q, x)
    assert canonical_vertex(other, h) == canonical_vertex(q, h)


def test_a_torus_makes_its_doubled_box_on_first_read():
    for rs, v1, v2 in ((A2, (2, -1), (-1, 2)), (C2, (3, 3), (3, -3)), (C2, (6, 0), (0, 4))):
        q = build(rs, TorusSpec(v1, v2))
        assert q._half_residues is None and q._half_reps is None
        # mu_b + 2 residues()[x] at position b * n + x, mu_b = (b & 1, b >> 1)
        cosets = [
            (2 * i + (b & 1), 2 * j + (b >> 1)) for b in range(4) for i, j in q.residues()
        ]
        assert q.half_residues() == cosets
        assert q.half_orbit_reps() == tuple(cosets)
        assert q.half_residues() is q.half_residues()
        assert q._half_blocks == tuple(range(0, 5 * q.N, q.N))


def test_klein_representatives_are_the_lower_positions():
    # the glide pairs the positions of residues() and of half_residues(),
    # and the point at the lower position of each pair represents its
    # orbit, in the order of those lists
    for q in (a2_klein(), c2_spin_klein(), c2_st_klein()):
        box, half = q.residues(), q.half_residues()
        at = {p: k for k, p in enumerate(box)}
        image = [at[q.reduce(q.sigma.apply(p))] for p in box]
        assert all(image[image[k]] == k != image[k] for k in range(len(box)))
        assert q.vertex_reps == tuple(p for k, p in enumerate(box) if k < image[k])
        assert len(q.vertex_reps) == q.N
        at = {p: k for k, p in enumerate(half)}
        image = [at[q.reduce_half(sigma_half(q, p))] for p in half]
        assert all(image[image[k]] == k != image[k] for k in range(len(half)))
        reps = tuple(p for k, p in enumerate(half) if k < image[k])
        assert q.half_orbit_reps() == reps
        assert all(type(p) is tuple for p in reps)
        # the parity classes are blocks of len(box) positions
        lower = [k < image[k] for k in range(len(half))]
        assert q._half_blocks == tuple(sum(lower[: b * len(box)]) for b in range(5))


# ---------------------------------------------------------------------------
# transporters and free action
# ---------------------------------------------------------------------------


def test_transporter_identity_and_translation():
    q = a2_coroot_torus()
    x = (4, -2)
    assert reference.transporter(q, x, x) == AffineMap.identity()
    v1 = q.gamma0_basis[0]
    got = reference.transporter(q, x, (x[0] + v1[0], x[1] + v1[1]))
    assert got == AffineMap.from_translation(v1)


def test_transporter_glide_example():
    q = a2_klein()
    got = reference.transporter(q, (0, 0), (1, 1))
    assert got == q.sigma


def test_transporter_is_none_between_distinct_orbits():
    q = a2_klein()
    assert reference.transporter(q, (0, 0), (1, 0)) is None


def test_transporter_consistency_random():
    rng = random.Random(23)
    for q in (a2_klein(), c2_st_klein(), c2_coroot_torus()):
        for _ in range(60):
            x = (rng.randint(-15, 15), rng.randint(-15, 15))
            y = (rng.randint(-15, 15), rng.randint(-15, 15))
            g = reference.transporter(q, x, y)
            same = canonical_vertex(q, x) == canonical_vertex(q, y)
            assert (g is not None) == same
            if g is not None:
                assert g.apply(x) == y


def test_group_acts_freely():
    rng = random.Random(29)
    for q in (a2_klein(), c2_spin_klein()):
        checked = 0
        while checked < 200:
            i, j = rng.randint(-3, 3), rng.randint(-3, 3)
            g = (q.t ** i).compose(q.sigma ** j)
            if g == AffineMap.identity():
                continue
            x = (rng.randint(-20, 20), rng.randint(-20, 20))
            assert g.apply(x) != x
            checked += 1


def test_transporter_half_lattice():
    q = a2_klein()
    x = HalfVec(1, 0)  # the point (1/2, 0)
    u = q.gamma0_basis[0]
    y = HalfVec(x.x2 + 2 * u[0], x.y2 + 2 * u[1])
    assert reference.transporter(q, x, y) == AffineMap.from_translation(u)
    sx = HalfVec(*sigma_half(q, x))
    assert reference.transporter(q, x, sx) == q.sigma
    with pytest.raises(TypeError):
        reference.transporter(q, x, (0, 0))


# ---------------------------------------------------------------------------
# parity, delta, wt_plus
# ---------------------------------------------------------------------------


def test_axis_parity_across_valid_specs():
    # b odd exactly when k/n odd, over every valid Klein spec in a box;
    # C2 groups with n = 1 never admit odd b.
    for rs in (A2, C2):
        for rep in rs.rep_names:
            for alpha in rs.weights(rep):
                comp = rs.weights(rs.complement(rep))
                best = max(rs.pairing(alpha, w) for w in comp)
                for beta in comp:
                    if rs.pairing(alpha, beta) != best:
                        continue
                    for a in range(-4, 5):
                        for b in range(-4, 5):
                            try:
                                q = build(rs, KleinSpec(alpha, beta, a, b, 1))
                            except SpecValidationError:
                                continue
                            assert (q.k_gamma // q.n_gamma) % 2 == q.b % 2
                            if rs.kind == "C2" and q.n_gamma == 1:
                                assert q.b % 2 == 0


def test_delta_values():
    q = a2_klein()
    assert q.delta("pi1") == 1 and q.delta("pi2") == 1
    q = c2_spin_klein()
    assert q.delta("spin") == 0 and q.delta("st") == 2
    q = c2_st_klein()
    assert q.delta("st") == 0 and q.delta("spin") == 2
    q = a2_coroot_torus()
    assert q.delta("pi1") == 0 and q.delta("pi2") == 0


def test_wt_plus_matches_delta_on_kleins():
    for q in (a2_klein(), c2_spin_klein(), c2_st_klein()):
        for rep in q.rs.rep_names:
            assert q.wt_plus_size(rep) == q.delta(rep)


def test_invariants_report_shape():
    rep = a2_klein().invariants_report()
    assert rep["N"] == 3 and rep["k_gamma"] == 3 and rep["type"] == "pi1"
    assert rep["reps"]["pi1"]["delta"] == 1
    rep = a2_coroot_torus().invariants_report()
    assert rep["kind"] == "torus" and "k_gamma" not in rep


# ---------------------------------------------------------------------------
# the Klein generators against the normalization oracle
# ---------------------------------------------------------------------------


def test_normalize_generators_fixed_point():
    q = a2_klein()
    t, s = normalize_generators(A2, q.t, q.sigma)
    assert t == q.t and s == q.sigma


def test_normalize_generators_reduces_t_sigma_squared():
    q = a2_klein()
    messy = q.t.compose(q.sigma.compose(q.sigma))
    t, s = normalize_generators(A2, messy, q.sigma)
    assert t == q.t and s == q.sigma


def test_normalize_generators_two_step_reduction():
    # conjugation exponent 4 on sigma: t gets multiplied by sigma**-2
    q = a2_klein()
    messy = q.t.compose(q.sigma ** 4)
    t, s = normalize_generators(A2, messy, q.sigma)
    assert s == q.sigma
    expected = messy.compose(q.sigma ** -4)  # == q.t composed with nothing
    assert t == expected == q.t


def test_normalize_generators_round_trip_on_all_references():
    # the oracle solves for the perpendicular translation on its own; the
    # package builds (t, sigma) in normal form from the spec
    kleins = [a2_klein(), c2_spin_klein(), c2_st_klein()]
    for member in weylzeta.generate_corpus(7):
        if isinstance(member.spec, KleinSpec):
            kleins.append(member.build())
    assert len(kleins) > 3
    for q in kleins:
        for j in (-2, -1, 1, 2, 3):
            messy = q.t.compose(q.sigma ** (2 * j))
            t, s = normalize_generators(q.rs, messy, q.sigma)
            assert t == q.t and s == q.sigma, (q, j)


def test_normalize_generators_rejections():
    q = a2_klein()
    with pytest.raises(ValueError, match="commute"):
        normalize_generators(
            A2, AffineMap.from_translation((3, 0)), q.sigma
        )
    with pytest.raises(ValueError, match="torsion"):
        normalize_generators(
            A2, q.t, AffineMap(q.sigma.linear, (0, 0))
        )
    with pytest.raises(ValueError, match="not a nonzero translation"):
        normalize_generators(A2, q.sigma, q.sigma)
    with pytest.raises(ValueError, match="coroot"):
        normalize_generators(A2, AffineMap.from_translation((1, 0)), q.sigma)
    # m t = p s + qq t with s = sigma**2: qq = -1, but p = -5/3
    with pytest.raises(ValueError, match="conjugated translation leaves the generated group"):
        normalize_generators(
            C2, AffineMap.from_translation((-5, -5)), c2_spin_klein().sigma
        )


# ---------------------------------------------------------------------------
# checks that must survive python -O
# ---------------------------------------------------------------------------

_OPTIMIZED_SCRIPT = """
import sys
from weylzeta.census import lambda_set_size
from weylzeta.quotient import AffineMap, KleinSpec, build
from weylzeta.rootgeom import RootSystem

print("optimize", sys.flags.optimize)
rs = RootSystem.make("C2")
q = build(rs, KleinSpec((1, 0), (1, 1), 2, 1, 1))
print("built", q.N, q.k_gamma, q.alpha_beta_coords(q.sigma.translation))
q.sigma = AffineMap(((-1, 0), (0, -1)), q.sigma.translation)  # fixes no axis
try:
    lambda_set_size(q, 1, (0, 2))
except AssertionError as exc:
    print("glide rejected", exc)
q.beta = (2 * q.beta[0], 2 * q.beta[1])  # no longer a basis with alpha
try:
    q.alpha_beta_coords((1, 1))
except AssertionError as exc:
    print("rejected", exc)
"""


def test_invariant_checks_survive_optimized_mode():
    src = str(Path(weylzeta.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout.splitlines()
    assert out[0] == "optimize 1"
    assert out[1] == "built 6 6 (2, 1)"
    assert out[2] == "glide rejected the glide's linear part does not fix alpha"
    assert out[3].startswith("rejected alpha, beta do not form a lattice basis")
