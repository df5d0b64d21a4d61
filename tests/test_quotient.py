"""Quotient groups: construction, invariants, canonicalization, transporters."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import weylzeta
from weylzeta.quotient import (
    AffineMap,
    KleinSpec,
    SpecValidationError,
    TorusSpec,
    build,
    glide_conjugacy_representative,
    normalize_generators,
)
from weylzeta.rootgeom import HalfVec, RootSystem

A2 = RootSystem.a2()
C2 = RootSystem.c2()


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
            c = q.canonical_vertex(x)
            assert q.canonical_vertex(c) == c
            u, v = q.gamma0_basis
            assert q.canonical_vertex((x[0] + u[0], x[1] + u[1])) == c
            assert q.canonical_vertex((x[0] + v[0], x[1] + v[1])) == c
            if q.kind == "klein":
                assert q.canonical_vertex(q.sigma.apply(x)) == c


def test_canonical_vertex_sheet_fusion_example():
    q = a2_klein()
    assert q.sigma.apply((0, 0)) == (1, 1)
    assert q.canonical_vertex((1, 1)) == q.canonical_vertex((0, 0))


def test_vertex_classes_in_window():
    for q in (a2_klein(), c2_spin_klein(), c2_st_klein(), a2_coroot_torus()):
        classes = {
            q.canonical_vertex((x, y)) for x in range(-10, 10) for y in range(-10, 10)
        }
        assert len(classes) == q.N


def test_klein_index_is_twice_n():
    for q in (a2_klein(), c2_spin_klein(), c2_st_klein()):
        assert len(q.residues()) == 2 * q.N
        assert len(q.vertex_reps) == q.N


def test_canonical_vertex_half():
    q = a2_klein()
    h = HalfVec(7, -3)
    c = q.canonical_vertex(h)
    assert q.canonical_vertex(c) == c
    assert isinstance(c, HalfVec)
    sh = q.sigma.apply_half(h)
    assert q.canonical_vertex(sh) == c


# ---------------------------------------------------------------------------
# transporters and free action
# ---------------------------------------------------------------------------


def test_transporter_identity_and_translation():
    q = a2_coroot_torus()
    x = (4, -2)
    assert q.transporter(x, x) == AffineMap.identity()
    v1 = q.gamma0_basis[0]
    got = q.transporter(x, (x[0] + v1[0], x[1] + v1[1]))
    assert got == AffineMap.from_translation(v1)


def test_transporter_glide_example():
    q = a2_klein()
    got = q.transporter((0, 0), (1, 1))
    assert got == q.sigma


def test_transporter_is_none_between_distinct_orbits():
    q = a2_klein()
    assert q.transporter((0, 0), (1, 0)) is None


def test_transporter_consistency_random():
    rng = random.Random(23)
    for q in (a2_klein(), c2_st_klein(), c2_coroot_torus()):
        for _ in range(60):
            x = (rng.randint(-15, 15), rng.randint(-15, 15))
            y = (rng.randint(-15, 15), rng.randint(-15, 15))
            g = q.transporter(x, y)
            same = q.canonical_vertex(x) == q.canonical_vertex(y)
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
            if g.is_identity:
                continue
            x = (rng.randint(-20, 20), rng.randint(-20, 20))
            assert g.apply(x) != x
            checked += 1


def test_transporter_half_lattice():
    q = a2_klein()
    x = HalfVec(1, 0)  # the point (1/2, 0)
    u = q.gamma0_basis[0]
    y = HalfVec(x.x2 + 2 * u[0], x.y2 + 2 * u[1])
    assert q.transporter(x, y) == AffineMap.from_translation(u)
    sx = q.sigma.apply_half(x)
    assert q.transporter(x, sx) == q.sigma
    with pytest.raises(TypeError):
        q.transporter(x, (0, 0))


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
# generator normalization and conjugacy representatives
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
    for rs, q in (
        (A2, a2_klein()),
        (C2, c2_spin_klein()),
        (C2, c2_st_klein()),
    ):
        for j in (-2, -1, 1, 2, 3):
            messy = q.t.compose(q.sigma ** (2 * j))
            t, s = normalize_generators(rs, messy, q.sigma)
            assert t == q.t and s == q.sigma


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


def test_glide_conjugacy_representatives():
    q = a2_klein()
    assert glide_conjugacy_representative(q, 0, 1) == q.sigma
    assert glide_conjugacy_representative(q, 2, 3) == q.sigma ** 3
    assert glide_conjugacy_representative(q, 3, 1) == q.t.compose(q.sigma)
    with pytest.raises(ValueError):
        glide_conjugacy_representative(q, 1, 2)


# ---------------------------------------------------------------------------
# checks that must survive python -O
# ---------------------------------------------------------------------------

_OPTIMIZED_SCRIPT = """
import sys
from weylzeta.quotient import KleinSpec, build, normalize_generators
from weylzeta.rootgeom import RootSystem

print("optimize", sys.flags.optimize)
rs = RootSystem.c2()
q = build(rs, KleinSpec((1, 0), (1, 1), 2, 1, 1))
print("built", q.N, q.k_gamma, q.alpha_beta_coords(q.sigma.translation))
t, s = normalize_generators(rs, q.t.compose(q.sigma ** 2), q.sigma)
print("normalized", t == q.t and s == q.sigma)
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
    assert out[2] == "normalized True"
    assert out[3].startswith("rejected alpha, beta do not form a lattice basis")
