"""Counting oracles: the per-length loops and the closed-form tables."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylzeta.census import (
    count_closed_galleries,
    count_closed_walks,
    count_geodesic_walks,
    count_semi_closings,
    gallery_count_table,
    geodesic_count_table,
    lambda_set_size,
    semi_count_table,
    walk_count_table,
)
from weylzeta.corpus import generate_corpus
from weylzeta.identities import GALLERY_LOG_DEPTH, SEMI_LOG_DEPTH
from weylzeta.quotient import KleinSpec, TorusSpec, build
from weylzeta.rootgeom import RootSystem
from weylzeta.zeta import required_order

A2 = RootSystem.a2()
C2 = RootSystem.c2()

A2_TORUS = build(A2, TorusSpec((2, -1), (-1, 2)))
C2_TORUS = build(C2, TorusSpec((1, 1), (1, -1)))
A2_KLEIN = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
C2_SPIN_KLEIN = build(C2, KleinSpec((1, 0), (1, 1), 2, 1, 1))
C2_ST_KLEIN = build(C2, KleinSpec((1, 1), (1, 0), 1, 2, 1))


# ---------------------------------------------------------------------------
# closed walks
# ---------------------------------------------------------------------------


def test_walk_counts_a2_torus():
    assert count_closed_walks(A2_TORUS, "pi1", 1) == 0
    assert count_closed_walks(A2_TORUS, "pi1", 2) == 0
    assert count_closed_walks(A2_TORUS, "pi1", 3) == 9


def test_walk_counts_c2_torus():
    assert count_closed_walks(C2_TORUS, "spin", 1) == 0
    assert count_closed_walks(C2_TORUS, "spin", 2) == 8
    assert count_closed_walks(C2_TORUS, "st", 1) == 8


def test_walk_length_must_be_positive():
    with pytest.raises(ValueError):
        count_closed_walks(A2_TORUS, "pi1", 0)


def test_torus_walks_have_no_corners():
    for q in (A2_TORUS, C2_TORUS):
        for rep in q.rs.rep_names:
            for n in range(1, 13):
                assert count_closed_walks(q, rep, n) == count_geodesic_walks(
                    q, rep, n
                )


def test_klein_corner_difference_matches_closed_form():
    # The walk/geodesic difference concentrates on lengths n = (k/n_gamma)*m
    # with m odd, where it equals 2 * wt_plus * n_gamma * (k/n_gamma) / ...
    # i.e. n * wt_plus * n_gamma * (2/m).  Checked coefficientwise to n = 24.
    for q, rep in ((A2_KLEIN, "pi1"), (A2_KLEIN, "pi2"), (C2_SPIN_KLEIN, "st")):
        ratio = q.k_gamma // q.n_gamma
        wp = q.wt_plus_size(rep)
        for n in range(1, 25):
            diff = count_closed_walks(q, rep, n) - count_geodesic_walks(q, rep, n)
            m, r = divmod(n, ratio)
            if r == 0 and m % 2 == 1:
                assert diff * m == 2 * wp * q.n_gamma * n
            else:
                assert diff == 0


def test_klein_type_rep_has_no_corners():
    # weights parallel to the axis close without corners; the type
    # representation of a C2 Klein quotient sees no difference at all
    for n in range(1, 25):
        assert count_closed_walks(C2_SPIN_KLEIN, "spin", n) == count_geodesic_walks(
            C2_SPIN_KLEIN, "spin", n
        )


def test_c2_spin_geodesics_have_even_length():
    for q in (C2_TORUS, C2_SPIN_KLEIN, C2_ST_KLEIN):
        for n in range(1, 14, 2):
            assert count_geodesic_walks(q, "spin", n) == 0


# ---------------------------------------------------------------------------
# semi-rational closings
# ---------------------------------------------------------------------------


def test_semi_odd_half_steps_vanish_on_c2_torus_st():
    for j in range(1, 16, 2):
        assert count_semi_closings(C2_TORUS, "st", j) == 0


def test_semi_counts_c2_torus_spin():
    # four non-rational classes per direction, all on 4-half-step cycles
    assert count_semi_closings(C2_TORUS, "spin", 4) == 16
    assert count_semi_closings(C2_TORUS, "spin", 2) == 0
    assert count_semi_closings(C2_TORUS, "spin", 8) == 16


def test_semi_counts_invariant_under_weight_negation():
    for q, rep in (
        (A2_KLEIN, "pi1"),
        (C2_SPIN_KLEIN, "st"),
        (C2_TORUS, "spin"),
    ):
        wts = q.rs.weights(rep)
        negated = tuple((-x, -y) for x, y in wts)
        for j in range(1, 13):
            assert count_semi_closings(q, rep, j) == count_semi_closings(
                q, rep, j, weights=negated
            )


def test_semi_inert_axis_cycle_on_a2_klein():
    # the two glide axes carry the only lines in direction alpha; they
    # close after k half-steps
    assert count_semi_closings(A2_KLEIN, "pi1", 3) >= 2


# ---------------------------------------------------------------------------
# glide line counts
# ---------------------------------------------------------------------------


def test_lambda_set_size_examples():
    q = A2_KLEIN
    # admissible: positive beta-part and pairing (v, alpha) = (k m / 2)(alpha, alpha)
    assert lambda_set_size(q, 1, (0, 3)) == 3  # v = 3*beta
    assert lambda_set_size(q, 1, (1, 1)) == 3  # v = alpha + beta
    assert lambda_set_size(q, 1, (3, -3)) == 0  # right pairing, d < 0
    assert lambda_set_size(q, 1, (1, 4)) == 0  # wrong pairing value


def test_lambda_set_size_rejects_zero_beta_component():
    with pytest.raises(ValueError):
        lambda_set_size(A2_KLEIN, 1, (3, 0))
    with pytest.raises(ValueError):
        lambda_set_size(A2_KLEIN, 2, (0, 3))
    with pytest.raises(ValueError):
        lambda_set_size(A2_KLEIN, 1, (1, 0))  # not even in the coroot lattice


def test_lambda_set_size_window_scan_matches_prediction():
    for q in (A2_KLEIN, C2_SPIN_KLEIN, C2_ST_KLEIN):
        k = q.k_gamma
        aa = q.rs.pairing(q.alpha, q.alpha)
        for m in (1, 3):
            for c in range(-6, 7):
                for d in range(-6, 7):
                    if d == 0:
                        continue
                    v = (
                        c * q.alpha[0] + d * q.beta[0],
                        c * q.alpha[1] + d * q.beta[1],
                    )
                    if not q.rs.in_coroot_lattice(v):
                        continue
                    admissible = d > 0 and 2 * q.rs.pairing(v, q.alpha) == k * m * aa
                    expected = k if admissible else 0
                    assert lambda_set_size(q, m, v) == expected
                    assert lambda_set_size(q, m, v, glide="tsigma") == expected


# ---------------------------------------------------------------------------
# galleries
# ---------------------------------------------------------------------------


def test_gallery_counts_a2_torus():
    for n in range(1, 6):
        assert count_closed_galleries(A2_TORUS, "pi1", n) == 0
    assert count_closed_galleries(A2_TORUS, "pi1", 6) == 18


def test_gallery_counts_c2_torus():
    assert count_closed_galleries(C2_TORUS, "spin", 2) == 16
    assert count_closed_galleries(C2_TORUS, "st", 2) == 16
    assert count_closed_galleries(C2_TORUS, "spin", 1) == 0


def test_type_rep_galleries_have_even_length():
    for q, rep in ((C2_SPIN_KLEIN, "spin"), (C2_ST_KLEIN, "st")):
        for n in range(1, 12, 2):
            assert count_closed_galleries(q, rep, n) == 0


def test_a2_klein_admits_odd_galleries():
    # the glide reflection swaps the two off-axis directions, so odd
    # closed galleries exist on A2 Klein bottles
    assert any(count_closed_galleries(A2_KLEIN, "pi1", n) > 0 for n in (3, 9))


# ---------------------------------------------------------------------------
# closed-form tables against the per-length loops
# ---------------------------------------------------------------------------

CORPUS = [member.build() for member in generate_corpus(7, 20, 12)]


def _order(q):
    return max(required_order(q), 48)


def test_walk_tables_match_loops_on_corpus():
    for q in CORPUS:
        order = _order(q)
        for rep in q.rs.rep_names:
            ns = range(1, order + 1)
            assert walk_count_table(q, rep, order).values == tuple(
                count_closed_walks(q, rep, n) for n in ns
            ), (q, rep)
            assert geodesic_count_table(q, rep, order).values == tuple(
                count_geodesic_walks(q, rep, n) for n in ns
            ), (q, rep)


def test_semi_and_gallery_tables_match_loops_on_corpus():
    # the depths verify uses on every member, every n <= order when N <= 12
    for q in CORPUS:
        order = _order(q)
        sdepth = min(SEMI_LOG_DEPTH, 2 * order)
        gdepth = min(GALLERY_LOG_DEPTH, order)
        if q.N <= 12:
            sdepth, gdepth = max(sdepth, order), order
        for rep in q.rs.rep_names:
            assert semi_count_table(q, rep, sdepth).values == tuple(
                count_semi_closings(q, rep, j) for j in range(1, sdepth + 1)
            ), (q, rep)
            assert gallery_count_table(q, rep, gdepth).values == tuple(
                count_closed_galleries(q, rep, n) for n in range(1, gdepth + 1)
            ), (q, rep)


# ---------------------------------------------------------------------------
# metamorphic: relabeling the same group leaves every table unchanged
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


def _all_tables(q):
    order = _order(q)
    return {
        rep: (
            walk_count_table(q, rep, order).values,
            geodesic_count_table(q, rep, order).values,
            semi_count_table(q, rep, 2 * order).values,
            gallery_count_table(q, rep, order).values,
        )
        for rep in q.rs.rep_names
    }


def _coroot_vector(rs_name, c):
    (b1, b2) = COROOT_BASIS[rs_name]
    return (c[0] * b1[0] + c[1] * b2[0], c[0] * b1[1] + c[1] * b2[1])


@given(
    st.sampled_from(("A2", "C2")),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.integers(-3, 3),
    st.sampled_from((1, -1)),
    st.sampled_from((1, -1)),
)
@settings(deadline=None, max_examples=40)
def test_torus_tables_invariant_under_basis_change(rs_name, c1, c2, k, s1, s2):
    rs = RootSystem.make(rs_name)
    v1, v2 = _coroot_vector(rs_name, c1), _coroot_vector(rs_name, c2)
    det = v1[0] * v2[1] - v2[0] * v1[1]
    assume(0 < abs(det) <= 60)
    base = _all_tables(build(rs, TorusSpec(v1, v2)))
    w1 = (v1[0] + k * v2[0], v1[1] + k * v2[1])
    assert _all_tables(build(rs, TorusSpec(w1, v2))) == base
    flipped = TorusSpec((s1 * v1[0], s1 * v1[1]), (s2 * v2[0], s2 * v2[1]))
    assert _all_tables(build(rs, flipped)) == base


@given(st.sampled_from(KLEIN_SPECS))
@settings(deadline=None, max_examples=20)
def test_klein_tables_invariant_under_relabeling(item):
    rs_name, spec = item
    rs = RootSystem.make(rs_name)
    base = _all_tables(build(rs, spec))
    # negating alpha, beta, a and b flips the sign of k; build relabels back
    (x1, y1), (x2, y2) = spec.alpha, spec.beta
    relabeled = KleinSpec((-x1, -y1), (-x2, -y2), -spec.a, -spec.b, spec.m)
    assert _all_tables(build(rs, relabeled)) == base
    # t and its inverse generate the same group with sigma
    inverse_t = KleinSpec(spec.alpha, spec.beta, spec.a, spec.b, -spec.m)
    assert _all_tables(build(rs, inverse_t)) == base
