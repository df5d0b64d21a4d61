"""Counting oracles: the per-length loops and the closed-form tables."""

import ast
import sys
from collections import Counter
from functools import partial
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from reference import (
    count_closed_galleries,
    count_closed_walks,
    count_geodesic_walks,
    count_semi_closings,
    irrational_half,
)
from weylzeta.census import (
    _closings,
    _glide_branch,
    _off_rational_blocks,
    _period,
    _tally,
    gallery_count_table,
    geodesic_count_table,
    glide_rows,
    semi_count_table,
    walk_count_table,
)
from weylzeta.corpus import generate_corpus
import weylzeta.census
import weylzeta.identities
from weylzeta.identities import GLIDE_WINDOW, _glide_line_scan, verify
from weylzeta.quotient import KleinSpec, TorusSpec, build
from weylzeta.rootgeom import RootSystem, mat_mul, mat_vec, vec_add, vec_scale, vec_sub
from weylzeta.specfile import load_spec_file
from weylzeta.zeta import required_order

A2 = RootSystem.make("A2")
C2 = RootSystem.make("C2")

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


def _corpus_and_samples():
    """The quotients of generate_corpus(7) and of the four sample specs."""
    samples = Path(__file__).resolve().parent.parent / "samples"
    qs = [member.build() for member in generate_corpus(7)]
    for spec in sorted(samples.glob("*.spec")):
        parsed = load_spec_file(str(spec))
        qs.append(build(RootSystem.make(parsed.root_system), parsed.spec))
    assert any(q.kind == "klein" for q in qs) and any(q.kind == "torus" for q in qs)
    return qs


def _off_rational_points(q, lam):
    """The doubled box points of the census's off-rational parity blocks."""
    half, n = reference.half_residues(q), q._det
    return [h for b in _off_rational_blocks(lam) for h in half[b * n : b * n + n]]


def test_irrational_half_points_match_the_per_point_filter():
    # the census counts the half-lattice points off the rational lines as
    # whole parity blocks of the doubled box; the per-point filter keeps
    # the same points, and over all weights its orbit representatives are
    # those points divided by |G / Gamma0|
    for q in _corpus_and_samples():
        half = reference.half_residues(q)
        for rep in q.rs.rep_names:
            box_points = reps = 0
            for lam in q.rs.weights(rep):
                points = _off_rational_points(q, lam)
                assert points == [h for h in half if not reference._line_is_rational(h, lam)]
                box_points += len(points)
                reps += len(irrational_half(q, lam))
            assert box_points == reps * (q._det // q.N), (q, rep)


def test_semi_inert_axis_cycle_on_a2_klein():
    # the two glide axes carry the only lines in direction alpha; they
    # close after k half-steps
    assert count_semi_closings(A2_KLEIN, "pi1", 3) >= 2


# ---------------------------------------------------------------------------
# glide line counts
# ---------------------------------------------------------------------------


def _line_count(q, m, v, g):
    """The glide line count of v under the m-th power of glide g (0 for
    sigma, 1 for t sigma): k exactly when v is the vector of its beta-row."""
    d = q.alpha_beta_coords(v)[1]
    return q.k_gamma if glide_rows(q, m, (d,))[g].get(d) == v else 0


def test_glide_line_count_examples():
    q = A2_KLEIN
    # admissible: positive beta-part and pairing (v, alpha) = (k m / 2)(alpha, alpha)
    assert _line_count(q, 1, (0, 3), 0) == 3  # v = 3*beta
    assert _line_count(q, 1, (1, 1), 0) == 3  # v = alpha + beta
    assert _line_count(q, 1, (3, -3), 0) == 0  # right pairing, d < 0
    assert _line_count(q, 1, (1, 4), 0) == 0  # wrong pairing value


def test_glide_line_count_window_scan_matches_prediction():
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
                    assert _line_count(q, m, v, 0) == expected
                    assert _line_count(q, m, v, 1) == expected


def test_glide_line_counts_match_the_window_scan_on_corpus():
    members = generate_corpus(7, 20, 12)
    kleins = [m.build() for m in members if isinstance(m.spec, KleinSpec)]
    assert kleins
    box = range(-GLIDE_WINDOW, GLIDE_WINDOW + 1)
    for q in kleins:
        aa = q.rs.pairing(q.alpha, q.alpha)
        seen = set()
        for m, (g, glide) in product((1, 3, 5, 7), enumerate(("sigma", "tsigma"))):
            # one pass over the domain points per glide power
            moves = reference.glide_moves(q, m, glide)
            for c, d in product(box, box):
                v = vec_add(vec_scale(c, q.alpha), vec_scale(d, q.beta))
                if d == 0 or not q.rs.in_coroot_lattice(v):
                    continue
                assert _line_count(q, m, v, g) == moves[v], (q, m, v, glide)
                seen.add((d > 0, 2 * q.rs.pairing(v, q.alpha) == q.k_gamma * m * aa))
        # admissible v (d > 0, right pairing) and inadmissible ones: the
        # wrong pairing, and d < 0
        assert {(True, True), (True, False), (False, False)} <= seen


def test_lambda_set_size_rejects_a_linear_part_not_fixing_alpha(monkeypatch):
    # the glide line counts, once read by lambda_set_size, are read off
    # glide_rows: a linear part that squares to the identity but does not
    # fix alpha is refused at every odd power and every set of rows, for
    # the rows of sigma and of t*sigma alike
    q = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
    minus = ((-1, 0), (0, -1))
    assert mat_mul(minus, minus) == ((1, 0), (0, 1))
    assert mat_vec(minus, q.alpha) != q.alpha
    monkeypatch.setattr(q, "sigma", (minus, q.sigma[1]))
    for m, ds in product((1, 3, -1), (range(1, GLIDE_WINDOW + 1), (3,), ())):
        with pytest.raises(AssertionError, match="does not fix alpha"):
            glide_rows(q, m, ds)


def test_glide_rows_refuse_what_the_closed_form_does_not_power(monkeypatch):
    # the closed form L x + s + (m - 1) / 2 (L s + s) holds for odd m and
    # L**2 = I.  An even power is refused; and the shear ((1, 1), (0, 1))
    # fixes alpha = (1, 0), so it passes the axis check, but its odd powers
    # are not of that form: without the checks the rows would be wrong
    q = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
    window = range(1, GLIDE_WINDOW + 1)
    for m in (0, 2, -4):
        with pytest.raises(ValueError, match="glide power must be odd"):
            glide_rows(q, m, window)
    shear = ((1, 1), (0, 1))
    assert mat_vec(shear, q.alpha) == q.alpha
    monkeypatch.setattr(q, "sigma", (shear, q.sigma[1]))
    for m, ds in product((1, 3), (window, (3,))):
        with pytest.raises(AssertionError, match="does not square to the identity"):
            glide_rows(q, m, ds)


def test_glide_line_counts_read_the_current_sigma(monkeypatch):
    # a glide power computed for an earlier call must not outlive q.sigma;
    # a linear part that does not fix alpha is refused for both glides
    q = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
    assert verify(q).all_hold
    assert all(_line_count(q, 1, (0, 3), g) in (0, q.k_gamma) for g in (0, 1))
    monkeypatch.setattr(q, "sigma", (((-1, 0), (0, -1)), q.sigma[1]))
    with pytest.raises(AssertionError, match="does not fix alpha"):
        glide_rows(q, 1, (3,))


def test_glide_line_scan_matches_the_window_reference(monkeypatch):
    # every Klein bottle of the corpus and the samples, with its own glide,
    # 19 glides whose translation is moved by i alpha + j beta, and 8
    # translations t so moved, which change t sigma alone
    reports = Counter()
    window = range(1, GLIDE_WINDOW + 1)
    for q in _corpus_and_samples():
        if q.kind != "klein":
            continue
        sigma, t = q.sigma, q.t
        moved = []
        for i, j in product(range(-2, 3), range(-2, 2)):
            shift = vec_add(vec_scale(i, q.alpha), vec_scale(j, q.beta))
            moved.append(("sigma", (sigma[0], vec_add(sigma[1], shift))))
            if (i, j) != (0, 0) and abs(i) < 2 and j > -2:
                moved.append(("t", vec_add(t, shift)))
        for name, g in moved:
            with monkeypatch.context() as patch:
                patch.setattr(q, name, g)
                got = _glide_line_scan(q)
                assert got == reference.glide_line_scan(q), (q, name, g)
                # each row d > 0 of the window against the domain points
                # that the glide power moves, one by one
                for m in (1, 3):
                    both = glide_rows(q, m, window)
                    for glide, got_rows in zip(("sigma", "tsigma"), both, strict=True):
                        moves = reference.glide_moves(q, m, glide)
                        rows = {
                            q.alpha_beta_coords(v)[1]: v
                            for v in moves
                            if q.alpha_beta_coords(v)[1] in window
                        }
                        assert got_rows == rows, (q, name, g, m, glide)
                        assert all(moves[v] == q.k_gamma for v in rows.values())
            if not got:
                reports["none"] += 1
            elif got["sigma_count"] == got["tsigma_count"]:
                reports["both glides"] += 1
            else:
                reports["t sigma alone"] += 1
            if g == sigma:
                assert got == {}, q
    # the empty report, and mismatches of both glides and of t sigma alone
    assert reports["none"] > 20 and reports["both glides"] > 100
    assert reports["t sigma alone"] > 100
    assert sum(reports.values()) > 400


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


# the lengths to which the semi and gallery tables of the corpus members
# with N > 12 are checked against the per-length loops, which scan every
# pair at every length
SEMI_LOOP_DEPTH = 24
GALLERY_LOOP_DEPTH = 10


def tally_by_n(progressions: Counter, max_n: int) -> tuple:
    """Counts at n = 1..max_n: one test of n = r (mod m), n >= max(r, 1)
    per progression and n."""
    return tuple(
        sum(c for (r, m), c in progressions.items() if n >= r and (n - r) % m == 0)
        for n in range(1, max_n + 1)
    )


@pytest.mark.parametrize(
    "progressions",
    [
        {(0, 4): 3},  # r = 0 starts at m
        {(0, 1): 5, (3, 1): 2},  # m = 1, also shifted
        {(7, 9): 4, (40, 50): 11, (0, 60): 1},  # first terms above max_n
        {(2 * r + 1, 2 * m): c for r, m, c in ((0, 1, 2), (1, 3, 5), (4, 5, 1))},
        {(2 * r, 2 * m): c for r, m, c in ((0, 1, 6), (2, 3, 1), (0, 7, 2))},
        {(r, m): m - r for m in (1, 2, 3, 5, 12) for r in range(m)},
    ],
)
def test_tally_matches_a_per_n_loop(progressions):
    # progressions (r, m) with 0 <= r < m, as the census solves them; odd
    # and even gallery lengths are (2r + 1, 2m) and (2r, 2m)
    progressions = Counter(progressions)
    for max_n in (0, 1, 7, 30):
        assert _tally(progressions, max_n) == tally_by_n(progressions, max_n)


def test_tally_rejects_a_negative_last_count():
    # n = 2, 3, 4 from the progressions (2, 4), (3, 4) and (0, 4)
    progressions = Counter({(2, 4): 3, (3, 4): 1, (0, 4): -1})
    assert _tally(progressions, 3) == (0, 3, 1)
    assert _tally(Counter(), 0) == ()
    with pytest.raises(ValueError, match="nonnegative"):
        _tally(progressions, 4)


def test_walk_tables_match_loops_on_corpus():
    for q in CORPUS:
        order = _order(q)
        for rep in q.rs.rep_names:
            ns = range(1, order + 1)
            assert walk_count_table(q, rep, order) == tuple(
                count_closed_walks(q, rep, n) for n in ns
            ), (q, rep)
            assert geodesic_count_table(q, rep, order) == tuple(
                count_geodesic_walks(q, rep, n) for n in ns
            ), (q, rep)


def test_semi_and_gallery_tables_match_loops_on_corpus():
    # every n <= order when N <= 12, the loop depths above otherwise
    for q in CORPUS:
        order = _order(q)
        sdepth, gdepth = (order, order) if q.N <= 12 else (SEMI_LOOP_DEPTH, GALLERY_LOOP_DEPTH)
        for rep in q.rs.rep_names:
            assert semi_count_table(q, rep, sdepth) == tuple(
                count_semi_closings(q, rep, j) for j in range(1, sdepth + 1)
            ), (q, rep)
            assert gallery_count_table(q, rep, gdepth) == tuple(
                count_closed_galleries(q, rep, n) for n in range(1, gdepth + 1)
            ), (q, rep)


# ---------------------------------------------------------------------------
# the census by congruence class
# ---------------------------------------------------------------------------


def test_period_is_the_translation_branch_of_the_solver():
    # n * step in Gamma0 (2 Gamma0 in doubled coordinates) exactly when
    # _period divides n, for walk, semi and gallery steps: the solve with
    # no start and no glide direction w
    for q in _corpus_and_samples():
        for rep in q.rs.rep_names:
            steps = list(q.rs.weights(rep))
            steps += [vec_add(lam, mu) for lam, mu in q.rs.gallery_pairs(rep)]
            for step in steps:
                for modulus in (q._det, 2 * q._det):
                    assert (0, _period(q, step, modulus)) == _closings(
                        q, step, (0, 0), (0, 0), modulus
                    ), (q, step, modulus)


def _glide_steps(q):
    """Every glide step of the census of q, as (step, mu, offset, points):
    the walk weights over the box, each weight over each of its
    off-rational parity blocks mu of the doubled box, and each gallery
    pair's lam + mu with the even and the odd offset."""
    d = q._det
    box, half = reference.residues(q), reference.half_residues(q)
    for rep in q.rs.rep_names:
        for lam in q.rs.weights(rep):
            yield lam, None, (0, 0), box
            for b in _off_rational_blocks(lam):
                yield lam, (b & 1, b >> 1), (0, 0), half[b * d : b * d + d]
        for lam, mu in q.rs.gallery_pairs(rep):
            for offset in ((0, 0), lam):
                yield vec_add(lam, mu), None, offset, box


def test_the_glide_branch_counts_the_points_that_close():
    # one solve per glide step, its progression counted det // ord(w)
    # times, against the box points x (the doubled-box points of one parity
    # block) with n*step + offset + x - sigma(x) in Gamma0 (2 Gamma0), one
    # membership test per point and n <= 2 det
    steps = 0
    for q in _corpus_and_samples():
        if q.kind == "torus":
            assert _glide_branch(q, (1, 0)) == _glide_branch(q, (1, 0), (1, 0)) == Counter()
            continue
        d = q._det
        for step, mu, offset, points in _glide_steps(q):
            doubled = mu is not None
            glide = partial(reference.sigma_half, q) if doubled else reference.Affine(*q.sigma).apply
            shifts = [vec_add(offset, vec_sub(x, glide(x))) for x in points]
            modulus = 2 * d if doubled else d
            progression = _glide_branch(q, step, mu, offset)
            assert len(progression) <= 1
            for n in range(1, 2 * d + 1):
                got = sum(c for (r, m), c in progression.items() if n % m == r)
                move = vec_scale(n, step)
                want = sum(reference.in_gamma0(q, vec_add(move, s), modulus) for s in shifts)
                assert got == want, (q, step, mu, offset, n)
            steps += 1
    assert steps > 500


def test_an_odd_box_multiplicity_raises(monkeypatch):
    # over the box every progression of a Klein bottle is counted twice,
    # once per point of each glide pair.  A glide branch counted once, here
    # by an order of w = beta - L beta planted as det, breaks that along
    # alpha, the one weight whose geodesics the glide closes, and the
    # census raises instead of flooring
    q = build(A2, KleinSpec((1, 0), (0, 1), 2, 2, 1))
    w = vec_sub(q.beta, mat_vec(q.sigma[0], q.beta))
    assert _glide_branch(q, q.alpha) == Counter({(3, 6): 12}) and _period(q, w, q._det) == 1
    period = weylzeta.census._period

    def planted(q_, step, modulus):
        return modulus if step == w else period(q_, step, modulus)

    monkeypatch.setattr(weylzeta.census, "_period", planted)
    with pytest.raises(AssertionError, match="not a multiple of 2"):
        geodesic_count_table(q, q.type_rep, 12)


# ---------------------------------------------------------------------------
# cost guards: structural, no timing
# ---------------------------------------------------------------------------


def test_a_torus_verify_builds_no_solver(monkeypatch):
    def refuse(*args):
        raise AssertionError("a torus census built a congruence solver")

    monkeypatch.setattr(weylzeta.census, "_closings", refuse)
    for rs, v1, v2 in (
        (A2, (6, 0), (0, 3)),
        (A2, (12, 0), (0, 6)),
        (C2, (3, 3), (3, -3)),
        (C2, (6, 0), (0, 12)),
    ):
        q = build(rs, TorusSpec(v1, v2))
        assert verify(q).all_hold


def test_a_klein_verify_solves_once_per_glide_step(monkeypatch):
    # the A2 Klein bottles (1,0),(0,1),1,1,m: x - sigma(x) runs over ord(w)
    # classes, w = beta - L beta, and the census solves each glide step
    # once whatever ord(w): at most once per weight, per off-rational
    # parity block of a weight and per gallery pair
    calls, orders = [], []
    for m in (2, 8):
        q = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, m))
        w = vec_sub(q.beta, mat_vec(q.sigma[0], q.beta))
        orders.append(next(j for j in range(1, q._det + 1) if reference.in_gamma0(q, vec_scale(j, w), q._det)))
        solves = Counter()

        def counting(q_, step, start, w_, modulus):
            solves[modulus == 2 * q_._det] += 1
            return _closings(q_, step, start, w_, modulus)

        with monkeypatch.context() as patch:
            patch.setattr(weylzeta.census, "_closings", counting)
            assert verify(q).all_hold
        reps = q.rs.rep_names
        weights = sum(len(q.rs.weights(rep)) for rep in reps)
        pairs = sum(len(q.rs.gallery_pairs(rep)) for rep in reps)
        blocks = sum(len(_off_rational_blocks(lam)) for rep in reps for lam in q.rs.weights(rep))
        assert 0 < solves[False] <= weights + pairs and 0 < solves[True] <= blocks
        calls.append(solves)
    assert orders == [2, 8] and calls[0] == calls[1]


def test_a_klein_verify_makes_one_counter_per_table(monkeypatch):
    # each census table is summed over the box in plain dicts and made a
    # Counter once, by _per_orbit: no Counter per weight, glide branch or
    # gallery pair
    made = []

    class Counting(Counter):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(weylzeta.census, "Counter", Counting)
    for rs, spec in (
        (A2, KleinSpec((1, 0), (0, 1), 1, 1, 8)),
        (C2, KleinSpec((1, 0), (1, 1), 2, 1, 1)),
        (C2, KleinSpec((1, 1), (1, 0), 1, 2, 1)),
    ):
        q = build(rs, spec)
        made.clear()
        assert verify(q).all_hold
        # walks, geodesics, semi-closings and galleries of each rep
        assert 0 < len(made) <= 4 * len(q.rs.rep_names), (spec, len(made))


def test_the_glide_line_scan_evaluates_three_vectors_per_row(monkeypatch):
    # the N = 96 C2 spin Klein rung of the ladder benchmark
    q = build(C2, KleinSpec((1, 0), (1, 1), -4, -4, 6))
    calls, looked_up, returned = Counter(), Counter(), Counter()
    rows_of = weylzeta.census.glide_rows
    window = range(1, GLIDE_WINDOW + 1)

    class Rows(dict):
        """One glide power's rows, counting the lookups of each row."""

        def get(self, d, default=None):
            looked_up[self.m, self.glide, d] += 1
            return dict.get(self, d, default)

    def recording(q_, m, ds):
        calls[m] += 1
        both = tuple(Rows(rows) for rows in rows_of(q_, m, ds))
        for rows, glide in zip(both, ("sigma", "tsigma"), strict=True):
            rows.m, rows.glide = m, glide
            returned["rows"] += len(rows)
        return both

    # the beta-rows d > 0 of the window that a glide power can move: those
    # with b - d even, b the beta-coordinate of the glide's translation
    bs = [q.alpha_beta_coords(s)[1] for s in (q.sigma[1], vec_add(q.sigma[1], q.t))]
    rows = 2 * sum((b - d) % 2 == 0 for b in bs for d in window)
    monkeypatch.setattr(weylzeta.census, "glide_rows", recording)
    assert _glide_line_scan(q) == {}
    # one glide_rows call per power, returning one vector per movable row
    # of each glide; each evaluated vector looks up the row of its d in
    # both glides' rows, at most three vectors per (power, d > 0), where
    # the full-window scan evaluated every vector of the window
    assert calls == {1: 1, 3: 1}
    assert 0 < returned["rows"] == rows <= 4 * GLIDE_WINDOW
    assert looked_up and all(d > 0 and n <= 3 for (_, _, d), n in looked_up.items())
    assert all(looked_up[m, "tsigma", d] == n for (m, g, d), n in looked_up.items())
    assert sum(looked_up.values()) <= 2 * 3 * 2 * GLIDE_WINDOW == 48


def test_a_klein_verify_leaves_its_cover_box_unbuilt(monkeypatch):
    covers = []

    def recording(rs, spec):
        covers.append(build(rs, spec))
        return covers[-1]

    monkeypatch.setattr(weylzeta.identities, "build", recording)
    for q in (A2_KLEIN, C2_SPIN_KLEIN, C2_ST_KLEIN):
        assert verify(q).all_hold
    assert len(covers) == 3
    for cover in covers:
        assert cover.kind == "torus"
        # no list of box points: nothing longer than the triangular basis
        kept = [v for v in vars(cover).values() if isinstance(v, (list, tuple))]
        assert kept and max(map(len, kept)) <= 3


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
            walk_count_table(q, rep, order),
            geodesic_count_table(q, rep, order),
            semi_count_table(q, rep, 2 * order),
            gallery_count_table(q, rep, order),
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


@given(st.sampled_from(KLEIN_SPECS), st.integers(0, 7))
@settings(deadline=None, max_examples=20)
def test_klein_tables_invariant_under_relabeling(item, g):
    rs_name, spec = item
    rs = RootSystem.make(rs_name)
    q = build(rs, spec)
    base = _all_tables(q)
    # negating alpha, beta, a and b flips the sign of k; build relabels back
    (x1, y1), (x2, y2) = spec.alpha, spec.beta
    relabeled = KleinSpec((-x1, -y1), (-x2, -y2), -spec.a, -spec.b, spec.m)
    assert _all_tables(build(rs, relabeled)) == base
    # t and its inverse generate the same group with sigma
    inverse_t = KleinSpec(spec.alpha, spec.beta, spec.a, spec.b, -spec.m)
    assert _all_tables(build(rs, inverse_t)) == base
    # a Weyl element applied to alpha and beta conjugates the whole group;
    # the verify report, whose glide scan reads sigma, does not change
    w = rs.weyl[g % len(rs.weyl)]
    conjugate = build(
        rs, KleinSpec(mat_vec(w, spec.alpha), mat_vec(w, spec.beta), spec.a, spec.b, spec.m)
    )
    assert _all_tables(conjugate) == base
    assert verify(conjugate).to_json_dict() == verify(q).to_json_dict()


# ---------------------------------------------------------------------------
# independence from the transfer systems
# ---------------------------------------------------------------------------


def test_census_reads_nothing_of_the_transfer_systems():
    tree = ast.parse(Path(weylzeta.census.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    outside = [
        name
        for name in imported
        if name not in (".quotient", ".rootgeom")
        and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
    names, texts = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            texts.append(node.value)  # a getattr(q, "...") would name it here
    # of the root system's tables the census reads only gallery_pairs
    assert not names & {"_zeta_grid", "_glide", "_lower", "_grid", "_Grid", "zeta"}
    assert not names & {"label_table", "LabelTable", "_labels", "_pairs", "flip"}
    assert not names & {"plan", "_plans", "SegmentPlan", "_step"}
    # nor the engine's triangular-basis arithmetic
    assert not names & {"_transfer_system", "_order", "_fixed_points", "_triangular_basis"}
    assert not [t for t in texts if "_grid" in t.lower() or t in ("_glide", "_lower")]
