"""Transfer systems, zeta functions, L-polynomials, closed forms."""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
import weylzeta.census as census_mod
import weylzeta.zeta as zeta_mod
from reference import (
    IntMatrix,
    Poly,
    Series,
    count_closed_galleries,
    count_geodesic_walks,
    count_semi_closings,
    det_identity_minus_wT,
    l_poly_in_w,
    num_den,
    progression_counts,
    reduced_in_w,
    series_exp,
    series_log,
)
from torus_sweep import exponent_dicts
from weylzeta.algebra import CycleProduct, NotPolynomialWithinBound
from weylzeta.census import _walk_progressions, walk_count_table
from weylzeta.cli import poly_to_json
from weylzeta.corpus import generate_corpus
from weylzeta.identities import _cycles, verify
from weylzeta.quotient import MAX_CLASSES, KleinSpec, SpecValidationError, TorusSpec, build
from weylzeta.rootgeom import RootSystem, mat_vec, vec_scale
from weylzeta.specfile import load_spec_file
from weylzeta.zeta import (
    MAX_ORDER,
    LPolynomial,
    OrderInsufficientError,
    axis_factor,
    build_gallery_system,
    build_semi_system,
    build_walk_system,
    correction_factor,
    l_poly_from_counts,
    required_order,
    resolve_order,
    zeta_bundle,
)

ROOT = Path(__file__).resolve().parent.parent
A2 = RootSystem.make("A2")
C2 = RootSystem.make("C2")

A2_TORUS = build(A2, TorusSpec((2, -1), (-1, 2)))
C2_TORUS = build(C2, TorusSpec((1, 1), (1, -1)))
A2_KLEIN = build(A2, KleinSpec((1, 0), (0, 1), 1, 1, 1))
C2_SPIN_KLEIN = build(C2, KleinSpec((1, 0), (1, 1), 2, 1, 1))
C2_ST_KLEIN = build(C2, KleinSpec((1, 1), (1, 0), 1, 2, 1))

ALL_QUOTIENTS = (A2_TORUS, C2_TORUS, A2_KLEIN, C2_SPIN_KLEIN, C2_ST_KLEIN)


def inverse_power(w_exp: int, e: int) -> CycleProduct:
    """(1 - w**w_exp)**(-e)."""
    return CycleProduct({w_exp: -e})


def product_series(z: CycleProduct, order: int) -> Series:
    """The power series of a cycle product, from its dense reduced form."""
    num, den = num_den(z)
    return Series.from_poly(num, order) * Series.from_poly(den, order).reciprocal()


def exp_series(counts) -> Series:
    """exp(sum_n counts[n-1] u**n / n) as a w-series of order 2 * len(counts)."""
    coeffs = [Fraction(0)] * (2 * len(counts) + 1)
    for n, c in enumerate(counts, start=1):
        coeffs[2 * n] = Fraction(c, n)
    return series_exp(Series(coeffs, 2 * len(counts)))


def l_poly(q, rep):
    """The L-polynomial read off the walk progressions."""
    return l_poly_from_counts(_walk_progressions(q, rep)[0], q.N * len(q.rs.weights(rep)))


# ---------------------------------------------------------------------------
# regression values on the coroot-lattice quotients
# ---------------------------------------------------------------------------


def test_walk_zetas_on_coroot_tori():
    assert build_walk_system(A2_TORUS, "pi1").product == inverse_power(6, 3)
    assert build_walk_system(A2_TORUS, "pi2").product == inverse_power(6, 3)
    assert build_walk_system(C2_TORUS, "spin").product == inverse_power(4, 4)
    assert build_walk_system(C2_TORUS, "st").product == inverse_power(2, 8)


def test_gallery_zetas_on_coroot_tori():
    assert build_gallery_system(A2_TORUS, "pi1").product == inverse_power(12, 3)
    assert build_gallery_system(A2_TORUS, "pi2").product == inverse_power(12, 3)
    assert build_gallery_system(C2_TORUS, "spin").product == inverse_power(4, 8)
    assert build_gallery_system(C2_TORUS, "st").product == inverse_power(4, 8)


def test_semi_zetas_equal_walk_zetas_on_tori():
    for q in (A2_TORUS, C2_TORUS):
        for rep in q.rs.rep_names:
            assert build_semi_system(q, rep).product == build_walk_system(q, rep).product


def test_semi_cycles_even_on_tori():
    for q, rep in ((C2_TORUS, "spin"), (A2_TORUS, "pi2")):
        sys = build_semi_system(q, rep)
        assert all(ell % 2 == 0 for ell, _ in _cycles(sys.product, sys.step_in_w))


def test_a2_klein_semi_to_walk_ratio():
    # inert axis geodesics contribute the odd-w factor (1+w^3)/(1-w^3)
    ratio = build_semi_system(A2_KLEIN, "pi1").product / build_walk_system(A2_KLEIN, "pi1").product
    assert ratio == axis_factor(3, 1)


# ---------------------------------------------------------------------------
# L-functions
# ---------------------------------------------------------------------------


def test_l_polynomials_on_coroot_tori():
    for q, rep, w_exp, e in (
        (C2_TORUS, "st", 2, 8),
        (A2_TORUS, "pi1", 6, 3),
        (C2_TORUS, "spin", 4, 4),
    ):
        p = l_poly(q, rep)
        assert l_poly_in_w(p) == (Poly.one() - Poly.monomial(w_exp)) ** e
        assert p == CycleProduct({w_exp: e})


def test_l_function_series_is_reciprocal_of_p():
    # P from one progression of modulus 3, the series through 40 counts
    s = exp_series(walk_count_table(A2_TORUS, "pi2", 40))
    p = l_poly(A2_TORUS, "pi2")
    assert set(_walk_progressions(A2_TORUS, "pi2")[0]) == {(0, 3)}
    assert s == Series.from_poly(l_poly_in_w(p), s.order).reciprocal()


def test_l_poly_matches_the_series_exp_reciprocal_route():
    # the dense reference: exp of the count series through the order, its
    # reciprocal, and a zero tail past the degree bound; P is read off the
    # walk progressions
    for member in generate_corpus(7, 20, 12):
        q = member.build()
        order = resolve_order(q)
        for rep in q.rs.rep_names:
            counts = walk_count_table(q, rep, order)
            bound = 2 * q.N * len(q.rs.weights(rep))
            r = exp_series(counts).reciprocal()
            assert not any(r.coeffs[bound + 1 :])
            assert l_poly_in_w(l_poly(q, rep)) == Poly(r.coeffs[: bound + 1])


def test_l_function_order_pre_condition():
    # the order is checked by the bundle, and P is read off the walk
    # progressions at any admissible order
    with pytest.raises(OrderInsufficientError) as exc:
        zeta_bundle(A2_TORUS, 10)
    assert exc.value.required == 2 * 3 * 3 + 8
    p = l_poly(A2_TORUS, "pi1")
    assert all(zeta_bundle(A2_TORUS, order).l_poly["pi1"] == p for order in (26, 48, 99))


def test_l_product_checks_the_dense_polynomial():
    # counts that no cycle product has: 2 * a_2 = N_2 - N_1 = -1, so P
    # itself fails at u**2
    with pytest.raises(AssertionError, match="non-integer coefficients"):
        l_poly_from_counts({(1, 2): 1}, 2)
    # N_n = 9 when 3 | n is (1 - u**3)**3, from one progression or split
    # over the residues 0 and 3 of 6, but not with 27 more walks at every
    # 27th n: P would then be (1 - u**3)**3 (1 - u**27), past the bound
    for progressions in ({(0, 3): 9}, {(0, 6): 9, (3, 6): 9}):
        assert l_poly_from_counts(progressions, 9) == CycleProduct({6: 3})
    with pytest.raises(NotPolynomialWithinBound) as exc:
        l_poly_from_counts({(0, 3): 9, (0, 27): 27}, 9)
    assert exc.value.exponent == 2 * 27


def test_l_polynomial_degree_is_read_off_its_product():
    # P holds only its product, whose coefficients are expanded where they
    # are read; its degree, read off the product, is the one they give
    for q in ALL_QUOTIENTS:
        for rep in q.rs.rep_names:
            p = l_poly(q, rep)
            coeffs = p.expanded()[1]
            assert p.degree == 2 * len(coeffs) - 2 == 2 * q.N * len(q.rs.weights(rep))
            assert [type(c) for c in coeffs] == [int] * len(coeffs)


def test_l_product_expands_back_past_the_degree_check():
    # The product that comes with P is P: its reduced form is P over 1.
    # The Klein rep's numerator has a negative Moebius exponent,
    # (1 - u**6)**-1 in its reduced form, so the degree check passes a
    # product that is not a plain product of (1 - u**d) factors.
    klein = build(A2, KleinSpec((-1, 0), (0, -1), 0, -3, 2))
    for q, rep in ((A2_TORUS, "pi1"), (klein, "pi1")):
        p = l_poly(q, rep)
        prod = p
        if q is klein:
            assert any(x < 0 for x in reduced_in_w(prod)[0].values())
        assert num_den(prod) == (l_poly_in_w(p), Poly.one())


def l_outcome(fn, counts, bound):
    """fn's P as a Poly in w, or the type of its failure with the exponent
    of a tail failure."""
    try:
        p = fn(counts, bound)
    except (NotPolynomialWithinBound, AssertionError) as exc:
        return type(exc), getattr(exc, "exponent", None)
    return p if isinstance(p, Poly) else l_poly_in_w(p)


def on_form(moduli):
    """The progressions (0, m) and, for m even, (m/2, m) of the given
    moduli: the residues the census makes."""
    return [(r, m) for m in moduli for r in ((0, m // 2) if m % 2 == 0 else (0,))]


def perturbations(progressions, period):
    """progressions with the count of one of them changed by -1, +1 or
    +m, or with one progression of a modulus dividing period added."""
    for (r, m), c in progressions.items():
        for delta in (-1, 1, m):
            yield {**progressions, (r, m): c + delta}
    for p in on_form(m for m in range(1, period + 1) if period % m == 0):
        if p not in progressions:
            yield {**progressions, p: 1}


def assert_matches_the_references(progressions, bound):
    """P of the progressions, or its failure, is that of both references
    over their counts through 2 * bound + 8; returns the outcome."""
    assert lcm(*(m for _, m in progressions)) <= bound + 8
    got = l_outcome(l_poly_from_counts, progressions, bound)
    counts = progression_counts(progressions, 2 * bound + 8)
    assert got == l_outcome(reference.l_poly_from_counts, counts, bound), (progressions, bound)
    assert got == l_outcome(reference.l_poly_by_expansion, counts, bound), (progressions, bound)
    return got


def test_l_poly_matches_the_newton_recurrence():
    # the value, or the failure and its exponent, of the Newton recurrence
    # over the counts: on the corpus's walk progressions, each perturbed
    # once, and on random progression sets of short period
    cases = []
    for member in generate_corpus(7, 20, 12):
        q = member.build()
        for rep in q.rs.rep_names:
            progressions = dict(_walk_progressions(q, rep)[0])
            period = lcm(*(m for _, m in progressions))
            bound = q.N * len(q.rs.weights(rep))
            cases.append((progressions, bound))
            cases += [(c, bound) for c in perturbations(progressions, period)]
    rng = random.Random(11)
    for _ in range(300):
        bound = rng.randint(0, 5)
        period = rng.randint(1, bound + 8)
        moduli = [m for m in range(1, period + 1) if period % m == 0]
        forms = on_form(moduli)
        picked = rng.sample(forms, min(3, len(forms)))
        cases.append(({p: rng.randint(-3, 3) for p in picked}, bound))
    outcomes = [assert_matches_the_references(progressions, bound) for progressions, bound in cases]
    # every branch is exercised: P, the tail, and a non-integer coefficient
    kinds = Counter(o[0] if isinstance(o, tuple) else Poly for o in outcomes)
    assert all(kinds[k] > 20 for k in (Poly, NotPolynomialWithinBound, AssertionError))


@st.composite
def planted_progressions(draw):
    """(progressions, bound, outcome): planted census progressions (r, m)
    of period M <= bound + 8, and the outcome they were planted for.
    Progressions (0, m) of count m k make a P = prod (1 - u**m)**k within
    the bound; adding (0, 1), the same count at every n, multiplies it by
    a power of 1 - u, up to degree bound + 1 (a tail), and adding (0, 2)
    of count 1 makes 2 a_2 odd (a non-integer p_2).  Residues 0 or m/2
    with any counts give "any": whatever the references find."""
    outcome = draw(st.sampled_from(("P", "tail", "non-integer", "any")))
    bound = draw(st.integers(2, 10))
    size = draw(st.integers(1, (bound + 8) // 2)) * 2  # (0, 2) keeps the period
    moduli = [m for m in range(1, size + 1) if size % m == 0]
    progressions: Counter = Counter()
    planted = st.tuples(st.sampled_from(on_form(moduli)), st.integers(-3, 3))
    for (r, m), k in draw(st.lists(planted, max_size=4)):
        if outcome != "any":
            r, k = 0, m * abs(k)
        progressions[(r, m)] += k
    if outcome == "any":
        return dict(progressions), bound, outcome
    degree = sum(progressions.values())  # N_M, the degree of the planted P
    bound = max(bound, degree)
    if outcome == "tail":
        progressions[(0, 1)] += bound + 1 - degree
    elif outcome == "non-integer":
        progressions[(0, 2)] += 1
    return dict(progressions), bound, outcome


@given(planted_progressions())
@settings(deadline=None, max_examples=400)
def test_l_poly_fallback_matches_the_expansion_oracle(planted):
    # the value or the failure of the progressions is that of the Newton
    # recurrence and of the full expansion of the Moebius product over
    # their counts through 2 * bound + 8
    progressions, bound, outcome = planted
    got = assert_matches_the_references(progressions, bound)
    if outcome == "P":
        assert isinstance(got, Poly)
    elif outcome == "tail":
        assert got == (NotPolynomialWithinBound, 2 * (bound + 1))
    elif outcome == "non-integer":
        assert got == (AssertionError, None)


def test_l_poly_of_a_huge_modulus_is_quick():
    # P is read off the progressions, not off a period of 10**12 counts:
    # N_n = 10**12 when 10**12 | n is 1 - u**(10**12), and with the residue
    # 10**12 / 2 added it is (1 - u**(10**12 / 2))**2
    m = 10**12
    start = time.perf_counter()
    p = l_poly_from_counts({(0, m): m}, m)
    assert p == CycleProduct({2 * m: 1})
    p = l_poly_from_counts({(0, m): m, (m // 2, m): m}, m)
    assert p == CycleProduct({m: 2})
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "bound, outcome",
    ((1, (NotPolynomialWithinBound, 4)), (5, (AssertionError, None))),
    ids=("tail", "non_integer"),
)
def test_a_non_integer_plant_fails_without_tallying_a_period(bound, outcome):
    # 2 * a_2 is odd, so p_2 is not an integer: the failure is that of
    # (0, 2) alone, named before the modulus 10**12 is reached, with no
    # table of 10**12 counts
    m = 10**12
    start = time.perf_counter()
    assert l_outcome(l_poly_from_counts, {(0, m): m, (0, 2): 1}, bound) == outcome
    assert l_outcome(l_poly_from_counts, {(0, 2): 1}, bound) == outcome
    assert time.perf_counter() - start < 1.0


def refused(top):
    return f"naming P's failure needs an expansion to order {top}, above {MAX_ORDER}"


@pytest.mark.parametrize(
    "progressions, failure",
    (
        ({(0, 10**12): 1}, {"nonzero_tail_exponent": 2 * 10**12}),
        ({(0, 1): 1, (0, 10**12): 1}, {"reason": refused(10**12 - 1)}),
        ({(0, 10**12): 10**12, (0, 1): 1}, {"reason": refused(10**12 + 5)}),
    ),
    ids=("non_integer", "non_integer_above_a_factor", "tail"),
)
def test_a_failure_past_max_order_is_named_without_expanding(progressions, failure, monkeypatch):
    # with no factor below d0 = 10**12, the least d not dividing s[d], the
    # expansion to u**(d0 - 1) is 1 and P fails at u**d0, past the bound,
    # with nothing expanded.  Naming the failing order otherwise expands to
    # u**(d0 - 1), or to u**(bound + M) with M = 10**12: the order is
    # checked against MAX_ORDER before anything is allocated, and the
    # reason names it
    def refuse(factors, top):
        raise RuntimeError("expanded past MAX_ORDER")

    monkeypatch.setattr(zeta_mod, "_expand", refuse)
    start = time.perf_counter()
    try:
        l_poly_from_counts(progressions, 5)
    except NotPolynomialWithinBound as exc:
        got = {"nonzero_tail_exponent": exc.exponent}
    except AssertionError as exc:
        got = {"reason": str(exc)}
    assert got == failure
    assert time.perf_counter() - start < 1.0


def test_a_failure_up_to_max_order_is_still_named():
    # P = (1 - u)(1 - u**m) at bound 5 fails at u**m, found by expanding to
    # bound + m: that runs for bound + m = MAX_ORDER, and one more is refused
    m = MAX_ORDER - 5
    assert l_outcome(l_poly_from_counts, {(0, m): m, (0, 1): 1}, 5) == (NotPolynomialWithinBound, 2 * m)
    with pytest.raises(AssertionError, match=f"to order {MAX_ORDER + 1}, above"):
        l_poly_from_counts({(0, m + 1): m + 1, (0, 1): 1}, 5)


def test_l_polynomial_holds_the_poly_coefficients():
    # P is a cycle product and compares as one; its int u-coefficients
    # are expanded from it, with the same JSON bytes as the list
    p = LPolynomial({2: 3})  # (1 - u)**3
    same = CycleProduct({2: 3})
    assert p == same and hash(p) == hash(same) and p != LPolynomial({2: 2})
    assert repr(p) == "LPolynomial({2: 3})" and repr(same) == "CycleProduct({2: 3})"
    assert list(p.expanded()[1]) == [1, -3, 3, -1] and p.degree == 6
    assert [type(c) for c in p.expanded()[1]] == [int] * 4
    assert json.dumps(poly_to_json(p)) == '{"coeffs": [1, -3, 3, -1], "var": "u"}'
    # N_n = 1, the progression (0, 1), gives P = 1 - u
    p = l_poly_from_counts({(0, 1): 1}, 3)
    assert list(p.expanded()[1]) == [1, -1] and p == LPolynomial({2: 1})


def regular_representation_l_poly(q, rep):
    """Independent oracle for torus L data: the product over weights of
    det(1 - u * translation permutation) on vertex classes."""
    out = Poly.one()
    for lam in q.rs.weights(rep):
        perm = []
        reps = reference.vertex_reps(q)
        idx = {v: i for i, v in enumerate(reps)}
        for v in reps:
            perm.append(idx[reference.reduce(q, (v[0] + lam[0], v[1] + lam[1]))])
        seen = [False] * len(perm)
        for s in range(len(perm)):
            if seen[s]:
                continue
            ell, cur = 0, s
            while not seen[cur]:
                seen[cur] = True
                cur = perm[cur]
                ell += 1
            out = out * (Poly.one() - Poly.monomial(2 * ell))
    return out


def test_l_matches_regular_representation_product_on_tori():
    for q in (
        A2_TORUS,
        C2_TORUS,
        build(A2, TorusSpec((3, 0), (0, 3))),
        build(C2, TorusSpec((2, 0), (1, 3))),
    ):
        for rep in q.rs.rep_names:
            assert l_poly_in_w(l_poly(q, rep)) == regular_representation_l_poly(q, rep)


def test_l_poly_is_the_q1_hecke_determinant():
    # the q = 1 building-side form of P, det(sum_j (-u)**j E_j) over the
    # vertex classes; reference.hecke_determinant proves the equality for
    # tori and Klein bottles, and this checks it on the small corpus
    # members and the samples
    quotients = [m.build() for m in generate_corpus(7, 20, 12)]
    for name in ("a2_klein", "a2_torus", "c2_klein_spin", "c2_torus"):
        parsed = load_spec_file(str(ROOT / "samples" / f"{name}.spec"))
        quotients.append(build(RootSystem.make(parsed.root_system), parsed.spec))
    kinds = Counter()
    for q in quotients:
        if q.N > 12:
            continue
        kinds[q.kind] += 1
        for rep in q.rs.rep_names:
            h = reference.hecke_determinant(q, rep)
            assert l_poly_in_w(l_poly(q, rep)) == Poly([x for c in h.coeffs for x in (c, 0)])
    assert kinds["torus"] >= 10 and kinds["klein"] >= 10


# ---------------------------------------------------------------------------
# closed form and correction factors
# ---------------------------------------------------------------------------


def test_torus_closed_form_examples():
    # 1/P of a torus is its closed form, prod over weights of
    # (1 - u**deg)**(-N/deg), deg the weight's order modulo Gamma0
    assert l_poly(A2_TORUS, "pi1").inverse() == inverse_power(6, 3)
    big = build(A2, TorusSpec((3, 0), (0, 3)))
    assert l_poly(big, "pi1").inverse() == inverse_power(6, 9)
    assert l_poly(C2_TORUS, "st").inverse() == inverse_power(2, 8)


def test_torus_closed_form_orders_match_a_stepped_order():
    # each weight's order by brute force: the least n with n * lam in Gamma0
    quotients = [m.build() for m in generate_corpus(7)]
    for name in ("a2_torus", "c2_torus"):
        parsed = load_spec_file(str(ROOT / "samples" / f"{name}.spec"))
        quotients.append(build(RootSystem.make(parsed.root_system), parsed.spec))
    tori = [q for q in quotients if q.kind == "torus"]
    assert len(tori) >= 20
    for q in tori:
        for rep in q.rs.rep_names:
            exponents = Counter()
            for lam in q.rs.weights(rep):
                n = 1
                while not reference.in_gamma0(q, vec_scale(n, lam), q._det):
                    n += 1
                assert q.N % n == 0
                exponents[2 * n] -= q.N // n
            assert l_poly(q, rep).inverse() == CycleProduct(exponents), (q, rep)


def test_correction_factors():
    assert correction_factor(A2_TORUS, "pi1") == CycleProduct()
    assert correction_factor(A2_KLEIN, "pi1") == axis_factor(6, 1)
    assert correction_factor(C2_SPIN_KLEIN, "st") == axis_factor(6, 4)
    assert correction_factor(C2_SPIN_KLEIN, "spin") == CycleProduct()


# ---------------------------------------------------------------------------
# structural invariants of the transfer systems
# ---------------------------------------------------------------------------


def test_transfer_maps_are_bijections_and_sized():
    for q in ALL_QUOTIENTS:
        for rep in q.rs.rep_names:
            walks = build_walk_system(q, rep)
            assert walks.size == q.N * len(q.rs.weights(rep))
            build_semi_system(q, rep)
            gal = build_gallery_system(q, rep)
            assert gal.size == q.N * len(q.rs.gallery_pairs(rep))


def test_walk_log_matches_geodesic_counts():
    for q in ALL_QUOTIENTS:
        for rep in q.rs.rep_names:
            z = build_walk_system(q, rep).product
            logz = series_log(product_series(z, 32))
            for n in range(1, 17):
                expected = Fraction(count_geodesic_walks(q, rep, n), n)
                assert logz.coefficient(2 * n) == expected
                assert logz.coefficient(2 * n - 1) == 0


def test_semi_log_matches_semi_counts():
    for q in (A2_TORUS, A2_KLEIN, C2_SPIN_KLEIN):
        for rep in q.rs.rep_names:
            z = build_semi_system(q, rep).product
            logz = series_log(product_series(z, 24))
            for j in range(1, 25):
                assert logz.coefficient(j) == Fraction(
                    count_semi_closings(q, rep, j), j
                )


def test_gallery_log_matches_gallery_counts():
    for q in ALL_QUOTIENTS:
        for rep in q.rs.rep_names:
            z = build_gallery_system(q, rep).product
            logz = series_log(product_series(z, 24))
            for n in range(1, 13):
                assert logz.coefficient(2 * n) == Fraction(
                    count_closed_galleries(q, rep, n), n
                )


def test_closed_paths_equal_census():
    for q in (A2_KLEIN, C2_ST_KLEIN):
        for rep in q.rs.rep_names:
            walks = reference.closed_path_table(build_walk_system(q, rep).product, 2, 12)
            assert walks == [count_geodesic_walks(q, rep, n) for n in range(1, 13)]
            gal = reference.closed_path_table(build_gallery_system(q, rep).product, 2, 8)
            assert gal == [count_closed_galleries(q, rep, n) for n in range(1, 9)]
            semi = reference.closed_path_table(build_semi_system(q, rep).product, 1, 12)
            assert semi == [count_semi_closings(q, rep, j) for j in range(1, 13)]


def test_cycle_zeta_agrees_with_determinant_path():
    # retained cross-check: det(I - wT) on the explicit permutation matrix
    # of the reference builders' successors, then w -> w**step, reproduces
    # the dense reduced cycle product of the package's systems
    for q in (A2_TORUS, A2_KLEIN, C2_SPIN_KLEIN):
        for rep in q.rs.rep_names:
            for build_system, build_reference in (
                (build_walk_system, reference.build_walk_system),
                (build_semi_system, reference.build_semi_system),
                (build_gallery_system, reference.build_gallery_system),
            ):
                sys, explicit = build_system(q, rep), build_reference(q, rep)
                assert (sys.kind, sys.step_in_w) == (explicit.kind, explicit.step_in_w)
                assert sys.size == explicit.size
                det = det_identity_minus_wT(IntMatrix.from_permutation(explicit.successor))
                spread = [0] * (det.degree * sys.step_in_w + 1)
                spread[:: sys.step_in_w] = det.coeffs
                assert num_den(sys.product) == (Poly.one(), Poly(spread))


def test_spin_walk_zeta_is_even_in_u():
    for q in (C2_TORUS, C2_SPIN_KLEIN, C2_ST_KLEIN):
        den = num_den(build_walk_system(q, "spin").product)[1]
        assert all(i % 4 == 0 for i, c in enumerate(den.coeffs) if c != 0)


def test_type_rep_gallery_zeta_is_even_in_u():
    for q in (C2_SPIN_KLEIN, C2_ST_KLEIN):
        den = num_den(build_gallery_system(q, q.type_rep).product)[1]
        assert all(i % 4 == 0 for i, c in enumerate(den.coeffs) if c != 0)


def test_reciprocal_zetas_are_integer_with_unit_constant():
    for q in ALL_QUOTIENTS:
        for rep in q.rs.rep_names:
            for z in (build_walk_system(q, rep).product, build_semi_system(q, rep).product, build_gallery_system(q, rep).product):
                num, den = num_den(z)
                assert num == Poly.one()
                assert den.coefficient(0) == 1


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------


def l_function(b, q, rep):
    """L = (1 - u)**(-eps * N) / P of the bundle b of q."""
    trivial = CycleProduct({2: q.rs.rep(rep).epsilon * q.N})
    return (trivial * b.l_poly[rep]).inverse()


def test_zeta_bundle_contents():
    b = zeta_bundle(A2_TORUS)
    assert set(b.zeta) == {"pi1", "pi2"}
    assert b.zeta["pi1"] == inverse_power(6, 3)
    assert l_poly_in_w(b.l_poly["pi1"]) == (Poly.one() - Poly.monomial(6)) ** 3
    assert b.l_failure == {"pi1": {}, "pi2": {}}
    # eps = 0 for both A2 representations: L = 1/P
    assert l_function(b, A2_TORUS, "pi1") == inverse_power(6, 3)
    assert b.correction["pi1"] == CycleProduct()


def _samples():
    for name in ("a2_klein", "a2_torus", "c2_klein_spin", "c2_torus"):
        parsed = load_spec_file(str(ROOT / "samples" / f"{name}.spec"))
        yield build(RootSystem.make(parsed.root_system), parsed.spec)


def test_a_bundle_holds_only_cycle_products():
    # P is a CycleProduct like every zeta and correction factor: a bundle
    # holds no wrapper to unwrap, and its P equals the product of its factors
    quotients = list(_samples()) + [m.build() for m in generate_corpus(7)]
    for q in quotients:
        b = zeta_bundle(q)
        for field in (b.zeta, b.zeta_semi, b.zeta2, b.l_poly, b.correction):
            assert set(field) == set(q.rs.rep_names)
            assert all(isinstance(f, CycleProduct) for f in field.values()), q
        for p in b.l_poly.values():
            assert type(p) is LPolynomial and p == CycleProduct(p.items())


def test_the_walk_period_divides_the_translation_index():
    # the lemma of the census docstring: every walk progression (r, m) has
    # r = 0 or m / 2 and m | det Gamma0, so the walk period M, the lcm of
    # the moduli, divides det Gamma0; and P read off the progressions is
    # the Moebius product of one period of the walk counts.  Corpus seeds
    # 0..11, the benchmark ladder and the samples
    from test_zeta_report import _ladder

    specs = [(m.root_system, m.spec) for seed in range(12) for m in generate_corpus(seed)]
    specs += _ladder()
    quotients = [build(RootSystem.make(rs), spec) for rs, spec in specs] + list(_samples())
    pairs = 0
    for q in quotients:
        for rep in q.rs.rep_names:
            progressions = _walk_progressions(q, rep)[0]
            assert all(2 * r in (0, m) and q._det % m == 0 for r, m in progressions), (q, rep)
            period = lcm(*(m for _, m in progressions))
            assert period <= q.N * len(q.rs.weights(rep)), (q, rep)
            traces = walk_count_table(q, rep, period)
            expected = reference.cycle_product_from_traces(traces, 2)
            assert l_poly(q, rep) == expected, (q, rep)
            pairs += 1
    assert pairs > 1300


def test_the_bundle_tallies_no_walk_counts(monkeypatch):
    # P is read off the walk progressions in closed form, at every order:
    # the bundle asks the census for no count table and tallies nothing
    def refuse(*args):
        raise RuntimeError("the bundle tallied walk counts")

    monkeypatch.setattr(census_mod, "walk_count_table", refuse)
    monkeypatch.setattr(census_mod, "_tally", refuse)
    assert not hasattr(zeta_mod, "walk_count_table") and not hasattr(zeta_mod, "_tally")
    for q in list(_samples()) + [m.build() for m in generate_corpus(7)]:
        assert zeta_bundle(q).l_failure == {rep: {} for rep in q.rs.rep_names}


def test_zeta_bundle_l_func_includes_trivial_weight_factor():
    b = zeta_bundle(C2_TORUS)
    # eps(st) = 1, N = 2: L(st) = (1-u)^{-2} / P = (1-u)^{-10}
    assert l_function(b, C2_TORUS, "st") == inverse_power(2, 10)


def test_zeta_bundle_order_validation():
    with pytest.raises(OrderInsufficientError):
        zeta_bundle(C2_TORUS, order=10)


def test_order_resolution():
    assert resolve_order(C2_TORUS) == 48
    assert resolve_order(C2_TORUS, 24) == 24
    with pytest.raises(OrderInsufficientError):
        resolve_order(C2_TORUS, 23)
    # MAX_ORDER is the order the largest supported C2 torus requires
    edge = build(C2, TorusSpec((12, 0), (0, 24)))
    assert required_order(edge) == resolve_order(edge) == MAX_ORDER
    for q in ALL_QUOTIENTS:
        assert resolve_order(q, MAX_ORDER) == MAX_ORDER
        with pytest.raises(SpecValidationError, match="exceeds the supported maximum"):
            resolve_order(q, MAX_ORDER + 1)


# ---------------------------------------------------------------------------
# metamorphic: the same quotient, presented differently, has the same zeta data
# ---------------------------------------------------------------------------

# a basis of the coroot lattice of each root system
COROOT_BASIS = {"A2": ((1, 1), (3, 0)), "C2": ((1, 1), (2, 0))}

SMALL_KLEIN_SPECS = sorted(
    {
        (member.root_system, member.spec)
        for seed in range(3)
        for member in generate_corpus(seed, 0, 12)
        if member.build().N <= 24
    },
    key=repr,
)


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
    st.integers(0, 7),
)
@settings(deadline=None, max_examples=20)
def test_torus_zeta_data_invariant_under_presentation(rs_name, c1, c2, k, s1, s2, g):
    rs = RootSystem.make(rs_name)
    v1, v2 = _coroot_vector(rs_name, c1), _coroot_vector(rs_name, c2)
    det = v1[0] * v2[1] - v2[0] * v1[1]
    assume(0 < abs(det) <= 18)
    base = zeta_bundle(build(rs, TorusSpec(v1, v2)))
    # basis change (v1 + k v2, v2)
    w1 = (v1[0] + k * v2[0], v1[1] + k * v2[1])
    assert zeta_bundle(build(rs, TorusSpec(w1, v2))) == base
    # sign flips of the generators
    flipped = TorusSpec((s1 * v1[0], s1 * v1[1]), (s2 * v2[0], s2 * v2[1]))
    assert zeta_bundle(build(rs, flipped)) == base
    # a Weyl group element applied to both generators
    w = rs.weyl[g % len(rs.weyl)]
    assert zeta_bundle(build(rs, TorusSpec(mat_vec(w, v1), mat_vec(w, v2)))) == base


@given(st.sampled_from(SMALL_KLEIN_SPECS))
@settings(deadline=None, max_examples=15)
def test_klein_zeta_data_invariant_under_relabeling(item):
    rs_name, spec = item
    rs = RootSystem.make(rs_name)
    base = zeta_bundle(build(rs, spec))
    # negating alpha, beta, a and b flips the sign of k; build relabels back
    (x1, y1), (x2, y2) = spec.alpha, spec.beta
    relabeled = KleinSpec((-x1, -y1), (-x2, -y2), -spec.a, -spec.b, spec.m)
    assert zeta_bundle(build(rs, relabeled)) == base
    # t and its inverse generate the same group with sigma
    inverse_t = KleinSpec(spec.alpha, spec.beta, spec.a, spec.b, -spec.m)
    assert zeta_bundle(build(rs, inverse_t)) == base


@given(st.sampled_from(SMALL_KLEIN_SPECS), st.integers(0, 7))
@settings(deadline=None, max_examples=15)
def test_klein_zeta_data_invariant_under_weyl_conjugation(item, g):
    rs_name, spec = item
    rs = RootSystem.make(rs_name)
    w = rs.weyl[g % len(rs.weyl)]
    conjugate = KleinSpec(
        mat_vec(w, spec.alpha), mat_vec(w, spec.beta), spec.a, spec.b, spec.m
    )
    assert zeta_bundle(build(rs, conjugate)) == zeta_bundle(build(rs, spec))


# ---------------------------------------------------------------------------
# random quotients up to MAX_CLASSES through the battery and the invariances
# ---------------------------------------------------------------------------


# the index of the coroot lattice in Z^2: (x, y) lies in it when x = y
# (mod 3) on A2 and x = y (mod 2) on C2, so (h11, 0) and (c, h22) do when
# the index divides h11 and c = h22 modulo it
COROOT_INDEX = {"A2": 3, "C2": 2}


@st.composite
def large_tori(draw):
    """(root system, triangular basis (h11, 0), (c, h22) of a sublattice of
    the coroot lattice) with det up to MAX_CLASSES."""
    rs_name = draw(st.sampled_from(("A2", "C2")))
    index = COROOT_INDEX[rs_name]
    h11 = index * draw(st.integers(1, MAX_CLASSES // index))
    h22 = draw(st.integers(1, MAX_CLASSES // h11))
    c = h22 % index + index * draw(st.integers(0, (h11 - 1) // index))
    return rs_name, (h11, 0), (c, h22)


@st.composite
def large_kleins(draw):
    """(root system, KleinSpec) drawn as the corpus draws them, with a, b
    and m wide enough to reach det Gamma0 = MAX_CLASSES; build decides."""
    rs_name = draw(st.sampled_from(("A2", "C2")))
    rs = RootSystem.make(rs_name)
    alpha = draw(st.sampled_from(rs.weights(draw(st.sampled_from(rs.rep_names)))))
    comp = rs.weights(rs.complement(rs.rep_of_weight(alpha).name))
    best = max(rs.pairing(alpha, w) for w in comp)
    beta = draw(st.sampled_from([w for w in comp if rs.pairing(alpha, w) == best]))
    a, b = draw(st.integers(-12, 12)), draw(st.integers(-12, 12))
    m = draw(st.integers(-12, 12).filter(bool))
    spec = KleinSpec(alpha, beta, a, b, m)
    try:
        build(rs, spec)
    except SpecValidationError:
        assume(False)
    return rs_name, spec


@given(large_tori(), st.integers(-3, 3), st.integers(-3, 3), st.booleans(), st.integers(0, 7))
@settings(deadline=None, max_examples=50, derandomize=True)
def test_random_tori_up_to_max_classes_verify_and_keep_their_zetas(torus, k1, k2, swap, g):
    rs_name, v1, v2 = torus
    rs = RootSystem.make(rs_name)
    q = build(rs, TorusSpec(v1, v2))
    assert q.N <= MAX_CLASSES and verify(q).all_hold
    base = exponent_dicts(zeta_bundle(q))
    # a unimodular change of basis: (v1 + k1 v2, v2 + k2 (v1 + k1 v2)), swapped
    w1 = (v1[0] + k1 * v2[0], v1[1] + k1 * v2[1])
    w2 = (v2[0] + k2 * w1[0], v2[1] + k2 * w1[1])
    changed = TorusSpec(w2, w1) if swap else TorusSpec(w1, w2)
    assert exponent_dicts(zeta_bundle(build(rs, changed))) == base
    # a Weyl conjugation of both generators
    w = rs.weyl[g % len(rs.weyl)]
    conjugate = TorusSpec(mat_vec(w, v1), mat_vec(w, v2))
    assert exponent_dicts(zeta_bundle(build(rs, conjugate))) == base


@given(large_kleins(), st.integers(0, 7))
@settings(deadline=None, max_examples=50, derandomize=True)
def test_random_kleins_up_to_max_classes_verify_and_keep_their_zetas(klein, g):
    rs_name, spec = klein
    rs = RootSystem.make(rs_name)
    q = build(rs, spec)
    assert q._det <= MAX_CLASSES and verify(q).all_hold
    base = exponent_dicts(zeta_bundle(q))
    (x1, y1), (x2, y2) = spec.alpha, spec.beta
    w = rs.weyl[g % len(rs.weyl)]
    for other in (
        # the relabeling (-alpha, -beta, -a, -b), t -> t**-1, and a Weyl conjugation
        KleinSpec((-x1, -y1), (-x2, -y2), -spec.a, -spec.b, spec.m),
        spec._replace(m=-spec.m),
        spec._replace(alpha=mat_vec(w, spec.alpha), beta=mat_vec(w, spec.beta)),
    ):
        assert exponent_dicts(zeta_bundle(build(rs, other))) == base
