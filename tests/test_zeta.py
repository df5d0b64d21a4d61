"""Transfer systems, zeta functions, L-polynomials, closed forms."""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
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
    reduced_in_w,
    series_exp,
    series_log,
)
from weylzeta import algebra
from weylzeta.algebra import (
    CycleProduct,
    NotCycleProduct,
    NotPolynomialWithinBound,
)
from weylzeta.census import walk_count_table
from weylzeta.cli import poly_to_json
from weylzeta.corpus import generate_corpus
from weylzeta.identities import _closed_path_table, _cycles
from weylzeta.quotient import KleinSpec, SpecValidationError, TorusSpec, build
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
    torus_closed_form,
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


def l_poly(q, rep, order):
    """The L-polynomial reconstructed from the walk counts up to order."""
    counts = walk_count_table(q, rep, order).values
    return l_poly_from_counts(counts, q.N * len(q.rs.weights(rep)))


# ---------------------------------------------------------------------------
# regression values on the coroot-lattice quotients
# ---------------------------------------------------------------------------


def test_walk_zetas_on_coroot_tori():
    assert build_walk_system(A2_TORUS, "pi1").zeta() == inverse_power(6, 3)
    assert build_walk_system(A2_TORUS, "pi2").zeta() == inverse_power(6, 3)
    assert build_walk_system(C2_TORUS, "spin").zeta() == inverse_power(4, 4)
    assert build_walk_system(C2_TORUS, "st").zeta() == inverse_power(2, 8)


def test_gallery_zetas_on_coroot_tori():
    assert build_gallery_system(A2_TORUS, "pi1").zeta() == inverse_power(12, 3)
    assert build_gallery_system(A2_TORUS, "pi2").zeta() == inverse_power(12, 3)
    assert build_gallery_system(C2_TORUS, "spin").zeta() == inverse_power(4, 8)
    assert build_gallery_system(C2_TORUS, "st").zeta() == inverse_power(4, 8)


def test_semi_zetas_equal_walk_zetas_on_tori():
    for q in (A2_TORUS, C2_TORUS):
        for rep in q.rs.rep_names:
            assert build_semi_system(q, rep).zeta() == build_walk_system(q, rep).zeta()


def test_semi_cycles_even_on_tori():
    for q, rep in ((C2_TORUS, "spin"), (A2_TORUS, "pi2")):
        sys = build_semi_system(q, rep)
        assert all(ell % 2 == 0 for ell, _ in _cycles(sys.zeta(), sys.step_in_w))


def test_a2_klein_semi_to_walk_ratio():
    # inert axis geodesics contribute the odd-w factor (1+w^3)/(1-w^3)
    ratio = build_semi_system(A2_KLEIN, "pi1").zeta() / build_walk_system(A2_KLEIN, "pi1").zeta()
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
        p = l_poly(q, rep, 48)
        assert l_poly_in_w(p) == (Poly.one() - Poly.monomial(w_exp)) ** e
        assert p.cycle_product() == CycleProduct({w_exp: e})


def test_l_function_series_is_reciprocal_of_p():
    counts = walk_count_table(A2_TORUS, "pi2", 40).values
    s = exp_series(counts)
    p = l_poly_from_counts(counts, 3 * 3)
    assert s == Series.from_poly(l_poly_in_w(p), s.order).reciprocal()


def test_l_poly_matches_the_series_exp_reciprocal_route():
    # the dense reference: exp of the count series, its reciprocal, and a
    # zero tail past the degree bound
    for member in generate_corpus(7, 20, 12):
        q = member.build()
        order = resolve_order(q)
        for rep in q.rs.rep_names:
            counts = walk_count_table(q, rep, order).values
            bound = 2 * q.N * len(q.rs.weights(rep))
            r = exp_series(counts).reciprocal()
            assert not any(r.coeffs[bound + 1 :])
            p = l_poly_from_counts(counts, bound // 2)
            assert l_poly_in_w(p) == Poly(r.coeffs[: bound + 1])


def test_l_function_order_pre_condition():
    with pytest.raises(OrderInsufficientError) as exc:
        l_poly(A2_TORUS, "pi1", 10)
    assert exc.value.required == 2 * 3 * 3 + 8


def test_l_product_checks_the_dense_polynomial():
    # counts that no cycle product has: 2 * a_2 = N_2 - N_1 = -1, so P
    # itself fails at u**2
    with pytest.raises(AssertionError, match="non-integer coefficients"):
        l_poly_from_counts((1, 0) + (0,) * 24, 2)
    # N_n = 2**n belongs to P = 1 - 2u, whose exponents a_d grow like
    # 2**d / d: P is found, but the degree check refuses the product
    # without expanding it
    p = l_poly_from_counts(tuple(2**n for n in range(1, 41)), 1)
    assert l_poly_in_w(p) == Poly([1, 0, -2])
    with pytest.raises(NotCycleProduct):
        p.cycle_product()


def test_l_polynomial_degree_is_read_off_its_product():
    # a P found by the degree check is expanded on first read of its
    # coefficients; its degree before that is the one they give
    for q in ALL_QUOTIENTS:
        for rep in q.rs.rep_names:
            p = l_poly(q, rep, resolve_order(q))
            degree = p.degree
            assert p._u is None
            coeffs = p.u_coeffs()
            assert p.degree == degree == 2 * len(coeffs) - 2 > 0
            assert [type(c) for c in coeffs] == [int] * len(coeffs)
    # a P whose product is not P holds its coefficients from the start
    p = l_poly_from_counts(tuple(2**n for n in range(1, 41)), 1)
    assert p._u is not None and p.degree == 2 * len(p.u_coeffs()) - 2 == 2


def test_l_product_expands_back_past_the_degree_check():
    # The product that comes with P is P: its reduced form is P over 1.
    # The Klein rep's numerator has a negative Moebius exponent,
    # (1 - u**6)**-1 in its reduced form, so the degree check passes a
    # product that is not a plain product of (1 - u**d) factors.
    klein = build(A2, KleinSpec((-1, 0), (0, -1), 0, -3, 2))
    for q, rep in ((A2_TORUS, "pi1"), (klein, "pi1")):
        p = l_poly(q, rep, resolve_order(q))
        prod = p.cycle_product()
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


def perturbations(counts, bound):
    """counts with one entry N_n changed by -1, +1, +n or +bound+1, at n
    below, at and past the bound and at the end."""
    top = len(counts)
    for n in sorted({1, 2, 3, bound // 2, bound, bound + 1, bound + 2, 2 * bound, top}):
        if not 1 <= n <= top:
            continue
        for delta in (-1, 1, n, bound + 1):
            changed = list(counts)
            changed[n - 1] += delta
            yield changed


def test_l_poly_matches_the_newton_recurrence():
    # the value, or the failure and its exponent, of the Newton recurrence
    cases = []
    for member in generate_corpus(7, 20, 12):
        q = member.build()
        order = resolve_order(q)
        for rep in q.rs.rep_names:
            counts = walk_count_table(q, rep, order).values
            bound = q.N * len(q.rs.weights(rep))
            cases.append((counts, bound))
            cases += [(c, bound) for c in perturbations(counts, bound)]
    rng = random.Random(11)
    for _ in range(300):
        bound = rng.randint(0, 5)
        cases.append(([rng.randint(-3, 3) for _ in range(2 * bound + 8)], bound))
    cases += [([2**n for n in range(1, 2 * b + 9)], b) for b in range(6)]
    outcomes = []
    for counts, bound in cases:
        got = l_outcome(l_poly_from_counts, counts, bound)
        assert got == l_outcome(reference.l_poly_from_counts, counts, bound)
        outcomes.append(got if isinstance(got, tuple) else None)
    # every branch is exercised: P, the tail, and a non-integer coefficient
    assert None in outcomes
    assert any(o and o[0] is NotPolynomialWithinBound for o in outcomes)
    assert any(o and o[0] is AssertionError for o in outcomes)


def counts_of(p: list, length: int) -> list:
    """N_1, ..., N_length with P * exp(sum_n N_n u**n / n) = 1 for P = p,
    by Newton's identities solved for N_n."""
    p = p + [0] * (length + 1 - len(p))
    counts = []
    for n in range(1, length + 1):
        counts.append(-n * p[n] - sum(counts[i - 1] * p[n - i] for i in range(1, n)))
    return counts


def test_l_poly_fallback_matches_the_expansion_oracle():
    # random P, some finite cycle products (the degree check returns them)
    # and most not (Newton's identities do), with one count perturbed in
    # half the cases; the value or the failure is that of the full
    # expansion of the Moebius product
    rng = random.Random(29)
    outcomes = []
    for _ in range(1500):
        bound = rng.randint(0, 6)
        length = 2 * bound + 8 + rng.randint(0, 6)
        if rng.random() < 0.3:
            factors = {d: rng.randint(-1, 2) for d in rng.sample(range(1, 5), 2)}
            p = algebra._expand(factors, length)
        else:
            p = [1] + [rng.randint(-3, 3) for _ in range(rng.randint(0, bound + 1))]
        counts = counts_of(p, length)
        if rng.random() < 0.5:
            counts[rng.randrange(length)] += rng.choice((-1, 1, 2, bound + 1))
        got = l_outcome(l_poly_from_counts, counts, bound)
        assert got == l_outcome(reference.l_poly_by_expansion, counts, bound), (counts, bound)
        if isinstance(got, tuple):
            outcomes.append(got[0])
        else:
            outcomes.append(l_poly_from_counts(counts, bound)._product is not None)
    kinds = Counter(outcomes)
    # P with and without its product, a tail failure and a non-integer p_n
    assert all(kinds[k] > 50 for k in (True, False, NotPolynomialWithinBound, AssertionError))


def test_l_poly_of_dense_counts_is_quick():
    # N_n = 2**n: every Moebius exponent is nonzero, the product is not
    # P = 1 - 2u, and Newton's identities find P over two nonzero p_j
    counts = [2**n for n in range(1, 2313)]
    start = time.perf_counter()
    p = l_poly_from_counts(counts, 1152)
    assert time.perf_counter() - start < 1.0
    assert list(p.u_coeffs()) == [1, -2] and p.degree == 2
    assert l_poly_in_w(p) == reference.l_poly_from_counts(counts, 1152)
    with pytest.raises(NotCycleProduct):
        p.cycle_product()


def test_l_polynomial_holds_the_poly_coefficients():
    # P is held by its int u-coefficients; one expanded from its product
    # equals the one given them, with the same hash and JSON bytes
    given = LPolynomial([1, -3, 3, -1], None)
    p = LPolynomial(None, CycleProduct({2: 3}))  # (1 - u)**3
    assert p == given and hash(p) == hash(given) and p != LPolynomial([1, -3, 3], None)
    assert [type(c) for c in p.u_coeffs()] == [int] * 4 and p.degree == 6
    assert json.dumps(poly_to_json(p)) == json.dumps(poly_to_json(given)) == (
        '{"coeffs": [1, -3, 3, -1], "var": "u"}'
    )
    # Newton's identities cut P = 1 - 2u after its last nonzero coefficient
    p = l_poly_from_counts(tuple(2**n for n in range(1, 41)), 3)
    assert list(p.u_coeffs()) == [1, -2] and p == LPolynomial([1, -2], None)


def regular_representation_l_poly(q, rep):
    """Independent oracle for torus L data: the product over weights of
    det(1 - u * translation permutation) on vertex classes."""
    out = Poly.one()
    for lam in q.rs.weights(rep):
        perm = []
        idx = {v: i for i, v in enumerate(q.vertex_reps)}
        for v in q.vertex_reps:
            perm.append(idx[q.reduce((v[0] + lam[0], v[1] + lam[1]))])
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
            p = l_poly(q, rep, 2 * q.N * len(q.rs.weights(rep)) + 8)
            assert l_poly_in_w(p) == regular_representation_l_poly(q, rep)


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
            p = l_poly(q, rep, 2 * q.N * len(q.rs.weights(rep)) + 8)
            assert l_poly_in_w(p) == Poly([x for c in h.coeffs for x in (c, 0)])
    assert kinds["torus"] >= 10 and kinds["klein"] >= 10


# ---------------------------------------------------------------------------
# closed form and correction factors
# ---------------------------------------------------------------------------


def test_torus_closed_form_examples():
    assert torus_closed_form(A2_TORUS, "pi1") == inverse_power(6, 3)
    big = build(A2, TorusSpec((3, 0), (0, 3)))
    assert torus_closed_form(big, "pi1") == inverse_power(6, 9)
    assert torus_closed_form(C2_TORUS, "st") == inverse_power(2, 8)


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
            assert torus_closed_form(q, rep) == CycleProduct(exponents), (q, rep)


def test_torus_closed_form_rejects_klein():
    with pytest.raises(Exception):
        torus_closed_form(A2_KLEIN, "pi1")


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
            z = build_walk_system(q, rep).zeta()
            logz = series_log(product_series(z, 32))
            for n in range(1, 17):
                expected = Fraction(count_geodesic_walks(q, rep, n), n)
                assert logz.coefficient(2 * n) == expected
                assert logz.coefficient(2 * n - 1) == 0


def test_semi_log_matches_semi_counts():
    for q in (A2_TORUS, A2_KLEIN, C2_SPIN_KLEIN):
        for rep in q.rs.rep_names:
            z = build_semi_system(q, rep).zeta()
            logz = series_log(product_series(z, 24))
            for j in range(1, 25):
                assert logz.coefficient(j) == Fraction(
                    count_semi_closings(q, rep, j), j
                )


def test_gallery_log_matches_gallery_counts():
    for q in ALL_QUOTIENTS:
        for rep in q.rs.rep_names:
            z = build_gallery_system(q, rep).zeta()
            logz = series_log(product_series(z, 24))
            for n in range(1, 13):
                assert logz.coefficient(2 * n) == Fraction(
                    count_closed_galleries(q, rep, n), n
                )


def test_closed_paths_equal_census():
    for q in (A2_KLEIN, C2_ST_KLEIN):
        for rep in q.rs.rep_names:
            walks = _closed_path_table(build_walk_system(q, rep).zeta(), 2, 12)
            assert walks == [count_geodesic_walks(q, rep, n) for n in range(1, 13)]
            gal = _closed_path_table(build_gallery_system(q, rep).zeta(), 2, 8)
            assert gal == [count_closed_galleries(q, rep, n) for n in range(1, 9)]
            semi = _closed_path_table(build_semi_system(q, rep).zeta(), 1, 12)
            assert semi == [count_semi_closings(q, rep, j) for j in range(1, 13)]


def test_cycle_zeta_agrees_with_determinant_path():
    # retained cross-check: det(I - wT) on the explicit permutation matrix,
    # then w -> w**step, reproduces the dense reduced cycle product
    for q in (A2_TORUS, A2_KLEIN, C2_SPIN_KLEIN):
        for rep in q.rs.rep_names:
            for sys in (
                build_walk_system(q, rep),
                build_semi_system(q, rep),
                build_gallery_system(q, rep),
            ):
                det = det_identity_minus_wT(IntMatrix.from_permutation(sys.successor))
                spread = [0] * (det.degree * sys.step_in_w + 1)
                spread[:: sys.step_in_w] = det.coeffs
                assert num_den(sys.zeta()) == (Poly.one(), Poly(spread))


def test_spin_walk_zeta_is_even_in_u():
    for q in (C2_TORUS, C2_SPIN_KLEIN, C2_ST_KLEIN):
        den = num_den(build_walk_system(q, "spin").zeta())[1]
        assert all(i % 4 == 0 for i, c in enumerate(den.coeffs) if c != 0)


def test_type_rep_gallery_zeta_is_even_in_u():
    for q in (C2_SPIN_KLEIN, C2_ST_KLEIN):
        den = num_den(build_gallery_system(q, q.type_rep).zeta())[1]
        assert all(i % 4 == 0 for i, c in enumerate(den.coeffs) if c != 0)


def test_reciprocal_zetas_are_integer_with_unit_constant():
    for q in ALL_QUOTIENTS:
        for rep in q.rs.rep_names:
            for z in (build_walk_system(q, rep).zeta(), build_semi_system(q, rep).zeta(), build_gallery_system(q, rep).zeta()):
                num, den = num_den(z)
                assert num == Poly.one()
                assert den.coefficient(0) == 1


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------


def test_zeta_bundle_contents():
    b = zeta_bundle(A2_TORUS)
    assert set(b.zeta) == {"pi1", "pi2"}
    assert b.zeta["pi1"] == inverse_power(6, 3)
    assert l_poly_in_w(b.l_poly["pi1"]) == (Poly.one() - Poly.monomial(6)) ** 3
    # eps = 0 for both A2 representations: L = 1/P
    assert b.l_func["pi1"] == inverse_power(6, 3)
    assert b.correction["pi1"] == CycleProduct()
    assert b.walk_counts["pi1"][2] == 9  # n = 3


def test_zeta_bundle_l_func_includes_trivial_weight_factor():
    b = zeta_bundle(C2_TORUS)
    # eps(st) = 1, N = 2: L(st) = (1-u)^{-2} / P = (1-u)^{-10}
    assert b.l_func["st"] == inverse_power(2, 10)


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
