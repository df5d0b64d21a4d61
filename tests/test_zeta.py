"""Transfer systems, zeta functions, L-polynomials, closed forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from weylzeta.algebra import (
    CycleProduct,
    NotCycleProduct,
    NotPolynomialWithinBound,
    Poly,
    Series,
    det_identity_minus_wT,
    series_exp,
    series_log,
)
from weylzeta.census import (
    count_closed_galleries,
    count_geodesic_walks,
    count_semi_closings,
    walk_count_table,
)
from weylzeta.corpus import generate_corpus
from weylzeta.quotient import KleinSpec, SpecValidationError, TorusSpec, build
from weylzeta.rootgeom import RootSystem, mat_vec
from weylzeta.zeta import (
    MAX_ORDER,
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
    zeta_galleries,
    zeta_semi,
    zeta_walks,
)

A2 = RootSystem.a2()
C2 = RootSystem.c2()

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
    num, den = z.num_den()
    return Series.from_poly(num, order) * Series.from_poly(den, order).reciprocal()


def exp_series(counts) -> Series:
    """exp(sum_n counts[n-1] u**n / n) as a w-series of order 2 * len(counts)."""
    coeffs = [Fraction(0)] * (2 * len(counts) + 1)
    for n, c in enumerate(counts, start=1):
        coeffs[2 * n] = Fraction(c, n)
    return series_exp(Series(coeffs, 2 * len(counts)))


def l_poly(q, rep, order):
    """The dense L-polynomial reconstructed from the walk counts up to order."""
    counts = walk_count_table(q, rep, order).values
    return l_poly_from_counts(counts, q.N * len(q.rs.weights(rep)))


# ---------------------------------------------------------------------------
# regression values on the coroot-lattice quotients
# ---------------------------------------------------------------------------


def test_walk_zetas_on_coroot_tori():
    assert zeta_walks(A2_TORUS, "pi1") == inverse_power(6, 3)
    assert zeta_walks(A2_TORUS, "pi2") == inverse_power(6, 3)
    assert zeta_walks(C2_TORUS, "spin") == inverse_power(4, 4)
    assert zeta_walks(C2_TORUS, "st") == inverse_power(2, 8)


def test_gallery_zetas_on_coroot_tori():
    assert zeta_galleries(A2_TORUS, "pi1") == inverse_power(12, 3)
    assert zeta_galleries(A2_TORUS, "pi2") == inverse_power(12, 3)
    assert zeta_galleries(C2_TORUS, "spin") == inverse_power(4, 8)
    assert zeta_galleries(C2_TORUS, "st") == inverse_power(4, 8)


def test_semi_zetas_equal_walk_zetas_on_tori():
    for q in (A2_TORUS, C2_TORUS):
        for rep in q.rs.rep_names:
            assert zeta_semi(q, rep) == zeta_walks(q, rep)


def test_semi_cycles_even_on_tori():
    for q, rep in ((C2_TORUS, "spin"), (A2_TORUS, "pi2")):
        sys = build_semi_system(q, rep)
        assert all(ell % 2 == 0 for ell in sys.cycle_lengths())


def test_a2_klein_semi_to_walk_ratio():
    # inert axis geodesics contribute the odd-w factor (1+w^3)/(1-w^3)
    ratio = zeta_semi(A2_KLEIN, "pi1") / zeta_walks(A2_KLEIN, "pi1")
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
        assert p == (Poly.one() - Poly.monomial(w_exp)) ** e
        assert p.cycle_product() == CycleProduct({w_exp: e})


def test_l_function_series_is_reciprocal_of_p():
    counts = walk_count_table(A2_TORUS, "pi2", 40).values
    s = exp_series(counts)
    p = l_poly_from_counts(counts, 3 * 3)
    assert s == Series.from_poly(p, s.order).reciprocal()


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
            assert l_poly_from_counts(counts, bound // 2) == Poly(r.coeffs[: bound + 1])


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
    assert p == Poly([1, 0, -2])
    with pytest.raises(NotCycleProduct):
        p.cycle_product()


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
            assert any(x < 0 for x in prod._reduced()[0].values())
        assert prod.num_den() == (p, Poly.one())


def l_outcome(fn, counts, bound):
    """fn's P, or the type of its failure with the exponent of a tail failure."""
    try:
        return fn(counts, bound)
    except (NotPolynomialWithinBound, AssertionError) as exc:
        return type(exc), getattr(exc, "exponent", None)


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


def regular_representation_l_poly(q, rep):
    """Independent oracle for torus L data: the product over weights of
    det(1 - u * translation permutation) on vertex classes."""
    out = Poly.one()
    for lam in q.rs.weights(rep):
        perm = []
        idx = {v: i for i, v in enumerate(q.vertex_reps)}
        for v in q.vertex_reps:
            perm.append(idx[q.canonical_vertex((v[0] + lam[0], v[1] + lam[1]))])
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
            assert p == regular_representation_l_poly(q, rep)


# ---------------------------------------------------------------------------
# closed form and correction factors
# ---------------------------------------------------------------------------


def test_torus_closed_form_examples():
    assert torus_closed_form(A2_TORUS, "pi1") == inverse_power(6, 3)
    big = build(A2, TorusSpec((3, 0), (0, 3)))
    assert torus_closed_form(big, "pi1") == inverse_power(6, 9)
    assert torus_closed_form(C2_TORUS, "st") == inverse_power(2, 8)


def test_torus_closed_form_rejects_klein():
    with pytest.raises(Exception):
        torus_closed_form(A2_KLEIN, "pi1")


def test_correction_factors():
    assert correction_factor(A2_TORUS, "pi1").is_one
    assert correction_factor(A2_KLEIN, "pi1") == axis_factor(6, 1)
    assert correction_factor(C2_SPIN_KLEIN, "st") == axis_factor(6, 4)
    assert correction_factor(C2_SPIN_KLEIN, "spin").is_one


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
            z = zeta_walks(q, rep)
            logz = series_log(product_series(z, 32))
            for n in range(1, 17):
                expected = Fraction(count_geodesic_walks(q, rep, n), n)
                assert logz.coefficient(2 * n) == expected
                assert logz.coefficient(2 * n - 1) == 0


def test_semi_log_matches_semi_counts():
    for q in (A2_TORUS, A2_KLEIN, C2_SPIN_KLEIN):
        for rep in q.rs.rep_names:
            z = zeta_semi(q, rep)
            logz = series_log(product_series(z, 24))
            for j in range(1, 25):
                assert logz.coefficient(j) == Fraction(
                    count_semi_closings(q, rep, j), j
                )


def test_gallery_log_matches_gallery_counts():
    for q in ALL_QUOTIENTS:
        for rep in q.rs.rep_names:
            z = zeta_galleries(q, rep)
            logz = series_log(product_series(z, 24))
            for n in range(1, 13):
                assert logz.coefficient(2 * n) == Fraction(
                    count_closed_galleries(q, rep, n), n
                )


def test_closed_paths_equal_census():
    for q in (A2_KLEIN, C2_ST_KLEIN):
        for rep in q.rs.rep_names:
            walks = build_walk_system(q, rep)
            for n in range(1, 13):
                assert walks.closed_paths(n) == count_geodesic_walks(q, rep, n)
            gal = build_gallery_system(q, rep)
            for n in range(1, 9):
                assert gal.closed_paths(n) == count_closed_galleries(q, rep, n)
            semi = build_semi_system(q, rep)
            for j in range(1, 13):
                assert semi.closed_paths(j) == count_semi_closings(q, rep, j)


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
                det = det_identity_minus_wT(sys.permutation_matrix())
                spread = [0] * (det.degree * sys.step_in_w + 1)
                spread[:: sys.step_in_w] = det.coeffs
                assert sys.zeta().num_den() == (Poly.one(), Poly(spread))


def test_spin_walk_zeta_is_even_in_u():
    for q in (C2_TORUS, C2_SPIN_KLEIN, C2_ST_KLEIN):
        den = zeta_walks(q, "spin").num_den()[1]
        assert all(i % 4 == 0 for i, c in enumerate(den.coeffs) if c != 0)


def test_type_rep_gallery_zeta_is_even_in_u():
    for q in (C2_SPIN_KLEIN, C2_ST_KLEIN):
        den = zeta_galleries(q, q.type_rep).num_den()[1]
        assert all(i % 4 == 0 for i, c in enumerate(den.coeffs) if c != 0)


def test_reciprocal_zetas_are_integer_with_unit_constant():
    for q in ALL_QUOTIENTS:
        for rep in q.rs.rep_names:
            for z in (zeta_walks(q, rep), zeta_semi(q, rep), zeta_galleries(q, rep)):
                num, den = z.num_den()
                assert num == Poly.one()
                assert den.is_integer()
                assert den.constant_term == 1


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------


def test_zeta_bundle_contents():
    b = zeta_bundle(A2_TORUS)
    assert set(b.zeta) == {"pi1", "pi2"}
    assert b.zeta["pi1"] == inverse_power(6, 3)
    assert b.l_poly["pi1"] == (Poly.one() - Poly.monomial(6)) ** 3
    # eps = 0 for both A2 representations: L = 1/P
    assert b.l_func["pi1"] == inverse_power(6, 3)
    assert b.correction["pi1"].is_one
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
