"""Exact-arithmetic layer: polynomials, series, det(I - wT), cycle products."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from reference import (
    IntMatrix,
    NotCycleProduct,
    Poly,
    Series,
    _mobius_table,
    cycle_product_from_traces,
    det_identity_minus_wT,
    l_poly_in_w,
    num_den,
    progression_counts,
    reduced_by_mobius_table,
    reduced_in_w,
    series_exp,
    series_log,
)
from weylzeta import algebra
from weylzeta.algebra import (
    CycleProduct,
    NotPolynomialWithinBound,
    _divisors,
    _expand,
    _mobius_divisors,
)
from weylzeta.cli import poly_to_json
from weylzeta.zeta import LPolynomial, l_poly_from_counts

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def brute_det(rows):
    """Cofactor-expansion determinant, usable on entries from any ring."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * brute_det(minor)
        signed = term if j % 2 == 0 else -term
        total = signed if total is None else total + signed
    return total


def cycle_lengths_of_permutation(succ):
    seen = [False] * len(succ)
    out = []
    for s in range(len(succ)):
        if seen[s]:
            continue
        n, cur = 0, s
        while not seen[cur]:
            seen[cur] = True
            cur = succ[cur]
            n += 1
        out.append(n)
    return out


def cycle_product_poly(succ):
    p = Poly.one()
    for ell in cycle_lengths_of_permutation(succ):
        p = p * (Poly.one() - Poly.monomial(ell))
    return p


def binomial_inverse_cube_coeffs(order, step):
    """Coefficients of (1 - w**step)**(-3) up to the given order."""
    out = [Fraction(0)] * (order + 1)
    k = 0
    while step * k <= order:
        out[step * k] = Fraction(math.comb(k + 2, 2))
        k += 1
    return out


# ---------------------------------------------------------------------------
# series exp / log
# ---------------------------------------------------------------------------


def test_exp_of_zero_is_one():
    assert series_exp(Series.zero(6)) == Series.one(6)


def test_exp_of_w_matches_taylor():
    s = series_exp(Series([0, 1], 4))
    assert s.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))


def test_exp_of_triple_log_series_is_inverse_cube():
    # exp(3 * sum w^{3k}/k) = (1 - w^3)^{-3}; right side expanded by the
    # binomial series, computed independently from math.comb.
    coeffs = [Fraction(0)] * 10
    for k in (1, 2, 3):
        coeffs[3 * k] = Fraction(3, k)
    got = series_exp(Series(coeffs, 9))
    assert list(got.coeffs) == binomial_inverse_cube_coeffs(9, 3)


def test_exp_rejects_nonzero_constant_term():
    with pytest.raises(ValueError):
        series_exp(Series([1, 1], 4))


def test_log_of_one_is_zero():
    assert series_log(Series.one(5)) == Series.zero(5)


def test_log_of_one_minus_w():
    s = series_log(Series([1, -1], 3))
    assert s.coeffs == (0, -1, Fraction(-1, 2), Fraction(-1, 3))


def test_log_of_inverse_cube_round_trips():
    s = Series(binomial_inverse_cube_coeffs(9, 3), 9)
    logs = series_log(s)
    expected = [Fraction(0)] * 10
    for k in (1, 2, 3):
        expected[3 * k] = Fraction(3, k)
    assert list(logs.coeffs) == expected
    assert series_exp(logs) == s


def test_log_rejects_bad_constant_term():
    with pytest.raises(ValueError):
        series_log(Series([2, 1], 4))


@given(
    st.lists(
        st.fractions(min_value=-8, max_value=8, max_denominator=6),
        min_size=0,
        max_size=9,
    )
)
@settings(deadline=None, max_examples=60)
def test_log_exp_round_trip(tail):
    s = Series([0] + tail, len(tail) + 2)
    assert series_log(series_exp(s)) == s


# ---------------------------------------------------------------------------
# det(I - wT)
# ---------------------------------------------------------------------------


def test_det_one_by_one_identity():
    assert det_identity_minus_wT(IntMatrix.from_rows([[1]])) == Poly([1, -1])


def test_det_three_cycle():
    perm = IntMatrix.from_permutation([1, 2, 0])
    assert det_identity_minus_wT(perm) == Poly([1, 0, 0, -1])


def test_det_rank_one_two_by_two():
    assert det_identity_minus_wT(IntMatrix.from_rows([[1, 1], [1, 1]])) == Poly(
        [1, -2]
    )


def test_det_on_permutations_matches_cycle_product():
    rng = random.Random(20240817)
    for _ in range(100):
        n = rng.randint(1, 64)
        succ = list(range(n))
        rng.shuffle(succ)
        got = det_identity_minus_wT(IntMatrix.from_permutation(succ))
        assert got == cycle_product_poly(succ)


def test_det_top_coefficient_is_signed_determinant():
    rng = random.Random(515)
    for _ in range(60):
        n = rng.randint(1, 8)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        p = det_identity_minus_wT(IntMatrix.from_rows(rows))
        assert p.coefficient(n) == (-1) ** n * brute_det(rows)


def test_det_against_brute_polynomial_determinant():
    # Full coefficient-by-coefficient cross-check of the Berkowitz path:
    # evaluate det(I - wT) by cofactor expansion over the polynomial ring.
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        poly_rows = []
        for i in range(n):
            poly_rows.append(
                [
                    Poly([1 if i == j else 0, -rows[i][j]])
                    for j in range(n)
                ]
            )
        assert det_identity_minus_wT(IntMatrix.from_rows(rows)) == brute_det(
            poly_rows
        )


# ---------------------------------------------------------------------------
# polynomial reconstruction from the count series (Newton's identities)
# ---------------------------------------------------------------------------


def spread(p: Poly) -> Poly:
    """p(u) as a polynomial in w = u**(1/2)."""
    return Poly([x for c in p.coeffs for x in (c, 0)])


def counts_of(p: Poly, order: int) -> list:
    """N_1..N_order with p * exp(sum_n N_n u**n / n) = 1, from series_log."""
    logs = series_log(Series.from_poly(p, order))
    return [-n * logs.coefficient(n) for n in range(1, order + 1)]


def test_reconstruct_geometric():
    # 1/(1 - u) = exp(sum_n u**n / n): N_n = 1, the progression (0, 1)
    assert l_poly_in_w(l_poly_from_counts({(0, 1): 1}, 1)) == spread(Poly([1, -1]))


def test_reconstruct_inverse_cube():
    # (1 - u**3)**(-3) = exp(3 * sum_k u**(3k) / k): N_n = 9 when 3 | n
    expected = (Poly.one() - Poly.monomial(3)) ** 3
    assert l_poly_in_w(l_poly_from_counts({(0, 3): 9}, 9)) == spread(expected)


def test_reconstruct_rejects_exp():
    # P = exp(sum_n u**n / n) = 1/(1 - u) has integer coefficients but no
    # bounded degree: the first one past u**2 sits at w**6
    with pytest.raises(NotPolynomialWithinBound) as exc:
        l_poly_from_counts({(0, 1): -1}, 2)
    assert exc.value.exponent == 6


def test_reconstruct_checks_every_count():
    # N_n = 1 gives 1 - u; 30 more at every 30th count must still be
    # caught
    with pytest.raises(NotPolynomialWithinBound) as exc:
        l_poly_from_counts({(0, 1): 1, (0, 30): 30}, 1)
    assert exc.value.exponent == 60


def test_reconstruct_first_failure_wins():
    # N_n = 1 at odd n starts 1, 0, as P = exp(-u) = 1 - u + u**2/2 - ...
    # does: at n = 2 the coefficient is both nonzero past a bound of 1 and
    # not an integer; the tail is reported
    with pytest.raises(NotPolynomialWithinBound) as exc:
        l_poly_from_counts({(1, 2): 1}, 1)
    assert exc.value.exponent == 4
    with pytest.raises(AssertionError, match="non-integer coefficients"):
        l_poly_from_counts({(1, 2): 1}, 2)


def test_reconstruct_requires_slack():
    # the failing order of a period M lies within M + bound, not always
    # within 2 * bound + 8: these counts of period 20 are those of
    # (1 - u)(1 - u**20), and a witness over 10 counts would take them for
    # 1 - u
    progressions = {(0, 1): 1, (0, 20): 20}
    with pytest.raises(NotPolynomialWithinBound) as exc:
        l_poly_from_counts(progressions, 1)
    assert exc.value.exponent == 40
    counts = progression_counts(progressions, 10)
    assert reference.l_poly_from_counts(counts, 1) == spread(Poly([1, -1]))


def test_reconstruct_round_trips_random_integer_polys():
    # an integer P whose counts are periodic is a product of cyclotomic
    # polynomials: random ones, P built densely from their (1 - u**e)**k_e
    # factors, mixed in sign, and its counts from series_log over one
    # period, the lcm of the indices; they are those of the progressions
    # (0, e) of count e k_e, which give P back
    rng = random.Random(7)
    for _ in range(50):
        phis = {d: rng.randint(1, 2) for d in rng.sample(range(1, 9), rng.randint(0, 2))}
        k: dict = {}
        for d, c in phis.items():
            for s, mu in _mobius_divisors(d):
                k[d // s] = k.get(d // s, 0) + mu * c
        degree = sum(e * x for e, x in k.items())
        series = Series.one(degree + 1)
        for e, x in k.items():
            factor = Series.from_poly(one_minus(e), degree + 1)
            for _ in range(abs(x)):
                series = series * (factor if x > 0 else factor.reciprocal())
        p = Poly(series.coeffs)
        assert p.degree == degree
        progressions = {(0, e): e * x for e, x in k.items()}
        counts = counts_of(p, math.lcm(*phis))
        assert counts == progression_counts(progressions, len(counts))
        assert l_poly_in_w(l_poly_from_counts(progressions, degree)) == spread(p)


@given(st.dictionaries(st.integers(1, 8), st.integers(0, 3), max_size=4))
@settings(deadline=None, max_examples=80)
def test_reconstruct_cycle_products(exponents):
    # P = prod (1 - u**e)**k_e has N_n = sum_{e | n} e * k_e, the
    # progressions (0, e) of count e * k_e
    bound = sum(e * k for e, k in exponents.items())
    progressions = {(0, e): e * k for e, k in exponents.items()}
    p = CycleProduct({2 * e: k for e, k in exponents.items()})
    assert l_poly_in_w(l_poly_from_counts(progressions, bound)) == num_den(p)[0]


# ---------------------------------------------------------------------------
# cycle products
# ---------------------------------------------------------------------------


def one_minus(e: int) -> Poly:
    return Poly.one() - Poly.monomial(e)


def plain_num_den(f: CycleProduct) -> tuple:
    """prod (1 - w**e)**k split by the sign of k, with no cancellation."""
    num, den = Poly.one(), Poly.one()
    for e, k in f.items():
        if k > 0:
            num = num * one_minus(e) ** k
        else:
            den = den * one_minus(e) ** -k
    return num, den


def _poly_divmod(a: Poly, b: Poly) -> tuple:
    """Long division over the rationals (test oracle)."""
    r = [Fraction(c) for c in a.coeffs]
    q = [Fraction(0)] * max(len(r) - b.degree, 1)
    while len(r) - 1 >= b.degree and any(r):
        c = r[-1] / b.coeffs[-1]
        k = len(r) - 1 - b.degree
        q[k] = c
        for i, bc in enumerate(b.coeffs):
            r[i + k] -= c * bc
        r.pop()
    return Poly(q), Poly(r)


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic-free Euclidean gcd over the rationals (test oracle)."""
    while b.coeffs:
        a, b = b, _poly_divmod(a, b)[1]
    return a


def reduced(num: Poly, den: Poly) -> tuple:
    """num/den in lowest terms with den(0) = 1, by the Euclidean algorithm."""
    g = _poly_gcd(num, den)
    num, den = _poly_divmod(num, g)[0], _poly_divmod(den, g)[0]
    c = Fraction(den.coeffs[0])
    return num.scale(1 / c), den.scale(1 / c)


def product_series(f: CycleProduct, order: int) -> Series:
    num, den = num_den(f)
    return Series.from_poly(num, order) * Series.from_poly(den, order).reciprocal()


small_products = st.dictionaries(
    st.integers(1, 8), st.integers(-3, 3), max_size=4
).map(CycleProduct)


def test_ratfunc_cancellation_example():
    f = CycleProduct({2: 1, 1: -1})  # (1-w^2)/(1-w) = 1+w
    assert f == CycleProduct({1: -1}) * CycleProduct({2: 1})
    assert num_den(f) == (Poly([1, 1]), Poly.one())


def test_ratfunc_substitute_doubles_exponents():
    f = CycleProduct({2: -1})  # 1/(1-w^2)
    g = f.substitute(2)
    assert g == CycleProduct({4: -1})
    assert num_den(g) == (Poly.one(), Poly([1, 0, 0, 0, -1]))


def test_ratfunc_negate_variable_swaps_odd_factors():
    f = CycleProduct({4: 1, 2: -2})  # (1+u)/(1-u)
    g = f.negate_u()  # (1-u)/(1+u)
    assert g == f.inverse()
    assert num_den(g) == (Poly([1, 0, -1]), Poly([1, 0, 1]))


def test_ratfunc_negate_u():
    f = CycleProduct({2: -1})  # 1/(1-u)
    g = f.negate_u()  # 1/(1+u)
    assert num_den(g)[1] == Poly([1, 0, 1])
    assert CycleProduct({4: 3}).negate_u() == CycleProduct({4: 3})
    with pytest.raises(ValueError):
        CycleProduct({1: 1}).negate_u()


def test_ratfunc_canonical_constant_normalization():
    # Phi_1 is taken as 1 - w, so both sides of every reduced form start at 1
    for f in (
        CycleProduct({2: 1, 1: -1}),
        CycleProduct({1: 3, 6: -2}),
        CycleProduct({3: -1, 5: 2, 15: 1}),
    ):
        num, den = num_den(f)
        assert num.coefficient(0) == 1 and den.coefficient(0) == 1


def test_ratfunc_denominator_must_not_vanish_at_zero():
    with pytest.raises(ValueError):
        CycleProduct({0: 1})  # 1 - w**0 = 0
    with pytest.raises(ValueError):
        CycleProduct({-2: 1})


def test_ratfunc_series_expansion():
    assert product_series(CycleProduct({1: -1}), 5) == Series([1] * 6, 5)


def test_ratfunc_pow_and_div():
    f = CycleProduct({1: 1}) ** -3
    assert num_den(f) == (Poly.one(), Poly([1, -1]) ** 3)
    assert f / f == CycleProduct()
    assert CycleProduct({3: 2, 1: -1}) ** 0 == CycleProduct()


def test_ratfunc_is_even_in_w():
    assert CycleProduct({2: 1, 4: -1}).is_even_in_w()
    assert not CycleProduct({1: 1}).is_even_in_w()
    # (1+w)(1-w) = 1 - w^2: the odd factors cancel in the dict
    assert (CycleProduct({2: 1, 1: -1}) * CycleProduct({1: 1})).is_even_in_w()


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 3))
@settings(deadline=None, max_examples=40)
def test_ratfunc_product_cancels_shared_cyclotomic(i, j, e):
    f = CycleProduct({i: e}) * CycleProduct({j: -1})
    g = CycleProduct({i: -e})
    prod = f * g
    assert prod == CycleProduct({j: -1})
    assert num_den(prod) == (Poly.one(), one_minus(j))


@given(small_products, small_products, st.integers(0, 2))
@settings(deadline=None, max_examples=150)
def test_cycle_product_equality_is_cross_multiplied_equality(a, b, mode):
    # mode 1 compares a with itself rebuilt through a product and quotient
    if mode == 1:
        b = a * b / b
    (an, ad), (bn, bd) = plain_num_den(a), plain_num_den(b)
    assert (a == b) == (an * bd == bn * ad)


@given(small_products)
@settings(deadline=None, max_examples=150)
def test_cycle_product_dense_edge_is_reduced_plain_product(f):
    assert num_den(f) == reduced(*plain_num_den(f))
    num, den = num_den(f)
    assert f.degrees() == (num.degree, den.degree)
    assert f.is_even_in_w() == (not any(num.coeffs[1::2]) and not any(den.coeffs[1::2]))


@given(small_products, st.integers(1, 3))
@settings(deadline=None, max_examples=80)
def test_cycle_product_substitutions_match_dense(f, m):
    num, den = num_den(f)

    def spread(p: Poly) -> Poly:
        out = [0] * (p.degree * m + 1)
        out[::m] = p.coeffs
        return Poly(out)

    assert num_den(f.substitute(m)) == reduced(spread(num), spread(den))
    g = f.substitute(2)  # a function of u

    def negate_u(p: Poly) -> Poly:
        return Poly([-c if i % 4 == 2 else c for i, c in enumerate(p.coeffs)])

    gn, gd = num_den(g)
    assert num_den(g.negate_u()) == reduced(negate_u(gn), negate_u(gd))


def test_expand_returns_the_exact_coefficient_list():
    # Phi_6 = (1 - w)(1 - w^6) / ((1 - w^2)(1 - w^3)): the divisions lower
    # the degree from 7 to 2, and no zero is left above it
    assert _expand({1: 1, 6: 1, 2: -1, 3: -1}, 2) == [1, -1, 1]
    assert _expand({}, 0) == [1]
    assert _expand({3: 2}, 6) == [1, 0, 0, -2, 0, 0, 1]


@given(small_products)
@settings(deadline=None, max_examples=150)
def test_expand_matches_the_reduced_form(f):
    for part, p in zip(reduced_in_w(f), num_den(f)):
        c = _expand(part, sum(d * x for d, x in part.items()))
        assert c == list(p.coeffs) and c[-1] != 0


def series_power(s: Series, e: int) -> Series:
    """s**e by repeated multiplication, through the reciprocal when e < 0."""
    base = s if e >= 0 else s.reciprocal()
    out = Series.one(s.order)
    for _ in range(abs(e)):
        out = out * base
    return out


@given(
    st.dictionaries(st.integers(1, 8), st.integers(-14, 14), max_size=4),
    st.integers(0, 24),
)
@settings(deadline=None, max_examples=80)
def test_truncated_expand_matches_series_products(factors, top):
    # exponents past top // d take the binomial-series branch
    expected = Series.one(top)
    for d, x in factors.items():
        expected = expected * series_power(Series.from_poly(one_minus(d), top), x)
    assert _expand(factors, top) == list(expected.coeffs)


def test_truncated_expand_handles_huge_exponents():
    # (1 - w)**(2**80) through w**3, one binomial pass per term
    x = 2**80
    assert _expand({1: x}, 3) == [1, -x, x * (x - 1) // 2, -x * (x - 1) * (x - 2) // 6]
    assert _expand({2: -x}, 4) == [1, 0, x, 0, x * (x + 1) // 2]


def test_is_polynomial_within_checks_denominator_and_degree():
    f = CycleProduct({2: 1, 1: -1})  # 1 + w
    assert f.is_polynomial_within(1)
    assert f.is_polynomial_within(5)
    assert not f.is_polynomial_within(0)
    assert not CycleProduct({1: -1}).is_polynomial_within(9)  # 1 / (1 - w)
    assert not CycleProduct({1: 2, 2: -1}).is_polynomial_within(9)  # (1 - w) / (1 + w)
    assert CycleProduct().is_polynomial_within(0)
    # Phi_6 = (1 - w)(1 - w^6) / ((1 - w^2)(1 - w^3)), of degree 2
    phi6 = CycleProduct({1: 1, 6: 1, 2: -1, 3: -1})
    assert phi6.is_polynomial_within(2) and not phi6.is_polynomial_within(1)


def test_poly_int_and_fraction_coefficients_agree():
    a = Poly([1, Fraction(4, 2), Fraction(1, 3), Fraction(0)])
    b = Poly([Fraction(1), 2, Fraction(2, 6)])
    assert a == b and hash(a) == hash(b) and a.coeffs == (1, 2, Fraction(1, 3))
    assert [type(c) for c in a.coeffs] == [int, int, Fraction]
    assert Poly([Fraction(6, 3)]) * Poly([Fraction(1, 2)]) == Poly.one()
    assert type((Poly([Fraction(6, 3)]) * Poly([Fraction(1, 2)])).coeffs[0]) is int
    assert a.coefficient(7) == 0
    # the reference Poly is the tests' only dense class: it equals no
    # coefficient list and no L-polynomial of the package
    c = Poly([Fraction(1), 0, Fraction(-6, 2)])
    p = LPolynomial({2: 1})  # 1 - u
    assert c != [1, 0, -3] and Poly([1, 0, -1]) != p and p != Poly([1, 0, -1])


@given(
    st.dictionaries(st.integers(1, 12), st.integers(-4, 4), max_size=5).map(CycleProduct)
)
@settings(deadline=None, max_examples=150)
def test_package_poly_is_int_only(f):
    # every coefficient list the package builds comes from expanded(): int
    # entries, constant term 1, no trailing zero, shared through the memo
    memo: dict = {}
    v, num, den = f.expanded(memo)
    for c in (num, den):
        assert type(c) is list and [type(x) for x in c] == [int] * len(c)
        assert c[0] == 1 and c[-1] != 0
    assert f.expanded(memo)[1] is num and all(c in (num, den) for c in memo.values())
    # f(u) is reduced in u, so its lists are f's in w
    in_w = algebra.spread(num, v), algebra.spread(den, v)
    g = f.substitute(2)
    assert g.expanded() == (2, *in_w)
    # the JSON edge prints P's list as it is
    if den == [1]:
        p = LPolynomial(g.items())
        assert json.dumps(poly_to_json(p)) == f'{{"coeffs": {json.dumps(in_w[0])}, "var": "u"}}'
        assert p.degree == 2 * len(in_w[0]) - 2


def traces_of(f: CycleProduct, n: int) -> list:
    """N_j = sum over d | j of d * a_d, for f = prod (1 - w**d)**a_d."""
    return [sum(d * a for d, a in f.items() if j % d == 0) for j in range(1, n + 1)]


@given(small_products)
@settings(deadline=None, max_examples=80)
def test_cycle_product_from_traces_round_trips(f):
    assert cycle_product_from_traces(traces_of(f, 8)) == f
    assert cycle_product_from_traces(traces_of(f, 8), 2) == f.substitute(2)


def test_cycle_product_from_traces_matches_exp_series():
    # 1/P = exp(sum N_n w^n / n) for P = (1 - w)(1 - w^3)**2 / (1 - w^2)
    f = CycleProduct({1: 1, 3: 2, 2: -1})
    traces = traces_of(f, 12)
    s = series_exp(Series([0] + [Fraction(t, n) for n, t in enumerate(traces, 1)], 12))
    assert s == product_series(f.inverse(), 12)
    assert cycle_product_from_traces(traces) == f


def test_cycle_product_from_traces_rejects_non_integer_exponent():
    # N_1 = 1, N_2 = 0 gives 2 * a_2 = -1
    with pytest.raises(NotCycleProduct):
        cycle_product_from_traces([1, 0])


def test_cycle_product_dense_edge_matches_sympy():
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    rng = random.Random(4242)
    for _ in range(40):
        f = CycleProduct(
            {rng.randint(1, 12): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
        )
        expr = sympy.Integer(1)
        for e, k in f.items():
            expr *= (1 - w**e) ** k
        num, den = (sympy.Poly(p, w) for p in sympy.fraction(sympy.cancel(expr)))
        if den.eval(0) < 0:
            num, den = -num, -den
        got = tuple(Poly(int(c) for c in reversed(p.all_coeffs())) for p in (num, den))
        assert num_den(f) == got


# ---------------------------------------------------------------------------
# the Moebius kernel against its sieve-based reference
# ---------------------------------------------------------------------------


def test_mobius_divisors_match_the_mobius_table():
    mu = _mobius_table(5000)
    for m in range(1, 5001):
        got = {m // s: sign for s, sign in _mobius_divisors(m)}
        assert got == {d: mu[m // d] for d in _divisors(m) if mu[m // d]}


_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, p))]
# squarefree indices up to 5000 with three to five distinct primes
_MANY_PRIMES = sorted(
    {
        math.prod(c)
        for k in (3, 4, 5)
        for c in itertools.combinations(_PRIMES[:25], k)
        if math.prod(c) <= 5000
    }
)
cyclotomic_indices = st.one_of(
    st.integers(1, 5000),
    st.builds(pow, st.sampled_from(_PRIMES[:8]), st.integers(1, 12)).filter(
        lambda e: e <= 5000
    ),
    st.sampled_from(_MANY_PRIMES),
    st.builds(
        lambda s, q: s * q,
        st.sampled_from(_MANY_PRIMES[:100]),
        st.sampled_from((2, 4, 9, 25)),
    ).filter(lambda e: e <= 5000),
)


@given(st.dictionaries(cyclotomic_indices, st.integers(-3, 3), max_size=5))
@settings(deadline=None, max_examples=150)
def test_reduced_matches_the_mobius_table_reference(exponents):
    f = CycleProduct(exponents)
    got, want = reduced_in_w(f), reduced_by_mobius_table(f)
    for g, r in zip(got, want):
        assert {d: x for d, x in g.items() if x} == {d: x for d, x in r.items() if x}


@given(
    st.dictionaries(cyclotomic_indices, st.integers(1, 3), max_size=5),
    st.sampled_from((1, -1)),
)
@settings(deadline=None, max_examples=150)
def test_same_sign_reduced_form_is_the_product_itself(exponents, sign):
    # nothing splits between num and den: the mu-table reduction gives the
    # exponent dict back, and the degrees are sum e * |k_e|
    f = CycleProduct({e: sign * x for e, x in exponents.items()})
    want = tuple(
        {d: x for d, x in part.items() if x} for part in reduced_by_mobius_table(f)
    )
    k = dict(f.items())
    assert want == ((k, {}) if sign > 0 else ({}, {e: -x for e, x in k.items()}))
    assert reduced_in_w(f) == want
    degree = sum(e * x for e, x in exponents.items())
    assert f.degrees() == ((degree, 0) if sign > 0 else (0, degree))
