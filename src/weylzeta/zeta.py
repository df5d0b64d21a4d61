"""Transfer systems and the zeta / L-function engine.

Three finite dynamical systems sit over each quotient:

* walks: states are orbit classes of (vertex, weight); one step moves the
  vertex by the weight.  One step is one power of u = w**2.
* semi: states are orbit classes of (half-lattice point, weight) whose
  line misses the vertex lattice; one step moves by half a weight and is
  one power of w.
* galleries: states are orbit classes of (vertex, ordered direction
  pair); one step moves by the first direction and swaps the pair.  One
  step is one power of u.

Each step map is a bijection, so every zeta function is the cycle
product prod (1 - w**(step * length))**-1 and its reciprocal is an
integer polynomial.  The characteristic-polynomial route through
det(I - wT) on the explicit permutation matrix is kept as a cross-check
path; the cycle decomposition is the production path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .algebra import (
    IntMatrix,
    Poly,
    RationalFunctionW,
    Series,
    reconstruct_poly_from_series,
    series_exp,
)
from .census import walk_count_table
from .quotient import QuotientGroup, SpecValidationError
from .rootgeom import Vec, mat_vec, vec_add


class OrderInsufficientError(ValueError):
    """A series order is too small for a requested reconstruction."""

    def __init__(self, got, required: int):
        super().__init__(
            f"series order {got} is insufficient: raise order to at least {required}"
        )
        self.required = required


# ---------------------------------------------------------------------------
# transfer systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferSystem:
    """A labeled permutation dynamic whose cycles carry a zeta function."""

    kind: str  # walks | semi | galleries
    rep: str
    states: tuple
    successor: tuple
    step_in_w: int

    def __post_init__(self):
        seen = sorted(self.successor)
        if seen != list(range(len(self.states))):
            raise AssertionError(f"{self.kind} transition is not a bijection")

    @property
    def size(self) -> int:
        return len(self.states)

    def cycle_lengths(self) -> list:
        seen = [False] * len(self.successor)
        out = []
        for start in range(len(self.successor)):
            if seen[start]:
                continue
            n, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = self.successor[cur]
                n += 1
            out.append(n)
        return sorted(out)

    def closed_paths(self, n: int) -> int:
        """Number of states returning to themselves after n steps."""
        return sum(ell for ell in self.cycle_lengths() if n % ell == 0)

    def permutation_matrix(self) -> IntMatrix:
        return IntMatrix.from_permutation(self.successor)

    def zeta(self) -> RationalFunctionW:
        den = Poly.one()
        for ell in self.cycle_lengths():
            den = den * (Poly.one() - Poly.monomial(self.step_in_w * ell))
        return RationalFunctionW(Poly.one(), den, _coprime=True)


def _weight_perm(q: QuotientGroup, wts: tuple) -> tuple:
    """Index permutation of the weight list under the glide's linear part."""
    if q.kind == "torus":
        return tuple(range(len(wts)))
    return tuple(wts.index(mat_vec(q.sigma.linear, w)) for w in wts)


def build_walk_system(q: QuotientGroup, rep: str) -> TransferSystem:
    wts = q.rs.weights(rep)
    perm = _weight_perm(q, wts)

    def canon(x: Vec, i: int):
        a = (q.reduce(x), i)
        if q.kind == "torus":
            return a
        b = (q.reduce(q.sigma.apply(x)), perm[i])
        return a if a <= b else b

    states = sorted({canon(x, i) for x in q.residues() for i in range(len(wts))})
    index = {s: j for j, s in enumerate(states)}
    succ = tuple(
        index[canon(vec_add(x, wts[i]), i)] for (x, i) in states
    )
    return TransferSystem("walks", rep, states, succ, 2)


def build_semi_system(q: QuotientGroup, rep: str) -> TransferSystem:
    wts = q.rs.weights(rep)
    perm = _weight_perm(q, wts)

    def rational(x2: Vec, lam: Vec) -> bool:
        e = (x2[0] % 2, x2[1] % 2)
        return e == (0, 0) or e == (lam[0] % 2, lam[1] % 2)

    def canon(x2: Vec, i: int):
        a = (q.reduce_half(x2), i)
        if q.kind == "torus":
            return a
        b = (q.reduce_half(q._sigma_half(x2)), perm[i])
        return a if a <= b else b

    states = sorted(
        {
            canon(x2, i)
            for x2 in q.half_residues()
            for i in range(len(wts))
            if not rational(x2, wts[i])
        }
    )
    index = {s: j for j, s in enumerate(states)}
    succ = tuple(
        index[canon((x2[0] + wts[i][0], x2[1] + wts[i][1]), i)]
        for (x2, i) in states
    )
    return TransferSystem("semi", rep, states, succ, 1)


def build_gallery_system(q: QuotientGroup, rep: str) -> TransferSystem:
    pairs = q.rs.gallery_pairs(rep)
    wts = sorted({w for p in pairs for w in p})
    perm = _weight_perm(q, tuple(wts))

    def canon(v: Vec, i: int, j: int):
        a = (q.reduce(v), i, j)
        if q.kind == "torus":
            return a
        b = (q.reduce(q.sigma.apply(v)), perm[i], perm[j])
        return a if a <= b else b

    pair_indices = sorted(
        {(wts.index(lam), wts.index(mu)) for lam, mu in pairs}
    )
    states = sorted(
        {canon(v, i, j) for v in q.residues() for (i, j) in pair_indices}
    )
    index = {s: k for k, s in enumerate(states)}
    succ = tuple(
        index[canon(vec_add(v, wts[i]), j, i)] for (v, i, j) in states
    )
    return TransferSystem("galleries", rep, states, succ, 2)


# ---------------------------------------------------------------------------
# zeta functions
# ---------------------------------------------------------------------------


def zeta_walks(q: QuotientGroup, rep: str) -> RationalFunctionW:
    """Cycle product over the closed-geodesic-walk permutation, in u = w**2."""
    return build_walk_system(q, rep).zeta()


def zeta_semi(q: QuotientGroup, rep: str) -> RationalFunctionW:
    """Cycle product over half-step dynamics; odd w-powers are the
    half-integer lengths of geodesics inert along a glide axis."""
    return build_semi_system(q, rep).zeta()


def zeta_galleries(q: QuotientGroup, rep: str) -> RationalFunctionW:
    """Cycle product over the alternating gallery dynamics, in u = w**2."""
    return build_gallery_system(q, rep).zeta()


def l_function(q: QuotientGroup, rep: str, order: int):
    """L-function data from the closed-walk trace series.

    Returns (P, S): S = exp(sum_n N_n u**n / n) truncated at the given
    u-order and P the polynomial with P * S = 1, of degree at most
    N * (number of nontrivial weights).  The trivial-weight factor makes
    the full L-function (1-u)**(-eps*N) / P.

    order must be at least 2 * N * |weights| + 8 so the vanishing of the
    reciprocal tail is actually witnessed.
    """
    wts = q.rs.weights(rep)
    bound = q.N * len(wts)
    required = 2 * bound + 8
    if order < required:
        raise OrderInsufficientError(order, required)
    counts = walk_count_table(q, rep, order).values
    return l_poly_from_counts(counts, bound), exp_of_count_series(counts, order)


def exp_of_count_series(counts, order: int) -> Series:
    """exp(sum_n counts[n-1] u**n / n) as a w-series of order 2*order."""
    coeffs = [Fraction(0)] * (2 * order + 1)
    for n, c in enumerate(counts, start=1):
        if c:
            coeffs[2 * n] = Fraction(c, n)
    return series_exp(Series(coeffs, 2 * order))


def l_poly_from_counts(counts, bound: int) -> Poly:
    """Reconstruct the L-polynomial from a full-order closed-walk count list."""
    s = exp_of_count_series(counts, len(counts))
    p = reconstruct_poly_from_series(s, 2 * bound)
    if not p.is_integer():
        raise AssertionError("L-polynomial has non-integer coefficients")
    if not p.is_even_in_w():
        raise AssertionError("L-polynomial has odd powers of w")
    return p


def torus_closed_form(q: QuotientGroup, rep: str) -> RationalFunctionW:
    """prod over weights of (1 - u**deg)**(-N/deg), deg the order of the
    weight in the vertex-class group.  Torus quotients only."""
    if q.kind != "torus":
        raise SpecValidationError("closed form applies to torus quotients only")
    den = Poly.one()
    for lam in q.rs.weights(rep):
        deg = 1
        step = lam
        while not q.in_translation_subgroup(step):
            deg += 1
            step = vec_add(step, lam)
            if deg > q.N:
                raise AssertionError("weight order exceeds group order")
        if q.N % deg != 0:
            raise AssertionError("weight order does not divide group order")
        den = den * (Poly.one() - Poly.monomial(2 * deg)) ** (q.N // deg)
    return RationalFunctionW(Poly.one(), den, _coprime=True)


def axis_factor(w_exponent: int, power: int) -> RationalFunctionW:
    """((1 + w**e) / (1 - w**e)) ** power, the glide-axis correction block."""
    if power == 0:
        return RationalFunctionW.one()
    num = Poly.one() + Poly.monomial(w_exponent)
    den = Poly.one() - Poly.monomial(w_exponent)
    if power < 0:
        num, den, power = den, num, -power
    return RationalFunctionW(num ** power, den ** power, _coprime=True)


def correction_factor(q: QuotientGroup, rep: str) -> RationalFunctionW:
    """((1 + u**(k/n)) / (1 - u**(k/n))) ** (n * delta); 1 for a torus."""
    if q.kind == "torus":
        return RationalFunctionW.one()
    k, n = q.k_gamma, q.n_gamma
    if k % n != 0:
        raise AssertionError("k is not divisible by n")
    return axis_factor(2 * (k // n), n * q.delta(rep))


# ---------------------------------------------------------------------------
# the full bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZetaBundle:
    """Everything the reporting layer serializes for one quotient."""

    order: int
    zeta: dict
    zeta_semi: dict
    zeta2: dict
    l_poly: dict
    l_func: dict
    walk_counts: dict
    correction: dict

    @property
    def rep_names(self):
        return tuple(self.zeta)


def required_order(q: QuotientGroup) -> int:
    """Smallest u-order at which every reconstruction in the bundle succeeds."""
    return max(2 * q.N * len(q.rs.weights(r)) + 8 for r in q.rs.rep_names)


def zeta_bundle(q: QuotientGroup, order: Optional[int] = None) -> ZetaBundle:
    req = required_order(q)
    if order is None:
        order = max(req, 48)
    if order < req:
        raise OrderInsufficientError(order, req)
    zeta, semi, gal, lpoly, lfunc, counts, corr = {}, {}, {}, {}, {}, {}, {}
    for rep in q.rs.rep_names:
        zeta[rep] = zeta_walks(q, rep)
        semi[rep] = zeta_semi(q, rep)
        gal[rep] = zeta_galleries(q, rep)
        ns = walk_count_table(q, rep, order).values
        counts[rep] = ns
        p = l_poly_from_counts(ns, q.N * len(q.rs.weights(rep)))
        lpoly[rep] = p
        eps = q.rs.rep(rep).epsilon
        trivial = (Poly.one() - Poly.monomial(2)) ** (eps * q.N)
        lfunc[rep] = RationalFunctionW(Poly.one(), trivial * p)
        corr[rep] = correction_factor(q, rep)
    return ZetaBundle(order, zeta, semi, gal, lpoly, lfunc, counts, corr)
