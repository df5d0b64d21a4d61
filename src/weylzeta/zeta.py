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
product prod (1 - w**(step * length))**-1, held as a CycleProduct, and
its reciprocal is an integer polynomial.  The characteristic-polynomial
route through det(I - wT) on the explicit permutation matrix is kept as
a cross-check path; the cycle decomposition is the production path.

The L-polynomial P has one path: its integer coefficients follow from
the closed-walk counts by Newton's identities in u (l_poly_from_counts),
then Moebius inversion of the same counts converts it to a CycleProduct
(l_product_from_counts), checked in integers to expand back to P.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .algebra import (
    CycleProduct,
    IntMatrix,
    NotCycleProduct,
    NotPolynomialWithinBound,
    Poly,
    cycle_product_from_traces,
)
from .census import walk_count_table
from .quotient import MAX_CLASSES, QuotientGroup, SpecValidationError
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

    def zeta(self) -> CycleProduct:
        cycles = Counter(self.step_in_w * ell for ell in self.cycle_lengths())
        return CycleProduct({e: -n for e, n in cycles.items()})


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


def zeta_walks(q: QuotientGroup, rep: str) -> CycleProduct:
    """Cycle product over the closed-geodesic-walk permutation, in u = w**2."""
    return build_walk_system(q, rep).zeta()


def zeta_semi(q: QuotientGroup, rep: str) -> CycleProduct:
    """Cycle product over half-step dynamics; odd w-powers are the
    half-integer lengths of geodesics inert along a glide axis."""
    return build_semi_system(q, rep).zeta()


def zeta_galleries(q: QuotientGroup, rep: str) -> CycleProduct:
    """Cycle product over the alternating gallery dynamics, in u = w**2."""
    return build_gallery_system(q, rep).zeta()


def l_poly_from_counts(counts, bound: int) -> Poly:
    """Reconstruct the L-polynomial P from the closed-walk counts N_1, N_2, ...

    P is the polynomial with P * exp(sum_n N_n u**n / n) = 1, of degree at
    most bound = N * (number of nontrivial weights); the full L-function
    is (1-u)**(-eps*N) / P.  Newton's identities n p_n = -sum_{i<=n} N_i
    p_{n-i} run in integers for every n <= len(counts); the first n with
    p_n nonzero above the bound raises NotPolynomialWithinBound(2n), the
    first with p_n not an integer AssertionError.  At least 2 * bound + 8
    counts are required so the vanishing tail is actually witnessed.
    """
    required = 2 * bound + 8
    if len(counts) < required:
        raise OrderInsufficientError(len(counts), required)
    nonzero = [(i, c) for i, c in enumerate(counts, start=1) if c]
    index = [i for i, _ in nonzero]
    p = [1] + [0] * bound
    for n in range(1, len(counts) + 1):
        # p_j vanishes for bound < j < n, so only N_i with n - bound <= i
        # <= n contribute
        s = 0
        for i, c in nonzero[bisect_left(index, n - bound) : bisect_right(index, n)]:
            s -= c * p[n - i]
        if s and n > bound:
            raise NotPolynomialWithinBound(2 * n)
        pn, r = divmod(s, n)
        if r:
            raise AssertionError("L-polynomial has non-integer coefficients")
        if n <= bound:
            p[n] = pn
    return Poly([x for pj in p for x in (pj, 0)])


def l_product_from_counts(counts, p: Poly) -> CycleProduct:
    """P as a CycleProduct, by Moebius inversion of the counts it came from.

    Raises NotCycleProduct unless every exponent is an integer and the
    product expands back to exactly the integer coefficients of P.
    """
    prod = cycle_product_from_traces(counts, 2)
    if not (p.is_integer() and prod.expands_to(p.to_int_coeffs())):
        raise NotCycleProduct("the product does not expand back to the L-polynomial")
    return prod


def torus_closed_form(q: QuotientGroup, rep: str) -> CycleProduct:
    """prod over weights of (1 - u**deg)**(-N/deg), deg the order of the
    weight in the vertex-class group.  Torus quotients only."""
    if q.kind != "torus":
        raise SpecValidationError("closed form applies to torus quotients only")
    exponents: Counter = Counter()
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
        exponents[2 * deg] -= q.N // deg
    return CycleProduct(exponents)


def axis_factor(w_exponent: int, power: int) -> CycleProduct:
    """((1 + w**e) / (1 - w**e)) ** power, the glide-axis correction block.

    1 + w**e = (1 - w**(2e)) / (1 - w**e).
    """
    return CycleProduct({2 * w_exponent: power, w_exponent: -2 * power})


def correction_factor(q: QuotientGroup, rep: str) -> CycleProduct:
    """((1 + u**(k/n)) / (1 - u**(k/n))) ** (n * delta); 1 for a torus."""
    if q.kind == "torus":
        return CycleProduct()
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


# The largest order any supported quotient requires: that of a C2 torus
# (four nontrivial weights per representation) with MAX_CLASSES classes.
MAX_ORDER = 2 * 4 * MAX_CLASSES + 8


def required_order(q: QuotientGroup) -> int:
    """Smallest u-order at which every reconstruction in the bundle succeeds."""
    return max(2 * q.N * len(q.rs.weights(r)) + 8 for r in q.rs.rep_names)


def resolve_order(q: QuotientGroup, order: Optional[int] = None) -> int:
    """order, or max(required_order(q), 48) when None, checked before any
    count table is allocated: SpecValidationError above MAX_ORDER,
    OrderInsufficientError below required_order(q)."""
    if order is not None and order > MAX_ORDER:
        raise SpecValidationError(
            f"series order {order} exceeds the supported maximum {MAX_ORDER}"
        )
    req = required_order(q)
    if order is None:
        return max(req, 48)
    if order < req:
        raise OrderInsufficientError(order, req)
    return order


def zeta_bundle(q: QuotientGroup, order: Optional[int] = None) -> ZetaBundle:
    order = resolve_order(q, order)
    zeta, semi, gal, lpoly, lfunc, counts, corr = {}, {}, {}, {}, {}, {}, {}
    for rep in q.rs.rep_names:
        zeta[rep] = zeta_walks(q, rep)
        semi[rep] = zeta_semi(q, rep)
        gal[rep] = zeta_galleries(q, rep)
        ns = walk_count_table(q, rep, order).values
        counts[rep] = ns
        p = l_poly_from_counts(ns, q.N * len(q.rs.weights(rep)))
        lpoly[rep] = p
        trivial = CycleProduct({2: q.rs.rep(rep).epsilon * q.N})
        lfunc[rep] = (trivial * l_product_from_counts(ns, p)).inverse()
        corr[rep] = correction_factor(q, rep)
    return ZetaBundle(order, zeta, semi, gal, lpoly, lfunc, counts, corr)
