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

All three are built by one flat-index builder on a grid that each
quotient builds once and shares among its systems (_Grid, kept on the
quotient).  The quotient's triangular basis (h11, 0), (c, h22) of Gamma0
(of 2 Gamma0 for the half steps, in doubled coordinates) numbers the
classes of the plane as i + h11 * j, (i, j) their residue box point,
so a step by a fixed vector is a table: a carry between rows and a
rotation within one, built once per vector.  For a Klein bottle the
glide is a permutation of the positions without fixed points and of
order two, so the lower position of each pair represents its orbit, and
an orbit of states (class, label) is stored as its representative
r * L + label, r the rank of that position among the representatives.
The semi-rationality mask is built once per parity class of the weight.

Each step map is a bijection, so every zeta function is the cycle
product prod (1 - w**(step * length))**-1, held as a CycleProduct, and
its reciprocal is an integer polynomial.  The cycle walk runs once per
system, on construction: it checks the bijection (a range check, and
every walk ends at its own start) and records only that product (the
tests check it against det(I - wT) of the explicit permutation matrix).

The L-polynomial P has one path (l_poly_from_counts): one Moebius
inversion of the closed-walk counts gives P's factorization
prod (1 - u**d)**a_d, and a cyclotomic degree check, which expands
nothing, decides whether that product is P itself.  A truncated
expansion runs only for P's coefficients where they are printed, and
to find the failing order when the check fails.  The inversion peels
the exponents in increasing d and pays only for the nonzero ones, the
few cycle lengths of the walk system; the degree check factors each
Phi_m by the primes of m.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from math import gcd
from typing import Optional

from .algebra import (
    CycleProduct,
    NotCycleProduct,
    NotPolynomialWithinBound,
    Poly,
    _expand,
    _moebius_exponents,
)
from .census import walk_count_table
from .quotient import MAX_CLASSES, QuotientGroup, SpecValidationError
from .rootgeom import Vec, mat_vec


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
    """A labeled permutation dynamic whose cycles carry a zeta function.

    successor[k] is the state that follows state k; the cycle walk runs
    once, on construction, and records the zeta function
    prod (1 - w**(step_in_w * length))**-1 over the cycles.
    """

    kind: str  # walks | semi | galleries
    rep: str
    successor: tuple
    step_in_w: int

    def __post_init__(self):
        # a map into the states whose walk from each unseen state returns to
        # its start is a union of disjoint cycles, that is, a bijection
        succ = self.successor
        if succ and (min(succ) < 0 or max(succ) >= len(succ)):
            raise AssertionError(f"{self.kind} transition is not a bijection")
        seen = [False] * len(succ)
        exponents: Counter = Counter()
        for start in range(len(succ)):
            if seen[start]:
                continue
            n, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = succ[cur]
                n += 1
            if cur != start:
                raise AssertionError(f"{self.kind} transition is not a bijection")
            exponents[self.step_in_w * n] -= 1
        # derived, not a field; a frozen dataclass is set this way
        object.__setattr__(self, "_zeta", CycleProduct(exponents))

    @property
    def size(self) -> int:
        return len(self.successor)

    def zeta(self) -> CycleProduct:
        return self._zeta


class _Grid:
    """Z^2 / Gamma0 of one quotient (Z^2 / 2 Gamma0 in doubled coordinates
    when half) with the tables that every transfer system on it shares.

    * points: the residue box; index(p) is the position of p's class in
      it, and shifted(s) lists index(p + s) for every box point p.
    * sigma: the glide as a permutation of the positions (None for a
      torus).  It is a fixed-point-free involution, so the lower position
      of each pair {i, sigma[i]} represents the orbit; reps lists the
      representing positions in increasing order.
    * moves(s): for each of reps, the orbit of p + s as the rank in reps
      of its representative and whether that representative is the glide
      image of p + s rather than p + s itself; built once per s.
    * irrational(lam): for each of reps, whether the line through it in
      direction lam misses the vertex lattice; built once per parity
      class of lam.
    """

    def __init__(self, q: QuotientGroup, half: bool):
        scale = 2 if half else 1
        self._h11, self._c, self._h22 = (scale * x for x in q._triangle)
        self.points = q.half_residues() if half else q.residues()
        self._positions = list(range(len(self.points)))
        self._moves: dict = {}
        self._irrational: dict = {}
        if q.kind == "torus":
            self.sigma = None
            self.reps = self._positions
            return
        (l11, l12), (l21, l22) = q.sigma.linear
        t1, t2 = (scale * x for x in q.sigma.translation)
        index = self.index
        sigma = [
            index((l11 * x + l12 * y + t1, l21 * x + l22 * y + t2))
            for x, y in self.points
        ]
        if any(j == i or sigma[j] != i for i, j in enumerate(sigma)):
            raise AssertionError("the glide is not a fixed-point-free involution of the grid")
        self.sigma = sigma
        self.reps = [i for i, j in enumerate(sigma) if i < j]
        rank = dict(zip(self.reps, range(len(self.reps))))
        self._orbit = [rank[min(i, j)] for i, j in enumerate(sigma)]

    def index(self, p: Vec) -> int:
        r, j = divmod(p[1], self._h22)
        return (p[0] - r * self._c) % self._h11 + self._h11 * j

    def shifted(self, s: Vec) -> list:
        # row j moves to row j2 with carry r and rotates within it; the
        # slices of positions share its int objects, so a kept table costs
        # one pointer per entry
        h11, c, h22, positions = self._h11, self._c, self._h22, self._positions
        out = []
        for j in range(h22):
            r, j2 = divmod(j + s[1], h22)
            rot, base = (s[0] - r * c) % h11, h11 * j2
            out += positions[base + rot : base + h11]
            out += positions[base : base + rot]
        return out

    def moves(self, s: Vec) -> tuple:
        """(ranks, flipped) for p + s over reps; flipped is None for a torus."""
        out = self._moves.get(s)
        if out is None:
            targets = self.shifted(s)
            if self.sigma is None:
                out = (targets, None)
            else:
                sigma, orbit = self.sigma, self._orbit
                targets = [targets[i] for i in self.reps]
                out = ([orbit[j] for j in targets], [sigma[j] < j for j in targets])
            self._moves[s] = out
        return out

    def irrational(self, lam: Vec) -> list:
        parity = (lam[0] % 2, lam[1] % 2)
        out = self._irrational.get(parity)
        if out is None:
            rational = ((0, 0), parity)
            points = self.points
            out = [(points[i][0] % 2, points[i][1] % 2) not in rational for i in self.reps]
            self._irrational[parity] = out
        return out


def _grid(q: QuotientGroup, half: bool = False) -> _Grid:
    """The grid of q (its doubled grid when half), built on first use and
    kept on q, so that it lives and dies with the quotient."""
    grid = q._zeta_grids.get(half)
    if grid is None:
        grid = q._zeta_grids[half] = _Grid(q, half)
    return grid


def _transfer_system(
    q: QuotientGroup, kind: str, rep: str, step_in_w: int, labels: tuple, semi: bool = False
) -> TransferSystem:
    """The step (p, l) -> (p + l[0], l rotated by one) on grid classes p
    and labels l (a weight, or a gallery pair that swaps), modulo
    (p, l) ~ (sigma p, sigma l); a step of one power of w is a half step,
    on the doubled grid.  A state is the id r * L + l of an orbit's
    representative, r the rank of its point in grid.reps.  semi keeps
    only the states whose line misses the vertex lattice."""
    grid = _grid(q, half=step_in_w == 1)
    L = len(labels)
    at = {label: k for k, label in enumerate(labels)}
    size = len(grid.reps) * L
    succ = [0] * size  # id -> id of its successor
    for k, label in enumerate(labels):
        nk = at[label[1:] + label[:1]]
        ranks, flipped = grid.moves(label[0])
        if flipped is None:
            succ[k::L] = [r * L + nk for r in ranks]
            continue
        # the label of the representative, which is (sigma p, sigma l) when flipped
        both = (nk, at[tuple(mat_vec(q.sigma.linear, w) for w in labels[nk])])
        succ[k::L] = [r * L + both[f] for r, f in zip(ranks, flipped)]
    if not semi:
        return TransferSystem(kind, rep, tuple(succ), step_in_w)
    kept = [True] * size
    for k, label in enumerate(labels):
        kept[k::L] = grid.irrational(label[0])
    number = [-1] * size  # a dropped state stays -1, which fails the bijection check
    for n, s in enumerate(compress(range(size), kept)):
        number[s] = n
    successor = tuple(map(number.__getitem__, compress(succ, kept)))
    return TransferSystem(kind, rep, successor, step_in_w)


def build_walk_system(q: QuotientGroup, rep: str) -> TransferSystem:
    return _transfer_system(q, "walks", rep, 2, tuple((w,) for w in q.rs.weights(rep)))


def build_semi_system(q: QuotientGroup, rep: str) -> TransferSystem:
    labels = tuple((lam,) for lam in q.rs.weights(rep))
    return _transfer_system(q, "semi", rep, 1, labels, semi=True)


def build_gallery_system(q: QuotientGroup, rep: str) -> TransferSystem:
    return _transfer_system(q, "galleries", rep, 2, q.rs.gallery_pairs(rep))


# ---------------------------------------------------------------------------
# zeta functions
# ---------------------------------------------------------------------------


class LPolynomial(Poly):
    """The L-polynomial P, a polynomial in w, with its cycle product when
    the Moebius product of the counts it came from is exactly P.

    It is built from P's int u-coefficients, which interleave with zeros
    in w, or (u_coeffs None) from its product alone, whose reduced form
    gives the degree (in w, like every Poly's) and whose expansion, made
    on first read, gives the coefficients.
    """

    __slots__ = ("_product", "_coeffs")

    def __init__(self, u_coeffs: Optional[list], product: Optional[CycleProduct]):
        self._product = product
        self._coeffs = None if u_coeffs is None else self._in_w(u_coeffs)

    @staticmethod
    def _in_w(u_coeffs: list) -> tuple:
        w_coeffs = [0] * (2 * len(u_coeffs))
        w_coeffs[::2] = u_coeffs
        return Poly(w_coeffs).coeffs

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            # the product is P, so its series truncated at P's degree is P
            factors = {e // 2: x for e, x in self._product.items()}
            self._coeffs = self._in_w(_expand(factors, self.degree // 2))
        return self._coeffs

    @property
    def degree(self) -> int:
        if self._coeffs is None:
            return self._product.degrees()[0]
        return len(self._coeffs) - 1

    def cycle_product(self) -> CycleProduct:
        """P as a CycleProduct; NotCycleProduct when the counts' product is not P."""
        if self._product is None:
            raise NotCycleProduct(
                "the Moebius product of the counts is not a polynomial within the bound"
            )
        return self._product


def l_poly_from_counts(counts, bound: int) -> LPolynomial:
    """Reconstruct the L-polynomial P from the closed-walk counts N_1, N_2, ...

    P is the polynomial with P * exp(sum_n N_n u**n / n) = 1, of degree at
    most bound = N * (number of nontrivial weights); the full L-function
    is (1-u)**(-eps*N) / P.  At least 2 * bound + 8 counts are required so
    the vanishing tail is actually witnessed.

    Construction.  Every series 1 + O(u) is a product prod_d (1 - u**d)**a_d,
    here with d * a_d = sum_{d' | d} mu(d / d') N_d' (Moebius inversion).
    The exponents are taken up to the first that is not an integer.  If
    every one is, and a cyclotomic degree check that expands nothing
    (CycleProduct.is_polynomial_within) finds the product a polynomial of
    degree at most bound, the product is P, returned unexpanded.
    Otherwise it is expanded once, truncated at the last d taken.  The
    first n > bound with a nonzero coefficient raises
    NotPolynomialWithinBound(2n).  Otherwise the first non-integer a_n, if
    any, raises NotPolynomialWithinBound(2n) when n > bound and
    AssertionError when n <= bound.

    Why this is the failure of Newton's identities n p_n = -sum_{i<=n} N_i
    p_{n-i}, which check each n in turn for p_n nonzero past the bound,
    then for p_n not an integer.  The u**n coefficient of
    prod (1 - u**d)**a_d is -a_n plus an integer polynomial in a_1, ...,
    a_{n-1} (the Witt, or necklace, factorization).  So below the first
    non-integer exponent the expansion's coefficients are Newton's p_n, and
    at it p_n is not an integer, hence not zero either: the same first n
    fails, in the same way.

    Why the degree check may run first.  If the product is a polynomial
    of degree at most bound, its series through u**len(counts) is itself,
    so it is the expansion there: it vanishes past the bound, no n fails,
    and the product is P.  Otherwise it is not P, which is one, and the
    expansion decides as above.  For N_n = 2**n, P = 1 - 2u, but no
    exponent vanishes, and cycle_product() raises NotCycleProduct.
    """
    required = 2 * bound + 8
    if len(counts) < required:
        raise OrderInsufficientError(len(counts), required)
    exponents, bad = _moebius_exponents(counts)
    if bad is None:
        product = CycleProduct({2 * d: a for d, a in exponents.items()})
        if product.is_polynomial_within(2 * bound):
            return LPolynomial(None, product)
    top = len(counts) if bad is None else bad - 1
    c = _expand(exponents, top)
    if any(c[bound + 1 :]):
        n = next(n for n in range(bound + 1, top + 1) if c[n])
        raise NotPolynomialWithinBound(2 * n)
    if bad is not None:
        if bad > bound:
            raise NotPolynomialWithinBound(2 * bad)
        raise AssertionError("L-polynomial has non-integer coefficients")
    return LPolynomial(c[: bound + 1], None)


def torus_closed_form(q: QuotientGroup, rep: str) -> CycleProduct:
    """prod over weights of (1 - u**deg)**(-N/deg), deg the order of the
    weight in the vertex-class group.  Torus quotients only."""
    if q.kind != "torus":
        raise SpecValidationError("closed form applies to torus quotients only")
    (a11, a12), (a21, a22) = q._adj
    d = q._det
    exponents: Counter = Counter()
    for x, y in q.rs.weights(rep):
        # n * lam is in Gamma0 exactly when d divides n * adj(lam)
        deg = d // gcd(a11 * x + a12 * y, a21 * x + a22 * y, d)
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
        zeta[rep] = build_walk_system(q, rep).zeta()
        semi[rep] = build_semi_system(q, rep).zeta()
        gal[rep] = build_gallery_system(q, rep).zeta()
        ns = walk_count_table(q, rep, order).values
        counts[rep] = ns
        p = l_poly_from_counts(ns, q.N * len(q.rs.weights(rep)))
        lpoly[rep] = p
        trivial = CycleProduct({2: q.rs.rep(rep).epsilon * q.N})
        lfunc[rep] = (trivial * p.cycle_product()).inverse()
        corr[rep] = correction_factor(q, rep)
    return ZetaBundle(order, zeta, semi, gal, lpoly, lfunc, counts, corr)
