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

All three are built on a grid that each quotient builds once and shares
among its systems (_Grid, kept on the quotient).  The quotient's
triangular basis (h11, 0), (c, h22) of Gamma0 numbers the vertex classes
as i + h11 * j, (i, j) their residue box point, so a step by a fixed
vector is a table: a carry between rows and a rotation within one, built
once per vector.  In doubled coordinates a half-lattice point is
mu + 2x, mu in {0, 1}**2 and x a vertex class, so the half-lattice
classes are four blocks of vertex classes, and a step by lam takes block
mu to block nu, mu + lam = nu + 2 delta, by the table of delta.

So a step never splits a segment, the states of one label in one block:
it maps the whole segment onto one segment by one table.  A system is
therefore a permutation of its few segments, and the tables around each
of its cycles compose, a list index per position, to the first-return
map of the cycle's first segment; only that map is walked, and its
cycles of length m are the system's cycles of length L * m on a segment
cycle of length L.  No state gets an id.  For a Klein bottle the glide,
a permutation of the positions without fixed points and of order two,
comes from the quotient with the representative of each of its pairs;
the grid checks that it maps each block onto one block, the one its
linear part gives (block_images: its translation is even in doubled
coordinates), and reads its block maps.  The glide pairs the segments:
a pair of distinct segments holds the orbits of the earlier one's
positions, and a segment the glide maps onto itself the ranks of the
quotient's representatives of its pairs.

Only the tables depend on q.  The segment permutation, its cycles and
the ops of each cycle's first-return map form the SegmentPlan of the
LabelTable of the rep and kind, made on first use per glide (None for a
torus, else the glide's linear part) and kept on the table, which the
root system keeps.  Tables compose as their vectors add, so each run of
steps between two glide block maps is one table, of the run's summed
vector, and a torus cycle is one table: a build looks up a table per
run, composes it with the glide's block maps, and walks.

Each step map is a bijection, so every zeta function is the cycle
product prod (1 - w**(step * length))**-1, held as a CycleProduct, and
its reciprocal is an integer polynomial.  The cycles are counted once
per system, when it is built, and the bijection is checked: the plan
checks that the segment permutation is one and that the glide maps the
kept segments onto kept segments, and the build that every walk of a
first-return map ends at its own start.  The system keeps only that
product and its size; the tests check it against the explicit successor
walk and det(I - wT) of its permutation matrix (tests/reference.py).

The L-polynomial P has one path (l_poly_from_counts): one Moebius
inversion of the closed-walk counts gives P's factorization
prod (1 - u**d)**a_d, and a cyclotomic degree check, which expands
nothing, decides whether that product is P itself.  A truncated
expansion of its reduced numerator in u runs only for P's coefficients
where they are printed; when the check fails, Newton's identities over
the nonzero coefficients find P or the failing order.  The inversion
peels the exponents in increasing d and pays only for the nonzero
ones, the few cycle lengths of the walk system; the degree check reads
a same-sign product's degree off its exponents and factors each Phi_m
by the primes of m otherwise.

zeta_bundle is the one producer of a quotient's zeta data at one
order: the `zeta` command prints its ZetaBundle and identities.verify
compares it.  A P that is not found is not raised: the bundle records
the failure's detail in l_failure and holds None for P.
"""

from __future__ import annotations

from itertools import accumulate, compress
from math import gcd
from operator import eq
from typing import NamedTuple, Optional, Sequence

from .algebra import (
    CycleProduct,
    NotCycleProduct,
    NotPolynomialWithinBound,
    _moebius_exponents,
)
from .census import walk_count_table
from .quotient import MAX_CLASSES, QuotientGroup, SpecValidationError
from .rootgeom import LabelTable, Vec, block_images


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


class TransferSystem(NamedTuple):
    """The cycle record of a labeled permutation dynamic: its kind and
    representation, its number of states, the power of w of one step,
    and zeta() = prod (1 - w**(step_in_w * length))**-1 over its cycles.
    """

    kind: str  # walks | semi | galleries
    rep: str
    step_in_w: int
    size: int
    product: CycleProduct

    def zeta(self) -> CycleProduct:
        return self.product


class _Grid:
    """The vertex classes of one quotient and the half-lattice classes, as
    four blocks of them, with the tables its transfer systems share.

    * mu_b + 2x (doubled coordinates), mu_b = (b & 1, b >> 1) and x the
      position of a residue box point, is at position b * n + x, the
      order of q.half_residues(); block 0 holds the vertex classes.
    * shifted(s) lists the position of p + s for every box point p: the
      table by which the positions of a block move when mu_b + 2x moves
      to mu_block + 2(x + s) (LabelTable._step).  It is kept by the box
      point of s, so that vectors equal modulo Gamma0 share one table.
    * sigma: the glide as a permutation of the 4n positions (None for a
      torus).  It maps block b onto block image[b], position b * n + x to
      image[b] * n + sig[b][x]; orbit_ranks(b) numbers the glide pairs of
      a block that it maps onto itself.
    """

    def __init__(self, q: QuotientGroup):
        self._h11, self._c, self._h22 = q._triangle
        n = self.n = self._h11 * self._h22
        self._positions = list(range(n))
        self._shifted, self._ranks = {}, {}
        sigma = self.sigma = q._glide
        if sigma is None:
            return
        every = range(4 * n)
        if any(map(eq, sigma, every)) or list(map(sigma.__getitem__, sigma)) != list(every):
            raise AssertionError("the glide is not a fixed-point-free involution of the grid")
        self._lower = q._lower  # the quotient's representatives, one per glide pair
        self.image, self.sig = [], []
        for start in range(0, 4 * n, n):
            image = sigma[start] // n
            sig = [p - image * n for p in sigma[start : start + n]]
            if min(sig) < 0 or max(sig) >= n:
                raise AssertionError("the glide does not map each block onto one block")
            self.image.append(image)
            self.sig.append(sig)
        if self.image != list(block_images(q.sigma.linear)):
            raise AssertionError("the glide's block images disagree with its linear part")

    def shifted(self, s: Vec) -> list:
        h11, c, h22 = self._h11, self._c, self._h22
        r, j = divmod(s[1], h22)
        box = ((s[0] - r * c) % h11, j)
        out = self._shifted.get(box)
        if out is None:
            # each row moves to row j2 with carry r and rotates within it;
            # the slices of positions share its int objects, so a kept
            # table costs one pointer per entry
            i, positions = box[0], self._positions
            out = self._shifted[box] = []
            for row in range(h22):
                r, j2 = divmod(row + j, h22)
                rot, base = (i - r * c) % h11, h11 * j2
                out += positions[base + rot : base + h11]
                out += positions[base : base + rot]
        return out

    def orbit_ranks(self, b: int) -> tuple:
        """(lows, rank) of a block b that the glide maps onto itself: lows
        lists the x of the block whose position the quotient keeps as the
        representative of its glide pair (q._lower), and rank[x] is the
        index in lows of the representative of x's pair; made on first use."""
        out = self._ranks.get(b)
        if out is None:
            n, sig = self.n, self.sig[b]
            lower = self._lower[b * n : b * n + n]
            rank = list(accumulate(lower[: n - 1], initial=0))
            rank = [rank[x] if low else rank[s] for x, s, low in zip(self._positions, sig, lower)]
            out = self._ranks[b] = (list(compress(self._positions, lower)), rank)
        return out


def _grid(q: QuotientGroup) -> _Grid:
    """The grid of q, made on first use and kept on q, so that it dies with q."""
    if q._zeta_grid is None:
        q._zeta_grid = _Grid(q)
    return q._zeta_grid


def _compose(tables: list) -> list:
    """The map x -> tables[-1][... tables[0][x]], tables[0] itself when it
    is the only one."""
    out = tables[0]
    for t in tables[1:]:
        out = list(map(t.__getitem__, out))
    return out


def _count_cycles(perm: list, steps: int, lengths: dict, kind: str) -> None:
    """Add the cycles of perm, a map of range(len(perm)) into itself, to
    lengths (cycle length -> number of cycles), each of length m as one of
    steps * m.  A map whose walk from each unseen point returns to its
    start is a union of disjoint cycles, that is, a bijection."""
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        m, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            m += 1
        if cur != start:
            raise AssertionError(f"{kind} transition is not a bijection")
        lengths[steps * m] = lengths.get(steps * m, 0) + 1


def _transfer_system(q: QuotientGroup, rep: str, table: LabelTable) -> TransferSystem:
    """The step (p, l) -> (p + l[0], l rotated by one) on grid classes p
    and the labels l of table (a weight, or a gallery pair that swaps),
    modulo (p, l) ~ (sigma p, sigma l).  A step of w**2 moves a vertex
    (block 0) by 2 l[0] in doubled coordinates, a step of w a half-lattice
    point by l[0] within the two blocks mu_b not in {0, l[0] mod 2}, which
    it swaps.  The segment permutation, its cycles and the ops of each
    cycle's first-return map come from table.plan of q's glide, which the
    table keeps (see the module docstring); only the tables the ops name,
    the glide's block maps and the ranks of the glide-fixed segments
    depend on q, and only the first-return maps are walked."""
    grid = _grid(q)
    linear = None if grid.sigma is None else q.sigma.linear
    lengths: dict = {}  # cycle length -> number of cycles
    size = 0
    for b, fixed, steps, ops in table.plan(linear).cycles:
        tables = []
        for shift, block in ops:
            tables.append(grid.shifted(shift))
            if block is not None:
                tables.append(grid.sig[block])
        perm = _compose(tables)
        if fixed:
            lows, rank = grid.orbit_ranks(b)
            perm = list(map(rank.__getitem__, map(perm.__getitem__, lows)))
        size += steps * len(perm)
        _count_cycles(perm, steps, lengths, table.kind)
    zeta = CycleProduct({table.scale * m: -c for m, c in lengths.items()})
    return TransferSystem(table.kind, rep, table.scale, size, zeta)


def build_walk_system(q: QuotientGroup, rep: str) -> TransferSystem:
    return _transfer_system(q, rep, q.rs.label_table(rep, "walks"))


def build_semi_system(q: QuotientGroup, rep: str) -> TransferSystem:
    return _transfer_system(q, rep, q.rs.label_table(rep, "semi"))


def build_gallery_system(q: QuotientGroup, rep: str) -> TransferSystem:
    return _transfer_system(q, rep, q.rs.label_table(rep, "galleries"))


# ---------------------------------------------------------------------------
# zeta functions
# ---------------------------------------------------------------------------


class LPolynomial:
    """The L-polynomial P, held by its int u-coefficients (two are equal
    when those are), with its cycle product when the Moebius product of
    the counts it came from is exactly P.  It is built from P's
    u-coefficients, without trailing zeros, or (u_coeffs None) from that
    product alone, whose reduced numerator is expanded in u on first read.
    """

    __slots__ = ("_product", "_u")

    def __init__(self, u_coeffs: Optional[Sequence[int]], product: Optional[CycleProduct]):
        self._product = product
        self._u = u_coeffs

    def u_coeffs(self, memo: Optional[dict] = None) -> Sequence[int]:
        """P's coefficients in u; an expansion is looked up in memo as
        CycleProduct.expanded does."""
        if self._u is None:
            # the product is P: its reduced form is P over 1
            self._u = self._product.expanded(memo)[1]
        return self._u

    @property
    def degree(self) -> int:
        """P's degree in w, read off the product while P is unexpanded."""
        if self._u is None:
            return self._product.degrees()[0]
        return 2 * len(self._u) - 2

    def __eq__(self, other) -> bool:
        key = tuple(self.u_coeffs())
        return isinstance(other, LPolynomial) and key == tuple(other.u_coeffs())

    def __hash__(self):
        return hash(tuple(self.u_coeffs()))

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
    Otherwise Newton's identities n p_n = -sum_{i<=n} N_i p_{n-i} run in
    integers, summed over the nonzero p_j found so far, and stop at the
    first n that fails: p_n nonzero with n > bound raises
    NotPolynomialWithinBound(2n), p_n not an integer with n <= bound
    AssertionError.  If none fails, P is p_0, ..., p_bound, cut after its
    last nonzero coefficient.

    Why the degree check may run first.  The u**n coefficient of
    prod (1 - u**d)**a_d is -a_n plus an integer polynomial in a_1, ...,
    a_{n-1} (the Witt, or necklace, factorization).  So below the first
    non-integer exponent the expansion's coefficients are Newton's p_n, and
    at it p_n is not an integer, hence not zero either.  If the product is
    a polynomial of degree at most bound, its series through
    u**len(counts) is itself, so every p_n is an integer and vanishes
    past the bound: no n fails, and the product is P.  For N_n = 2**n,
    P = 1 - 2u, but no exponent vanishes, the check fails, Newton's
    identities return P, and cycle_product() raises NotCycleProduct.
    """
    required = 2 * bound + 8
    if len(counts) < required:
        raise OrderInsufficientError(len(counts), required)
    exponents, bad = _moebius_exponents(counts)
    if bad is None:
        product = CycleProduct({2 * d: a for d, a in exponents.items()})
        if product.is_polynomial_within(2 * bound):
            return LPolynomial(None, product)
    p, support = [1] + [0] * bound, [0]  # support: the j with p_j != 0
    for n in range(1, len(counts) + 1):
        s = -sum(p[j] * counts[n - j - 1] for j in support)
        if s and n > bound:
            raise NotPolynomialWithinBound(2 * n)
        pn, r = divmod(s, n)
        if r:
            raise AssertionError("L-polynomial has non-integer coefficients")
        if pn:
            p[n] = pn
            support.append(n)
    return LPolynomial(p[: support[-1] + 1], None)


def torus_closed_form(q: QuotientGroup, rep: str) -> CycleProduct:
    """prod over weights of (1 - u**deg)**(-N/deg), deg the order of the
    weight in the vertex-class group.  Torus quotients only."""
    if q.kind != "torus":
        raise SpecValidationError("closed form applies to torus quotients only")
    (a11, a12), (a21, a22) = q._adj
    d = q._det
    exponents: dict = {}
    for x, y in q.rs.weights(rep):
        # n * lam is in Gamma0 exactly when d divides n * adj(lam)
        deg = d // gcd(a11 * x + a12 * y, a21 * x + a22 * y, d)
        exponents[2 * deg] = exponents.get(2 * deg, 0) - q.N // deg
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


class ZetaBundle(NamedTuple):
    """One quotient's zeta data at one order, by representation: the cycle
    products zeta, zeta_semi, zeta2 and correction and the L-polynomials
    l_poly, which the `zeta` command prints, and the closed-walk counts
    walk_counts that P is reconstructed from.  l_failure[rep] is {} when P
    was found; otherwise l_poly[rep] is None and l_failure[rep] holds why:
    {"nonzero_tail_exponent": e} when P has no degree within the bound,
    {"reason": message} when a coefficient is not an integer."""

    order: int
    zeta: dict
    zeta_semi: dict
    zeta2: dict
    l_poly: dict
    l_failure: dict
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
    """The zeta data of q at order (resolve_order), the one producer of it:
    the `zeta` command prints it and verify compares it."""
    order = resolve_order(q, order)
    zeta, semi, gal, lpoly, failure, counts, corr = {}, {}, {}, {}, {}, {}, {}
    for rep in q.rs.rep_names:
        zeta[rep] = build_walk_system(q, rep).zeta()
        semi[rep] = build_semi_system(q, rep).zeta()
        gal[rep] = build_gallery_system(q, rep).zeta()
        ns = counts[rep] = walk_count_table(q, rep, order)
        lpoly[rep], failure[rep] = None, {}
        try:
            lpoly[rep] = l_poly_from_counts(ns, q.N * len(q.rs.weights(rep)))
        except NotPolynomialWithinBound as exc:
            failure[rep] = {"nonzero_tail_exponent": exc.exponent}
        except AssertionError as exc:
            failure[rep] = {"reason": str(exc)}
        corr[rep] = correction_factor(q, rep)
    return ZetaBundle(order, zeta, semi, gal, lpoly, failure, counts, corr)
