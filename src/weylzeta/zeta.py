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

In doubled coordinates a half-lattice point is mu + 2x, mu in {0, 1}**2
and x a vertex class, a point of Z**2 / Gamma0, so the half-lattice
classes are four blocks of vertex classes, and a step by lam takes block
mu to block nu, mu + lam = nu + 2 delta, and translates it by delta.  So
a step never splits a segment, the states of one label in one block: it
maps the whole segment onto one segment by one translation.  A system is
therefore a permutation of its few segments, and the steps around each
of its cycles compose to the first-return map of the cycle's first
segment, whose cycles of length m are the system's cycles of length
L * m on a segment cycle of length L.  For a Klein bottle the glide
takes mu_b + 2x to L mu_b + 2 (L x + t), so it maps block b onto the
block of L mu_b by x -> L x + t + (L mu_b - mu_image[b]) / 2 (its block
map).  It pairs the segments: a pair of distinct segments holds one
orbit per point of the earlier one, a step onto the later one is
followed by the glide's block map, and a segment the glide maps onto
itself holds the n / 2 glide pairs of its n points.

None of this depends on q but the first-return maps.  The segment
permutation, its cycles and the ops of each cycle's first-return map
form the segment plan, a tuple of cycles, of the LabelTable of the rep
and kind (LabelTable.plan), made on first use per glide (None for a
torus, else the glide's linear part) and kept on the table, which the
root system keeps.  Translations compose as their vectors add, so each
run of steps between two glide block maps is one op, of the run's summed
vector, and a torus cycle is one translation.

A first-return map is read by its affine part.  A build composes each
cycle's ops as an AffineMap f of Z**2 / Gamma0 and counts its cycles by
one order (_order) and at most one fixed-point count (_fixed_points),
both read off the triangular basis (h11, 0), (c, h22) of Gamma0:

* a translation of order m has n / m cycles, each of length m;
* f x = L x + v squares to the translation by w = L v + v, of order m;
  every cycle has length 2m, except that for m odd the fixed points of
  f**m lie on cycles of length m;
* on a glide-fixed segment f is a translation, of order m, that commutes
  with the block map g; a glide pair closes after m / 2 returns when m
  is even and g f**(m/2) fixes its points, and after m otherwise.

x -> L x + u has det(Lambda) fixed points when u lies in Lambda =
(L - I) Z**2 + Gamma0, and none otherwise.  So no table is made, no
point is visited, and the engine never reads the adjugate of Gamma0's
basis, by which the census encodes it; torus_closed_form reads the
weights' orders through the census's _period.

Each step map is a bijection, so every zeta function is the cycle
product prod (1 - w**(step * length))**-1, held as a CycleProduct, and
its reciprocal is an integer polynomial.  The cycles are counted once
per system, when it is built, and the bijection is checked: the plan
checks that the segment permutation is one and that the glide maps the
kept segments onto kept segments, and the build that the glide's linear
part is a reflection, that a glide-fixed segment returns by a
translation, and that every number of cycles is an integer.  The system
keeps only that product and its size; the tests check it against the
explicit successor walk and det(I - wT) of its permutation matrix
(tests/reference.py).

The L-polynomial P has one path (l_poly_from_counts), and P is always
a cycle product.  The closed-walk counts are a sum of census
progressions, so N_{n+M} = N_n for M = census.walk_period(q, rep), which
divides det Gamma0, and the bundle tallies one period N_1..N_M and no
more.  One Moebius inversion of that period gives P's factorization
prod (1 - u**d)**a_d.  It is P when every a_d is an integer, every
nonzero one has d | M, and a cyclotomic degree check, which expands
nothing, finds a polynomial within the bound; otherwise no P exists, and
Newton's identities over the periodic extension find the failing order
for the failure's detail.  P's coefficients are expanded from its
product in u only where they are printed.  The inversion peels the
exponents in increasing d and pays only for the nonzero ones, the few
cycle lengths of the walk system; the degree check reads a same-sign
product's degree off its exponents and factors each Phi_m by the primes
of m otherwise.

zeta_bundle is the one producer of a quotient's zeta data at one
order: the `zeta` command prints its ZetaBundle and identities.verify
compares it.  A P that is not found is not raised: the bundle records
the failure's detail in l_failure and holds None for P.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional, Sequence

from .algebra import CycleProduct, NotPolynomialWithinBound, _moebius_exponents
from .census import _period, walk_count_table, walk_period
from .quotient import (
    MAX_CLASSES,
    AffineMap,
    QuotientGroup,
    SpecValidationError,
    _in_lattice,
    _mirror,
)
from .rootgeom import IDENTITY, LabelTable, Vec, mat_det, mat_mul, mat_vec, vec_add, vec_scale


class OrderInsufficientError(ValueError):
    """An explicit series order below required_order(q), raised by
    resolve_order.  The order sizes no table: it is checked against
    required_order and MAX_ORDER and reported in the JSON."""

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


def _order(tri: tuple, v: Vec) -> int:
    """The order of v in Z^2 modulo the lattice of triangular basis
    tri = (h11, c, h22): k1 * v meets the second coordinate, k1 = h22 /
    gcd(h22, v[1]), and then the first wants a multiple of k1 * v less the
    k1 * v[1] / h22 rows of (c, h22)."""
    h11, c, h22 = tri
    k1 = h22 // gcd(h22, v[1])
    return k1 * h11 // gcd(h11, k1 * v[0] - k1 * v[1] // h22 * c)


def _fixed_points(mirror: tuple, u: Vec) -> int:
    """The number of fixed points of x -> L x + u on Z^2 / Gamma0, mirror
    the triangular basis of (L - I) Z^2 + Gamma0: a coset of the kernel of
    L - I, of det(mirror) points, when u lies in that lattice, else none."""
    return mirror[0] * mirror[2] if _in_lattice(mirror, u) else 0


def _transfer_system(q: QuotientGroup, rep: str, table: LabelTable) -> TransferSystem:
    """The step (p, l) -> (p + l[0], l rotated by one) on the classes p and
    the labels l of table (a weight, or a gallery pair that swaps), modulo
    (p, l) ~ (sigma p, sigma l).  A step of w**2 moves a vertex (block 0)
    by 2 l[0] in doubled coordinates, a step of w a half-lattice point by
    l[0] within the two blocks mu_b not in {0, l[0] mod 2}, which it swaps.
    The segment cycles and the ops of each one's first-return map come
    from table.plan of q's glide; each first-return map is composed as an
    affine map of Z^2 / Gamma0, and its cycles are read off its affine
    part (see the module docstring)."""
    tri, kind = q._triangle, table.kind
    n = tri[0] * tri[2]
    linear, glides = None, ()
    if q.kind == "klein":
        linear, (t1, t2) = q.sigma
        if mat_det(linear) != -1 or mat_mul(linear, linear) != IDENTITY:
            raise AssertionError("the glide's linear part is not a reflection")
        # sigma takes mu_b + 2x to L mu_b + 2 (L x + t): block b's map
        # adds the carry of L mu_b past its parity block
        lifts = (mat_vec(linear, (b & 1, b >> 1)) for b in range(4))
        glides = [AffineMap(linear, (t1 + (x >> 1), t2 + (y >> 1))) for x, y in lifts]
        mirror = _mirror(tri, linear)
    lengths: dict = {}  # cycle length in steps -> number of cycles

    def add(length: int, points: int, per_cycle: int) -> None:
        cycles, r = divmod(points, per_cycle)
        if r:
            raise AssertionError(f"{kind} transition is not a bijection")
        if cycles:
            lengths[length] = lengths.get(length, 0) + cycles

    size = 0
    for b, fixed, steps, ops in table.plan(linear):
        f = AffineMap.identity()
        for shift, block in ops:
            f = AffineMap(f.linear, vec_add(f.translation, shift))
            if block is not None:
                f = glides[block].compose(f)
        v = f.translation
        if f.linear != IDENTITY:
            if fixed:
                raise AssertionError(f"a glide-fixed {kind} segment does not return by a translation")
            # f x = L x + v: f**2 is the translation by w = L v + v, fixed
            # by L, and f**m x = L x + (m - 1) / 2 w + v for m = ord(w)
            # odd; every point not fixed by f**m has a cycle of 2m
            w = vec_add(mat_vec(f.linear, v), v)
            m = _order(tri, w)
            short = _fixed_points(mirror, vec_add(vec_scale(m // 2, w), v)) if m % 2 else 0
            add(steps * m, short, m)
            add(2 * steps * m, n - short, 2 * m)
        elif not fixed:
            # a translation: every cycle has its order
            m = _order(tri, v)
            add(steps * m, n, m)
        else:
            # the n / 2 glide pairs {x, g x}, g the block map of b, which
            # f commutes with: a pair closes after m steps, or after m / 2
            # when f**(m/2) x = g x, at the fixed points of g f**(m/2)
            m = _order(tri, v)
            short = 0 if m % 2 else _fixed_points(mirror, glides[b].apply(vec_scale(m // 2, v)))
            add(steps * (m // 2), short, m)
            add(steps * m, n - short, 2 * m)
        size += steps * (n // 2 if fixed else n)
    zeta = CycleProduct({table.scale * m: -c for m, c in lengths.items()})
    return TransferSystem(kind, rep, table.scale, size, zeta)


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
    """The L-polynomial P, held by its cycle product.  Two are equal when
    their products are: equal exponent dicts are equal functions, and
    distinct ones distinct functions."""

    __slots__ = ("_product",)

    def __init__(self, product: CycleProduct):
        self._product = product

    def u_coeffs(self, memo: Optional[dict] = None) -> Sequence[int]:
        """P's coefficients in u: its product's reduced numerator (the
        denominator is 1), expanded in u through memo as
        CycleProduct.expanded does."""
        return self._product.expanded(memo)[1]

    @property
    def degree(self) -> int:
        """P's degree in w, read off the product without expanding it."""
        return self._product.degrees()[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, LPolynomial) and self._product == other._product

    def __hash__(self):
        return hash(self._product)

    def cycle_product(self) -> CycleProduct:
        return self._product


def l_poly_from_counts(counts, bound: int) -> LPolynomial:
    """The L-polynomial P of the closed-walk counts, from one period
    N_1, ..., N_M of them (N_{n+M} = N_n for every n).

    P is the polynomial with P * exp(sum_n N_n u**n / n) = 1, of degree at
    most bound = N * (number of nontrivial weights); the full L-function
    is (1-u)**(-eps*N) / P.

    Construction.  Every series 1 + O(u) is a product prod_d (1 - u**d)**a_d,
    here with d * a_d = sum_{d' | d} mu(d / d') N_d' (Moebius inversion),
    taken over the period up to the first a_d that is not an integer.  The
    product is P when every a_d is an integer; every nonzero a_d has d | M,
    which holds exactly when N_n = N_gcd(n, M) for every n, so that the
    product's log series has the counts at every order; and a cyclotomic
    degree check that expands nothing (CycleProduct.is_polynomial_within)
    finds a polynomial of degree at most bound.  P is returned unexpanded.

    Why no other P exists.  The power sums of P's inverse roots are the
    N_n.  If they have period M, every inverse root z has z**M = 1, and an
    integer P is then a product of cyclotomic polynomials Phi_d with d | M,
    whose exponents a_e vanish off the divisors of M.  So when a check
    fails there is no P, and Newton's identities n p_n = -sum_{i<=n} N_i
    p_{n-i} over the periodic extension give the first failing n: p_n
    nonzero with n > bound raises NotPolynomialWithinBound(2n), p_n not an
    integer with n <= bound AssertionError.  That n is at most M + bound:
    a P of degree at most bound whose power sums match a sequence of
    period M through M + bound terms matches it everywhere, as the two
    are sums of at most M + bound distinct geometric sequences.
    """
    period = len(counts)
    exponents, bad = _moebius_exponents(counts)
    if bad is None and all(period % d == 0 for d in exponents):
        product = CycleProduct({2 * d: a for d, a in exponents.items()})
        if product.is_polynomial_within(2 * bound):
            return LPolynomial(product)
    p, support = [1] + [0] * bound, [0]  # support: the j with p_j != 0
    for n in range(1, period + bound + 1):
        s = -sum(p[j] * counts[(n - j - 1) % period] for j in support)
        if s and n > bound:
            raise NotPolynomialWithinBound(2 * n)
        pn, r = divmod(s, n)
        if r:
            raise AssertionError("L-polynomial has non-integer coefficients")
        if pn:
            p[n] = pn
            support.append(n)
    raise AssertionError("Newton's identities found a P that the period check refused")


def torus_closed_form(q: QuotientGroup, rep: str) -> CycleProduct:
    """prod over weights of (1 - u**deg)**(-N/deg), deg the order of the
    weight in the vertex-class group.  Torus quotients only."""
    if q.kind != "torus":
        raise SpecValidationError("closed form applies to torus quotients only")
    exponents: dict = {}
    for lam in q.rs.weights(rep):
        deg = _period(q, lam, q._det)  # the order of lam modulo Gamma0
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
    l_poly, which the `zeta` command prints.  l_failure[rep] is {} when P
    was found; otherwise l_poly[rep] is None and l_failure[rep] holds why:
    {"nonzero_tail_exponent": e} when P has no degree within the bound,
    {"reason": message} when a coefficient is not an integer."""

    order: int
    zeta: dict
    zeta_semi: dict
    zeta2: dict
    l_poly: dict
    l_failure: dict
    correction: dict

    @property
    def rep_names(self):
        return tuple(self.zeta)


# The largest order any supported quotient requires: that of a C2 torus
# (four nontrivial weights per representation) with MAX_CLASSES classes.
MAX_ORDER = 2 * 4 * MAX_CLASSES + 8


def required_order(q: QuotientGroup) -> int:
    """The smallest admissible u-order, 2 * bound + 8 for the largest
    degree bound of P.

    The order sizes no count table: P is read off one period M of the
    counts (l_poly_from_counts), and the census tables that verify
    compares have fixed depths, none above this order; it is reported in
    the JSON.  A witness of P over 2 * bound + 8 counts agrees with the
    period test: every quotient has M | det Gamma0 <= 2N <= bound, so M <=
    bound + 8, and a sequence of period M and the power sums of a P of
    degree at most bound that agree on M + bound <= 2 * bound + 8 terms
    agree at every n."""
    return max(2 * q.N * len(q.rs.weights(r)) + 8 for r in q.rs.rep_names)


def resolve_order(q: QuotientGroup, order: Optional[int] = None) -> int:
    """order, or max(required_order(q), 48) when None, checked before any
    count table is allocated: SpecValidationError above MAX_ORDER,
    OrderInsufficientError below required_order(q).  The order is the
    JSON's order and sizes no count table (required_order)."""
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
    zeta, semi, gal, lpoly, failure, corr = {}, {}, {}, {}, {}, {}
    for rep in q.rs.rep_names:
        zeta[rep] = build_walk_system(q, rep).zeta()
        semi[rep] = build_semi_system(q, rep).zeta()
        gal[rep] = build_gallery_system(q, rep).zeta()
        period = walk_count_table(q, rep, walk_period(q, rep))
        lpoly[rep], failure[rep] = None, {}
        try:
            lpoly[rep] = l_poly_from_counts(period, q.N * len(q.rs.weights(rep)))
        except NotPolynomialWithinBound as exc:
            failure[rep] = {"nonzero_tail_exponent": exc.exponent}
        except AssertionError as exc:
            failure[rep] = {"reason": str(exc)}
        corr[rep] = correction_factor(q, rep)
    return ZetaBundle(order, zeta, semi, gal, lpoly, failure, corr)
