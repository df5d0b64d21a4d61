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
block image of L mu_b = mu_image + 2 carry by x -> L x + t + carry (its
block map, rootgeom.block_maps).  It pairs the segments: a pair of
distinct segments holds one orbit per point of the earlier one, a step
onto the later one is followed by the glide's block map, and a segment
the glide maps onto itself holds the n / 2 glide pairs of its n points.

None of this depends on q but the first-return maps.  The segment
permutation, its cycles and the ops of each cycle's first-return map
form the segment plan, a tuple of cycles, of the LabelTable of the rep
and kind (LabelTable.plan), made on first use per glide (None for a
torus, else the glide's linear part) and kept on the table, which the
root system keeps.  Translations compose as their vectors add, so each
run of steps between two glide block maps is one op, of the run's summed
vector, and a torus cycle is one translation.

A first-return map is read by its affine part.  A build composes each
cycle's ops into the map f x = L x + v of Z**2 / Gamma0 as a pair of
tuples, (linear part, translation), and counts its cycles by one order
(_order) and at most one fixed-point count (_fixed_points), both read
off the triangular basis (h11, 0), (c, h22) of Gamma0:

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
basis, by which the census encodes it.  Lambda's triangular basis
(quotient._mirror) is derived by a build's first fixed-point count, so
a build that counts none derives none, and the glide's block maps are
the memoized rootgeom.block_maps of its linear part: a Klein build's
own set-up is the four translations t + carry.

Each step map is a bijection, so every zeta function is the cycle
product prod (1 - w**(step * length))**-1, held as a CycleProduct, and
its reciprocal is an integer polynomial.  The cycles are counted once
per system, when it is built, and the bijection is checked: the plan
checks that the glide's linear part is a reflection, that the segment
permutation is one and that the glide maps the kept segments onto kept
segments, and the build that a glide-fixed segment returns by a
translation, and that every number of cycles is an integer.  The system
keeps only that product and its size; the tests check it against the
explicit successor walk and det(I - wT) of its permutation matrix
(tests/reference.py).

The L-polynomial P has one path (l_poly_from_counts), and P is always a
cycle product.  The closed-walk counts are a sum of census progressions
(r, m, c), each with r = 0 or m / 2 (the census module docstring proves
it), and each such progression gives P at most two factors
(1 - u**d)**a_d.  So P's factorization prod (1 - u**d)**a_d is read off
the progressions in closed form (census._divisor_sums, which also gives
verify's count records their exact counts at every length), with no
count table; it is P when every a_d is an integer and a cyclotomic
degree check, which expands nothing, finds a polynomial within the
bound.  Otherwise no P exists, and the same product's expansion names
the failing order for the failure's detail, unless that order lies past
MAX_ORDER, which only a plant reaches.  P's coefficients are expanded
from its product in u only where they are printed.  The degree check
reads a same-sign product's degree off its exponents and factors each
Phi_m by the primes of m otherwise.

zeta_bundle is the one producer of a quotient's zeta data at one
order: the `zeta` command prints its ZetaBundle and identities.verify
compares it.  A P that is not found is not raised: the bundle records
the failure's detail in l_failure and holds None for P.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import NamedTuple, Optional

from .algebra import CycleProduct, NotPolynomialWithinBound, _expand
from .census import _divisor_sums, _walk_progressions
from .quotient import (
    MAX_CLASSES,
    QuotientGroup,
    SpecValidationError,
    _in_lattice,
    _mirror,
)
from .rootgeom import IDENTITY, LabelTable, Vec, block_maps, mat_mul, mat_vec, vec_add, vec_scale


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
    and its zeta, product = prod (1 - w**(step_in_w * length))**-1 over
    its cycles.
    """

    kind: str  # walks | semi | galleries
    rep: str
    step_in_w: int
    size: int
    product: CycleProduct


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
    from table.plan of q's glide, which checks that its linear part is a
    reflection; each first-return map x -> f_lin x + v of Z^2 / Gamma0 is
    composed as a (linear, translation) pair of tuples, (f_lin, v), with
    mat_mul, mat_vec and vec_add, and its cycles are read off that affine
    part (see the module docstring); Lambda's basis is derived by the
    first fixed-point count, at most once per build."""
    tri, kind = q._triangle, table.kind
    n = tri[0] * tri[2]
    linear = q.sigma[0] if q.kind == "klein" else None
    plan = table.plan(linear)
    if linear is not None:
        # block b's map x -> L x + glides[b]
        glides = [vec_add(q.sigma[1], carry) for _, carry in block_maps(linear)]
    mirror = None  # Lambda's basis, derived by the first fixed-point count
    lengths: dict = {}  # cycle length in steps -> number of cycles

    def fixed_points(u: Vec) -> int:
        nonlocal mirror
        if mirror is None:
            mirror = _mirror(tri, linear)
        return _fixed_points(mirror, u)

    def add(length: int, points: int, per_cycle: int) -> None:
        cycles, r = divmod(points, per_cycle)
        if r:
            raise AssertionError(f"{kind} transition is not a bijection")
        if cycles:
            lengths[length] = lengths.get(length, 0) + cycles

    size = 0
    for b, fixed, steps, ops in plan:
        f_lin, v = IDENTITY, (0, 0)
        for shift, block in ops:
            v = vec_add(v, shift)
            if block is not None:
                f_lin, v = mat_mul(linear, f_lin), vec_add(mat_vec(linear, v), glides[block])
        if f_lin != IDENTITY:
            if fixed:
                raise AssertionError(f"a glide-fixed {kind} segment does not return by a translation")
            # f x = L x + v: f**2 is the translation by w = L v + v, fixed
            # by L, and f**m x = L x + (m - 1) / 2 w + v for m = ord(w)
            # odd; every point not fixed by f**m has a cycle of 2m
            w = vec_add(mat_vec(f_lin, v), v)
            m = _order(tri, w)
            short = fixed_points(vec_add(vec_scale(m // 2, w), v)) if m % 2 else 0
            add(steps * m, short, m)
            add(2 * steps * m, n - short, 2 * m)
        elif not fixed:
            # a translation: every cycle has its order
            m = _order(tri, v)
            add(steps * m, n, m)
        else:
            # the n / 2 glide pairs {x, g x}, g the block map of b, which
            # f commutes with: a pair closes after m steps, or after m / 2
            # when f**(m/2) x = g x, at the fixed points of g f**(m/2),
            # x -> L x + L (m / 2) v + glides[b]
            m = _order(tri, v)
            short = 0
            if m % 2 == 0:
                short = fixed_points(vec_add(mat_vec(linear, vec_scale(m // 2, v)), glides[b]))
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


class LPolynomial(CycleProduct):
    """The L-polynomial P: a cycle product that l_poly_from_counts found
    to be a polynomial within its degree bound."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        """P's degree in w, read off the product without expanding it."""
        return self.degrees()[0]


def l_poly_from_counts(progressions, bound: int) -> LPolynomial:
    """The L-polynomial P of the closed-walk counts, given as their census
    progressions {(r, m): c}: N_n is the sum of the c with n = r (mod m),
    and every r is 0 or m / 2 (census module docstring).

    P is the polynomial with P * exp(sum_n N_n u**n / n) = 1, of degree at
    most bound = N * (number of nontrivial weights); the full L-function
    is (1-u)**(-eps*N) / P.

    Construction.  exp(sum_n c [m | n] u**n / n) = (1 - u**m)**(-c/m).
    The census's _divisor_sums gives the s with N_n = sum_{d | n} s[d] at
    every n, so with a_d = s[d] / d the log series of
    prod_d (1 - u**d)**a_d has the counts at every order.  That product
    is P when d divides every s[d] and a cyclotomic degree check that
    expands nothing (CycleProduct.is_polynomial_within) finds a
    polynomial of degree at most bound.  It costs O(number of
    progressions), whatever the moduli, and P is returned unexpanded.  A
    progression with a residue neither 0 nor m / 2 raises AssertionError
    naming it (_divisor_sums).

    Why no other P exists.  The power sums of P's inverse roots are the
    N_n, which have period M, the lcm of the moduli.  Then every inverse
    root z has z**M = 1, and an integer P is a product of cyclotomic
    polynomials Phi_d with d | M, whose exponents a_e vanish off the
    divisors of M; the a_d above are those exponents.  So when a check
    fails there is no P, and the first n at which p_n, the u**n
    coefficient of prod_d (1 - u**d)**(s[d] / d), is nonzero past the
    bound or not an integer raises NotPolynomialWithinBound(2n) when
    n > bound and AssertionError otherwise.  For d0 the least d not
    dividing s[d], the factors with d >= d0 do not reach u**n for n < d0,
    so those p_n are the integers _expand gives from the s[d] // d, and
    p_d0 is an integer less s[d0] / d0; when no key of s lies below d0,
    the expansion to u**(d0 - 1) is 1, and the failure is named at d0
    without expanding anything.  With no d0, n <= M + bound: a P
    of degree at most bound whose power sums match a sequence of period
    M through M + bound terms matches it everywhere, as the two are sums
    of at most M + bound distinct geometric sequences.  Only a planted
    progression reaches this, at a cost of O(d0) or O(M + bound), which
    is checked against MAX_ORDER before anything is expanded: past it an
    AssertionError names the order the expansion would need.  Census
    progressions never reach that check, as M divides det Gamma0 and
    bound + M <= 5 MAX_CLASSES, well below MAX_ORDER.
    """
    s = _divisor_sums(progressions, "walk")
    if all(x % d == 0 for d, x in s.items()):
        product = LPolynomial({2 * d: x // d for d, x in s.items()})
        if product.is_polynomial_within(2 * bound):
            return product
    d0 = min((d for d, x in s.items() if x % d), default=None)
    if d0 is None or d0 > min(s):
        # a factor below d0 (or every factor, with no d0) can reach the
        # orders past the bound: expand them
        top = bound + lcm(*(m for _, m in progressions)) if d0 is None else d0 - 1
        if top > MAX_ORDER:
            raise AssertionError(f"naming P's failure needs an expansion to order {top}, above {MAX_ORDER}")
        p = _expand({d: x // d for d, x in s.items()}, top)
        for n in range(bound + 1, top + 1):
            if p[n]:
                raise NotPolynomialWithinBound(2 * n)
        if d0 is None:
            raise AssertionError("the expansion found a P that the closed form refused")
    if d0 > bound:
        raise NotPolynomialWithinBound(2 * d0)
    raise AssertionError("L-polynomial has non-integer coefficients")


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
    products zeta, zeta_semi, zeta2, correction and l_poly (the
    L-polynomials, each an LPolynomial), which the `zeta` command prints.
    l_failure[rep] is {} when P was found; otherwise l_poly[rep] is None
    and l_failure[rep] holds why: {"nonzero_tail_exponent": e} when P has
    no degree within the bound, {"reason": message} when a coefficient is
    not an integer, a walk progression is off the closed form, or naming
    the failing order would expand past MAX_ORDER (the last two only for
    a plant)."""

    order: int
    zeta: dict
    zeta_semi: dict
    zeta2: dict
    l_poly: dict
    l_failure: dict
    correction: dict


# The largest order any supported quotient requires: that of a C2 torus
# (four nontrivial weights per representation) with MAX_CLASSES classes.
MAX_ORDER = 2 * 4 * MAX_CLASSES + 8


def required_order(q: QuotientGroup) -> int:
    """The smallest admissible u-order, 2 * bound + 8 for the largest
    degree bound of P.

    The order sizes no count table: P is read off the walk progressions
    in closed form (l_poly_from_counts), and verify's count records
    compare the census with the engine exactly at every length, as
    divisor-sum dicts; it is reported in the JSON."""
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
        zeta[rep] = build_walk_system(q, rep).product
        semi[rep] = build_semi_system(q, rep).product
        gal[rep] = build_gallery_system(q, rep).product
        walks = _walk_progressions(q, rep)[0]
        lpoly[rep], failure[rep] = None, {}
        try:
            lpoly[rep] = l_poly_from_counts(walks, q.N * len(q.rs.weights(rep)))
        except NotPolynomialWithinBound as exc:
            failure[rep] = {"nonzero_tail_exponent": exc.exponent}
        except AssertionError as exc:
            failure[rep] = {"reason": str(exc)}
        corr[rep] = correction_factor(q, rep)
    return ZetaBundle(order, zeta, semi, gal, lpoly, failure, corr)
