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

All three are built by one flat-index builder.  The column-reduced
triangular basis (h11, 0), (c, h22) of Gamma0 (of 2 Gamma0 for the half
steps, in doubled coordinates) numbers the classes of the plane as
i + h11 * j, so a step by a fixed vector is a precomputed table: a carry
between rows and a rotation within one.  A state (class, label) has the
integer id index * L + label; for a Klein bottle the glide is a
precomputed permutation of the indices and an orbit is stored as the
smaller id of its two members.

Each step map is a bijection, checked on construction, so every zeta
function is the cycle product prod (1 - w**(step * length))**-1, held as
a CycleProduct, and its reciprocal is an integer polynomial.  The cycle
lengths are computed once per system.  The characteristic-polynomial
route through det(I - wT) on the explicit permutation matrix is kept as
a cross-check path; the cycle decomposition is the production path.

The L-polynomial P has one path (l_poly_from_counts): one Moebius
inversion of the closed-walk counts gives P's factorization
prod (1 - u**d)**a_d, one truncated expansion of it gives P's integer
coefficients and checks the vanishing tail, and a cyclotomic degree check,
which expands nothing, decides whether that product is P itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .algebra import (
    CycleProduct,
    IntMatrix,
    NotCycleProduct,
    NotPolynomialWithinBound,
    Poly,
    _expand,
    _moebius_exponents,
)
from .census import walk_count_table
from .quotient import (
    MAX_CLASSES,
    QuotientGroup,
    SpecValidationError,
    _triangular_basis,
)
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
    """A labeled permutation dynamic whose cycles carry a zeta function.

    successor[k] is the position in states of the successor of states[k];
    the cycle lengths are computed once, on construction.
    """

    kind: str  # walks | semi | galleries
    rep: str
    states: tuple
    successor: tuple
    step_in_w: int

    def __post_init__(self):
        succ = self.successor
        if sorted(succ) != list(range(len(self.states))):
            raise AssertionError(f"{self.kind} transition is not a bijection")
        seen = [False] * len(succ)
        cycles = []
        for start in range(len(succ)):
            n, cur = 0, start
            while not seen[cur]:
                seen[cur] = True
                cur = succ[cur]
                n += 1
            if n:
                cycles.append(n)
        # derived, not a field; a frozen dataclass is set this way
        object.__setattr__(self, "_cycles", sorted(cycles))

    @property
    def size(self) -> int:
        return len(self.states)

    def cycle_lengths(self) -> list:
        return list(self._cycles)

    def closed_paths(self, n: int) -> int:
        """Number of states returning to themselves after n steps."""
        return sum(ell for ell in self._cycles if n % ell == 0)

    def permutation_matrix(self) -> IntMatrix:
        return IntMatrix.from_permutation(self.successor)

    def zeta(self) -> CycleProduct:
        cycles = Counter(self.step_in_w * ell for ell in self._cycles)
        return CycleProduct({e: -n for e, n in cycles.items()})


def _grid(q: QuotientGroup, half: bool = False) -> tuple:
    """Z^2 / Gamma0 (Z^2 / 2 Gamma0 in doubled coordinates when half) as
    (points, index, shifted, sigma): the residue box, the position of a
    point's class in it, index(p + s) for every box point p, and the glide
    as a permutation of the positions (None for a torus)."""
    scale = 2 if half else 1
    h11, c, h22 = (scale * x for x in _triangular_basis(*q.gamma0_basis))

    def index(p: Vec) -> int:
        r, j = divmod(p[1], h22)
        return (p[0] - r * c) % h11 + h11 * j

    def shifted(s: Vec) -> list:
        # row j moves to row j2 with carry r and rotates within it
        out = []
        for j in range(h22):
            r, j2 = divmod(j + s[1], h22)
            rot, base = (s[0] - r * c) % h11, h11 * j2
            out += range(base + rot, base + h11)
            out += range(base, base + rot)
        return out

    points = q.half_residues() if half else q.residues()
    if q.kind == "torus":
        return points, index, shifted, None
    image = q._sigma_half if half else q.sigma.apply
    return points, index, shifted, [index(image(p)) for p in points]


def _transfer_system(
    q: QuotientGroup, kind: str, rep: str, step_in_w: int, labels: tuple, keep=None
) -> TransferSystem:
    """The step (p, l) -> (p + l[0], l rotated by one) on grid classes p
    and labels l (a weight, or a gallery pair that swaps), modulo
    (p, l) ~ (sigma p, sigma l); a step of one power of w is a half step,
    on the doubled grid.  keep(l[0]) masks the points paired with l."""
    points, _, shifted, sigma = _grid(q, half=step_in_w == 1)
    L = len(labels)
    at = {label: k for k, label in enumerate(labels)}
    size = len(points) * L
    succ = [0] * size  # id -> id of its successor
    canon = list(range(size))  # id -> smallest id of its orbit
    kept = [True] * size
    for k, label in enumerate(labels):
        nk = at[label[1:] + label[:1]]
        succ[k::L] = [i * L + nk for i in shifted(label[0])]
        if sigma is not None:
            sk = at[tuple(mat_vec(q.sigma.linear, w) for w in label)]
            canon[k::L] = [min(i * L + k, j * L + sk) for i, j in enumerate(sigma)]
        if keep is not None:
            kept[k::L] = keep(label[0])
    states = [s for s in range(size) if kept[s] and canon[s] == s]
    number = dict(zip(states, range(len(states))))
    successor = tuple(number[canon[succ[s]]] for s in states)
    return TransferSystem(kind, rep, tuple(states), successor, step_in_w)


def build_walk_system(q: QuotientGroup, rep: str) -> TransferSystem:
    return _transfer_system(q, "walks", rep, 2, tuple((w,) for w in q.rs.weights(rep)))


def build_semi_system(q: QuotientGroup, rep: str) -> TransferSystem:
    def irrational(lam: Vec) -> list:
        # the line through x2 / 2 in direction lam misses the vertex lattice
        rational = ((0, 0), (lam[0] % 2, lam[1] % 2))
        return [(x % 2, y % 2) not in rational for x, y in q.half_residues()]

    labels = tuple((lam,) for lam in q.rs.weights(rep))
    return _transfer_system(q, "semi", rep, 1, labels, irrational)


def build_gallery_system(q: QuotientGroup, rep: str) -> TransferSystem:
    return _transfer_system(q, "galleries", rep, 2, q.rs.gallery_pairs(rep))


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


class LPolynomial(Poly):
    """The L-polynomial P, a polynomial in w, with its cycle product when
    the Moebius product of the counts it came from is exactly P."""

    __slots__ = ("_product",)

    def __init__(self, u_coeffs: list, product: Optional[CycleProduct]):
        w_coeffs = [0] * (2 * len(u_coeffs) - 1)
        w_coeffs[::2] = u_coeffs
        super().__init__(w_coeffs)
        self._product = product

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
    The exponents are taken up to the first that is not an integer, and
    their product is expanded once, truncated at the last d taken.  The
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

    Why the product is P when the degree check passes.  If the product is
    a polynomial of degree at most bound, its series through
    u**len(counts) is itself, so it is the expansion there; the expansion
    vanishes past the bound, so the product is P.  If it is not such a
    polynomial, it is not P, which is one.  The check reads the reduced
    degrees (CycleProduct.is_polynomial_within) and expands nothing.  For
    N_n = 2**n, P = 1 - 2u, but no exponent vanishes, and cycle_product()
    raises NotCycleProduct.
    """
    required = 2 * bound + 8
    if len(counts) < required:
        raise OrderInsufficientError(len(counts), required)
    exponents, bad = _moebius_exponents(counts)
    top = len(counts) if bad is None else bad - 1
    c = _expand(exponents, top)
    for n in range(bound + 1, top + 1):
        if c[n]:
            raise NotPolynomialWithinBound(2 * n)
    if bad is not None:
        if bad > bound:
            raise NotPolynomialWithinBound(2 * bad)
        raise AssertionError("L-polynomial has non-integer coefficients")
    product = CycleProduct({2 * d: a for d, a in exponents.items()})
    exact = product.is_polynomial_within(2 * bound)
    return LPolynomial(c[: bound + 1], product if exact else None)


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
        lfunc[rep] = (trivial * p.cycle_product()).inverse()
        corr[rep] = correction_factor(q, rep)
    return ZetaBundle(order, zeta, semi, gal, lpoly, lfunc, counts, corr)
