"""Reference implementations that production does not run.

The package proves every identity in integers: cycle products, the
closed-form census and one closed-form L-path.  The older and more literal
routes live here, and the tests compare the package against them:

* ``Poly``: dense polynomials in w over the rationals, with Fraction
  normalisation, ``one``, ``monomial``, ``+``, ``-``, ``*``, ``**`` and
  ``scale``.  It is the tests' only dense polynomial class: the package
  keeps coefficient lists (``CycleProduct.expanded``), and ``num_den``,
  ``reduced_in_w`` and ``l_poly_in_w`` view its reduced forms and
  L-polynomials in w, as Polys or factor dicts.
* ``ratfunc_compare`` and ``product_poly_compare``: the failure details
  of ``weylzeta.identities`` by dense cross multiplication of the
  ``num_den`` forms, the reference of its merged-factor-dict expansions.
* ``Series``, ``series_exp`` and ``series_log``: power series in w with
  Fraction coefficients, truncated at a fixed order.
* ``IntMatrix`` and ``det_identity_minus_wT``: det(I - wT) of an explicit
  integer matrix by the Berkowitz recursion, the determinant form of a
  transfer system's zeta function.
* ``cycle_product_from_traces``: the cycle product whose logarithm has
  given traces, by Moebius inversion, or ``NotCycleProduct`` when an
  exponent is not an integer.
* ``moebius_exponents_by_primes`` and ``reduced_by_mobius_table``: the
  sieve-based Moebius kernels, one slice pass per prime up to n and a mu
  table up to the largest cyclotomic index.  The first inverts a count
  table, which the package never does: it reads P's exponents off the
  walk progressions.  The second is the reference of
  ``CycleProduct._reduced_form``, which factors each Phi_m by the
  distinct primes of m.
* ``Affine`` and ``glide_map``: affine maps x -> L x + v of the plane
  with composition, inverse and powers, and a quotient's glide sigma or
  t*sigma as one.  The package holds every affine map as a plain
  (linear, translation) pair of tuples and composes none of them this
  way; ``Affine(*q.sigma)`` views q's glide as one, and compares equal
  to the pair.
* ``HalfVec``, ``sigma_half`` and ``canonical_vertex``: half-lattice
  points as doubled coordinates, the glide on them, and a canonical form
  of each orbit (the lexicographically lower of the box points of x and
  of sigma x).
* ``reduce`` and ``reduce_half``: the box point of a class modulo Gamma0,
  and modulo 2 Gamma0 in doubled coordinates, by index arithmetic on the
  triangular basis.  The package names no class by a box point.
* ``residues``, ``half_residues``, ``vertex_reps`` and
  ``half_orbit_reps``: the residue box of Gamma0 and of its double, listed
  point by point from the triangular basis, and the box points that are
  their own canonical form, one per orbit.  The package lists no box
  point: its census sums over the box by arithmetic.
* ``glide_is_free_involution``: a scan of the doubled box for a point the
  glide fixes or does not return to, the reference of the quotient's
  arithmetic check.
* ``carrying_linear`` and ``transporter``: the group element carrying one
  point to another, found by membership of y - x (and, for a Klein
  bottle, of y - sigma x) in the translation subgroup Gamma0.
* ``normalize_generators``: Klein-bottle generators (t, sigma) brought
  to the normal form t*sigma = sigma*t**-1 by solving for the
  perpendicular translation, independently of the package, which builds
  that form directly from (alpha, beta, a, b, m).
* ``count_closed_walks`` and the three other per-length census loops:
  one scan of every (vertex class, weight) pair per length, asking
  ``carrying_linear`` whether the pair closes.  They are the reference
  of the closed-form ``*_count_table`` functions in ``weylzeta.census``
  and share no code with them beyond Gamma0 membership and the glide.
  ``irrational_half`` filters the half-lattice representatives off the
  rational lines point by point, the reference of the census's
  off-rational parity blocks.
* ``l_poly_from_counts``: the L-polynomial by Newton's identities in u,
  one integer recurrence step per count, over a window of at least
  2 * bound + 8 counts; production reads P off the walk progressions in
  closed form, and the failing order, when there is no P, off the
  expansion of the same product.
  ``l_poly_by_expansion`` expands the Moebius product of the window in
  full instead, which fails at the same first order.
* ``progression_counts``: N_1..N_n of a progression set {(r, m): c}, one
  membership test per n and progression, the dense view of what
  production reads P and the count records from.
* ``closed_path_table`` and ``log_compare``: the closed paths of n = 1..n
  steps of a transfer system, tabulated from its zeta's cycles, and the
  first n at which a census table differs from it, compared count by
  count to a fixed depth.  They are the reference of
  ``identities._log_compare``, which compares the two as divisor-sum
  dicts at every length.
* ``ratfunc_to_json``, ``poly_to_json`` and ``zeta_output``: the
  ``zeta`` report built in w, every reduced form by the mu table and
  expanded on its own, then halved to u where only even powers occur.
  Production reduces a same-sign product without the table, expands a
  function of u in u, and each distinct polynomial once per call.
* ``hecke_determinant``: the q = 1 Hecke polynomial
  det(sum_j (-u)**j E_j) of the vertex shifts, by Bareiss at integer
  points and exact interpolation; it equals P on tori and Klein bottles.
* ``PermutationSystem``: a transfer system held by its explicit
  successor list, whose cycle walk checks that the list is a bijection
  and counts the cycles of every state.  The package never lists the
  states or walks: it reads the first-return map of each cycle of
  segments by its affine part.
* The tuple transfer-system builders: every state canonicalized as a
  tuple, the reduced box point (``reduce`` / ``reduce_half``), the label
  and, for a Klein bottle, the lexicographic minimum over the two sheet
  images, with the states sorted and looked up in a dict, returned as a
  ``PermutationSystem``.  They are the reference of the segment-cycle
  builders in ``weylzeta.zeta``.
* ``gallery_pairs`` and ``label_layout``: the gallery pairs and the label
  layout of a transfer system (successor labels, kept parity blocks and
  the glide's label permutation), derived afresh on every call.  They are
  the reference of the tables each ``RootSystem`` keeps.
* ``glide_moves``: the points of a glide's fundamental domain, moved one
  by one by the glide applied m times and tallied by how far they moved.
  It is the reference of the rows of ``census.glide_rows``, which solve
  for the one beta-row a vector can move, and so of the glide line
  counts read off them.
* ``glide_line_scan``: the first glide line count mismatch, found by
  evaluating every vector of the window against both glides' point
  tallies over the whole window d in [-W, W].  It is the reference of
  ``identities._glide_line_scan``, which evaluates only the vectors of
  each beta-row that can mismatch.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from itertools import combinations, zip_longest
from typing import Iterable, NamedTuple, Optional, Sequence, Union

from weylzeta.algebra import (
    CycleProduct,
    NotPolynomialWithinBound,
    _divisors,
    _expand,
    spread,
)
from weylzeta.identities import GLIDE_WINDOW
from weylzeta.quotient import QuotientGroup, _primitive
from weylzeta.rootgeom import (
    IDENTITY,
    Mat,
    RootSystem,
    Vec,
    mat_det,
    mat_mul,
    mat_vec,
    vec_add,
    vec_scale,
    vec_sub,
)
from weylzeta.zeta import OrderInsufficientError


RatLike = Union[int, Fraction]


def _frac(x: RatLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _exact(x: RatLike) -> RatLike:
    """x as an int when it is an integer, else as a Fraction."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


# ---------------------------------------------------------------------------
# Polynomials over the rationals
# ---------------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial in w over the rationals.

    Integer coefficients are held as int, the others as Fraction, so equal
    polynomials have equal coefficient tuples.  Trailing zero
    coefficients are stripped; the zero polynomial stores an empty tuple
    and reports degree -1.  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        c = [_exact(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs: tuple = tuple(c)

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def monomial(cls, exponent: int, coefficient: RatLike = 1) -> "Poly":
        if exponent < 0:
            raise ValueError("negative exponent")
        return cls([0] * exponent + [coefficient])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> RatLike:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def is_even_in_w(self) -> bool:
        return all(c == 0 for c in self.coeffs[1::2])

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __add__(self, other) -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other) -> "Poly":
        return self + (-Poly(other.coeffs))

    def scale(self, c: RatLike) -> "Poly":
        return Poly([x * c for x in self.coeffs])

    def __mul__(self, other):
        """The product with a scalar or a Poly."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, av in enumerate(a):
            if av:
                for j, bv in enumerate(b):
                    if bv:
                        out[i + j] += av * bv
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------

class Series:
    """Power series in w truncated at a fixed order (inclusive).

    Binary arithmetic truncates to the smaller of the two orders.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable[RatLike], order: int):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        c = [_frac(x) for x in coeffs]
        if len(c) < order + 1:
            c.extend([Fraction(0)] * (order + 1 - len(c)))
        self.order = order
        self.coeffs: tuple = tuple(c[: order + 1])

    @classmethod
    def zero(cls, order: int) -> "Series":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls((1,), order)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "Series":
        return cls(p.coeffs, order)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k <= self.order:
            return self.coeffs[k]
        raise IndexError(f"coefficient w^{k} beyond series order {self.order}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series([c * other for c in self.coeffs], self.order)
        k = min(self.order, other.order)
        out = [Fraction(0)] * (k + 1)
        for i, a in enumerate(self.coeffs[: k + 1]):
            if a:
                for j in range(k + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return Series(out, k)

    __rmul__ = __mul__

    def reciprocal(self) -> "Series":
        if self.coeffs[0] != 1:
            raise ValueError("reciprocal requires constant term 1")
        k = self.order
        nz = [(i, c) for i, c in enumerate(self.coeffs) if i >= 1 and c]
        out = [Fraction(0)] * (k + 1)
        out[0] = Fraction(1)
        for n in range(1, k + 1):
            s = Fraction(0)
            for i, c in nz:
                if i > n:
                    break
                if out[n - i]:
                    s += c * out[n - i]
            out[n] = -s
        return Series(out, k)

    def __repr__(self):
        return f"Series(order={self.order}, {[str(c) for c in self.coeffs]})"


def series_exp(s: Series) -> Series:
    """exp of a series with zero constant term, truncated to the same order."""
    if s.coeffs[0] != 0:
        raise ValueError("series_exp requires zero constant term")
    k = s.order
    # g' = f' g  =>  n g_n = sum_{i<=n} i f_i g_{n-i}
    weighted = [(i, i * c) for i, c in enumerate(s.coeffs) if i >= 1 and c]
    g = [Fraction(0)] * (k + 1)
    g[0] = Fraction(1)
    for n in range(1, k + 1):
        acc = Fraction(0)
        for i, ic in weighted:
            if i > n:
                break
            if g[n - i]:
                acc += ic * g[n - i]
        g[n] = acc / n
    return Series(g, k)


def series_log(s: Series) -> Series:
    """log of a series with constant term 1, truncated to the same order."""
    if s.coeffs[0] != 1:
        raise ValueError("series_log requires constant term 1")
    k = s.order
    h = [Fraction(0)] * (k + 1)
    for n in range(1, k + 1):
        acc = Fraction(0)
        # sum_{i=1}^{n-1} i h_i s_{n-i}, iterating over nonzero s terms
        for j in range(1, n):
            c = s.coeffs[j]
            if c:
                i = n - j
                if h[i]:
                    acc += i * h[i] * c
        h[n] = s.coeffs[n] - acc / n
    return Series(h, k)


# ---------------------------------------------------------------------------
# Integer matrices and det(I - wT)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix with arbitrary-precision integer entries, row-major."""

    dim: int
    entries: tuple

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        if len(self.entries) != self.dim or any(
            len(row) != self.dim for row in self.entries
        ):
            raise ValueError("entries must form a square dim x dim matrix")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        return cls(len(rows), tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def from_permutation(cls, successor: Sequence[int]) -> "IntMatrix":
        """0/1 matrix M with M[j][i] = 1 iff successor[i] = j."""
        n = len(successor)
        rows = [[0] * n for _ in range(n)]
        for i, j in enumerate(successor):
            rows[j][i] = 1
        return cls.from_rows(rows)


def det_identity_minus_wT(T: IntMatrix) -> Poly:
    """det(I - w*T) as an integer-coefficient polynomial.

    Division-free Berkowitz recursion on leading principal blocks; the
    coefficient vector of the characteristic polynomial (from the leading
    term) is exactly the coefficient list of det(I - wT).  Sparse rows are
    skipped, so permutation matrices cost O(n^2) rather than O(n^4).
    """
    n = T.dim
    if n == 0:
        return Poly.one()
    A = T.entries
    rows_nz = [tuple((j, v) for j, v in enumerate(row) if v) for row in A]
    vec = [1, -A[0][0]]
    for r in range(2, n + 1):
        m = r - 1
        d = A[m][m]
        row_nz = tuple((j, v) for j, v in rows_nz[m] if j < m)
        q = [1, -d]
        v = [A[i][m] for i in range(m)]
        q.append(-sum(val * v[j] for j, val in row_nz))
        for _ in range(m - 1):
            nxt = [0] * m
            for i in range(m):
                s = 0
                for j, val in rows_nz[i]:
                    if j < m:
                        s += val * v[j]
                nxt[i] = s
            v = nxt
            q.append(-sum(val * v[j] for j, val in row_nz))
        new = [0] * (r + 1)
        for i, qi in enumerate(q):
            if qi:
                top = r + 1 - i
                for j, vj in enumerate(vec[:top]):
                    if vj:
                        new[i + j] += qi * vj
        vec = new
    return Poly(vec)


# ---------------------------------------------------------------------------
# Cycle products from traces
# ---------------------------------------------------------------------------


class NotCycleProduct(ValueError):
    """A trace sequence is not the logarithm of a finite cycle product."""


def cycle_product_from_traces(traces: Sequence[int], step: int = 1) -> CycleProduct:
    """The product P = prod_d (1 - w**(step*d))**a_d over d <= len(traces)
    with 1/P = exp(sum_n traces[n-1] w**(step*n) / n) through that length.

    Since -log(1 - x) = sum_j x**j / j, the traces are N_n = sum_{d | n}
    d*a_d, and Moebius inversion gives d*a_d = sum_{d' | d} mu(d/d') N_{d'}.
    Raises NotCycleProduct when some a_d is not an integer.
    """
    exponents, bad = moebius_exponents_by_primes(traces)
    if bad is not None:
        raise NotCycleProduct(f"exponent of (1 - w^{step * bad}) is not an integer")
    return CycleProduct({step * d: a for d, a in exponents.items()})


# ---------------------------------------------------------------------------
# Sieve-based Moebius kernels
# ---------------------------------------------------------------------------


def _primes(n: int) -> list:
    """The primes up to n, by a sieve of slice assignments."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = bytes(min(2, n + 1))
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [p for p, is_prime in enumerate(sieve) if is_prime]


def _mobius_table(n: int) -> list:
    """mu(0..n), one slice pass per prime p: negate the multiples of p,
    zero those of p * p; mu(0) is 0."""
    mu = [1] * (n + 1)
    mu[0] = 0
    for p in _primes(n):
        mu[p::p] = [-x for x in mu[p::p]]
        mu[p * p :: p * p] = [0] * len(range(p * p, n + 1, p * p))
    return mu


def moebius_exponents_by_primes(traces: Sequence[int]) -> tuple:
    """({d: a_d}, bad) with traces[n-1] = N_n = sum_{d | n} d * a_d: the
    nonzero a_d up to the first d whose a_d is not an integer, and bad
    that d, or None when every a_d is an integer.  The Dirichlet series
    of 1 is divided out prime by prime: multiplying by 1 - p**-z is
    s[j] -= s[j / p] at every multiple j of p, one slice per prime <= n."""
    n = len(traces)
    s = [0, *traces]
    for p in _primes(n):
        s[p::p] = [a - b for a, b in zip(s[p::p], s[1 : n // p + 1])]
    exponents = {}
    for d in range(1, n + 1):
        if s[d]:
            a, r = divmod(s[d], d)
            if r:
                return exponents, d
            exponents[d] = a
    return exponents, None


def reduced_by_mobius_table(f: CycleProduct) -> tuple:
    """``reduced_in_w(f)``, with each Phi_m written as
    prod_{d | m} (1 - w**d)**mu(m / d), mu read from one table, and c_m
    the sum of k_e over the multiples e of m, for every sign of the k_e."""
    c = Counter()
    for e, k in f.items():
        for m in _divisors(e):
            c[m] += k
    mu = _mobius_table(max(c, default=0))
    parts = (Counter(), Counter())
    for m, cm in c.items():
        part = parts[cm < 0]
        for d in _divisors(m):
            part[d] += mu[m // d] * abs(cm)
    return parts


# ---------------------------------------------------------------------------
# Half-lattice points and canonical forms of orbits
# ---------------------------------------------------------------------------


class Affine(NamedTuple):
    """x -> linear*x + translation with integer linear part and translation."""

    linear: Mat
    translation: Vec

    @classmethod
    def identity(cls) -> "Affine":
        return cls(IDENTITY, (0, 0))

    @classmethod
    def from_translation(cls, v: Vec) -> "Affine":
        return cls(IDENTITY, (v[0], v[1]))

    def apply(self, v: Vec) -> Vec:
        return vec_add(mat_vec(self.linear, v), self.translation)

    def compose(self, other: "Affine") -> "Affine":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return Affine(
            mat_mul(self.linear, other.linear),
            vec_add(mat_vec(self.linear, other.translation), self.translation),
        )

    def inverse(self) -> "Affine":
        det = mat_det(self.linear)
        if det not in (1, -1):
            raise ValueError("linear part is not invertible over the integers")
        (a, b), (c, d) = self.linear
        inv = ((d * det, -b * det), (-c * det, a * det))
        return Affine(inv, vec_scale(-1, mat_vec(inv, self.translation)))

    def __pow__(self, n: int) -> "Affine":
        """The |n|-fold composition of self, or of its inverse for n < 0."""
        base, out = self if n >= 0 else self.inverse(), Affine.identity()
        for _ in range(abs(n)):
            out = out.compose(base)
        return out


def glide_map(q: QuotientGroup, glide: str) -> Affine:
    """The glide sigma of a Klein bottle q, or t*sigma, as an Affine."""
    sigma = Affine(*q.sigma)
    return sigma if glide == "sigma" else Affine.from_translation(q.t).compose(sigma)


class HalfVec(NamedTuple):
    """Point of the half lattice, stored as doubled integer coordinates."""

    x2: int
    y2: int


def sigma_half(q: QuotientGroup, h2: Vec) -> Vec:
    """The glide sigma of q on doubled coordinates: L h2 + 2 t."""
    linear, s = q.sigma
    img = mat_vec(linear, h2)
    return (img[0] + 2 * s[0], img[1] + 2 * s[1])


def canonical_vertex(q: QuotientGroup, x):
    """A canonical form of the orbit of x under the whole group.

    The residue box point of x's class and, for a Klein bottle, the
    lexicographically lower of it and the box point of sigma x.  Idempotent
    and constant on orbits; takes a lattice point or a HalfVec and returns
    the same kind.  It does not depend on which point of the orbit the
    quotient keeps as its representative.
    """
    if isinstance(x, HalfVec):
        r = reduce_half(q, x)
        if q.kind == "klein":
            r = min(r, reduce_half(q, sigma_half(q, x)))
        return HalfVec(*r)
    r = reduce(q, x)
    if q.kind == "klein":
        r = min(r, reduce(q, Affine(*q.sigma).apply(x)))
    return r


def reduce(q: QuotientGroup, x: Vec) -> Vec:
    """The residue box point of x's class modulo Gamma0: x - r (c, h22) -
    s (h11, 0) for the r and s that put it in the box of residues(q)."""
    h11, c, h22 = q._triangle
    r, j = divmod(x[1], h22)
    return ((x[0] - r * c) % h11, j)


def reduce_half(q: QuotientGroup, h2: Vec) -> Vec:
    """Same as reduce, on doubled coordinates modulo 2 Gamma0: the point
    of half_residues(q) of h2's class."""
    h11, c, h22 = q._triangle
    r, j = divmod(h2[1], 2 * h22)
    return ((h2[0] - 2 * r * c) % (2 * h11), j)


def residues(q: QuotientGroup) -> list:
    """The residue box [0, h11) x [0, h22) of the triangular basis of
    Gamma0, row by row: the class of (i, j) at position i + h11 * j."""
    h11, _, h22 = q._triangle
    return [(i, j) for j in range(h22) for i in range(h11)]


def half_residues(q: QuotientGroup) -> list:
    """The residue box of 2 Gamma0 in doubled coordinates, as four parity
    cosets: mu_b + 2 residues(q)[x] at position b * len(residues(q)) + x,
    mu_b = (b & 1, b >> 1)."""
    box = residues(q)
    return [((b & 1) + 2 * i, (b >> 1) + 2 * j) for b in range(4) for i, j in box]


# the representatives by triangular basis and glide, all they depend on:
# the per-length loops read them once per length
_REPS: dict = {}


def vertex_reps(q: QuotientGroup) -> tuple:
    """One box point per vertex orbit: those that are their own canonical
    form, in residues(q) order."""
    key = ("vertex", q._triangle, q.sigma)
    if key not in _REPS:
        _REPS[key] = tuple(p for p in residues(q) if canonical_vertex(q, p) == p)
    return _REPS[key]


def half_orbit_reps(q: QuotientGroup) -> tuple:
    """One doubled box point per half-lattice orbit: those that are their
    own canonical form, in half_residues(q) order."""
    key = ("half", q._triangle, q.sigma)
    if key not in _REPS:
        _REPS[key] = tuple(h for h in half_residues(q) if canonical_vertex(q, HalfVec(*h)) == h)
    return _REPS[key]


def glide_is_free_involution(q: QuotientGroup) -> bool:
    """Whether the glide of a Klein bottle, on the doubled box, moves every
    point and returns each one in two steps."""
    for h in half_residues(q):
        image = reduce_half(q, sigma_half(q, h))
        if image == h or reduce_half(q, sigma_half(q, image)) != h:
            return False
    return True


# ---------------------------------------------------------------------------
# Transporters
# ---------------------------------------------------------------------------


def in_gamma0(q: QuotientGroup, v: Vec, modulus: int) -> bool:
    """Whether adj * v = 0 (mod modulus): v lies in Gamma0 for modulus
    det Gamma0, and v / 2 does for modulus 2 det Gamma0 (v in doubled
    coordinates)."""
    (a, b), (c, d) = q._adj
    return (a * v[0] + b * v[1]) % modulus == 0 and (c * v[0] + d * v[1]) % modulus == 0


def carrying_linear(q: QuotientGroup, x, y) -> Optional[Mat]:
    """The linear part of the unique group element sending x to y, or None.

    The element is a translation when y - x lies in Gamma0 and, for a
    Klein bottle, a glide when y - sigma(x) does.  x and y must both be
    lattice points or both HalfVec (doubled coordinates).
    """
    half = isinstance(x, HalfVec)
    if half != isinstance(y, HalfVec):
        raise TypeError("transporter endpoints must live in the same lattice")
    modulus = 2 * q._det if half else q._det
    if in_gamma0(q, (y[0] - x[0], y[1] - x[1]), modulus):
        return IDENTITY
    if q.kind == "klein":
        sx = sigma_half(q, x) if half else Affine(*q.sigma).apply(x)
        if in_gamma0(q, (y[0] - sx[0], y[1] - sx[1]), modulus):
            return q.sigma[0]
    return None


def transporter(q: QuotientGroup, x, y) -> Optional[Affine]:
    """The unique group element sending x to y, or None.

    Uniqueness holds because the group acts freely.  Its linear part L
    comes from carrying_linear and its translation is y - L x, halved on
    doubled coordinates.
    """
    linear = carrying_linear(q, x, y)
    if linear is None:
        return None
    t = vec_sub(y, mat_vec(linear, x))
    if isinstance(x, HalfVec):
        t = (t[0] // 2, t[1] // 2)
    return Affine(linear, t)


# ---------------------------------------------------------------------------
# Klein generator normalization
# ---------------------------------------------------------------------------


def normalize_generators(rs: RootSystem, g_t: tuple, g_sigma: tuple) -> tuple:
    """Bring Klein-bottle generators to the normal form t*sigma = sigma*t**-1.

    Each generator is an affine map, a (linear, translation) pair such as
    q.sigma or an Affine.  The returned translation, an Affine, is
    perpendicular to the glide axis; sigma is returned unchanged.  Inputs
    that commute, contain torsion, or leave the coroot lattice are
    rejected.
    """
    (t_linear, t_vec), (m, s_vec) = g_t, g_sigma
    if t_linear != IDENTITY or t_vec == (0, 0):
        raise ValueError("t is not a nonzero translation")
    if not rs.in_coroot_lattice(t_vec):
        raise ValueError("translation part not in coroot lattice")
    if m not in rs.weyl or mat_det(m) != -1 or m[0][0] + m[1][1] != 0:
        raise ValueError("sigma's linear part is not a Weyl reflection")
    if not rs.in_coroot_lattice(s_vec):
        raise ValueError("translation part not in coroot lattice")
    s = vec_add(mat_vec(m, s_vec), s_vec)
    if s == (0, 0):
        raise ValueError("sigma has order two (torsion)")
    axis = _primitive(s)
    if rs.rep_of_weight(axis) is None and rs.rep_of_weight((-axis[0], -axis[1])) is None:
        raise ValueError("glide axis is not a weight direction")
    mt = mat_vec(m, t_vec)
    if mt == t_vec:
        raise ValueError("generators commute")
    det = s[0] * t_vec[1] - t_vec[0] * s[1]
    if det == 0:
        raise ValueError("generators do not span the plane")
    p, rp = divmod(mt[0] * t_vec[1] - t_vec[0] * mt[1], det)
    qq, rq = divmod(s[0] * mt[1] - mt[0] * s[1], det)
    if rp or rq:
        raise ValueError("conjugated translation leaves the generated group")
    if qq != -1:
        raise ValueError("generators do not generate a Klein-bottle group")
    if p % 2 != 0:
        raise ValueError("generators contain an element of order two (torsion)")
    t_new = vec_sub(t_vec, vec_scale(p // 2, s))
    if mat_vec(m, t_new) != (-t_new[0], -t_new[1]):
        raise AssertionError("normalized translation is not reversed by sigma")
    return (Affine.from_translation(t_new), g_sigma)


# ---------------------------------------------------------------------------
# Per-length census loops
# ---------------------------------------------------------------------------


def count_closed_walks(q: QuotientGroup, rep: str, n: int) -> int:
    """Closed walks of normalized length n: pairs (vertex class, weight)
    whose endpoint is carried back by some group element."""
    if n < 1:
        raise ValueError("walk length must be positive")
    total, reps = 0, vertex_reps(q)
    for lam in q.rs.weights(rep):
        step = vec_scale(n, lam)
        for x in reps:
            if carrying_linear(q, x, vec_add(x, step)) is not None:
                total += 1
    return total


def count_geodesic_walks(q: QuotientGroup, rep: str, n: int) -> int:
    """Closed geodesic walks: as count_closed_walks, but the carrying
    element's linear part must fix the direction (no corner at closing)."""
    if n < 1:
        raise ValueError("walk length must be positive")
    total, reps = 0, vertex_reps(q)
    for lam in q.rs.weights(rep):
        step = vec_scale(n, lam)
        for x in reps:
            g = carrying_linear(q, x, vec_add(x, step))
            if g is not None and mat_vec(g, lam) == lam:
                total += 1
    return total


def _line_is_rational(x2: Vec, lam: Vec) -> bool:
    """Whether the line through x2 / 2 in direction lam meets the vertex
    lattice: exactly when x2 / 2 is congruent to 0 or lam / 2 modulo it."""
    e = (x2[0] % 2, x2[1] % 2)
    return e == (0, 0) or e == (lam[0] % 2, lam[1] % 2)


def irrational_half(q: QuotientGroup, lam: Vec) -> tuple:
    """The half-lattice representatives whose line in direction lam misses
    the vertex lattice, by one rationality test per representative: the
    reference of the census's off-rational parity blocks."""
    return tuple(x2 for x2 in half_orbit_reps(q) if not _line_is_rational(x2, lam))


def count_semi_closings(
    q: QuotientGroup, rep: str, j: int, weights: Optional[Sequence[Vec]] = None
) -> int:
    """Half-step closings of non-rational lines through half-lattice points.

    j counts half-steps of size lam/2.  A pair (x, lam) closes when some
    group element whose linear part fixes lam carries x to x + (j/2) lam.
    """
    if j < 1:
        raise ValueError("half-step count must be positive")
    wts = tuple(weights) if weights is not None else q.rs.weights(rep)
    total, reps = 0, half_orbit_reps(q)
    for lam in wts:
        for h in map(HalfVec._make, reps):
            if _line_is_rational(h, lam):
                continue
            y = HalfVec(h.x2 + j * lam[0], h.y2 + j * lam[1])
            g = carrying_linear(q, h, y)
            if g is not None and mat_vec(g, lam) == lam:
                total += 1
    return total


def count_closed_galleries(q: QuotientGroup, rep: str, n: int) -> int:
    """Closed length-n paths of the alternating gallery dynamics.

    A state is a vertex class with an ordered admissible direction pair;
    one step moves the vertex by the first direction and swaps the pair.
    Counted by stepping the raw triple in the plane and asking for a
    group element matching both endpoint and labels.
    """
    if n < 1:
        raise ValueError("gallery length must be positive")
    pairs = q.rs.gallery_pairs(rep)
    total = 0
    for v in vertex_reps(q):
        for lam, mu in pairs:
            pos, a, b = v, lam, mu
            for _ in range(n):
                pos = vec_add(pos, a)
                a, b = b, a
            g = carrying_linear(q, v, pos)
            if g is not None and mat_vec(g, lam) == a and mat_vec(g, mu) == b:
                total += 1
    return total


# ---------------------------------------------------------------------------
# The L-polynomial by Newton's identities
# ---------------------------------------------------------------------------


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


def l_poly_by_expansion(counts, bound: int) -> Poly:
    """P, or the failure of ``l_poly_from_counts``, by expanding the
    Moebius product of the counts.

    The product of the integer exponents below the first non-integer one
    is expanded to that order, every factor in full: the first n > bound
    with a nonzero coefficient raises NotPolynomialWithinBound(2n), then
    a non-integer exponent raises NotPolynomialWithinBound(2n) past the
    bound and AssertionError at or below it.  Otherwise P is the
    expansion through u**bound.
    """
    required = 2 * bound + 8
    if len(counts) < required:
        raise OrderInsufficientError(len(counts), required)
    exponents, bad = moebius_exponents_by_primes(counts)
    top = len(counts) if bad is None else bad - 1
    c = _expand(exponents, top)
    for n in range(bound + 1, top + 1):
        if c[n]:
            raise NotPolynomialWithinBound(2 * n)
    if bad is not None:
        if bad > bound:
            raise NotPolynomialWithinBound(2 * bad)
        raise AssertionError("L-polynomial has non-integer coefficients")
    return Poly(spread(c[: bound + 1], 2))


def progression_counts(progressions, n: int) -> list:
    """N_1..N_n of the progressions {(r, m): c}: N_k is the sum of the c
    with k = r (mod m)."""
    return [
        sum(c for (r, m), c in progressions.items() if (k - r) % m == 0)
        for k in range(1, n + 1)
    ]


def closed_path_table(z: CycleProduct, step_in_w: int, max_n: int) -> list:
    """Closed paths of n = 1..max_n steps of the system with zeta
    z = prod (1 - w**(step_in_w * ell))**-c_ell: the sum of ell * c_ell
    over the ell dividing n, n times the coefficient of w**(step_in_w * n)
    in log z.  Each ell adds its term at ell, 2 ell, ... with one slice
    update."""
    table = [0] * max_n
    for e, k in z.items():
        ell = e // step_in_w
        table[ell - 1 :: ell] = [t - ell * k for t in table[ell - 1 :: ell]]
    return table


def log_compare(z: CycleProduct, step_in_w: int, progressions, depth: int) -> dict:
    """The first n <= depth at which the counts of the census progressions
    differ from the closed paths of the system with zeta z, with both
    counts; empty when none does."""
    census = progression_counts(progressions, depth)
    for n, lhs, rhs in zip(range(1, depth + 1), census, closed_path_table(z, step_in_w, depth)):
        if lhs != rhs:
            return {"first_mismatch_n": n, "lhs": lhs, "rhs": rhs}
    return {}


# ---------------------------------------------------------------------------
# The package's reduced forms in w, and the failure details they give
# ---------------------------------------------------------------------------


def num_den(f: CycleProduct) -> tuple:
    """The reduced form (num, den) of f as Polys in w: the lists of the
    package's ``f.expanded()``, spread to w when f is a function of u."""
    v, num, den = f.expanded()
    return Poly(spread(num, v)), Poly(spread(den, v))


def reduced_in_w(f: CycleProduct) -> tuple:
    """({d: x_d} of num, {d: x_d} of den): the factor dicts of
    ``f._reduced_form()``, taken from w**v to w."""
    v, num, den = f._reduced_form()
    return tuple({v * d: x for d, x in part.items()} for part in (num, den))


def l_poly_in_w(p) -> Poly:
    """The L-polynomial p (a ``weylzeta.zeta.LPolynomial``) as a Poly in w."""
    return Poly(spread(p.expanded()[1], 2))


def _poly_compare(lhs: Poly, rhs: Poly) -> dict:
    for k, (x, y) in enumerate(zip_longest(lhs.coeffs, rhs.coeffs, fillvalue=0)):
        if x != y:
            return {
                "first_mismatch_exponent": k,
                "lhs_coefficient": str(x),
                "rhs_coefficient": str(y),
            }
    return {}


def _cross(lhs: CycleProduct, rhs: CycleProduct) -> tuple:
    """lhs.num * rhs.den and rhs.num * lhs.den by dense multiplication."""
    (ln, ld), (rn, rd) = num_den(lhs), num_den(rhs)
    return ln * rd, rn * ld


def _ratfunc_json(f: CycleProduct) -> dict:
    num, den = num_den(f)
    return {"num": list(num.coeffs), "den": list(den.coeffs), "var": "w"}


def ratfunc_compare(lhs: CycleProduct, rhs: CycleProduct) -> dict:
    """The detail of a failed rational-function record: both reduced
    forms in w and the first mismatching coefficient of the cross
    products; empty when lhs == rhs."""
    if lhs == rhs:
        return {}
    return {
        "lhs": _ratfunc_json(lhs),
        "rhs": _ratfunc_json(rhs),
        **_poly_compare(*_cross(lhs, rhs)),
    }


def product_poly_compare(lhs: CycleProduct, rhs: CycleProduct) -> dict:
    """The detail of a failed product record: the first mismatching
    coefficient of the cross products; empty when lhs == rhs."""
    return {} if lhs == rhs else _poly_compare(*_cross(lhs, rhs))


# ---------------------------------------------------------------------------
# The zeta report in w
# ---------------------------------------------------------------------------


def w_expansions(f: CycleProduct) -> tuple:
    """The reduced num and den of f as w-coefficient lists: the parts of
    ``reduced_by_mobius_table`` expanded in w, whatever their signs."""
    return tuple(
        _expand(part, sum(d * x for d, x in part.items()))
        for part in reduced_by_mobius_table(f)
    )


def ratfunc_to_json(f: CycleProduct) -> tuple:
    """(json, den in w) of a zeta function or correction factor, as the
    ``zeta`` command printed them when every reduced form was expanded in
    w and halved to u where only even powers occur."""
    num, den = w_expansions(f)
    if not any(num[1::2]) and not any(den[1::2]):
        return {"num": num[::2], "den": den[::2], "var": "u"}, den
    return {"num": num, "den": den, "var": "w"}, den


def poly_to_json(p) -> tuple:
    """(json, w-coefficients) of the L-polynomial: its reduced numerator
    expanded in w (the denominator is 1)."""
    num, den = w_expansions(p)
    assert den == [1]
    if any(num[1::2]):
        return {"coeffs": num, "var": "w"}, num
    return {"coeffs": num[::2], "var": "u"}, num


def zeta_output(q: QuotientGroup, bundle, fmt: str) -> str:
    """The stdout of ``zeta --format fmt`` for the bundle of q, built from
    the w-path reports above."""
    keys = ("zeta", "zeta_semi", "zeta2", "correction")
    payload: dict = {"order": bundle.order, "l_poly": {}, **{key: {} for key in keys}}
    lines = [f"{q.rs.kind} {q.kind}: zeta data at order {bundle.order}"]
    for rep in q.rs.rep_names:
        den = {}
        for key in keys:
            payload[key][rep], den[key] = ratfunc_to_json(getattr(bundle, key)[rep])
        payload["l_poly"][rep], p = poly_to_json(bundle.l_poly[rep])
        lines += [
            f"  {rep}:",
            f"    1/Z      = {den['zeta']}",
            f"    1/Z_semi = {den['zeta_semi']}",
            f"    1/Z2     = {den['zeta2']}",
            f"    P        = {p}",
        ]
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# The q = 1 Hecke determinant
# ---------------------------------------------------------------------------


def _bareiss_det(rows: list) -> int:
    """The determinant of a square integer matrix by Bareiss's
    fraction-free elimination, with a row swap at a zero pivot."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def hecke_determinant(q: QuotientGroup, rep: str) -> Poly:
    """det_N(sum_j (-u)**j E_j) over the N vertex classes, as a Poly in u.

    E_j is the sum, over the j-element subsets S of the weights of rep,
    of the shift of a vertex class by the sum of S.  For pi1 this is
    det(I - A1 u + A2 u**2 - u**3 I).  The determinant has degree at most
    k N, k the number of weights, so it is taken by Bareiss at the k N + 1
    points u = 0..k N and interpolated exactly in Newton's forward form.

    It equals P of l_poly_from_counts, whose counts are
    N_n = sum over weights lam of #{v : v + n lam lies in the orbit of v}.
    Proof.  Let X0 be the vertex classes of the translation subgroup
    Gamma0 (X itself for a torus), S_lam the shift by lam on functions on
    X0, and Sigma the action of the glide of a Klein bottle (the identity
    for a torus).  The S_lam commute, so sum_j (-u)**j E_j(X0) is
    prod_lam (I - u S_lam).  Sigma S_lam Sigma**-1 = S_{L lam}, L the
    glide's linear part, which permutes the weights; so Sigma commutes
    with the E_j and with B_n = sum_lam S_lam**n, and the functions on X
    are the Sigma-invariant ones, on which E_j(X0) acts as E_j(X).  Hence
    log det_X(sum_j (-u)**j E_j) = -sum_n u**n / n tr(B_n Pi), with
    Pi = (I + Sigma) / 2 the projection onto them.  For a torus Pi = I,
    and tr B_n counts the pairs (v, lam) with v + n lam = v in X: N_n.
    For a Klein bottle, the fixed classes of S_lam**n and of
    S_lam**n Sigma together number the w in X0 with w + n lam in the
    Gamma-orbit of w: those of S_lam**n are carried back by a
    translation, and w -> sigma w takes those of S_lam**n Sigma to the
    ones carried back by a glide.  Over all lam, each class of X
    has two lifts w and sigma w, which count equally because L permutes
    the weights; so tr(B_n Pi) = N_n here too, and the determinant is
    exp(-sum_n N_n u**n / n) = P.
    """
    # rows are found by the canonical form of each class, so the lookup does
    # not depend on which point represents a class
    reps = vertex_reps(q)
    index = {canonical_vertex(q, v): i for i, v in enumerate(reps)}
    wts = q.rs.weights(rep)
    n, k = len(reps), len(wts)
    # shifts[j][row][col]: the j-subsets of the weights carrying class col to row
    shifts = [[[0] * n for _ in range(n)] for _ in range(k + 1)]
    for j in range(k + 1):
        for subset in combinations(wts, j):
            s = (sum(w[0] for w in subset), sum(w[1] for w in subset))
            for col, v in enumerate(reps):
                shifts[j][index[canonical_vertex(q, vec_add(v, s))]][col] += 1
    top = k * n
    values = [
        _bareiss_det(
            [
                [sum((-u) ** j * shifts[j][r][c] for j in range(k + 1)) for c in range(n)]
                for r in range(n)
            ]
        )
        for u in range(top + 1)
    ]
    # P(u) = sum_i (Delta**i P)(0) binomial(u, i), by Horner from the top:
    # binomial(u, i + 1) = binomial(u, i) (u - i) / (i + 1)
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    p = Poly()
    for i in reversed(range(top + 1)):
        p = p * Poly([Fraction(-i, i + 1), Fraction(1, i + 1)]) + Poly([diffs[i]])
    return p


# ---------------------------------------------------------------------------
# Tuple transfer-system builders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PermutationSystem:
    """A labeled permutation dynamic held by its successor list:
    successor[k] is the state that follows state k.  The cycle walk runs
    once, on construction, and records the zeta function
    prod (1 - w**(step_in_w * length))**-1 over the cycles."""

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
        lengths = Counter()
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
            lengths[n] += 1
        zeta = CycleProduct({self.step_in_w * n: -c for n, c in lengths.items()})
        object.__setattr__(self, "_product", zeta)

    @property
    def size(self) -> int:
        return len(self.successor)

    @property
    def product(self) -> CycleProduct:
        return self._product


def _weight_perm(q: QuotientGroup, wts: tuple) -> tuple:
    """Index permutation of the weight list under the glide's linear part."""
    if q.kind == "torus":
        return tuple(range(len(wts)))
    return tuple(wts.index(mat_vec(q.sigma[0], w)) for w in wts)


def build_walk_system(q: QuotientGroup, rep: str) -> PermutationSystem:
    wts = q.rs.weights(rep)
    perm = _weight_perm(q, wts)

    def canon(x: Vec, i: int):
        a = (reduce(q, x), i)
        if q.kind == "torus":
            return a
        b = (reduce(q, Affine(*q.sigma).apply(x)), perm[i])
        return a if a <= b else b

    states = sorted({canon(x, i) for x in residues(q) for i in range(len(wts))})
    index = {s: j for j, s in enumerate(states)}
    succ = tuple(
        index[canon(vec_add(x, wts[i]), i)] for (x, i) in states
    )
    return PermutationSystem("walks", rep, succ, 2)


def build_semi_system(q: QuotientGroup, rep: str) -> PermutationSystem:
    wts = q.rs.weights(rep)
    perm = _weight_perm(q, wts)

    def canon(x2: Vec, i: int):
        a = (reduce_half(q, x2), i)
        if q.kind == "torus":
            return a
        b = (reduce_half(q, sigma_half(q, x2)), perm[i])
        return a if a <= b else b

    states = sorted(
        {
            canon(x2, i)
            for x2 in half_residues(q)
            for i in range(len(wts))
            if not _line_is_rational(x2, wts[i])
        }
    )
    index = {s: j for j, s in enumerate(states)}
    succ = tuple(
        index[canon((x2[0] + wts[i][0], x2[1] + wts[i][1]), i)]
        for (x2, i) in states
    )
    return PermutationSystem("semi", rep, succ, 1)


def build_gallery_system(q: QuotientGroup, rep: str) -> PermutationSystem:
    pairs = q.rs.gallery_pairs(rep)
    wts = sorted({w for p in pairs for w in p})
    perm = _weight_perm(q, tuple(wts))

    def canon(v: Vec, i: int, j: int):
        a = (reduce(q, v), i, j)
        if q.kind == "torus":
            return a
        b = (reduce(q, Affine(*q.sigma).apply(v)), perm[i], perm[j])
        return a if a <= b else b

    pair_indices = sorted(
        {(wts.index(lam), wts.index(mu)) for lam, mu in pairs}
    )
    states = sorted(
        {canon(v, i, j) for v in residues(q) for (i, j) in pair_indices}
    )
    index = {s: k for k, s in enumerate(states)}
    succ = tuple(
        index[canon(vec_add(v, wts[i]), j, i)] for (v, i, j) in states
    )
    return PermutationSystem("galleries", rep, succ, 2)


# ---------------------------------------------------------------------------
# Root-system label tables, derived on every call
# ---------------------------------------------------------------------------


def gallery_pairs(rs: RootSystem, rep: str) -> tuple:
    """The admissible ordered direction pairs of rep: any two distinct
    weights for A2, perpendicular ones for C2."""
    wts = rs.weights(rep)
    if rs.kind == "A2":
        return tuple((lam, mu) for lam in wts for mu in wts if lam != mu)
    return tuple((lam, mu) for lam in wts for mu in wts if rs.pairing(lam, mu) == 0)


def label_layout(rs: RootSystem, rep: str, kind: str, reflection: Mat) -> tuple:
    """(labels, successor label indices, the (label index, kept parity
    block) pairs in state order, label permutation of reflection) of the
    transfer system kind of rep."""
    if kind == "galleries":
        labels = gallery_pairs(rs, rep)
    else:
        labels = tuple((w,) for w in rs.weights(rep))
    at = {label: k for k, label in enumerate(labels)}
    nexts = tuple(at[label[1:] + label[:1]] for label in labels)
    segments = []
    for k, label in enumerate(labels):
        x, y = label[0]
        if kind == "semi":
            blocks = sorted({1, 2, 3} - {(x & 1) + 2 * (y & 1)})
        else:
            blocks = [0]
        segments += [(k, b) for b in blocks]
    flip = tuple(at[tuple(mat_vec(reflection, w) for w in label)] for label in labels)
    return labels, nexts, tuple(segments), flip


# ---------------------------------------------------------------------------
# The glide line scan over the whole window
# ---------------------------------------------------------------------------


def glide_moves(q: QuotientGroup, m_odd: int, glide: str) -> Counter:
    """How many points of the glide's fundamental domain its m_odd-th power
    moves by each vector, in one pass over the domain points
    x = p*alpha + qq*beta: 0 <= p < k and 2*qq < b, plus 2*p < k on the
    boundary row 2*qq = b (b the beta-coordinate of the glide's
    translation), with qq >= -(|b| + W + 4).  The glide is applied m_odd
    times to each point.  Every vector of beta-coordinate at most
    W = GLIDE_WINDOW in absolute value is counted in full."""
    g = glide_map(q, glide)
    _, b = q.alpha_beta_coords(g.translation)
    k = q.k_gamma
    moves = Counter()
    for qq in range(-(abs(b) + GLIDE_WINDOW + 4), b // 2 + 1):
        for p in range(k if 2 * qq < b else (k + 1) // 2):
            x = vec_add(vec_scale(p, q.alpha), vec_scale(qq, q.beta))
            y = x
            for _ in range(m_odd):
                y = g.apply(y)
            moves[vec_sub(y, x)] += 1
    return moves


def glide_line_scan(q: QuotientGroup) -> dict:
    """First mismatch between glide line counts and the predicted value,
    by evaluating both glides' counts (glide_moves) at every coroot-lattice
    vector v = c*alpha + d*beta of the window, d != 0, in the order m, c,
    d: the prediction is k when d > 0 and 2 (v, alpha) = k m (alpha,
    alpha), else 0."""
    rs = q.rs
    aa = rs.pairing(q.alpha, q.alpha)
    window = range(-GLIDE_WINDOW, GLIDE_WINDOW + 1)
    for m in (1, 3):
        moves_s, moves_t = glide_moves(q, m, "sigma"), glide_moves(q, m, "tsigma")
        for c in window:
            for dcoef in window:
                if dcoef == 0:
                    continue
                v = (
                    c * q.alpha[0] + dcoef * q.beta[0],
                    c * q.alpha[1] + dcoef * q.beta[1],
                )
                if not rs.in_coroot_lattice(v):
                    continue
                admissible = (
                    dcoef > 0 and 2 * rs.pairing(v, q.alpha) == q.k_gamma * m * aa
                )
                expected = q.k_gamma if admissible else 0
                got_s, got_t = moves_s[v], moves_t[v]
                if got_s != expected or got_t != got_s:
                    return {
                        "m": m,
                        "v": list(v),
                        "expected": expected,
                        "sigma_count": got_s,
                        "tsigma_count": got_t,
                    }
    return {}
