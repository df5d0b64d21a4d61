"""Counting oracles for closed walks, geodesics, semi-closings and
galleries, independent of the transfer machinery.

A pair (vertex class x, weight lam) closes at length n when x + n*lam
lies in the group orbit of x, i.e. when n*lam or x + n*lam - sigma(x)
lies in the translation subgroup Gamma0.  Membership in Gamma0 is
adj * v = 0 (mod det Gamma0), so each branch is a pair of linear
congruences in n and its solutions form one arithmetic progression
n = r (mod m).  The ``*_count_table`` functions solve that congruence
once per (vertex class, weight) and per group branch, group the pairs by
progression and add each group's multiplicity at r, r + m, ...; a full
table costs O(N |W| + #progressions * max_n / m) instead of one scan of
all N |W| pairs per length.

Semi-closings use the same congruences in doubled coordinates modulo
2 det; galleries move by lam + mu every two steps, so even and odd
lengths are solved separately.  The literal per-length loops
(``count_closed_walks`` and friends) stay as the reference they are
tested against.  Neither path touches the transfer systems: both use
only membership in Gamma0 (its adjugate and determinant), the glide
sigma and the vertex and half-lattice representatives, so the census
remains an independent check of the cycle-decomposition zeta engine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .quotient import QuotientGroup, SpecValidationError
from .rootgeom import HalfVec, Vec, mat_vec, vec_add, vec_scale, vec_sub


@dataclass(frozen=True)
class CountTable:
    """Counts indexed by length (walks, galleries) or half-step count (semi)."""

    rep: str
    kind: str
    values: tuple

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("counts must be nonnegative")


def count_closed_walks(q: QuotientGroup, rep: str, n: int) -> int:
    """Closed walks of normalized length n: pairs (vertex class, weight)
    whose endpoint is carried back by some group element."""
    if n < 1:
        raise ValueError("walk length must be positive")
    total = 0
    for lam in q.rs.weights(rep):
        step = vec_scale(n, lam)
        for x in q.vertex_reps:
            if q.transporter(x, vec_add(x, step)) is not None:
                total += 1
    return total


def count_geodesic_walks(q: QuotientGroup, rep: str, n: int) -> int:
    """Closed geodesic walks: as count_closed_walks, but the carrying
    element's linear part must fix the direction (no corner at closing)."""
    if n < 1:
        raise ValueError("walk length must be positive")
    total = 0
    for lam in q.rs.weights(rep):
        step = vec_scale(n, lam)
        for x in q.vertex_reps:
            g = q.transporter(x, vec_add(x, step))
            if g is not None and mat_vec(g.linear, lam) == lam:
                total += 1
    return total


def _half_line_is_rational(x2: Vec, lam: Vec) -> bool:
    # the line through x in direction lam meets the vertex lattice exactly
    # when x is congruent to 0 or lam/2 modulo the lattice (lam primitive)
    ex, ey = x2[0] % 2, x2[1] % 2
    return (ex, ey) == (0, 0) or (ex, ey) == (lam[0] % 2, lam[1] % 2)


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
    total = 0
    for lam in wts:
        for h in q.half_orbit_reps():
            x2 = (h.x2, h.y2)
            if _half_line_is_rational(x2, lam):
                continue
            y = HalfVec(x2[0] + j * lam[0], x2[1] + j * lam[1])
            g = q.transporter(HalfVec(*x2), y)
            if g is not None and mat_vec(g.linear, lam) == lam:
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
    for v in q.vertex_reps:
        for lam, mu in pairs:
            pos, a, b = v, lam, mu
            for _ in range(n):
                pos = vec_add(pos, a)
                a, b = b, a
            g = q.transporter(v, pos)
            if (
                g is not None
                and mat_vec(g.linear, lam) == a
                and mat_vec(g.linear, mu) == b
            ):
                total += 1
    return total


def lambda_set_size(
    q: QuotientGroup, m_odd: int, v: Vec, glide: str = "sigma"
) -> int:
    """Lattice points in the glide fundamental domain moved by v under the
    m-th glide power, counted by direct enumeration.

    v must be a coroot-lattice vector with nonzero beta-component in the
    (alpha, beta) basis.  ``glide`` selects sigma or t*sigma together with
    its matching fundamental domain.
    """
    if q.kind != "klein":
        raise SpecValidationError("glide line counts require a Klein quotient")
    if m_odd % 2 == 0:
        raise ValueError("glide power must be odd")
    if not q.rs.in_coroot_lattice(v):
        raise ValueError(f"{v} is not in the coroot lattice")
    _, d = q.alpha_beta_coords(v)
    if d == 0:
        raise ValueError("v must have nonzero beta-component")
    if glide == "sigma":
        g = q.sigma
    elif glide == "tsigma":
        g = q.t.compose(q.sigma)
    else:
        raise ValueError("glide must be 'sigma' or 'tsigma'")
    _, b_used = q.alpha_beta_coords(g.translation)
    gm = g ** m_odd
    k = q.k_gamma
    alpha, beta = q.alpha, q.beta
    window = abs(b_used) + abs(d) + 4
    count = 0
    for p in range(k):
        for qq in range(-window, window + 1):
            x = vec_add(vec_scale(p, alpha), vec_scale(qq, beta))
            if gm.apply(x) != vec_add(x, v):
                continue
            # fundamental domain: alpha-coordinate in [0, k) with
            # beta-coordinate below b/2, plus half of the boundary line
            if 2 * qq < b_used or (2 * qq == b_used and 2 * p < k):
                count += 1
    return count


# ---------------------------------------------------------------------------
# closed-form count tables
# ---------------------------------------------------------------------------


def _crt(p: tuple, r: int, m: int) -> Optional[tuple]:
    """Intersection of n = p[0] (mod p[1]) with n = r (mod m), or None."""
    r0, m0 = p
    g = gcd(m0, m)
    if (r - r0) % g:
        return None
    step = m // g
    t = (r - r0) // g * pow(m0 // g, -1, step) % step
    lcm = m0 * step
    return ((r0 + m0 * t) % lcm, lcm)


def _closings(q: QuotientGroup, step: Vec, shift: Vec, modulus: int) -> Optional[tuple]:
    """The n >= 0 with n*step + shift in Gamma0, as (r, m) meaning n = r (mod m).

    Membership is adj * v = 0 (mod modulus) in both coordinates; modulus
    is det Gamma0, or 2 det Gamma0 for doubled coordinates.  Returns None
    when no n solves it.
    """
    out = (0, 1)
    for row in q._adj:
        a = (row[0] * step[0] + row[1] * step[1]) % modulus
        b = -(row[0] * shift[0] + row[1] * shift[1]) % modulus
        g = gcd(a, modulus)
        if b % g:
            return None
        m = modulus // g
        out = _crt(out, b // g * pow(a // g, -1, m) % m, m)
        if out is None:
            return None
    return out


def _glide_shifts(q: QuotientGroup, points, half: bool = False) -> tuple:
    """x - sigma(x) for each point x; empty for a torus.

    sigma carries x to y exactly when y - x + (x - sigma(x)) lies in
    Gamma0, so this is the offset of the glide branch's congruence.  The
    translation branch has offset 0 and so does not depend on x.
    """
    if q.kind == "torus":
        return ()
    image = q._sigma_half if half else q.sigma.apply
    return tuple(vec_sub(x, image(x)) for x in points)


def _glide_maps(q: QuotientGroup, lam: Vec, target: Vec) -> bool:
    """Whether the glide's linear part sends lam to target (never for a torus)."""
    return q.kind == "klein" and mat_vec(q.sigma.linear, lam) == target


def _tally(progressions: Counter, max_n: int) -> tuple:
    """Counts at n = 1..max_n from multiplicities of progressions (r, m)."""
    values = [0] * max_n
    for (r, m), count in progressions.items():
        for n in range(r or m, max_n + 1, m):
            values[n - 1] += count
    return tuple(values)


def _walk_progressions(q: QuotientGroup, rep: str, geodesic: bool) -> Counter:
    d = q._det
    shifts = _glide_shifts(q, q.vertex_reps)
    progs: Counter = Counter()
    for lam in q.rs.weights(rep):
        progs[_closings(q, lam, (0, 0), d)] += len(q.vertex_reps)
        if geodesic and not _glide_maps(q, lam, lam):
            continue
        for shift in shifts:
            p = _closings(q, lam, shift, d)
            if p is not None:
                progs[p] += 1
    return progs


def walk_count_table(q: QuotientGroup, rep: str, max_n: int) -> CountTable:
    """count_closed_walks at n = 1..max_n, in closed form."""
    return CountTable(rep, "walks", _tally(_walk_progressions(q, rep, False), max_n))


def geodesic_count_table(q: QuotientGroup, rep: str, max_n: int) -> CountTable:
    """count_geodesic_walks at n = 1..max_n, in closed form."""
    return CountTable(rep, "geodesic", _tally(_walk_progressions(q, rep, True), max_n))


def semi_count_table(q: QuotientGroup, rep: str, max_j: int) -> CountTable:
    """count_semi_closings at j = 1..max_j, in closed form."""
    d2 = 2 * q._det
    points = [(h.x2, h.y2) for h in q.half_orbit_reps()]
    progs: Counter = Counter()
    for lam in q.rs.weights(rep):
        irrational = [x2 for x2 in points if not _half_line_is_rational(x2, lam)]
        progs[_closings(q, lam, (0, 0), d2)] += len(irrational)
        if _glide_maps(q, lam, lam):
            for shift in _glide_shifts(q, irrational, half=True):
                p = _closings(q, lam, shift, d2)
                if p is not None:
                    progs[p] += 1
    return CountTable(rep, "semi", _tally(progs, max_j))


def gallery_count_table(q: QuotientGroup, rep: str, max_n: int) -> CountTable:
    """count_closed_galleries at n = 1..max_n, in closed form.

    After 2k steps a gallery has moved by k(lam + mu) with its labels
    back in place; after 2k + 1 steps by k(lam + mu) + lam with its
    labels swapped.  Each parity gives one progression in k, which is
    mapped to n = 2k or n = 2k + 1.  A translation keeps the labels, and
    lam != mu in every gallery pair, so it closes at even lengths only.
    """
    d = q._det
    shifts = _glide_shifts(q, q.vertex_reps)
    progs: Counter = Counter()
    for lam, mu in q.rs.gallery_pairs(rep):
        pair_step = vec_add(lam, mu)
        r, m = _closings(q, pair_step, (0, 0), d)
        progs[(2 * r, 2 * m)] += len(q.vertex_reps)
        even = _glide_maps(q, lam, lam) and _glide_maps(q, mu, mu)
        odd = _glide_maps(q, lam, mu) and _glide_maps(q, mu, lam)
        if not (even or odd):
            continue
        for shift in shifts:
            p = _closings(q, pair_step, shift if even else vec_add(shift, lam), d)
            if p is not None:
                progs[(2 * p[0] + odd, 2 * p[1])] += 1
    return CountTable(rep, "galleries", _tally(progs, max_n))
