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
lengths are solved separately.  Glide line counts (lambda_set_size)
are decided by one solve: the glide's linear part fixes alpha, the
direction along a beta-row of the fundamental domain, so a glide power
moves every point of a row by the same vector, and only one row can be
moved by a given v.  The tests hold the references of these
tables: literal per-length loops over every pair, and a point-by-point
window scan for lambda_set_size.

Nothing here touches the transfer systems: the census uses only
membership in Gamma0 (its adjugate and determinant), the glide sigma and
the vertex and half-lattice representatives, so it remains an
independent check of the cycle-decomposition zeta engine.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import Optional

from .quotient import QuotientGroup, SpecValidationError
from .rootgeom import Vec, mat_vec, vec_add, vec_scale, vec_sub


@dataclass(frozen=True)
class CountTable:
    """Counts indexed by length (walks, galleries) or half-step count (semi)."""

    rep: str
    kind: str
    values: tuple

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("counts must be nonnegative")


def _half_line_is_rational(x2: Vec, lam: Vec) -> bool:
    # the line through x in direction lam meets the vertex lattice exactly
    # when x is congruent to 0 or lam/2 modulo the lattice (lam primitive)
    ex, ey = x2[0] % 2, x2[1] % 2
    return (ex, ey) == (0, 0) or (ex, ey) == (lam[0] % 2, lam[1] % 2)


def lambda_set_size(
    q: QuotientGroup, m_odd: int, v: Vec, glide: str = "sigma"
) -> int:
    """Lattice points in the glide fundamental domain moved by v under the
    m-th glide power.

    The domain holds the points x = p*alpha + qq*beta with 0 <= p < k and
    2*qq < b (b the beta-coordinate of the glide's translation), plus half
    of the boundary row 2*qq = b.  The glide's linear part fixes alpha and
    sends beta to n*alpha - beta, so gm(x) - x does not depend on p and
    has beta-coordinate b - 2*qq.  One solve therefore decides the count:
    only the row qq = (b - d) / 2 can be moved by v = c*alpha + d*beta,
    and only when b - d is even; it lies below the boundary exactly when
    d > 0, and one exact evaluation at x = qq*beta then decides whether
    its k points count.  A linear part that does not fix alpha raises
    AssertionError.

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
    if mat_vec(gm.linear, q.alpha) != q.alpha:
        raise AssertionError("the glide's linear part does not fix alpha")
    if d < 0 or (b_used - d) % 2:
        return 0
    x = vec_scale((b_used - d) // 2, q.beta)
    return q.k_gamma if gm.apply(x) == vec_add(x, v) else 0


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
    """Closed walks of normalized length n = 1..max_n, in closed form: the
    pairs (vertex class, weight) whose endpoint is carried back by some
    group element."""
    return CountTable(rep, "walks", _tally(_walk_progressions(q, rep, False), max_n))


def geodesic_count_table(q: QuotientGroup, rep: str, max_n: int) -> CountTable:
    """Closed geodesic walks of length n = 1..max_n, in closed form: as
    walk_count_table, but the carrying element's linear part must fix the
    direction (no corner at closing)."""
    return CountTable(rep, "geodesic", _tally(_walk_progressions(q, rep, True), max_n))


def semi_count_table(q: QuotientGroup, rep: str, max_j: int) -> CountTable:
    """Half-step closings of non-rational lines through half-lattice points
    at j = 1..max_j, in closed form: the pairs (x, lam) that some group
    element whose linear part fixes lam carries from x to x + (j/2) lam."""
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
    """Closed length-n paths of the alternating gallery dynamics at
    n = 1..max_n, in closed form.  A state is a vertex class with an
    ordered admissible direction pair; one step moves the vertex by the
    first direction and swaps the pair.

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
