"""Counting oracles for closed walks, geodesics, semi-closings and
galleries, independent of the transfer machinery.

A pair (vertex class x, weight lam) closes at length n when x + n*lam
lies in the group orbit of x, i.e. when n*lam or x + n*lam - sigma(x)
lies in the translation subgroup Gamma0.  Membership in Gamma0 is
adj * v = 0 (mod det Gamma0), so each branch is a pair of linear
congruences in n and its solutions form one arithmetic progression
n = r (mod m).  The ``*_count_table`` functions group the pairs by
progression and add each group's multiplicity at r, r + m, ... (_tally).
So every table is periodic in n, with the lcm of its moduli as a period;
walk_period gives that of the walk table, M, and one period of it is all
that the L-polynomial is read from.

Every table is summed over the whole box Z^2 / Gamma0 (the doubled box
for semi-closings), and each progression's multiplicity is then divided,
by divmod, by |G / Gamma0| = det // N (_per_orbit); a remainder raises.
Why this is exact.  The glide sigma x = L x + t squares into Gamma0 and
has no fixed point (the quotient checks both), so it pairs the box
points, each pair an orbit.  (x, lam) and (sigma x, L lam) close at the
same n, because sigma(x + n*lam) = sigma x + n*L lam and G sigma x = G x;
branch by branch, n*L lam lies in Gamma0 when n*lam does, and
L (x + n*lam - sigma x) = sigma x + n*L lam - sigma(sigma x).  L permutes
each rep's weights, its gallery pairs (fixing or swapping a pair as it
does its image) and its off-rational blocks, and keeps every period.  So
(x, lam) -> (sigma x, L lam) pairs the box's pairs without fixed point
and keeps each one's progression, while orbit representatives count one
of each: every box multiplicity is exactly twice the orbit multiplicity.

The progressions are found once per congruence class, not once per pair:
* the translation branch does not depend on x: n*lam lies in Gamma0
  exactly when m | n, m = det // gcd(adj * lam, det), one gcd per weight
  (_period);
* the glide branch reads x only through the class of its glide shift
  x - sigma(x) = (I - L) x - t modulo Gamma0.  I - L has rank 1 with
  image Z w, w = beta - L beta, so over the box the shift runs over
  -t + j w for 0 <= j < ord(w), det // ord(w) times each (_glide_shifts).
  Each class is solved once per step (_closings, a Chinese-remainder
  solver built once per step) and counted with its multiplicity.
A table therefore costs O(ord(w)) per step plus one slice update per
progression.  ord(w) divides det and can be close to N (12288 classes
for 36864 orbits on the A2 Klein bottle of m = 12288); a torus has no
glide branch and builds no solver.

Semi-closings use the same congruences in doubled coordinates modulo
2 det; on the off-rational parity block of mu the shift runs over
(I - L) mu - 2t + 2 j w.  Galleries move by lam + mu every two steps, so
even and odd lengths are solved separately.  Glide line counts
(lambda_set_size) are decided by one solve: the glide's linear part
fixes alpha, the direction along a beta-row of the fundamental domain,
so a glide power moves every point of a row by the same vector, and only
one row can be moved by a given v.  The tests hold the references of
these tables: literal per-length loops over every pair, and a
point-by-point window scan for lambda_set_size.

Work that depends only on the quotient is done once per quotient and
kept on it (_once): the glide shift classes of the vertex classes, per
parity class of the weight those of the half-lattice classes off the
rational lines, and per rep the progressions of the walk and geodesic
tables, which one pass fills together.  glide_line_counter computes a
glide power once for a whole scan, and the vector of each beta-row once,
on its first read (GlideLines); it is never kept on the quotient, so it
always reads the current sigma.

Nothing here touches the transfer systems: the census uses only
membership in Gamma0 (its adjugate and determinant, and reduce and
reduce_half to name a class), the glide sigma and beta, with tables of
its own, so it remains an independent check of the cycle-decomposition
zeta engine.  No point of the box is listed.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm
from typing import Optional

from .quotient import QuotientGroup, SpecValidationError
from .rootgeom import Vec, mat_vec, vec_add, vec_scale, vec_sub


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
    if q.alpha_beta_coords(v)[1] == 0:
        raise ValueError("v must have nonzero beta-component")
    return glide_line_counter(q, m_odd, glide)(v)


def glide_line_counter(q: QuotientGroup, m_odd: int, glide: str = "sigma") -> "GlideLines":
    """lambda_set_size(q, m_odd, ., glide) as a function of v alone.

    The glide, the beta-coordinate of its translation and its m-th power
    are computed once, here, from q as it is now, and each beta-row's
    vector once, on its first read, so a scan over many v pays for them
    once.  The caller checks v (and the Klein kind and the odd power) as
    lambda_set_size does.
    """
    if glide == "sigma":
        g = q.sigma
    elif glide == "tsigma":
        g = q.t.compose(q.sigma)
    else:
        raise ValueError("glide must be 'sigma' or 'tsigma'")
    gm = g ** m_odd
    if mat_vec(gm.linear, q.alpha) != q.alpha:
        raise AssertionError("the glide's linear part does not fix alpha")
    return GlideLines(q, gm, q.alpha_beta_coords(g.translation)[1])


class GlideLines:
    """The glide line counts of one glide power gm: a call with v gives
    lambda_set_size, and row(d) the vector gm(x) - x by which gm moves
    the beta-row of the fundamental domain that only v = c*alpha + d*beta
    can match.  count(v) is k exactly when v is row(d), d its
    beta-coordinate, so every other v of that beta-row counts 0."""

    def __init__(self, q: QuotientGroup, gm, b_used: int):
        self._q, self._gm, self._b = q, gm, b_used
        self._rows: dict = {}

    def row(self, d: int) -> Optional[Vec]:
        """gm(x) - x for x = ((b - d) / 2) beta, or None when no row can
        be moved by a vector of beta-coordinate d: d < 0, or b - d odd."""
        b = self._b
        if d < 0 or (b - d) % 2:
            return None
        out = self._rows.get(d)
        if out is None:
            x = vec_scale((b - d) // 2, self._q.beta)
            out = self._rows[d] = vec_sub(self._gm.apply(x), x)
        return out

    def __call__(self, v: Vec) -> int:
        q = self._q
        _, d = q.alpha_beta_coords(v)
        return q.k_gamma if self.row(d) == (v[0], v[1]) else 0


# ---------------------------------------------------------------------------
# closed-form count tables
# ---------------------------------------------------------------------------


def _period(q: QuotientGroup, step: Vec, modulus: int) -> int:
    """The m with n*step in Gamma0 exactly when m divides n: the
    translation branch of every table, the progression (0, m).

    n*step lies in Gamma0 when modulus divides n*a_1 and n*a_2, (a_1, a_2)
    = adj * step, that is when modulus // gcd(a_1, a_2, modulus) divides n.
    modulus is det Gamma0, or 2 det Gamma0 in doubled coordinates (2 Gamma0).
    """
    (p1, p2), (p3, p4) = q._adj
    a1, a2 = p1 * step[0] + p2 * step[1], p3 * step[0] + p4 * step[1]
    return modulus // gcd(a1, a2, modulus)


def _closings(q: QuotientGroup, step: Vec, modulus: int):
    """The function shift -> the n >= 0 with n*step + shift in Gamma0, as
    (r, m) meaning n = r (mod m), or None when no n solves it.

    Membership is adj * v = 0 (mod modulus) in both coordinates; modulus
    is det Gamma0, or 2 det Gamma0 for doubled coordinates.  Row i of adj
    asks a_i n = b_i (mod modulus), a_i its product with step and b_i that
    with -shift; with g_i = gcd(a_i, modulus) it is solvable when g_i
    divides b_i, by n = (b_i / g_i) * inv_i (mod m_i = modulus / g_i).
    The g_i, m_i, inv_i and the data that combine the two rows by the
    Chinese remainder theorem depend on step alone and are computed here,
    once for every shift.  The shift is read only through adj * shift mod
    modulus, so the answer depends only on its class modulo Gamma0 (2
    Gamma0 in doubled coordinates).
    """
    (p1, p2), (p3, p4) = q._adj

    def row(a: int) -> tuple:
        a %= modulus
        g = gcd(a, modulus)
        m = modulus // g
        return g, m, pow(a // g, -1, m)

    g1, m1, inv1 = row(p1 * step[0] + p2 * step[1])
    g2, m2, inv2 = row(p3 * step[0] + p4 * step[1])
    g = gcd(m1, m2)
    lift = m2 // g  # n = x1 + m1 t solves row 2 for t = (x2 - x1) / g * inv (mod lift)
    inv = pow(m1 // g, -1, lift)
    lcm = m1 * lift

    def solve(shift: Vec) -> Optional[tuple]:
        b1 = -(p1 * shift[0] + p2 * shift[1]) % modulus
        b2 = -(p3 * shift[0] + p4 * shift[1]) % modulus
        if b1 % g1 or b2 % g2:
            return None
        x1 = b1 // g1 * inv1 % m1
        x2 = b2 // g2 * inv2 % m2
        if (x2 - x1) % g:
            return None
        t = (x2 - x1) // g * inv % lift
        return ((x1 + m1 * t) % lcm, lcm)

    return solve


def _glide_branch(
    q: QuotientGroup, step: Vec, modulus: int, classes: tuple, offset: Vec = (0, 0)
) -> Counter:
    """The progressions of the glide branch: for each (shift class,
    multiplicity) the solution of n*step + shift + offset in Gamma0, with
    its multiplicity.  One solve per class; no solver for no classes."""
    progs: Counter = Counter()
    if classes:
        solve = _closings(q, step, modulus)
        for shift, count in classes:
            p = solve(vec_add(shift, offset))
            if p is not None:
                progs[p] += count
    return progs


def _glide_shifts(q: QuotientGroup, mu: Optional[Vec] = None) -> tuple:
    """x - sigma(x) over the whole box of vertex classes x, or (doubled
    coordinates) over the half-lattice classes mu + 2x of the parity block
    of mu, by class modulo Gamma0 (2 Gamma0 when doubled), as (class,
    multiplicity) pairs; empty for a torus.

    sigma carries x to y exactly when y - x + (x - sigma(x)) lies in
    Gamma0, so this is the offset of the glide branch's congruence, and
    that congruence reads it only through its class.  (I - L) Z^2 = Z w
    because L fixes alpha and (alpha, beta) is a basis, and x -> (I - L) x
    maps Z^2 / Gamma0 onto the ord(w) multiples of w, det // ord(w) points
    onto each: so the classes are -t + j w, or (I - L) mu - 2t + 2 j w.
    """
    if q.kind == "torus":
        return ()
    linear, t = q.sigma
    w = vec_sub(q.beta, mat_vec(linear, q.beta))
    period, reduce = _period(q, w, q._det), q.reduce
    start = vec_scale(-1, t)
    if mu is not None:
        start = vec_add(vec_sub(mu, mat_vec(linear, mu)), vec_scale(2, start))
        w, reduce = vec_scale(2, w), q.reduce_half
    count = q._det // period
    return tuple((reduce(vec_add(start, vec_scale(j, w))), count) for j in range(period))


def _once(q: QuotientGroup, key, make):
    """The census table key of q: made on first use and kept on q, so that
    the tables of every rep share it and it lives and dies with q."""
    tables = q._census_tables
    if key not in tables:
        tables[key] = make()
    return tables[key]


def _vertex_shifts(q: QuotientGroup) -> tuple:
    """The glide shift classes of the vertex classes."""
    return _once(q, "vertex shifts", lambda: _glide_shifts(q))


def _off_rational_blocks(lam: Vec) -> tuple:
    """The parity classes b of the half-lattice points mu_b + 2x whose line
    in direction lam misses the vertex lattice.

    That line meets the vertex lattice exactly when the point is congruent
    to 0 or lam/2 modulo the lattice (lam primitive), that is when mu_b is
    0 or lam mod 2.
    """
    parity = (lam[0] & 1) + 2 * (lam[1] & 1)
    return tuple(b for b in (1, 2, 3) if b != parity)


def _irrational_shifts(q: QuotientGroup, lam: Vec) -> tuple:
    """The glide shift classes of the half-lattice classes whose line in
    direction lam misses the vertex lattice, per parity class of lam."""
    blocks = _off_rational_blocks(lam)
    return _once(
        q,
        ("irrational shifts", blocks),
        lambda: sum((_glide_shifts(q, (b & 1, b >> 1)) for b in blocks), ()),
    )


def _glide_maps(q: QuotientGroup, lam: Vec, target: Vec) -> bool:
    """Whether the glide's linear part sends lam to target (never for a torus)."""
    return q.kind == "klein" and mat_vec(q.sigma.linear, lam) == target


def _per_orbit(q: QuotientGroup, progressions: Counter) -> Counter:
    """Multiplicities summed over the whole box, divided by |G / Gamma0| =
    det // N to count orbits (see the module docstring).  A remainder
    raises AssertionError."""
    index = q._det // q.N
    out: Counter = Counter()
    for p, count in progressions.items():
        out[p], r = divmod(count, index)
        if r:
            raise AssertionError(f"progression {p} has {count} box pairs, not a multiple of {index}")
    return out


def _tally(progressions: Counter, max_n: int) -> tuple:
    """Counts at n = 1..max_n from multiplicities of progressions (r, m):
    each adds its count at n = r, r + m, ... (from m when r is 0) with one
    slice update.  A negative count raises ValueError."""
    values = [0] * max_n
    for (r, m), count in progressions.items():
        start = (r or m) - 1
        values[start::m] = [v + count for v in values[start::m]]
    if min(values, default=0) < 0:
        raise ValueError("counts must be nonnegative")
    return tuple(values)


def _walk_progressions(q: QuotientGroup, rep: str) -> tuple:
    """(walks, geodesics): the progressions of the closing lengths of the
    pairs (vertex class, weight) of rep, in one pass kept on q.  A closing
    is geodesic when the carrying element's linear part fixes the weight:
    always for a translation, for the glide only when it fixes lam."""

    def make() -> tuple:
        d, shifts = q._det, _vertex_shifts(q)
        walks: Counter = Counter()
        geodesics: Counter = Counter()
        for lam in q.rs.weights(rep):
            p = (0, _period(q, lam, d))
            walks[p] += d
            geodesics[p] += d
            glides = _glide_branch(q, lam, d, shifts)
            walks.update(glides)
            if _glide_maps(q, lam, lam):
                geodesics.update(glides)
        return _per_orbit(q, walks), _per_orbit(q, geodesics)

    return _once(q, ("walks", rep), make)


def walk_period(q: QuotientGroup, rep: str) -> int:
    """The lcm M of the moduli of the walk progressions of rep: N_{n+M} =
    N_n for every n.  Each modulus divides det Gamma0, and so does M."""
    return lcm(*(m for _, m in _walk_progressions(q, rep)[0]))


def walk_count_table(q: QuotientGroup, rep: str, max_n: int) -> tuple:
    """Closed walks of normalized length n = 1..max_n, in closed form: the
    pairs (vertex class, weight) whose endpoint is carried back by some
    group element."""
    return _tally(_walk_progressions(q, rep)[0], max_n)


def geodesic_count_table(q: QuotientGroup, rep: str, max_n: int) -> tuple:
    """Closed geodesic walks of length n = 1..max_n, in closed form: as
    walk_count_table, but the carrying element's linear part must fix the
    direction (no corner at closing)."""
    return _tally(_walk_progressions(q, rep)[1], max_n)


def semi_count_table(q: QuotientGroup, rep: str, max_j: int) -> tuple:
    """Half-step closings of non-rational lines through half-lattice points
    at j = 1..max_j, in closed form: the pairs (x, lam) that some group
    element whose linear part fixes lam carries from x to x + (j/2) lam."""
    d = q._det
    progs: Counter = Counter()
    for lam in q.rs.weights(rep):
        progs[(0, _period(q, lam, 2 * d))] += len(_off_rational_blocks(lam)) * d
        if _glide_maps(q, lam, lam):
            progs.update(_glide_branch(q, lam, 2 * d, _irrational_shifts(q, lam)))
    return _tally(_per_orbit(q, progs), max_j)


def gallery_count_table(q: QuotientGroup, rep: str, max_n: int) -> tuple:
    """Closed length-n paths of the alternating gallery dynamics at
    n = 1..max_n, in closed form.  A state is a vertex class with an
    ordered admissible direction pair; one step moves the vertex by the
    first direction and swaps the pair.

    After 2k steps a gallery has moved by k(lam + mu) with its labels
    back in place; after 2k + 1 steps by k(lam + mu) + lam with its
    labels swapped.  Each parity gives one progression in k, which is
    mapped to n = 2k or n = 2k + 1.  A translation keeps the labels, and
    lam != mu in every gallery pair, so it closes at even lengths only.
    The odd branch's offset shift + lam has a class that depends only on
    the class of shift.
    """
    d, shifts = q._det, _vertex_shifts(q)
    progs: Counter = Counter()
    for lam, mu in q.rs.gallery_pairs(rep):
        step = vec_add(lam, mu)
        progs[(0, 2 * _period(q, step, d))] += d
        even = _glide_maps(q, lam, lam) and _glide_maps(q, mu, mu)
        odd = _glide_maps(q, lam, mu) and _glide_maps(q, mu, lam)
        if not (even or odd):
            continue
        glides = _glide_branch(q, step, d, shifts, (0, 0) if even else lam)
        for (r, m), count in glides.items():
            progs[(2 * r + odd, 2 * m)] += count
    return _tally(_per_orbit(q, progs), max_n)
