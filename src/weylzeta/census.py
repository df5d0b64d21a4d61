"""Counting oracles for closed walks, geodesics, semi-closings and
galleries, independent of the transfer machinery.

A pair (vertex class x, weight lam) closes at length n when x + n*lam
lies in the group orbit of x, i.e. when n*lam or x + n*lam - sigma(x)
lies in the translation subgroup Gamma0.  Membership in Gamma0 is
adj * v = 0 (mod det Gamma0), so each branch is a pair of linear
congruences in n and its solutions form one arithmetic progression
n = r (mod m).  The census groups the pairs by progression: the
``_*_progressions`` functions give each table as its progressions {(r,
m): c}, c closings at every n = r (mod m).  Every r is 0 or m / 2 (the
lemmas below), so a table is the divisor sum N_n = sum_{d | n} s[d] of
the dict s of _divisor_sums, exact at every n: the L-polynomial is read
off the walk progressions in closed form (zeta.l_poly_from_counts), and
identities.verify compares each table with its transfer system as two
such dicts.  Only the ``*_count_table`` functions, which the `counts`
command prints, add each multiplicity at r, r + m, ... (_tally).

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

Each branch of a step is one congruence solve, not one per pair:
* the translation branch does not depend on x: n*lam lies in Gamma0
  exactly when m | n, m = det // gcd(adj * lam, det), one gcd per weight
  (_period);
* the glide branch reads x only through its glide shift x - sigma(x) =
  (I - L) x - t.  I - L has rank 1 with image Z w, w = beta - L beta, so
  over the box the shift runs over -t + j w for 0 <= j < ord(w),
  det // ord(w) times each.  Two such classes that close at the same n
  differ by a multiple of w in Gamma0, so at most one closes at each n,
  and the n at which some class closes are those with n*lam - t in
  Gamma0 + Z w: one progression, found by one solve per step (_closings)
  and counted det // ord(w) times (_glide_branch).
A table therefore costs one solve per step plus one slice update per
progression, whatever ord(w), which divides det and can be close to N;
a torus has no glide branch and builds no solver.

Lemma.  Every walk progression (r, m) has r = 0 or r = m / 2, and m
divides det Gamma0.  Proof.  The translation branch of lam is (0, m),
m the order of lam in Z^2 / Gamma0, a group of det elements, so m |
det.  The glide branch closes at the n with n*lam - t + j w in Gamma0
for some j, that is n*lam in t + Lambda, Lambda = Gamma0 + Z w.
sigma**2 is the translation by L t + t, which lies in Gamma0 (the
quotient checks it), and (I - L) t lies in (I - L) Z^2 = Z w; so 2 t =
(L t + t) + (I - L) t lies in Lambda.  Hence n*lam in t + Lambda gives
-n*lam in -t + Lambda = t - 2 t + Lambda = t + Lambda: the glide
closings are symmetric under n -> -n.  They are one progression r + m
Z, m the order of lam modulo Lambda, which divides det because Lambda
contains Gamma0; so -r = r (mod m), 2 r = 0 (mod m), and r, taken in
[0, m), is 0 or m / 2.  Merging equal progressions and dividing their
counts by det // N (_per_orbit) keeps every (r, m).

Semi-closings use the same congruences in doubled coordinates modulo
2 det; on the off-rational parity block of mu the shift runs over
(I - L) mu - 2t + 2 j w.  Galleries move by lam + mu every two steps, so
even and odd lengths are solved separately.  The lemma's residues, r =
0 or m / 2, hold for both.  Semi: the translation branch is (0, m).  The glide branch closes
at the n with n*lam in -s + 2 Lambda, s = (I - L) mu - 2t, in doubled
coordinates, where 2 Gamma0 + Z 2w = 2 Lambda; and 2 s = 2 ((I - L) mu
- 2t) lies in 2 Lambda, because (I - L) mu lies in Z w and 2t in
Lambda.  So -n*lam lies in s + 2 Lambda = -s + 2 Lambda too, the
closings are symmetric under n -> -n, and r is 0 or m / 2 as above.
Galleries: the translation branch is (0, 2m).  The even branch closes
at n = 2k for the k with k (lam + mu) in t + Lambda, symmetric under k
-> -k as the walk's glide branch, so k = 0 or m / 2 (mod m) and n = 0
or m (mod 2m).  The odd branch closes at n = 2k + 1 for the k with
k (lam + mu) + lam in t + Lambda, where L lam = mu; then lam - mu =
(I - L) lam lies in Z w, so (-1 - k)(lam + mu) + lam = -(k (lam + mu)
+ lam) + (lam - mu) lies in -t + Lambda = t + Lambda too: the closings
are symmetric under k -> -1 - k.  Their progression r + m Z then has
2 r + 1 = 0 (mod m), so m is odd, 2 r + 1 = m, and n = 2k + 1 runs over
m + 2m Z: the progression (m, 2m).  So every table's (r, m) has r = 0
or m / 2, and _divisor_sums raises on any other.  Glide line counts
(lambda_set_size) are decided by one solve: the glide's linear part
fixes alpha, the direction along a beta-row of the fundamental domain,
so a glide power moves every point of a row by the same vector, and only
one row can be moved by a given v.  The tests hold the references of
these tables: literal per-length loops over every pair, and a
point-by-point window scan for lambda_set_size.

The progressions of the walk and geodesic tables of a rep, which one
pass fills together, are kept on the quotient (_census_tables): the
tables and the L-polynomial of every rep read them there.  glide_rows
reads the glide power off its closed form, L x + s + (m - 1) / 2 (L s +
s) for the glide x -> L x + s, L**2 = I and m odd, and returns the
vector of each asked beta-row as a dict; nothing of it is kept on the
quotient, so it always reads the current sigma.

Nothing here touches the transfer systems: the census uses only
membership in Gamma0 (its adjugate and determinant), the glide sigma and
beta, with tables of its own, so it remains an independent check of the
cycle-decomposition zeta engine.  No point of the box is listed.
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import Optional

from .quotient import QuotientGroup, SpecValidationError
from .rootgeom import IDENTITY, Vec, mat_mul, mat_vec, vec_add, vec_scale, vec_sub


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
    its k points count.  A linear part that does not fix alpha, or does
    not square to the identity, raises AssertionError (glide_rows).

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
    return q.k_gamma if glide_rows(q, m_odd, (d,), glide).get(d) == (v[0], v[1]) else 0


def glide_rows(q: QuotientGroup, m_odd: int, ds, glide: str = "sigma") -> dict:
    """The vector gm(x) - x by which the m_odd-th glide power gm moves the
    beta-row x = ((b - d) / 2) beta of the fundamental domain, for each d
    of ds with d >= 0 and b - d even: the one v = c*alpha + d*beta that
    can count k (lambda_set_size).  A vector of any other beta-coordinate
    moves no row of the domain.

    The glide g x = L x + s is read from q as it is now: sigma = q.sigma,
    or t*sigma = (L, s + t).  As L**2 = I, g**2 is the translation by
    L s + s, so the odd power is gm x = L x + s + (m_odd - 1) / 2 (L s + s),
    in closed form, and a scan reads each row by a dict lookup.  An even
    power raises ValueError, and a linear part with L**2 != I, or one that
    does not fix alpha, AssertionError.  The caller checks the Klein kind
    as lambda_set_size does.
    """
    if m_odd % 2 == 0:
        raise ValueError("glide power must be odd")
    linear, s = q.sigma
    if glide == "tsigma":
        s = vec_add(s, q.t)
    elif glide != "sigma":
        raise ValueError("glide must be 'sigma' or 'tsigma'")
    if mat_mul(linear, linear) != IDENTITY:
        raise AssertionError("the glide's linear part does not square to the identity")
    if mat_vec(linear, q.alpha) != q.alpha:
        raise AssertionError("the glide's linear part does not fix alpha")
    shift = vec_add(s, vec_scale((m_odd - 1) // 2, vec_add(mat_vec(linear, s), s)))
    b = q.alpha_beta_coords(s)[1]
    rows = {}
    for d in ds:
        if d >= 0 and (b - d) % 2 == 0:
            x = vec_scale((b - d) // 2, q.beta)
            rows[d] = vec_sub(vec_add(mat_vec(linear, x), shift), x)
    return rows


# ---------------------------------------------------------------------------
# closed-form count tables
# ---------------------------------------------------------------------------


def _period(q: QuotientGroup, step: Vec, modulus: int) -> int:
    """The m with n*step in Gamma0 exactly when m divides n: the
    translation branch of every table, the progression (0, m), and the
    order of step modulo Gamma0.

    n*step lies in Gamma0 when modulus divides n*a_1 and n*a_2, (a_1, a_2)
    = adj * step, that is when modulus // gcd(a_1, a_2, modulus) divides n.
    modulus is det Gamma0, or 2 det Gamma0 in doubled coordinates (2 Gamma0).
    """
    (p1, p2), (p3, p4) = q._adj
    a1, a2 = p1 * step[0] + p2 * step[1], p3 * step[0] + p4 * step[1]
    return modulus // gcd(a1, a2, modulus)


def _bezout(a: int, b: int) -> tuple:
    """(x, y, g) with x*a + y*b = g = gcd(a, b), by the extended Euclid."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        k, r = divmod(a, b)
        a, b = b, r
        x0, y0, x1, y1 = x1, y1, x0 - k * x1, y0 - k * y1
    return (x0, y0, a) if a >= 0 else (-x0, -y0, -a)


def _closings(q: QuotientGroup, step: Vec, start: Vec, w: Vec, modulus: int) -> Optional[tuple]:
    """The n >= 0 with n*step + start + j*w in Gamma0 for some integer j,
    as (r, m) meaning n = r (mod m), or None when no n solves it.

    Membership is adj * v = 0 (mod modulus) in both coordinates; modulus
    is det Gamma0, or 2 det Gamma0 for doubled coordinates.  With (a_1,
    a_2) = adj * w and x a_1 + y a_2 = g = gcd(a_1, a_2), the unimodular U
    with rows (x, y) and (-a_2 / g, a_1 / g) (the identity when w = 0)
    sends adj * w to (g, 0).  So the condition is U adj (n*step + start) =
    -j (g, 0) (mod modulus) for some j: row 1 = 0 modulo gcd(g, modulus),
    and row 2 = 0 modulo modulus.  Each row asks a n = b (mod M), which,
    with h = gcd(a, M), is solvable when h divides b, by n = (b / h) *
    (a / h)^-1 (mod M / h); the two rows combine by the Chinese remainder
    theorem.  w = 0 is the plain solve of n*step + start in Gamma0.
    """
    (p1, p2), (p3, p4) = q._adj
    a1, a2 = p1 * w[0] + p2 * w[1], p3 * w[0] + p4 * w[1]
    x, y, g = _bezout(a1, a2)
    rows = ((x, y), (-a2 // g, a1 // g)) if g else ((1, 0), (0, 1))
    solved = []
    for (u1, u2), mod in zip(rows, (gcd(g, modulus), modulus)):
        c1, c2 = u1 * p1 + u2 * p3, u1 * p2 + u2 * p4  # row u of U times adj
        a = (c1 * step[0] + c2 * step[1]) % mod
        b = -(c1 * start[0] + c2 * start[1]) % mod
        h = gcd(a, mod)
        if b % h:
            return None
        m = mod // h
        solved.append((b // h * pow(a // h, -1, m) % m, m))
    (x1, m1), (x2, m2) = solved
    g = gcd(m1, m2)
    if (x2 - x1) % g:
        return None
    lift = m2 // g  # n = x1 + m1 t solves row 2 for t = (x2 - x1) / g * (m1 / g)^-1 (mod lift)
    t = (x2 - x1) // g * pow(m1 // g, -1, lift) % lift
    return (x1 + m1 * t) % (m1 * lift), m1 * lift


def _glide_branch(
    q: QuotientGroup, step: Vec, mu: Optional[Vec] = None, offset: Vec = (0, 0)
) -> dict:
    """The glide branch of step: the n at which sigma carries some box
    point x to x + n*step + offset, that is n*step + offset + x - sigma(x)
    in Gamma0, as a dict {(r, m): c} of at most one progression with the
    number c of x that close at each of its n; empty for a torus, which
    builds no solver.  With mu the x are the half-lattice classes mu + 2x
    of the parity block of mu, in doubled coordinates modulo 2 Gamma0.

    (I - L) Z^2 = Z w, w = beta - L beta, because L fixes alpha and
    (alpha, beta) is a basis, and x -> (I - L) x maps Z^2 / Gamma0 onto
    the ord(w) multiples of w, det // ord(w) points onto each: so x -
    sigma(x) runs over the classes -t + j w, or (I - L) mu - 2t + 2 j w.
    Two classes that close at the same n differ by a multiple of w in
    Gamma0, so they are one class: at most one class closes at each n.
    The n at which some class closes are one progression (_closings), and
    det // ord(w) points close at each.
    """
    if q.kind == "torus":
        return {}
    linear, t = q.sigma
    w, modulus = vec_sub(q.beta, mat_vec(linear, q.beta)), q._det
    start = vec_scale(-1, t)
    if mu is not None:
        start = vec_add(vec_sub(mu, mat_vec(linear, mu)), vec_scale(2, start))
        w, modulus = vec_scale(2, w), 2 * modulus
    p = _closings(q, step, vec_add(start, offset), w, modulus)
    return {} if p is None else {p: q._det // _period(q, w, modulus)}


# the blocks b in (1, 2, 3) other than the parity block p, by p
_OFF_RATIONAL = tuple(tuple(b for b in (1, 2, 3) if b != p) for p in range(4))


def _off_rational_blocks(lam: Vec) -> tuple:
    """The parity classes b of the half-lattice points mu_b + 2x whose line
    in direction lam misses the vertex lattice.

    That line meets the vertex lattice exactly when the point is congruent
    to 0 or lam/2 modulo the lattice (lam primitive), that is when mu_b is
    0 or lam mod 2.
    """
    return _OFF_RATIONAL[(lam[0] & 1) + 2 * (lam[1] & 1)]


def _glide_linear(q: QuotientGroup):
    """The linear part of q's glide as it is now, or None for a torus: a
    table reads it once, and a torus solves no glide branch."""
    return q.sigma[0] if q.kind == "klein" else None


def _per_orbit(q: QuotientGroup, progressions: dict) -> Counter:
    """Multiplicities summed over the whole box, divided by |G / Gamma0| =
    det // N to count orbits (see the module docstring), as a Counter,
    the type of every table; the box sums are plain dicts.  A remainder
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
    slice update, for the tables the `counts` command prints.  A negative
    count raises ValueError."""
    values = [0] * max_n
    for (r, m), count in progressions.items():
        start = (r or m) - 1
        values[start::m] = [v + count for v in values[start::m]]
    if min(values, default=0) < 0:
        raise ValueError("counts must be nonnegative")
    return tuple(values)


def _divisor_sums(progressions, kind: str) -> dict:
    """The s with N_n = sum_{d | n} s[d] at every n >= 1, N_n the sum of
    the c of the progressions {(r, m): c} of a kind of closing with n = r
    (mod m): (0, m, c) adds c to s[m], and (m / 2, m, c) adds c to s[m / 2]
    and -c to s[m], as [n = m/2 (mod m)] = [m/2 | n] - [m | n].  Zero sums
    are dropped, so that two tables agree at every n exactly when their
    dicts are equal: a divisor sum determines its s.  A residue neither 0
    nor m / 2, which the lemmas of the module docstring exclude, raises
    AssertionError naming the progression."""
    s: dict = {}
    for (r, m), c in progressions.items():
        if r == 0:
            s[m] = s.get(m, 0) + c
        elif 2 * r == m:
            s[r] = s.get(r, 0) + c
            s[m] = s.get(m, 0) - c
        else:
            raise AssertionError(f"{kind} progression {(r, m)} has a residue neither 0 nor m/2")
    return {d: x for d, x in s.items() if x}


def _walk_progressions(q: QuotientGroup, rep: str) -> tuple:
    """(walks, geodesics): the progressions of the closing lengths of the
    pairs (vertex class, weight) of rep, in one pass kept on q, so that
    the tables of rep and its L-polynomial share it and it lives and dies
    with q; each is a Counter {(r, m): c}, with r = 0 or m / 2 (the
    lemma of the module docstring), summed over the box in plain dicts.
    A closing is geodesic when the carrying element's linear part fixes
    the weight: always for a translation, for the glide only when it
    fixes lam."""
    tables = q._census_tables
    if rep not in tables:
        d, linear = q._det, _glide_linear(q)
        walks: dict = {}
        geodesics: dict = {}
        for lam in q.rs.weights(rep):
            p = (0, _period(q, lam, d))
            walks[p] = walks.get(p, 0) + d
            geodesics[p] = geodesics.get(p, 0) + d
            if linear is None:
                continue
            geodesic = mat_vec(linear, lam) == lam
            for p, c in _glide_branch(q, lam).items():
                walks[p] = walks.get(p, 0) + c
                if geodesic:
                    geodesics[p] = geodesics.get(p, 0) + c
        tables[rep] = _per_orbit(q, walks), _per_orbit(q, geodesics)
    return tables[rep]


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


def _semi_progressions(q: QuotientGroup, rep: str) -> Counter:
    """The progressions of the half-step closings of non-rational lines
    through half-lattice points: the pairs (x, lam) that some group element
    whose linear part fixes lam carries from x to x + (j/2) lam."""
    d, linear = q._det, _glide_linear(q)
    progs: dict = {}
    for lam in q.rs.weights(rep):
        blocks = _off_rational_blocks(lam)
        p = (0, _period(q, lam, 2 * d))
        progs[p] = progs.get(p, 0) + len(blocks) * d
        if linear is not None and mat_vec(linear, lam) == lam:
            for b in blocks:
                for p, c in _glide_branch(q, lam, (b & 1, b >> 1)).items():
                    progs[p] = progs.get(p, 0) + c
    return _per_orbit(q, progs)


def semi_count_table(q: QuotientGroup, rep: str, max_j: int) -> tuple:
    """Half-step closings at j = 1..max_j, in closed form (_semi_progressions)."""
    return _tally(_semi_progressions(q, rep), max_j)


def _gallery_progressions(q: QuotientGroup, rep: str) -> Counter:
    """The progressions of the closed length-n paths of the alternating
    gallery dynamics.  A state is a vertex class with an ordered
    admissible direction pair; one step moves the vertex by the first
    direction and swaps the pair.

    After 2k steps a gallery has moved by k(lam + mu) with its labels
    back in place; after 2k + 1 steps by k(lam + mu) + lam with its
    labels swapped.  Each parity gives one progression in k, which is
    mapped to n = 2k or n = 2k + 1.  A translation keeps the labels, and
    lam != mu in every gallery pair, so it closes at even lengths only.
    The odd branch solves the glide branch of lam + mu with the offset lam.
    """
    d, linear = q._det, _glide_linear(q)
    progs: dict = {}
    for lam, mu in q.rs.gallery_pairs(rep):
        step = vec_add(lam, mu)
        p = (0, 2 * _period(q, step, d))
        progs[p] = progs.get(p, 0) + d
        if linear is None:
            continue
        images = mat_vec(linear, lam), mat_vec(linear, mu)
        even, odd = images == (lam, mu), images == (mu, lam)
        if not (even or odd):
            continue
        glides = _glide_branch(q, step, offset=(0, 0) if even else lam)
        for (r, m), count in glides.items():
            p = (2 * r + odd, 2 * m)
            progs[p] = progs.get(p, 0) + count
    return _per_orbit(q, progs)


def gallery_count_table(q: QuotientGroup, rep: str, max_n: int) -> tuple:
    """Closed gallery paths at n = 1..max_n, in closed form (_gallery_progressions)."""
    return _tally(_gallery_progressions(q, rep), max_n)
