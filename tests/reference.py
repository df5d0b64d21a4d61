"""Reference implementations that production no longer uses.

``l_poly_from_counts`` is the L-polynomial by Newton's identities in u,
one integer recurrence step per count; production builds P from its
Moebius exponents with one expansion and is tested against it.

The transfer-system builders below canonicalize every state as a tuple:
the reduced grid point (``reduce`` / ``reduce_half``), the label and, for
a Klein bottle, the lexicographic minimum over the two sheet images.
States are sorted and looked up in a dict.  They are the tuple form of
the flat-index builders in ``weylzeta.zeta`` and are kept here only as
the reference those builders are tested against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from weylzeta.algebra import NotPolynomialWithinBound, Poly
from weylzeta.quotient import QuotientGroup
from weylzeta.rootgeom import Vec, mat_vec, vec_add
from weylzeta.zeta import OrderInsufficientError, TransferSystem


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


def _weight_perm(q: QuotientGroup, wts: tuple) -> tuple:
    """Index permutation of the weight list under the glide's linear part."""
    if q.kind == "torus":
        return tuple(range(len(wts)))
    return tuple(wts.index(mat_vec(q.sigma.linear, w)) for w in wts)


def build_walk_system(q: QuotientGroup, rep: str) -> TransferSystem:
    wts = q.rs.weights(rep)
    perm = _weight_perm(q, wts)

    def canon(x: Vec, i: int):
        a = (q.reduce(x), i)
        if q.kind == "torus":
            return a
        b = (q.reduce(q.sigma.apply(x)), perm[i])
        return a if a <= b else b

    states = sorted({canon(x, i) for x in q.residues() for i in range(len(wts))})
    index = {s: j for j, s in enumerate(states)}
    succ = tuple(
        index[canon(vec_add(x, wts[i]), i)] for (x, i) in states
    )
    return TransferSystem("walks", rep, states, succ, 2)


def build_semi_system(q: QuotientGroup, rep: str) -> TransferSystem:
    wts = q.rs.weights(rep)
    perm = _weight_perm(q, wts)

    def rational(x2: Vec, lam: Vec) -> bool:
        e = (x2[0] % 2, x2[1] % 2)
        return e == (0, 0) or e == (lam[0] % 2, lam[1] % 2)

    def canon(x2: Vec, i: int):
        a = (q.reduce_half(x2), i)
        if q.kind == "torus":
            return a
        b = (q.reduce_half(q._sigma_half(x2)), perm[i])
        return a if a <= b else b

    states = sorted(
        {
            canon(x2, i)
            for x2 in q.half_residues()
            for i in range(len(wts))
            if not rational(x2, wts[i])
        }
    )
    index = {s: j for j, s in enumerate(states)}
    succ = tuple(
        index[canon((x2[0] + wts[i][0], x2[1] + wts[i][1]), i)]
        for (x2, i) in states
    )
    return TransferSystem("semi", rep, states, succ, 1)


def build_gallery_system(q: QuotientGroup, rep: str) -> TransferSystem:
    pairs = q.rs.gallery_pairs(rep)
    wts = sorted({w for p in pairs for w in p})
    perm = _weight_perm(q, tuple(wts))

    def canon(v: Vec, i: int, j: int):
        a = (q.reduce(v), i, j)
        if q.kind == "torus":
            return a
        b = (q.reduce(q.sigma.apply(v)), perm[i], perm[j])
        return a if a <= b else b

    pair_indices = sorted(
        {(wts.index(lam), wts.index(mu)) for lam, mu in pairs}
    )
    states = sorted(
        {canon(v, i, j) for v in q.residues() for (i, j) in pair_indices}
    )
    index = {s: k for k, s in enumerate(states)}
    succ = tuple(
        index[canon(vec_add(v, wts[i]), j, i)] for (v, i, j) in states
    )
    return TransferSystem("galleries", rep, states, succ, 2)
