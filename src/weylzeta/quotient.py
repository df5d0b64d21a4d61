"""Flat quotient groups of the rank-2 apartment: tori and Klein bottles.

A quotient group is either a rank-2 lattice of translations inside the
coroot lattice (quotient: a simplicial torus) or a group generated by a
glide reflection sigma and a translation t with t*sigma = sigma*t**-1
(quotient: a Klein bottle).  The Klein case is specified by a weight
alpha (the glide axis direction), a best-paired weight beta of the
partner representation, integers a, b with a*alpha + b*beta the glide
translation, and a multiplier m for the perpendicular translation t.

Everything here is exact integer arithmetic; rationals appear only in
intermediate coordinate solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .rootgeom import (
    HalfVec,
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


class SpecValidationError(ValueError):
    """A quotient specification violates one of its invariants."""


@dataclass(frozen=True)
class AffineMap:
    """x -> linear*x + translation with integer linear part and translation."""

    linear: Mat
    translation: Vec

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(IDENTITY, (0, 0))

    @classmethod
    def from_translation(cls, v: Vec) -> "AffineMap":
        return cls(IDENTITY, (v[0], v[1]))

    @property
    def is_translation(self) -> bool:
        return self.linear == IDENTITY

    @property
    def is_identity(self) -> bool:
        return self.is_translation and self.translation == (0, 0)

    def apply(self, v: Vec) -> Vec:
        return vec_add(mat_vec(self.linear, v), self.translation)

    def apply_half(self, h: HalfVec) -> HalfVec:
        img = mat_vec(self.linear, (h.x2, h.y2))
        return HalfVec(
            img[0] + 2 * self.translation[0], img[1] + 2 * self.translation[1]
        )

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return AffineMap(
            mat_mul(self.linear, other.linear),
            vec_add(mat_vec(self.linear, other.translation), self.translation),
        )

    def inverse(self) -> "AffineMap":
        det = mat_det(self.linear)
        if det not in (1, -1):
            raise ValueError("linear part is not invertible over the integers")
        m = self.linear
        inv: Mat = (
            (m[1][1] * det, -m[0][1] * det),
            (-m[1][0] * det, m[0][0] * det),
        )
        t = mat_vec(inv, self.translation)
        return AffineMap(inv, (-t[0], -t[1]))

    def __pow__(self, n: int) -> "AffineMap":
        if n < 0:
            return self.inverse() ** (-n)
        out = AffineMap.identity()
        base = self
        while n:
            if n & 1:
                out = out.compose(base)
            base = base.compose(base) if n > 1 else base
            n >>= 1
        return out


@dataclass(frozen=True)
class TorusSpec:
    v1: Vec
    v2: Vec


@dataclass(frozen=True)
class KleinSpec:
    alpha: Vec
    beta: Vec
    a: int
    b: int
    m: int


GroupSpec = Union[TorusSpec, KleinSpec]


def _lattice_residues(u: Vec, v: Vec) -> list:
    """One representative per class of Z^2 modulo the lattice spanned by u, v.

    Column-reduces (u, v) to a triangular basis, then walks the box; the
    representative count equals |det(u, v)| exactly.
    """
    c1, c2 = u, v
    while c2[1] != 0:
        q = c1[1] // c2[1]
        c1 = (c1[0] - q * c2[0], c1[1] - q * c2[1])
        c1, c2 = c2, c1
    c1, c2 = c2, c1  # c1 now has zero y-component
    if c1[0] < 0:
        c1 = (-c1[0], 0)
    if c2[1] < 0:
        c2 = (-c2[0], -c2[1])
    h11, h22 = c1[0], c2[1]
    if h11 <= 0 or h22 <= 0:
        raise SpecValidationError("translation vectors are linearly dependent")
    return [(i, j) for j in range(h22) for i in range(h11)]


def _primitive(v: Vec) -> Vec:
    g = gcd(v[0], v[1])
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return (v[0] // g, v[1] // g)


class QuotientGroup:
    """A validated quotient group with all derived invariants precomputed.

    Use :func:`build`; direct construction is internal.
    """

    def __init__(self, rs: RootSystem, spec: GroupSpec):
        self.rs = rs
        self.spec = spec
        self.kind = "torus" if isinstance(spec, TorusSpec) else "klein"
        self.sigma: Optional[AffineMap] = None
        self.t: Optional[AffineMap] = None
        self.alpha: Optional[Vec] = None
        self.beta: Optional[Vec] = None
        self.a = self.b = self.m = None
        self.k_gamma: Optional[int] = None
        self.n_gamma: Optional[int] = None
        self.type_rep: Optional[str] = None
        self.m_axes: Optional[int] = None
        if self.kind == "torus":
            self._init_torus(spec)
        else:
            self._init_klein(spec)
        self._finish()

    # -- construction ---------------------------------------------------

    def _init_torus(self, spec: TorusSpec):
        rs = self.rs
        for name, v in (("v1", spec.v1), ("v2", spec.v2)):
            if not rs.in_coroot_lattice(v):
                raise SpecValidationError(
                    f"{name} translation part not in coroot lattice: {v}"
                )
        det = spec.v1[0] * spec.v2[1] - spec.v2[0] * spec.v1[1]
        if det == 0:
            raise SpecValidationError("v1, v2 are linearly dependent")
        self.gamma0_basis = (tuple(spec.v1), tuple(spec.v2))
        self.N = abs(det)

    def _init_klein(self, spec: KleinSpec):
        rs = self.rs
        alpha, beta, a, b, m = spec.alpha, spec.beta, spec.a, spec.b, spec.m
        if m == 0:
            raise SpecValidationError("m must be nonzero")
        rep = rs.rep_of_weight(alpha)
        if rep is None:
            raise SpecValidationError("alpha is not a nontrivial weight")
        comp = rs.complement(rep.name)
        comp_weights = rs.weights(comp)
        if beta not in comp_weights:
            raise SpecValidationError(
                "beta is not a nontrivial weight of the partner representation"
            )
        best = max(rs.pairing(alpha, w) for w in comp_weights)
        if rs.pairing(alpha, beta) != best:
            raise SpecValidationError("beta does not maximize pairing")
        trans = vec_add(vec_scale(a, alpha), vec_scale(b, beta))
        if not rs.in_coroot_lattice(trans):
            raise SpecValidationError(
                f"translation part not in coroot lattice: {trans}"
            )
        n_val = 2 * rs.pairing(alpha, beta) / rs.pairing(alpha, alpha)
        if n_val.denominator != 1:
            raise SpecValidationError("pairing normalization is not integral")
        n = int(n_val)
        k = 2 * a + n * b
        if k == 0:
            raise SpecValidationError("k = 0: sigma squared is the identity")
        if k < 0:
            # relabeling only: the glide reflection itself is unchanged
            alpha = (-alpha[0], -alpha[1])
            beta = (-beta[0], -beta[1])
            a, b = -a, -b
            k = -k
            rep = rs.rep_of_weight(alpha)
        sigma0 = rs.reflection_fixing(alpha)
        self.sigma = AffineMap(sigma0, trans)
        # t runs perpendicular to the axis: the primitive coroot-lattice
        # vector in the direction 2*beta - n*alpha, scaled by m
        raw = vec_sub(vec_scale(2, beta), vec_scale(n, alpha))
        direction = _primitive(raw)
        if not rs.in_coroot_lattice(direction):
            direction = vec_scale(2, direction)
        t_vec = vec_scale(m, direction)
        self.t = AffineMap.from_translation(t_vec)
        self.alpha, self.beta = alpha, beta
        self.a, self.b, self.m = a, b, m
        self.k_gamma, self.n_gamma = k, n
        self.type_rep = rep.name
        self.m_axes = 2 if b % 2 == 0 else 0
        self.gamma0_basis = (t_vec, vec_scale(k, alpha))
        index = abs(mat_det(((t_vec[0], k * alpha[0]), (t_vec[1], k * alpha[1]))))
        if index % 2 != 0:
            raise SpecValidationError("translation subgroup index must be even")
        self.N = index // 2
        # structural identities of the presentation
        sq = self.sigma.compose(self.sigma)
        if sq != AffineMap.from_translation(vec_scale(k, alpha)):
            raise AssertionError("sigma squared is not the axis translation k*alpha")
        if self.t.compose(self.sigma) != self.sigma.compose(self.t.inverse()):
            raise AssertionError("t*sigma != sigma*t**-1")
        # axis parity: b odd exactly when k/n is odd, and n | k always
        if k % n != 0 or (k // n) % 2 != b % 2:
            raise AssertionError("axis parity: k/n is not an integer of the parity of b")

    def _finish(self):
        u, v = self.gamma0_basis
        det = u[0] * v[1] - v[0] * u[1]
        adj = ((v[1], -v[0]), (-u[1], u[0]))
        if det < 0:
            det = -det
            adj = tuple(tuple(-x for x in row) for row in adj)
        self._det = det
        self._adj = adj
        u, v = self.gamma0_basis
        self._residues = _lattice_residues(u, v)
        self._half_residues = _lattice_residues(vec_scale(2, u), vec_scale(2, v))
        reps = sorted({self.canonical_vertex(p) for p in self._residues})
        if len(reps) != self.N:
            raise SpecValidationError(
                f"vertex class count {len(reps)} does not match N = {self.N}"
            )
        self.vertex_reps = tuple(reps)
        self._half_reps = tuple(
            sorted({self._canonical_half(HalfVec(*p)) for p in self._half_residues})
        )

    # -- lattice reduction ------------------------------------------------

    def residues(self) -> list:
        """One lattice representative per class modulo the translation subgroup."""
        return self._residues

    def half_residues(self) -> list:
        """Doubled coordinates of one representative per class of (1/2)L mod Gamma0."""
        return self._half_residues

    def reduce(self, x: Vec) -> Vec:
        """Representative of x modulo the translation subgroup."""
        a, d = self._adj, self._det
        c1 = a[0][0] * x[0] + a[0][1] * x[1]
        c2 = a[1][0] * x[0] + a[1][1] * x[1]
        q1, q2 = c1 // d, c2 // d
        u, v = self.gamma0_basis
        return (x[0] - q1 * u[0] - q2 * v[0], x[1] - q1 * u[1] - q2 * v[1])

    def reduce_half(self, h2: Vec) -> Vec:
        """Same as reduce, on doubled coordinates modulo the doubled subgroup."""
        a, d2 = self._adj, 2 * self._det
        c1 = a[0][0] * h2[0] + a[0][1] * h2[1]
        c2 = a[1][0] * h2[0] + a[1][1] * h2[1]
        q1, q2 = c1 // d2, c2 // d2
        u, v = self.gamma0_basis
        return (
            h2[0] - 2 * (q1 * u[0] + q2 * v[0]),
            h2[1] - 2 * (q1 * u[1] + q2 * v[1]),
        )

    def in_translation_subgroup(self, v: Vec) -> bool:
        a, d = self._adj, self._det
        return (a[0][0] * v[0] + a[0][1] * v[1]) % d == 0 and (
            a[1][0] * v[0] + a[1][1] * v[1]
        ) % d == 0

    def _in_translation_subgroup_half(self, d2: Vec) -> bool:
        # d2 (doubled) lies in Gamma0 iff adj*d2 = 0 mod 2*det
        a, dd = self._adj, 2 * self._det
        return (a[0][0] * d2[0] + a[0][1] * d2[1]) % dd == 0 and (
            a[1][0] * d2[0] + a[1][1] * d2[1]
        ) % dd == 0

    def _sigma_half(self, h2: Vec) -> Vec:
        s = self.sigma
        img = mat_vec(s.linear, h2)
        return (img[0] + 2 * s.translation[0], img[1] + 2 * s.translation[1])

    # -- canonical representatives ----------------------------------------

    def canonical_vertex(self, x):
        """Canonical representative of the full-group orbit of x.

        Reduces modulo the translation subgroup, then (Klein case) takes
        the lexicographic minimum over the two sheet images.  Idempotent
        and constant on orbits; accepts lattice points or HalfVec.
        """
        if isinstance(x, HalfVec):
            return self._canonical_half(x)
        r = self.reduce(x)
        if self.kind == "torus":
            return r
        r2 = self.reduce(self.sigma.apply(x))
        return r if r <= r2 else r2

    def _canonical_half(self, h: HalfVec) -> HalfVec:
        r = self.reduce_half((h.x2, h.y2))
        if self.kind == "torus":
            return HalfVec(*r)
        r2 = self.reduce_half(self._sigma_half((h.x2, h.y2)))
        return HalfVec(*(r if r <= r2 else r2))

    def half_orbit_reps(self) -> tuple:
        """Canonical representatives of the half-lattice orbits (doubled coords)."""
        return self._half_reps

    # -- transporters -------------------------------------------------------

    def transporter(self, x, y) -> Optional[AffineMap]:
        """The unique group element sending x to y, or None.

        Uniqueness holds because the group acts freely.  x and y must both
        be lattice points or both HalfVec.
        """
        if isinstance(x, HalfVec) != isinstance(y, HalfVec):
            raise TypeError("transporter endpoints must live in the same lattice")
        if isinstance(x, HalfVec):
            return self._transporter_half(x, y)
        delta = vec_sub(y, x)
        if self.in_translation_subgroup(delta):
            return AffineMap.from_translation(delta)
        if self.kind == "klein":
            d = vec_sub(y, self.sigma.apply(x))
            if self.in_translation_subgroup(d):
                return AffineMap(
                    self.sigma.linear, vec_add(self.sigma.translation, d)
                )
        return None

    def _transporter_half(self, x: HalfVec, y: HalfVec) -> Optional[AffineMap]:
        d2 = (y.x2 - x.x2, y.y2 - x.y2)
        if self._in_translation_subgroup_half(d2):
            return AffineMap.from_translation((d2[0] // 2, d2[1] // 2))
        if self.kind == "klein":
            sx = self._sigma_half((x.x2, x.y2))
            e2 = (y.x2 - sx[0], y.y2 - sx[1])
            if self._in_translation_subgroup_half(e2):
                return AffineMap(
                    self.sigma.linear,
                    vec_add(self.sigma.translation, (e2[0] // 2, e2[1] // 2)),
                )
        return None

    # -- derived constants ---------------------------------------------------

    def delta(self, rep: str) -> int:
        """Correction-exponent constant of the representation for this group."""
        self.rs.rep(rep)
        if self.kind == "torus":
            return 0
        if self.rs.kind == "A2":
            return 1
        return 0 if rep == self.type_rep else 2

    def alpha_beta_coords(self, v: Vec) -> tuple:
        """Integer coordinates (c, d) of v in the basis (alpha, beta)."""
        al, be = self.alpha, self.beta
        det = al[0] * be[1] - be[0] * al[1]
        # det is +-1 (alpha, beta always form a lattice basis), so
        # multiplying by det is the same as dividing by it
        if det not in (1, -1):
            raise AssertionError(f"alpha, beta do not form a lattice basis (det {det})")
        c = (v[0] * be[1] - be[0] * v[1]) * det
        d = (al[0] * v[1] - v[0] * al[1]) * det
        return (c, d)

    def wt_plus_size(self, rep: str) -> int:
        """Number of weights with nonzero axis pairing and positive beta part."""
        if self.kind == "torus":
            raise SpecValidationError("wt_plus is defined for Klein quotients only")
        count = 0
        for lam in self.rs.weights(rep):
            if self.rs.pairing(lam, self.alpha) == 0:
                continue
            _, d = self.alpha_beta_coords(lam)
            if d > 0:
                count += 1
        return count

    def invariants_report(self) -> dict:
        report = {
            "root_system": self.rs.kind,
            "kind": self.kind,
            "N": self.N,
            "gamma0_basis": [list(self.gamma0_basis[0]), list(self.gamma0_basis[1])],
            "vertex_count": len(self.vertex_reps),
            "reps": {},
        }
        if self.kind == "klein":
            report.update(
                {
                    "k_gamma": self.k_gamma,
                    "n_gamma": self.n_gamma,
                    "type": self.type_rep,
                    "m_axes": self.m_axes,
                    "alpha": list(self.alpha),
                    "beta": list(self.beta),
                    "a": self.a,
                    "b": self.b,
                    "m": self.m,
                }
            )
        for name, rep in self.rs.reps.items():
            entry = {
                "epsilon": rep.epsilon,
                "n_value": rep.n_value,
                "delta": self.delta(name),
            }
            if self.kind == "klein":
                entry["wt_plus"] = self.wt_plus_size(name)
            report["reps"][name] = entry
        return report

    def __repr__(self):
        return (
            f"QuotientGroup({self.rs.kind} {self.kind}, N={self.N}"
            + (f", k={self.k_gamma}, type={self.type_rep}" if self.kind == "klein" else "")
            + ")"
        )


def build(rs: RootSystem, spec: GroupSpec) -> QuotientGroup:
    """Validate a group specification and derive every invariant."""
    return QuotientGroup(rs, spec)


def glide_conjugacy_representative(
    q: QuotientGroup, n: int, m_odd: int
) -> AffineMap:
    """Conjugacy-class representative of t**n sigma**m: sigma**m for even n,
    (t sigma)**m for odd n."""
    if q.kind != "klein":
        raise SpecValidationError("glide reflections exist only in Klein groups")
    if m_odd % 2 == 0:
        raise ValueError("m must be odd: even powers of a glide are translations")
    base = q.sigma if n % 2 == 0 else q.t.compose(q.sigma)
    return base ** m_odd


def normalize_generators(
    rs: RootSystem, g_t: AffineMap, g_sigma: AffineMap
) -> tuple:
    """Bring Klein-bottle generators to the normal form t*sigma = sigma*t**-1.

    The returned translation is perpendicular to the glide axis; sigma is
    returned unchanged.  Inputs that commute, contain torsion, or leave
    the coroot lattice are rejected.
    """
    if not g_t.is_translation or g_t.translation == (0, 0):
        raise ValueError("t is not a nonzero translation")
    if not rs.in_coroot_lattice(g_t.translation):
        raise ValueError("translation part not in coroot lattice")
    m = g_sigma.linear
    if m not in rs.weyl or mat_det(m) != -1 or m[0][0] + m[1][1] != 0:
        raise ValueError("sigma's linear part is not a Weyl reflection")
    if not rs.in_coroot_lattice(g_sigma.translation):
        raise ValueError("translation part not in coroot lattice")
    s = vec_add(mat_vec(m, g_sigma.translation), g_sigma.translation)
    if s == (0, 0):
        raise ValueError("sigma has order two (torsion)")
    axis = _primitive(s)
    if rs.rep_of_weight(axis) is None and rs.rep_of_weight((-axis[0], -axis[1])) is None:
        raise ValueError("glide axis is not a weight direction")
    t_vec = g_t.translation
    mt = mat_vec(m, t_vec)
    if mt == t_vec:
        raise ValueError("generators commute")
    det = s[0] * t_vec[1] - t_vec[0] * s[1]
    if det == 0:
        raise ValueError("generators do not span the plane")
    p = Fraction(mt[0] * t_vec[1] - t_vec[0] * mt[1], det)
    qq = Fraction(s[0] * mt[1] - mt[0] * s[1], det)
    if p.denominator != 1 or qq.denominator != 1:
        raise ValueError("conjugated translation leaves the generated group")
    p, qq = int(p), int(qq)
    if qq != -1:
        raise ValueError("generators do not generate a Klein-bottle group")
    if p % 2 != 0:
        raise ValueError("generators contain an element of order two (torsion)")
    k = p // 2
    t_new = vec_sub(t_vec, vec_scale(k, s))
    if mat_vec(m, t_new) != (-t_new[0], -t_new[1]):
        raise AssertionError("normalized translation is not reversed by sigma")
    return (AffineMap.from_translation(t_new), g_sigma)
