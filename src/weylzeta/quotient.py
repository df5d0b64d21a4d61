"""Flat quotient groups of the rank-2 apartment: tori and Klein bottles.

A quotient group is either a rank-2 lattice of translations inside the
coroot lattice (quotient: a simplicial torus) or a group generated by a
glide reflection sigma and a translation t with t*sigma = sigma*t**-1
(quotient: a Klein bottle).  The Klein case is specified by a weight
alpha (the glide axis direction), a best-paired weight beta of the
partner representation, integers a, b with a*alpha + b*beta the glide
translation, and a multiplier m for the perpendicular translation t.
A Klein bottle holds its glide as the plain pair q.sigma = (L, s) of
tuples, linear part and translation, and t as its vector q.t.

Everything here is exact integer arithmetic; the coordinate solves test
divisibility with divmod.  Gamma0 is held as its triangular basis
(h11, 0), (c, h22), which the transfer systems read, and as its adjugate
and determinant, which the census reads.  No point of the residue box is
listed or named: a quotient is Gamma0 and, for a Klein bottle, its
glide, and both the transfer systems and the census count over the
whole box by arithmetic.

A build checks, by arithmetic too, that the glide sigma x = L x + t is a
fixed-point-free involution of the half-lattice classes, and so of the
vertex classes, the half-lattice points of parity block 0.  L**2 = I and
L t + t in Gamma0 make it an involution.  It maps block b, the points
mu_b + 2x in doubled coordinates (mu_b = (b & 1, b >> 1)), onto block
image by x -> L x + t + carry, where L mu_b = mu_image + 2 carry
(rootgeom.block_maps), so it fixes a point of block b exactly when
image = b and t + carry lies in Lambda = (L - I) Z**2 + Gamma0.
_triangular_basis takes any number of generators, so it also gives
Lambda (_mirror), and _in_lattice tests membership on a triangular basis;
the transfer systems count the fixed points of a glide with the same
two.  A quotient also carries the census's walk progressions per rep
(_census_tables), which the census fills on first use, so they live and
die with the quotient.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple, Optional, Union

from .rootgeom import (
    IDENTITY,
    RootSystem,
    Vec,
    block_maps,
    mat_det,
    mat_mul,
    mat_vec,
    vec_add,
    vec_scale,
    vec_sub,
)


class SpecValidationError(ValueError):
    """A quotient specification violates one of its invariants."""


def _shown(x) -> str:
    """str(x) of an int or int vector; an int past the int-string limit shows its bit length."""
    try:
        return str(x)
    except ValueError:
        return f"<{x.bit_length()}-bit integer>" if isinstance(x, int) else f"({', '.join(map(_shown, x))})"


# Largest index of the translation subgroup Gamma0 that build accepts: the
# number of vertex classes of a torus, and of the double cover torus of a
# Klein bottle (2N), which verify builds.  It admits the C2 torus
# (12,0),(0,24).  At this size a verify takes 0.15 ms in process (median
# of 300 verifies of fresh quotients) on a 2-core x86-64 host under Python
# 3.11.7, the diagonal C2 torus (1,1),(144,-144) and the box (12,0),(0,24)
# alike, so the bound is well below what the exact path affords.
MAX_CLASSES = 288


class TorusSpec(NamedTuple):
    v1: Vec
    v2: Vec


class KleinSpec(NamedTuple):
    alpha: Vec
    beta: Vec
    a: int
    b: int
    m: int


GroupSpec = Union[TorusSpec, KleinSpec]


def _triangular_basis(*gens: Vec) -> tuple:
    """(h11, c, h22) with (h11, 0), (c, h22) a basis of the lattice spanned
    by gens and h11, h22 > 0: a Euclid step on the y-components per
    generator keeps one vector of their gcd, and the vectors it zeroes
    span the x-axis part."""
    top, h11 = (0, 0), 0
    for low in gens:
        while low[1] != 0:
            q = top[1] // low[1]
            top, low = low, (top[0] - q * low[0], top[1] - q * low[1])
        h11 = gcd(h11, low[0])
    if top[1] < 0:
        top = (-top[0], -top[1])
    h22 = top[1]
    if h11 <= 0 or h22 <= 0:
        raise SpecValidationError("translation vectors are linearly dependent")
    return h11, top[0], h22


def _in_lattice(tri: tuple, v: Vec) -> bool:
    """Whether v lies in the lattice of triangular basis tri = (h11, c, h22)."""
    h11, c, h22 = tri
    r, j = divmod(v[1], h22)
    return not j and (v[0] - r * c) % h11 == 0


def _mirror(tri: tuple, linear) -> tuple:
    """The triangular basis of Lambda = (L - I) Z^2 + Gamma0, tri that of
    Gamma0 and L = linear."""
    (l11, l12), (l21, l22) = linear
    h11, c, h22 = tri
    return _triangular_basis((l11 - 1, l21), (l12, l22 - 1), (h11, 0), (c, h22))


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
        self.sigma: Optional[tuple] = None
        self.t: Optional[Vec] = None
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
                    f"{name} translation part not in coroot lattice: {_shown(v)}"
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
                f"translation part not in coroot lattice: {_shown(trans)}"
            )
        n, r = divmod(2 * rs.pairing(alpha, beta), rs.pairing(alpha, alpha))
        if r:
            raise SpecValidationError("pairing normalization is not integral")
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
        linear = rs.reflection_fixing(alpha)
        self.sigma = (linear, trans)
        # t runs perpendicular to the axis: the primitive coroot-lattice
        # vector in the direction 2*beta - n*alpha, scaled by m
        raw = vec_sub(vec_scale(2, beta), vec_scale(n, alpha))
        direction = _primitive(raw)
        if not rs.in_coroot_lattice(direction):
            direction = vec_scale(2, direction)
        self.t = t_vec = vec_scale(m, direction)
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
        # structural identities of the presentation: sigma**2 x = L L x +
        # L s + s is the translation by k*alpha (L is a reflection), and
        # t*sigma x = L x + s + t equals sigma*t**-1 x = L x - L t + s
        if vec_add(mat_vec(linear, trans), trans) != vec_scale(k, alpha):
            raise AssertionError("sigma squared is not the axis translation k*alpha")
        if mat_vec(linear, t_vec) != vec_scale(-1, t_vec):
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
        if det > MAX_CLASSES:
            raise SpecValidationError(
                f"translation subgroup index {_shown(det)} exceeds the supported "
                f"maximum {MAX_CLASSES}"
            )
        self._det = det
        self._adj = adj
        self._triangle = _triangular_basis(u, v)
        if self.kind == "klein":
            self._check_glide()
        # the census's walk progressions per rep, filled and read only by the census
        self._census_tables: dict = {}

    def _check_glide(self):
        """AssertionError unless the glide is a fixed-point-free involution
        of the half-lattice classes (see the module docstring)."""
        linear, t = self.sigma
        free = mat_mul(linear, linear) == IDENTITY and _in_lattice(
            self._triangle, vec_add(mat_vec(linear, t), t)
        )
        mirror = _mirror(self._triangle, linear)
        for b, (image, carry) in enumerate(block_maps(linear)):
            if image == b and _in_lattice(mirror, vec_add(t, carry)):
                free = False
        if not free:
            raise AssertionError("the glide is not a fixed-point-free involution of the classes")

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
            "vertex_count": self.N,
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

