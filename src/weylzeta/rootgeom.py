"""Rank-2 root geometry: the two lattice worlds behind the quotients.

Two cases are supported and nothing else:

* kind "A2": coweight lattice in the fundamental-coweight basis, Gram
  matrix [[2,1],[1,2]], Weyl group of order 6.  The two distinguished
  representations "pi1" and "pi2" have three nontrivial weights each,
  opposite to one another.
* kind "C2": standard orthonormal Z^2, identity Gram matrix, Weyl group
  of order 8 (signed coordinate permutations).  "spin" has the four unit
  vectors as weights; "st" has the four diagonal vectors plus one trivial
  weight.

All coordinates and pairings are integers, and the ratios taken of
pairings are exact integer divisions.  Only those ratios are ever used,
so the overall Gram scale is irrelevant.  Half-lattice points (HalfVec)
are stored as doubled integer coordinates and are never paired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

Vec = tuple  # (int, int) lattice point in coweight coordinates
Mat = tuple  # ((int, int), (int, int)) row-major 2x2 integer matrix

IDENTITY: Mat = ((1, 0), (0, 1))


class HalfVec(NamedTuple):
    """Point of the half lattice, stored as doubled integer coordinates."""

    x2: int
    y2: int


def mat_vec(m: Mat, v: Vec) -> Vec:
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def mat_mul(a: Mat, b: Mat) -> Mat:
    return (
        (
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ),
        (
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ),
    )


def mat_det(m: Mat) -> int:
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def vec_add(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1])


def vec_sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def vec_scale(k: int, v: Vec) -> Vec:
    return (k * v[0], k * v[1])


@dataclass(frozen=True)
class ReprData:
    """One distinguished representation: its nontrivial weights and constants.

    epsilon is the multiplicity of the trivial weight; n_value is the
    normalization constant 2(alpha,beta)/(alpha,alpha) shared by every
    weight alpha of the representation and its best-paired partner beta.
    """

    name: str
    weights: tuple
    epsilon: int
    n_value: int


class RootSystem:
    """One of the two rank-2 lattice worlds, with all derived tables."""

    _CACHE: dict = {}

    def __init__(self, kind: str):
        if kind == "A2":
            self.gram: Mat = ((2, 1), (1, 2))
            gens = (((-1, 0), (1, 1)), ((1, 1), (0, -1)))
            reps = (
                ReprData("pi1", ((1, 0), (-1, 1), (0, -1)), 0, 1),
                ReprData("pi2", ((-1, 0), (1, -1), (0, 1)), 0, 1),
            )
        elif kind == "C2":
            self.gram = ((1, 0), (0, 1))
            gens = (((1, 0), (0, -1)), ((0, 1), (1, 0)))
            reps = (
                ReprData("spin", ((1, 0), (-1, 0), (0, 1), (0, -1)), 0, 2),
                ReprData("st", ((1, 1), (1, -1), (-1, 1), (-1, -1)), 1, 1),
            )
        else:
            raise ValueError(f"unsupported root system kind: {kind!r}")
        self.kind = kind
        self.reps = {r.name: r for r in reps}
        self.weyl: tuple = self._generate_weyl(gens)

    @staticmethod
    def _generate_weyl(gens) -> tuple:
        elements = {IDENTITY}
        frontier = [IDENTITY]
        while frontier:
            new = []
            for m in frontier:
                for g in gens:
                    prod = mat_mul(g, m)
                    if prod not in elements:
                        elements.add(prod)
                        new.append(prod)
            frontier = new
        return tuple(sorted(elements))

    @classmethod
    def make(cls, kind: str) -> "RootSystem":
        if kind not in cls._CACHE:
            cls._CACHE[kind] = cls(kind)
        return cls._CACHE[kind]

    @classmethod
    def a2(cls) -> "RootSystem":
        return cls.make("A2")

    @classmethod
    def c2(cls) -> "RootSystem":
        return cls.make("C2")

    # -- representations ------------------------------------------------

    @property
    def rep_names(self) -> tuple:
        return tuple(self.reps)

    def rep(self, name: str) -> ReprData:
        if name not in self.reps:
            raise ValueError(
                f"representation {name!r} is not defined for {self.kind}"
            )
        return self.reps[name]

    def weights(self, name: str) -> tuple:
        """Nontrivial weights of the named representation."""
        return self.rep(name).weights

    def complement(self, name: str) -> str:
        """The partner representation (the other one of the pair)."""
        self.rep(name)
        a, b = self.rep_names
        return b if name == a else a

    def rep_of_weight(self, v: Vec):
        for r in self.reps.values():
            if v in r.weights:
                return r
        return None

    # -- bilinear form ---------------------------------------------------

    def pairing(self, x: Vec, y: Vec) -> int:
        """Positive definite pairing of two lattice points."""
        g = self.gram
        return x[0] * (g[0][0] * y[0] + g[0][1] * y[1]) + x[1] * (
            g[1][0] * y[0] + g[1][1] * y[1]
        )

    def in_coroot_lattice(self, v: Vec) -> bool:
        if self.kind == "A2":
            return (v[0] - v[1]) % 3 == 0
        return (v[0] + v[1]) % 2 == 0

    def coroot_index(self) -> int:
        return 3 if self.kind == "A2" else 2

    # -- reflections -----------------------------------------------------

    def reflection_fixing(self, d: Vec) -> Mat:
        """The Weyl reflection x -> -x + (2(x,d)/(d,d)) d fixing the weight d."""
        if self.rep_of_weight(d) is None:
            raise ValueError(f"{d} is not a nontrivial weight of {self.kind}")
        dd = self.pairing(d, d)
        cols = []
        for e in ((1, 0), (0, 1)):
            # every weight is primitive, so the image -e + coef * d is
            # integral exactly when coef is
            coef, r = divmod(2 * self.pairing(e, d), dd)
            if r:
                raise ValueError(f"reflection fixing {d} is not integral")
            cols.append((-e[0] + coef * d[0], -e[1] + coef * d[1]))
        m: Mat = ((cols[0][0], cols[1][0]), (cols[0][1], cols[1][1]))
        if m not in self.weyl:
            raise ValueError(f"reflection fixing {d} does not lie in the Weyl group")
        return m

    # -- gallery successor structure --------------------------------------

    def gallery_pairs(self, name: str) -> tuple:
        """Ordered pairs of consecutive central-edge directions of galleries.

        A geodesic gallery strictly alternates the two directions of an
        admissible pair: any two weights for A2 (no weight has its
        negative in the same representation), perpendicular weights for
        C2 (the antipode would backtrack).
        """
        wts = self.weights(name)
        if self.kind == "A2":
            return tuple(
                (lam, mu) for lam in wts for mu in wts if lam != mu
            )
        return tuple(
            (lam, mu)
            for lam in wts
            for mu in wts
            if self.pairing(lam, mu) == 0
        )

    def __repr__(self):
        return f"RootSystem({self.kind})"
