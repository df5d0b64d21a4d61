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
so the overall Gram scale is irrelevant.  The quotients hold half-lattice
points as int pairs of doubled coordinates; they are never paired.

The tables that depend on the root system alone are made on first use
and kept on it, so every quotient of the process shares them: the
gallery pairs of each representation, and per representation and
transfer-system kind the LabelTable (the labels of the states, each
label's successor, the parity blocks its states occupy, and the label
permutation of each Weyl reflection, made on its first use).
Nothing in them depends on a quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

Vec = tuple  # (int, int) lattice point in coweight coordinates
Mat = tuple  # ((int, int), (int, int)) row-major 2x2 integer matrix

IDENTITY: Mat = ((1, 0), (0, 1))


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


class LabelTable:
    """The labels of one transfer-system kind of one representation.

    A walks or semi state is labeled by a weight (as a 1-tuple), a
    galleries state by an ordered gallery pair; one step moves by the
    label's first entry and rotates the label by one, to labels[nexts[k]].
    segments lists the (label index, parity block) pairs that hold
    states, in the order the states are numbered: block 0 (the vertex
    classes) for walks and galleries, and for semi the two blocks of
    half-lattice points whose line in the weight's direction misses the
    vertex lattice.  flip(m) is the label permutation of a Weyl
    reflection m, made on its first use and kept.
    """

    __slots__ = ("labels", "nexts", "segments", "_at", "_flips")

    def __init__(self, labels: tuple, kind: str):
        at = {label: k for k, label in enumerate(labels)}
        self.labels = labels
        self.nexts = tuple(at[label[1:] + label[:1]] for label in labels)
        if kind == "semi":
            parities = [(x & 1) + 2 * (y & 1) for ((x, y),) in labels]
            kept = [[b for b in (1, 2, 3) if b != p] for p in parities]
        else:
            kept = [(0,)] * len(labels)
        self.segments = tuple((k, b) for k, blocks in enumerate(kept) for b in blocks)
        self._at, self._flips = at, {}

    def flip(self, m: Mat) -> tuple:
        """flip[k]: the index of the label m * labels[k], entry by entry."""
        out = self._flips.get(m)
        if out is None:
            out = self._flips[m] = self._derive_flip(m)
        return out

    def _derive_flip(self, m: Mat) -> tuple:
        at = self._at
        return tuple(at[tuple(mat_vec(m, w) for w in label)] for label in self.labels)


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
        self._pairs: dict = {}  # rep -> gallery_pairs(rep)
        self._labels: dict = {}  # (rep, kind) -> label_table(rep, kind)

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
        """Ordered pairs of consecutive central-edge directions of galleries,
        made on first use and kept.

        A geodesic gallery strictly alternates the two directions of an
        admissible pair: any two weights for A2 (no weight has its
        negative in the same representation), perpendicular weights for
        C2 (the antipode would backtrack).
        """
        out = self._pairs.get(name)
        if out is None:
            wts = self.weights(name)
            if self.kind == "A2":
                out = tuple((lam, mu) for lam in wts for mu in wts if lam != mu)
            else:
                out = tuple(
                    (lam, mu) for lam in wts for mu in wts if self.pairing(lam, mu) == 0
                )
            self._pairs[name] = out
        return out

    def label_table(self, name: str, kind: str) -> LabelTable:
        """The LabelTable of the transfer system kind (walks, semi or
        galleries) of the named representation, made on first use and kept."""
        out = self._labels.get((name, kind))
        if out is None:
            if kind == "galleries":
                labels = self.gallery_pairs(name)
            elif kind in ("walks", "semi"):
                labels = tuple((w,) for w in self.weights(name))
            else:
                raise ValueError(f"unknown transfer system kind: {kind!r}")
            out = self._labels[name, kind] = LabelTable(labels, kind)
        return out

    def __repr__(self):
        return f"RootSystem({self.kind})"
