"""The three workloads: which weylzeta CLI calls a pass makes, drawn from a seed.

* ladder-verify: ``verify`` on a fixed ladder of quotient sizes.  The seed
  changes each torus lattice basis by a unimodular matrix (same lattice,
  so the same N and zeta data) and picks each Klein spec from a pool of
  specs with the same cell, N and k.  The verify JSON of a quotient whose
  identities all hold depends only on its root system, kind and order,
  so one recorded digest per rung covers every seed.
* corpus-verify: ``corpus --seed 7``.  The corpus cost follows the sum of
  N**2 over its 55 members, which moves by about 20% from one corpus seed
  to the next, so the corpus seed stays fixed and the workload seed does
  not change the inputs.
* zeta-deep: ``zeta --order 800`` on the four sample specs; the seed only
  shuffles their order within a pass.

``verify`` gets the order ``max(required_order(q), 48)`` explicitly, the
value that the library default and the ``corpus`` command use.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

CORPUS_SEED = 7
ZETA_DEEP_ORDER = 800
MIN_ORDER = 48

# (root system, v1, v2); N = |det(v1, v2)| is 18, 72 and 144 for each system
TORUS_RUNGS = (
    ("A2", (6, 0), (0, 3)),
    ("A2", (12, 0), (0, 6)),
    ("A2", (12, 0), (0, 12)),
    ("C2", (3, 3), (3, -3)),
    ("C2", (6, 0), (0, 12)),
    ("C2", (12, 0), (0, 12)),
)

# (label, root system, N, k, specs as (alpha, beta, a, b, m)): one rung per
# corpus.KLEIN_CELLS cell at N = 24 and one at N = 96.  Within a rung every
# spec has the same cell, N and k, because the glide scan grows with k.
KLEIN_RUNGS = (
    ("A2-klein-beven-N24", "A2", 24, 6, (
        ((0, -1), (-1, 0), -2, -2, 4),
        ((0, 1), (1, 0), 4, -2, 4),
        ((1, -1), (0, -1), 6, -6, -4),
        ((-1, 1), (-1, 0), -1, -4, -4),
        ((-1, 0), (-1, 1), 3, 0, 4),
        ((0, 1), (-1, 1), -6, 6, 4),
    )),
    ("A2-klein-bodd-N24", "A2", 24, 3, (
        ((0, 1), (1, 0), -3, 3, -8),
        ((1, 0), (0, 1), -1, 5, 8),
        ((1, 0), (1, -1), -1, -1, -8),
        ((0, 1), (1, 0), -4, 5, -8),
        ((0, -1), (1, -1), 0, 3, -8),
        ((0, 1), (-1, 1), 2, -1, -8),
    )),
    ("C2-spin-beven-N24", "C2", 24, 8, (
        ((-1, 0), (-1, 1), 6, -2, 3),
        ((-1, 0), (-1, 1), 0, -4, 3),
        ((0, -1), (1, -1), -6, 2, -3),
        ((0, -1), (1, -1), 6, -2, -3),
        ((0, -1), (-1, -1), -6, 2, -3),
        ((0, -1), (1, -1), -6, 2, 3),
    )),
    ("C2-spin-bodd-N24", "C2", 24, 6, (
        ((0, 1), (-1, 1), -6, 3, 4),
        ((1, 0), (1, -1), 6, -3, -4),
        ((-1, 0), (-1, 1), 6, -3, 4),
        ((0, -1), (1, -1), 2, -5, 4),
        ((0, 1), (1, 1), 6, -3, 4),
        ((1, 0), (1, 1), -4, 1, 4),
    )),
    ("C2-st-beven-N24", "C2", 24, 8, (
        ((-1, -1), (0, -1), -5, 2, 3),
        ((1, 1), (1, 0), 3, 2, -3),
        ((1, 1), (0, 1), 3, 2, -3),
        ((-1, -1), (-1, 0), -3, -2, 3),
        ((1, 1), (1, 0), -1, -6, -3),
        ((1, -1), (0, -1), -4, 0, 3),
    )),
    ("C2-spin-beven-N96", "C2", 96, 16, (
        ((1, 0), (1, 1), -4, -4, 6),
        ((-1, 0), (-1, 1), 6, 2, -6),
        ((0, 1), (-1, 1), -6, -2, -6),
        ((0, -1), (1, -1), -2, -6, -6),
        ((0, -1), (-1, -1), 4, 4, -6),
        ((0, 1), (1, 1), -6, -2, 6),
    )),
)

SAMPLES = ("a2_klein", "a2_torus", "c2_klein_spin", "c2_torus")

WORKLOADS = ("ladder-verify", "corpus-verify", "zeta-deep")


@dataclass(frozen=True)
class Call:
    """One CLI call: its digest key, its argv, and whether it reports all_hold."""

    label: str
    argv: tuple
    reports_all_hold: bool


def _unimodular(rng: random.Random) -> tuple:
    """A random integer matrix of determinant +-1 with small entries."""
    m = ((1, 0), (0, 1))
    for _ in range(3):
        k = rng.choice((-2, -1, 1, 2))
        e = ((1, k), (0, 1)) if rng.random() < 0.5 else ((1, 0), (k, 1))
        m = (
            (e[0][0] * m[0][0] + e[0][1] * m[1][0], e[0][0] * m[0][1] + e[0][1] * m[1][1]),
            (e[1][0] * m[0][0] + e[1][1] * m[1][0], e[1][0] * m[0][1] + e[1][1] * m[1][1]),
        )
    if rng.random() < 0.5:
        m = (m[1], m[0])
    return m


def _torus_text(rs: str, v1, v2) -> str:
    return f"root_system = {rs}\nkind = torus\nv1 = {v1[0]},{v1[1]}\nv2 = {v2[0]},{v2[1]}\n"


def _klein_text(rs: str, spec) -> str:
    alpha, beta, a, b, m = spec
    return (
        f"root_system = {rs}\nkind = klein\nalpha = {alpha[0]},{alpha[1]}\n"
        f"beta = {beta[0]},{beta[1]}\na = {a}\nb = {b}\nm = {m}\n"
    )


def _verify_call(label: str, text: str, workdir: Path) -> Call:
    from weylzeta.quotient import build
    from weylzeta.rootgeom import RootSystem
    from weylzeta.specfile import parse_spec_text
    from weylzeta.zeta import required_order

    parsed = parse_spec_text(text)
    q = build(RootSystem.make(parsed.root_system), parsed.spec)
    order = max(required_order(q), MIN_ORDER)
    path = workdir / f"{label}.spec"
    path.write_text(text, encoding="utf-8")
    argv = ("verify", "--format", "json", "--order", str(order), "--input", str(path))
    return Call(f"verify:{label}", argv, True)


def ladder_calls(seed: int, workdir: Path) -> list:
    rng = random.Random(seed)
    calls = []
    for rs, v1, v2 in TORUS_RUNGS:
        m = _unimodular(rng)
        w1 = (m[0][0] * v1[0] + m[0][1] * v2[0], m[0][0] * v1[1] + m[0][1] * v2[1])
        w2 = (m[1][0] * v1[0] + m[1][1] * v2[0], m[1][0] * v1[1] + m[1][1] * v2[1])
        n = abs(v1[0] * v2[1] - v2[0] * v1[1])
        calls.append(_verify_call(f"{rs}-torus-N{n}", _torus_text(rs, w1, w2), workdir))
    for label, rs, _, _, specs in KLEIN_RUNGS:
        calls.append(_verify_call(label, _klein_text(rs, rng.choice(specs)), workdir))
    return calls


def corpus_calls(seed: int) -> list:
    argv = ("corpus", "--seed", str(CORPUS_SEED), "--format", "json")
    return [Call(f"corpus:seed{CORPUS_SEED}", argv, True)]


def zeta_deep_calls(seed: int, samples_dir: Path) -> list:
    names = list(SAMPLES)
    random.Random(seed).shuffle(names)
    return [
        Call(
            f"zeta:{name}",
            ("zeta", "--format", "json", "--order", str(ZETA_DEEP_ORDER),
             "--input", str(samples_dir / f"{name}.spec")),
            False,
        )
        for name in names
    ]


def make_calls(workload: str, seed: int, root: Path, workdir: Path) -> list:
    """The calls of one pass; writes the ladder's spec files into workdir."""
    if workload == "ladder-verify":
        return ladder_calls(seed, workdir)
    if workload == "corpus-verify":
        return corpus_calls(seed)
    if workload == "zeta-deep":
        return zeta_deep_calls(seed, root / "samples")
    raise ValueError(f"unknown workload {workload!r}")
