"""Every flat torus up to an index through the identity battery, and equal
zetas across each Weyl orbit.

Usage, from the root of a checkout::

    PYTHONPATH=src python tests/torus_sweep.py D

lists every torus of Gamma0-index at most D of both root systems
(hnf_tori), checks that its verify holds and that the tori of each Weyl
orbit have equal zeta data (sweep), prints one summary line and exits 1
when anything fails.  Tier-1 runs it at D = 60 (test_torus_sweep.py); D
may not exceed MAX_CLASSES, the largest index that build accepts.
"""

from __future__ import annotations

import sys

from weylzeta.identities import verify
from weylzeta.quotient import TorusSpec, _triangular_basis, build
from weylzeta.rootgeom import RootSystem, mat_vec
from weylzeta.zeta import zeta_bundle


def hnf_tori(rs: RootSystem, d_max: int):
    """Every sublattice of the coroot lattice of rs of index at most d_max
    in Z^2, as its Hermite normal form basis ((h11, 0), (c, h22)) with
    h11, h22 > 0, 0 <= c < h11 and h11 * h22 <= d_max.

    Each sublattice appears exactly once: h22 is the positive generator
    of its projection to the y-axis, h11 that of its meet with the x-axis,
    and c is fixed modulo h11, so the basis is unique; the index is
    h11 * h22.  A sublattice lies in the coroot lattice exactly when both
    basis vectors do."""
    for h11 in range(1, d_max + 1):
        if not rs.in_coroot_lattice((h11, 0)):
            continue
        for h22 in range(1, d_max // h11 + 1):
            for c in range(h11):
                if rs.in_coroot_lattice((c, h22)):
                    yield (h11, 0), (c, h22)


def hnf(v1, v2) -> tuple:
    """The Hermite normal form basis of the lattice spanned by v1 and v2."""
    h11, c, h22 = _triangular_basis(v1, v2)
    return (h11, 0), (c % h11, h22)


def exponent_dicts(b) -> tuple:
    """The bundle b as its order, l_failure and the exponent pairs of each
    of its cycle products, by rep: nothing is expanded."""
    fields = (b.zeta, b.zeta_semi, b.zeta2, b.l_poly, b.correction)
    return (b.order, b.l_failure, *({rep: f.items() for rep, f in field.items()} for field in fields))


def sweep(d_max: int) -> dict:
    """Every torus of hnf_tori(rs, d_max) of A2 and C2: its count by root
    system, its orbit count, and the failures, each a (root system, basis,
    reason) triple.  The tori are grouped by their orbit, the set of
    Hermite normal forms of w * Gamma0 over the Weyl group.  A torus fails
    when its verify does not hold; an orbit fails when its members are not
    exactly that set, or when their zeta data differ."""
    tori, orbits, failures = {}, 0, []
    for name in ("A2", "C2"):
        rs = RootSystem.make(name)
        by_orbit: dict = {}
        tori[name] = 0
        for basis in hnf_tori(rs, d_max):
            tori[name] += 1
            q = build(rs, TorusSpec(*basis))
            if not verify(q).all_hold:
                failures.append((name, basis, "verify does not hold"))
            images = frozenset(hnf(mat_vec(w, basis[0]), mat_vec(w, basis[1])) for w in rs.weyl)
            by_orbit.setdefault(images, []).append((basis, exponent_dicts(zeta_bundle(q))))
        orbits += len(by_orbit)
        for images, members in by_orbit.items():
            (basis, zetas), others = members[0], members[1:]
            if len(members) != len(images) or {m[0] for m in members} != images:
                failures.append((name, basis, "the orbit's members are not its distinct images"))
            for other, other_zetas in others:
                if other_zetas != zetas:
                    failures.append((name, other, f"zeta data differ from those of {basis}"))
    return {"tori": tori, "orbits": orbits, "failures": failures}


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: torus_sweep.py D", file=sys.stderr)
        return 2
    result = sweep(int(argv[0]))
    for failure in result["failures"]:
        print("FAILED", *failure)
    print(f"D={argv[0]}: {result['tori']} tori, {result['orbits']} Weyl orbits, {len(result['failures'])} failures")
    return 1 if result["failures"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
