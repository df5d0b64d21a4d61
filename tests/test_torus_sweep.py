"""The exhaustive torus sweep of torus_sweep.py at D = 60: every torus of
index at most 60 of both root systems verifies, and the tori of each Weyl
orbit have equal zeta data.  CI runs the same script at MAX_CLASSES."""

import subprocess
import sys
from pathlib import Path

import torus_sweep
from torus_sweep import hnf, hnf_tori, sweep
from weylzeta.quotient import TorusSpec, build
from weylzeta.rootgeom import RootSystem

ROOT = Path(__file__).resolve().parent.parent
A2 = RootSystem.make("A2")


def _sublattice_count(n: int) -> int:
    """The number of sublattices of Z^2 of index at most n: the sum of
    sigma(m) = sum_{d | m} d over m <= n, as sum_d d * floor(n / d)."""
    return sum(d * (n // d) for d in range(1, n + 1))


def test_the_enumeration_lists_each_sublattice_of_the_coroot_lattice_once():
    # the coroot lattice has index 3 (A2) or 2 (C2) in Z^2, and is itself
    # a copy of Z^2, so it has sum_{m <= 60 / index} sigma(m) sublattices
    # of index at most 60 in Z^2
    for name, index in (("A2", 3), ("C2", 2)):
        rs = RootSystem.make(name)
        tori = list(hnf_tori(rs, 60))
        assert len(set(tori)) == len(tori) == _sublattice_count(60 // index)
        for basis in tori:
            assert hnf(*basis) == basis and all(rs.in_coroot_lattice(v) for v in basis)


def test_every_torus_up_to_index_60_verifies_and_keeps_its_zetas_across_its_weyl_orbit():
    result = sweep(60)
    assert result["failures"] == []
    assert result["tori"] == {"A2": 339, "C2": 762}
    assert 0 < result["orbits"] < 339 + 762


def test_the_sweep_reports_planted_failures(monkeypatch):
    # the A2 tori (3,0),(2,2) / (6,0),(1,1) / (6,0),(4,1) form one Weyl
    # orbit: the zeta data of another torus planted on the last, and a
    # verify planted to fail on the second, are both reported
    verify, zeta_bundle = torus_sweep.verify, torus_sweep.zeta_bundle
    other = build(A2, TorusSpec((3, 0), (1, 1)))

    def planted_verify(q):
        report = verify(q)
        if q.rs is A2 and q.gamma0_basis == ((6, 0), (1, 1)):
            report = report._replace(records=(report.records[0]._replace(holds=False),))
        return report

    def planted_bundle(q):
        return zeta_bundle(other if q.rs is A2 and q.gamma0_basis == ((6, 0), (4, 1)) else q)

    monkeypatch.setattr(torus_sweep, "verify", planted_verify)
    monkeypatch.setattr(torus_sweep, "zeta_bundle", planted_bundle)
    assert sweep(6)["failures"] == [
        ("A2", ((6, 0), (1, 1)), "verify does not hold"),
        ("A2", ((6, 0), (4, 1)), "zeta data differ from those of ((3, 0), (2, 2))"),
    ]


def test_the_script_takes_the_index_as_its_argument():
    env = {"PYTHONPATH": str(ROOT / "src")}
    script = str(ROOT / "tests" / "torus_sweep.py")
    run = subprocess.run([sys.executable, script, "12"], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "D=12: {'A2': 15, 'C2': 33} tori, 24 Weyl orbits, 0 failures\n"
    run = subprocess.run([sys.executable, script], capture_output=True, text=True, env=env)
    assert run.returncode == 2 and run.stderr.startswith("usage")
