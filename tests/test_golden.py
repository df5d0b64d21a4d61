"""Golden output: exact stdout bytes of `zeta` and `verify` on the samples.

The expected files under tests/golden/ were written by the CLI itself:

    weylzeta zeta   --input samples/<name>.spec --format json
    weylzeta verify --input samples/<name>.spec --format json
    weylzeta zeta   --input samples/<name>.spec --format text  (<name>.zeta.txt)

Any change of representation inside the package must leave these bytes
unchanged.  The `verify` and `zeta --format json` outputs of all four
samples are also compared from a `python -O` subprocess, so the
glide-line-count record, the transfer systems, the reduced forms and the
explicit checks they rely on are shown to run without asserts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from weylzeta.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SAMPLES = ("a2_klein", "a2_torus", "c2_klein_spin", "c2_torus")


@pytest.mark.parametrize("command", ("zeta", "verify"))
@pytest.mark.parametrize("sample", SAMPLES)
def test_json_output_bytes_match_golden(sample, command, capsys):
    spec = ROOT / "samples" / f"{sample}.spec"
    assert main([command, "--input", str(spec), "--format", "json"]) == 0
    expected = (GOLDEN / f"{command}_{sample}.json").read_text()
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("sample", SAMPLES)
def test_zeta_text_output_bytes_match_golden(sample, capsys):
    spec = ROOT / "samples" / f"{sample}.spec"
    assert main(["zeta", "--input", str(spec), "--format", "text"]) == 0
    expected = (GOLDEN / f"{sample}.zeta.txt").read_text()
    assert capsys.readouterr().out == expected


def _run_under_python_O(sample, command):
    spec = ROOT / "samples" / f"{sample}.spec"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [command, "--input", str(spec), "--format", "json"]
    return subprocess.run(
        [sys.executable, "-O", "-m", "weylzeta.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("sample", ("a2_klein", "c2_klein_spin"))
def test_klein_verify_bytes_match_golden_under_python_O(sample):
    # the glide-line-count record and its explicit raises must run
    # unchanged when asserts are stripped
    done = _run_under_python_O(sample, "verify")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"verify_{sample}.json").read_text()


@pytest.mark.parametrize("sample", ("a2_torus", "c2_torus"))
def test_torus_verify_bytes_match_golden_under_python_O(sample):
    # torus transfer systems, whose orbits are single states, and their
    # bijection check must run unchanged when asserts are stripped
    done = _run_under_python_O(sample, "verify")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"verify_{sample}.json").read_text()


@pytest.mark.parametrize("sample", SAMPLES)
def test_zeta_bytes_match_golden_under_python_O(sample):
    # the same-sign reduction, the expansions in u and the shared memo
    # must run unchanged when asserts are stripped
    done = _run_under_python_O(sample, "zeta")
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"zeta_{sample}.json").read_text()
