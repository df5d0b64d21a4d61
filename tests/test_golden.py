"""Golden output: exact stdout bytes of the CLI commands on the samples.

The expected files under tests/golden/ were written by the CLI itself:

    weylzeta zeta     --input samples/<name>.spec --format json
    weylzeta verify   --input samples/<name>.spec --format json
    weylzeta zeta     --input samples/<name>.spec --format text  (<name>.zeta.txt)
    weylzeta describe --input samples/<name>.spec --format json|text
    weylzeta counts   --input samples/<name>.spec --max-n 12 --format json|text

(JSON as <command>_<name>.json, text as <name>.<command>.txt.)  Any
change of representation inside the package must leave these bytes
unchanged.  The `verify` and `zeta --format json` outputs and every
`describe` and `counts` output of all four samples are also compared
from a `python -O` subprocess, so the glide-line-count record, the
transfer systems, the reduced forms, the census and the explicit checks
they rely on are shown to run without asserts.
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
EXTRA_ARGS = {"counts": ["--max-n", "12"]}


def _argv(sample, command, fmt="json"):
    spec = ROOT / "samples" / f"{sample}.spec"
    return [command, "--input", str(spec), *EXTRA_ARGS.get(command, ()), "--format", fmt]


def _golden(sample, command, fmt):
    name = f"{command}_{sample}.json" if fmt == "json" else f"{sample}.{command}.txt"
    return (GOLDEN / name).read_text()


@pytest.mark.parametrize("command", ("zeta", "verify"))
@pytest.mark.parametrize("sample", SAMPLES)
def test_json_output_bytes_match_golden(sample, command, capsys):
    assert main(_argv(sample, command)) == 0
    assert capsys.readouterr().out == _golden(sample, command, "json")


@pytest.mark.parametrize("sample", SAMPLES)
def test_zeta_text_output_bytes_match_golden(sample, capsys):
    assert main(_argv(sample, "zeta", "text")) == 0
    assert capsys.readouterr().out == _golden(sample, "zeta", "text")


@pytest.mark.parametrize("fmt", ("json", "text"))
@pytest.mark.parametrize("command", ("describe", "counts"))
@pytest.mark.parametrize("sample", SAMPLES)
def test_describe_and_counts_bytes_match_golden(sample, command, fmt, capsys):
    assert main(_argv(sample, command, fmt)) == 0
    assert capsys.readouterr().out == _golden(sample, command, fmt)


def _run_under_python_O(sample, command, fmt="json"):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-O", "-m", "weylzeta.cli", *_argv(sample, command, fmt)],
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
    assert done.stdout == _golden(sample, "verify", "json")


@pytest.mark.parametrize("sample", ("a2_torus", "c2_torus"))
def test_torus_verify_bytes_match_golden_under_python_O(sample):
    # torus transfer systems, whose orbits are single states, and their
    # bijection check must run unchanged when asserts are stripped
    done = _run_under_python_O(sample, "verify")
    assert done.returncode == 0, done.stderr
    assert done.stdout == _golden(sample, "verify", "json")


@pytest.mark.parametrize("sample", SAMPLES)
def test_zeta_bytes_match_golden_under_python_O(sample):
    # the same-sign reduction, the expansions in u and the shared memo
    # must run unchanged when asserts are stripped
    done = _run_under_python_O(sample, "zeta")
    assert done.returncode == 0, done.stderr
    assert done.stdout == _golden(sample, "zeta", "json")


@pytest.mark.parametrize("fmt", ("json", "text"))
@pytest.mark.parametrize("command", ("describe", "counts"))
@pytest.mark.parametrize("sample", SAMPLES)
def test_describe_and_counts_bytes_match_golden_under_python_O(sample, command, fmt):
    # the invariants report and the closed-form census tables must run
    # unchanged when asserts are stripped
    done = _run_under_python_O(sample, command, fmt)
    assert done.returncode == 0, done.stderr
    assert done.stdout == _golden(sample, command, fmt)
