"""Golden output: exact stdout bytes of the CLI commands on the samples.

The expected files under tests/golden/ were written by the CLI itself:

    weylzeta zeta     --input samples/<name>.spec --format json
    weylzeta verify   --input samples/<name>.spec --format json
    weylzeta zeta     --input samples/<name>.spec --format text  (<name>.zeta.txt)
    weylzeta describe --input samples/<name>.spec --format json|text
    weylzeta counts   --input samples/<name>.spec --max-n 12 --format json|text
    weylzeta corpus   --seed 7 --format json|text  (corpus_seed7.json|.txt)

(JSON as <command>_<name>.json, text as <name>.<command>.txt.)  Any
change of representation inside the package must leave these bytes
unchanged.  The `verify` and `zeta --format json` outputs, every
`describe` and `counts` output of all four samples and both corpus
outputs are also compared from a `python -O` subprocess, so the
glide-line-count record, the transfer systems, the reduced forms, the
census and the explicit checks they rely on are shown to run without
asserts.  So is a verify whose L-reconstruction fails by a planted walk
count fault: its missing-P records and its Newton failure detail, as
test_identities.py writes and compares them (report_bytes under
planted_walk_counts, verify_failed_p_<rs>_<kind>_<fault>.json).  The
corpus builds 55 quotients of both kinds in one process, so it also
covers what the root systems keep from one quotient to the next.
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


CORPUS_ARGV = ["corpus", "--seed", "7", "--format"]
CORPUS_GOLDEN = {"json": "corpus_seed7.json", "text": "corpus_seed7.txt"}


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_corpus_seed7_bytes_match_golden(fmt, capsys):
    assert main([*CORPUS_ARGV, fmt]) == 0
    assert capsys.readouterr().out == (GOLDEN / CORPUS_GOLDEN[fmt]).read_text()


def _run_under_python_O(sample, command, fmt="json"):
    argv = [*CORPUS_ARGV, fmt] if command == "corpus" else _argv(sample, command, fmt)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
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


@pytest.mark.parametrize("fmt", ("json", "text"))
def test_corpus_seed7_bytes_match_golden_under_python_O(fmt):
    # the transfer-system plans the root systems keep across the corpus,
    # and their checks, must run unchanged when asserts are stripped
    done = _run_under_python_O(None, "corpus", fmt)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / CORPUS_GOLDEN[fmt]).read_text()


def test_failed_p_verify_bytes_match_golden_under_python_O():
    # the missing-P records and the Newton failure details of the planted
    # faults of test_identities.py must run unchanged when asserts are
    # stripped
    script = (
        "import sys\n"
        "import weylzeta.zeta as zeta_mod\n"
        "from weylzeta.identities import verify\n"
        "from test_identities import REFERENCE, planted_walk_counts, report_bytes\n"
        "for q in (REFERENCE[0], REFERENCE[2]):\n"
        "    for fault in ('tail', 'non-integer'):\n"
        "        zeta_mod.walk_count_table = planted_walk_counts(fault)\n"
        "        sys.stdout.write(report_bytes(verify(q)))\n"
    )
    path = os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests")))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "".join(
        (GOLDEN / f"verify_failed_p_a2_{kind}_{fault}.json").read_text()
        for kind in ("torus", "klein")
        for fault in ("tail", "non-integer")
    )
