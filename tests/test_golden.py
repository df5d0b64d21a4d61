"""Golden output: exact stdout bytes of `zeta` and `verify` JSON on the samples.

The expected files under tests/golden/ were written by the CLI itself:

    weylzeta zeta   --input samples/<name>.spec --format json
    weylzeta verify --input samples/<name>.spec --format json

Any change of representation inside the package must leave these bytes
unchanged.
"""

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
