"""The benchmark's span tracer still wraps the L-path it times.

bench/tracer.py wraps weylzeta's functions by name from outside the
package, and a name that no longer exists is skipped silently.  This
test runs the tracer around one in-process `verify` and checks that the
`zeta.l_poly_from_counts` span, which gives `zeta.lpoly_s` and
`zeta.l_degree`, is still recorded.  The tracer source is read and
executed in a fresh module, so nothing is written under bench/.
"""

import types
from pathlib import Path

import weylzeta.cli as cli

ROOT = Path(__file__).resolve().parent.parent


def _load_tracer() -> types.ModuleType:
    path = ROOT / "bench" / "tracer.py"
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_tracer_records_the_l_poly_span(capsys):
    tracer_mod = _load_tracer()
    spec = ROOT / "samples" / "c2_torus.spec"
    with tracer_mod.Tracer() as tracer:
        assert cli.main(["verify", "--input", str(spec), "--format", "json"]) == 0
    assert '"all_hold":true' in capsys.readouterr().out
    names = [span[0] for span in tracer.spans]
    assert "zeta.l_poly_from_counts" in names
    assert "weylzeta.zeta.l_poly_from_counts" not in tracer.unwrapped
    assert tracer.counts["zeta.l_degree"] > 0
    # uninstall put the originals back
    assert cli.main.__module__ == "weylzeta.cli" and not hasattr(cli.main, "__wrapped__")
