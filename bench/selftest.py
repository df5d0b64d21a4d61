"""Self-test of the benchmark harness itself (not of weylzeta).

    python3 bench/selftest.py

At the current commit it checks that:

* every name the tracer wraps resolves, a missing name is recorded rather
  than raised, and uninstalling puts the original functions back;
* one traced and one untraced pass of every workload give byte-identical
  output, all of it matching the recorded digests;
* every child span lies inside its parent and shares its trace id, every
  root span is a CLI call, and every self time is >= 0;
* BENCHMARK.json names exactly the workloads and metrics run.py reports;
* every Klein pool spec builds to its rung's cell, N and k.

Exits 0 and prints ``selftest ok`` when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import run
import tracer
import workloads
from worker import DIGESTS, OUT, ROOT, Runner, import_program, scaling_exponent


def check_names() -> None:
    import weylzeta.identities as identities

    original = identities.count_closed_walks
    t = tracer.Tracer().install()
    try:
        assert t.unwrapped == [], f"unresolved names: {t.unwrapped}"
        assert identities.count_closed_walks is not original, "identities binding not wrapped"
        t._patch("weylzeta.algebra", "no_such_function", "algebra.none", t._span_wrapper, None)
        assert t.unwrapped == ["weylzeta.algebra.no_such_function"]
    finally:
        t.uninstall()
    assert identities.count_closed_walks is original, "uninstall did not restore"


def check_spans(t: tracer.Tracer) -> None:
    assert t.spans, "no spans recorded"
    for name, start, end, parent, trace_id in t.spans:
        assert start <= end, name
        if parent < 0:
            assert name == "cli.main", f"root span {name} is not a CLI call"
            continue
        p_name, p_start, p_end, _, p_trace = t.spans[parent]
        assert p_start <= start and end <= p_end, f"{name} lies outside {p_name}"
        assert trace_id == p_trace, f"{name} has another trace id than {p_name}"
    assert min(t.self_times_ns()) >= 0, "negative self time"


def check_workloads(cli) -> None:
    digests = json.loads(DIGESTS.read_text())
    OUT.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        workdir = OUT / f"selftest-{os.getpid()}"
        workdir.mkdir()
        try:
            calls = workloads.make_calls(workload, 7, ROOT, workdir)
            plain = Runner(cli, calls, digests)
            plain.run_passes(0)
            traced = Runner(cli, calls, digests)
            t = tracer.Tracer()
            with t:
                traced.run_passes(0)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        assert not plain.failures, plain.failures
        assert not traced.failures, traced.failures
        assert plain.outputs == traced.outputs, f"{workload}: tracing changed the output"
        check_spans(t)
        layers = t.layer_metrics(1)
        assert layers["trace.unwrapped"] == 0
        print(f"  {workload}: {len(calls)} calls identical traced and untraced, "
              f"{len(t.spans)} spans nested")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def check_klein_pools() -> None:
    from weylzeta.quotient import KleinSpec, build
    from weylzeta.rootgeom import RootSystem

    for label, rs, n, k, specs in workloads.KLEIN_RUNGS:
        parity = 0 if "-beven-" in label else 1
        for alpha, beta, a, b, m in specs:
            q = build(RootSystem.make(rs), KleinSpec(alpha, beta, a, b, m))
            assert (q.N, q.k_gamma, q.b % 2) == (n, k, parity), (label, alpha, beta, a, b, m)
            if rs == "C2":
                assert q.type_rep == label.split("-")[1], (label, q.type_rep)


def check_scaling_exponent() -> None:
    points = [("A2", n, 0.5 * n**2) for n in (18, 72, 144)]
    points += [("C2", n, 3.0 * n**2) for n in (18, 72, 144)]
    assert math.isclose(scaling_exponent(points), 2.0)
    assert scaling_exponent([("A2", 3, 1.0), ("C2", 2, 1.0)]) is None


def main() -> int:
    cli = import_program()
    check_names()
    check_benchmark_json()
    check_klein_pools()
    check_scaling_exponent()
    check_workloads(cli)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
