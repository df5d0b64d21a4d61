"""weylzeta benchmark: three workloads through the real CLI, timed and traced.

Run one workload (the form named in BENCHMARK.json; run from the repo root):

    python3 bench/run.py --workload ladder-verify --seed 7 --seconds 40 --trace 0

It prints a summary, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Other modes:

    python3 bench/run.py --record bench/BENCH_seed.json [--seconds 40]
        ten untraced runs of every workload on seeds 1..10 and one traced run
        on seed 7, written as a result file with the git sha, Python version
        and nproc; prints each metric's spread against its bound.
    python3 bench/run.py --compare BASE.json NEW.json
        one row per workload and end-to-end metric of two result files.
    python3 bench/run.py --write-digests
        records the sha256 of every call's output as bench/digests.json.

Each workload runs in fresh worker processes (bench/worker.py), one after
another, single-threaded.  Set-up time runs from starting a worker to its
first timed call; it is taken on five set-up-only workers and reported as
their median.  ``setup_s`` and ``wall_s`` are scaled to the reference host
speed (bench/reference.py); the summary also prints them as measured.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from reference import NOMINAL_S, reference_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
RECORD_RUNS = 10
RUN_TIMEOUT = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics reported by --trace 1.  Times of layers that only some
# workloads run (the verify-only census oracles, identities, corpus) are
# in the summary and the trace file; here they appear as call counts.
PER_LAYER = {
    "census.walks_s": "s",
    "census.walks_calls": "count",
    "census.geodesic_calls": "count",
    "census.semi_calls": "count",
    "census.galleries_calls": "count",
    "census.glide_calls": "count",
    "quotient.build_s": "s",
    "quotient.transporter_calls": "count",
    "quotient.classes": "count",
    "zeta.systems_s": "s",
    "zeta.states": "count",
    "zeta.cycles_s": "s",
    "zeta.cycles": "count",
    "zeta.products_s": "s",
    "zeta.lpoly_s": "s",
    "zeta.order": "count",
    "zeta.l_degree": "count",
    "algebra.series_exp_s": "s",
    "algebra.reconstruct_s": "s",
    "algebra.poly_gcd_s": "s",
    "algebra.poly_gcd_calls": "count",
    "identities.verify_calls": "count",
    "cli.self_s": "s",
    "specfile.load_s": "s",
    "corpus.generate_calls": "count",
    "trace.overhead_ratio": "ratio",
    "trace.unwrapped": "count",
}


def _worker(args: list, deadline: float):
    """Start a worker; return (seconds until it printed ready, its last line)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(deadline - time.monotonic(), 0)):
                raise TimeoutError("worker did not finish its set-up in time")
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        if first.strip() != "ready":
            proc.wait(max(deadline - time.monotonic(), 0))
            raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
        lines = rest.strip().splitlines()
        return setup, (lines[-1] if lines else "")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def _tail(values: list):
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    p = int(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _setup_times(common: list, deadline: float) -> tuple:
    """(measured, scaled) set-up times of SETUP_SAMPLES set-up-only workers,
    each scaled by the reference loop timed just before and after it."""
    measured, scaled = [], []
    before = reference_seconds()
    for _ in range(SETUP_SAMPLES):
        setup = _worker([*common, "--seconds", "0", "--setup-only"], deadline)[0]
        after = reference_seconds()
        measured.append(setup)
        scaled.append(setup * NOMINAL_S * 2 / (before + after))
        before = after
    return measured, scaled


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    deadline = time.monotonic() + RUN_TIMEOUT
    common = ["--workload", workload, "--seed", str(seed)]
    setups, scaled_setups = _setup_times(common, deadline)
    _, line = _worker([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    res = json.loads(line)
    passes = res["passes"]
    attempted, failed = res["attempted"], len(res["failures"])
    for failure in res["failures"][:10]:
        print(f"FAILED {failure}", file=sys.stderr)

    summary = {
        "fail_ratio": failed / attempted,
        "setup_s": statistics.median(scaled_setups),
        "setup_measured_s": statistics.median(setups),
        "wall_s": statistics.median(res["scaled_passes"]),
        "wall_measured_s": statistics.median(passes),
        "wall_measured_s_tail": _tail(passes),
        "peak_rss_mb": res["peak_rss_mb"],
        "passes": len(passes),
        "setups": len(setups),
        "ladder.scaling_exponent": res["scaling_exponent"],
    }
    tail = summary["wall_measured_s_tail"]
    print(f"{workload} seed {seed} trace {trace}: {attempted} calls, {failed} failed")
    print(f"  fail_ratio       {summary['fail_ratio']:.4g} ({failed}/{attempted})")
    print(f"  setup_s          {summary['setup_s']:.4f} s  (median of {len(setups)} set-ups "
          f"at the reference host speed)")
    print(f"  setup_measured_s {summary['setup_measured_s']:.4f} s  (the same, as measured)")
    print(f"  wall_s           {summary['wall_s']:.4f} s  (median of {len(passes)} passes "
          f"at the reference host speed)")
    print(f"  wall_measured_s  {summary['wall_measured_s']:.4f} s  (the same, as measured; "
          + (f"p{tail[0]} {tail[1]:.4f} s)" if tail else "no tail percentile below 11 passes)"))
    print(f"  peak_rss_mb      {summary['peak_rss_mb']:.1f} MB")
    for label, t in res["call_medians"].items():
        print(f"    {label:34s} {t:8.4f} s")
    if res["scaling_exponent"] is not None:
        print(f"  ladder.scaling_exponent {res['scaling_exponent']:.4f} "
              f"(log-log slope of torus verify time against N)")

    if trace:
        layers = {**res["layers"], "ladder.scaling_exponent": res["scaling_exponent"]}
        summary["layers"] = layers
        print(f"  traced passes {len(res['traced_passes'])}, "
              f"median {statistics.median(res['traced_passes']):.4f} s; "
              f"unwrapped {res['unwrapped']}; spans in {res['trace_file']}")
        for name, value in sorted(layers.items()):
            print(f"    {name:32s} {value if value is None else round(value, 6)}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": summary[k], "unit": u} for k, u in END_TO_END.items()}
    _summary_path(workload, seed, trace).write_text(json.dumps(summary, indent=1))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


def _summary_path(workload: str, seed: int, trace: int) -> Path:
    return BENCH / "out" / f"run-{workload}-seed{seed}-trace{trace}.json"


def _quartiles(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _bounds() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def _git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def _run_self(args: list) -> dict:
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=RUN_TIMEOUT + 10)
    if out.returncode != 0:
        raise RuntimeError(f"run {' '.join(args)} failed:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def record(path: Path, seconds: float) -> int:
    bounds = _bounds()
    doc = {
        "label": path.stem,
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": seconds,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry = {"runs": []}
        for seed in range(1, RECORD_RUNS + 1):
            res = _run_self(["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"])
            summary = json.loads(_summary_path(workload, seed, 0).read_text())
            entry["runs"].append({
                "seed": seed,
                "correct": res["correct"],
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {k: v["value"] for k, v in res["metrics"].items()},
                "setup_measured_s": summary["setup_measured_s"],
                "wall_measured_s": summary["wall_measured_s"],
            })
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k} {v['value']:.4f}" for k, v in res["metrics"].items()),
                  flush=True)
        entry["summary"] = {}
        for name in [*bounds, "setup_measured_s", "wall_measured_s"]:
            values = [r["metrics"].get(name, r.get(name)) for r in entry["runs"]]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med
            entry["summary"][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds[name]["bound"] if name in bounds else None
            print(f"  {workload} {name}: median {med:.4f}, spread {spread:.3f}"
                  + (f" (bound {bound}, a third {bound / 3:.3f})" if bound else
                     " (as measured, not gated)"), flush=True)
        _run_self(["--workload", workload, "--seed", "7", "--seconds", str(seconds),
                   "--trace", "1"])
        layers = json.loads(_summary_path(workload, 7, 1).read_text())["layers"]
        entry["trace"] = {"seed": 7, "metrics": layers}
        doc["workloads"][workload] = entry
    doc["ladder.scaling_exponent"] = (
        doc["workloads"]["ladder-verify"]["trace"]["metrics"]["ladder.scaling_exponent"]
    )
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def compare(base_path: Path, new_path: Path) -> int:
    bounds = _bounds()
    base = json.loads(base_path.read_text())
    new = json.loads(new_path.read_text())
    print(f"base {base_path} ({base.get('git_sha', '?')[:12]}), "
          f"new {new_path} ({new.get('git_sha', '?')[:12]}); ratio = new median / base median")
    print(f"{'workload':14s} {'metric':12s} {'base median [q1, q3]':>30s} "
          f"{'new median [q1, q3]':>30s} {'ratio':>7s}  verdict")
    for workload in base["workloads"]:
        if workload not in new["workloads"]:
            print(f"{workload:14s} missing from {new_path}")
            continue
        for name, spec in bounds.items():
            a = [r["metrics"][name] for r in base["workloads"][workload]["runs"]]
            b = [r["metrics"][name] for r in new["workloads"][workload]["runs"]]
            qa, qb = _quartiles(a), _quartiles(b)
            ratio = qb[1] / qa[1]
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            lower = spec["better"] == "lower"
            worse = ratio - 1 if lower else 1 - ratio
            if spread > spec["bound"]:
                all_better = max(b) < min(a) if lower else min(b) > max(a)
                verdict = "better in every run" if all_better else (
                    f"unresolved (spread {spread:.3f} > bound {spec['bound']})")
            elif worse > spec["bound"]:
                verdict = f"worse by more than the bound {spec['bound']}"
            else:
                verdict = f"within the bound {spec['bound']}"
            print(f"{workload:14s} {name:12s} "
                  f"{qa[1]:10.4f} [{qa[0]:.4f}, {qa[2]:.4f}] "
                  f"{qb[1]:10.4f} [{qb[0]:.4f}, {qb[2]:.4f}] {ratio:7.3f}  {verdict}")
    return 0


def write_digests() -> int:
    """Record output digests; the ladder runs on two seeds that must agree."""
    digests: dict = {}
    for workload, seeds in (("ladder-verify", (7, 8)), ("corpus-verify", (7,)),
                            ("zeta-deep", (7,))):
        for seed in seeds:
            _, line = _worker(["--workload", workload, "--seed", str(seed),
                               "--seconds", "0"], time.monotonic() + RUN_TIMEOUT)
            res = json.loads(line)
            for failure in res["failures"]:
                if not failure.endswith("no recorded digest") and "differs" not in failure:
                    raise RuntimeError(f"cannot record digests: {failure}")
            for label, digest in res["digests"].items():
                if digests.setdefault(label, digest) != digest:
                    raise RuntimeError(f"{label}: output depends on the seed")
    (BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, metavar="RESULT_JSON")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BASE_JSON", "NEW_JSON"))
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weylzeta" / "__init__.py").is_file():
        print(f"error: no weylzeta sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.record:
        return record(args.record, args.seconds)
    if args.write_digests:
        return write_digests()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
