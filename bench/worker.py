"""One workload run in its own process: set up, run timed passes, report.

Started by run.py, never by hand:

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 [--setup-only]

The worker imports weylzeta from the checkout's ``src``, draws the
workload's inputs and prints ``ready`` just before its first timed call,
which is where run.py stops the set-up clock.  It then runs passes over
the workload's CLI calls, in process through ``weylzeta.cli.main`` with
stdout captured, until ``--seconds`` have gone by, and prints one JSON
line.  With ``--trace 1`` the first half of the time runs untraced and
the second half under the tracer, so the tracing overhead is measured in
the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from reference import NOMINAL_S, reference_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
TORUS_LABEL = re.compile(r"verify:(A2|C2)-torus-N(\d+)")


def import_program():
    """weylzeta.cli from this checkout's src, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import weylzeta.cli

    if not Path(weylzeta.cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"weylzeta was imported from outside {src}")
    return weylzeta.cli


def check_output(call, code, out: str, digests: dict):
    """None when the call is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}"
    if call.reports_all_hold:
        try:
            holds = json.loads(out).get("all_hold")
        except ValueError:
            return "output is not JSON"
        if holds is not True:
            return "all_hold is not true"
    expected = digests.get(call.label)
    if expected is None:
        return "no recorded digest"
    if hashlib.sha256(out.encode("utf-8")).hexdigest() != expected:
        return "output differs from the recorded digest"
    return None


class Runner:
    """Runs calls through the CLI, timing each and checking its output."""

    def __init__(self, cli, calls, digests):
        self.cli = cli
        self.calls = calls
        self.digests = digests
        self.attempted = 0
        self.failures: list = []
        self.call_times: dict = {c.label: [] for c in calls}
        self.outputs: dict = {}

    def run_call(self, call) -> float:
        buf = io.StringIO()
        error = None
        with contextlib.redirect_stdout(buf):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed call; the run goes on
                code, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        out = buf.getvalue()
        self.attempted += 1
        self.outputs[call.label] = out
        problem = error or check_output(call, code, out, self.digests)
        if problem:
            self.failures.append(f"{call.label}: {problem}")
        self.call_times[call.label].append(elapsed)
        return elapsed

    def run_pass(self) -> tuple:
        """Seconds of one pass over the calls: as measured, and at the
        reference host speed, each call scaled by the reference timed
        just before and just after it."""
        measured = scaled = 0.0
        before = reference_seconds()
        for call in self.calls:
            elapsed = self.run_call(call)
            after = reference_seconds()
            measured += elapsed
            scaled += elapsed * NOMINAL_S * 2 / (before + after)
            before = after
        return measured, scaled

    def run_passes(self, budget: float) -> tuple:
        """(measured, scaled) pass times of whole passes, while another
        median pass still fits in budget seconds; at least one pass."""
        measured, scaled, durations = [], [], []
        start = time.perf_counter()
        while True:
            m, s = self.run_pass()
            measured.append(m)
            scaled.append(s)
            durations.append(time.perf_counter() - start - sum(durations))
            if time.perf_counter() - start + statistics.median(durations) > budget:
                return measured, scaled


def scaling_exponent(points):
    """Common log-log slope of time against N, one intercept per root system.

    points are (root system, N, seconds); None when no root system has two
    different N.
    """
    groups: dict = {}
    for rs, n, seconds in points:
        groups.setdefault(rs, {})[n] = seconds
    sxy = sxx = 0.0
    for by_n in groups.values():
        xs = [math.log(n) for n in by_n]
        ys = [math.log(t) for t in by_n.values()]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        sxy += sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx += sum((x - mx) ** 2 for x in xs)
    return sxy / sxx if sxx > 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        calls = workloads.make_calls(args.workload, args.seed, ROOT, workdir)
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        runner = Runner(cli, calls, digests)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result: dict = {}
        if args.trace:
            from tracer import Tracer

            untraced, untraced_scaled = runner.run_passes(args.seconds / 2)
            tracer = Tracer()
            with tracer:
                traced, traced_scaled = runner.run_passes(args.seconds / 2)
            layers = tracer.layer_metrics(len(traced))
            layers["trace.overhead_ratio"] = statistics.median(
                traced_scaled
            ) / statistics.median(untraced_scaled)
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_file)
            result.update(
                passes=untraced,
                scaled_passes=untraced_scaled,
                traced_passes=traced,
                layers=layers,
                unwrapped=tracer.unwrapped,
                trace_file=str(trace_file.relative_to(ROOT)),
            )
        else:
            result["passes"], result["scaled_passes"] = runner.run_passes(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # the untraced passes come first, so these medians are untraced in both modes
    untraced_passes = len(result["passes"])
    call_medians = {
        k: statistics.median(v[:untraced_passes]) for k, v in runner.call_times.items()
    }
    torus_times = [
        (m.group(1), int(m.group(2)), t)
        for label, t in call_medians.items()
        if (m := TORUS_LABEL.fullmatch(label))
    ]
    result.update(
        attempted=runner.attempted,
        failures=runner.failures,
        call_medians=call_medians,
        scaling_exponent=scaling_exponent(torus_times),
        digests={
            k: hashlib.sha256(v.encode("utf-8")).hexdigest() for k, v in runner.outputs.items()
        },
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
