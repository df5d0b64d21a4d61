"""Span tracer that wraps weylzeta's public functions from outside.

The program is not edited: ``Tracer.install`` replaces each traced
function at every weylzeta module that binds it, plus two methods of
``TransferSystem``, and ``Tracer.uninstall`` puts the originals back.
Spans live in memory as ``(name, start_ns, end_ns, parent, trace_id)``,
one trace id per root span (one CLI call); self times are computed from
them after the run.  ``QuotientGroup.transporter`` runs over a million
times per pass, so it only gets a call counter, not a span.

A traced name that no longer exists is recorded in ``unwrapped`` and
skipped, so a later refactor of the program does not break the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); the text before the first dot of the
# span name is its layer.
SPANS = (
    ("weylzeta.cli", "main", "cli.main"),
    ("weylzeta.specfile", "load_spec_file", "specfile.load_spec_file"),
    ("weylzeta.specfile", "parse_spec_text", "specfile.parse_spec_text"),
    ("weylzeta.specfile", "spec_to_json_dict", "specfile.spec_to_json_dict"),
    ("weylzeta.corpus", "generate_corpus", "corpus.generate_corpus"),
    ("weylzeta.quotient", "build", "quotient.build"),
    ("weylzeta.census", "count_closed_walks", "census.count_closed_walks"),
    ("weylzeta.census", "count_geodesic_walks", "census.count_geodesic_walks"),
    ("weylzeta.census", "count_semi_closings", "census.count_semi_closings"),
    ("weylzeta.census", "count_closed_galleries", "census.count_closed_galleries"),
    ("weylzeta.census", "lambda_set_size", "census.lambda_set_size"),
    ("weylzeta.zeta", "required_order", "zeta.required_order"),
    ("weylzeta.zeta", "zeta_bundle", "zeta.zeta_bundle"),
    ("weylzeta.zeta", "build_walk_system", "zeta.build_walk_system"),
    ("weylzeta.zeta", "build_semi_system", "zeta.build_semi_system"),
    ("weylzeta.zeta", "build_gallery_system", "zeta.build_gallery_system"),
    ("weylzeta.zeta", "TransferSystem.cycle_lengths", "zeta.TransferSystem.cycle_lengths"),
    ("weylzeta.zeta", "TransferSystem.zeta", "zeta.TransferSystem.zeta"),
    ("weylzeta.zeta", "zeta_walks", "zeta.zeta_walks"),
    ("weylzeta.zeta", "zeta_semi", "zeta.zeta_semi"),
    ("weylzeta.zeta", "zeta_galleries", "zeta.zeta_galleries"),
    ("weylzeta.zeta", "correction_factor", "zeta.correction_factor"),
    ("weylzeta.zeta", "torus_closed_form", "zeta.torus_closed_form"),
    ("weylzeta.zeta", "axis_factor", "zeta.axis_factor"),
    ("weylzeta.zeta", "l_function", "zeta.l_function"),
    ("weylzeta.zeta", "l_poly_from_counts", "zeta.l_poly_from_counts"),
    ("weylzeta.zeta", "exp_of_count_series", "zeta.exp_of_count_series"),
    ("weylzeta.algebra", "series_exp", "algebra.series_exp"),
    ("weylzeta.algebra", "reconstruct_poly_from_series", "algebra.reconstruct_poly_from_series"),
    ("weylzeta.algebra", "poly_gcd", "algebra.poly_gcd"),
    ("weylzeta.identities", "verify", "identities.verify"),
)

COUNTED = (("weylzeta.quotient", "QuotientGroup.transporter", "quotient.transporter_calls"),)

# Per-layer time metrics: the summed self time of the listed spans.
SELF_TIME_METRICS = {
    "census.walks_s": ("census.count_closed_walks",),
    "census.geodesic_s": ("census.count_geodesic_walks",),
    "census.semi_s": ("census.count_semi_closings",),
    "census.galleries_s": ("census.count_closed_galleries",),
    "census.glide_s": ("census.lambda_set_size",),
    "quotient.build_s": ("quotient.build",),
    "zeta.systems_s": (
        "zeta.build_walk_system",
        "zeta.build_semi_system",
        "zeta.build_gallery_system",
    ),
    "zeta.cycles_s": ("zeta.TransferSystem.cycle_lengths",),
    "zeta.products_s": (
        "zeta.TransferSystem.zeta",
        "zeta.zeta_walks",
        "zeta.zeta_semi",
        "zeta.zeta_galleries",
        "zeta.correction_factor",
        "zeta.torus_closed_form",
        "zeta.axis_factor",
    ),
    "zeta.lpoly_s": (
        "zeta.l_function",
        "zeta.l_poly_from_counts",
        "zeta.exp_of_count_series",
    ),
    "algebra.series_exp_s": ("algebra.series_exp",),
    "algebra.reconstruct_s": ("algebra.reconstruct_poly_from_series",),
    "algebra.poly_gcd_s": ("algebra.poly_gcd",),
    "identities.self_s": ("identities.verify",),
    "cli.self_s": ("cli.main",),
    "specfile.load_s": (
        "specfile.load_spec_file",
        "specfile.parse_spec_text",
        "specfile.spec_to_json_dict",
    ),
    "corpus.generate_s": ("corpus.generate_corpus",),
}

# Per-layer time metrics that include the time of child spans.
TOTAL_TIME_METRICS = {"identities.verify_s": ("identities.verify",)}

CALL_COUNT_METRICS = {
    "census.walks_calls": "census.count_closed_walks",
    "census.geodesic_calls": "census.count_geodesic_walks",
    "census.semi_calls": "census.count_semi_closings",
    "census.galleries_calls": "census.count_closed_galleries",
    "census.glide_calls": "census.lambda_set_size",
    "algebra.poly_gcd_calls": "algebra.poly_gcd",
    "identities.verify_calls": "identities.verify",
    "corpus.generate_calls": "corpus.generate_corpus",
}


def _count_observers():
    """Size counters taken from the arguments or results of some spans."""

    def classes(args, result, counts):
        counts["quotient.classes"] += result.N

    def states(args, result, counts):
        counts["zeta.states"] += result.size

    def cycles(args, result, counts):
        counts["zeta.cycles"] += len(result)

    def order(args, result, counts):
        counts["zeta.order"] += result.order

    def l_degree(args, result, counts):
        counts["zeta.l_degree"] += result.degree // 2  # degree in u = w**2

    return {
        "quotient.build": classes,
        "zeta.build_walk_system": states,
        "zeta.build_semi_system": states,
        "zeta.build_gallery_system": states,
        "zeta.TransferSystem.cycle_lengths": cycles,
        "zeta.zeta_bundle": order,
        "identities.verify": order,
        "zeta.l_poly_from_counts": l_degree,
    }


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.unwrapped: list = []
        self._stack: list = []
        self._roots = 0
        self._patches: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        observers = _count_observers()
        for module_name, attr, name in SPANS:
            self._patch(module_name, attr, name, self._span_wrapper, observers.get(name))
        for module_name, attr, name in COUNTED:
            self._patch(module_name, attr, name, self._counting_wrapper, None)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, module_name, attr, name, make_wrapper, observer) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.unwrapped.append(f"{module_name}.{attr}")
            return
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(module, cls_name, None)
            original = getattr(cls, meth, None) if cls is not None else None
            if original is None:
                self.unwrapped.append(f"{module_name}.{attr}")
                return
            # methods are looked up on the class, so one patch covers every caller
            self._set(cls, meth, make_wrapper(name, original, observer))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.unwrapped.append(f"{module_name}.{attr}")
            return
        wrapper = make_wrapper(name, original, observer)
        # every module that imported the function holds its own binding
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "weylzeta" or mod_name.startswith("weylzeta.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, fn, observer):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                parent = stack[-1]
                trace_id = spans[parent][4]
            else:
                parent = -1
                trace_id = self._roots
                self._roots += 1
            index = len(spans)
            spans.append((name, 0, 0, parent, trace_id))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, trace_id)
            if observer is not None:
                observer(args, result, counts)
            return result

        return wrapper

    def _counting_wrapper(self, name, fn, observer):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- analysis ------------------------------------------------------------

    def self_times_ns(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass layer metrics: self times, totals, call counts and sizes."""
        self_ns = self.self_times_ns()
        by_name_self: dict = defaultdict(int)
        by_name_total: dict = defaultdict(int)
        calls: Counter = Counter()
        layer_self: dict = defaultdict(int)
        for (name, start, end, _, _), s in zip(self.spans, self_ns):
            by_name_self[name] += s
            by_name_total[name] += end - start
            calls[name] += 1
            layer_self[name.split(".", 1)[0] + ".layer_self_s"] += s
        out: dict = {}
        for metric, names in SELF_TIME_METRICS.items():
            out[metric] = sum(by_name_self[n] for n in names) / 1e9 / passes
        for metric, names in TOTAL_TIME_METRICS.items():
            out[metric] = sum(by_name_total[n] for n in names) / 1e9 / passes
        for metric, ns in sorted(layer_self.items()):
            out[metric] = ns / 1e9 / passes
        for metric, name in CALL_COUNT_METRICS.items():
            out[metric] = calls[name] / passes
        for metric in (
            "quotient.transporter_calls",
            "quotient.classes",
            "zeta.states",
            "zeta.cycles",
            "zeta.order",
            "zeta.l_degree",
        ):
            out[metric] = self.counts[metric] / passes
        out["trace.unwrapped"] = len(self.unwrapped)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: name, start_ns, end_ns, parent, trace_id, self_ns."""
        with open(path, "w", encoding="utf-8") as handle:
            for span, s in zip(self.spans, self.self_times_ns()):
                handle.write(json.dumps([*span, s]) + "\n")
