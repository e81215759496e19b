"""Spans around the public functions of each evlhts module, recorded from
outside the program.

``Tracer.installed()`` swaps each traced attribute for a wrapper that
records (name, start, end, parent, thread, counters) and puts the original
back on exit.  Callers reach the kernels and layer functions through module
attributes (``engine.word_first_hit``, ``evl.sample_ball_min_distances``) or
through names ``experiments`` imported, so the wrapper is installed on every
owner the program looks the name up on.  Spans stay in memory until
``write`` stores them as JSON.
"""

import contextlib
import functools
import inspect
import itertools
import json
import math
import os
import threading
import time

import numpy as np

from evlhts import config, conditions, cylinders, engine, evl, experiments, \
    hts, laws, measures, rng

FIRST_HIT_KERNELS = ("word_first_hit", "ball_first_hit_digits", "mp_first_hit")
WINDOW_KERNELS = {"word_hit_count": "window",
                  "digit_window_min_distance": "n_steps"}
RATE_KERNELS = FIRST_HIT_KERNELS + tuple(WINDOW_KERNELS)
SELF_ONLY_KERNELS = ("iid_min_distance_uniform", "conditional_digit_starts",
                     "rotation_first_hit")

# Spans above the engine whose self-times the trace reports, in metric order.
LAYER_SPANS = (
    "evl.sample_cylinder_no_entry", "evl.sample_ball_min_distances",
    "evl.ball_maxima_values", "evl.quantile_normalizers",
    "hts.sample_hit_times", "hts.ball_target",
    "conditions.dprime_estimate", "conditions.mixing_gap_estimate",
    "measures.ball_masses", "measures.quantile_radius",
    "measures.EmpiricalOrbit",
    "cylinders.smb_estimate", "cylinders.PartitionContext",
    "laws.ks_statistic", "laws.EmpiricalLaw",
    "config.ExperimentConfig", "experiments.write_report",
)
SELF_ONLY_SPANS = (
    tuple(f"engine.{k}" for k in SELF_ONLY_KERNELS) + ("engine.run_blocked",)
    + LAYER_SPANS
)
SELF_SPANS = (("engine.draw_digits",) + tuple(f"engine.{k}" for k in RATE_KERNELS)
              + SELF_ONLY_SPANS)
_UNSET = object()


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _first_hit_counts(fn):
    """Lane-steps min(time, cap) - start_j summed over lanes."""
    def count(args, kwargs, result):
        a = _arguments(fn, args, kwargs)
        times = np.minimum(result[0], a["cap"]) - a["start_j"]
        return {"lane_steps": int(times.sum())}
    return count


def _window_counts(fn, steps_arg):
    def count(args, kwargs, result):
        a = _arguments(fn, args, kwargs)
        return {"lane_steps": int(a["count"]) * int(a[steps_arg])}
    return count


def _size_counts(key):
    """Elements of the returned array: digits drawn, radii evaluated."""
    return lambda args, kwargs, result: {key: int(result.size)}


def _censoring(args, kwargs, result):
    return {"lanes": result.n_samples, "censored": result.n_censored}


def _report_bytes(args, kwargs, result):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    return {"bytes": sum(os.path.getsize(os.path.join(out_dir, name))
                         for name in ("summary.json", "data.csv", "plot.csv"))}


class Tracer:
    """In-memory span recorder; one instance per traced sequence."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counts=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(tracer._ids)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = _UNSET
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": threading.get_ident(),
                    "counts": counts(args, kwargs, result)
                    if counts is not None and result is not _UNSET else {},
                })
        return traced

    def _wrap_run_blocked(self, fn):
        tracer = self

        def run_blocked(n_samples, master_seed, labels, kernel, threads=1):
            parent = tracer._stack()[-1]

            def kernel_in_span(gen, count):
                # pool threads start with an empty stack: parent their
                # kernel spans on this run_blocked span
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return kernel(gen, count)
                finally:
                    stack.pop()
            return fn(n_samples, master_seed, labels, kernel_in_span,
                      threads=threads)

        def blocks(args, kwargs, result):
            n_samples = _arguments(fn, args, kwargs)["n_samples"]
            return {"blocks": len(rng.block_slices(n_samples))}

        return self.wrap("engine.run_blocked",
                         functools.wraps(fn)(run_blocked), blocks)

    def _patches(self):
        """(owner, attribute, replacement) for every traced name."""
        out = []

        def patch(owners, attr, name, counts=None):
            original = inspect.getattr_static(owners[0], attr)
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(name, original.__func__, counts))
            else:
                wrapped = self.wrap(name, original, counts)
            out.extend((owner, attr, wrapped) for owner in owners)

        patch([rng, engine, measures, experiments], "substream", "rng.substream")
        patch([engine], "draw_digits", "engine.draw_digits",
              _size_counts("digits"))
        for kernel in FIRST_HIT_KERNELS:
            fn = getattr(engine, kernel)
            patch([engine], kernel, f"engine.{kernel}", _first_hit_counts(fn))
        for kernel, steps_arg in WINDOW_KERNELS.items():
            fn = getattr(engine, kernel)
            patch([engine], kernel, f"engine.{kernel}",
                  _window_counts(fn, steps_arg))
        for kernel in SELF_ONLY_KERNELS:
            patch([engine], kernel, f"engine.{kernel}")
        out.append((engine, "run_blocked",
                    self._wrap_run_blocked(engine.run_blocked)))
        for fn_name in ("sample_cylinder_no_entry", "sample_ball_min_distances",
                        "ball_maxima_values", "quantile_normalizers"):
            patch([evl], fn_name, f"evl.{fn_name}")
        patch([hts], "sample_hit_times", "hts.sample_hit_times", _censoring)
        patch([hts], "ball_target", "hts.ball_target")
        for fn_name in ("dprime_estimate", "mixing_gap_estimate"):
            patch([conditions, experiments], fn_name, f"conditions.{fn_name}")
        for owner in (measures.MeasureModel, measures.Lebesgue1D):
            patch([owner], "ball_masses", "measures.ball_masses",
                  _size_counts("radii"))
        patch([measures.MeasureModel], "quantile_radius",
              "measures.quantile_radius")
        patch([measures.EmpiricalOrbit], "__init__", "measures.EmpiricalOrbit")
        patch([cylinders, experiments], "smb_estimate", "cylinders.smb_estimate")
        patch([cylinders.PartitionContext], "__post_init__",
              "cylinders.PartitionContext")
        patch([laws, experiments], "ks_statistic", "laws.ks_statistic")
        patch([laws.EmpiricalLaw], "__post_init__", "laws.EmpiricalLaw")
        patch([config.ExperimentConfig], "from_file", "config.ExperimentConfig")
        patch([experiments], "write_report", "experiments.write_report",
              _report_bytes)
        return out

    @contextlib.contextmanager
    def installed(self):
        """Swap every traced name for its wrapper; restore on exit."""
        patches = self._patches()
        saved = [(owner, attr, inspect.getattr_static(owner, attr))
                 for owner, attr, _ in patches]
        try:
            for owner, attr, wrapped in patches:
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _union_length(intervals) -> float:
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = _union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(s["id"], ()))
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans, sequences: int, traced_wall: float,
                  overhead_ratio: float) -> dict:
    """Every per-layer metric, as name -> (value, unit).

    Self-times and counts are per sequence: totals over the ``sequences``
    traced passes divided by their number.  ``traced_wall`` is the measured
    wall time of those passes; ``overhead_ratio`` compares them with the
    untraced passes paired with them.
    """
    own = self_times(spans)
    self_s = dict.fromkeys(SELF_SPANS, 0.0)
    span_s, counts = {}, {}
    for s in spans:
        name = s["name"]
        span_s[name] = span_s.get(name, 0.0) + (s["end"] - s["start"])
        if name in self_s:
            self_s[name] += own[s["id"]]
        for key, value in (("calls", 1), *s["counts"].items()):
            counts[(name, key)] = counts.get((name, key), 0) + value

    def count(name, key):
        return counts.get((name, key), 0) / sequences

    def rate(name, key, seconds):
        return counts.get((name, key), 0) / seconds if seconds > 0 else 0.0

    m = {"rng.substream.calls": (count("rng.substream", "calls"), "count")}
    digits = "engine.draw_digits"
    m[f"{digits}.self_s"] = (self_s[digits] / sequences, "s")
    m[f"{digits}.digits"] = (count(digits, "digits"), "count")
    m[f"{digits}.digits_per_s"] = (rate(digits, "digits", self_s[digits]), "1/s")
    for kernel in RATE_KERNELS:
        name = f"engine.{kernel}"
        m[f"{name}.self_s"] = (self_s[name] / sequences, "s")
        m[f"{name}.lane_steps"] = (count(name, "lane_steps"), "count")
        # whole kernel span, its own digit draws included
        m[f"{name}.lane_steps_per_s"] = (
            rate(name, "lane_steps", span_s.get(name, 0.0)), "1/s")
    for name in SELF_ONLY_SPANS:
        m[f"{name}.self_s"] = (self_s[name] / sequences, "s")
    m["engine.run_blocked.blocks"] = (count("engine.run_blocked", "blocks"),
                                      "count")
    lanes = counts.get(("hts.sample_hit_times", "lanes"), 0)
    censored = counts.get(("hts.sample_hit_times", "censored"), 0)
    m["engine.censored_ratio"] = (censored / lanes if lanes else 0.0, "ratio")
    m["measures.ball_masses.radii"] = (count("measures.ball_masses", "radii"),
                                       "count")
    m["experiments.write_report.bytes"] = (
        count("experiments.write_report", "bytes"), "count")
    covered = _union_length((s["start"], s["end"]) for s in spans)
    m["trace.wall_s"] = (traced_wall / sequences, "s")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["trace.unexplained_ratio"] = ((traced_wall - covered) / traced_wall,
                                    "ratio")
    return m
