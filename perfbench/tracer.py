"""Span tracer for the traced benchmark run.

The tracer wraps the layer functions of the `safeshift` modules from the
outside and records one span per call, nested by call order.  Callers
look a function up in their own module namespace (`explore` and
`robust_regression` bind names with `from ... import`), so every binding
of a wrapped function in every loaded `safeshift` module is patched, and
restored afterwards.  Modules are resolved with `importlib.import_module`,
because the package attribute `safeshift.density_ratio` is the
re-exported function, not the module.

Spans are aggregated in memory per name (calls, total time, self time)
and per parent -> child edge; self time is a span's duration minus the
durations of its direct child spans.  Counters are taken from the
arguments and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Layer functions wrapped per module.  Per-step leaves called from the
# integrator loop (desired points, residual closures) are left out: their
# time stays in the self time of the span that calls them.
SPANS = {
    "cli": ("run_cmd",),
    "explore": ("run_experiment", "run_episode", "make_learner"),
    "density_ratio": ("kde_fit", "kde_density", "density_ratio", "max_ratio_on_traj"),
    "robust_regression": ("fit", "predict"),
    "gp_baseline": ("gp_fit", "gp_predict"),
    "bounds": ("certify_trajectory",),
    "controller": ("simulate_closed_loop",),
    "core": ("safety_contains",),
}

THETA_Y_CEIL_DEFAULT = 1e8
EPISODE_STATUSES = ("ok", "touchdown", "no_safe_candidate", "diverged")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _queries(x) -> int:
    """Query points in an (m, d) array; a single (d,) point counts once."""
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _count_kde_density(counts, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    counts["density_ratio.kde_density.kernel_evals"] += (
        _queries(_arg(args, kwargs, 1, "x")) * len(model.samples)
    )


def _count_fit(theta_y_ceil):
    def count(counts, args, kwargs, result):
        counts["robust_regression.fit.rows"] += len(_arg(args, kwargs, 0, "dataset"))
        counts["robust_regression.fit.unconverged"] += not result.converged
        counts["robust_regression.fit.theta_y_at_ceiling"] += bool(
            (result.theta_y >= theta_y_ceil * (1.0 - 1e-9)).any()
        )

    return count


def _count_rows(metric, index, name):
    def count(counts, args, kwargs, result):
        counts[metric] += _queries(_arg(args, kwargs, index, name))

    return count


def _count_certify(counts, args, kwargs, result):
    counts["bounds.certify_trajectory.safe"] += bool(result.safe)


def _count_simulate(counts, args, kwargs, result):
    counts["controller.simulate_closed_loop.steps"] += len(result.times)


def _count_episode(counts, args, kwargs, result):
    counts["explore.run_episode.candidates"] += len(_arg(args, kwargs, 0, "pool"))
    counts["explore.run_episode.certified"] += result.n_certified
    counts[f"explore.status.{result.status}"] += 1


def _counters(theta_y_ceil: float) -> dict:
    return {
        "density_ratio.kde_density": _count_kde_density,
        "robust_regression.fit": _count_fit(theta_y_ceil),
        "robust_regression.predict": _count_rows("robust_regression.predict.rows", 1, "x"),
        "gp_baseline.gp_fit": _count_rows("gp_baseline.gp_fit.rows", 0, "inputs"),
        "gp_baseline.gp_predict": _count_rows("gp_baseline.gp_predict.rows", 1, "x"),
        "bounds.certify_trajectory": _count_certify,
        "controller.simulate_closed_loop": _count_simulate,
        "explore.run_episode": _count_episode,
    }


# (name, unit, better) of every counter metric the tracer reports, on top
# of calls / s / self_s for each span.
COUNTER_METRICS = (
    ("density_ratio.kde_density.kernel_evals", "count", "lower"),
    ("robust_regression.fit.rows", "count", "lower"),
    ("robust_regression.fit.unconverged", "count", "lower"),
    ("robust_regression.fit.theta_y_at_ceiling", "count", "lower"),
    ("robust_regression.predict.rows", "count", "lower"),
    ("gp_baseline.gp_fit.rows", "count", "lower"),
    ("gp_baseline.gp_predict.rows", "count", "lower"),
    ("bounds.certify_trajectory.safe", "count", "higher"),
    ("controller.simulate_closed_loop.steps", "count", "lower"),
    ("controller.steps_per_s", "1/s", "higher"),
    ("explore.admitted_share", "ratio", "higher"),
    ("explore.status.ok", "count", "higher"),
    ("explore.status.touchdown", "count", "higher"),
    ("explore.status.no_safe_candidate", "count", "lower"),
    ("explore.status.diverged", "count", "lower"),
)


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in SPANS.items() for fn in fns]


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric `Tracer.metrics` returns."""
    specs = []
    for name in span_names():
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
    return specs + list(COUNTER_METRICS)


class Tracer:
    """Aggregating span recorder; `installed()` patches and restores."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.edges: dict[tuple, list] = {}  # (parent, child) -> [calls, s]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [name, start, child time]

    def wrap(self, name, fn, counter=None):
        clock = time.perf_counter
        stack, edges, counts = self._stack, self.edges, self.counts
        record = self.spans.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                record[0] += 1
                record[1] += duration
                record[2] += duration - frame[2]
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][2] += duration
                edge = edges.setdefault((parent, name), [0, 0.0])
                edge[0] += 1
                edge[1] += duration
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        rr = importlib.import_module("safeshift.robust_regression")
        counters = _counters(getattr(rr, "THETA_Y_CEIL", THETA_Y_CEIL_DEFAULT))
        namespaces = [
            mod for key, mod in sorted(sys.modules.items())
            if key == "safeshift" or key.startswith("safeshift.")
        ]
        patches = []
        try:
            for module, fns in SPANS.items():
                mod = importlib.import_module(f"safeshift.{module}")
                for fn_name in fns:
                    original = getattr(mod, fn_name)
                    name = f"{module}.{fn_name}"
                    wrapper = self.wrap(name, original, counters.get(name))
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is original:
                                setattr(ns, attr, wrapper)
                                patches.append((ns, attr, original))
            yield self
        finally:
            for ns, attr, original in reversed(patches):
                setattr(ns, attr, original)

    def metrics(self) -> dict[str, float]:
        out = {}
        for name in span_names():
            calls, total, self_s = self.spans.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
        for name, _, _ in COUNTER_METRICS:
            out[name] = float(self.counts.get(name, 0.0))
        sim_s = out["controller.simulate_closed_loop.s"]
        out["controller.steps_per_s"] = (
            out["controller.simulate_closed_loop.steps"] / sim_s if sim_s > 0 else 0.0
        )
        scored = self.counts.get("explore.run_episode.candidates", 0.0)
        out["explore.admitted_share"] = (
            self.counts.get("explore.run_episode.certified", 0.0) / scored if scored else 0.0
        )
        return out

    def self_time_total(self) -> float:
        return sum(record[2] for record in self.spans.values())

    def to_json(self) -> dict:
        return {
            "spans": {name: {"calls": c, "s": s, "self_s": ss}
                      for name, (c, s, ss) in sorted(self.spans.items())},
            "edges": [{"parent": p, "child": c, "calls": n, "s": s}
                      for (p, c), (n, s) in sorted(self.edges.items(), key=str)],
            "counts": dict(sorted(self.counts.items())),
        }
