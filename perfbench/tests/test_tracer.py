"""Tracer wiring, span accounting and the metric list in BENCHMARK.json."""

from __future__ import annotations

import importlib
import json
import sys

import pytest

import run
import tracer

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _bindings():
    """Every (module, attribute) that holds a function the tracer wraps."""
    import safeshift  # noqa: F401

    originals = {
        id(getattr(importlib.import_module(f"safeshift.{m}"), fn))
        for m, fns in tracer.SPANS.items() for fn in fns
    }
    return {
        (key, attr): value
        for key, mod in sys.modules.items()
        if key == "safeshift" or key.startswith("safeshift.")
        for attr, value in vars(mod).items()
        if id(value) in originals
    }


def test_every_binding_is_patched_and_restored():
    before = _bindings()
    names = {attr for _, attr in before}
    assert names == {fn for fns in tracer.SPANS.values() for fn in fns}
    # names bound with `from ... import` are patched where they are looked up
    for binding in [("safeshift.explore", "kde_fit"),
                    ("safeshift.robust_regression", "density_ratio"),
                    ("safeshift.cli", "run_experiment"),
                    ("safeshift", "density_ratio")]:
        assert binding in before

    with tracer.Tracer().installed():
        for (key, attr), original in before.items():
            assert getattr(sys.modules[key], attr) is not original, (key, attr)
    for (key, attr), original in before.items():
        assert getattr(sys.modules[key], attr) is original, (key, attr)


def test_traced_tiny_run_accounts_for_its_time(tiny_config, tmp_path):
    from safeshift import cli

    spans = tracer.Tracer()
    out = tmp_path / "traced"
    with spans.installed():
        run_s, code, _ = run.run_once(cli, ["run", "--config", str(tiny_config),
                                            "--out", str(out)], out)
    assert code == 0
    metrics = spans.metrics()
    assert metrics["cli.run_cmd.calls"] == 1
    assert metrics["explore.run_episode.calls"] == 3
    assert metrics["robust_regression.fit.calls"] == 3
    assert metrics["gp_baseline.gp_predict.calls"] == 0
    assert metrics["controller.simulate_closed_loop.steps"] == 3 * 2001
    assert metrics["explore.status.ok"] == 3
    # self times of all spans add up to the top-level span
    assert spans.self_time_total() == pytest.approx(metrics["cli.run_cmd.s"], rel=1e-9)
    assert 0 <= run_s - spans.self_time_total() < 0.1 * run_s
    assert all(parent is None or parent in spans.spans for parent, _ in spans.edges)
    assert [c for p, c in spans.edges if p is None] == ["cli.run_cmd"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(s) for s in run.per_layer_specs(tracer)
    ]


def test_scipy_import_time_counts_outermost_scipy_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     scipy._lib",
        "import time:       100 |        110 |   scipy",
        "import time:        40 |         40 |     scipy.linalg._x",
        "import time:        60 |        100 |   scipy.optimize",
        "import time:         5 |        215 | safeshift.robust_regression",
        "import time:         7 |          7 | scipy.special",
    ])
    assert run._scipy_import_s(log) == pytest.approx((110 + 100 + 7) / 1e6)
