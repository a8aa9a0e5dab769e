"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Self-time arithmetic on a synthetic span tree, and exact repetition of the
traced counts across two traced passes at one seed.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer  # noqa: E402
from tracer import FAMILIES, Hooks, Span, Tracer, covered, layer_metrics, self_times  # noqa: E402
from workloads import (  # noqa: E402
    TOL_DECADES,
    WORKLOADS,
    PassOutput,
    Workload,
    gap_check,
    reference_range,
    run_pass,
    validate,
)


def _tree():
    # root [0, 10]; children a [1, 4] and b [3, 6] overlap on [3, 4];
    # c [8, 12] runs past the root's end; a has a child d [2, 3] and 0.5 s
    # of aggregated objective calls.
    return [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "harness.search", 1.0, 4.0, agg_s=0.5),
        Span(2, 0, "harness.mc", 3.0, 6.0),
        Span(3, 0, "checks.run", 8.0, 12.0),
        Span(4, 1, "optimizers.run", 2.0, 3.0),
    ]


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert covered([], 0, 10) == 0.0
    assert covered([(11, 12)], 0, 10) == 0.0


def test_self_time_is_span_minus_child_coverage():
    own = self_times(_tree())
    assert own[0] == pytest.approx(10.0 - 7.0)  # children cover [1, 6] and [8, 10]
    assert own[1] == pytest.approx(3.0 - 1.0 - 0.5)  # minus child d and the objective calls
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(1.0)


def test_layer_self_times_account_for_the_pass():
    tr = Tracer(clock=iter([0.0, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]).__next__)
    with tr.span("perfbench.pass"):
        with tr.span("cli.main"):
            with tr.span("optimizers.run") as sp:
                sp.attrs.update(kind="cm", steps=3, diverged=False)
                tr.counted("eval", lambda x: x)(0)
            with tr.span("harness.csv.write") as sp:
                sp.attrs["bytes"] = 10
    m = layer_metrics(tr)
    assert m["trace.wall_s"] == pytest.approx(5.0)
    assert m["objectives.eval.count"] == 1
    assert m["objectives.eval.s"] == pytest.approx(0.5)
    assert m["optimizers.run.self_s"] == pytest.approx(1.0)
    assert m["optimizers.step_self_us.cm"] == pytest.approx(1e6 / 3)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["harness.self_s"] == pytest.approx(0.5)
    assert m["perfbench.self_s"] == pytest.approx(1.5)
    assert m["harness.csv.write_bytes"] == 10
    assert m["trace.unaccounted_s"] == pytest.approx(0.0, abs=1e-12)


def test_hooks_restore_every_binding():
    from contactopt import checks, cli, harness, optimizers

    before = (cli.main, harness.run, optimizers.run, dict(checks.CHECK_FAMILIES))
    with Hooks(Tracer()) as hooks:
        assert harness.run is optimizers.run is not before[1]
        assert checks.CHECK_FAMILIES["orders"] is checks.check_orders
        assert hooks.missing == []
    assert (cli.main, harness.run, optimizers.run, dict(checks.CHECK_FAMILIES)) == before


def test_missing_hook_fails_the_traced_pass(monkeypatch):
    from contactopt import harness  # noqa: F401  (the hooks look in sys.modules)

    gone = ("contactopt.harness", "no_such_function", "harness.gone", None)
    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + [gone])
    with Hooks(Tracer()) as hooks:
        pass
    assert hooks.missing == ["contactopt.harness.no_such_function"]
    passing = "".join(f"[PASS] {fam}: ok\n" for fam in FAMILIES)
    out = PassOutput(1.0, 1.0, [0], {"check": passing}, {}, missing_hooks=hooks.missing)
    verdict = validate(WORKLOADS["certify"], 0, out, {})
    assert verdict.failed == verdict.attempted == len(FAMILIES)
    assert any("no_such_function" in p for p in verdict.problems)


def test_build_repeat_ratio_counts_equal_inputs():
    tr = Tracer()
    for inputs in ("q[seed=1]", "q[seed=1]", "q[seed=1]", "q[seed=7]"):
        with tr.span("objectives.build") as sp:
            sp.attrs["inputs"] = inputs
    assert layer_metrics(tr)["objectives.build.repeat_ratio"] == pytest.approx(0.5)


def test_gap_check_is_tight_at_recorded_seeds():
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    tune = WORKLOADS["quartic-tune"]
    assert gap_check(reference, tune, 42) == "recorded"
    assert gap_check(reference, tune, 999_999) == "span"
    assert gap_check(reference, WORKLOADS["certify"], 42) is None
    lo, hi = reference_range(reference, tune, 42, "cm")
    assert lo < reference["quartic-tune"]["42"]["cm"] < hi
    assert hi / lo == pytest.approx(10 ** (2 * TOL_DECADES))


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    computed = set(layer_metrics(Tracer()))
    # filled in by run.py from all traced passes, not from one
    pooled = {"harness.trial_ms.p50", "harness.trial_ms.p99",
              "harness.mc.heldout_shared_draws", "trace.overhead_s"}
    # 0 by construction, so printed as a check rather than declared
    assert computed | pooled == declared | {"trace.unaccounted_s"}


def test_traced_counts_repeat_exactly(tmp_path):
    from contactopt import cli

    base = WORKLOADS["quartic-tune"]
    small = Workload("quartic-small", preset=base.preset, scale=base.scale,
                     overrides=(("search_trials", 6), ("iters", 80)))
    keys = ("objectives.build.count", "objectives.eval.count", "objectives.grad.count",
            "optimizers.steps", "optimizers.diverged", "optimizers.run.count")
    seen = []
    for _ in range(2):
        tr = Tracer()
        run_pass(cli, small, 42, str(tmp_path), tr)
        seen.append({k: layer_metrics(tr)[k] for k in keys})
    assert seen[0] == seen[1]
    assert seen[0]["optimizers.steps"] > 0
    assert seen[0]["optimizers.run.count"] == 4 * (6 + 1)
