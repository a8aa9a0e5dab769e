"""In-memory span tracer for the benchmark's traced runs.

Spans are recorded around calls into contactopt's public functions by
rebinding those names, from the benchmark's side, in every contactopt
module that holds them (``from .x import y`` copies a reference, so the
defining module alone is not enough).  Nothing under ``src/`` knows about
the tracer, and removing the hooks restores every original binding.

Objective ``eval`` and ``grad`` run about a million times per pass, so they
are not spans: each call adds its count and duration to a per-kind total
and to the span that is open when it runs.  A span's self time is its
duration minus the union of its child spans' intervals, minus that
aggregated objective time.
"""

import dataclasses
import functools
import inspect
import os
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

KINDS = ("cm", "nag", "rgd", "crgd")  # every preset tunes these four
FAMILIES = ("conformal", "orders", "equivalence", "dissipation", "specialization", "nag")


@dataclasses.dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)
    agg_s: float = 0.0  # objective eval/grad time spent while this span was innermost
    calls: Dict[str, int] = dataclasses.field(default_factory=lambda: {"eval": 0, "grad": 0})

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and aggregated objective calls for one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.calls = {"eval": [0, 0.0], "grad": [0, 0.0]}  # kind -> [count, seconds]
        self._stack: List[Span] = []

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def counted(self, kind: str, fn: Callable) -> Callable:
        """Wrap an objective callable so each call adds to the aggregates."""
        total = self.calls[kind]
        stack = self._stack
        clock = self.clock

        def wrapper(x):
            t0 = clock()
            out = fn(x)
            dt = clock() - t0
            total[0] += 1
            total[1] += dt
            if stack:
                top = stack[-1]
                top.agg_s += dt
                top.calls[kind] += 1
            return out

        return wrapper


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> Span:
        t = self.tracer
        parent = t._stack[-1].id if t._stack else None
        sp = Span(id=len(t.spans), parent=parent, name=self.name, start=t.clock())
        t.spans.append(sp)
        t._stack.append(sp)
        self.sp = sp
        return sp

    def __exit__(self, *exc) -> bool:
        self.sp.end = self.tracer.clock()
        self.tracer._stack.pop()
        return False


# ---------------------------------------------------------------------------
# Self-time arithmetic
# ---------------------------------------------------------------------------


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus child coverage minus aggregated call time."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(children.get(s.id, ()), s.start, s.end) - s.agg_s
        for s in spans
    }


def has_ancestor(span: Span, by_id: Dict[int, Span], name: str) -> bool:
    p = span.parent
    while p is not None:
        if by_id[p].name == name:
            return True
        p = by_id[p].parent
    return False


# ---------------------------------------------------------------------------
# Hooks into contactopt's public functions
# ---------------------------------------------------------------------------


def _bound(fn, args, kwargs) -> dict:
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _after_build(tracer, fn, args, kwargs, out, sp):
    bound = _bound(fn, args, kwargs)
    if bound.get("seed") is not None:
        sp.attrs["seed"] = int(bound["seed"])
    # builds with equal inputs make equal objectives: what a cache would reuse
    sp.attrs["inputs"] = f"{fn.__name__}{sorted(bound.items())}"
    for kind in ("eval", "grad"):
        # Objective is a frozen dataclass; swap the callables in place so
        # every holder of this object sees the counting wrapper.
        object.__setattr__(out, kind, tracer.counted(kind, getattr(out, kind)))


def _after_run(tracer, fn, args, kwargs, out, sp):
    sp.attrs["kind"] = out.kind
    sp.attrs["diverged"] = bool(out.diverged)
    # a diverged run took the step that blew up but did not record it
    sp.attrs["steps"] = len(out.trace) - 1 + int(out.diverged)


def _after_search(tracer, fn, args, kwargs, out, sp):
    sp.attrs["kind"] = out.kind


def _after_write(tracer, fn, args, kwargs, out, sp):
    path = _bound(fn, args, kwargs).get("path")
    sp.attrs["bytes"] = os.path.getsize(path) if path and os.path.exists(path) else 0


def _after_check(tracer, fn, args, kwargs, out, sp):
    sp.attrs["passed"] = sum(1 for r in out if r.passed)
    sp.attrs["results"] = len(out)


# (module, attribute, span name, callback run on the result)
HOOKS = [
    ("contactopt.cli", "main", "cli.main", None),
    ("contactopt.presets", "experiment_preset", "presets.build", None),
    ("contactopt.harness", "parse_experiment", "harness.parse", None),
    ("contactopt.harness", "spec_to_doc", "harness.spec_to_doc", None),
    ("contactopt.harness", "run_bench", "harness.bench", None),
    ("contactopt.harness", "random_search", "harness.search", _after_search),
    ("contactopt.harness", "monte_carlo", "harness.mc", None),
    ("contactopt.harness", "export_trace_csv", "harness.csv.write", _after_write),
    ("contactopt.harness", "export_band_csv", "harness.csv.write", _after_write),
    ("contactopt.harness", "read_trace_csv", "harness.csv.read", None),
    ("contactopt.harness", "estimate_rate", "harness.rate", None),
    ("contactopt.optimizers", "run", "optimizers.run", _after_run),
    ("contactopt.objectives", "make_random_quadratic", "objectives.build", _after_build),
    ("contactopt.objectives", "quartic", "objectives.build", _after_build),
    ("contactopt.objectives", "camelback", "objectives.build", _after_build),
    ("contactopt.objectives", "rosenbrock", "objectives.build", _after_build),
    ("contactopt.checks", "run_checks", "checks.run", None),
    *[("contactopt.checks", f"check_{fam}", f"checks.{fam}", _after_check) for fam in FAMILIES],
    ("contactopt.contact", "reference_integrate", "contact.reference_integrate", None),
    ("contactopt.contact", "conformal_factor", "contact.conformal_factor", None),
    ("contactopt.integrators", "integrate_split", "integrators.integrate_split", None),
]


def _wrap(tracer: Tracer, fn: Callable, name: str, after) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            out = fn(*args, **kwargs)
            if after is not None:
                after(tracer, fn, args, kwargs, out, sp)
            return out

    return wrapper


class Hooks:
    """Context manager installing span wrappers for one tracer.

    Leaving the context restores every rebinding.  Targets missing from the
    package (renamed or removed by a refactor) are listed in ``missing``;
    validation fails a traced pass that has any, since their metrics would
    read 0.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Hooks":
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "contactopt" or n.startswith("contactopt."))
        ]
        for mod_name, attr, span_name, after in HOOKS:
            mod = sys.modules.get(mod_name)
            original = getattr(mod, attr, None) if mod is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = _wrap(self.tracer, original, span_name, after)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is original:
                        self._undo.append((m, key, original))
                        setattr(m, key, wrapper)
                    elif isinstance(val, dict):
                        # registries such as checks.CHECK_FAMILIES
                        for dk, dv in list(val.items()):
                            if dv is original:
                                self._undo.append((val, dk, original))
                                val[dk] = wrapper
        return self

    def __exit__(self, *exc) -> bool:
        for target, key, original in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._undo.clear()
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Counts and times per layer for one traced pass.

    The pass itself is the one span named ``perfbench.pass``; every layer's
    self time plus the aggregated objective time adds up to its duration.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    named: Dict[str, List[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in named.get(name, ()))

    def count(name: str) -> int:
        return len(named.get(name, ()))

    def layer_self(layer: str) -> float:
        return sum(own[s.id] for s in spans if s.layer == layer)

    m: Dict[str, float] = {}
    ev, gr = tracer.calls["eval"], tracer.calls["grad"]
    builds = named.get("objectives.build", [])
    m["objectives.build.count"] = len(builds)
    m["objectives.build.s"] = sum(own[s.id] for s in builds)
    m["objectives.build.repeat_ratio"] = (
        1.0 - len({s.attrs["inputs"] for s in builds}) / len(builds) if builds else 0.0
    )
    m["objectives.eval.count"] = ev[0]
    m["objectives.eval.s"] = ev[1]
    m["objectives.grad.count"] = gr[0]
    m["objectives.grad.s"] = gr[1]

    runs = named.get("optimizers.run", [])
    steps = sum(s.attrs["steps"] for s in runs)
    m["optimizers.run.count"] = len(runs)
    m["optimizers.run.self_s"] = layer_self("optimizers")
    m["optimizers.steps"] = steps
    m["optimizers.evals_per_step"] = sum(s.calls["eval"] for s in runs) / steps if steps else 0.0
    for kind in KINDS:
        of_kind = [s for s in runs if s.attrs["kind"] == kind]
        k_steps = sum(s.attrs["steps"] for s in of_kind)
        m[f"optimizers.step_self_us.{kind}"] = (
            1e6 * sum(own[s.id] for s in of_kind) / k_steps if k_steps else 0.0
        )
        m[f"optimizers.evals_per_step.{kind}"] = (
            sum(s.calls["eval"] for s in of_kind) / k_steps if k_steps else 0.0
        )
    m["optimizers.diverged"] = sum(1 for s in runs if s.attrs["diverged"])
    trials = [s for s in runs if has_ancestor(s, by_id, "harness.search")]
    m["optimizers.useful_trial_ratio"] = (
        sum(1 for s in trials if not s.attrs["diverged"]) / len(trials) if trials else 0.0
    )

    for kind in KINDS:
        m[f"harness.search.s.{kind}"] = sum(
            s.duration for s in named.get("harness.search", ()) if s.attrs.get("kind") == kind
        )
    m["harness.trial.count"] = len(trials)
    m["harness.mc.s"] = total("harness.mc")
    m["harness.mc.reduce_s"] = sum(own[s.id] for s in named.get("harness.mc", ()))
    m["harness.csv.write_s"] = total("harness.csv.write")
    m["harness.csv.write_bytes"] = sum(s.attrs["bytes"] for s in named.get("harness.csv.write", ()))
    m["harness.csv.read_s"] = total("harness.csv.read")
    m["harness.self_s"] = layer_self("harness")

    for fam in FAMILIES:
        spans_f = named.get(f"checks.{fam}", [])
        m[f"checks.{fam}.s"] = sum(s.duration for s in spans_f)
        m[f"checks.{fam}.passed"] = sum(s.attrs["passed"] for s in spans_f)
    m["checks.self_s"] = layer_self("checks")

    for name in ("contact.reference_integrate", "contact.conformal_factor", "integrators.integrate_split"):
        m[f"{name}.count"] = count(name)
        m[f"{name}.s"] = total(name)
    m["contact.self_s"] = layer_self("contact")
    m["integrators.self_s"] = layer_self("integrators")

    m["presets.build_s"] = layer_self("presets")
    m["cli.self_s"] = layer_self("cli")
    m["perfbench.self_s"] = layer_self("perfbench")
    wall = total("perfbench.pass")
    m["trace.wall_s"] = wall
    m["trace.unaccounted_s"] = wall - sum(own.values()) - ev[1] - gr[1]
    return m


def trial_durations_ms(tracer: Tracer) -> List[float]:
    """Durations of the optimizer runs made inside a random search."""
    by_id = {s.id: s for s in tracer.spans}
    return [
        1e3 * s.duration
        for s in tracer.spans
        if s.name == "optimizers.run" and has_ancestor(s, by_id, "harness.search")
    ]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def median_metrics(per_pass: Sequence[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def spans_doc(tracer: Tracer) -> dict:
    return {
        "spans": [dataclasses.asdict(s) for s in tracer.spans],
        "calls": {k: {"count": v[0], "s": v[1]} for k, v in tracer.calls.items()},
    }
