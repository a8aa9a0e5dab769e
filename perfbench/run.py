"""contactopt benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; contactopt is imported from its
``src/`` directory.  One process runs back-to-back passes of the workload
(a closed loop with one client) while the next pass is expected to end
within ``--seconds``, validates every pass's outputs, and prints a summary
followed by one JSON result line.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced passes and reports
the per-layer metrics.  See perfbench/README.md.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Set-up probes before each untraced pass: spread over the run, they see
# the same host conditions as the passes, not just its first seconds.
PROBES_PER_PASS = 4

# One BLAS thread, like --jobs 1.  OpenBLAS threads spin-wait on each
# other: on a 2-vCPU VM whose host stole one vCPU, a 7 s quadratic-mc pass
# took 106 s with two threads.  Set before numpy loads; the set-up probes
# inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from tracer import (  # noqa: E402  (HERE is on sys.path as the script directory)
    Hooks,
    Tracer,
    has_ancestor,
    layer_metrics,
    median_metrics,
    percentile,
    spans_doc,
    trial_durations_ms,
)
from workloads import WORKLOADS, Verdict, gap_check, run_pass, validate  # noqa: E402


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(name: str, seed: int, cwd: str, probes: int) -> list:
    """Seconds from spawning a fresh interpreter to its first trial or check,
    once per probe."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.join(HERE, "probe.py"), name, str(seed), SRC],
            stdout=subprocess.PIPE,
            cwd=cwd,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line.strip() != b"ready" or rc != 0:
            raise RuntimeError(f"set-up probe for {name} exited {rc} without reaching its first trial")
        times.append(elapsed)
    return times


def mc_draw_seeds(doc: dict) -> set:
    """Seeds of the objectives Monte Carlo draws for ``doc``, observed by
    running the harness on a one-iteration copy of the spec.  (Hooks it
    cannot install are missing from the traced passes too, which then fail.)"""
    from contactopt.harness import parse_experiment, run_bench

    tiny = dict(doc, search_trials=1, iters=1, optimizers=doc["optimizers"][:1],
                objective=dict(doc["objective"], dim=2))
    spec = parse_experiment(tiny)
    tracer = Tracer()
    with Hooks(tracer):
        run_bench(spec)
    by_id = {s.id: s for s in tracer.spans}
    return {
        s.attrs["seed"] for s in tracer.spans
        if s.name == "objectives.build" and "seed" in s.attrs and has_ancestor(s, by_id, "harness.mc")
    }


def blas_meta() -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{cfg.get('name')} {cfg.get('version')}"
    except (KeyError, TypeError, AttributeError):
        vendor = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": vendor, "blas_threads": threads}


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def spec_sha256(doc) -> str:
    if doc is None:
        return None
    from contactopt.harness import parse_experiment, spec_to_doc

    text = json.dumps(spec_to_doc(parse_experiment(doc)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "contactopt", "__init__.py")):
        print(f"perfbench: no contactopt package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)
    outdir = os.path.join(ROOT, ".perfbench_out", f"{wl.name}-seed{args.seed}-trace{args.trace}")
    os.makedirs(outdir, exist_ok=True)

    sys.path.insert(0, SRC)
    from contactopt import __version__, cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"perfbench: contactopt imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    walls = {"untraced": [], "traced": []}
    cpu = {"untraced": [], "traced": []}
    per_pass, trial_ms, traced_spans, setup, laps = [], [], [], [], []
    attempted = failed = trials = 0
    problems, first, doc = [], None, None
    start = time.perf_counter()
    while True:
        lap0 = time.perf_counter()
        if not args.trace:
            setup.extend(measure_setup(wl.name, args.seed, outdir, PROBES_PER_PASS))
        mode = "traced" if args.trace and len(walls["untraced"]) > len(walls["traced"]) else "untraced"
        tracer = Tracer() if mode == "traced" else None
        try:
            out = run_pass(cli, wl, args.seed, outdir, tracer)
            verdict = validate(wl, args.seed, out, reference, first)
        except Exception:  # a broken pass is counted as failed and the loop goes on
            out = None
            verdict = Verdict(wl.ops, wl.ops, [traceback.format_exc().strip().splitlines()[-1]], {})
        attempted += verdict.attempted
        failed += verdict.failed
        problems.extend(verdict.problems)
        if out is not None:
            walls[mode].append(out.wall_s)
            cpu[mode].append(out.cpu_s)
            doc = doc or out.doc
            first = first or verdict.fingerprints or None
            trials = verdict.trials
        if tracer is not None and out is not None:
            per_pass.append(layer_metrics(tracer))
            trial_ms.extend(trial_durations_ms(tracer))
            traced_spans.append(spans_doc(tracer))
        # stop when the next pass and its probes would end past --seconds; a
        # traced run also needs one traced pass (unless every pass is failing)
        laps.append(time.perf_counter() - lap0)
        elapsed = time.perf_counter() - start
        next_end = elapsed + statistics.median(laps)
        if next_end > args.seconds and (not args.trace or per_pass or elapsed > 3 * args.seconds):
            break
    elapsed = time.perf_counter() - start

    heldout = args.seed + 1
    shared = 0
    if doc is not None:
        main_draws = mc_draw_seeds(dict(doc, master_seed=args.seed))
        shared = len(main_draws & mc_draw_seeds(dict(doc, master_seed=heldout)))
    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "heldout_seed": heldout,
        "mc_draws_shared_with_heldout": shared,
        "gap_check": gap_check(reference, wl, args.seed),
        "contactopt": __version__,
        "git_commit": git_commit(),
        "spec_sha256": spec_sha256(doc),
        "band_sha256": (first or {}).get("bands"),
        "trace_sha256": (first or {}).get("traces"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **blas_meta(),
        "pass_wall_s": walls,
        "pass_cpu_s": cpu,
        "setup_probe_s": setup,
        "measured_s": elapsed,
    }
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = median_metrics(per_pass) if per_pass else {}
        metrics["harness.trial_ms.p50"] = percentile(trial_ms, 50)
        metrics["harness.trial_ms.p99"] = percentile(trial_ms, 99)
        metrics["harness.mc.heldout_shared_draws"] = shared
        metrics["trace.overhead_s"] = (
            statistics.median(walls["traced"]) - statistics.median(walls["untraced"])
            if walls["traced"] and walls["untraced"] else 0.0
        )
        units = _per_layer_units()
        result_metrics = {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()}
        with open(os.path.join(outdir, "spans.json"), "w") as fh:
            json.dump(traced_spans, fh)
        print(f"perfbench {wl.name} seed={args.seed}: {len(walls['traced'])} traced and "
              f"{len(walls['untraced'])} untraced passes in {elapsed:.1f} s")
        # 0 up to rounding when the layers' self times account for the pass
        print(f"  trace.unaccounted_s  {metrics.get('trace.unaccounted_s', 0.0):.3g} s")
    else:
        wall = statistics.median(walls["untraced"]) if walls["untraced"] else 0.0
        result_metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        print(f"perfbench {wl.name} seed={args.seed}: {len(walls['untraced'])} passes in {elapsed:.1f} s")
        print(f"  setup_s       {statistics.median(setup):.4f} s     median of {len(setup)} fresh processes")
        print(f"  wall_s        {wall:.4f} s     median of {len(walls['untraced'])} passes")
        if wl.tune and wall > 0:
            print(f"  trials_per_s  {trials / wall:.2f} 1/s   {trials} search trials + MC runs per pass")
        print(f"  peak_rss_mb   {peak_rss_mb:.1f} MiB")
        print(f"  fail_ratio    {failed / attempted:.4f} ratio  {failed}/{attempted} operations")
    for p in problems[:20]:
        print(f"problem: {p}")
    print("meta " + json.dumps(meta))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": result_metrics}
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump({"meta": meta, "problems": problems, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


def _per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
