"""Workload definitions: one pass of each workload and the checks on its outputs.

A pass drives contactopt through its own command line (``contactopt.cli.main``)
in this process, exactly as a user would type the commands, with outputs
going to files under the run's output directory.  This module imports no
contactopt code itself; callers hand in the loaded ``cli`` module, so the
setup probe can time that import.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import time
from typing import Dict, List, Optional, Tuple

from tracer import FAMILIES, KINDS, Hooks

RATE_WINDOWS = "1-50,50-150,150-200"

_BEST = re.compile(r"^(\w+): best final gap (\S+) with ")
_NO_VIABLE = re.compile(r"^(\w+): no viable parameters")
_CHECK = re.compile(r"^\[(PASS|FAIL)\] (\w+): ")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    preset: Optional[str] = None  # None: the certify workload
    scale: str = "desk"
    overrides: Tuple[Tuple[str, int], ...] = ()  # config keys replaced in the dumped preset
    rates: bool = False  # follow the search with `contactopt rates` over its trace CSV

    @property
    def tune(self) -> bool:
        return self.preset is not None

    @property
    def ops(self) -> int:
        """Operations per pass: a search and a Monte Carlo per optimizer,
        two CSV exports and one CSV read per `rates` call; or one per
        check family."""
        if not self.tune:
            return len(FAMILIES)
        return 2 * len(KINDS) + 2 + int(self.rates)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Quartic desk preset with the search cut from 300 to 60 trials per
        # optimizer so one pass takes a few seconds: dim 50, elementwise,
        # interpreter-bound steps, about a quarter of the trials diverge.
        Workload("quartic-tune", preset="quartic", scale="desk", overrides=(("search_trials", 60),)),
        # Quadratic at paper dimension 500: BLAS matvecs plus one 500x500
        # matrix build per search trial and per Monte-Carlo run; the trace
        # CSV is read back by `contactopt rates`.  Both counts are the
        # paper's 150 and 50 cut by the same factor, keeping its 3:1 mix of
        # search builds (all of one seed) to Monte-Carlo redraws.
        Workload(
            "quadratic-mc",
            preset="quadratic",
            scale="paper",
            overrides=(("search_trials", 12), ("mc_runs", 4)),
            rates=True,
        ),
        # Every check family; contact and integrators do the work and the
        # optimizer run loop sits idle.
        Workload("certify"),
    )
}


def dump_argv(wl: Workload, seed: int) -> List[str]:
    return ["bench", "--preset", wl.preset, "--scale", wl.scale, "--seed", str(seed), "--dump-config"]


def search_argv(config: str, seed: int, bands: str, traces: str) -> List[str]:
    return ["search", "--config", config, "--seed", str(seed), "--jobs", "1",
            "--out", bands, "--traces", traces]


def check_argv(seed: int) -> List[str]:
    return ["check", "--seed", str(seed)]


def call_cli(cli, argv: List[str]) -> Tuple[int, str]:
    """Run one contactopt command, capturing what it prints."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def config_doc(cli, wl: Workload, seed: int) -> dict:
    """The workload's experiment config: the preset as dumped by the CLI,
    with the workload's size overrides applied."""
    rc, out = call_cli(cli, dump_argv(wl, seed))
    if rc != 0:
        raise RuntimeError(f"`contactopt {' '.join(dump_argv(wl, seed))}` exited {rc}")
    doc = json.loads(out)
    doc.update(dict(wl.overrides))
    return doc


@dataclasses.dataclass
class PassOutput:
    wall_s: float
    cpu_s: float  # process CPU time, all threads
    codes: List[int]
    stdout: Dict[str, str]
    files: Dict[str, str]
    doc: Optional[dict] = None
    missing_hooks: List[str] = dataclasses.field(default_factory=list)  # traced passes only


def run_pass(cli, wl: Workload, seed: int, outdir: str, tracer=None) -> PassOutput:
    """One pass of the workload.  With a tracer, the pass is the
    ``perfbench.pass`` span and contactopt's layers are hooked inside it."""
    c0 = time.process_time()
    if tracer is None:
        t0 = time.perf_counter()
        out = _pass_body(cli, wl, seed, outdir)
        out.wall_s = time.perf_counter() - t0
    else:
        with Hooks(tracer) as hooks:
            with tracer.span("perfbench.pass") as sp:
                out = _pass_body(cli, wl, seed, outdir)
        out.wall_s = sp.duration
        out.missing_hooks = hooks.missing
    out.cpu_s = time.process_time() - c0
    return out


def _pass_body(cli, wl: Workload, seed: int, outdir: str) -> PassOutput:
    if not wl.tune:
        rc, text = call_cli(cli, check_argv(seed))
        return PassOutput(0.0, 0.0, [rc], {"check": text}, {})
    files = {
        "config": os.path.join(outdir, "config.json"),
        "bands": os.path.join(outdir, "bands.csv"),
        "traces": os.path.join(outdir, "traces.csv"),
    }
    doc = config_doc(cli, wl, seed)
    with open(files["config"], "w") as fh:
        json.dump(doc, fh)
    codes, stdout = [], {}
    rc, stdout["search"] = call_cli(
        cli, search_argv(files["config"], seed, files["bands"], files["traces"])
    )
    codes.append(rc)
    if wl.rates:
        rc, stdout["rates"] = call_cli(
            cli, ["rates", "--trace", files["traces"], "--windows", RATE_WINDOWS]
        )
        codes.append(rc)
    return PassOutput(0.0, 0.0, codes, stdout, files, doc)


# ---------------------------------------------------------------------------
# Output validation
# ---------------------------------------------------------------------------


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def quantile(sorted_vals: List[float], q: float) -> float:
    """Linear interpolation between order statistics; an interval that
    reaches +inf yields +inf."""
    n = len(sorted_vals)
    pos = q * (n - 1)
    i = int(math.floor(pos))
    if i >= n - 1:
        return sorted_vals[-1]
    frac = pos - i
    lo, hi = sorted_vals[i], sorted_vals[i + 1]
    if frac == 0.0 or lo == hi:
        return lo
    if math.isinf(hi):
        return hi
    return lo + frac * (hi - lo)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _read_csv(path: str, header: str) -> List[List[str]]:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"{path}: bad header")
    return [ln.split(",") for ln in lines[1:] if ln]


def parse_bands(path: str) -> Dict[str, List[Tuple[float, float, float]]]:
    """optimizer -> [(median, q025, q975)] in iteration order."""
    bands: Dict[str, List[Tuple[float, float, float]]] = {}
    for row in _read_csv(path, "optimizer,iter,median,q025,q975"):
        kind, it, med, lo, hi = row
        rows = bands.setdefault(kind, [])
        if int(it) != len(rows):
            raise ValueError(f"{path}: {kind} iteration {it} out of order")
        rows.append((float(med), float(lo), float(hi)))
    return bands


def parse_traces(path: str) -> Dict[str, List[Tuple[List[float], bool]]]:
    """optimizer -> [(finite trace, diverged)] in file order."""
    runs: Dict[Tuple[str, int], Tuple[List[float], List[bool]]] = {}
    for row in _read_csv(path, "optimizer,trial,iter,f_gap,diverged"):
        kind, trial, it, gap, flag = row
        trace, flags = runs.setdefault((kind, int(trial)), ([], []))
        if int(it) != len(trace):
            raise ValueError(f"{path}: {kind}/{trial} iteration {it} out of order")
        if flag not in ("true", "false"):
            raise ValueError(f"{path}: bad diverged flag {flag!r}")
        trace.append(float(gap))
        flags.append(flag == "true")
    out: Dict[str, List[Tuple[List[float], bool]]] = {}
    for (kind, _trial), (trace, flags) in runs.items():
        if len(set(flags)) != 1:
            raise ValueError(f"{path}: {kind} run changes its diverged flag")
        out.setdefault(kind, []).append((trace, flags[0]))
    return out


def _band_ok(kind: str, band, runs, iters: int, mc_runs: int) -> Optional[str]:
    """None when the band is well formed and equals the quantiles of its
    inf-padded runs; else the reason it is not."""
    width = iters + 1
    if len(band) != width:
        return f"{kind}: band has {len(band)} rows, expected {width}"
    for i, (med, lo, hi) in enumerate(band):
        if not (lo <= med <= hi):
            return f"{kind}: band ordering fails at iteration {i}"
    if len(runs) != mc_runs:
        return f"{kind}: {len(runs)} Monte-Carlo traces, expected {mc_runs}"
    for trace, diverged in runs:
        if not all(math.isfinite(v) for v in trace):
            return f"{kind}: trace holds a non-finite gap"
        if (len(trace) != width) != diverged or len(trace) > width:
            return f"{kind}: trace length {len(trace)} does not match diverged={diverged}"
    padded = [trace + [math.inf] * (width - len(trace)) for trace, _ in runs]
    for i in range(width):
        col = sorted(row[i] for row in padded)
        want = (quantile(col, 0.5), quantile(col, 0.025), quantile(col, 0.975))
        if not all(_close(a, b) for a, b in zip(band[i], want)):
            return f"{kind}: band at iteration {i} is not the quantiles of its runs"
    return None


def best_gaps(search_stdout: str) -> Dict[str, float]:
    """optimizer -> tuned best final gap as printed by search; inf if none viable."""
    gaps = {}
    for ln in search_stdout.splitlines():
        if m := _BEST.match(ln):
            gaps[m.group(1)] = float(m.group(2))
        elif m := _NO_VIABLE.match(ln):
            gaps[m.group(1)] = math.inf
    return gaps


TOL_DECADES = 0.05  # around the gap recorded at the run's seed
SPAN_MARGIN_DECADES = 1.0  # around the span of all recorded gaps, at other seeds


def gap_check(reference: dict, wl: Workload, seed: int) -> Optional[str]:
    """Which best-gap check a run applies: ``recorded`` at a seed in
    reference.json, ``span`` at any other; None for certify."""
    if not wl.tune:
        return None
    return "recorded" if str(seed) in reference[wl.name] else "span"


def reference_range(reference: dict, wl: Workload, seed: int, kind: str) -> Tuple[float, float]:
    """Accepted interval for one tuned best gap.

    At a seed with a recorded reference: that gap, widened by
    ``TOL_DECADES`` each way.  At any other seed: the span of the gaps
    recorded over all seeds, widened by ``SPAN_MARGIN_DECADES``.
    """
    recorded = reference[wl.name]
    if gap_check(reference, wl, seed) == "recorded":
        lo = hi = recorded[str(seed)][kind]
        widen = TOL_DECADES
    else:
        gaps = [by_kind[kind] for by_kind in recorded.values()]
        lo, hi = min(gaps), max(gaps)
        widen = SPAN_MARGIN_DECADES
    return lo / 10.0**widen, hi * 10.0**widen


@dataclasses.dataclass
class Verdict:
    attempted: int
    failed: int
    problems: List[str]
    fingerprints: Dict[str, str]
    trials: int = 0  # search trials plus Monte-Carlo runs in the pass


def validate(wl: Workload, seed: int, out: PassOutput, reference: dict,
             first: Optional[Dict[str, str]] = None) -> Verdict:
    """Count the pass's operations and how many failed.

    Operations: one per check family (certify); one search and one Monte
    Carlo per optimizer, one export per CSV and one read per `rates` call
    (tune workloads).  ``first`` holds the first pass's fingerprints: a pass
    at the same seed must write the same bytes.  A traced pass that could
    not hook every target fails as a whole: the layers it missed would
    read 0.
    """
    verdict = _validate_certify(out) if not wl.tune else _validate_tune(wl, seed, out, reference, first)
    if out.missing_hooks:
        verdict.failed = verdict.attempted
        verdict.problems.extend(f"hook target {m} not found" for m in out.missing_hooks)
    return verdict


def _validate_tune(wl: Workload, seed: int, out: PassOutput, reference: dict,
                   first: Optional[Dict[str, str]]) -> Verdict:
    iters, mc_runs = out.doc["iters"], out.doc["mc_runs"]
    n_ops = wl.ops
    trials = len(KINDS) * (out.doc["search_trials"] + mc_runs)
    if any(rc != 0 for rc in out.codes):
        return Verdict(n_ops, n_ops, [f"exit codes {out.codes}"], {}, trials)
    problems: List[str] = []
    failed = 0
    fingerprints = {k: sha256_file(out.files[k]) for k in ("bands", "traces")}

    parsed = {}
    for key, parse in (("bands", parse_bands), ("traces", parse_traces)):
        try:
            parsed[key] = parse(out.files[key])
            if first is not None and fingerprints[key] != first[key]:
                raise ValueError(f"{key} bytes differ from the first pass at the same seed")
        except (OSError, ValueError) as e:
            failed += 1
            problems.append(f"export {key}: {e}")
    bands, traces = parsed.get("bands"), parsed.get("traces")

    gaps = best_gaps(out.stdout["search"])
    for kind in KINDS:
        gap = gaps.get(kind, math.nan)
        lo, hi = reference_range(reference, wl, seed, kind)
        if not lo <= gap <= hi:
            failed += 1
            problems.append(f"search {kind}: best gap {gap:.6e} outside [{lo:.3e}, {hi:.3e}]")
        if bands is None or traces is None:
            failed += 1
            problems.append(f"mc {kind}: outputs unreadable")
            continue
        why = _band_ok(kind, bands.get(kind, []), traces.get(kind, []), iters, mc_runs)
        if why is not None:
            failed += 1
            problems.append(f"mc {why}")

    if wl.rates:
        why = _rates_ok(out.stdout["rates"], traces)
        if why is not None:
            failed += 1
            problems.append(f"read traces: {why}")
    return Verdict(n_ops, failed, problems, fingerprints, trials)


def _rates_ok(text: str, traces) -> Optional[str]:
    lines = text.splitlines()
    if traces is None:
        return "trace CSV unreadable"
    n_runs = sum(len(v) for v in traces.values())
    n_windows = len(RATE_WINDOWS.split(","))
    if len(lines) != 1 + n_runs * n_windows:
        return f"{len(lines) - 1} rate rows, expected {n_runs * n_windows}"
    for ln in lines[1:]:
        p = ln.split()[-1]
        try:
            ok = p == "n/a" or math.isfinite(float(p))
        except ValueError:
            ok = False
        if not ok:
            return f"bad rate in {ln!r}"
    return None


def _validate_certify(out: PassOutput) -> Verdict:
    n_ops = len(FAMILIES)
    marks: Dict[str, List[bool]] = {}
    for ln in out.stdout["check"].splitlines():
        m = _CHECK.match(ln)
        if m:
            marks.setdefault(m.group(2), []).append(m.group(1) == "PASS")
    problems = [
        f"check family {fam}: " + ("no results" if fam not in marks else "a check failed")
        for fam in FAMILIES
        if not marks.get(fam) or not all(marks[fam])
    ]
    if out.codes[0] != 0 and not problems:
        problems.append(f"check exited {out.codes[0]} with every family passing")
        return Verdict(n_ops, n_ops, problems, {})
    return Verdict(n_ops, len(problems), problems, {})
