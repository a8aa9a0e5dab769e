"""Declarative experiment harness.

An :class:`ExperimentSpec` names an objective, an initialization rule, and a
list of optimizers with hyperparameter search ranges.  Running it means:
random search over each optimizer's ranges (best final gap wins), then
Monte-Carlo repetitions at the tuned parameters, reduced to per-iteration
quantile bands.  Everything is seeded through one master seed; search-trial
and Monte-Carlo run seeds are derived by hashing (master, label, index), so
results are reproducible bit-for-bit and different master seeds give
independent streams.

Each search runs all of its trials as one (T, n) batch
(optimizers.run_batch), and so does each Monte Carlo.  run_bench builds
the objectives once and shares them across the optimizers.  When neither
the objective nor the start is random (every preset but the quadratic),
nothing is left to draw after the search: run_bench takes each Monte-Carlo
run to be the search winner's run, re-seeded, instead of running it again.
A batch row is computed exactly as that run alone, so the bands and traces
are the same bits either way.  The random
quadratic runs in its eigenbasis: each matrix is drawn once per bench as
its eigenvalues lam and the Householder reflectors of its eigenbasis Q,
never formed; the runs see diag(lam) from the rotated start x0 @ Q, and
Monte Carlo stacks its draws as one diagonal quadratic with a row of
eigenvalues per run.  The optimizers are rotation-equivariant, so the
gaps are those of the assembled matrix up to rounding.  The bits do not
depend on the CPU, except that each quadratic draw goes through LAPACK's
QR: the reflectors rotate a start with elementwise products and row sums.

Diverged runs are first-class data: they score +inf during search and
their traces are padded with +inf before quantiles, so instability shows
up in the bands instead of being silently dropped.

File formats are deliberately plain: two CSV schemas (per-run traces and
quantile bands, floats in shortest round-trip decimal, infinities spelled
"inf") and a self-contained SVG renderer for log-scale convergence plots.
"""

import hashlib
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .objectives import (
    Objective,
    Rotation,
    check_objective,
    diagonal_quadratic,
    draw_quadratic,
    get_objective,
)
from .optimizers import (
    KIND_PARAMS,
    TUNABLES,
    OptimizerConfig,
    RunRecord,
    run,  # noqa: F401  (unused here; kept importable as harness.run)
    run_batch,
)

__all__ = [
    "ConfigError",
    "RateUndefinedError",
    "derive_seed",
    "InitSpec",
    "SearchRanges",
    "OptimizerEntry",
    "ObjectiveSpec",
    "ExperimentSpec",
    "SearchResult",
    "QuantileBand",
    "BenchOutcome",
    "random_search",
    "monte_carlo",
    "run_bench",
    "estimate_rate",
    "export_trace_csv",
    "export_band_csv",
    "read_trace_csv",
    "read_band_csv",
    "export_svg",
    "parse_experiment",
    "parse_init_flag",
    "spec_to_doc",
    "RunRecord",
]

_U64 = 2**64


class ConfigError(ValueError):
    """Config rejection carrying the JSON path of the offending key."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"at {path}: {message}")


class RateUndefinedError(ValueError):
    """Raised when a trace window contains non-positive or non-finite values."""


def derive_seed(master: int, label: str, index: int) -> int:
    """Stable 64-bit seed from (master, label, index).

    Uses sha256 rather than Python's hash() so the stream is identical
    across processes and interpreter versions.
    """
    digest = hashlib.sha256(f"{master % _U64}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# Experiment description
# ---------------------------------------------------------------------------


# The JSON keys each init kind takes besides "kind": read by parse_experiment
# and written by spec_to_doc ("pattern" holds InitSpec.values).
_INIT_KIND_KEYS = {"fixed": ("pattern",), "pattern": ("pattern",), "box": ("lo", "hi")}


def _init_keys(kind: str) -> Tuple[str, ...]:
    if kind not in _INIT_KIND_KEYS:
        raise ValueError(f"init kind must be 'fixed', 'pattern' or 'box', got {kind!r}")
    return _INIT_KIND_KEYS[kind]


@dataclass(frozen=True)
class InitSpec:
    """Initialization rule for X0.

    kind "fixed": values is the full start vector (length must match dim).
    kind "pattern": values is a cycle tiled to the dimension, e.g.
    (-1.2, 1.0) alternates the two.  kind "box": each coordinate uniform on
    [lo, hi], drawn from the seeded per-run generator.  Values, bounds and
    the box width hi - lo must be finite.
    """

    kind: str
    values: Tuple[float, ...] = ()
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self):
        _init_keys(self.kind)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        if self.kind in ("fixed", "pattern") and len(self.values) == 0:
            raise ValueError(f"init kind {self.kind!r} needs at least one value")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"init values must be finite, got {self.values}")
        # inf - x and nan - x are not finite either
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(
                f"init bounds and their width hi - lo must be finite, got [{self.lo}, {self.hi}]"
            )
        if self.kind == "box" and not (self.lo < self.hi):
            raise ValueError(f"box init needs lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def random(self) -> bool:
        return self.kind == "box"

    def materialize(self, dim: int, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        if self.kind == "fixed":
            if len(self.values) != dim:
                raise ValueError(
                    f"fixed init length {len(self.values)} does not match dim {dim}"
                )
            return np.array(self.values)
        if self.kind == "pattern":
            reps = -(-dim // len(self.values))  # ceil
            return np.tile(self.values, reps)[:dim]
        if rng is None:
            raise ValueError("box init needs a generator")
        return rng.uniform(self.lo, self.hi, size=dim)

    def start(self, dim: int, seed: int) -> np.ndarray:
        """The start of the run seeded with ``seed``: a box draws from the
        generator seeded with derive_seed(seed, "init", 0); the other kinds
        ignore the seed."""
        if not self.random:
            return self.materialize(dim)
        return self.materialize(dim, np.random.default_rng(derive_seed(seed, "init", 0)))


@dataclass(frozen=True)
class SearchRanges:
    """Closed sampling intervals per tunable, plus optional law overrides.

    The default law is uniform; tau and epsilon switch to log-uniform when
    the interval is positive and spans at least two decades, since uniform
    sampling over several decades almost never probes the small end.
    """

    tau: Optional[Tuple[float, float]] = None
    epsilon: Optional[Tuple[float, float]] = None
    mu: Optional[Tuple[float, float]] = None
    delta: Optional[Tuple[float, float]] = None
    sampling: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        for name in TUNABLES:
            iv = getattr(self, name)
            if iv is None:
                continue
            lo, hi = float(iv[0]), float(iv[1])
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} interval bounds must be finite")
            if lo > hi:
                raise ValueError(f"{name} interval has lo > hi: [{lo}, {hi}]")
            # no draw may leave the tunable's domain; a tau or epsilon draw
            # of exactly 0 becomes ulp(0), so lo = 0 is legal there
            if name == "mu" and not (0.0 < lo and hi <= 1.0):
                raise ValueError(f"mu interval [{lo}, {hi}] must lie in (0, 1]")
            if name in ("tau", "epsilon") and hi <= 0:
                raise ValueError(f"{name} interval [{lo}, {hi}] needs a positive hi")
            if name in ("tau", "epsilon", "delta") and lo < 0:
                raise ValueError(f"{name} interval [{lo}, {hi}] must be non-negative")
            object.__setattr__(self, name, (lo, hi))
        for name, law in self.sampling.items():
            if name not in TUNABLES:
                raise ValueError(f"sampling law for unknown parameter {name!r}")
            if law not in ("uniform", "log_uniform"):
                raise ValueError(
                    f"sampling law must be 'uniform' or 'log_uniform', got {law!r}"
                )
            iv = getattr(self, name)
            if law == "log_uniform" and (iv is None or iv[0] <= 0):
                raise ValueError(
                    f"log_uniform sampling for {name} needs a positive lower bound"
                )

    def law(self, name: str) -> str:
        if name in self.sampling:
            return self.sampling[name]
        iv = getattr(self, name)
        if name in ("tau", "epsilon") and iv is not None:
            lo, hi = iv
            if lo > 0 and hi / lo >= 100.0:
                return "log_uniform"
        return "uniform"

    def draw(self, name: str, rng: np.random.Generator) -> float:
        iv = getattr(self, name)
        if iv is None:
            raise ValueError(f"no search interval declared for {name}")
        lo, hi = iv
        if lo == hi:
            return lo
        if self.law(name) == "log_uniform":
            v = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        else:
            v = float(rng.uniform(lo, hi))
        if name in ("tau", "epsilon") and v <= 0.0:
            v = math.ulp(0.0)  # interval touched zero; keep the config valid
        return v


@dataclass(frozen=True)
class OptimizerEntry:
    kind: str
    ranges: SearchRanges

    def __post_init__(self):
        self.make_config({})  # the kind check is OptimizerConfig's
        for name in KIND_PARAMS[self.kind]:
            if getattr(self.ranges, name) is None:
                raise ValueError(
                    f"optimizer {self.kind!r} needs a search range for {name!r}"
                )

    def make_config(self, params: Dict[str, float]) -> OptimizerConfig:
        return OptimizerConfig(kind=self.kind, **params)


@dataclass(frozen=True)
class ObjectiveSpec:
    name: str
    dim: int
    seed: int = 1
    eigen_lo: float = 1e-3
    eigen_hi: float = 1.0

    def __post_init__(self):
        check_objective(self.name, self.dim, self.seed, self.eigen_lo, self.eigen_hi)
        if not self.randomized and _fields_doc(self, ("eigen_lo", "eigen_hi")):
            raise ValueError(f"eigen_lo and eigen_hi are the quadratic's, not {self.name}'s")

    @property
    def randomized(self) -> bool:
        """Quadratics are redrawn per Monte-Carlo run; the rest are fixed."""
        return self.name == "quadratic"

    def build(self, seed: Optional[int] = None) -> Objective:
        return get_objective(
            self.name,
            dim=self.dim,
            seed=self.seed if seed is None else seed,
            eigen_lo=self.eigen_lo,
            eigen_hi=self.eigen_hi,
        )

    def draw(self, seed: Optional[int] = None) -> Tuple[np.ndarray, Rotation]:
        """The eigenvalues of the quadratic ``build`` makes and the rotation
        of a start into its eigenbasis (see draw_quadratic)."""
        return draw_quadratic(
            self.seed if seed is None else seed, self.dim, self.eigen_lo, self.eigen_hi
        )


@dataclass(frozen=True)
class ExperimentSpec:
    objective: ObjectiveSpec
    init: InitSpec
    optimizers: Tuple[OptimizerEntry, ...]
    search_trials: int
    mc_runs: int
    iters: int
    master_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "optimizers", tuple(self.optimizers))
        if len(self.optimizers) == 0:
            raise ValueError("experiment needs at least one optimizer")
        for label, v in (
            ("search_trials", self.search_trials),
            ("mc_runs", self.mc_runs),
            ("iters", self.iters),
        ):
            if v < 1:
                raise ValueError(f"{label} must be >= 1, got {v}")
        if not self.init.random:
            self.init.materialize(self.objective.dim)  # a fixed start's length must match


# ---------------------------------------------------------------------------
# Search and Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """``best_record`` is the winning trial's run (None when no trial is
    viable)."""

    kind: str
    best_params: Optional[Dict[str, float]]
    best_gap: float
    n_trials: int
    n_diverged: int
    best_record: Optional[RunRecord] = field(default=None, repr=False)

    @property
    def viable(self) -> bool:
        return self.best_params is not None


@dataclass(frozen=True)
class QuantileBand:
    """Per-iteration median and 2.5/97.5 percent quantiles for one optimizer."""

    kind: str
    median: Tuple[float, ...]
    q025: Tuple[float, ...]
    q975: Tuple[float, ...]

    def __post_init__(self):
        med = tuple(float(v) for v in self.median)
        lo = tuple(float(v) for v in self.q025)
        hi = tuple(float(v) for v in self.q975)
        if not (len(med) == len(lo) == len(hi)):
            raise ValueError("band columns must have equal length")
        for i, (a, m, b) in enumerate(zip(lo, med, hi)):
            if not (a <= m <= b):
                raise ValueError(
                    f"band ordering violated at iteration {i}: {a} <= {m} <= {b} fails"
                )
        object.__setattr__(self, "median", med)
        object.__setattr__(self, "q025", lo)
        object.__setattr__(self, "q975", hi)


def _quantile(sorted_vals, q: float):
    """Linear interpolation between order statistics along the last axis
    (values sorted along it); +inf entries stay +inf instead of poisoning
    the arithmetic.  A list of scalars gives a scalar."""
    s = np.asarray(sorted_vals, dtype=float)
    n = s.shape[-1]
    pos = q * (n - 1)
    i = min(int(math.floor(pos)), n - 1)
    frac = pos - i
    lo, hi = s[..., i], s[..., min(i + 1, n - 1)]
    with np.errstate(invalid="ignore"):  # inf - inf, masked below
        mid = lo + frac * (hi - lo)
    return np.where((frac == 0.0) | (lo == hi), lo, np.where(np.isinf(hi), hi, mid))[()]


def _band(kind: str, gaps: np.ndarray) -> QuantileBand:
    """The quantile band of an (iters + 1, runs) gap matrix, +inf after a
    divergence."""
    ranked = np.sort(gaps, axis=1)
    return QuantileBand(
        kind=kind,
        median=_quantile(ranked, 0.5),
        q025=_quantile(ranked, 0.025),
        q975=_quantile(ranked, 0.975),
    )


# What run_bench shares across its optimizers: the search objective with the
# rotation of the trials' starts into its eigenbasis (None: starts are used
# as drawn), and the Monte-Carlo run seeds, objective and start stack.
SearchProblem = Tuple[Objective, Optional[Rotation]]
MonteCarloProblem = Tuple[List[int], Objective, np.ndarray]


def _search_problem(spec: ExperimentSpec) -> SearchProblem:
    if not spec.objective.randomized:
        return spec.objective.build(), None
    lam, rotate = spec.objective.draw()
    return diagonal_quadratic(lam), rotate


def _mc_seeds(spec: ExperimentSpec) -> List[int]:
    """Monte-Carlo run j is seeded with derive_seed(master_seed, "mc", j)."""
    return [derive_seed(spec.master_seed, "mc", j) for j in range(spec.mc_runs)]


def _monte_carlo_problem(spec: ExperimentSpec) -> MonteCarloProblem:
    """A quadratic is redrawn per run from derive_seed(run seed,
    "objective", 0); only its eigenvalues and rotated start are kept."""
    seeds = _mc_seeds(spec)
    x0s = [spec.init.start(spec.objective.dim, rseed) for rseed in seeds]
    if not spec.objective.randomized:
        return seeds, spec.objective.build(), np.array(x0s)
    lams, starts = [], []
    for rseed, x0 in zip(seeds, x0s):
        lam, rotate = spec.objective.draw(seed=derive_seed(rseed, "objective", 0))
        lams.append(lam)
        starts.append(rotate(x0))
        del rotate  # hold one set of reflectors at a time
    return seeds, diagonal_quadratic(np.array(lams)), np.array(starts)


def random_search(
    spec: ExperimentSpec, entry: OptimizerEntry, problem: Optional[SearchProblem] = None
) -> SearchResult:
    """Draw search_trials parameter tuples and keep the one with the lowest
    final gap.  Diverged trials score +inf; if every trial diverges the
    result is flagged non-viable rather than raising.

    Trial i draws its parameters, then its start vector, from the generator
    seeded with derive_seed(master_seed, "search:<kind>", i).  All trials
    run as one batch on the objective built (or, for the quadratic, drawn)
    from the spec's seed; the final gaps and diverged flags are read, and
    the winner's run is kept as ``best_record`` (a copy, not a view of the
    batch).  ``problem`` passes in that objective when run_bench shares it.
    """
    trial_seeds, cfgs, x0s = [], [], []
    for i in range(spec.search_trials):
        tseed = derive_seed(spec.master_seed, f"search:{entry.kind}", i)
        rng = np.random.default_rng(tseed)
        params = {name: entry.ranges.draw(name, rng) for name in KIND_PARAMS[entry.kind]}
        cfgs.append(entry.make_config(params))
        x0s.append(spec.init.materialize(spec.objective.dim, rng))
        trial_seeds.append(tseed)
    obj, rotate = _search_problem(spec) if problem is None else problem
    starts = np.array(x0s)
    if rotate is not None:
        starts = rotate(starts)
    batch = run_batch(obj, cfgs, starts, spec.iters, trial_seeds)
    final = batch.final_gaps
    best = int(np.argmin(final))  # the first of equal gaps, as trials are drawn
    viable = final[best] < math.inf
    return SearchResult(
        kind=entry.kind,
        best_params=cfgs[best].params_dict() if viable else None,
        best_gap=float(final[best]),
        n_trials=spec.search_trials,
        n_diverged=int(np.count_nonzero(batch.diverged)),
        best_record=batch[best] if viable else None,
    )


def monte_carlo(
    spec: ExperimentSpec,
    entry: OptimizerEntry,
    params: Dict[str, float],
    problem: Optional[MonteCarloProblem] = None,
) -> Tuple[QuantileBand, List[RunRecord]]:
    """mc_runs repetitions at fixed parameters, reduced to quantile bands.

    Run j is seeded with derive_seed(master_seed, "mc", j); the optimizer is
    not in the label, so every optimizer sees the same draws.  The random
    pieces are the objective draw (quadratic only) and the init box (when
    used).  All runs are one batch; ``problem`` passes in the drawn runs
    when run_bench shares them.  A diverged run counts as +inf from its
    stop on when the quantiles are taken.
    """
    cfg = entry.make_config(params)
    seeds, obj, starts = _monte_carlo_problem(spec) if problem is None else problem
    batch = run_batch(obj, [cfg] * len(seeds), starts, spec.iters, seeds)
    return _band(entry.kind, batch.gaps), list(batch)


def _winner_runs(spec: ExperimentSpec, best: RunRecord) -> Tuple[QuantileBand, List[RunRecord]]:
    """What monte_carlo returns when it would run the search winner again:
    mc_runs copies of its run, each re-seeded as monte_carlo seeds its runs.
    A viable winner did not diverge, so its trace is a full gap column."""
    seeds = _mc_seeds(spec)
    gaps = np.repeat(np.array(best.trace)[:, None], len(seeds), axis=1)
    return _band(best.kind, gaps), [replace(best, trial_seed=s) for s in seeds]


@dataclass(frozen=True)
class BenchOutcome:
    search: SearchResult
    band: Optional[QuantileBand]
    records: Tuple[RunRecord, ...]


def run_bench(spec: ExperimentSpec) -> List[BenchOutcome]:
    """Full pipeline per optimizer: tune, then Monte Carlo at the optimum.

    The search objective and the Monte-Carlo runs are drawn once and shared
    by every optimizer; the Monte-Carlo draws come first, so that only one
    set of reflectors, the search's, is held at a time.

    When neither the objective nor the start is random, every Monte-Carlo
    run would be the search winner's run again, bit for bit: same
    objective, same start, same config.  The Monte-Carlo records and band
    are then built from the winner's run (re-seeded as monte_carlo seeds
    its runs) and no Monte-Carlo batch runs.
    """
    replay = not spec.objective.randomized and not spec.init.random
    mc_problem = None if replay else _monte_carlo_problem(spec)
    search_problem = _search_problem(spec)
    outcomes = []
    for entry in spec.optimizers:
        sr = random_search(spec, entry, search_problem)
        if not sr.viable:
            band, records = None, []
        elif replay:
            band, records = _winner_runs(spec, sr.best_record)
        else:
            band, records = monte_carlo(spec, entry, sr.best_params, mc_problem)
        outcomes.append(BenchOutcome(search=sr, band=band, records=tuple(records)))
    return outcomes


# ---------------------------------------------------------------------------
# Rate estimation
# ---------------------------------------------------------------------------


def estimate_rate(trace: Sequence[float], window: Tuple[int, int]) -> float:
    """Fit f_k ~ k^(-p) on a window by least squares in log-log, return p.

    window = (k_lo, k_hi) indexes iterations inclusively; k_lo must be >= 1
    because log(k) is taken.  Non-positive or non-finite trace values on the
    window make the rate undefined.
    """
    k_lo, k_hi = int(window[0]), int(window[1])
    if k_lo < 1:
        raise ValueError(f"window start must be >= 1, got {k_lo}")
    if k_hi <= k_lo:
        raise ValueError(f"window must satisfy k_lo < k_hi, got [{k_lo}, {k_hi}]")
    if k_hi >= len(trace):
        raise ValueError(
            f"window end {k_hi} exceeds last iteration {len(trace) - 1}"
        )
    vals = [float(trace[k]) for k in range(k_lo, k_hi + 1)]
    if any((not math.isfinite(v)) or v <= 0 for v in vals):
        raise RateUndefinedError(
            "trace has non-positive or non-finite values on the window"
        )
    ks = np.log(np.arange(k_lo, k_hi + 1, dtype=float))
    slope = np.polyfit(ks, np.log(vals), 1)[0]
    return float(-slope)


# ---------------------------------------------------------------------------
# CSV export / import
# ---------------------------------------------------------------------------


TRACE_HEADER = "optimizer,trial,iter,f_gap,diverged"
BAND_HEADER = "optimizer,iter,median,q025,q975"


def _write_text(path: str, what: str, lines: Iterable[str]) -> None:
    """Write each line plus a newline to path, naming ``what`` on failure."""
    try:
        with open(path, "w", newline="") as fh:
            fh.writelines(ln + "\n" for ln in lines)
    except OSError as e:
        raise OSError(f"cannot write {what} {path!r}: {e}") from e


def _read_rows(path: str, what: str, header: str, parse: Callable) -> None:
    """Call parse(*fields) on each non-empty row below a file's header line.
    A row whose width differs from the header's, or whose fields parse
    rejects, raises a ValueError that names path:line."""
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as e:
        raise OSError(f"cannot read {what} {path!r}: {e}") from e
    if not lines or lines[0] != header:
        raise ValueError(f"{path!r} is not a {what} (bad header)")
    width = header.count(",") + 1
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        fields = ln.split(",")
        try:
            if len(fields) != width:
                raise ValueError(f"{len(fields)} fields where the header {header!r} has {width}")
            parse(*fields)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: bad {what} row: {e}") from e


def _check_iter(it: str, expected: int, of: str) -> None:
    """A row's iter must be its position within the trace or band it extends."""
    if int(it) != expected:
        raise ValueError(f"iter {it} where {of} is at iteration {expected}")


def export_trace_csv(records: Sequence[RunRecord], path: str) -> None:
    """One row per iteration: optimizer,trial,iter,f_gap,diverged."""
    rows = (
        f"{rec.kind},{trial},{it},{gap!r},{'true' if rec.diverged else 'false'}"
        for trial, rec in enumerate(records)
        for it, gap in enumerate(rec.trace)
    )
    _write_text(path, "trace CSV", itertools.chain([TRACE_HEADER], rows))


def export_band_csv(bands: Sequence[QuantileBand], path: str) -> None:
    """One row per iteration per band: optimizer,iter,median,q025,q975."""
    rows = (
        f"{band.kind},{it},{med!r},{lo!r},{hi!r}"
        for band in bands
        for it, (med, lo, hi) in enumerate(zip(band.median, band.q025, band.q975))
    )
    _write_text(path, "band CSV", itertools.chain([BAND_HEADER], rows))


def read_trace_csv(path: str) -> List[Tuple[int, RunRecord]]:
    """Inverse of export_trace_csv; returns (trial id, record) pairs in file
    order.  Values round-trip exactly.  Each row's iter must count up from 0
    within its (optimizer, trial) trace, and diverged must be true or false
    and the same on every row of a trace."""
    traces: Dict[Tuple[str, int], List[float]] = {}
    diverged: Dict[Tuple[str, int], str] = {}

    def parse(kind, trial, it, gap, flag):
        key = (kind, int(trial))
        trace = traces.setdefault(key, [])
        _check_iter(it, len(trace), f"{kind} trial {trial}")
        if flag not in ("true", "false"):
            raise ValueError(f"diverged must be 'true' or 'false', got {flag!r}")
        if flag != diverged.setdefault(key, flag):
            raise ValueError(f"diverged {flag} where {kind} trial {trial} began {diverged[key]}")
        trace.append(float(gap))

    _read_rows(path, "trace CSV", TRACE_HEADER, parse)
    return [
        (trial, RunRecord(kind=kind, params={}, trace=tuple(tr),
                          diverged=diverged[kind, trial] == "true"))
        for (kind, trial), tr in traces.items()
    ]


def read_band_csv(path: str) -> List[QuantileBand]:
    """Inverse of export_band_csv.  Each row's iter must count up from 0
    within its optimizer's band."""
    columns: Dict[str, Tuple[list, list, list]] = {}

    def parse(kind, it, *vals):
        cols = columns.setdefault(kind, ([], [], []))
        _check_iter(it, len(cols[0]), f"the {kind} band")
        for col, v in zip(cols, [float(v) for v in vals]):
            col.append(v)

    _read_rows(path, "band CSV", BAND_HEADER, parse)
    return [QuantileBand(kind, *cols) for kind, cols in columns.items()]


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def export_svg(bands: Sequence[QuantileBand], path: str, title: str = "") -> None:
    """Self-contained convergence figure: log10 objective gap vs iteration.

    Each band draws a median polyline plus a translucent quantile polygon.
    Non-positive and infinite values are clipped to the plot range bottom /
    top respectively (a diverged band hugs the ceiling).
    """
    bands = list(bands)
    if not bands:
        raise ValueError("export_svg needs at least one band")
    finite = [
        v
        for b in bands
        for col in (b.median, b.q025, b.q975)
        for v in col
        if math.isfinite(v) and v > 0
    ]
    if finite:
        y_lo = math.floor(math.log10(min(finite)))
        y_hi = math.ceil(math.log10(max(finite)))
    else:
        y_lo, y_hi = -1, 1
    if y_hi <= y_lo:
        y_hi = y_lo + 1
    n_iter = max(len(b.median) for b in bands) - 1
    n_iter = max(n_iter, 1)

    width, height = 880, 540
    ml, mr, mt, mb = 64.0, 16.0, 34.0, 44.0
    pw, ph = width - ml - mr, height - mt - mb

    def sx(it: float) -> float:
        return ml + pw * it / n_iter

    def sy(v: float) -> float:
        if math.isinf(v) or v != v:
            lv = y_hi
        elif v <= 0:
            lv = y_lo
        else:
            lv = min(max(math.log10(v), y_lo), y_hi)
        return mt + ph * (y_hi - lv) / (y_hi - y_lo)

    def pts(values) -> str:
        return " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in enumerate(values))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>',
    ]
    if title:
        # escaped by hand: xml.sax.saxutils.escape would import urllib.request,
        # about 3 MiB and 40 ms on every start of the CLI
        text = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" font-size="14">{text}</text>'
        )
    # y ticks at decades (thin to at most ~10 labels)
    step = max(1, int(math.ceil((y_hi - y_lo) / 10)))
    for d in range(y_lo, y_hi + 1, step):
        y = sy(10.0**d)
        parts.append(
            f'<line x1="{ml}" y1="{y:.2f}" x2="{ml + pw}" y2="{y:.2f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{y + 4:.2f}" text-anchor="end">1e{d}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        it = frac * n_iter
        x = sx(it)
        parts.append(
            f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{mt + ph + 18}" text-anchor="middle">{int(round(it))}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" text-anchor="middle">iteration</text>'
    )
    parts.append(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">objective gap</text>'
    )
    for idx, band in enumerate(bands):
        color = _PALETTE[idx % len(_PALETTE)]
        hull = pts(band.q975) + " " + " ".join(
            f"{sx(i):.2f},{sy(v):.2f}"
            for i, v in reversed(list(enumerate(band.q025)))
        )
        parts.append(
            f'<polygon points="{hull}" fill="{color}" fill-opacity="0.18" stroke="none"/>'
        )
        parts.append(
            f'<polyline points="{pts(band.median)}" fill="none" stroke="{color}" stroke-width="1.6"/>'
        )
        ly = mt + 16 + 16 * idx
        lx = ml + pw - 110
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 22}" y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly + 4}">{band.kind}</text>')
    parts.append("</svg>")
    _write_text(path, "SVG", parts)


# ---------------------------------------------------------------------------
# JSON config parsing
#
# Each reader takes a JSON value and its path, and checks only what the spec
# types cannot know: the JSON types, and in an object its unknown and missing
# keys.  Every value check is the spec type's own; _build reports it at the
# path of the object the spec was read from.  A section's reader table is
# its key set, read by spec_to_doc as well.
# ---------------------------------------------------------------------------


def _build(path: str, make: Callable, *args, **kwargs):
    """make(*args, **kwargs), its ValueError raised as a ConfigError at path."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ConfigError(path, str(e)) from e


def _number(v, path: str):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(v).__name__}")
    return v


def _int(v, path: str) -> int:
    if isinstance(_number(v, path), float) and not v.is_integer():
        raise ConfigError(path, f"expected an integer, got {v}")
    return int(v)


def _str(v, path: str) -> str:
    if not isinstance(v, str):
        raise ConfigError(path, f"expected a string, got {type(v).__name__}")
    return v


def _numbers(v, path: str) -> Tuple[float, ...]:
    if not isinstance(v, (list, tuple)):
        raise ConfigError(path, f"expected a list of numbers, got {type(v).__name__}")
    return tuple(float(_number(x, f"{path}[{i}]")) for i, x in enumerate(v))


def _interval(v, path: str) -> Tuple[float, ...]:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ConfigError(path, "expected an interval [lo, hi] of two numbers")
    return _numbers(v, path)


def _keys(doc, path: str, allowed, required=(), why: str = "unknown key") -> dict:
    """doc, once it is a JSON object of allowed keys with every required one."""
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected an object, got {type(doc).__name__}")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", why)
    for key in required:
        if key not in doc:
            raise ConfigError(f"{path}.{key}", "missing required key")
    return doc


def _object(readers: Dict[str, Callable], required=()) -> Callable:
    """The reader of a JSON object whose keys are those of ``readers``."""

    def read(doc, path: str) -> dict:
        _keys(doc, path, readers, required)
        return {key: readers[key](v, f"{path}.{key}") for key, v in doc.items()}

    return read


_OBJECTIVE_KEYS = {
    "name": _str, "dim": _int, "seed": _int, "eigen_lo": _number, "eigen_hi": _number
}
_INIT_KEYS = {"kind": _str, "pattern": _numbers, "lo": _number, "hi": _number}
# the keys spec_to_doc writes only where they are not their field's default
_WHEN_SET = ("eigen_lo", "eigen_hi")
_ENTRY_KEYS = {
    "kind": _str,
    "ranges": _object(dict.fromkeys(TUNABLES, _interval)),
    "sampling": _object(dict.fromkeys(TUNABLES, _str)),
}


def _objective(doc, path: str) -> ObjectiveSpec:
    return _build(path, ObjectiveSpec, **_object(_OBJECTIVE_KEYS, ("name", "dim"))(doc, path))


def _init(doc, path: str) -> InitSpec:
    """An unknown kind is rejected, by InitSpec's own check, before the
    keys that depend on it are read."""
    kind = _str(_keys(doc, path, _INIT_KEYS, ("kind",))["kind"], f"{path}.kind")
    takes = ("kind", *_build(path, _init_keys, kind))
    _keys(doc, path, takes, takes, f"not allowed for {kind} init")
    fields = {key: _INIT_KEYS[key](v, f"{path}.{key}") for key, v in doc.items()}
    return _build(path, InitSpec, values=fields.pop("pattern", ()), **fields)


def parse_init_flag(text: str) -> InitSpec:
    """The start ``kind:a,b,...`` of the --init flag, read with a config's
    init kinds and keys: the numbers are the pattern of a fixed or pattern
    start, or a box's lo and hi."""
    kind, _, text = text.partition(":")
    keys = _init_keys(kind)
    try:  # an empty text is no numbers; an empty field is not a number
        numbers = [float(v) for v in text.split(",")] if text else []
    except ValueError:
        raise ValueError(f"--init: expected comma-separated numbers, got {text!r}") from None
    if keys == ("pattern",):
        return InitSpec(kind, values=numbers)
    if len(numbers) != len(keys):
        raise ValueError(f"--init {kind}: takes exactly {','.join(keys)}")
    return InitSpec(kind, **dict(zip(keys, numbers)))


def _entry(doc, path: str) -> OptimizerEntry:
    fields = _object(_ENTRY_KEYS, ("kind",))(doc, path)
    ranges = _build(
        path, SearchRanges, **fields.pop("ranges", {}), sampling=fields.pop("sampling", {})
    )
    return _build(path, OptimizerEntry, ranges=ranges, **fields)


def _optimizers(v, path: str) -> Tuple[OptimizerEntry, ...]:
    if not isinstance(v, list):
        raise ConfigError(path, f"expected a list, got {type(v).__name__}")
    return tuple(_entry(e, f"{path}[{i}]") for i, e in enumerate(v))


_EXPERIMENT_KEYS = {
    "objective": _objective,
    "init": _init,
    "optimizers": _optimizers,
    "search_trials": _int,
    "mc_runs": _int,
    "iters": _int,
    "master_seed": _int,
}
_read_experiment = _object(
    _EXPERIMENT_KEYS, ("objective", "init", "optimizers", "search_trials", "mc_runs", "iters")
)


def parse_experiment(doc) -> ExperimentSpec:
    """Validate a JSON document (already loaded) into an ExperimentSpec.

    Unknown keys anywhere are rejected with the JSON path of the offender,
    so a typo fails loudly instead of silently using a default.  A value
    the spec types reject is reported at the path of its object.
    """
    return _build("$", ExperimentSpec, **_read_experiment(doc, "$"))


def _fields_doc(obj, keys) -> dict:
    """obj's value of each key, except a _WHEN_SET key left at its class default."""
    return {
        key: getattr(obj, key)
        for key in keys
        if key not in _WHEN_SET or getattr(obj, key) != getattr(type(obj), key)
    }


def spec_to_doc(spec: ExperimentSpec) -> dict:
    """Inverse of parse_experiment, for dumping presets as editable JSON."""
    doc = {key: getattr(spec, key) for key in _EXPERIMENT_KEYS}
    doc["objective"] = _fields_doc(spec.objective, _OBJECTIVE_KEYS)
    init = spec.init
    as_json = {"kind": init.kind, "pattern": list(init.values), "lo": init.lo, "hi": init.hi}
    doc["init"] = {key: as_json[key] for key in ("kind", *_INIT_KIND_KEYS[init.kind])}
    doc["optimizers"] = []
    for e in spec.optimizers:
        entry = {"kind": e.kind}
        ranges = {p: getattr(e.ranges, p) for p in TUNABLES}
        entry["ranges"] = {p: list(iv) for p, iv in ranges.items() if iv is not None}
        if e.ranges.sampling:
            entry["sampling"] = dict(e.ranges.sampling)
        doc["optimizers"].append(entry)
    return doc
