"""Discrete optimizers: gradient descent, heavy ball, Nesterov, and the
relativistic pair RGD/CRGD.

A kind is one damping schedule, so one discretized dissipative system:
nag's momentum coefficient is the constant mu, nag_k's the classical
(k-1)/(k+2).  rgd, crgd and crgd_t are one and the same update written in
the tuned parameters (epsilon, mu, delta); the only difference is the
dissipation factor applied per step.  rgd uses the constant mu, crgd uses
mu^(1 + 1/t) at the step's midpoint t = k + 1/2 on the iteration clock,
which starts at mu^3 and relaxes toward mu, and crgd_t the same factor at
the physical time t = (k + 1/2) tau, tau = sqrt(2 epsilon).  Each step is
algebraically identical to one Strang splitting step of the relativistic
contact Hamiltonian under the substitutions V = tau*P/2m, epsilon =
tau^2/2m, mu = exp(-gamma*tau), delta = 4/(c*tau)^2; the test suite holds
the two code paths to 1e-12 of each other.

Each kind's update is written once, as an array function of (X, V, S)
that takes one point (n,) with float tunables or a stack of T points
(T, n) with the tunables as (T, 1) columns.  S rides along as a trailing
column, (1,) or (T, 1): gd and cm carry it unchanged, nag and nag_k scale
it by the momentum coefficient c, and the relativistic kinds advance it by
composing the exact stage flows in the m=1 gauge (tau = sqrt(2*epsilon)),
whose kinetic energy is measured from its rest energy, so one formula
serves every delta >= 0 and delta = 0 is the Newtonian case.  S never feeds
back into X or V.  step() applies the update its config's kind selects as a
map (z, k) -> (z, k + 1) of the flat (X, V, S) row, so Trajectory.of
records a run with S; run_batch() iterates it over a stack of T runs of
one kind without S and records only the objective gaps, one
(iters + 1, T) matrix; run() is its T=1 case.
A nag or nag_k step is the gradient stage at the look-ahead, x = V - tau
grad f(V), followed by the momentum map (X, V, S) -> (V, V + c (V - X), c S)
on (X, x, S).  nag_contact_map is that momentum map as a map of the
(X, P, S) row, and `contact.conformal_factor` certifies it, factor c,
through its complex-step Jacobian, on the map's own code: none is
written by hand.  The whole nag step is not a contact map; the `nag`
check family pins how it bends the symplectic form instead.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .contact import Step, check_row, within_limit
from .objectives import Objective

__all__ = [
    "OPTIMIZER_KINDS",
    "KIND_PARAMS",
    "TUNABLES",
    "OptimizerConfig",
    "RunRecord",
    "BatchRecords",
    "step",
    "nag_contact_map",
    "run",
    "run_batch",
]

# the tunables each kind reads, in the order search draws them
KIND_PARAMS = {
    "gd": ("tau",),
    "cm": ("tau", "mu"),
    "nag": ("tau", "mu"),
    "nag_k": ("tau",),
    "rgd": ("epsilon", "mu", "delta"),
    "crgd": ("epsilon", "mu", "delta"),
    "crgd_t": ("epsilon", "mu", "delta"),
}
OPTIMIZER_KINDS = tuple(KIND_PARAMS)
# every tunable, in OptimizerConfig's field order
TUNABLES = ("tau", "epsilon", "mu", "delta")


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for one optimizer.

    Each kind reads the tunables KIND_PARAMS names: gd and nag_k read
    ``tau``, cm and nag ``tau`` and ``mu``, and rgd, crgd and crgd_t
    ``epsilon``, ``mu`` and ``delta``.
    """

    kind: str
    tau: float = 0.1
    epsilon: float = 1e-2
    mu: float = 0.9
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(
                f"unknown optimizer kind {self.kind!r}; valid: {', '.join(OPTIMIZER_KINDS)}"
            )
        if not (0.0 < self.tau < math.inf):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (0.0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (0.0 < self.mu <= 1.0):
            raise ValueError(f"mu must lie in (0, 1], got {self.mu}")
        if not (0.0 <= self.delta < math.inf):
            raise ValueError(f"delta must be non-negative and finite, got {self.delta}")

    def params_dict(self) -> Dict[str, float]:
        """The tunables this kind actually reads, for reporting."""
        return {name: getattr(self, name) for name in KIND_PARAMS[self.kind]}


@dataclass(frozen=True)
class RunRecord:
    """Trace of one optimization run: per-iteration objective gaps.

    On divergence the trace is truncated at the last finite entry and the
    flag set; consumers decide how to score the missing tail.
    """

    kind: str
    params: Dict[str, float]
    trace: tuple
    diverged: bool
    trial_seed: int = 0

    def __post_init__(self):
        if len(self.trace) == 0:
            raise ValueError("trace must be non-empty")
        object.__setattr__(self, "trace", tuple(float(v) for v in self.trace))

    @property
    def final_gap(self) -> float:
        """Last recorded gap; +inf for diverged runs."""
        return math.inf if self.diverged else self.trace[-1]


def _start_velocity(X0: np.ndarray, kind: str) -> np.ndarray:
    """The look-ahead point of nag and nag_k starts at x0, every other
    kind's velocity at zero."""
    return X0.copy() if kind in ("nag", "nag_k") else np.zeros_like(X0)


# ---------------------------------------------------------------------------
# The update, once per kind: update(X, V, S, k, obj, p) -> (X, V, S).  X and
# V are one point (n,) or a stack (T, n); S is a trailing column like
# _sqnorm's, (1,) or (T, 1), or None to skip its recursion.  p holds the
# tunables as attributes, floats (an OptimizerConfig) or (T, 1) columns
# (_Columns), so one expression serves a single step and a batch.
# ---------------------------------------------------------------------------


def _gd(X, V, S, k, obj, p):
    return X - p.tau * obj.grad(X), V, S


def _cm(X, V, S, k, obj, p):
    v = p.mu * V - p.tau * obj.grad(X)
    return X + v, v, S


def _nesterov_coefficient(k: int) -> float:
    """(k-1)/(k+2), the classical momentum coefficient at iteration k >= 1."""
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    return (k - 1.0) / (k + 2.0)


def _momentum(x, p, s, c):
    """(X, P, S) -> (P, P + c (P - X), c S): the momentum map, as its
    three parts; S None stays None."""
    return p, p + c * (p - x), None if s is None else c * s


def _look_ahead(X, V, S, obj, p, c):
    """Shared nag/nag_k update: the gradient at the look-ahead, then the
    momentum map with coefficient c."""
    return _momentum(X, V - p.tau * obj.grad(V), S, c)


def _nag(X, V, S, k, obj, p):
    return _look_ahead(X, V, S, obj, p, p.mu)


def _nag_k(X, V, S, k, obj, p):
    return _look_ahead(X, V, S, obj, p, _nesterov_coefficient(k + 1))


def _sqnorm(V):
    """Row-wise squared norm as a trailing column, so a row of a stack
    reduces exactly like that row alone."""
    return (V * V).sum(axis=-1, keepdims=True)


def _relativistic(X, V, S, obj, p, mu_h):
    """Shared RGD/CRGD update; mu_h is the per-step dissipation factor.

    Half drift, gradient kick, half drift, with the velocity renormalized
    relativistically (each drift moves X by at most 1/sqrt(delta)) and
    sqrt(mu_h) damping applied around the kick.  S follows the same
    composition of exact stage flows in the m=1 gauge, tau = sqrt(2 eps).
    """
    sq = np.sqrt(mu_h)
    eps, delta = p.epsilon, p.delta
    v2_k = _sqnorm(V)
    a = 1.0 / np.sqrt(delta * mu_h * v2_k + 1.0)
    x_mid = X + sq * V * a
    v_mid = sq * V - eps * obj.grad(x_mid)
    v2_mid = _sqnorm(v_mid)
    b = 1.0 / np.sqrt(delta * v2_mid + 1.0)
    if S is not None:
        # the two half drifts' rate |P|^2 / (g (1 + g)), with 1/g = a and b
        kin = (mu_h * v2_k * (a * a / (1.0 + a)) + v2_mid * (b * b / (1.0 + b))) / eps
        f_mid = np.expand_dims(obj.eval(x_mid), -1)
        S = mu_h * S - sq * np.sqrt(2.0 * eps) * (f_mid - kin)
    return x_mid + v_mid * b, sq * v_mid, S


# libm's pow, elementwise: numpy's vectorized power rounds differently on
# different CPUs; this costs one call per run and step
_libm_pow = np.frompyfunc(math.pow, 2, 1)


def _crgd_factor(mu, t_mid):
    """mu^(1 + 1/t) at the step's midpoint t."""
    return np.asarray(_libm_pow(mu, 1.0 + 1.0 / t_mid), dtype=float)


def _rgd(X, V, S, k, obj, p):
    return _relativistic(X, V, S, obj, p, p.mu)


def _crgd(X, V, S, k, obj, p):
    return _relativistic(X, V, S, obj, p, _crgd_factor(p.mu, k + 0.5))


def _crgd_t(X, V, S, k, obj, p):
    """crgd at the physical time (k + 1/2) tau, tau = sqrt(2 epsilon)."""
    return _relativistic(X, V, S, obj, p, _crgd_factor(p.mu, (k + 0.5) * np.sqrt(2.0 * p.epsilon)))


_UPDATES = {
    "gd": _gd, "cm": _cm, "nag": _nag, "nag_k": _nag_k,
    "rgd": _rgd, "crgd": _crgd, "crgd_t": _crgd_t,
}


def _split(z: np.ndarray, k: int):
    """The X, V and S parts of the flat row z, as views, at iteration k >= 0."""
    z = check_row(z)
    if k < 0:
        raise ValueError(f"iteration counter must be non-negative, got {k}")
    n = len(z) // 2
    return z[:n], z[n:-1], z[-1:]


def step(z: np.ndarray, k: int, obj: Objective, cfg: OptimizerConfig) -> Step:
    """One step of the update cfg.kind selects, S included: the map
    (z, k) -> (z, k + 1) of the flat (X, V, S) row at iteration k, to a new
    row.  For nag and nag_k, V holds the look-ahead point."""
    x, v, s = _UPDATES[cfg.kind](*_split(z, k), k, obj, cfg)
    return np.concatenate([x, v, s]), k + 1


def nag_contact_map(z: np.ndarray, t: float, k: int) -> Step:
    """The momentum half of the Nesterov factorization at iteration k >= 1,
    as a map of the flat (X, P, S) row.

    (X, P, S) -> (P, P + c (P - X), c S) with c = (k-1)/(k+2), clock
    unchanged; the map rescales the std2 contact form by exactly c, which
    `contact.conformal_factor` reads off its complex-step Jacobian.
    """
    return np.concatenate(_momentum(*_split(z, k), _nesterov_coefficient(k))), t


@dataclass(frozen=True)
class _Columns:
    """The tunables of T configs of one kind as (T, 1) columns, read by the
    update under the same attribute names as an OptimizerConfig."""

    tau: np.ndarray
    epsilon: np.ndarray
    mu: np.ndarray
    delta: np.ndarray

    @classmethod
    def of(cls, cfgs) -> "_Columns":
        if len({c.kind for c in cfgs}) != 1:
            raise ValueError("a batch needs one kind")
        return cls(*(np.array([[getattr(c, name)] for c in cfgs], dtype=float) for name in TUNABLES))

    def rows(self, keep: np.ndarray) -> "_Columns":
        return _Columns(*(getattr(self, name)[keep] for name in TUNABLES))


class BatchRecords(Sequence):
    """The runs of one batch: column i of the gap matrix is run i.

    ``gaps`` is (iters + 1, T); a column that diverged holds +inf from its
    stop index on.  Indexing builds the RunRecord of one run (its finite prefix
    and the flag); ``final_gaps`` and ``diverged`` serve callers, such as a
    search, that need no traces.
    """

    def __init__(self, cfgs, gaps, stop, diverged, trial_seeds):
        self.cfgs = cfgs
        self.gaps = gaps
        self.stop = stop
        self.diverged = diverged
        self.trial_seeds = trial_seeds

    def __len__(self) -> int:
        return len(self.cfgs)

    def __getitem__(self, i: int) -> RunRecord:
        cfg = self.cfgs[i]
        return RunRecord(
            kind=cfg.kind,
            params=cfg.params_dict(),
            trace=tuple(self.gaps[: self.stop[i], i].tolist()),
            diverged=bool(self.diverged[i]),
            trial_seed=self.trial_seeds[i],
        )

    @property
    def final_gaps(self) -> np.ndarray:
        """Last recorded gap per run; +inf for diverged runs."""
        return np.where(self.diverged, math.inf, self.gaps[-1])


def run_batch(
    obj: Objective,
    cfgs: Sequence[OptimizerConfig],
    X0s,
    iters: int,
    trial_seeds: Optional[Sequence[int]] = None,
) -> BatchRecords:
    """Run T configs of one kind from T start vectors as one (T, n) stack,
    recording the objective gap of every run at every iteration.

    The gap is f(X) minus the objective's known minimum value when one is
    declared, else raw f.  The start gap is always recorded.  A run whose
    gap is not within the divergence limit (contact.within_limit) is
    flagged diverged and dropped from the stack, together with its row of
    an objective that has per-row parameters (``obj.rows``); its record
    keeps only the gaps before that step.  S is skipped: it never
    feeds back into X or V, and a blown-up X or V shows up in the same
    step's gap.

    ``obj`` must evaluate a (T, n) stack to T values (see Objective); one
    written for a single point is rejected with a ValueError before the
    first step.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    cfgs = list(cfgs)
    T = len(cfgs)
    if T == 0:
        raise ValueError("a batch needs at least one config")
    X = np.array(X0s, dtype=float)
    if X.ndim != 2 or X.shape[0] != T:
        raise ValueError(
            f"need one start vector per config: {T} configs, start shape {X.shape}"
        )
    seeds = [0] * T if trial_seeds is None else list(trial_seeds)
    if len(seeds) != T:
        raise ValueError(f"need one trial seed per config: {T} configs, {len(seeds)} trial seeds")
    kind = cfgs[0].kind
    update = _UPDATES[kind]
    p = _Columns.of(cfgs)
    f_star = obj.known_min_value

    def gap(x: np.ndarray) -> np.ndarray:
        g = obj.eval(x)
        return g - f_star if f_star else g  # f - 0 is f, bit for bit

    V = _start_velocity(X, kind)
    gaps = np.full((iters + 1, T), math.inf)
    stop = np.full(T, iters + 1)
    diverged = np.zeros(T, dtype=bool)
    live = np.arange(T)
    with np.errstate(all="ignore"):
        gaps[0] = _start_gaps(obj, gap, X)
        for k in range(iters):
            X, V, _ = update(X, V, None, k, obj, p)
            g = gap(X)
            keep = within_limit(g)
            if not keep.all():
                dead = live[~keep]
                stop[dead] = k + 1
                diverged[dead] = True
                live, X, V, g, p = live[keep], X[keep], V[keep], g[keep], p.rows(keep)
                if obj.rows is not None:  # per-row parameters drop with their rows
                    obj = obj.rows(keep)
                if live.size == 0:
                    break
            gaps[k + 1, live] = g
    return BatchRecords(cfgs, gaps, stop, diverged, seeds)


def _start_gaps(obj: Objective, gap, X: np.ndarray) -> np.ndarray:
    """The gaps at the start stack, checking that the objective evaluates a
    (T, n) stack to T values as the Objective contract asks."""
    try:
        g = gap(X)
    except (TypeError, ValueError, IndexError) as e:
        raise ValueError(
            f"objective {obj.name!r} cannot evaluate a {X.shape} stack of "
            f"start points; eval and grad must reduce over the last axis: {e}"
        ) from e
    if np.shape(g) != X.shape[:1]:
        raise ValueError(
            f"objective {obj.name!r} maps a {X.shape} stack to shape "
            f"{np.shape(g)}, not {X.shape[:1]}; eval and grad must reduce "
            f"over the last axis"
        )
    return g


def run(
    obj: Objective,
    cfg: OptimizerConfig,
    X0: np.ndarray,
    iters: int,
    trial_seed: int = 0,
) -> RunRecord:
    """One run: the T=1 case of :func:`run_batch`."""
    return run_batch(obj, [cfg], [X0], iters, [trial_seed])[0]
