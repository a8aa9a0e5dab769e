"""Discrete optimizers: gradient descent, heavy ball, Nesterov, and the
relativistic pair RGD/CRGD.

RGD and CRGD are one and the same update written in the tuned parameters
(epsilon, mu, delta); the only difference is the dissipation factor applied
per step.  RGD uses the constant mu, CRGD uses mu^(1 + 1/(k + 1/2)) on an
iteration clock, which starts at mu^3 and relaxes toward mu.  Each step is
algebraically identical to one Strang splitting step of the relativistic
contact Hamiltonian under the substitutions V = tau*P/2m, epsilon =
tau^2/2m, mu = exp(-gamma*tau), delta = 4/(c*tau)^2; the test suite holds
the two code paths to 1e-12 of each other.

The S component is carried in the state for the checks and for callers
that step by hand; run() records only the gap, and S never feeds back into
X or V.  Its per-step update is derived by composing the exact stage flows
in the m=1 gauge (tau = sqrt(2*epsilon)).  With delta = 0 the kinetic rate
keeps only the velocity-dependent part, since the rest-energy constant
diverges in that limit.
"""

import math
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .contact import DIVERGENCE_LIMIT, ContactState, PointMap
from .objectives import Objective

__all__ = [
    "OPTIMIZER_KINDS",
    "KIND_PARAMS",
    "OptimizerConfig",
    "OptState",
    "RunRecord",
    "init_state",
    "gd_step",
    "cm_step",
    "nag_step",
    "nag_decomposed_step",
    "nag_contact_map",
    "rgd_step",
    "crgd_step",
    "run",
]

# the tunables each kind reads, in the order search draws them
KIND_PARAMS = {
    "gd": ("tau",),
    "cm": ("tau", "mu"),
    "nag": ("tau", "mu"),
    "rgd": ("epsilon", "mu", "delta"),
    "crgd": ("epsilon", "mu", "delta"),
}
OPTIMIZER_KINDS = tuple(KIND_PARAMS)


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for one optimizer.

    gd/cm/nag read ``tau`` (and cm/nag ``mu``); rgd/crgd read ``epsilon``,
    ``mu`` and ``delta``.  ``momentum_schedule`` only matters for nag:
    "constant" uses mu as the momentum coefficient, "nesterov_k" uses the
    classical (k-1)/(k+2).  ``clock`` selects whether crgd's dissipation
    exponent counts iterations (default) or physical time k*tau.
    """

    kind: str
    tau: float = 0.1
    epsilon: float = 1e-2
    mu: float = 0.9
    delta: float = 1.0
    momentum_schedule: str = "constant"
    clock: str = "iteration"

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(
                f"unknown optimizer kind {self.kind!r}; valid: {', '.join(OPTIMIZER_KINDS)}"
            )
        if not (self.tau > 0):
            raise ValueError(f"tau must be positive, got {self.tau}")
        if not (self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not (0.0 < self.mu <= 1.0):
            raise ValueError(f"mu must lie in (0, 1], got {self.mu}")
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if self.momentum_schedule not in ("constant", "nesterov_k"):
            raise ValueError(
                f"momentum_schedule must be 'constant' or 'nesterov_k', got {self.momentum_schedule!r}"
            )
        if self.clock not in ("iteration", "physical"):
            raise ValueError(
                f"clock must be 'iteration' or 'physical', got {self.clock!r}"
            )

    def params_dict(self) -> Dict[str, float]:
        """The tunables this kind actually reads, for reporting."""
        return {name: getattr(self, name) for name in KIND_PARAMS[self.kind]}


@dataclass(frozen=True)
class OptState:
    """Optimizer state: iterate X, velocity V, contact trace S, counter k.

    For nag, V holds the look-ahead point.  Steps never write into the
    arrays they are given, so a new state shares them instead of copying.
    """

    X: np.ndarray
    V: np.ndarray
    S: float
    k: int

    def __post_init__(self):
        if np.shape(self.X) != np.shape(self.V):
            raise ValueError("X and V must have the same length")
        if self.k < 0:
            raise ValueError(f"iteration counter must be non-negative, got {self.k}")


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


def init_state(X0: np.ndarray, kind: str) -> OptState:
    """Start state: V = 0 and S = 0 always, except nag's look-ahead slot
    starts at X0 itself."""
    x0 = np.array(X0, dtype=float)
    v0 = x0.copy() if kind == "nag" else np.zeros_like(x0)
    return OptState(X=x0, V=v0, S=0.0, k=0)


def gd_step(s: OptState, obj: Objective, cfg: OptimizerConfig) -> OptState:
    """Plain gradient descent: X -= tau * grad f(X)."""
    x = s.X - cfg.tau * obj.grad(s.X)
    return OptState(X=x, V=s.V, S=s.S, k=s.k + 1)


def cm_step(s: OptState, obj: Objective, cfg: OptimizerConfig) -> OptState:
    """Heavy ball: V <- mu V - tau grad f(X); X <- X + V."""
    v = cfg.mu * s.V - cfg.tau * obj.grad(s.X)
    return OptState(X=s.X + v, V=v, S=s.S, k=s.k + 1)


def _nag_coefficient(k_new: int, cfg: OptimizerConfig) -> float:
    if cfg.momentum_schedule == "nesterov_k":
        return (k_new - 1.0) / (k_new + 2.0)
    return cfg.mu


def nag_step(s: OptState, obj: Objective, cfg: OptimizerConfig) -> OptState:
    """Nesterov's method in two-sequence form; V carries the look-ahead
    point.  X+ = V - tau grad f(V); V+ = X+ + c (X+ - X)."""
    k_new = s.k + 1
    c = _nag_coefficient(k_new, cfg)
    x = s.V - cfg.tau * obj.grad(s.V)
    p = x + c * (x - s.X)
    return OptState(X=x, V=p, S=s.S, k=k_new)


def nag_decomposed_step(s: OptState, obj: Objective, cfg: OptimizerConfig) -> OptState:
    """Nesterov by its contact-geometric factorization.

    First the momentum map (X, V, S) -> (V, V + c (V - X), c S), which is a
    contact transformation of the std2 form with factor c, then a plain
    gradient step on the new X.  The X sequence matches nag_step whenever
    the look-ahead slot is consistent; the full sequences are compared (not
    asserted) by the `check` report because the two orderings disagree in
    the momentum slot at finite k.
    """
    k_new = s.k + 1
    c = _nag_coefficient(k_new, cfg)
    x1 = s.V
    p1 = s.V + c * (s.V - s.X)
    s1 = c * s.S
    x2 = x1 - cfg.tau * obj.grad(x1)
    return OptState(X=x2, V=p1, S=s1, k=k_new)


def nag_contact_map(k: int) -> PointMap:
    """The momentum half of the Nesterov factorization at iteration k, as a
    map of contact states with its exact (linear) Jacobian.

    (X, P, S) -> (P, P + c (P - X), c S) with c = (k-1)/(k+2); the map
    rescales the std2 contact form by exactly c.
    """
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    c = (k - 1.0) / (k + 2.0)

    def func(state: ContactState) -> ContactState:
        return ContactState(
            X=state.P.copy(),
            P=state.P + c * (state.P - state.X),
            S=c * state.S,
            t=state.t,
        )

    def jac(state: ContactState) -> np.ndarray:
        n = state.dim
        j = np.zeros((2 * n + 1, 2 * n + 1))
        eye = np.eye(n)
        j[:n, n : 2 * n] = eye
        j[n : 2 * n, :n] = -c * eye
        j[n : 2 * n, n : 2 * n] = (1.0 + c) * eye
        j[2 * n, 2 * n] = c
        return j

    return PointMap(name=f"nag_contact(k={k})", func=func, jacobian=jac)


def _relativistic_step(
    s: OptState, obj: Objective, cfg: OptimizerConfig, mu_h: float
) -> OptState:
    """Shared RGD/CRGD update; mu_h is the per-step dissipation factor.

    Half drift, gradient kick, half drift, with the velocity renormalized
    relativistically (each drift moves X by at most 1/sqrt(delta)) and
    sqrt(mu_h) damping applied around the kick.  The S recursion is the same
    composition of exact flows written out, in the m=1 gauge.
    """
    sq = math.sqrt(mu_h)
    eps, delta = cfg.epsilon, cfg.delta
    v2_k = float(s.V @ s.V)
    a = 1.0 / math.sqrt(delta * mu_h * v2_k + 1.0)
    x_mid = s.X + sq * s.V * a
    v_mid = sq * s.V - eps * obj.grad(x_mid)
    v2_mid = float(v_mid @ v_mid)
    b = 1.0 / math.sqrt(delta * v2_mid + 1.0)
    x_new = x_mid + v_mid * b
    v_new = sq * v_mid
    tau = math.sqrt(2.0 * eps)
    if delta > 0:
        kin = (a + b) / (eps * delta)
    else:
        # delta -> 0 limit with the constant rest-energy rate dropped
        kin = -(mu_h * v2_k + v2_mid) / (2.0 * eps)
    s_new = mu_h * s.S - sq * tau * (obj.eval(x_mid) + kin)
    return OptState(X=x_new, V=v_new, S=s_new, k=s.k + 1)


def rgd_step(s: OptState, obj: Objective, cfg: OptimizerConfig) -> OptState:
    """Relativistic gradient descent: constant dissipation factor mu."""
    return _relativistic_step(s, obj, cfg, cfg.mu)


def crgd_step(s: OptState, obj: Objective, cfg: OptimizerConfig) -> OptState:
    """Contact RGD: dissipation factor mu^(1 + 1/t) read at the step's
    midpoint, t = k + 1/2 on the iteration clock (or (k + 1/2) tau on the
    physical clock with tau = sqrt(2 epsilon))."""
    t_mid = s.k + 0.5
    if cfg.clock == "physical":
        t_mid *= math.sqrt(2.0 * cfg.epsilon)
    mu_h = cfg.mu ** (1.0 + 1.0 / t_mid)
    return _relativistic_step(s, obj, cfg, mu_h)


_STEPS = {
    "gd": gd_step,
    "cm": cm_step,
    "nag": nag_step,
    "rgd": rgd_step,
    "crgd": crgd_step,
}


def run(
    obj: Objective,
    cfg: OptimizerConfig,
    X0: np.ndarray,
    iters: int,
    trial_seed: int = 0,
) -> RunRecord:
    """Iterate the configured step, recording the objective gap per iteration.

    The gap is f(X) minus the objective's known minimum value when one is
    declared, else raw f.  A gap that is not within DIVERGENCE_LIMIT in
    magnitude (NaN and +-inf included) stops the run early with the diverged
    flag set; the trace keeps only the entries before it.  S is not checked:
    it never feeds back into X or V, and a blown-up X or V shows up in the
    same step's gap.
    """
    if iters < 1:
        raise ValueError(f"iters must be >= 1, got {iters}")
    step = _STEPS[cfg.kind]
    f_star = obj.known_min_value

    def gap(x: np.ndarray) -> float:
        g = obj.eval(x)
        return g - f_star if f_star is not None else g

    s = init_state(X0, cfg.kind)
    trace = [gap(s.X)]
    diverged = False
    with np.errstate(all="ignore"):
        for _ in range(iters):
            s = step(s, obj, cfg)
            g = gap(s.X)
            if not abs(g) <= DIVERGENCE_LIMIT:
                diverged = True
                break
            trace.append(g)
    return RunRecord(
        kind=cfg.kind,
        params=cfg.params_dict(),
        trace=tuple(trace),
        diverged=diverged,
        trial_seed=trial_seed,
    )
