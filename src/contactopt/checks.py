"""Geometric self-verification.

Each family below certifies one mathematical property of the build against
an independent route: conformal factors through the pullback by each map's
complex-step Jacobian, exact to rounding, convergence orders against the
RK4 oracle, the discrete optimizer recursion against the splitting flows,
the dissipation identity against finite differences of H, the special-case
reductions of the contact fields against their classical counterparts, and
(``nag``) Nesterov's step: its S against the closed-form momentum product,
its trivial k = 1 stage, and its complex-step Jacobian against the closed
form of the symplectic defect, every result asserted.  Families return plain
results; the CLI formats them, the test suite asserts on them, and both
share these implementations so there is exactly one definition of
"correct" per property.

Every family takes the master seed and draws from one scheme: its
generator is seeded with derive_seed(seed, "check:<family>", 0) and its
random quadratic with derive_seed(seed, "check:<family>", 1), so no two
families, and no two master seeds, share a draw.

Every family reduces its evaluations with one NaN-propagating maximum,
:func:`~contactopt.objectives.largest`; a map that crushes the contact
form or cannot carry a complex row, or a run that did not finish, reads
as inf (``nag``'s Jacobian as NaN).  So such a certificate fails its
result, and run_checks raises only for a bad family name.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .contact import (
    Partials,
    _jacobian,
    conformal_factor,
    contact_field,
    dissipation_residual,
    map_F,
    reference_integrate,
)
from .integrators import (
    PLANS,
    ContactParams,
    compose_step,
    constant_damping,
    contact_hamiltonian,
    flow_phi1,
    flow_phi2,
    flow_phi3,
    integrate_split,
    nag_like_damping,
    strang_step,
    time_shift,
)
from .harness import derive_seed
from .objectives import largest, make_random_quadratic
from .optimizers import OptimizerConfig, nag_contact_map, step

__all__ = [
    "CheckResult",
    "CHECK_FAMILIES",
    "run_checks",
    "check_conformal",
    "check_orders",
    "check_equivalence",
    "check_dissipation",
    "check_specialization",
    "check_nag",
    "order_errors",
    "fit_order",
    "TOL_CONFORMAL",
    "TOL_LAMBDA",
    "TOL_EQUIVALENCE",
    "TOL_DISSIPATION",
    "TOL_CONSERVATIVE",
    "TOL_SPECIALIZATION",
    "TOL_NAG_ODE",
    "ORDER2_SLACK",
    "ORDER4_SLACK",
    "ORDER_TAUS",
]

TOL_CONFORMAL = 1e-12      # pullback residual for every discrete map
TOL_LAMBDA = 1e-12         # pinned conformal factors (phi1, Nesterov momentum map)
TOL_EQUIVALENCE = 1e-12    # optimizer recursion vs splitting flows
TOL_DISSIPATION = 1e-4     # dH/dt identity along an RK4 trajectory
TOL_CONSERVATIVE = 1e-6    # same, for S- and t-independent H
TOL_SPECIALIZATION = 1e-8  # pointwise field reductions
TOL_NAG_ODE = 1e-6         # x'' + (3/t) x' + grad f along a trajectory
ORDER2_SLACK = 0.1         # observed order windows
ORDER4_SLACK = 0.2
ORDER_TAUS = (0.1, 0.05, 0.025, 0.0125)  # step sizes of the order sweep


@dataclass(frozen=True)
class CheckResult:
    family: str
    name: str
    passed: bool
    value: float
    detail: str = ""

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.family}: {self.name} = {self.value:.3e}{extra}"


def _random_state(rng: np.random.Generator, dim: int) -> Tuple[np.ndarray, float]:
    """A random (X, P, S) row and clock, drawn in that order."""
    return rng.standard_normal(2 * dim + 1), float(rng.uniform(0.5, 3.0))


def _draws(seed: int, family: str) -> Tuple[np.random.Generator, int]:
    """The family's generator and the seed of its objective:
    derive_seed(seed, "check:<family>", i) for i = 0 and 1."""
    label = f"check:{family}"
    return np.random.default_rng(derive_seed(seed, label, 0)), derive_seed(seed, label, 1)


def _bounded(family: str, name: str, value: float, tol: float) -> CheckResult:
    """A result that passes when value < tol: a NaN or inf value fails."""
    return CheckResult(
        family=family, name=name, passed=value < tol, value=value, detail=f"tol {tol:g}"
    )


# ---------------------------------------------------------------------------
# Family: conformal factors
# ---------------------------------------------------------------------------


def check_conformal(seed: int = 0) -> List[CheckResult]:
    """Every discrete map must rescale the contact form by a scalar.

    20 seeded states per map, each map differentiated by complex step
    through its own code; phi1's factor must equal exp(-h(t) dtau), the
    Nesterov momentum map's factor (k-1)/(k+2) and map_F's factor 1, each
    to 1e-12.
    """
    rng, obj_seed = _draws(seed, "conformal")
    dim = 3
    obj = make_random_quadratic(obj_seed, dim, 0.1, 2.0)
    params = ContactParams(*nag_like_damping(0.3), m=1.2, c=0.8)
    dtau = 0.07
    # factors pinned in closed form, read from the residual loop's fits;
    # map_F turns the std2 form into the std1 form on the nose
    pinned = {"phi1": lambda t: math.exp(-params.h(t) * dtau), "map_F": lambda t: 1.0}
    factor_dev = {}
    # (name, map, form, source form)
    candidates = [
        ("phi1", lambda z, t: flow_phi1(z, t, dtau, params), "std1", None),
        ("phi2", lambda z, t: flow_phi2(z, t, dtau, obj), "std1", None),
        ("phi3", lambda z, t: flow_phi3(z, t, dtau, params), "std1", None),
        ("time_shift", lambda z, t: time_shift(z, t, dtau), "std1", None),
        ("strang", lambda z, t: strang_step(z, t, dtau, obj, params), "std1", None),
        ("jump4", lambda z, t: compose_step(z, t, dtau, obj, params, "jump4"), "std1", None),
        ("nag_contact(k=7)", lambda z, t: nag_contact_map(z, t, 7), "std2", None),
        ("map_F", map_F, "std2", "std1"),
    ]
    results = []
    for name, func, form, src in candidates:
        states = [_random_state(rng, dim) for _ in range(20)]
        fits = [conformal_factor(func, form, z, t, source_form=src) for z, t in states]
        residual = largest([res for _, res in fits])
        results.append(_bounded("conformal", f"{name} residual", residual, TOL_CONFORMAL))
        if name in pinned:
            devs = [abs(lam - pinned[name](t)) for (lam, _), (_, t) in zip(fits, states)]
            factor_dev[name] = largest(devs)
    results.append(
        _bounded("conformal", "phi1 factor = exp(-h dtau)", factor_dev["phi1"], TOL_LAMBDA)
    )
    # pinned factor: Nesterov momentum map over k = 2..50
    z0, t0 = _random_state(rng, dim)
    devs = []
    for k in range(2, 51):
        lam, _ = conformal_factor(lambda z, t: nag_contact_map(z, t, k), "std2", z0, t0)
        devs.append(abs(lam - (k - 1.0) / (k + 2.0)))
    name = "nag_contact factor = (k-1)/(k+2), k=2..50"
    results.append(_bounded("conformal", name, largest(devs), TOL_LAMBDA))
    results.append(_bounded("conformal", "map_F factor = 1", factor_dev["map_F"], TOL_LAMBDA))
    return results


# ---------------------------------------------------------------------------
# Family: convergence orders
# ---------------------------------------------------------------------------


def order_errors(
    plan_names: Sequence[str],
    taus: Sequence[float] = ORDER_TAUS,
    horizon: float = 1.0,
    seed: int = 0,
) -> Dict[str, List[float]]:
    """Endpoint error of each composition plan at each step size in taus.

    Integrates the relativistic Hamiltonian (m = c = 1, gamma = 0.1,
    random quadratic potential in 4 dims) to a fixed horizon from t = 1 and
    takes the max-norm distance to one RK4 reference, integrated once per
    sweep at dt = max(taus)/100 and shared by every plan and tau: each
    tau's n = round(horizon/tau) steps end on reference step n tau/dt,
    which must be a whole number.  Sharing relies on the reference's own
    error sitting far below the smallest error it measures; RK4 at
    dt = 1e-3 already agrees with dt/2 to the double-precision floor,
    about 1e-14 against plan errors of 1e-10 and up, and
    tests/test_checks.py guards the margin.  Returns
    {plan name: [error per tau]}, inf where the plan or the reference diverged.
    """
    rng, obj_seed = _draws(seed, "orders")
    obj = make_random_quadratic(obj_seed, 4, 0.2, 1.5)
    params = ContactParams(*nag_like_damping(0.1), m=1.0, c=1.0)
    ham = contact_hamiltonian(obj, params)
    z0 = np.append(rng.standard_normal(8), 0.3)  # (X, P, S) at t = 1
    dt = max(taus) / 100.0
    sweep = []  # (tau, its step count, the reference step it ends on)
    for tau in taus:
        n = int(round(horizon / tau))
        k = int(round(n * tau / dt))
        if not math.isclose(k * dt, n * tau, rel_tol=1e-9):
            raise ValueError(
                f"tau={tau:g} ends at t0 + {n * tau:g}, between the reference steps of dt={dt:g}"
            )
        sweep.append((tau, n, k))
    ref = reference_integrate(ham, "std1", z0, 1.0, dt, max(k for _, _, k in sweep))
    errors: Dict[str, List[float]] = {name: [] for name in plan_names}
    for tau, n, k in sweep:
        for name in errors:
            approx = integrate_split(z0, 1.0, tau, n, obj, params, name)
            done = not (ref.diverged or approx.diverged)
            errors[name].append(largest(np.abs(approx.z[-1] - ref.z[k])) if done else math.inf)
    return errors


def fit_order(taus: Sequence[float], errors: Sequence[float]) -> float:
    """Observed global convergence order: the log-log slope of the
    endpoint errors against the step sizes; NaN unless every error is
    positive and finite."""
    errors = np.asarray(errors, dtype=float)
    if not ((errors > 0.0) & (errors < math.inf)).all():
        return math.nan
    return float(np.polyfit(np.log(taus), np.log(errors), 1)[0])


def check_orders(seed: int = 0) -> List[CheckResult]:
    """Strang and the fourth-order compositions must each land at their
    design order in :data:`PLANS`."""
    slacks = {"strang": ORDER2_SLACK, "jump4": ORDER4_SLACK, "suzuki4": ORDER4_SLACK}
    errors = order_errors(list(slacks), seed=seed)
    results = []
    for plan_name, slack in slacks.items():
        target = float(PLANS[plan_name][0])
        p = fit_order(ORDER_TAUS, errors[plan_name])
        results.append(
            CheckResult(
                family="orders",
                name=f"{plan_name} observed order",
                passed=abs(p - target) <= slack,
                value=p,
                detail=f"target {target} +/- {slack}",
            )
        )
    return results


# ---------------------------------------------------------------------------
# Family: optimizer recursion vs splitting flows
# ---------------------------------------------------------------------------


def check_equivalence(seed: int = 0) -> List[CheckResult]:
    """The (epsilon, mu, delta) recursion must be the Strang step in
    disguise: map V to P = 2V/tau, step, map back, to 1e-12.  Ten
    parameter draws, ten random states each, with delta drawn apart from
    epsilon: in turn exactly 0 (c = inf), tiny, and in the presets' [0, 30].
    crgd runs on both clocks; the physical one is strang_step's own."""
    rng, obj_seed = _draws(seed, "equivalence")
    devs = {"crgd": [], "rgd": []}  # |optimizer - flow| per step, in (X, V, S)
    for i in range(10):
        dim = int(rng.integers(1, 6))
        obj = make_random_quadratic(int(rng.integers(1_000_000)), dim, 0.1, 2.0)
        eps = float(rng.uniform(0.001, 0.5))
        mu = float(rng.uniform(0.5, 0.999))
        delta = (0.0, 10.0 ** rng.uniform(-310.0, -8.0), rng.uniform(0.0, 30.0))[i % 3]
        tau = math.sqrt(2.0 * eps)
        c = math.inf if delta == 0.0 else 2.0 / (math.sqrt(delta) * tau)
        gamma = -math.log(mu) / tau
        legs = (("crgd", nag_like_damping, "iteration", 1.0),  # kind, damping, clock
                ("crgd", nag_like_damping, "physical", tau),  # and its advance per step
                ("rgd", constant_damping, "iteration", 1.0))
        for _ in range(10):
            k = int(rng.integers(0, 30))
            x, v = rng.standard_normal(dim), rng.standard_normal(dim)
            s_val = float(rng.standard_normal())
            z_opt = np.concatenate([x, v, [s_val]])
            z = np.concatenate([x, 2.0 * v / tau, [s_val]])
            for kind, damping, clock, unit in legs:
                cfg = OptimizerConfig(kind=kind, epsilon=eps, mu=mu, delta=delta, clock=clock)
                z1, _ = step(z_opt, k, obj, cfg)
                params = ContactParams(*damping(gamma), m=1.0, c=c)
                c1, _ = strang_step(z, k * unit, tau, obj, params, clock_dtau=unit)
                flow = np.concatenate([c1[:dim], tau * c1[dim:-1] / 2.0, c1[-1:]])
                devs[kind].append(np.abs(z1 - flow))
    names = {"crgd": "crgd_step vs strang_step", "rgd": "rgd_step vs strang_step (constant h)"}
    results = [_bounded("equivalence", names[kind], largest(np.concatenate(d)), TOL_EQUIVALENCE)
               for kind, d in devs.items()]
    # mu = 1 collapses crgd onto rgd exactly
    obj = make_random_quadratic(obj_seed, 3, 0.1, 2.0)
    cfg1 = OptimizerConfig(kind="rgd", epsilon=0.05, mu=1.0, delta=2.0)
    cfg2 = OptimizerConfig(kind="crgd", epsilon=0.05, mu=1.0, delta=2.0)
    z0 = np.concatenate([rng.standard_normal(3), rng.standard_normal(3), [0.2]])
    bitwise = np.array_equal(step(z0, 3, obj, cfg1)[0], step(z0, 3, obj, cfg2)[0])
    results.append(
        CheckResult(
            family="equivalence",
            name="rgd == crgd at mu = 1 (bitwise)",
            passed=bitwise,
            value=0.0 if bitwise else 1.0,
        )
    )
    return results


# ---------------------------------------------------------------------------
# Family: dissipation identity
# ---------------------------------------------------------------------------


def check_dissipation(seed: int = 0) -> List[CheckResult]:
    """dH/dt = -(dH/dS) H + dH/dt|_explicit along RK4 trajectories."""
    rng, obj_seed = _draws(seed, "dissipation")
    obj = make_random_quadratic(obj_seed, 4, 0.2, 1.5)
    xp = rng.standard_normal(8)  # the (X, P) of every start below
    hams = [contact_hamiltonian(obj, ContactParams(*damping, m=1.0, c=1.0))
            for damping in (nag_like_damping(0.1), constant_damping(0.0))]
    z0 = np.append(xp, 0.5)
    res_full, res_cons = (
        dissipation_residual(ham, reference_integrate(ham, "std1", z0, 1.0, 1e-3, 1000))
        for ham in hams
    )

    # pure decay: H = c S has the closed form H(t) = H(0) exp(-c t)
    c_decay = 0.7

    def ham_decay(x, p, s, t) -> Partials:
        return Partials(c_decay * s, np.zeros_like(x), np.zeros_like(p), c_decay, 0.0)

    traj_decay = reference_integrate(ham_decay, "std1", np.append(xp, 1.3), 0.0, 1e-3, 2000)
    worst_decay = math.inf  # unless the run finished
    if not traj_decay.diverged:
        h = ham_decay(traj_decay.X, traj_decay.P, traj_decay.S, traj_decay.t).value
        exact = h[0] * np.exp(-c_decay * traj_decay.t)
        worst_decay = largest(np.abs(h - exact) / np.abs(exact))

    return [
        _bounded("dissipation", "relativistic H residual", res_full, TOL_DISSIPATION),
        _bounded("dissipation", "conservative H residual", res_cons, TOL_CONSERVATIVE),
        CheckResult(
            family="dissipation",
            name="H = cS exponential decay",
            passed=worst_decay < 1e-6,
            value=worst_decay,
            detail="closed form, tol 1e-06",
        ),
    ]


# ---------------------------------------------------------------------------
# Family: classical special cases of the contact fields
# ---------------------------------------------------------------------------


def _field_residual(rng, dim, form, ham, residual) -> float:
    """Worst entry of residual(X, P, dX, dP) over 20 random rows, with dX
    and dP read from the named form's field of ham; residual returns their
    deviations from the classical equations."""
    devs = []
    for _ in range(20):
        z, t = _random_state(rng, dim)
        v = contact_field(ham, form, z, t)
        devs.extend(np.abs(r) for r in residual(z[:dim], z[dim:-1], v[:dim], v[dim:-1]))
    return largest(devs)


def check_specialization(seed: int = 0) -> List[CheckResult]:
    """The contact fields must reduce to the classical equations they
    generalize, pointwise and (for the accelerated-gradient ODE) along a
    trajectory."""
    rng, obj_seed = _draws(seed, "specialization")
    dim = 3
    obj = make_random_quadratic(obj_seed, dim, 0.2, 1.5)

    # (a) no S dependence (c = 0): plain Hamilton equations; (b) H0 + cS,
    # c = 0.8: linear friction -cP on the momentum equation
    worst_a, worst_b = (
        _field_residual(
            rng, dim, "std1",
            contact_hamiltonian(obj, ContactParams(*constant_damping(c_lin), c=math.inf)),
            lambda x, p, dx, dp, c_lin=c_lin: (dx - p, dp + obj.grad(x) + c_lin * p),
        )
        for c_lin in (0.0, 0.8)
    )
    # (c) H0 + <X*, P> - <P*, X> + 2S in the symmetric convention:
    # relaxation toward the anchors (X*, P*)
    x_star = rng.standard_normal(dim)
    p_star = rng.standard_normal(dim)

    def ham_hd(x, p, s, t) -> Partials:
        value = 0.5 * float(p @ p) + obj.eval(x) + float(x_star @ p) - float(p_star @ x) + 2.0 * s
        return Partials(value, obj.grad(x) - p_star, p + x_star, 2.0, 0.0)

    worst_c = _field_residual(
        rng, dim, "std2", ham_hd,
        lambda x, p, dx, dp: (dx - (p + x_star - x), dp - (-obj.grad(x) + p_star - p)),
    )

    # (d) H = |P|^2/2 + f + (3/t) S: the accelerated-gradient limit ODE
    # x'' + (3/t) x' + grad f(x) = 0, residual measured along an RK4
    # trajectory with x'' from a five-point centered difference of P
    # (the three-point stencil's dt^2 truncation error already exceeds
    # the tolerance near t = 1, where P''' is large)
    dt = 1e-3
    ham_nag = contact_hamiltonian(
        obj, ContactParams(lambda t: 3.0 / t, lambda t: -3.0 / (t * t), c=math.inf)
    )
    z0 = np.concatenate([rng.standard_normal(dim), np.zeros(dim + 1)])  # P = 0, S = 0
    traj = reference_integrate(ham_nag, "std1", z0, 1.0, dt, 1000)
    worst_d = math.inf  # unless the run finished
    if not traj.diverged:
        P = traj.P
        xdd = (-P[4:] + 8.0 * P[3:-1] - 8.0 * P[1:-3] + P[:-4]) / (12.0 * dt)
        # row by row: the assembled quadratic's stacked product may round differently
        grad = np.array([obj.grad(x) for x in traj.X[2:-2]])
        worst_d = largest(np.abs(xdd + (3.0 / traj.t[2:-2, None]) * P[2:-2] + grad))
    return [
        _bounded("specialization", "S-independent H -> Hamilton equations",
                 worst_a, TOL_SPECIALIZATION),
        _bounded("specialization", "H0 + cS -> conformally damped equations",
                 worst_b, TOL_SPECIALIZATION),
        _bounded("specialization", "H0 + <X*,P> - <P*,X> + 2S -> anchored descent equations",
                 worst_c, TOL_SPECIALIZATION),
        _bounded("specialization", "accelerated-gradient ODE residual",
                 worst_d, TOL_NAG_ODE),
    ]


# ---------------------------------------------------------------------------
# Family: Nesterov's step
# ---------------------------------------------------------------------------


def check_nag(seed: int = 0) -> List[CheckResult]:
    """NAG's step, ``step`` of kind nag, against three closed forms.

    Its S must follow the product of its momentum coefficients, and at
    k = 1, where the coefficient is 0, its new look-ahead must equal its
    new iterate.  Its Jacobian J in (X, V), read by complex step through
    step's own code on the family's random quadratic f = x'Ax/2, must
    satisfy J' Omega J = [[0, cB], [-cB, 0]] with B = I - tau A and
    Omega = [[0, I], [-I, 0]], at k = 5 under both momentum schedules,
    to 1e-12.  NAG thus rescales the symplectic form by c only to first
    order in tau, and its step is not a contact map; its momentum map is
    one, with factor c (``nag_contact_map``, certified by the conformal
    family).
    """
    rng, obj_seed = _draws(seed, "nag")
    dim = 4
    obj = make_random_quadratic(obj_seed, dim, 0.2, 1.5)
    cfg = OptimizerConfig(kind="nag", tau=0.1, momentum_schedule="nesterov_k")

    # S follows the product of coefficients, starting from a nonzero S at k = 5
    k, s0_val, steps = 5, 1.7, 6
    z = np.concatenate([rng.standard_normal(dim), rng.standard_normal(dim), [s0_val]])
    expected = s0_val
    for j in range(k + 1, k + steps + 1):
        z, k = step(z, k, obj, cfg)
        expected *= (j - 1.0) / (j + 2.0)
    dev_s = abs(float(z[-1]) - expected)
    results = [_bounded("nag", "factorized S = S0 * prod (k-1)/(k+2)", dev_s, 1e-12)]

    # the first step has zero momentum coefficient: the new look-ahead is
    # the new iterate
    z = np.concatenate([rng.standard_normal(dim), rng.standard_normal(dim), [1.0]])
    nxt, _ = step(z, 0, obj, cfg)
    dev_first = largest(np.abs(nxt[dim:-1] - nxt[:dim]))
    results.append(
        CheckResult(
            family="nag",
            name="k=1 momentum stage is trivial (c=0)",
            passed=dev_first == 0.0,
            value=dev_first,
        )
    )

    # the symplectic defect of the step at k = 5, where c is mu or k/(k+3)
    z, k, tau, mu = rng.standard_normal(2 * dim + 1), 5, 0.1, 0.9
    eye, zero = np.eye(dim), np.zeros((dim, dim))
    omega = np.block([[zero, eye], [-eye, zero]])
    b = eye - tau * obj.grad(eye)  # I - tau A
    devs = []
    for schedule, c in (("constant", mu), ("nesterov_k", k / (k + 3.0))):
        nag = OptimizerConfig(kind="nag", tau=tau, mu=mu, momentum_schedule=schedule)
        j = _jacobian(lambda row, i: step(row, i, obj, nag), z, k)[: 2 * dim, : 2 * dim]
        devs.append(np.abs(j.T @ omega @ j - np.block([[zero, c * b], [-c * b, zero]])))
    name = "step J'OmegaJ = [[0, cB], [-cB, 0]], B = I - tau A"
    results.append(_bounded("nag", name, largest(devs), TOL_EQUIVALENCE))
    return results


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

CHECK_FAMILIES: Dict[str, Callable[[int], List[CheckResult]]] = {
    "conformal": check_conformal,
    "orders": check_orders,
    "equivalence": check_equivalence,
    "dissipation": check_dissipation,
    "specialization": check_specialization,
    "nag": check_nag,
}


def run_checks(
    only: Optional[Sequence[str]] = None, seed: int = 0
) -> List[CheckResult]:
    """Run the selected families (all by default) and pool their results."""
    names = list(only) if only else list(CHECK_FAMILIES)
    for i, n in enumerate(names):
        if n not in CHECK_FAMILIES:
            raise ValueError(
                f"unknown check family {n!r}; valid: {', '.join(CHECK_FAMILIES)}"
            )
        if n in names[:i]:
            raise ValueError(f"check family {n!r} named twice")
    results: List[CheckResult] = []
    # an overflow stays a value, which fails its result, also under -W error
    with np.errstate(all="ignore"):
        for n in names:
            results.extend(CHECK_FAMILIES[n](seed))
    return results
