"""Geometric self-verification.

Each family below certifies one mathematical property of the build against
an independent route: conformal factors through numerical pullback,
convergence orders against the RK4 oracle, the discrete optimizer recursion
against the splitting flows, the dissipation identity against finite
differences of H, and the special-case reductions of the contact fields
against their classical counterparts.  Families return plain results; the
CLI formats them, the test suite asserts on them, and both share these
implementations so there is exactly one definition of "correct" per
property.
"""

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .contact import (
    ContactHamiltonian,
    ContactState,
    PointMap,
    conformal_factor,
    contact_field_std1,
    contact_field_std2,
    dissipation_residual,
    map_F,
    map_F_jacobian,
    reference_integrate,
)
from .integrators import (
    RelativisticParams,
    compose_map,
    crgd_hamiltonian,
    integrate_split,
    phi1_map,
    phi2_map,
    phi3_map,
    shift_map,
    split_plan,
    strang_map,
    strang_step,
)
from .objectives import make_random_quadratic
from .optimizers import (
    OptState,
    OptimizerConfig,
    crgd_step,
    nag_contact_map,
    nag_decomposed_step,
    nag_step,
    rgd_step,
)

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
]

TOL_CONFORMAL = 1e-8       # pullback residual for every discrete map
TOL_LAMBDA = 1e-12         # pinned conformal factors (phi1, Nesterov momentum map)
TOL_EQUIVALENCE = 1e-12    # optimizer recursion vs splitting flows
TOL_DISSIPATION = 1e-4     # dH/dt identity along an RK4 trajectory
TOL_CONSERVATIVE = 1e-6    # same, for S- and t-independent H
TOL_SPECIALIZATION = 1e-8  # pointwise field reductions
TOL_NAG_ODE = 1e-6         # x'' + (3/t) x' + grad f along a trajectory
ORDER2_SLACK = 0.1         # observed order windows
ORDER4_SLACK = 0.2
_ORDER_TAUS = (0.1, 0.05, 0.025, 0.0125)  # step sizes of the order sweep


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


def _random_state(rng: np.random.Generator, dim: int, t_lo: float = 0.5, t_hi: float = 3.0) -> ContactState:
    return ContactState(
        X=rng.standard_normal(dim),
        P=rng.standard_normal(dim),
        S=float(rng.standard_normal()),
        t=float(rng.uniform(t_lo, t_hi)),
    )


# ---------------------------------------------------------------------------
# Family: conformal factors
# ---------------------------------------------------------------------------


def check_conformal(seed: int = 0) -> List[CheckResult]:
    """Every discrete map must rescale the contact form by a scalar.

    20 seeded states per map; phi1's factor must equal exp(-h(t) dtau) and
    the Nesterov momentum map's factor (k-1)/(k+2), both to 1e-12.
    """
    rng = np.random.default_rng(seed)
    dim = 3
    obj = make_random_quadratic(11, dim, 0.1, 2.0)
    params = RelativisticParams(m=1.2, c=0.8, gamma=0.3, schedule="nag_like")
    dtau = 0.07
    candidates = [
        ("phi1", phi1_map(dtau, params), "std1", None),
        ("phi2", phi2_map(dtau, obj), "std1", None),
        ("phi3", phi3_map(dtau, params), "std1", None),
        ("time_shift", shift_map(dtau), "std1", None),
        ("strang", strang_map(dtau, obj, params), "std1", None),
        ("jump4", compose_map(dtau, obj, params, split_plan("jump4")), "std1", None),
        ("nag_contact(k=7)", nag_contact_map(7), "std2", None),
        ("map_F", PointMap("map_F", map_F, map_F_jacobian), "std2", "std1"),
    ]
    results = []
    for name, pm, form, src in candidates:
        worst = 0.0
        for _ in range(20):
            s = _random_state(rng, dim)
            _, res = conformal_factor(pm, form, s, source_form=src)
            worst = max(worst, res)
        results.append(
            CheckResult(
                family="conformal",
                name=f"{name} residual",
                passed=worst < TOL_CONFORMAL,
                value=worst,
                detail=f"tol {TOL_CONFORMAL:g}",
            )
        )
    # pinned factor: phi1
    worst = 0.0
    for _ in range(20):
        s = _random_state(rng, dim)
        lam, _ = conformal_factor(phi1_map(dtau, params), "std1", s)
        worst = max(worst, abs(lam - math.exp(-params.h(s.t) * dtau)))
    results.append(
        CheckResult(
            family="conformal",
            name="phi1 factor = exp(-h dtau)",
            passed=worst < TOL_LAMBDA,
            value=worst,
            detail=f"tol {TOL_LAMBDA:g}",
        )
    )
    # pinned factor: Nesterov momentum map over k = 2..50
    worst = 0.0
    s = _random_state(rng, dim)
    for k in range(2, 51):
        lam, _ = conformal_factor(nag_contact_map(k), "std2", s)
        worst = max(worst, abs(lam - (k - 1.0) / (k + 2.0)))
    results.append(
        CheckResult(
            family="conformal",
            name="nag_contact factor = (k-1)/(k+2), k=2..50",
            passed=worst < TOL_LAMBDA,
            value=worst,
            detail=f"tol {TOL_LAMBDA:g}",
        )
    )
    # map_F turns the std2 form into the std1 form on the nose
    worst = 0.0
    for _ in range(20):
        s = _random_state(rng, dim)
        lam, _ = conformal_factor(
            PointMap("map_F", map_F, map_F_jacobian), "std2", s, source_form="std1"
        )
        worst = max(worst, abs(lam - 1.0))
    results.append(
        CheckResult(
            family="conformal",
            name="map_F factor = 1",
            passed=worst < TOL_LAMBDA,
            value=worst,
            detail=f"tol {TOL_LAMBDA:g}",
        )
    )
    return results


# ---------------------------------------------------------------------------
# Family: convergence orders
# ---------------------------------------------------------------------------


def order_errors(
    plan_names: Sequence[str],
    taus: Sequence[float] = _ORDER_TAUS,
    horizon: float = 1.0,
    seed: int = 4,
) -> Dict[str, List[float]]:
    """Endpoint error of each composition plan at each step size in taus.

    Integrates the relativistic Hamiltonian (m = c = 1, gamma = 0.1,
    random quadratic potential in 4 dims) to a fixed horizon from t = 1 and
    takes the max-norm distance to the RK4 reference at dt = tau/100.  The
    plans share the start state, the Hamiltonian and the tau grid, so each
    reference is integrated once per tau and its endpoint is compared with
    every plan.  Returns {plan name: [error per tau]}.
    """
    plans = {name: split_plan(name) for name in plan_names}
    obj = make_random_quadratic(seed, 4, 0.2, 1.5)
    params = RelativisticParams(m=1.0, c=1.0, gamma=0.1, schedule="nag_like")
    ham = crgd_hamiltonian(obj, params)
    rng = np.random.default_rng(seed + 1)
    s0 = ContactState(
        X=rng.standard_normal(4), P=rng.standard_normal(4), S=0.3, t=1.0
    )
    errors: Dict[str, List[float]] = {name: [] for name in plans}
    for tau in taus:
        n = int(round(horizon / tau))
        ref = reference_integrate(ham, "std1", s0, tau / 100.0, n * 100)
        if ref.diverged:
            raise RuntimeError(f"order sweep reference diverged at tau={tau}")
        ref_end = ref[-1].coords()
        del ref  # only the endpoint is compared; free the n * 100 states
        for name, plan in plans.items():
            approx = integrate_split(s0, tau, n, obj, params, plan)
            if approx.diverged:
                raise RuntimeError(f"{name} order sweep diverged at tau={tau}")
            errors[name].append(float(np.max(np.abs(approx[-1].coords() - ref_end))))
    return errors


def fit_order(taus: Sequence[float], errors: Sequence[float]) -> float:
    """Observed global convergence order: the log-log slope of the
    endpoint errors against the step sizes."""
    return float(np.polyfit(np.log(taus), np.log(errors), 1)[0])


def check_orders(seed: int = 4) -> List[CheckResult]:
    """Strang must land at order 2, the fourth-order compositions at 4."""
    targets = (
        ("strang", 2.0, ORDER2_SLACK),
        ("jump4", 4.0, ORDER4_SLACK),
        ("suzuki4", 4.0, ORDER4_SLACK),
    )
    errors = order_errors([name for name, _, _ in targets], seed=seed)
    results = []
    for plan_name, target, slack in targets:
        p = fit_order(_ORDER_TAUS, errors[plan_name])
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


def check_equivalence(seed: int = 0, n_states: int = 100, n_params: int = 10) -> List[CheckResult]:
    """The (epsilon, mu, delta) recursion must be the Strang step in
    disguise: map V to P = 2V/tau, step, map back, to 1e-12."""
    rng = np.random.default_rng(seed)
    worst_crgd = 0.0
    worst_rgd = 0.0
    for _ in range(n_params):
        dim = int(rng.integers(1, 6))
        obj = make_random_quadratic(int(rng.integers(1_000_000)), dim, 0.1, 2.0)
        eps = float(rng.uniform(0.001, 0.5))
        mu = float(rng.uniform(0.5, 0.999))
        tau = math.sqrt(2.0 * eps)
        delta = 4.0 / tau**2
        gamma = -math.log(mu) / tau
        for _ in range(n_states // n_params):
            k = int(rng.integers(0, 30))
            x = rng.standard_normal(dim)
            v = rng.standard_normal(dim)
            s_val = float(rng.standard_normal())
            for kind, schedule in (("crgd", "nag_like"), ("rgd", "constant")):
                cfg = OptimizerConfig(kind=kind, epsilon=eps, mu=mu, delta=delta)
                stepper = crgd_step if kind == "crgd" else rgd_step
                s1 = stepper(OptState(X=x, V=v, S=s_val, k=k), obj, cfg)
                params = RelativisticParams(m=1.0, c=2.0 / (math.sqrt(delta) * tau), gamma=gamma, schedule=schedule)
                c1 = strang_step(
                    ContactState(X=x, P=2.0 * v / tau, S=s_val, t=float(k)),
                    tau,
                    obj,
                    params,
                    clock_dtau=1.0,
                )
                dev = max(
                    float(np.max(np.abs(s1.X - c1.X))),
                    float(np.max(np.abs(s1.V - tau * c1.P / 2.0))),
                    abs(s1.S - c1.S),
                )
                if kind == "crgd":
                    worst_crgd = max(worst_crgd, dev)
                else:
                    worst_rgd = max(worst_rgd, dev)
    results = [
        CheckResult(
            family="equivalence",
            name="crgd_step vs strang_step",
            passed=worst_crgd < TOL_EQUIVALENCE,
            value=worst_crgd,
            detail=f"tol {TOL_EQUIVALENCE:g}",
        ),
        CheckResult(
            family="equivalence",
            name="rgd_step vs strang_step (constant h)",
            passed=worst_rgd < TOL_EQUIVALENCE,
            value=worst_rgd,
            detail=f"tol {TOL_EQUIVALENCE:g}",
        ),
    ]
    # mu = 1 collapses crgd onto rgd exactly
    rng2 = np.random.default_rng(seed + 99)
    obj = make_random_quadratic(3, 3, 0.1, 2.0)
    cfg1 = OptimizerConfig(kind="rgd", epsilon=0.05, mu=1.0, delta=2.0)
    cfg2 = OptimizerConfig(kind="crgd", epsilon=0.05, mu=1.0, delta=2.0)
    s0 = OptState(X=rng2.standard_normal(3), V=rng2.standard_normal(3), S=0.2, k=3)
    a, b = rgd_step(s0, obj, cfg1), crgd_step(s0, obj, cfg2)
    bitwise = (
        np.array_equal(a.X, b.X) and np.array_equal(a.V, b.V) and a.S == b.S
    )
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
    obj = make_random_quadratic(seed + 21, 4, 0.2, 1.5)
    rng = np.random.default_rng(seed + 5)
    x0 = rng.standard_normal(4)
    p0 = rng.standard_normal(4)

    params = RelativisticParams(m=1.0, c=1.0, gamma=0.1, schedule="nag_like")
    ham = crgd_hamiltonian(obj, params)
    traj = reference_integrate(
        ham, "std1", ContactState(X=x0, P=p0, S=0.5, t=1.0), 1e-3, 1000
    )
    res_full = dissipation_residual(ham, traj)

    cons = RelativisticParams(m=1.0, c=1.0, gamma=0.0, schedule="constant")
    ham_cons = crgd_hamiltonian(obj, cons)
    traj_cons = reference_integrate(
        ham_cons, "std1", ContactState(X=x0, P=p0, S=0.5, t=1.0), 1e-3, 1000
    )
    res_cons = dissipation_residual(ham_cons, traj_cons)

    # pure decay: H = c S has the closed form H(t) = H(0) exp(-c t)
    c_decay = 0.7
    ham_decay = ContactHamiltonian(
        value=lambda x, p, s, t: c_decay * s,
        grad_X=lambda x, p, s, t: np.zeros_like(x),
        grad_P=lambda x, p, s, t: np.zeros_like(p),
        dS=lambda x, p, s, t: c_decay,
        dt=lambda x, p, s, t: 0.0,
    )
    traj_decay = reference_integrate(
        ham_decay, "std1", ContactState(X=x0, P=p0, S=1.3, t=0.0), 1e-3, 2000
    )
    worst_decay = 0.0
    h0 = ham_decay.at(traj_decay[0])
    for st in traj_decay:
        exact = h0 * math.exp(-c_decay * st.t)
        worst_decay = max(worst_decay, abs(ham_decay.at(st) - exact) / abs(exact))

    return [
        CheckResult(
            family="dissipation",
            name="relativistic H residual",
            passed=res_full < TOL_DISSIPATION,
            value=res_full,
            detail=f"tol {TOL_DISSIPATION:g}",
        ),
        CheckResult(
            family="dissipation",
            name="conservative H residual",
            passed=res_cons < TOL_CONSERVATIVE,
            value=res_cons,
            detail=f"tol {TOL_CONSERVATIVE:g}",
        ),
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


def check_specialization(seed: int = 0) -> List[CheckResult]:
    """The contact fields must reduce to the classical equations they
    generalize, pointwise and (for the accelerated-gradient ODE) along a
    trajectory."""
    rng = np.random.default_rng(seed + 7)
    dim = 3
    obj = make_random_quadratic(seed + 13, dim, 0.2, 1.5)

    def h0_value(x, p):
        return 0.5 * float(p @ p) + obj.eval(x)

    results = []

    # (a) no S dependence: plain Hamilton equations
    ham = ContactHamiltonian(
        value=lambda x, p, s, t: h0_value(x, p),
        grad_X=lambda x, p, s, t: obj.grad(x),
        grad_P=lambda x, p, s, t: p,
        dS=lambda x, p, s, t: 0.0,
        dt=lambda x, p, s, t: 0.0,
    )
    worst = 0.0
    for _ in range(20):
        st = _random_state(rng, dim)
        v = contact_field_std1(ham, st)
        worst = max(
            worst,
            float(np.max(np.abs(v.dX - st.P))),
            float(np.max(np.abs(v.dP + obj.grad(st.X)))),
        )
    results.append(
        CheckResult(
            family="specialization",
            name="S-independent H -> Hamilton equations",
            passed=worst < TOL_SPECIALIZATION,
            value=worst,
            detail=f"tol {TOL_SPECIALIZATION:g}",
        )
    )

    # (b) H0 + cS: linear friction -cP on the momentum equation
    c_lin = 0.8
    ham_cs = ContactHamiltonian(
        value=lambda x, p, s, t: h0_value(x, p) + c_lin * s,
        grad_X=lambda x, p, s, t: obj.grad(x),
        grad_P=lambda x, p, s, t: p,
        dS=lambda x, p, s, t: c_lin,
        dt=lambda x, p, s, t: 0.0,
    )
    worst = 0.0
    for _ in range(20):
        st = _random_state(rng, dim)
        v = contact_field_std1(ham_cs, st)
        worst = max(
            worst,
            float(np.max(np.abs(v.dX - st.P))),
            float(np.max(np.abs(v.dP + obj.grad(st.X) + c_lin * st.P))),
        )
    results.append(
        CheckResult(
            family="specialization",
            name="H0 + cS -> conformally damped equations",
            passed=worst < TOL_SPECIALIZATION,
            value=worst,
            detail=f"tol {TOL_SPECIALIZATION:g}",
        )
    )

    # (c) H0 + <X*, P> - <P*, X> + 2S in the symmetric convention:
    # relaxation toward the anchors (X*, P*)
    x_star = rng.standard_normal(dim)
    p_star = rng.standard_normal(dim)
    ham_hd = ContactHamiltonian(
        value=lambda x, p, s, t: h0_value(x, p)
        + float(x_star @ p)
        - float(p_star @ x)
        + 2.0 * s,
        grad_X=lambda x, p, s, t: obj.grad(x) - p_star,
        grad_P=lambda x, p, s, t: p + x_star,
        dS=lambda x, p, s, t: 2.0,
        dt=lambda x, p, s, t: 0.0,
    )
    worst = 0.0
    for _ in range(20):
        st = _random_state(rng, dim)
        v = contact_field_std2(ham_hd, st)
        worst = max(
            worst,
            float(np.max(np.abs(v.dX - (st.P + x_star - st.X)))),
            float(np.max(np.abs(v.dP - (-obj.grad(st.X) + p_star - st.P)))),
        )
    results.append(
        CheckResult(
            family="specialization",
            name="H0 + <X*,P> - <P*,X> + 2S -> anchored descent equations",
            passed=worst < TOL_SPECIALIZATION,
            value=worst,
            detail=f"tol {TOL_SPECIALIZATION:g}",
        )
    )

    # (d) H = |P|^2/2 + f + (3/t) S: the accelerated-gradient limit ODE
    # x'' + (3/t) x' + grad f(x) = 0, residual measured along an RK4
    # trajectory with x'' from a five-point centered difference of P
    # (the three-point stencil's dt^2 truncation error already exceeds
    # the tolerance near t = 1, where P''' is large)
    ham_nag = ContactHamiltonian(
        value=lambda x, p, s, t: h0_value(x, p) + (3.0 / t) * s,
        grad_X=lambda x, p, s, t: obj.grad(x),
        grad_P=lambda x, p, s, t: p,
        dS=lambda x, p, s, t: 3.0 / t,
        dt=lambda x, p, s, t: -3.0 * s / (t * t),
    )
    dt = 1e-3
    traj = reference_integrate(
        ham_nag,
        "std1",
        ContactState(X=rng.standard_normal(dim), P=np.zeros(dim), S=0.0, t=1.0),
        dt,
        1000,
    )
    worst = 0.0
    states = list(traj)
    for i in range(2, len(states) - 2):
        xdd = (
            -states[i + 2].P
            + 8.0 * states[i + 1].P
            - 8.0 * states[i - 1].P
            + states[i - 2].P
        ) / (12.0 * dt)
        st = states[i]
        res = xdd + (3.0 / st.t) * st.P + obj.grad(st.X)
        worst = max(worst, float(np.max(np.abs(res))))
    results.append(
        CheckResult(
            family="specialization",
            name="accelerated-gradient ODE residual",
            passed=worst < TOL_NAG_ODE,
            value=worst,
            detail=f"tol {TOL_NAG_ODE:g}",
        )
    )
    return results


# ---------------------------------------------------------------------------
# Family: Nesterov factorization report
# ---------------------------------------------------------------------------


def check_nag(seed: int = 0) -> List[CheckResult]:
    """Cross-checks of the two Nesterov implementations.

    The S sequence of the factorized stepper must follow the closed-form
    product of momentum coefficients (asserted); the X sequences of the
    classical and factorized steppers are compared and reported only, since
    the two orderings provably differ in the momentum slot at finite k.
    """
    rng = np.random.default_rng(seed + 3)
    dim = 4
    obj = make_random_quadratic(seed + 17, dim, 0.2, 1.5)
    cfg = OptimizerConfig(kind="nag", tau=0.1, momentum_schedule="nesterov_k")

    # S follows the product of coefficients, starting from a nonzero S at k0
    k0, s0_val, steps = 5, 1.7, 6
    st = OptState(X=rng.standard_normal(dim), V=rng.standard_normal(dim), S=s0_val, k=k0)
    expected = s0_val
    for j in range(k0 + 1, k0 + steps + 1):
        expected *= (j - 1.0) / (j + 2.0)
    cur = st
    for _ in range(steps):
        cur = nag_decomposed_step(cur, obj, cfg)
    dev_s = abs(cur.S - expected)
    results = [
        CheckResult(
            family="nag",
            name="factorized S = S0 * prod (k-1)/(k+2)",
            passed=dev_s < 1e-12,
            value=dev_s,
            detail="tol 1e-12",
        )
    ]

    # first step has zero momentum coefficient: the contact stage must set
    # the new momentum equal to the new point
    st1 = OptState(X=rng.standard_normal(dim), V=rng.standard_normal(dim), S=1.0, k=0)
    nxt = nag_decomposed_step(st1, obj, cfg)
    dev_first = float(np.max(np.abs(nxt.V - st1.V)))
    results.append(
        CheckResult(
            family="nag",
            name="k=1 momentum stage is trivial (c=0)",
            passed=dev_first == 0.0,
            value=dev_first,
        )
    )

    # report-only: iterate both forms side by side
    x0 = rng.standard_normal(dim)
    a = OptState(X=x0, V=x0.copy(), S=0.0, k=0)
    b = OptState(X=x0, V=x0.copy(), S=0.0, k=0)
    worst_x = 0.0
    for _ in range(30):
        a = nag_step(a, obj, cfg)
        b = nag_decomposed_step(b, obj, cfg)
        worst_x = max(worst_x, float(np.max(np.abs(a.X - b.X))))
    results.append(
        CheckResult(
            family="nag",
            name="classical vs factorized X sequence (report only)",
            passed=True,
            value=worst_x,
            detail="informational; the factorization reproduces each step "
            "from the classical state but is not self-consistent as an "
            "iteration, so the sequences drift apart",
        )
    )
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
    for n in names:
        if n not in CHECK_FAMILIES:
            raise ValueError(
                f"unknown check family {n!r}; valid: {', '.join(CHECK_FAMILIES)}"
            )
    results: List[CheckResult] = []
    for n in names:
        results.extend(CHECK_FAMILIES[n](seed))
    return results
