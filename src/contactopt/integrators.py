"""Splitting integrators for the separable contact Hamiltonian.

Every Hamiltonian integrated here has the form K(P) + f(X) + h(t)*S, with
the kinetic energy K relativistic, c*sqrt(|P|^2 + (mc)^2), or Newtonian,
|P|^2/2m, and a damping h(t) given with its derivative; :class:`ContactParams`
holds K and h, and :func:`contact_hamiltonian` assembles the whole H for the
RK4 oracle, one function returning its value and partials together.  H
splits into three pieces whose contact flows are known in closed form:

* phi1 (dissipation, h(t)*S): P and S decay by exp(-h(t) * dtau), with the
  clock frozen during the flow;
* phi2 (potential, f(X)):     gradient kick on P, action drop on S;
* phi3 (kinetic, K(P)):       drift of X, with speed limit c when K is
  relativistic.

A time-shift operator advances the clock between flows.  The palindromic
arrangement shift/phi1/phi3/phi2/phi3/phi1/shift is a second-order contact
integrator; symmetric compositions of it (triple jump, Suzuki five-stage)
raise the order by two per level.  Every flow and step here is a contact
transformation, a plain function of the state that
`contact.conformal_factor` can certify numerically; phi1, whose Jacobian is
diagonal, also comes with :func:`phi1_jacobian`.  A composition plan is a
name in :data:`PLANS`, which holds each plan's design order and stage
weights; :func:`compose_step` and :func:`integrate_split` take the name.

:func:`strang_step` accepts an optional ``clock_dtau`` that decouples the
clock advance from the flow stepsize.  The optimizer family runs on an
iteration clock (one step advances t by 1 while the flows use tau), which
is how the mu^(1 + 1/(k+1/2)) dissipation factors of the discrete
algorithms arise.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .contact import ContactHamiltonian, ContactState, Partials, Trajectory, within_limit
from .objectives import Objective

__all__ = [
    "ContactParams",
    "constant_damping",
    "nag_like_damping",
    "contact_hamiltonian",
    "flow_phi1",
    "phi1_jacobian",
    "flow_phi2",
    "flow_phi3",
    "time_shift",
    "strang_step",
    "triple_jump_coefficients",
    "compose_step",
    "integrate_split",
    "PLANS",
    "PLAN_NAMES",
]


@dataclass(frozen=True)
class ContactParams:
    """The separable Hamiltonian K(P) + f(X) + h(t)*S, less its potential f.

    ``h`` is the damping and ``dh`` its derivative, as returned by
    :func:`constant_damping` or :func:`nag_like_damping`.  K is relativistic,
    c*sqrt(|P|^2 + (mc)^2); when ``c`` is None it is Newtonian, |P|^2/2m.
    """

    h: Callable[[float], float]
    dh: Callable[[float], float]
    m: float = 1.0
    c: Optional[float] = 1.0

    def __post_init__(self):
        if not (self.m > 0):
            raise ValueError(f"mass m must be positive, got {self.m}")
        if self.c is not None and not (self.c > 0):
            raise ValueError(f"speed parameter c must be positive, got {self.c}")


def constant_damping(gamma: float) -> Tuple[Callable, Callable]:
    """h(t) = gamma and its derivative 0."""
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")
    return (lambda t: gamma), (lambda t: 0.0)


def nag_like_damping(gamma: float) -> Tuple[Callable, Callable]:
    """h(t) = gamma*(1 + 1/t) and its derivative -gamma/t^2; both need t > 0."""
    if gamma < 0:
        raise ValueError(f"gamma must be non-negative, got {gamma}")

    def positive(t):
        if t <= 0:
            raise ValueError(
                f"nag_like dissipation h(t) = gamma*(1 + 1/t) needs t > 0, got t = {t}"
            )
        return t

    return (lambda t: gamma * (1.0 + 1.0 / positive(t))), (lambda t: -gamma / (positive(t) * t))


def contact_hamiltonian(obj: Objective, params: ContactParams) -> ContactHamiltonian:
    """K(P) + f(X) + h(t)*S as one function returning its value and partials;
    |P|^2, the relativistic root and h(t) are computed once per point."""
    m, c, h, dh = params.m, params.c, params.h, params.dh

    def H(x, p, s, t) -> Partials:
        pp = float(p @ p)
        if c is None:
            kinetic, velocity = 0.5 * pp / m, p / m
        else:
            r = math.sqrt(pp + (m * c) ** 2)
            kinetic, velocity = c * r, c * p / r
        ht = h(t)
        return Partials(kinetic + obj.eval(x) + ht * s, obj.grad(x), velocity, ht, dh(t) * s)

    return H


def flow_phi1(state: ContactState, dtau: float, params: ContactParams) -> ContactState:
    """Exact flow of the dissipative piece h(t)*S for a span dtau.

    P and S contract by exp(-h(t) * dtau); the clock is frozen, so h is
    evaluated at the state's own t.
    """
    a = math.exp(-params.h(state.t) * dtau)
    return ContactState(X=state.X, P=a * state.P, S=a * state.S, t=state.t)


def phi1_jacobian(state: ContactState, dtau: float, params: ContactParams) -> np.ndarray:
    """Exact Jacobian of :func:`flow_phi1` in (X, P, S): diag(1, a, a)."""
    n = state.dim
    d = np.ones(2 * n + 1)
    d[n:] = math.exp(-params.h(state.t) * dtau)
    return np.diag(d)


def flow_phi2(state: ContactState, dtau: float, obj: Objective) -> ContactState:
    """Exact flow of the potential piece f(X): P -= grad f * dtau, S -= f * dtau."""
    return ContactState(
        X=state.X,
        P=state.P - obj.grad(state.X) * dtau,
        S=state.S - obj.eval(state.X) * dtau,
        t=state.t,
    )


def flow_phi3(state: ContactState, dtau: float, params: ContactParams) -> ContactState:
    """Exact flow of the kinetic piece K(P): a drift of X.

    Relativistic: X moves at most c*|dtau| regardless of P; S decreases by
    the rest-energy rate m^2 c^3 / sqrt(|P|^2 + (mc)^2).  Newtonian:
    X += P*dtau/m and S += |P|^2*dtau/2m.
    """
    m, c, p = params.m, params.c, state.P
    if c is None:
        dx, ds = p * dtau / m, float(p @ p) * dtau / (2.0 * m)
    else:
        r = math.sqrt(float(p @ p) + (m * c) ** 2)
        dx, ds = c * p * dtau / r, -(m * m * c**3 * dtau / r)
    return ContactState(X=state.X + dx, P=p, S=state.S + ds, t=state.t)


def time_shift(state: ContactState, dtau: float) -> ContactState:
    """Advance the clock only; X, P, S are untouched (bit-identical)."""
    return ContactState(X=state.X, P=state.P, S=state.S, t=state.t + dtau)


def strang_step(
    state: ContactState,
    tau: float,
    obj: Objective,
    params: ContactParams,
    clock_dtau: Optional[float] = None,
) -> ContactState:
    """One palindromic second-order step of span tau.

    Order: shift, phi1, phi3, phi2, phi3, phi1, shift, with half-spans on the
    outer maps.  Both phi1 factors see the clock frozen at the midpoint.
    ``clock_dtau`` (default tau) is how far the clock advances over the step;
    passing 1.0 runs the iteration clock used by the discrete optimizers.
    Negative tau is legal and gives the exact inverse of the +tau step, which
    symmetric compositions rely on.
    """
    dclock = tau if clock_dtau is None else clock_dtau
    s = time_shift(state, 0.5 * dclock)
    s = flow_phi1(s, 0.5 * tau, params)
    s = flow_phi3(s, 0.5 * tau, params)
    s = flow_phi2(s, tau, obj)
    s = flow_phi3(s, 0.5 * tau, params)
    s = flow_phi1(s, 0.5 * tau, params)
    return time_shift(s, 0.5 * dclock)


def triple_jump_coefficients(n: int) -> Tuple[float, float]:
    """Substep scalings (z0, z1) that promote a symmetric integrator of order
    2n to order 2n+2 via the composition S(z1*tau) S(z0*tau) S(z1*tau)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    r = 2.0 ** (1.0 / (2 * n + 1))
    z0 = -r / (2.0 - r)
    z1 = 1.0 / (2.0 - r)
    return z0, z1


_Z0, _Z1 = triple_jump_coefficients(1)
_Y0, _Y1 = triple_jump_coefficients(2)
_W1 = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))
_JUMP4 = (_Z1, _Z0, _Z1)
# name -> (design order, stage weights).  Stage j runs a Strang step of span
# weights[j] * tau; the weights read the same forwards and backwards and sum
# to 1, so a composition covers exactly one step.
PLANS = {
    "strang": (2, (1.0,)),
    "jump4": (4, _JUMP4),
    "suzuki4": (4, (_W1, _W1, 1.0 - 4.0 * _W1, _W1, _W1)),
    # the triple jump of jump4, flattened: each outer stage rescales every jump4 stage
    "jump6": (6, tuple(u * w for u in (_Y1, _Y0, _Y1) for w in _JUMP4)),
}
PLAN_NAMES = tuple(PLANS)


def compose_step(
    state: ContactState,
    tau: float,
    obj: Objective,
    params: ContactParams,
    plan: str,
) -> ContactState:
    """Run the named plan's Strang stages with spans w_j * tau."""
    if plan not in PLANS:
        raise ValueError(f"unknown plan {plan!r}; valid names: {', '.join(PLAN_NAMES)}")
    for w in PLANS[plan][1]:
        state = strang_step(state, w * tau, obj, params)
    return state


def integrate_split(
    state0: ContactState,
    tau: float,
    n: int,
    obj: Objective,
    params: ContactParams,
    plan: str = "strang",
) -> Trajectory:
    """Advance n composed steps, truncating with a divergence flag (never an
    exception) when a coordinate leaves the divergence limit (see
    contact.within_limit)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    ts = np.empty(n + 1)
    zs = np.empty((n + 1, 2 * state0.dim + 1))
    s = state0
    ts[0], zs[0] = s.t, s.coords()
    with np.errstate(all="ignore"):
        for i in range(1, n + 1):
            s = compose_step(s, tau, obj, params, plan)
            z = s.coords()
            if not within_limit(z).all():
                return Trajectory(ts[:i], zs[:i], diverged=True)
            ts[i], zs[i] = s.t, z
    return Trajectory(ts, zs)
