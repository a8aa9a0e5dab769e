"""Splitting integrators for the separable contact Hamiltonian.

Every Hamiltonian integrated here has the form K(P) + f(X) + h(t)*S, with
K = c*sqrt(|P|^2 + (mc)^2) - mc^2 = |P|^2 / (m (1 + g)), g = sqrt(1 + k|P|^2)
and k = (1/(mc))^2, one formula for every c in (0, inf] that is Newtonian at
c = inf, and a damping h(t) given with its derivative; :class:`ContactParams`
holds K and h, and :func:`contact_hamiltonian` assembles the whole H for the
RK4 oracle, one function returning its value and partials together.  H
splits into three pieces whose contact flows are known in closed form:

* phi1 (dissipation, h(t)*S): P and S decay by exp(-h(t) * dtau), with the
  clock frozen during the flow;
* phi2 (potential, f(X)):     gradient kick on P, action drop on S;
* phi3 (kinetic, K(P)):       drift of X at speed |P| / (m g) < c.

A time-shift operator advances the clock between flows.  The palindromic
arrangement shift/phi1/phi3/phi2/phi3/phi1/shift is a second-order contact
integrator; symmetric compositions of it (triple jump, Suzuki five-stage)
raise the order by two per level.  Every flow and step here is a contact
transformation written as a map of the flat (X, P, S) row z and the clock
t, ``(z, t, ...) -> (z, t)``, that returns a new row and never writes into
the one it is given; `contact.conformal_factor` certifies it through its
complex-step Jacobian, so every flow carries a complex row through its own
arithmetic (``p @ p`` and ``np.sqrt``, never ``float`` or ``math.sqrt``
of the row).  A composition plan is a name in
:data:`PLANS`, which holds each plan's design order and stage weights;
:func:`compose_step` and :func:`integrate_split` take the name, and
:func:`integrate_split` hands :func:`compose_step` to
``contact.Trajectory.of`` as the step it records from a start row and
clock.

:func:`strang_step` accepts an optional ``clock_dtau`` that decouples the
clock advance from the flow stepsize.  The optimizer family runs on an
iteration clock (one step advances t by 1 while the flows use tau), which
is how the mu^(1 + 1/(k+1/2)) dissipation factors of the discrete
algorithms arise.
"""

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .contact import ContactHamiltonian, Partials, Step, Trajectory, check_row
from .objectives import Objective

__all__ = [
    "ContactParams",
    "constant_damping",
    "nag_like_damping",
    "contact_hamiltonian",
    "flow_phi1",
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
    :func:`constant_damping` or :func:`nag_like_damping`.  K is relativistic
    less its rest energy, c*sqrt(|P|^2 + (mc)^2) - mc^2; c = math.inf
    gives the Newtonian |P|^2/2m.
    """

    h: Callable[[float], float]
    dh: Callable[[float], float]
    m: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if not (self.m > 0):
            raise ValueError(f"mass m must be positive, got {self.m}")
        if not (isinstance(self.c, numbers.Real) and self.c > 0):
            raise ValueError(f"speed parameter c must be positive or math.inf, got {self.c}")

    @property
    def k(self) -> float:
        """(1/(mc))^2, the weight of |P|^2 under K's root: 0 at c = inf, and
        inf, not an OverflowError, when c is below about 1e-154."""
        inv = 1.0 / (self.m * self.c)
        return inv * inv


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
    |P|^2, the root g and h(t) are computed once per point."""
    m, k, h, dh = params.m, params.k, params.h, params.dh

    def H(x, p, s, t) -> Partials:
        pp = float(p @ p)
        g = math.sqrt(1.0 + k * pp)
        ht = h(t)
        kinetic = pp / (m * (1.0 + g))
        return Partials(kinetic + obj.eval(x) + ht * s, obj.grad(x), p / (m * g), ht, dh(t) * s)

    return H


def flow_phi1(z: np.ndarray, t: float, dtau: float, params: ContactParams) -> Step:
    """Exact flow of the dissipative piece h(t)*S for a span dtau.

    P and S contract by exp(-h(t) * dtau); the clock is frozen, so h is
    evaluated at the row's own t.
    """
    n = len(z) // 2
    a = math.exp(-params.h(t) * dtau)
    return np.concatenate([z[:n], a * z[n:]]), t


def flow_phi2(z: np.ndarray, t: float, dtau: float, obj: Objective) -> Step:
    """Exact flow of the potential piece f(X): P -= grad f * dtau, S -= f * dtau."""
    n = len(z) // 2
    x = z[:n]
    return np.concatenate([x, z[n:-1] - obj.grad(x) * dtau, [z[-1] - obj.eval(x) * dtau]]), t


def flow_phi3(z: np.ndarray, t: float, dtau: float, params: ContactParams) -> Step:
    """Exact flow of the kinetic piece K(P): a drift of X.

    X += P*dtau/(m g), at most c*|dtau| whatever P, and S grows at the rate
    P.grad K - K = |P|^2 / (m g (1 + g)); at c = inf, g = 1.
    """
    n = len(z) // 2
    p = z[n:-1]
    pp = p @ p
    g = np.sqrt(1.0 + params.k * pp)
    mg = params.m * g
    return np.concatenate([z[:n] + p * dtau / mg, p, [z[-1] + pp * dtau / (mg * (1.0 + g))]]), t


def time_shift(z: np.ndarray, t: float, dtau: float) -> Step:
    """Advance the clock only; the row is returned as it is."""
    return z, t + dtau


def strang_step(
    z: np.ndarray,
    t: float,
    tau: float,
    obj: Objective,
    params: ContactParams,
    clock_dtau: Optional[float] = None,
) -> Step:
    """One palindromic second-order step of span tau.

    Order: shift, phi1, phi3, phi2, phi3, phi1, shift, with half-spans on the
    outer maps.  Both phi1 factors see the clock frozen at the midpoint.
    ``clock_dtau`` (default tau) is how far the clock advances over the step;
    passing 1.0 runs the iteration clock used by the discrete optimizers.
    Negative tau is legal and gives the exact inverse of the +tau step, which
    symmetric compositions rely on.
    """
    dclock = tau if clock_dtau is None else clock_dtau
    z, t = time_shift(z, t, 0.5 * dclock)
    z, t = flow_phi1(z, t, 0.5 * tau, params)
    z, t = flow_phi3(z, t, 0.5 * tau, params)
    z, t = flow_phi2(z, t, tau, obj)
    z, t = flow_phi3(z, t, 0.5 * tau, params)
    z, t = flow_phi1(z, t, 0.5 * tau, params)
    return time_shift(z, t, 0.5 * dclock)


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
    z: np.ndarray,
    t: float,
    tau: float,
    obj: Objective,
    params: ContactParams,
    plan: str,
) -> Step:
    """Run the named plan's Strang stages with spans w_j * tau."""
    if plan not in PLANS:
        raise ValueError(f"unknown plan {plan!r}; valid names: {', '.join(PLAN_NAMES)}")
    for w in PLANS[plan][1]:
        z, t = strang_step(z, t, w * tau, obj, params)
    return z, t


def integrate_split(
    z: np.ndarray,
    t: float,
    tau: float,
    n: int,
    obj: Objective,
    params: ContactParams,
    plan: str = "strang",
) -> Trajectory:
    """Advance n composed steps of a finite tau from the flat row z at
    clock t, recorded and truncated with a divergence flag (never an
    exception) by contact.Trajectory.of.  A negative tau runs the inverse
    steps."""
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    step = functools.partial(compose_step, tau=tau, obj=obj, params=params, plan=plan)
    return Trajectory.of(step, check_row(z), t, n)
