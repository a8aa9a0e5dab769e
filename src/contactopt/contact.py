"""Contact phase space on R^(2n+1): rows, 1-forms, Hamiltonian fields.

Coordinates are (X, P, S) plus a clock t.  Two coordinate conventions for the
contact form are supported, chosen by name:

* ``std1``: eta = dS - <P, dX>
* ``std2``: eta = dS - (1/2)<P, dX> + (1/2)<X, dP>

A point is a flat (X, P, S) row z of length 2n+1 with its clock t beside
it; a tangent vector is a flat (dX, dP, dS) row of the same length, and
the clock direction is not part of the contact geometry.  :func:`eta` evaluates a named form at a
row on a tangent.

A contact Hamiltonian is one function H(X, P, S, t) returning its value and
partials as one :class:`Partials`.  It generates a flow that dissipates H at
rate dH/dt = -(dH/dS) H + dH/dt|_explicit.  This module provides its vector
field in either convention (:func:`contact_field`), a hand-rolled RK4
reference integrator over that same field used as the accuracy oracle
everywhere else, :meth:`Trajectory.of`, the one loop that records a run for
that oracle and for the splitting integrator, and the two numerical
self-checks the rest of the package leans on: the dissipation-identity
residual and conformal-factor extraction (is a given discrete map a contact
transformation, and by what scaling factor?).  The one divergence rule,
:func:`within_limit`, sits beside its constant.

A discrete map is a function of the row and the clock that returns the
next pair, ``(z, t) -> (z, t)``: the signature :meth:`Trajectory.of` steps.
It returns a new row and never writes into the one it is given.  Its
Jacobian has one route, the complex step through the map's own code
(:func:`conformal_factor`), so a map must carry a complex row through
its arithmetic; a map that cannot fails its certificate.  A run or a
certificate starts from a row and a clock too, and checks the row once,
there, with :func:`check_row`.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .objectives import Objective, as_array, check_gradient, largest

__all__ = [
    "ContactHamiltonian",
    "Partials",
    "Trajectory",
    "DIVERGENCE_LIMIT",
    "within_limit",
    "check_row",
    "eta",
    "map_F",
    "contact_field",
    "reference_integrate",
    "dissipation_residual",
    "conformal_factor",
    "check_hamiltonian_gradients",
]

DIVERGENCE_LIMIT = 1e300


def within_limit(values) -> np.ndarray:
    """The one divergence rule, elementwise: whether |v| <= DIVERGENCE_LIMIT.
    NaN and +-inf are not within it; a value that is not has blown up."""
    return np.abs(values) <= DIVERGENCE_LIMIT


def check_row(z) -> np.ndarray:
    """z as a float array, or a complex one (a complex-step row), once it
    is a flat (X, P, S) row: one-dimensional and of odd length 2n+1.  Not
    a copy when z already is one."""
    z = as_array(z)
    if z.ndim != 1 or len(z) % 2 == 0:
        raise ValueError(f"need a flat row of odd length 2n+1, got shape {z.shape}")
    return z


class Partials(NamedTuple):
    """H and its partials at one point (X, P, S, t); the gradients are vectors."""

    value: float
    grad_X: np.ndarray
    grad_P: np.ndarray
    dS: float
    dt: float


# H(X, P, S, t) -> Partials, audited by :func:`check_hamiltonian_gradients`
ContactHamiltonian = Callable[[np.ndarray, np.ndarray, float, float], Partials]
# a map's next row and clock, and a map (z, t) -> (z, t) of the flat row
Step = Tuple[np.ndarray, float]
RowMap = Callable[[np.ndarray, float], Step]


def _field(form: str) -> Callable[..., np.ndarray]:
    """The field function of the named form; the one check of a form name."""
    if form not in _FIELDS:
        raise ValueError(f"unknown contact form {form!r}; expected 'std1' or 'std2'")
    return _FIELDS[form]


def _form_coeffs(form: str, z: np.ndarray) -> np.ndarray:
    """Covector components of the named form at the flat row z, in (X, P, S)
    order."""
    _field(form)  # rejects an unknown name
    n = len(z) // 2
    w = np.zeros(len(z))
    if form == "std1":
        w[:n] = -z[n:-1]
    else:
        w[:n] = -0.5 * z[n:-1]
        w[n:-1] = 0.5 * z[:n]
    w[-1] = 1.0
    return w


def eta(form: str, z: np.ndarray, v: np.ndarray) -> float:
    """Evaluate the named form at the flat row z on a flat tangent
    v = (dX, dP, dS)."""
    v = np.asarray(v, dtype=float)
    if v.shape != np.shape(z):
        raise ValueError(f"need a tangent of length {len(z)}, got shape {v.shape}")
    return float(_form_coeffs(form, z) @ v)


def map_F(z: np.ndarray, t: float) -> Step:
    """Coordinate change taking the std1 convention into std2.

    (X, P, S) -> (X + P, (P - X)/2, S - <X, P>/2), clock unchanged.  Pulling
    the std2 form back through this map returns the std1 form on the nose
    (conformal factor 1).
    """
    n = len(z) // 2
    x, p = z[:n], z[n:-1]
    return np.concatenate([x + p, 0.5 * (p - x), [z[-1] - 0.5 * (x @ p)]]), t


def _field_std1(H: ContactHamiltonian, z: np.ndarray, t: float) -> np.ndarray:
    """(dX, dP, dS) of H in std1 coordinates at the flat point z."""
    n = len(z) // 2
    p = z[n : 2 * n]
    h, gx, gp, hs, _ = H(z[:n], p, float(z[2 * n]), t)
    return np.concatenate([gp, -gx - p * hs, [float(gp @ p) - h]])


def _field_std2(H: ContactHamiltonian, z: np.ndarray, t: float) -> np.ndarray:
    """(dX, dP, dS) of H in std2 coordinates at the flat point z."""
    n = len(z) // 2
    x, p = z[:n], z[n : 2 * n]
    h, gx, gp, hs, _ = H(x, p, float(z[2 * n]), t)
    return np.concatenate(
        [gp - 0.5 * x * hs, -gx - 0.5 * p * hs, [0.5 * (float(x @ gx) + float(p @ gp)) - h]]
    )


_FIELDS = {"std1": _field_std1, "std2": _field_std2}


def contact_field(H: ContactHamiltonian, form: str, z: np.ndarray, t: float) -> np.ndarray:
    """Vector field of H in the named convention at the flat row z and
    clock t, as the flat (dX, dP, dS) row.  The clock always runs at rate 1
    and is handled by the integrator, not the tangent."""
    return _field(form)(H, z, t)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A sampled run of a flow: clock readings t, an (N,) array, and the
    (X, P, S) rows z, an (N, 2n+1) array, both read-only, plus a flag set
    when the run stopped at its last finite row.  ``X``, ``P`` and ``S``
    are read-only column views of z.  :meth:`of` records one by stepping."""

    t: np.ndarray
    z: np.ndarray
    diverged: bool = False

    def __post_init__(self):
        t, z = np.array(self.t, dtype=float), np.array(self.z, dtype=float)
        if t.ndim != 1 or z.ndim != 2 or len(z) != len(t) or z.shape[1] % 2 != 1:
            raise ValueError(
                f"need t of shape (N,) and z of shape (N, 2n+1), got {t.shape} and {z.shape}"
            )
        for name, arr in (("t", t), ("z", z)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "diverged", bool(self.diverged))

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def X(self) -> np.ndarray:
        return self.z[:, : self.z.shape[1] // 2]

    @property
    def P(self) -> np.ndarray:
        n = self.z.shape[1] // 2
        return self.z[:, n : 2 * n]

    @property
    def S(self) -> np.ndarray:
        return self.z[:, -1]

    @classmethod
    def of(cls, advance: RowMap, z: np.ndarray, t: float, n: int) -> "Trajectory":
        """The run of n steps ``z, t = advance(z, t)`` from the flat row z at
        clock t: n+1 rows, the start included, unless a row or its clock
        leaves the divergence limit (:func:`within_limit`), in which case
        the run is truncated before that row and flagged.  A start row or
        clock outside the limit gives a run of no rows, flagged."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        ts = np.empty(n + 1)
        zs = np.empty((n + 1, len(z)))
        with np.errstate(all="ignore"):
            for i in range(n + 1):
                if i:
                    z, t = advance(z, t)
                if not (within_limit(z).all() and within_limit(t)):
                    return cls(ts[:i], zs[:i], diverged=True)
                ts[i], zs[i] = t, z
        return cls(ts, zs)


def reference_integrate(
    H: ContactHamiltonian,
    form: str,
    z: np.ndarray,
    t: float,
    dt: float,
    n: int,
) -> Trajectory:
    """Classical RK4 on the contact field of the named ``form`` ('std1' or
    'std2'); the accuracy oracle.  n steps of a positive, finite dt from
    the flat row z at clock t, recorded and truncated by
    :meth:`Trajectory.of`.  The stages call the same field function as
    :func:`contact_field` on the flat (X, P, S) vector.
    """
    f = _field(form)
    if not 0 < dt < math.inf:  # also NaN
        raise ValueError(f"dt must be positive and finite, got {dt}")

    def rk4(z: np.ndarray, t: float) -> Step:
        k1 = f(H, z, t)
        k2 = f(H, z + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = f(H, z + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = f(H, z + dt * k3, t + dt)
        return z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), t + dt

    return Trajectory.of(rk4, check_row(z), t, n)


def dissipation_residual(H: ContactHamiltonian, traj: Trajectory) -> float:
    """Max relative mismatch of dH/dt = -(dH/dS) H + dH/dt along a trajectory.

    The left side is a centered finite difference of H, evaluated once per
    row of the trajectory (assumed uniformly spaced); the residual at each
    interior row is normalized by max(1, |H|); a NaN one gives NaN, and a
    run flagged ``diverged``, which did not finish, gives inf.
    """
    if traj.diverged:
        return np.inf
    if len(traj) < 3:
        raise ValueError("trajectory too short for a centered difference")
    parts = [H(*row) for row in zip(traj.X, traj.P, traj.S, traj.t)]
    h = np.array([q.value for q in parts], dtype=float)
    rate = np.array([q.dS for q in parts[1:-1]], dtype=float)
    explicit = np.array([q.dt for q in parts[1:-1]], dtype=float)
    lhs = (h[2:] - h[:-2]) / (2.0 * (traj.t[1] - traj.t[0]))
    rhs = -rate * h[1:-1] + explicit
    residual = np.abs(lhs - rhs) / np.maximum(1.0, np.abs(h[1:-1]))
    return largest(residual)


def _jacobian(func: RowMap, z: np.ndarray, t: float) -> np.ndarray:
    """The Jacobian of func's row at the real row z and clock t by complex
    step (Squire and Trapp, 1998): column j is Im func(z + i h e_j, t)/h
    with h = 1e-30, exact to rounding for a map whose code carries the
    imaginary part, since nothing is subtracted.  The rows are read-only.
    A map that cannot take a complex row, because it casts it to float
    (``ComplexWarning``, whatever the warning filters) or raises
    ``TypeError``, gets a Jacobian of NaN."""
    h = 1e-30
    shifted = z + 1j * h * np.eye(len(z))
    shifted.setflags(write=False)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            f = np.array([func(row, t)[0] for row in shifted])
    except (np.exceptions.ComplexWarning, TypeError):
        return np.full((len(z), len(z)), math.nan)
    # C order: the layout picks the BLAS kernel of the pullback j.T @ eta,
    # and with it the rounding of every certificate
    return np.ascontiguousarray(f.imag.T) / h


def conformal_factor(
    func: RowMap,
    form: str,
    z: np.ndarray,
    t: float,
    source_form: Optional[str] = None,
) -> tuple:
    """Extract the scalar by which a map rescales a contact form.

    Pulls the named form back through the Jacobian of the row map ``func``
    at the flat row z and clock t, differentiated by complex step through
    func's own code (2n+1 calls on complex rows, exact to rounding), and
    fits pullback = lambda * eta in least squares over all 2n+1 covector
    components.  Every row the map is given is a read-only copy, so the
    caller's z is never written into, nor frozen.  Returns (lambda, max
    absolute residual).  ``source_form`` lets the comparison form at the
    source differ from the pulled-back one, which is how a change of
    convention such as :func:`map_F` is certified; it defaults to ``form``.

    A fitted |lambda| below 1e-10, or a NaN one, means the map crushes the
    contact structure (or computed nothing): its residual is inf, so the
    certificate fails like any other.  So does a map whose code drops the
    imaginary part (its Jacobian reads 0), and one that cannot take a
    complex row: it casts it to float (``ComplexWarning``, whatever the
    warning filters) or raises ``TypeError``, and gets lambda NaN with
    residual inf.  A NaN residual stays NaN.
    """
    z = check_row(np.array(z, dtype=float))
    z.setflags(write=False)
    mapped, _ = func(z, t)
    j = _jacobian(func, z, t)
    eta_target = _form_coeffs(form, mapped)
    eta_src = _form_coeffs(source_form if source_form is not None else form, z)
    pullback = j.T @ eta_target
    lam = float(pullback @ eta_src) / float(eta_src @ eta_src)
    if not abs(lam) >= 1e-10:  # also NaN
        return lam, np.inf
    return lam, largest(np.abs(pullback - lam * eta_src))


def check_hamiltonian_gradients(
    H: ContactHamiltonian, z: np.ndarray, t: float, h: float = 1e-6
) -> float:
    """Worst relative error of the partials of one call at the flat row z
    and clock t, as :func:`~contactopt.objectives.check_gradient` audits an
    objective: H's value over the flat point (X, P, S, t), with the
    partials as its gradient."""
    z = check_row(z)
    n = len(z) // 2

    def at(w: np.ndarray) -> Partials:
        return H(w[:n], w[n : 2 * n], float(w[2 * n]), float(w[2 * n + 1]))

    def partials(w: np.ndarray) -> np.ndarray:
        q = at(w)
        return np.concatenate([q.grad_X, q.grad_P, [q.dS, q.dt]])

    flat = Objective("H", 2 * n + 2, eval=lambda w: at(w).value, grad=partials)
    return check_gradient(flat, np.append(z, t), h)
