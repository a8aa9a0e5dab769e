"""Benchmark objective functions with analytic gradients.

Every objective is a plain value object bundling an evaluation callable, its
gradient, and (when known) the global minimum.  Gradients are analytic; the
only numerical differentiation in this module is :func:`check_gradient`,
which exists to verify them.

``eval`` and ``grad`` take one point, a ``(n,)`` vector, or a stack of
points, a ``(T, n)`` array, and reduce over the last axis: a stack of T
points gives T values and a ``(T, n)`` gradient.  The batched optimizer
loop relies on this; the reductions are row sums (and ``X @ A`` for the
assembled quadratic), so a row of a stack is evaluated exactly like that
row alone for every objective but the assembled quadratic, whose matrix
product may differ in the last bits.  Integer powers are written as
products: numpy's vectorized ``power`` rounds differently on different
CPUs, a product does not.  A complex point or stack stays complex
(:func:`as_array`), so a map built on an objective can be differentiated
by complex step; a float one takes the float path bit for bit.

The random quadratic comes in two forms, both from one seeded Gaussian
matrix and its LAPACK QR.  :func:`make_random_quadratic` forms the
eigenbasis Q and assembles A = Q diag(lam) Q'.  :func:`draw_quadratic`
never forms Q: it returns lam and a rotation that applies the QR's
Householder reflectors to a start, with elementwise products and row
sums, so a row's bits do not depend on the rows rotated with it.
:func:`diagonal_quadratic` is the same function in the eigenbasis, where
each step costs O(n) instead of O(n^2) and has no BLAS product.  Its
eigenvalues may differ per row of a stack, one quadratic per run.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

__all__ = [
    "Objective",
    "draw_quadratic",
    "make_random_quadratic",
    "diagonal_quadratic",
    "quartic",
    "camelback",
    "rosenbrock",
    "check_gradient",
    "largest",
    "as_array",
    "get_objective",
    "check_objective",
    "OBJECTIVE_NAMES",
]


@dataclass(frozen=True)
class Objective:
    """A differentiable scalar function with an analytic gradient.

    ``eval`` maps a length-``dim`` vector to a float and a ``(T, dim)``
    stack to T values; ``grad`` maps either to an array of the same shape.
    ``known_min_value`` is set only when the optimum is known in closed
    form.  ``rows`` is set only for an objective with one set of
    parameters per row of a stack: ``rows(keep)`` is the objective of the
    kept rows, for a batch that drops diverged runs.
    """

    name: str
    dim: int
    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    known_min_value: Optional[float] = None
    rows: Optional[Callable[[np.ndarray], "Objective"]] = None


# X -> X @ Q for a (n,) start or a (T, n) stack; see draw_quadratic
Rotation = Callable[[np.ndarray], np.ndarray]


_FLOAT, _COMPLEX = np.dtype(float), np.dtype(complex)


def as_array(x) -> np.ndarray:
    """x as an array of float, or x itself when it already is an array of
    float or of complex: a complex row, as a complex-step Jacobian feeds
    a map, carries its imaginary part through every kernel that reads it."""
    x = np.asarray(x)
    return x if x.dtype is _FLOAT or x.dtype is _COMPLEX else np.asarray(x, dtype=float)


def _value(v):
    """A float for one point (a complex for a complex point), the array of
    row values for a stack."""
    if v.ndim:
        return v
    return v.item() if isinstance(v, complex) else float(v)


def _gauss_and_lam(seed: int, dim: int, eigen_lo: float, eigen_hi: float):
    """The seeded standard-Gaussian matrix, then the eigenvalues
    lam_i ~ U(eigen_lo, eigen_hi), from one generator."""
    check_objective("quadratic", dim, seed)
    if not (0.0 < eigen_lo <= eigen_hi):
        raise ValueError(
            f"need 0 < eigen_lo <= eigen_hi, got [{eigen_lo}, {eigen_hi}]"
        )
    rng = np.random.default_rng(seed)
    gauss = rng.standard_normal((dim, dim))
    return gauss, rng.uniform(eigen_lo, eigen_hi, size=dim)


def _signs(r_diag: np.ndarray) -> np.ndarray:
    """The column signs that make the diagonal of R positive."""
    signs = np.sign(r_diag)
    signs[signs == 0] = 1.0
    return signs


def draw_quadratic(
    seed: int, dim: int, eigen_lo: float, eigen_hi: float
) -> Tuple[np.ndarray, Rotation]:
    """Draw the eigenvalues lam of a random quadratic and the rotation
    into its eigenbasis Q, without forming Q.

    Q is the orthogonal factor of the QR decomposition of a seeded
    standard-Gaussian matrix, with the diagonal of R forced positive so the
    factorization is deterministic in the seed; lam and the matrix are
    those of :func:`make_random_quadratic`.  ``rotate(X)`` is ``X @ Q`` for
    a ``(n,)`` start or a ``(T, n)`` stack: it applies the Householder
    reflectors H_0, ..., H_{n-1} of Q = H_0 ... H_{n-1} to each distinct
    row with elementwise products and row sums, then the signs.  A row's
    bits depend only on that row and the factorization, and equal rows are
    rotated once.
    """
    gauss, lam = _gauss_and_lam(seed, dim, eigen_lo, eigen_hi)
    # row k of h is R's column k down to R[k, k], then v_k's entries below k
    h, tau = np.linalg.qr(gauss, mode="raw")
    del gauss
    signs = _signs(np.diagonal(h))
    np.fill_diagonal(h, 1.0)  # v_k[k] = 1, so v_k = h[k, k:] from row k down

    def rotate(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        rows = np.ascontiguousarray(x.reshape(-1, dim))
        keys = rows.view(np.dtype((np.void, rows.itemsize * dim)))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        y = rows[first]
        # x @ Q = (H_{n-1} ... H_0 x')' with H_k = I - tau_k v_k v_k'
        for k in range(dim):
            v, tail = h[k, k:], y[:, k:]
            tail -= (tau[k] * (tail * v).sum(axis=-1))[:, None] * v
        return (y * signs)[inverse].reshape(x.shape)

    return lam, rotate


def make_random_quadratic(
    seed: int, dim: int, eigen_lo: float, eigen_hi: float
) -> Objective:
    """Build f(x) = x'Ax/2 with A = Q diag(lam) Q' symmetric positive
    definite, lam and Q those :func:`draw_quadratic` rotates by; Q is formed
    from the reduced QR."""
    gauss, lam = _gauss_and_lam(seed, dim, eigen_lo, eigen_hi)
    q, r = np.linalg.qr(gauss)
    q *= _signs(np.diag(r))
    a = (q * lam) @ q.T
    a = 0.5 * (a + a.T)  # exact symmetry

    # A is symmetric, so X @ A is the gradient of every row of X at once
    def f(x: np.ndarray):
        x = as_array(x)
        return _value(0.5 * (x * (x @ a)).sum(axis=-1))

    def g(x: np.ndarray) -> np.ndarray:
        return as_array(x) @ a

    return Objective(
        name="quadratic",
        dim=dim,
        eval=f,
        grad=g,
        known_min_value=0.0,
    )


def diagonal_quadratic(lam) -> Objective:
    """f(x) = sum_i lam_i x_i^2 / 2, the random quadratic in its eigenbasis.

    ``lam`` is (n,), or (T, n) for a (T, n) stack whose row t has the
    eigenvalues lam[t]; a per-row objective evaluates stacks only.  A run
    on A = Q diag(lam) Q' from x0 gives the same gaps, up to rounding, as a
    run on this objective from x0 @ Q for every update that uses only
    gradients, linear combinations and squared norms.
    """
    lam = np.asarray(lam, dtype=float)
    dim = lam.shape[-1]

    def f(x: np.ndarray):
        x = as_array(x)
        return _value(0.5 * (x * (lam * x)).sum(axis=-1))

    def g(x: np.ndarray) -> np.ndarray:
        return lam * as_array(x)

    return Objective(
        name="quadratic",
        dim=dim,
        eval=f,
        grad=g,
        known_min_value=0.0,
        rows=(lambda keep: diagonal_quadratic(lam[keep])) if lam.ndim == 2 else None,
    )


def quartic(dim: int) -> Objective:
    """f(x) = sum_i i * x_i^4 (1-based i), convex with a very flat bowl at 0."""
    check_objective("quartic", dim)
    weights = np.arange(1, dim + 1, dtype=float)

    def f(x: np.ndarray):
        x = as_array(x)
        x2 = x * x
        return _value((weights * (x2 * x2)).sum(axis=-1))

    def g(x: np.ndarray) -> np.ndarray:
        x = as_array(x)
        return 4.0 * weights * (x * x * x)

    return Objective(
        name="quartic",
        dim=dim,
        eval=f,
        grad=g,
        known_min_value=0.0,
    )


def camelback() -> Objective:
    """Two-dimensional three-hump camelback function.

    f(x1, x2) = 2 x1^2 - 1.05 x1^4 + x1^6/6 + x1 x2 + x2^2.  Global minimum
    f(0, 0) = 0; two symmetric local minima near +-(-1.75, 0.87) with value
    about 0.3.
    """

    def f(x: np.ndarray):
        x = as_array(x)
        x1, x2 = x[..., 0], x[..., 1]
        s1 = x1 * x1
        q1 = s1 * s1
        return _value(2.0 * s1 - 1.05 * q1 + q1 * s1 / 6.0 + x1 * x2 + x2 * x2)

    def g(x: np.ndarray) -> np.ndarray:
        x = as_array(x)
        x1, x2 = x[..., 0], x[..., 1]
        s1 = x1 * x1
        out = np.empty_like(x)
        out[..., 0] = 4.0 * x1 - 4.2 * s1 * x1 + s1 * s1 * x1 + x2
        out[..., 1] = x1 + 2.0 * x2
        return out

    return Objective(
        name="camelback",
        dim=2,
        eval=f,
        grad=g,
        known_min_value=0.0,
    )


def rosenbrock(dim: int) -> Objective:
    """Chained Rosenbrock, f(x) = sum_{i<n} 100 (x_{i+1} - x_i^2)^2 + (1 - x_i)^2."""
    check_objective("rosenbrock", dim)

    def f(x: np.ndarray):
        x = as_array(x)
        head, tail = x[..., :-1], x[..., 1:]
        return _value(
            (100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2).sum(axis=-1)
        )

    def g(x: np.ndarray) -> np.ndarray:
        x = as_array(x)
        head = x[..., :-1]
        out = np.zeros_like(x)
        diff = x[..., 1:] - head**2
        out[..., :-1] += -400.0 * head * diff - 2.0 * (1.0 - head)
        out[..., 1:] += 200.0 * diff
        return out

    return Objective(
        name="rosenbrock",
        dim=dim,
        eval=f,
        grad=g,
        known_min_value=0.0,
    )


def largest(values) -> float:
    """The largest of values, 0.0 for none and NaN if any is NaN: the one
    reduction of every certificate, so one NaN fails its ``value < tol``."""
    return float(np.max(values, initial=0.0))


def check_gradient(obj: Objective, x: np.ndarray, h: float = 1e-5) -> float:
    """Worst relative mismatch between obj.grad and central differences,
    reduced by :func:`largest`, so a NaN component gives NaN.

    The denominator is max(1, |analytic component|) so near-zero components do
    not blow up the ratio.
    """
    if h <= 0:
        raise ValueError(f"step h must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    analytic = np.asarray(obj.grad(x), dtype=float)
    fd = np.array([(obj.eval(x + e) - obj.eval(x - e)) / (2.0 * h) for e in h * np.eye(x.size)])
    return largest(np.abs(fd - analytic) / np.maximum(1.0, np.abs(analytic)))


OBJECTIVE_NAMES = ("quadratic", "quartic", "camelback", "rosenbrock")


def get_objective(
    name: str,
    dim: int = 2,
    seed: int = 0,
    eigen_lo: float = 1e-3,
    eigen_hi: float = 1.0,
) -> Objective:
    """Look an objective up by its CLI/config name."""
    check_objective(name, dim)
    if name == "quadratic":
        return make_random_quadratic(seed, dim, eigen_lo, eigen_hi)
    if name == "quartic":
        return quartic(dim)
    if name == "camelback":
        return camelback()
    return rosenbrock(dim)


def check_objective(name: str, dim: int, seed: int = 0) -> None:
    """Reject an unknown objective name, a dimension the named objective
    cannot take, or a negative seed (numpy's generators refuse one) before
    anything is built: the one rule, which the constructors call as well."""
    if seed < 0:
        raise ValueError(f"objective seed must be >= 0, got {seed}")
    if name not in OBJECTIVE_NAMES:
        raise ValueError(f"unknown objective {name!r}; valid: {', '.join(OBJECTIVE_NAMES)}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if name == "camelback" and dim != 2:
        raise ValueError("camelback is two-dimensional; set dim = 2")
    if name == "rosenbrock" and dim < 2:
        raise ValueError(f"rosenbrock needs dim >= 2, got {dim}")
