"""Canned benchmark experiments.

Four standard setups, each at two scales: "desk" keeps trial counts small
enough for a laptop test run, "paper" uses the full published protocol.
The hyperparameter search intervals are meant to be the published ones,
reproduced verbatim per experiment; the tuned RGD variant with an extra
interpolation exponent is not implemented here, so no range is listed for
it.  PAPER.md holds only the abstract, so "published" cannot be checked
against anything in the repository.

On the quartic, the tuned RGD/CRGD winners sit in the top half-decade of
their epsilon box [1e-5, 1e-2] and none of their trials diverges, so the
ceiling, not the method, bounds how far they lead CM and NAG: raising it
to 1e-1 lifts every lead past 880x at master seeds 0-9.  The box is left
as it is until the paper's quartic protocol says otherwise.

  quadratic   random PSD quadratic, eigenvalues uniform on [1e-3, 1];
              Monte Carlo redraws the matrix per run, start at all-ones
  quartic     f = sum_i i * x_i^4 in 50 dims, start at 2 * ones
  camelback   three-hump camelback started near the spurious local minimum
  rosenbrock  chained Rosenbrock, start alternating (-1.2, 1, -1.2, 1, ...)
"""

from dataclasses import replace
from typing import Optional

from .harness import ExperimentSpec, InitSpec, parse_experiment

__all__ = ["PRESET_NAMES", "SCALES", "experiment_preset"]

SCALES = ("desk", "paper")

# Each preset is the JSON config `contactopt search` reads, except that a
# value given as a (desk, paper) tuple depends on the scale.
_PRESETS = {
    # CM and NAG search different step ranges here; the relativistic pair
    # shares one table.
    "quadratic": {
        "objective": {"name": "quadratic", "dim": (50, 500)},
        "init": {"kind": "pattern", "pattern": [1.0]},
        "optimizers": [
            {"kind": "cm", "ranges": {"tau": [1e-2, 0.8], "mu": [0.8, 0.99]}},
            {"kind": "nag", "ranges": {"tau": [1e-3, 0.5], "mu": [0.8, 0.99]}},
            {"kind": "rgd", "ranges": {"epsilon": [0.0, 0.6], "mu": [0.49, 0.95], "delta": [0.0, 20.0]}},
            {"kind": "crgd", "ranges": {"epsilon": [0.0, 0.6], "mu": [0.49, 0.95], "delta": [0.0, 20.0]}},
        ],
        "search_trials": 150, "mc_runs": (10, 50), "iters": 200,
    },
    "quartic": {
        "objective": {"name": "quartic", "dim": 50},
        "init": {"kind": "pattern", "pattern": [2.0]},
        "optimizers": [
            {"kind": "cm", "ranges": {"tau": [1e-5, 1e-1], "mu": [0.8, 0.99]}},
            {"kind": "nag", "ranges": {"tau": [1e-5, 1e-1], "mu": [0.8, 0.99]}},
            {"kind": "rgd", "ranges": {"epsilon": [1e-5, 1e-2], "mu": [0.6, 0.99], "delta": [0.0, 30.0]}},
            {"kind": "crgd", "ranges": {"epsilon": [1e-5, 1e-2], "mu": [0.6, 0.99], "delta": [0.0, 30.0]}},
        ],
        "search_trials": (300, 1000), "mc_runs": 1, "iters": 500,
    },
    "camelback": {
        "objective": {"name": "camelback", "dim": 2},
        "init": {"kind": "fixed", "pattern": [1.8, -0.9]},
        "optimizers": [
            {"kind": "cm", "ranges": {"tau": [1e-5, 1e-3], "mu": [0.8, 0.999]}},
            {"kind": "nag", "ranges": {"tau": [1e-5, 1e-3], "mu": [0.8, 0.999]}},
            {"kind": "rgd", "ranges": {"epsilon": [1e-1, 1.0], "mu": [0.1, 0.8], "delta": [0.0, 20.0]}},
            {"kind": "crgd", "ranges": {"epsilon": [1e-1, 1.0], "mu": [0.1, 0.8], "delta": [0.0, 20.0]}},
        ],
        "search_trials": (300, 1500), "mc_runs": 1, "iters": 300,
    },
    "rosenbrock": {
        "objective": {"name": "rosenbrock", "dim": 100},
        "init": {"kind": "pattern", "pattern": [-1.2, 1.0]},
        "optimizers": [
            {"kind": "cm", "ranges": {"tau": [2e-4, 4e-4], "mu": [0.94, 0.98]}},
            {"kind": "nag", "ranges": {"tau": [2e-4, 4e-4], "mu": [0.94, 0.98]}},
            {"kind": "rgd", "ranges": {"epsilon": [1e-3, 1e-2], "mu": [0.9, 0.99], "delta": [0.0, 20.0]}},
            {"kind": "crgd", "ranges": {"epsilon": [1e-3, 1e-2], "mu": [0.9, 0.99], "delta": [0.0, 20.0]}},
        ],
        "search_trials": (100, 500), "mc_runs": 1, "iters": (400, 1200),
    },
}
PRESET_NAMES = tuple(_PRESETS)


def _at_scale(doc, i: int):
    """doc with each (desk, paper) tuple replaced by its i-th value."""
    if isinstance(doc, dict):
        return {key: _at_scale(v, i) for key, v in doc.items()}
    if isinstance(doc, list):
        return [_at_scale(v, i) for v in doc]
    return doc[i] if isinstance(doc, tuple) else doc


def experiment_preset(
    name: str,
    scale: str = "desk",
    master_seed: int = 0,
    init: Optional[InitSpec] = None,
) -> ExperimentSpec:
    """Build the named experiment at the requested scale.

    ``master_seed`` seeds the whole pipeline; ``init`` overrides the canned
    initialization (useful for probing basins of attraction).
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {', '.join(SCALES)}; got {scale!r}")
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}")
    spec = parse_experiment(_at_scale(_PRESETS[name], SCALES.index(scale)))
    return replace(spec, master_seed=master_seed, init=init or spec.init)
