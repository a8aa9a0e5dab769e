"""Contact-geometric optimization toolkit.

Dissipative optimization dynamics written as contact Hamiltonian systems:
exact-flow splitting integrators for the separable kinetic (relativistic or
Newtonian) + potential + dissipation Hamiltonian, the discrete optimizer
family they induce (RGD and its time-rescaled variant CRGD, next to
GD/heavy-ball/Nesterov baselines), numerical certification that every
discrete map preserves the contact structure, and a reproducible benchmark
harness.
"""

from .contact import (
    ContactHamiltonian,
    Partials,
    Trajectory,
    conformal_factor,
    contact_field,
    dissipation_residual,
    eta,
    map_F,
    reference_integrate,
)
from .harness import (
    ExperimentSpec,
    InitSpec,
    ObjectiveSpec,
    OptimizerEntry,
    QuantileBand,
    SearchRanges,
    estimate_rate,
    monte_carlo,
    random_search,
    run_bench,
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
    triple_jump_coefficients,
)
from .objectives import (
    Objective,
    camelback,
    check_gradient,
    get_objective,
    make_random_quadratic,
    quartic,
    rosenbrock,
)
from .optimizers import (
    OptimizerConfig,
    RunRecord,
    run,
    run_batch,
)
from .presets import experiment_preset

__version__ = "0.1.0"

__all__ = [
    "ContactHamiltonian",
    "Partials",
    "Trajectory",
    "conformal_factor",
    "contact_field",
    "dissipation_residual",
    "eta",
    "map_F",
    "reference_integrate",
    "ExperimentSpec",
    "InitSpec",
    "ObjectiveSpec",
    "OptimizerEntry",
    "QuantileBand",
    "SearchRanges",
    "estimate_rate",
    "monte_carlo",
    "random_search",
    "run_bench",
    "PLANS",
    "ContactParams",
    "compose_step",
    "constant_damping",
    "contact_hamiltonian",
    "flow_phi1",
    "flow_phi2",
    "flow_phi3",
    "integrate_split",
    "nag_like_damping",
    "strang_step",
    "time_shift",
    "triple_jump_coefficients",
    "Objective",
    "camelback",
    "check_gradient",
    "get_objective",
    "make_random_quadratic",
    "quartic",
    "rosenbrock",
    "OptimizerConfig",
    "RunRecord",
    "run",
    "run_batch",
    "experiment_preset",
    "__version__",
]
