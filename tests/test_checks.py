import contextlib

import numpy as np
import pytest

import contactopt.checks as checks
from contactopt.checks import fit_order, order_errors
from contactopt.contact import ContactState, reference_integrate
from contactopt.integrators import ContactParams, contact_hamiltonian, nag_like_damping
from contactopt.objectives import make_random_quadratic


def test_order_check_integrates_one_reference_per_sweep(order_check):
    results, calls, _ = order_check
    assert all(r.passed for r in results)
    # every plan and tau shares one reference, at the coarsest tau / 100
    assert calls == [0.1 / 100.0]


def test_order_reference_error_is_far_below_the_plan_errors():
    # Richardson bound: RK4's own endpoint error is about 16/15 of the
    # distance between the dt and dt/2 endpoints, so that distance must sit
    # well below the smallest plan error the shared reference measures.
    rng, obj_seed = checks._draws(0, "orders")
    obj = make_random_quadratic(obj_seed, 4, 0.2, 1.5)
    params = ContactParams(*nag_like_damping(0.1), m=1.0, c=1.0)
    ham = contact_hamiltonian(obj, params)
    s0 = ContactState(X=rng.standard_normal(4), P=rng.standard_normal(4), S=0.3, t=1.0)
    dt = 1e-3
    coarse = reference_integrate(ham, "std1", s0, dt, 1000).z[-1]
    fine = reference_integrate(ham, "std1", s0, dt / 2.0, 2000).z[-1]
    errors = order_errors(["strang", "jump4", "suzuki4"])
    smallest = min(min(errs) for errs in errors.values())
    assert float(np.max(np.abs(coarse - fine))) < 1e-2 * smallest


def test_order_errors_rejects_a_tau_between_reference_steps():
    # 32 steps of 0.0317 end at 1.0144, between steps of the dt = 1e-3 reference
    with pytest.raises(ValueError, match="between the reference steps"):
        order_errors(["strang"], (0.1, 0.0317))


def test_order_errors_per_plan():
    taus = (0.1, 0.05)
    both = order_errors(["strang", "jump4"], taus)
    assert set(both) == {"strang", "jump4"}
    assert both["strang"] == order_errors(["strang"], taus)["strang"]
    assert abs(fit_order(taus, both["strang"]) - 2.0) <= 0.1


def test_jump6_fits_order_six():
    # jump6 stays out of the orders family, so the check run's result
    # count and time do not change; its large error constant needs the
    # coarser taus
    taus = (0.2, 0.1, 0.05)
    errors = order_errors(["jump6"], taus)
    assert abs(fit_order(taus, errors["jump6"]) - 6.0) <= 0.2


class _Stop(Exception):
    pass


def _stop(*args, **kwargs):
    raise _Stop


def test_no_two_families_or_seeds_share_an_objective(monkeypatch):
    # Every family builds its random quadratics before its first RK4
    # reference, so it stops there: the builds are all recorded and the
    # integrations, which take most of a check run, are skipped.
    built = {}  # (seed, dim, eigen_lo, eigen_hi) -> {(master seed, family)}
    real = checks.make_random_quadratic
    monkeypatch.setattr(checks, "reference_integrate", _stop)
    for seed in (0, 4, 21):
        for family in checks.CHECK_FAMILIES:
            def counting(*args, pair=(seed, family)):
                built.setdefault(args, set()).add(pair)
                return real(*args)

            monkeypatch.setattr(checks, "make_random_quadratic", counting)
            with contextlib.suppress(_Stop):
                checks.run_checks([family], seed=seed)
    shared = {args: sorted(pairs) for args, pairs in built.items() if len(pairs) > 1}
    assert shared == {}
