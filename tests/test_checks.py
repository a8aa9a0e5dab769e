import contextlib
import math
import warnings

import numpy as np
import pytest

import contactopt.checks as checks
from contactopt.checks import ORDER_TAUS, fit_order, order_errors
from contactopt.contact import Trajectory, reference_integrate
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
    z0 = np.append(rng.standard_normal(8), 0.3)  # (X, P, S) at t = 1, as order_errors draws it
    dt = 1e-3
    coarse = reference_integrate(ham, "std1", z0, 1.0, dt, 1000).z[-1]
    fine = reference_integrate(ham, "std1", z0, 1.0, dt / 2.0, 2000).z[-1]
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
    # no check family runs jump6, so its endpoint errors are pinned bit for bit
    assert [float.hex(e) for e in errors["jump6"]] == [
        "0x1.b0d3592080000p-18", "0x1.b7ee602000000p-24", "0x1.b99ff80000000p-30"
    ]


def test_every_conformal_candidate_runs_on_read_only_rows(monkeypatch):
    # conformal_factor hands each map, and each exact Jacobian, read-only
    # rows only, so a candidate that wrote into its row would raise there
    calls, writable = [], []
    real = checks.conformal_factor

    def spy(func, form, z, t, source_form=None, jacobian=None):
        def watched(row_map):
            def call(z, t):
                writable.append(z.flags.writeable)
                return row_map(z, t)
            return call

        calls.append(form)
        return real(watched(func), form, z, t, source_form=source_form,
                    jacobian=jacobian and watched(jacobian))

    monkeypatch.setattr(checks, "conformal_factor", spy)
    assert all(r.passed for r in checks.check_conformal(0))
    assert len(calls) == 8 * 20 + 49  # eight candidates at 20 states, nag_contact at k = 2..50
    assert writable and not any(writable)


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


# The families that call optimizer steps (equivalence, nag), the contact
# field and its RK4 oracle (orders, dissipation, specialization) or the
# splitting flows and composed steps (conformal) have their results pinned
# bit for bit, as (name, passed, float.hex(value), detail), at five seeds.
_REPORT_ONLY = (
    "informational; the factorization reproduces each step from the classical "
    "state but is not self-consistent as an iteration, so the sequences drift apart"
)
_STEP_CHECKS = (  # name and detail of each result, in report order
    ("crgd_step vs strang_step", "tol 1e-12"),
    ("rgd_step vs strang_step (constant h)", "tol 1e-12"),
    ("rgd == crgd at mu = 1 (bitwise)", ""),
    ("factorized S = S0 * prod (k-1)/(k+2)", "tol 1e-12"),
    ("k=1 momentum stage is trivial (c=0)", ""),
    ("classical vs factorized X sequence (report only)", _REPORT_ONLY),
)
_STEP_CHECK_VALUES = {
    0: ("0x1.0000000000000p-50", "0x1.0000000000000p-50", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.ce0852ca4ffe0p+8"),
    1: ("0x1.8000000000000p-49", "0x1.0000000000000p-50", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.aa86074cb27d9p+6"),
    7: ("0x1.0000000000000p-50", "0x1.0000000000000p-50", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.f2d6ba509c1e6p+7"),
    42: ("0x1.0000000000000p-49", "0x1.0000000000000p-50", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x1.e9c8db49e58d4p+6"),
    4242: ("0x1.0000000000000p-50", "0x1.0000000000000p-50", "0x0.0p+0", "0x0.0p+0",
           "0x0.0p+0", "0x1.9d0951379a714p+7"),
}

_CONTACT_CHECKS = (  # orders, dissipation and specialization, in report order
    ("strang observed order", "target 2.0 +/- 0.1"),
    ("jump4 observed order", "target 4.0 +/- 0.2"),
    ("suzuki4 observed order", "target 4.0 +/- 0.2"),
    ("relativistic H residual", "tol 0.0001"),
    ("conservative H residual", "tol 1e-06"),
    ("H = cS exponential decay", "closed form, tol 1e-06"),
    ("S-independent H -> Hamilton equations", "tol 1e-08"),
    ("H0 + cS -> conformally damped equations", "tol 1e-08"),
    ("H0 + <X*,P> - <P*,X> + 2S -> anchored descent equations", "tol 1e-08"),
    ("accelerated-gradient ODE residual", "tol 1e-06"),
)
_CONTACT_CHECK_VALUES = {
    0: ("0x1.0010e467abc2dp+1", "0x1.ff7e9837f1b5cp+1", "0x1.0005bcf938d9bp+2",
        "0x1.c4a0e338af20dp-24", "0x1.77d749ca8a815p-43", "0x1.3c2c5ef42ec94p-44",
        "0x0.0p+0", "0x1.0000000000000p-52", "0x0.0p+0", "0x1.3b4f800000000p-35"),
    1: ("0x1.001e83d583106p+1", "0x1.ff86cf274bb1dp+1", "0x1.ffc5bda4f08ddp+1",
        "0x1.8290f594c2eb2p-24", "0x1.b80c44a43c195p-43", "0x1.3c2c5ef42ec94p-44",
        "0x0.0p+0", "0x1.0000000000000p-53", "0x0.0p+0", "0x1.333c800000000p-35"),
    7: ("0x1.00164fb3234f8p+1", "0x1.ffbdc08ae7812p+1", "0x1.0007d72183f46p+2",
        "0x1.a7c39e466d18bp-24", "0x1.a757ccbe9eaa3p-42", "0x1.3c2c5ef42ec94p-44",
        "0x0.0p+0", "0x1.0000000000000p-52", "0x0.0p+0", "0x1.c3cd000000000p-36"),
    42: ("0x1.00151bc0a38ebp+1", "0x1.ff20c0e3596dep+1", "0x1.0011c481db9dcp+2",
         "0x1.63322978a86cdp-24", "0x1.f155cfa83ae91p-44", "0x1.3c2c5ef42ec94p-44",
         "0x0.0p+0", "0x1.0000000000000p-52", "0x0.0p+0", "0x1.4f4d800000000p-37"),
    4242: ("0x1.000f9caa15839p+1", "0x1.0001ebe80180bp+2", "0x1.000fb91f2a57bp+2",
           "0x1.d0c4b83d9c2bfp-24", "0x1.5bcd026136dbfp-43", "0x1.3c2c5ef42ec94p-44",
           "0x0.0p+0", "0x1.0000000000000p-52", "0x0.0p+0", "0x1.fd28000000000p-37"),
}

_CONFORMAL_CHECKS = tuple(
    (f"{name} residual", "tol 1e-08")
    for name in ("phi1", "phi2", "phi3", "time_shift", "strang", "jump4",
                 "nag_contact(k=7)", "map_F")
) + (
    ("phi1 factor = exp(-h dtau)", "tol 1e-12"),
    ("nag_contact factor = (k-1)/(k+2), k=2..50", "tol 1e-12"),
    ("map_F factor = 1", "tol 1e-12"),
)
_CONFORMAL_CHECK_VALUES = {
    0: ("0x1.0000000000000p-51", "0x1.2206200000000p-33", "0x1.ed16f44000000p-34", "0x0.0p+0",
        "0x1.8667a10000000p-32", "0x1.5a8f70e800000p-31", "0x1.0000000000000p-52",
        "0x1.0000000000000p-51", "0x1.8000000000000p-52", "0x1.0000000000000p-52",
        "0x1.0000000000000p-52"),
    1: ("0x1.0000000000000p-52", "0x1.62bd800000000p-34", "0x1.71baf62800000p-33", "0x0.0p+0",
        "0x1.07cbd80000000p-32", "0x1.4fdf440000000p-31", "0x1.0000000000000p-52",
        "0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.0000000000000p-53",
        "0x1.0000000000000p-52"),
    7: ("0x1.0000000000000p-51", "0x1.2bcf500000000p-33", "0x1.e4a57b7000000p-34", "0x0.0p+0",
        "0x1.067cc12000000p-32", "0x1.3c6129e000000p-32", "0x1.0000000000000p-52",
        "0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.0000000000000p-52",
        "0x1.0000000000000p-53"),
    42: ("0x1.0000000000000p-51", "0x1.278c000000000p-33", "0x1.daa4168000000p-33", "0x0.0p+0",
         "0x1.2b5a6ac800000p-32", "0x1.6f3b50a000000p-31", "0x1.0000000000000p-52",
         "0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.0000000000000p-52",
         "0x1.0000000000000p-52"),
    4242: ("0x1.0000000000000p-51", "0x1.7831000000000p-34", "0x1.e078cbc000000p-33", "0x0.0p+0",
           "0x1.a9a932e800000p-31", "0x1.57f1dde000000p-31", "0x1.2000000000000p-52",
           "0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.0000000000000p-52",
           "0x1.0000000000000p-52"),
}


@pytest.mark.parametrize("seed", sorted(_STEP_CHECK_VALUES))
def test_step_calling_checks_are_pinned_bit_for_bit(seed):
    families = ["equivalence", "nag", "orders", "dissipation", "specialization", "conformal"]
    got = [(r.name, r.passed, float.hex(float(r.value)), r.detail)
           for r in checks.run_checks(families, seed=seed)]
    want = [(name, True, value, detail)
            for (name, detail), value in zip(
                _STEP_CHECKS + _CONTACT_CHECKS + _CONFORMAL_CHECKS,
                _STEP_CHECK_VALUES[seed] + _CONTACT_CHECK_VALUES[seed]
                + _CONFORMAL_CHECK_VALUES[seed])]
    assert got == want


# A certificate that computed NaN, crushed the form, or measured a run that
# did not finish fails its check instead of passing on what is left.


def _failed(results):
    return {r.name: r.value for r in results if not r.passed}


def _cut_oracle(H, form, z, t, dt, n):
    """The RK4 oracle stopped after 50 of its n steps and flagged diverged,
    as a run that blew up is recorded: a finite prefix that finished nothing."""
    traj = reference_integrate(H, form, z, t, dt, 50)
    return Trajectory(traj.t, traj.z, diverged=True)


@pytest.mark.parametrize("row", [np.zeros_like, lambda z: np.full_like(z, np.nan)],
                         ids=["crushing", "nan"])
def test_a_broken_candidate_fails_conformal_by_name(monkeypatch, row):
    monkeypatch.setattr(checks, "flow_phi3", lambda z, t, dtau, params: (row(z), t + dtau))
    assert _failed(checks.check_conformal(0)) == {"phi3 residual": math.inf}


def test_a_nan_optimizer_step_fails_equivalence(monkeypatch):
    monkeypatch.setattr(checks, "step", lambda z, k, obj, cfg: (np.full_like(z, np.nan), k + 1))
    failed = _failed(checks.check_equivalence(0))
    for name in ("crgd_step vs strang_step", "rgd_step vs strang_step (constant h)"):
        assert math.isnan(failed[name])


def test_a_nan_contact_field_fails_specialization(monkeypatch):
    monkeypatch.setattr(checks, "contact_field", lambda H, form, z, t: np.full(len(z), np.nan))
    failed = _failed(checks.check_specialization(0))
    assert sorted(failed) == [
        "H0 + <X*,P> - <P*,X> + 2S -> anchored descent equations",
        "H0 + cS -> conformally damped equations",
        "S-independent H -> Hamilton equations",
    ]
    assert all(math.isnan(v) for v in failed.values())


def test_an_unfinished_oracle_run_fails_dissipation_and_the_ode_check(monkeypatch):
    monkeypatch.setattr(checks, "reference_integrate", _cut_oracle)
    assert _failed(checks.check_dissipation(0)) == {
        "relativistic H residual": math.inf,
        "conservative H residual": math.inf,
        "H = cS exponential decay": math.inf,
    }
    assert _failed(checks.check_specialization(0)) == {
        "accelerated-gradient ODE residual": math.inf
    }


@pytest.mark.parametrize("unfinished", ["reference", "split run"])
def test_an_unfinished_order_sweep_fails_orders(monkeypatch, unfinished):
    if unfinished == "reference":
        monkeypatch.setattr(checks, "reference_integrate", _cut_oracle)
    else:
        monkeypatch.setattr(
            checks, "integrate_split",
            lambda z, t, tau, n, obj, params, plan: Trajectory([t], [z], diverged=True),
        )
    assert order_errors(["strang"]) == {"strang": [math.inf] * len(ORDER_TAUS)}
    failed = _failed(checks.check_orders(0))
    assert len(failed) == 3 and all(math.isnan(v) for v in failed.values())


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
def test_fit_order_needs_positive_finite_errors(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(fit_order(ORDER_TAUS, [1e-3, 2.5e-4, bad, 1.6e-5]))
