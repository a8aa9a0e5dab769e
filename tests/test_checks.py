import contextlib
import math
import warnings

import numpy as np
import pytest

import contactopt.checks as checks
import contactopt.optimizers as optimizers
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
        "0x1.b0a8d27980000p-18", "0x1.b7c2714000000p-24", "0x1.b973d00000000p-30"
    ]


def test_every_conformal_candidate_runs_on_read_only_rows(monkeypatch):
    # conformal_factor hands each map read-only rows only, the real start
    # and then one complex-step row per coordinate, so a candidate that
    # wrote into its row would raise there
    calls, rows = [], []
    real = checks.conformal_factor

    def spy(func, form, z, t, source_form=None):
        def watched(z, t):
            rows.append((z.flags.writeable, z.dtype))
            return func(z, t)

        calls.append(form)
        return real(watched, form, z, t, source_form=source_form)

    monkeypatch.setattr(checks, "conformal_factor", spy)
    assert all(r.passed for r in checks.check_conformal(0))
    assert len(calls) == 8 * 20 + 49  # eight candidates at 20 states, nag_contact at k = 2..50
    # every call maps the dim-3 start once, then its 7 complex-step rows
    assert rows == len(calls) * ([(False, np.dtype(float))] + [(False, np.dtype(complex))] * 7)


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
_NAG_DEFECT = "step J'OmegaJ = [[0, cB], [-cB, 0]], B = I - tau A"
_STEP_CHECKS = (  # name and detail of each result, in report order
    ("crgd_step vs strang_step", "tol 1e-12"),
    ("rgd_step vs strang_step (constant h)", "tol 1e-12"),
    ("rgd == crgd at mu = 1 (bitwise)", ""),
    ("factorized S = S0 * prod (k-1)/(k+2)", "tol 1e-12"),
    ("k=1 momentum stage is trivial (c=0)", ""),
    (_NAG_DEFECT, "tol 1e-12"),
)
_STEP_CHECK_VALUES = {
    0: ("0x1.0000000000000p-47", "0x1.4000000000000p-48", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.527b4c00b94adp-52"),
    1: ("0x1.0000000000000p-45", "0x1.0000000000000p-47", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.1ed2c862f5629p-52"),
    7: ("0x1.0000000000000p-46", "0x1.8000000000000p-47", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x1.a21bf7ff7e0b9p-53"),
    42: ("0x1.0000000000000p-46", "0x1.8000000000000p-46", "0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x1.1e0bbdde6c69bp-52"),
    4242: ("0x1.4000000000000p-47", "0x1.8000000000000p-48", "0x0.0p+0", "0x0.0p+0",
           "0x0.0p+0", "0x1.224ab700a3e53p-52"),
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
    0: ("0x1.00106f4f138b2p+1", "0x1.ff7e40dc38567p+1", "0x1.00065e3e4dbd9p+2",
        "0x1.b8d11ef7d9cedp-24", "0x1.ced021d2ac066p-43", "0x1.3c2c5ef42ec94p-44",
        "0x0.0p+0", "0x1.0000000000000p-52", "0x0.0p+0", "0x1.3b4f800000000p-35"),
    1: ("0x1.001d50f0e2a44p+1", "0x1.ff86b0712415cp+1", "0x1.ffc6c7e53de19p+1",
        "0x1.621d3150680aep-24", "0x1.1a1735f7563d3p-42", "0x1.3c2c5ef42ec94p-44",
        "0x0.0p+0", "0x1.0000000000000p-53", "0x0.0p+0", "0x1.333c800000000p-35"),
    7: ("0x1.0014ec8bae3acp+1", "0x1.ffbdea5d4e2c4p+1", "0x1.000a3bd3ce26fp+2",
        "0x1.97904285628dap-24", "0x1.97b7405483e7bp-42", "0x1.3c2c5ef42ec94p-44",
        "0x0.0p+0", "0x1.0000000000000p-52", "0x0.0p+0", "0x1.c3cd000000000p-36"),
    42: ("0x1.0014a1f38b0e0p+1", "0x1.ff1fbb04cbe00p+1", "0x1.00124a6a4d7a5p+2",
         "0x1.333feceec42a3p-24", "0x1.f074072602787p-43", "0x1.3c2c5ef42ec94p-44",
         "0x0.0p+0", "0x1.0000000000000p-52", "0x0.0p+0", "0x1.4f4d800000000p-37"),
    4242: ("0x1.000f9caa15839p+1", "0x1.00029366d6ce7p+2", "0x1.000fb91f2a57bp+2",
           "0x1.bc796baa77403p-24", "0x1.0aa30ff517a2ap-42", "0x1.3c2c5ef42ec94p-44",
           "0x0.0p+0", "0x1.0000000000000p-52", "0x0.0p+0", "0x1.fd28000000000p-37"),
}

_CONFORMAL_CHECKS = tuple(
    (f"{name} residual", "tol 1e-12")
    for name in ("phi1", "phi2", "phi3", "time_shift", "strang", "jump4",
                 "nag_contact(k=7)", "map_F")
) + (
    ("phi1 factor = exp(-h dtau)", "tol 1e-12"),
    ("nag_contact factor = (k-1)/(k+2), k=2..50", "tol 1e-12"),
    ("map_F factor = 1", "tol 1e-12"),
)
_CONFORMAL_CHECK_VALUES = {
    0: ("0x1.0000000000000p-51", "0x1.0000000000000p-53", "0x1.e000000000000p-57", "0x0.0p+0",
        "0x1.0000000000000p-51", "0x1.0000000000000p-51", "0x1.0000000000000p-52",
        "0x1.0000000000000p-52", "0x1.8000000000000p-52", "0x1.0000000000000p-52",
        "0x1.0000000000000p-52"),
    1: ("0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.0000000000000p-56", "0x0.0p+0",
        "0x1.0000000000000p-51", "0x1.0000000000000p-51", "0x1.0000000000000p-52",
        "0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.0000000000000p-53",
        "0x1.0000000000000p-52"),
    7: ("0x1.0000000000000p-51", "0x1.0000000000000p-53", "0x1.0000000000000p-56", "0x0.0p+0",
        "0x1.0000000000000p-52", "0x1.0000000000000p-51", "0x1.0000000000000p-52",
        "0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.0000000000000p-52",
        "0x1.0000000000000p-52"),
    42: ("0x1.0000000000000p-51", "0x1.0000000000000p-53", "0x1.7000000000000p-56", "0x0.0p+0",
         "0x1.0000000000000p-51", "0x1.0000000000000p-51", "0x1.0000000000000p-52",
         "0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.0000000000000p-52",
         "0x1.0000000000000p-52"),
    4242: ("0x1.0000000000000p-51", "0x1.0000000000000p-53", "0x1.a000000000000p-57", "0x0.0p+0",
           "0x1.0000000000000p-51", "0x1.0000000000000p-50", "0x1.2000000000000p-52",
           "0x1.0000000000000p-52", "0x1.0000000000000p-52", "0x1.0000000000000p-52",
           "0x1.0000000000000p-53"),
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


def test_a_candidate_that_cannot_carry_a_complex_row_fails_conformal(monkeypatch):
    # phi3 behind a float cast (ComplexWarning) or behind abs, which drops
    # the imaginary part silently: the same map on a real row, no certificate
    real = checks.flow_phi3
    casts = (lambda z: np.asarray(z, dtype=float), lambda z: np.copysign(np.abs(z), z.real))
    for narrowed in casts:
        monkeypatch.setattr(checks, "flow_phi3",
                            lambda z, t, dtau, params: real(narrowed(z), t, dtau, params))
        for filters in ("default", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(filters)
                assert _failed(checks.check_conformal(0)) == {"phi3 residual": math.inf}


def _map_F_off_by_a_quarter(z, t):
    # S - <X, P>/4 in place of S - <X, P>/2
    n = len(z) // 2
    x, p = z[:n], z[n:-1]
    return np.concatenate([x + p, 0.5 * (p - x), [z[-1] - 0.25 * (x @ p)]]), t


def _nag_contact_map_doubling_s(z, t, k):
    # (X, P, S) -> (P, P + c (P - X), 2 c S)
    n = len(z) // 2
    c = (k - 1.0) / (k + 2.0)
    x, p = z[:n], z[n:-1]
    return np.concatenate([p, p + c * (p - x), 2.0 * c * z[-1:]]), t


@pytest.mark.parametrize("name, broken, results", [
    ("map_F", _map_F_off_by_a_quarter, {"map_F residual", "map_F factor = 1"}),
    ("nag_contact_map", _nag_contact_map_doubling_s,
     {"nag_contact(k=7) residual", "nag_contact factor = (k-1)/(k+2), k=2..50"}),
])
def test_a_map_with_a_wrong_s_term_fails_both_its_results(monkeypatch, name, broken, results):
    # the certificate differentiates the map's own code, so a wrong S term
    # cannot hide behind a Jacobian written for the right one
    monkeypatch.setattr(checks, name, broken)
    assert set(_failed(checks.check_conformal(0))) == results


def _nag_step_with_coefficient_off_by_one_percent(z, k, obj, cfg):
    # V' = x + 1.01 c (x - X), with S' = c S and the gradient stage kept
    n = len(z) // 2
    c = optimizers._nag_coefficient(k + 1, cfg)
    x = z[n:-1] - cfg.tau * obj.grad(z[n:-1])
    return np.concatenate([x, x + 1.01 * c * (x - z[:n]), c * z[-1:]]), k + 1


def test_a_wrong_nag_coefficient_fails_only_the_symplectic_defect(monkeypatch):
    # The S product and the k = 1 stage do not read the coefficient of the
    # momentum slot, so only the closed form of J'OmegaJ catches it (8.6e-3
    # here).  This certificate does not see the order of the stages: the
    # momentum map followed by the gradient at the new X, a different
    # iteration, has the same J'OmegaJ (at most 1.1e-16 over master seeds
    # 0-63), so the bit-for-bit factorization test in test_optimizers.py
    # guards the order.
    monkeypatch.setattr(checks, "step", _nag_step_with_coefficient_off_by_one_percent)
    failed = _failed(checks.check_nag(0))
    assert set(failed) == {_NAG_DEFECT}
    assert 1e-3 < failed[_NAG_DEFECT] < 1e-1


@pytest.mark.parametrize("broken", [
    lambda z, k, obj, cfg: (z * math.nan, k + 1),
    lambda z, k, obj, cfg: optimizers.step(np.asarray(z, dtype=float), k, obj, cfg),
], ids=["nan", "float cast"])
def test_a_nag_step_that_computes_nothing_fails_the_symplectic_defect(monkeypatch, broken):
    # NaN arithmetic, or a cast that drops the complex rows the Jacobian is
    # read from, under either warning filter: the closed form reads NaN
    monkeypatch.setattr(checks, "step", broken)
    for filters in ("default", "error"):
        with warnings.catch_warnings():
            warnings.simplefilter(filters)
            failed = _failed(checks.check_nag(0))
        assert math.isnan(failed[_NAG_DEFECT])


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
