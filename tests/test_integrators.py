import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactopt.checks import TOL_CONFORMAL, TOL_LAMBDA
from contactopt.contact import DIVERGENCE_LIMIT, conformal_factor, within_limit
from contactopt.integrators import (
    PLAN_NAMES,
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
from contactopt.objectives import Objective, make_random_quadratic, quartic, rosenbrock


def state_of(x, p, s=0.0, t=1.0):
    # a start: the flat (X, P, S) row and the clock
    x, p = np.atleast_1d(np.asarray(x, float)), np.atleast_1d(np.asarray(p, float))
    return np.concatenate([x, p, [s]]), t


def row_of(x, p, s=0.0):
    return state_of(x, p, s)[0]


def parts(z):
    # the X and P views and the S entry of a flat row
    n = len(z) // 2
    return z[:n], z[n:-1], z[-1]


def zero_objective(dim):
    return Objective(
        name="zero",
        dim=dim,
        eval=lambda x: 0.0,
        grad=lambda x: np.zeros(dim),
        known_min_value=0.0,
    )


def contact_params(gamma=0.0, damping=constant_damping, **kwargs):
    return ContactParams(*damping(gamma), **kwargs)


class TestContactParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="mass m"):
            contact_params(m=0.0)
        with pytest.raises(ValueError, match="speed parameter c"):
            contact_params(c=-1.0)
        with pytest.raises(ValueError, match="speed parameter c"):
            contact_params(c=0.0, m=2.0)
        for damping in (constant_damping, nag_like_damping):
            with pytest.raises(ValueError, match="gamma"):
                damping(-0.1)
        with pytest.raises(ValueError, match=r"math\.inf"):
            contact_params(c=None)
        assert contact_params(c=math.inf, m=2.0).k == 0.0

    def test_constant_damping(self):
        h, dh = constant_damping(0.3)
        assert h(0.1) == 0.3
        assert h(10.0) == 0.3
        assert dh(0.1) == 0.0 and dh(-5.0) == 0.0

    def test_nag_like_damping(self):
        h, dh = nag_like_damping(0.3)
        assert h(2.0) == pytest.approx(0.3 * 1.5, abs=1e-15)
        assert dh(2.0) == pytest.approx(-0.3 / 4.0, abs=1e-15)
        for f in (h, dh):
            for t in (0.0, -1.0):
                with pytest.raises(ValueError, match="t > 0"):
                    f(t)


class TestStageFlows:
    def test_phi1_identity_without_dissipation(self):
        z = row_of([1.0, 2.0], [0.5, -0.5], s=3.0)
        out, _ = flow_phi1(z, 1.0, 0.7, contact_params(damping=nag_like_damping))
        np.testing.assert_array_equal(parts(out)[1], parts(z)[1])
        assert out[-1] == z[-1]

    def test_phi1_hand_value(self):
        z = row_of([1.0], [1.0], s=2.0)
        out, t = flow_phi1(z, 1.0, 0.5, contact_params(0.2))
        x, p, s = parts(out)
        assert p[0] == pytest.approx(math.exp(-0.1), abs=1e-16)
        assert s == pytest.approx(2.0 * math.exp(-0.1), abs=1e-15)
        np.testing.assert_array_equal(x, parts(z)[0])
        assert t == 1.0

    def test_phi1_conformal_factor_pinned(self):
        params = contact_params(0.3, nag_like_damping)
        rng = np.random.default_rng(2)
        for _ in range(10):
            z0, t0 = rng.standard_normal(7), float(rng.uniform(0.5, 2))
            lam, res = conformal_factor(
                lambda z, t: flow_phi1(z, t, 0.07, params), "std1", z0, t0
            )
            assert lam == pytest.approx(math.exp(-params.h(t0) * 0.07), abs=1e-12)
            assert res < 1e-12

    def test_phi2_fixed_point_at_flat_zero(self):
        # stationary point with zero value: the kick does nothing
        obj = zero_objective(2)
        z = row_of([0.3, -0.4], [1.0, 1.0], s=0.8)
        out, _ = flow_phi2(z, 1.0, 0.5, obj)
        np.testing.assert_array_equal(parts(out)[1], parts(z)[1])
        assert out[-1] == z[-1]

    def test_phi2_hand_value(self):
        out, _ = flow_phi2(row_of([1.0], [0.0], s=1.0), 1.0, 0.1, quartic(1))
        _, p, s = parts(out)
        assert p[0] == pytest.approx(-0.4, abs=1e-16)
        assert s == pytest.approx(0.9, abs=1e-16)

    def test_phi3_rest_state(self):
        # K is measured from the rest energy: at rest nothing drifts, S included
        z = row_of([2.0], [0.0], s=1.0)
        out, _ = flow_phi3(z, 1.0, 0.3, contact_params())
        np.testing.assert_array_equal(out, z)

    @pytest.mark.parametrize("c", [1e103, 1e160, math.inf])
    def test_phi3_and_h_are_finite_at_every_speed_limit(self, c):
        # the rest energy mc^2 would overflow here; K without it tends to
        # the Newtonian |P|^2/2m
        params = contact_params(0.1, c=c)
        z = row_of([1.0, -2.0], [0.5, 1.5], s=0.3)
        out, _ = flow_phi3(z, 1.0, 0.4, params)
        newtonian, _ = flow_phi3(z, 1.0, 0.4, contact_params(0.1, c=math.inf))
        np.testing.assert_array_equal(out, newtonian)
        x, p, s = parts(z)
        value, *partials = contact_hamiltonian(quartic(2), params)(x, p, s, 1.0)
        assert value == pytest.approx(1.25 + quartic(2).eval(x) + 0.1 * 0.3, rel=1e-15)
        assert all(np.isfinite(v).all() for v in partials)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
           st.floats(0.01, 2.0), st.floats(0.1, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_phi3_speed_limit(self, p, dtau, c):
        params = contact_params(c=c)
        z = row_of(np.zeros(len(p)), np.array(p))
        out, _ = flow_phi3(z, 1.0, dtau, params)
        assert np.linalg.norm(parts(out)[0] - parts(z)[0]) <= c * dtau * (1 + 1e-12)

    def test_phi3_and_h_stand_still_below_a_tiny_speed_limit(self):
        # k = (1/(mc))^2 overflows to inf at c = 1e-160: X and S stay put
        params = contact_params(0.1, c=1e-160)
        z = row_of([1.0, -2.0], [0.5, 1.5], s=0.3)
        np.testing.assert_array_equal(flow_phi3(z, 1.0, 0.4, params)[0], z)
        x, p, s = parts(z)
        value, _, velocity, _, _ = contact_hamiltonian(quartic(2), params)(x, p, s, 1.0)
        assert value == quartic(2).eval(x) + 0.1 * 0.3
        np.testing.assert_array_equal(velocity, [0.0, 0.0])

    def test_phi3_and_h_scale_a_momentum_whose_square_overflows(self):
        # |P|^2 overflows once |P| passes about 1.3e154: the drift still
        # moves X by c dtau P/|P|, S grows at the rate mc^2, and H is K + f +
        # hS with K about c|P|
        params = contact_params(0.1, c=2.0)
        z = row_of([0.0, 0.0], [1e224, 1.0], s=0.3)
        x, p, s = parts(z)
        with np.errstate(over="ignore"):  # numpy still reports the square's overflow
            out, _ = flow_phi3(z, 1.0, 0.05, params)
            value, grad_x, velocity, _, _ = contact_hamiltonian(quartic(2), params)(x, p, s, 1.0)
        np.testing.assert_allclose(parts(out)[0], 2.0 * 0.05 * p / 1e224, rtol=1e-15)
        np.testing.assert_array_equal(parts(out)[1], p)
        assert parts(out)[2] == pytest.approx(0.3 + 4.0 * 0.05, rel=1e-15)
        assert value == pytest.approx(2e224, rel=1e-15)
        np.testing.assert_allclose(velocity, [2.0, 2e-224], rtol=1e-15)
        assert np.isfinite(grad_x).all()

    def test_newtonian_phi3_hand_value(self):
        # X += P dtau/m, S += |P|^2 dtau/2m; P and the clock stay put
        z = row_of([1.0, -2.0], [0.5, 1.5], s=0.3)
        out, t = flow_phi3(z, 2.0, 0.4, contact_params(m=2.0, c=math.inf))
        x, p, s = parts(out)
        np.testing.assert_allclose(x, [1.1, -1.7], atol=1e-15)
        np.testing.assert_array_equal(p, parts(z)[1])
        assert s == pytest.approx(0.3 + 2.5 * 0.4 / 4.0, abs=1e-15)
        assert t == 2.0

    def test_newtonian_phi3_is_exactly_contact(self):
        # the drift leaves the std1 form unchanged: factor 1, by pullback
        # through its complex-step Jacobian
        newtonian = contact_params(m=1.7, c=math.inf)
        rng = np.random.default_rng(5)
        for _ in range(20):
            lam, res = conformal_factor(
                lambda z, t: flow_phi3(z, t, 0.07, newtonian), "std1", rng.standard_normal(7), 1.0
            )
            assert res < 1e-12
            assert lam == pytest.approx(1.0, abs=1e-12)

    def test_time_shift_additivity_and_purity(self):
        z = row_of([1.0, -1.0], [0.5, 0.5], s=2.0)
        once, t_once = time_shift(z, 1.0, 0.5)
        twice, t_twice = time_shift(*time_shift(z, 1.0, 0.25), 0.25)
        assert t_once == t_twice == 1.5
        np.testing.assert_array_equal(once, z)
        np.testing.assert_array_equal(twice, z)
        assert time_shift(z, 1.0, 0.0)[1] == 1.0


class TestStrangStep:
    def test_pure_drift_when_conservative_and_flat(self):
        # gamma=0 and f=0: only the kinetic drift moves anything
        params = contact_params(m=1.0, c=2.0)
        obj = zero_objective(2)
        z = row_of([0.0, 0.0], [3.0, 4.0])
        tau = 0.4
        out, t = strang_step(z, 1.0, tau, obj, params)
        r = math.sqrt(25.0 + 4.0)
        x0, p0, _ = parts(z)
        np.testing.assert_allclose(parts(out)[0], x0 + 2.0 * p0 * tau / r, atol=1e-14)
        np.testing.assert_array_equal(parts(out)[1], p0)
        assert t == pytest.approx(1.0 + tau, abs=1e-15)

    def test_time_symmetry_without_dissipation(self):
        params = contact_params(damping=nag_like_damping)
        obj = make_random_quadratic(3, 3, 0.2, 1.5)
        z0 = np.array([1.0, -0.5, 0.2, 0.3, 0.1, -0.2, 0.4])
        tau = 0.2
        back, t = strang_step(*strang_step(z0, 1.0, tau, obj, params), -tau, obj, params)
        np.testing.assert_allclose(parts(back)[0], parts(z0)[0], atol=1e-10)
        np.testing.assert_allclose(parts(back)[1], parts(z0)[1], atol=1e-10)
        assert back[-1] == pytest.approx(z0[-1], abs=1e-10)
        assert t == pytest.approx(1.0, abs=1e-12)

    def test_iteration_clock_decouples_span_from_time(self):
        params = contact_params(0.1, nag_like_damping)
        obj = quartic(2)
        _, t = strang_step(row_of([1.0, 1.0], [0.0, 0.0]), 0.0, 0.05, obj, params, clock_dtau=1.0)
        assert t == pytest.approx(1.0, abs=1e-15)

    def test_no_secular_energy_drift_when_conservative(self):
        # over 10^4 conservative steps the energy error stays bounded and
        # shrinks ~4x when tau halves (second-order signature)
        obj = make_random_quadratic(6, 2, 0.2, 1.0)
        params = contact_params()
        ham = contact_hamiltonian(obj, params)
        z0 = np.array([1.0, -0.7, 0.4, 0.2, 0.0])
        devs = {}
        for tau in (0.1, 0.05):
            traj = integrate_split(z0, 0.0, tau, 10_000, obj, params)
            assert not traj.diverged
            h = np.array([ham(*row).value for row in zip(traj.X, traj.P, traj.S, traj.t)])
            dev = np.abs(h - h[0])
            devs[tau] = dev.max()
            # bounded oscillation, not growth: the late-window error is no
            # worse than twice the early-window error
            n = len(dev)
            assert dev[-n // 10:].max() <= 2.0 * dev[: n // 10].max()
        ratio = devs[0.1] / devs[0.05]
        assert 2.5 <= ratio <= 6.0


class TestTripleJump:
    def test_first_order_pair_values(self):
        z0, z1 = triple_jump_coefficients(1)
        assert z0 == pytest.approx(-1.7024143839193153, abs=1e-9)
        assert z1 == pytest.approx(1.3512071919596578, abs=1e-9)

    def test_weights_cover_one_step(self):
        for n in range(1, 5):
            z0, z1 = triple_jump_coefficients(n)
            assert 2.0 * z1 + z0 == pytest.approx(1.0, abs=1e-14)

    def test_outer_weight_approaches_one(self):
        z1s = [triple_jump_coefficients(n)[1] for n in range(1, 7)]
        assert all(a > b for a, b in zip(z1s, z1s[1:]))
        assert all(z > 1.0 for z in z1s)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            triple_jump_coefficients(0)


class TestSplitFlowPlan:
    def test_preset_names_and_orders(self):
        assert PLAN_NAMES == tuple(PLANS)
        orders = {name: order for name, (order, _) in PLANS.items()}
        assert orders == {"strang": 2, "jump4": 4, "suzuki4": 4, "jump6": 6}

    def test_every_plan_is_palindromic_and_covers_one_step(self):
        for name, (order, w) in PLANS.items():
            assert all(abs(w[j] - w[-1 - j]) <= 1e-15 for j in range(len(w))), name
            assert abs(sum(w) - 1.0) <= 1e-12, name
            assert order >= 2 and order % 2 == 0, name

    def test_jump6_is_flattened_nesting(self):
        # the triple jump (n = 2) of jump4, every weight to the bit
        z0, z1 = triple_jump_coefficients(2)
        jump4 = PLANS["jump4"][1]
        assert PLANS["jump6"][1] == tuple(u * w for u in (z1, z0, z1) for w in jump4)
        assert len(PLANS["jump6"][1]) == 9

    def test_unknown_name(self):
        message = "unknown plan 'rk4'; valid names: strang, jump4, suzuki4, jump6"
        obj = quartic(1)
        z, t = state_of([1.0], [0.0])
        with pytest.raises(ValueError, match=f"^{message}$"):
            compose_step(z, t, 0.1, obj, contact_params(), "rk4")
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate_split(z, t, 0.1, 5, obj, contact_params(), "rk4")

    def test_single_stage_equals_strang(self):
        obj = make_random_quadratic(4, 2, 0.2, 1.5)
        params = contact_params(0.2)
        z = row_of([1.0, 0.5], [0.2, -0.1], s=0.3)
        a, a_t = compose_step(z, 2.0, 0.3, obj, params, "strang")
        b, b_t = strang_step(z, 2.0, 0.3, obj, params)
        np.testing.assert_array_equal(a, b)
        assert a_t == b_t

    def test_jump4_is_three_strang_stages(self):
        z0, z1 = triple_jump_coefficients(1)
        obj = make_random_quadratic(4, 2, 0.2, 1.5)
        params = contact_params(0.2)
        z = row_of([1.0, 0.5], [0.2, -0.1], s=0.3)
        tau = 0.3
        a, a_t = compose_step(z, 2.0, tau, obj, params, "jump4")
        b, b_t = z, 2.0
        for w in (z1, z0, z1):
            b, b_t = strang_step(b, b_t, w * tau, obj, params)
        np.testing.assert_allclose(a, b, atol=1e-15)
        assert a_t == pytest.approx(b_t, abs=1e-15)


class TestIntegrateSplit:
    def test_trajectory_length(self):
        obj = quartic(2)
        params = contact_params(0.1)
        traj = integrate_split(*state_of([1.0, 1.0], [0.0, 0.0], t=0.0), 0.05, 20, obj, params)
        assert len(traj) == 21
        assert not traj.diverged

    def test_divergence_truncates(self):
        # the S ledger subtracts f*tau each step; starting far out on
        # |x|^2/2 pushes it past the magnitude cap after a handful of
        # steps, while X and P stay far below it
        obj = make_random_quadratic(3, 2, 1.0, 1.0)
        params = contact_params()
        traj = integrate_split(*state_of([1e151, 1e151], [0.0, 0.0], t=1.0), 1e-3, 40, obj, params)
        assert traj.diverged
        assert 2 <= len(traj) < 41
        assert np.all(np.abs(traj.z) <= DIVERGENCE_LIMIT)
        assert np.all(np.abs(traj.z[:, :-1]) < 1e160)

    def test_a_momentum_past_1e154_keeps_the_row_finite(self):
        # on the quartic from X = 1e76 the first kick gives |P| ~ 1e224,
        # whose square overflows: S stays finite, and the run stops when S
        # passes the divergence limit, not at a NaN
        obj, params = quartic(2), contact_params(0.1)
        traj = integrate_split(*state_of([1e76, 1e76], [0.0, 0.0], t=0.0), 1e-5, 40, obj, params)
        assert traj.diverged and len(traj) > 2
        assert np.all(np.abs(traj.z) <= DIVERGENCE_LIMIT)
        assert np.all(np.abs(traj.X - 1e76) <= 1e-5 * len(traj))

    @pytest.mark.parametrize("x0, tau, n", [(1.0, 0.05, 20), (1e76, 1e-5, 40)],
                             ids=["finite", "diverged"])
    def test_rows_repeat_compose_step(self, x0, tau, n):
        # row k is k composed steps from the start, bit for bit, and a
        # diverged run keeps every finite step and stops at the first
        # that is not
        obj = quartic(2)
        params = contact_params(0.1)
        z, t = state_of([x0, x0], [0.0, 0.0], t=1.0)
        traj = integrate_split(z, t, tau, n, obj, params, "jump4")
        with np.errstate(all="ignore"):
            for row, row_t in zip(traj.z, traj.t):
                np.testing.assert_array_equal(row, z)
                assert row_t == t
                z, t = compose_step(z, t, tau, obj, params, "jump4")
        assert traj.diverged == (len(traj) < n + 1) == (not within_limit(z).all())

    def test_rejects_nonpositive_count(self):
        obj = quartic(1)
        with pytest.raises(ValueError):
            integrate_split(*state_of([1.0], [0.0]), 0.1, 0, obj, contact_params())

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_span(self, tau):
        with pytest.raises(ValueError, match="tau must be finite"):
            integrate_split(*state_of([1.0], [0.0]), tau, 5, quartic(1), contact_params())


class TestConformalAtPresetScale:
    # the desk quartic and rosenbrock presets' dimensions and starts, at
    # rest with S = 0 and t = 1, under the relativistic nag-like Hamiltonian
    PARAMS = contact_params(0.1, nag_like_damping, m=1.0, c=1.0)

    @pytest.mark.parametrize("obj, x0", [
        (quartic(50), 2.0 * np.ones(50)),
        (rosenbrock(100), np.tile([-1.2, 1.0], 50)),
    ], ids=["quartic50", "rosenbrock100"])
    @pytest.mark.parametrize("plan", ["strang", "jump4"])
    def test_composed_steps_are_conformal(self, obj, x0, plan):
        z0 = np.concatenate([x0, np.zeros(len(x0) + 1)])
        lam, res = conformal_factor(
            lambda z, t: compose_step(z, t, 0.05, obj, self.PARAMS, plan), "std1", z0, 1.0
        )
        assert res < TOL_CONFORMAL
        if plan == "strang":
            # both phi1 factors see the clock at the step's midpoint
            assert abs(lam - math.exp(-self.PARAMS.h(1.025) * 0.05)) < TOL_LAMBDA
