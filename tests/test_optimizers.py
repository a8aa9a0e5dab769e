import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactopt.contact import Trajectory, _jacobian, conformal_factor
from contactopt.objectives import (
    Objective,
    camelback,
    diagonal_quadratic,
    draw_quadratic,
    make_random_quadratic,
    quartic,
    rosenbrock,
)
from contactopt.optimizers import (
    OPTIMIZER_KINDS,
    TUNABLES,
    OptimizerConfig,
    RunRecord,
    _Columns,
    _UPDATES,
    _start_velocity,
    nag_contact_map,
    run,
    run_batch,
    step,
)


def halfsq():
    # f(x) = x^2 / 2 in one dimension: a 1x1 SPD quadratic with unit eigenvalue
    obj = make_random_quadratic(5, 1, 1.0, 1.0)
    assert obj.eval(np.array([2.0])) == pytest.approx(2.0, abs=1e-14)
    return obj


def zero_objective(dim):
    return Objective(
        name="zero",
        dim=dim,
        eval=lambda x: 0.0,
        grad=lambda x: np.zeros(dim),
        known_min_value=0.0,
    )


class TestOptimizerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="unknown optimizer"):
            OptimizerConfig(kind="adam")
        with pytest.raises(ValueError, match="tau"):
            OptimizerConfig(kind="gd", tau=0.0)
        with pytest.raises(ValueError, match="epsilon"):
            OptimizerConfig(kind="rgd", epsilon=-1.0)
        with pytest.raises(ValueError, match="mu"):
            OptimizerConfig(kind="cm", mu=0.0)
        with pytest.raises(ValueError, match="mu"):
            OptimizerConfig(kind="cm", mu=1.2)
        with pytest.raises(ValueError, match="delta"):
            OptimizerConfig(kind="crgd", delta=-0.5)

    def test_fields_are_the_kind_and_the_tunables(self):
        # a schedule is a kind: no mode field rides beside the tunables
        assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["kind", *TUNABLES]
        assert [f.name for f in dataclasses.fields(_Columns)] == list(TUNABLES)
        for old in ({"momentum_schedule": "nesterov_k"}, {"clock": "physical"}):
            with pytest.raises(TypeError):
                OptimizerConfig(kind="nag", **old)

    def test_mu_one_is_legal(self):
        OptimizerConfig(kind="crgd", mu=1.0)

    def test_params_dict_per_kind(self):
        assert set(OptimizerConfig(kind="gd").params_dict()) == {"tau"}
        assert set(OptimizerConfig(kind="cm").params_dict()) == {"tau", "mu"}
        assert set(OptimizerConfig(kind="nag").params_dict()) == {"tau", "mu"}
        assert set(OptimizerConfig(kind="nag_k").params_dict()) == {"tau"}
        for kind in ("rgd", "crgd", "crgd_t"):
            assert set(OptimizerConfig(kind=kind).params_dict()) == {
                "epsilon", "mu", "delta"}


class TestStateHandling:
    def test_init_state_velocities(self):
        x0 = np.array([1.0, -2.0])
        for kind in OPTIMIZER_KINDS:
            V = _start_velocity(x0, kind)
            assert not np.shares_memory(V, x0)
            if kind in ("nag", "nag_k"):
                np.testing.assert_array_equal(V, x0)
            else:
                np.testing.assert_array_equal(V, np.zeros(2))


class TestRowSignature:
    def test_steps_reject_an_even_row_and_a_negative_counter(self):
        obj = halfsq()
        for kind in OPTIMIZER_KINDS:
            cfg = OptimizerConfig(kind=kind)
            with pytest.raises(ValueError, match="odd length"):
                step(np.zeros(2), 0, obj, cfg)
            with pytest.raises(ValueError, match="non-negative"):
                step(np.zeros(3), -1, obj, cfg)

    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_steps_read_a_read_only_row_and_return_a_new_one(self, kind):
        obj = quartic(2)
        cfg = OptimizerConfig(kind=kind, tau=0.1, epsilon=0.01)
        z = np.array([1.0, -0.5, 0.3, 0.2, 0.7])
        z.setflags(write=False)
        out, k = step(z, 2, obj, cfg)
        assert k == 3 and out.flags.writeable and not np.shares_memory(out, z)
        assert out.shape == z.shape and not np.array_equal(out, z)
        np.testing.assert_array_equal(z, [1.0, -0.5, 0.3, 0.2, 0.7])


class TestGradientDescent:
    def test_geometric_decay_on_quadratic(self):
        obj = halfsq()
        cfg = OptimizerConfig(kind="gd", tau=0.1)
        z, k = np.array([1.0, 0.0, 0.0]), 0
        for j in range(1, 6):
            z, k = step(z, k, obj, cfg)
            assert z[0] == pytest.approx(0.9 ** j, abs=1e-15)
            assert k == j

    def test_fixed_at_stationary_point(self):
        obj = halfsq()
        cfg = OptimizerConfig(kind="gd", tau=0.3)
        out, _ = step(np.zeros(3), 0, obj, cfg)
        assert out[0] == 0.0 and out[-1] == 0.0


class TestHeavyBall:
    def test_zero_momentum_matches_gd(self):
        obj = make_random_quadratic(9, 3, 0.3, 1.5)
        # mu is validated to (0, 1]; a tiny mu with V0 = 0 still seeds the
        # first step identically, so compare one step at mu -> 0 exactly
        cfg_cm = OptimizerConfig(kind="cm", tau=0.2, mu=1e-300)
        cfg_gd = OptimizerConfig(kind="gd", tau=0.2)
        z0 = np.array([1.0, -0.5, 2.0, 0.0, 0.0, 0.0, 0.0])
        a, _ = step(z0, 0, obj, cfg_cm)
        b, _ = step(z0, 0, obj, cfg_gd)
        np.testing.assert_array_equal(a[:3], b[:3])

    def test_hand_iterates(self):
        obj = halfsq()
        cfg = OptimizerConfig(kind="cm", tau=0.1, mu=0.5)
        z, k = step(np.array([1.0, 0.0, 0.0]), 0, obj, cfg)
        assert z[0] == pytest.approx(0.9, abs=1e-15)
        assert z[1] == pytest.approx(-0.1, abs=1e-15)
        z, k = step(z, k, obj, cfg)
        # V2 = 0.5*(-0.1) - 0.1*0.9 = -0.14; X2 = 0.9 - 0.14
        assert z[0] == pytest.approx(0.76, abs=1e-15)
        assert z[1] == pytest.approx(-0.14, abs=1e-15)

    def test_rest_state_is_fixed(self):
        obj = halfsq()
        cfg = OptimizerConfig(kind="cm", tau=0.1, mu=0.9)
        out, _ = step(np.zeros(3), 0, obj, cfg)
        assert out[0] == 0.0 and out[1] == 0.0


class TestNesterov:
    def test_flat_objective_is_fixed(self):
        obj = zero_objective(2)
        cfg = OptimizerConfig(kind="nag", tau=0.1, mu=0.7)
        z, k = np.array([1.0, 2.0, 1.0, 2.0, 0.0]), 0
        for _ in range(3):
            z, k = step(z, k, obj, cfg)
        np.testing.assert_array_equal(z[:2], [1.0, 2.0])
        np.testing.assert_array_equal(z[2:4], [1.0, 2.0])

    def test_hand_iterate_constant_momentum(self):
        obj = halfsq()
        cfg = OptimizerConfig(kind="nag", tau=0.1, mu=0.5)
        z, _ = step(np.array([1.0, 1.0, 0.0]), 0, obj, cfg)
        assert z[0] == pytest.approx(0.9, abs=1e-15)
        assert z[1] == pytest.approx(0.85, abs=1e-15)

    def test_nesterov_schedule_first_step_has_no_momentum(self):
        obj = halfsq()
        cfg = OptimizerConfig(kind="nag_k", tau=0.1)
        z, _ = step(np.array([1.0, 1.0, 0.0]), 0, obj, cfg)
        # c = (1-1)/(1+2) = 0 so the look-ahead equals the iterate
        assert z[1] == z[0] == pytest.approx(0.9, abs=1e-15)


class TestNesterovFactorization:
    @pytest.mark.parametrize("kind", ["nag", "nag_k"])
    def test_step_is_the_look_ahead_gradient_then_the_momentum_map(self, kind):
        obj = make_random_quadratic(3, 4, 0.2, 1.0)
        cfg = OptimizerConfig(kind=kind, tau=0.1, mu=0.8)
        rng = np.random.default_rng(0)
        a = b = np.concatenate([rng.standard_normal(4), rng.standard_normal(4), [0.3]])
        for k in range(30):
            a, _ = step(a, k, obj, cfg)
            # the gradient stage at the look-ahead: V <- V - tau grad f(V)
            b = np.concatenate([b[:4], b[4:8] - cfg.tau * obj.grad(b[4:8]), b[8:]])
            if kind == "nag_k":
                b, _ = nag_contact_map(b, 0.0, k + 1)
            else:  # the same map with c = mu
                x, v, s = b[:4], b[4:8], b[8:]
                b = np.concatenate([v, v + cfg.mu * (v - x), cfg.mu * s])
            # X, V and S, bit for bit
            np.testing.assert_array_equal(a, b)

    def test_contact_stage_rescales_s_by_momentum_product(self):
        obj = zero_objective(1)
        cfg = OptimizerConfig(kind="nag_k", tau=0.1)
        z, k = np.array([0.4, 0.4, 1.7]), 4
        for _ in range(6):
            z, k = step(z, k, obj, cfg)
        expect = 1.7
        for j in range(5, 11):
            expect *= (j - 1.0) / (j + 2.0)
        assert z[-1] == pytest.approx(expect, rel=1e-15)

    def test_first_step_kills_s(self):
        obj = zero_objective(1)
        cfg = OptimizerConfig(kind="nag_k", tau=0.1)
        z = np.array([1.0, 1.0, 0.9])
        out, _ = step(z, 0, obj, cfg)
        assert out[-1] == 0.0
        assert out[1] == out[0] == z[1]


class TestNesterovContactMap:
    def test_rejects_k_below_one(self):
        z = np.array([0.0, 0.0, 1.0, 1.0, 0.4])
        with pytest.raises(ValueError):
            nag_contact_map(z, 1.0, 0)

    def test_hand_value_on_the_row(self):
        # (X, P, S) -> (P, P + c (P - X), c S) with c = 2/5 at k = 3, clock unchanged
        z = np.array([0.7, -0.2, 0.1, 0.5, 0.4])
        out, t = nag_contact_map(z, 1.5, 3)
        np.testing.assert_allclose(out, [0.1, 0.5, -0.14, 0.78, 0.16], atol=1e-15)
        assert t == 1.5
        np.testing.assert_array_equal(z, [0.7, -0.2, 0.1, 0.5, 0.4])

    def test_k3_factor_is_two_fifths(self):
        z0 = np.array([0.7, -0.2, 0.1, 0.5, 0.4])
        lam, res = conformal_factor(lambda z, t: nag_contact_map(z, t, 3), "std2", z0, 1.0)
        assert lam == pytest.approx(0.4, abs=1e-12)
        assert res < 1e-12

    def test_factor_tracks_iteration_index(self):
        rng = np.random.default_rng(12)
        for k in range(2, 51, 7):
            lam, res = conformal_factor(
                lambda z, t: nag_contact_map(z, t, k), "std2", rng.standard_normal(7), 1.0
            )
            assert lam == pytest.approx((k - 1.0) / (k + 2.0), abs=1e-12)
            assert res < 1e-12


class TestRelativisticSteps:
    def test_rgd_hand_values(self):
        obj = halfsq()
        cfg = OptimizerConfig(kind="rgd", epsilon=0.1, mu=0.81, delta=1.0)
        z, _ = step(np.array([1.0, 0.0, 0.0]), 0, obj, cfg)
        # sqrt(mu) = 0.9; V0 = 0 so the first half drift is a no-op, the kick
        # gives v_mid = -0.1, and the second drift normalizes by sqrt(1.01)
        assert z[0] == pytest.approx(1.0 - 0.1 / math.sqrt(1.01), abs=1e-15)
        assert z[1] == pytest.approx(-0.09, abs=1e-15)
        assert z[2] < 0.0

    def test_delta_zero_is_continuous_limit(self):
        obj = make_random_quadratic(7, 3, 0.3, 1.2)
        z0 = np.array([1.0, -0.4, 0.8, 0.0, 0.0, 0.0, 0.0])
        outs = {}
        for delta in (0.0, 1e-12):
            cfg = OptimizerConfig(kind="rgd", epsilon=0.05, mu=0.9, delta=delta)
            z, k = z0, 0
            for _ in range(3):
                z, k = step(z, k, obj, cfg)
            outs[delta] = z
        np.testing.assert_allclose(outs[0.0][:3], outs[1e-12][:3], atol=1e-9)
        np.testing.assert_allclose(outs[0.0][3:6], outs[1e-12][3:6], atol=1e-9)
        # S too: its kinetic rate is measured from the rest energy, which
        # would diverge as delta -> 0
        assert outs[0.0][6] != 0.0
        assert abs(outs[0.0][6] - outs[1e-12][6]) < 1e-9

    def test_delta_zero_hand_step(self):
        obj = halfsq()
        cfg = OptimizerConfig(kind="rgd", epsilon=0.1, mu=1.0, delta=0.0)
        z, _ = step(np.array([1.0, 0.5, 0.0]), 0, obj, cfg)
        # mu = 1, delta = 0: x_mid = 1.5, v_mid = 0.5 - 0.15 = 0.35
        assert z[0] == pytest.approx(1.85, abs=1e-15)
        assert z[1] == pytest.approx(0.35, abs=1e-15)

    def test_crgd_equals_rgd_at_mu_one(self):
        obj = quartic(2)
        cfg = OptimizerConfig(kind="crgd", epsilon=0.02, mu=1.0, delta=2.0)
        rgd = dataclasses.replace(cfg, kind="rgd")
        a = b = np.array([2.0, 2.0, 0.0, 0.0, 0.0])
        for k in range(5):
            a, _ = step(a, k, obj, cfg)
            b, _ = step(b, k, obj, rgd)
        np.testing.assert_array_equal(a, b)

    def test_crgd_relaxes_to_rgd_at_large_k(self):
        obj = quartic(2)
        cfg = OptimizerConfig(kind="crgd", epsilon=0.02, mu=0.9, delta=2.0)
        z0 = np.array([1.0, 1.0, 0.2, -0.1, 0.0])
        a, _ = step(z0, 10 ** 6, obj, cfg)
        b, _ = step(z0, 10 ** 6, obj, dataclasses.replace(cfg, kind="rgd"))
        # dissipation factors differ by O(1/k): mu^(1 + 1/k) vs mu
        assert np.max(np.abs(a[:2] - b[:2])) < 1e-7
        assert np.max(np.abs(a[2:4] - b[2:4])) < 1e-7
        assert not np.array_equal(a[2:4], b[2:4])

    def test_crgd_dissipation_starts_heavier(self):
        # at k = 0 the factor is mu^3, so the first step damps V harder
        obj = zero_objective(1)
        cfg = OptimizerConfig(kind="crgd", epsilon=0.02, mu=0.9, delta=0.0)
        z0 = np.array([0.0, 1.0, 0.0])
        a, _ = step(z0, 0, obj, cfg)
        b, _ = step(z0, 0, obj, dataclasses.replace(cfg, kind="rgd"))
        assert a[1] == pytest.approx(0.9 ** 3, abs=1e-14)
        assert b[1] == pytest.approx(0.9, abs=1e-14)

    def test_physical_clock_changes_schedule(self):
        obj = quartic(1)
        base = dict(kind="crgd", epsilon=0.02, mu=0.9, delta=1.0)
        z0 = np.array([1.0, 0.3, 0.0])
        a, _ = step(z0, 2, obj, OptimizerConfig(**base))
        b, _ = step(z0, 2, obj, OptimizerConfig(**dict(base, kind="crgd_t")))
        assert a[1] != b[1]

    @pytest.mark.parametrize("kind", ["rgd", "crgd", "crgd_t"])
    def test_stack_rows_equal_single_steps_with_s(self, kind):
        # S is a trailing column: each row of a stack, delta = 0 included,
        # advances X, V and S exactly as that row stepped alone
        obj = rosenbrock(4)
        cfgs = [OptimizerConfig(kind=kind, epsilon=eps, mu=mu, delta=delta)
                for eps, mu, delta in ((0.002, 0.6, 0.0), (0.01, 0.9, 0.7), (0.05, 0.99, 5.0))]
        rng = np.random.default_rng(11)
        X, V = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        S = rng.standard_normal((3, 1))
        singles = [np.concatenate([x, v, s]) for x, v, s in zip(X, V, S)]
        p = _Columns.of(cfgs)
        for k in range(2, 6):
            X, V, S = _UPDATES[kind](X, V, S, k, obj, p)
            singles = [step(z, k, obj, cfg)[0] for z, cfg in zip(singles, cfgs)]
            for i, z in enumerate(singles):
                assert (X[i].tobytes(), V[i].tobytes(), S[i, 0]) == (
                    z[:4].tobytes(), z[4:8].tobytes(), z[-1])
        assert np.all(np.isfinite(S)) and len(set(S[:, 0])) == 3

    def test_a_velocity_whose_square_overflows_drifts_at_the_speed_limit(self):
        # |V|^2 overflows past |V| ~ 1.3e154, and delta |V|^2 at delta = 1e10
        # past |V| ~ 1.3e149: each half drift still moves X by 1/sqrt(delta)
        # along V, and S stays finite
        for delta, v0, x, s in ((1.0, 1e200, [2.0, 2e-200], 26.7),
                                (1e10, 1e150, [2e-5, 2e-155], 2.683e-9)):
            cfg = OptimizerConfig(kind="rgd", epsilon=0.01, mu=0.9, delta=delta)
            with np.errstate(over="ignore"):  # numpy still reports the overflow
                z, _ = step(np.array([0.0, 0.0, v0, 1.0, 0.0]), 0, quartic(2), cfg)
            np.testing.assert_allclose(z[:2], x, rtol=1e-15)
            assert z[-1] == pytest.approx(s, rel=1e-3)

    def test_a_row_whose_square_overflows_leaves_the_other_rows_bits(self):
        obj = quartic(2)
        cfgs = [OptimizerConfig(kind="rgd", epsilon=0.01, mu=0.9, delta=d) for d in (1.0, 0.5, 1e10)]
        X, V, S = np.zeros((3, 2)), np.array([[1e200, 1.0], [0.3, -0.7], [1e150, 1.0]]), np.zeros((3, 1))
        with np.errstate(over="ignore"):
            X, V, S = _UPDATES["rgd"](X, V, S, 0, obj, _Columns.of(cfgs))
        z, _ = step(np.array([0.0, 0.0, 0.3, -0.7, 0.0]), 0, obj, cfgs[1])
        assert (X[1].tobytes(), V[1].tobytes(), S[1, 0]) == (
            z[:2].tobytes(), z[2:4].tobytes(), z[-1])
        assert np.isfinite(X).all() and np.isfinite(S).all()
        np.testing.assert_allclose(X[2], [2e-5, 2e-155], rtol=1e-15)

    def test_complex_step_jacobian_through_an_overflowing_row(self):
        # the scaled root keeps a complex row complex: dX'/dX = I, and
        # dV'_0/dX_0 = -sqrt(mu) eps f''(x_mid_0) = -12 eps sqrt(mu) at x_mid_0 = 1;
        # a central difference cannot see this, its step is below one ulp of 1e200
        cfg = OptimizerConfig(kind="rgd", epsilon=0.01, mu=0.9, delta=1.0)
        with np.errstate(over="ignore", invalid="ignore"):  # the complex square's inf * 0
            j = _jacobian(lambda row, k: step(row, k, quartic(2), cfg),
                          np.array([0.0, 0.0, 1e200, 1.0, 0.0]), 0)
        assert np.isfinite(j).all()
        np.testing.assert_array_equal(j[:2, :2], np.eye(2))
        assert j[2, 0] == pytest.approx(-12.0 * 0.01 * math.sqrt(0.9), abs=1e-12)

    @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(any),
           st.floats(-6.0, 250.0), st.floats(-10.0, 10.0))
    @example([1.0, -0.5, 0.25], 150.0, 10.0)  # |V|^2 finite, delta |V|^2 overflows
    @settings(max_examples=40, deadline=None)
    def test_displacement_bound(self, direction, log_v, log_delta):
        # each half drift moves X by w / hypot(1, sqrt(delta) |w|), less than
        # 1/sqrt(delta), with w = sqrt(mu) V for the first and the kicked
        # velocity v_mid for the second, for |V| up to 1e250 and delta over
        # [1e-10, 1e10]; Python's math.hypot squares nothing
        delta, eps, mu = 10.0 ** log_delta, 0.5, 0.95
        v0 = 10.0 ** log_v * np.array(direction) / math.hypot(*direction)
        kicks, base = [], quartic(3)
        obj = dataclasses.replace(base, grad=lambda x: kicks.append(x) or base.grad(x))
        cfg = OptimizerConfig(kind="rgd", epsilon=eps, mu=mu, delta=delta)
        with np.errstate(over="ignore"):  # numpy reports |V|^2's or delta |V|^2's overflow
            z1, _ = step(np.concatenate([np.zeros(3), v0, [0.0]]), 0, obj, cfg)
        x_mid, = kicks
        v_mid = np.sqrt(mu) * v0 - eps * base.grad(x_mid)
        for start, end, w in ((np.zeros(3), x_mid, math.sqrt(mu) * v0), (x_mid, z1[:3], v_mid)):
            drift = w / math.hypot(1.0, math.sqrt(delta) * math.hypot(*w))
            assert np.linalg.norm(end - start - drift) <= 1e-12 * (
                np.linalg.norm(start) + np.linalg.norm(drift))
            assert np.linalg.norm(end - start) <= (1 + 1e-12) / math.sqrt(delta)


class TestRun:
    def test_trace_length_and_first_entry(self):
        obj = halfsq()
        cfg = OptimizerConfig(kind="gd", tau=0.1)
        rec = run(obj, cfg, np.array([2.0]), iters=17)
        assert len(rec.trace) == 18
        assert rec.trace[0] == pytest.approx(2.0, abs=1e-14)
        assert not rec.diverged
        assert rec.final_gap == rec.trace[-1]
        assert rec.kind == "gd" and rec.params == {"tau": 0.1}

    def test_single_iteration(self):
        obj = halfsq()
        rec = run(obj, OptimizerConfig(kind="gd", tau=0.1), np.array([1.0]), iters=1)
        assert len(rec.trace) == 2

    def test_gd_monotone_on_quadratic(self):
        obj = make_random_quadratic(11, 5, 0.5, 1.5)
        rec = run(obj, OptimizerConfig(kind="gd", tau=0.5), np.ones(5), iters=50)
        assert not rec.diverged
        assert all(a >= b for a, b in zip(rec.trace, rec.trace[1:]))

    def test_divergence_flag_and_inf_gap(self):
        obj = quartic(2)
        rec = run(obj, OptimizerConfig(kind="gd", tau=1.0), np.array([2.0, 2.0]),
                  iters=50)
        assert rec.diverged
        assert rec.final_gap == math.inf
        assert len(rec.trace) < 51
        assert all(math.isfinite(v) for v in rec.trace)

    def test_subnormal_delta_runs_like_delta_zero(self):
        # delta=1e-310 is subnormal: the iterates match the delta=0 run, and
        # run (without S) and a Trajectory of step (with S) both keep all 51
        # rows, since S, measured without the rest energy, stays finite
        obj = halfsq()
        cfgs = {delta: OptimizerConfig(kind="rgd", epsilon=0.1, mu=0.9, delta=delta)
                for delta in (1e-310, 0.0)}
        tiny, zero = (run(obj, cfg, [1.0], iters=50) for cfg in cfgs.values())
        assert not tiny.diverged
        assert tiny.trace == zero.trace
        trajs = {delta: Trajectory.of(functools.partial(step, obj=obj, cfg=cfg),
                                      np.array([1.0, 0.0, 0.0]), 0, 50)
                 for delta, cfg in cfgs.items()}
        assert len(tiny.trace) == len(trajs[1e-310]) == 51
        assert not trajs[1e-310].diverged
        assert tuple(obj.eval(x) for x in trajs[1e-310].X) == tiny.trace
        assert abs(trajs[1e-310].S[-1] - trajs[0.0].S[-1]) < 1e-9

    def test_rejects_nonpositive_iters(self):
        with pytest.raises(ValueError):
            run(halfsq(), OptimizerConfig(kind="gd"), np.array([1.0]), iters=0)

    def test_trial_seed_recorded(self):
        rec = run(halfsq(), OptimizerConfig(kind="gd"), np.array([1.0]),
                  iters=1, trial_seed=77)
        assert rec.trial_seed == 77

    def test_all_kinds_complete(self):
        obj = make_random_quadratic(2, 3, 0.3, 1.0)
        x0 = np.full(3, 1.5)
        for kind in OPTIMIZER_KINDS:
            cfg = OptimizerConfig(kind=kind, tau=0.05, epsilon=0.01, mu=0.9)
            rec = run(obj, cfg, x0, iters=30)
            assert not rec.diverged
            assert rec.trace[-1] < rec.trace[0]

    def test_runrecord_requires_trace(self):
        with pytest.raises(ValueError):
            RunRecord(kind="gd", params={}, trace=(), diverged=False)


def batch_configs(kind, rng, T):
    """T configs of one kind with steps wide enough that some runs diverge."""
    return [
        OptimizerConfig(
            kind=kind,
            tau=float(10 ** rng.uniform(-3, 0)),
            epsilon=float(10 ** rng.uniform(-3, 0)),
            mu=float(rng.uniform(0.5, 0.99)),
            delta=float(rng.uniform(0.0, 5.0)),
        )
        for _ in range(T)
    ]


def batch_vs_single(obj, kind, seed, T=12, iters=40):
    rng = np.random.default_rng(seed)
    cfgs = batch_configs(kind, rng, T)
    x0s = rng.uniform(-2.0, 2.0, (T, obj.dim))
    batch = run_batch(obj, cfgs, x0s, iters, trial_seeds=range(T))
    singles = [run(obj, cfg, x0, iters, trial_seed=i)
               for i, (cfg, x0) in enumerate(zip(cfgs, x0s))]
    return batch, singles


class TestRunBatch:
    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    @pytest.mark.parametrize("make", [lambda: quartic(5), lambda: rosenbrock(6), camelback,
                                      lambda: make_random_quadratic(4, 8, 0.1, 1.0)],
                             ids=["quartic", "rosenbrock", "camelback", "quadratic"])
    def test_rows_equal_single_runs_bitwise(self, make, kind):
        batch, singles = batch_vs_single(make(), kind, seed=3)
        assert len(batch) == len(singles)
        for i, rec in enumerate(singles):
            assert batch[i] == rec

    def test_rows_diverge_at_different_iterations(self):
        obj = quartic(3)
        taus = (1e-3, 0.02, 0.05, 0.2, 1.0)
        cfgs = [OptimizerConfig(kind="gd", tau=t) for t in taus]
        x0s = np.full((len(taus), 3), 2.0)
        batch = run_batch(obj, cfgs, x0s, iters=60)
        lengths = [len(batch[i].trace) for i in range(len(taus))]
        flags = [batch[i].diverged for i in range(len(taus))]
        assert flags[0] is False and all(flags[2:])
        assert len({n for n, d in zip(lengths, flags) if d}) >= 2
        for i, (cfg, x0) in enumerate(zip(cfgs, x0s)):
            assert batch[i] == run(obj, cfg, x0, 60)
        # the gap matrix holds each prefix and +inf after it
        for i, n in enumerate(lengths):
            assert np.all(np.isinf(batch.gaps[n:, i]))
            assert np.all(np.isfinite(batch.gaps[:n, i]))

    def test_non_finite_start_gap_is_recorded(self):
        obj = quartic(2)
        cfgs = [OptimizerConfig(kind="cm", tau=0.01, mu=0.9)] * 2
        x0s = np.array([[1e200, 0.0], [0.5, -0.5]])
        batch = run_batch(obj, cfgs, x0s, iters=10)
        first = batch[0]
        assert first.trace == (math.inf,) and first.diverged
        assert first == run(obj, cfgs[0], x0s[0], 10)
        assert not batch[1].diverged and len(batch[1].trace) == 11
        assert batch[1] == run(obj, cfgs[1], x0s[1], 10)

    def test_divergence_boundary(self):
        # the gap is X's one coordinate, which gd keeps under a zero gradient
        values = [1e300, -1e300, np.nextafter(1e300, np.inf), np.inf, -np.inf, np.nan]
        obj = Objective(name="coordinate", dim=1, eval=lambda x: x[..., 0], grad=np.zeros_like)
        cfgs = [OptimizerConfig(kind="gd", tau=0.1)] * len(values)
        batch = run_batch(obj, cfgs, np.array(values)[:, None], iters=3)
        assert batch.diverged.tolist() == [False, False, True, True, True, True]
        assert batch.stop.tolist() == [4, 4, 1, 1, 1, 1]
        assert batch[0].trace == (1e300,) * 4 and batch[1].trace == (-1e300,) * 4

    def test_final_gaps_match_records(self):
        batch, _ = batch_vs_single(quartic(4), "gd", seed=8)
        assert batch.diverged.any() and not batch.diverged.all()
        assert batch.final_gaps.tolist() == [r.final_gap for r in batch]

    def test_matches_stepping_by_hand(self):
        # a run starts from the row (x0, x0 for nag else 0, 0) at k = 0
        obj = rosenbrock(4)
        x0 = np.array([-1.2, 1.0, -1.2, 1.0])
        for kind in OPTIMIZER_KINDS:
            cfg = OptimizerConfig(kind=kind, tau=1e-3, epsilon=1e-3, mu=0.9)
            z0 = np.concatenate([x0, x0 if kind in ("nag", "nag_k") else np.zeros(4), [0.0]])
            traj = Trajectory.of(functools.partial(step, obj=obj, cfg=cfg), z0, 0, 25)
            assert traj.t.tolist() == list(range(26))
            assert run(obj, cfg, x0, 25).trace == tuple(obj.eval(x) for x in traj.X)
            assert np.isfinite(traj.S).all()
            assert (traj.S[-1] == 0.0) == (kind in ("gd", "cm", "nag", "nag_k"))

    def test_rejects_mixed_batches(self):
        obj = quartic(2)
        with pytest.raises(ValueError, match="one kind"):
            run_batch(obj, [OptimizerConfig(kind="gd"), OptimizerConfig(kind="cm")],
                      np.ones((2, 2)), iters=3)
        with pytest.raises(ValueError, match="one kind"):
            run_batch(obj, [OptimizerConfig(kind="crgd"), OptimizerConfig(kind="crgd_t")],
                      np.ones((2, 2)), iters=3)
        with pytest.raises(ValueError, match="start vector"):
            run_batch(obj, [OptimizerConfig(kind="gd")], np.ones((2, 2)), iters=3)

    @pytest.mark.parametrize("seeds", [[1], [1, 2, 3, 4]])
    def test_rejects_a_trial_seed_count_other_than_the_config_count(self, seeds):
        cfgs = [OptimizerConfig(kind="gd")] * 3
        with pytest.raises(ValueError, match=rf"3 configs, {len(seeds)} trial seeds"):
            run_batch(quartic(2), cfgs, np.ones((3, 2)), iters=3, trial_seeds=seeds)

    def test_rejects_objectives_of_one_point_only(self):
        c = np.array([2.0, -3.0])
        cfg = OptimizerConfig(kind="gd")
        for evaluate in (lambda x: float(c @ x), lambda x: float(np.sum(x))):
            obj = Objective(name="linear", dim=2, eval=evaluate, grad=lambda x: c)
            with pytest.raises(ValueError, match="reduce over the last axis"):
                run(obj, cfg, np.ones(2), iters=3)


class TestEigenbasis:
    @pytest.mark.parametrize("kind", OPTIMIZER_KINDS)
    def test_diagonal_batch_matches_assembled_runs(self, kind):
        # every update uses only gradients, linear combinations and squared
        # norms, so a run on A = Q diag(lam) Q' from x0 and a run on
        # diag(lam) from x0 @ Q agree up to rounding
        rng = np.random.default_rng(5)
        cfgs = batch_configs(kind, rng, 12)
        # no speed limit and a huge step: this run diverges
        cfgs.append(dataclasses.replace(cfgs[0], tau=500.0, epsilon=500.0, delta=0.0))
        x0s = rng.uniform(-2.0, 2.0, (len(cfgs), 8))
        lam, rotate = draw_quadratic(4, 8, 0.1, 1.0)
        batch = run_batch(diagonal_quadratic(lam), cfgs, rotate(x0s), iters=60)
        assembled = make_random_quadratic(4, 8, 0.1, 1.0)
        for i, (cfg, x0) in enumerate(zip(cfgs, x0s)):
            rec = run(assembled, cfg, x0, 60)
            assert batch[i].diverged == rec.diverged
            assert len(batch[i].trace) == len(rec.trace)
            np.testing.assert_allclose(batch[i].trace, rec.trace, rtol=1e-12, atol=0)
        assert batch[len(cfgs) - 1].diverged

    def test_per_row_eigenvalues_drop_with_their_rows(self):
        # row t runs on its own eigenvalues lam[t]; rows with larger
        # eigenvalues diverge sooner and take their row of lam with them
        lam = np.outer([0.5, 3.0, 6.0, 1.0, 20.0], np.linspace(0.2, 1.0, 4))
        cfg = OptimizerConfig(kind="cm", tau=1.5, mu=0.5)
        x0s = np.random.default_rng(2).uniform(-1.0, 1.0, lam.shape)
        batch = run_batch(diagonal_quadratic(lam), [cfg] * len(lam), x0s, iters=400)
        stops = {len(batch[i].trace) for i in range(len(lam)) if batch[i].diverged}
        assert not batch[0].diverged and not batch[3].diverged
        assert len(stops) == 3
        for i in range(len(lam)):
            assert batch[i] == run(diagonal_quadratic(lam[i]), cfg, x0s[i], 400)
