import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactopt.contact import (
    DIVERGENCE_LIMIT,
    ContactHamiltonian,
    Partials,
    Trajectory,
    check_hamiltonian_gradients,
    check_row,
    conformal_factor,
    contact_field,
    dissipation_residual,
    eta,
    map_F,
    reference_integrate,
    within_limit,
)
from contactopt.integrators import (
    ContactParams,
    constant_damping,
    contact_hamiltonian,
    integrate_split,
    nag_like_damping,
)
from contactopt.objectives import make_random_quadratic
from contactopt.optimizers import OptimizerConfig, step


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


def random_states(seed, n, dim):
    # n random starts (z, t), the row drawn in (X, P, S) order
    rng = np.random.default_rng(seed)
    for _ in range(n):
        yield rng.standard_normal(2 * dim + 1), float(rng.uniform(0.5, 3.0))


class TestDivergenceRule:
    def test_within_limit_boundary(self):
        # the limit itself is within; the next double above it, +-inf and NaN are not
        values = [0.0, 2.0, -1e300, 1e300, np.nextafter(1e300, np.inf), np.inf, -np.inf, np.nan]
        assert DIVERGENCE_LIMIT == 1e300
        assert within_limit(np.array(values)).tolist() == [True] * 4 + [False] * 4
        assert within_limit(1e300) and not within_limit(math.nan)


ROW_MESSAGE = r"need a flat row of odd length 2n\+1, got shape "
_OBJ = make_random_quadratic(11, 2, 0.1, 2.0)
_PARAMS = ContactParams(*constant_damping(0.3))
_HAM = contact_hamiltonian(_OBJ, _PARAMS)
# every function a run or a certificate starts from, on a start (z, t)
START_TAKERS = {
    "reference_integrate": lambda z, t: reference_integrate(_HAM, "std1", z, t, 0.1, 3),
    "integrate_split": lambda z, t: integrate_split(z, t, 0.1, 3, _OBJ, _PARAMS),
    "conformal_factor": lambda z, t: conformal_factor(map_F, "std2", z, t, source_form="std1"),
    "check_hamiltonian_gradients": lambda z, t: check_hamiltonian_gradients(_HAM, z, t),
}


class TestStartRow:
    def test_check_row_returns_a_float_row_without_copying_one(self):
        z = np.ones(5)
        assert check_row(z) is z
        np.testing.assert_array_equal(check_row([1, 2, 3]), [1.0, 2.0, 3.0])
        assert check_row([1, 2, 3]).dtype == float

    def test_check_row_keeps_a_complex_row(self):
        # the complex-step Jacobian feeds maps complex rows
        z = np.ones(5) + 1e-30j
        assert check_row(z) is z
        with pytest.raises(ValueError, match=ROW_MESSAGE + r"\(4,\)$"):
            check_row(np.ones(4, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["reference_integrate", "integrate_split"])
    def test_a_start_past_the_limit_is_a_run_of_no_rows(self, name, bad):
        # flagged diverged, not raised, and nothing is stepped from it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = START_TAKERS[name](np.array([1.0, bad, 0.3, 0.2, 0.7]), 1.0)
        assert traj.diverged and len(traj) == 0 and traj.z.shape == (0, 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["reference_integrate", "integrate_split"])
    def test_a_start_clock_past_the_limit_is_a_run_of_no_rows(self, name, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = START_TAKERS[name](np.array([1.0, -0.5, 0.3, 0.2, 0.7]), bad)
        assert traj.diverged and len(traj) == 0 and traj.t.shape == (0,)

    @pytest.mark.parametrize("name", START_TAKERS)
    def test_the_start_is_checked_and_left_as_it_was(self, name):
        call = START_TAKERS[name]
        z = np.array([1.0, -0.5, 0.3, 0.2, 0.7])
        call(z, 1.0)
        np.testing.assert_array_equal(z, [1.0, -0.5, 0.3, 0.2, 0.7])
        assert z.flags.writeable
        with pytest.raises(ValueError, match=ROW_MESSAGE + r"\(4,\)$"):
            call(np.ones(4), 1.0)
        with pytest.raises(ValueError, match=ROW_MESSAGE + r"\(1, 5\)$"):
            call(np.ones((1, 5)), 1.0)

    def test_a_step_rejects_an_even_row_with_the_same_message(self):
        with pytest.raises(ValueError, match=ROW_MESSAGE + r"\(4,\)$"):
            step(np.ones(4), 0, _OBJ, OptimizerConfig(kind="rgd"))


class TestContactForms:
    def test_unknown_form_rejected_everywhere(self):
        z, t = state_of([1.0], [0.0])
        calls = (
            lambda: eta("std3", z, np.ones(3)),
            lambda: contact_field(quadratic_hamiltonian(), "std3", z, t),
            lambda: reference_integrate(quadratic_hamiltonian(), "std3", z, t, 0.1, 10),
            lambda: conformal_factor(map_F, "std3", z, t),
        )
        for call in calls:
            with pytest.raises(ValueError, match="unknown contact form 'std3'; expected 'std1' or 'std2'"):
                call()

    def test_tangent_length_checked_by_forms(self):
        z = row_of([1.0, 2.0], [0.0, 0.0])
        for form in ("std1", "std2"):
            with pytest.raises(ValueError, match=r"need a tangent of length 5, got shape \(7,\)"):
                eta(form, z, np.ones(7))

    def test_std1_reduces_to_ds_at_zero_momentum(self):
        z = row_of([3.0, -1.0], [0.0, 0.0])
        assert eta("std1", z, [7.0, 2.0, 1.0, 1.0, 1.0]) == 1.0

    def test_std1_momentum_pairing(self):
        z = row_of([0.0], [2.0])
        assert eta("std1", z, [3.0, 0.0, 0.0]) == -6.0

    def test_std2_at_origin(self):
        z = row_of([0.0], [0.0])
        assert eta("std2", z, [4.0, 5.0, 2.5]) == 2.5

    def test_std2_antisymmetric_cancellation(self):
        z = row_of([1.0], [1.0])
        assert eta("std2", z, [1.0, 1.0, 0.0]) == 0.0

    @given(st.floats(-10, 10), st.floats(-10, 10))
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_tangent(self, a, b):
        rng = np.random.default_rng(3)
        z, _ = next(random_states(8, 1, 3))
        v, w = rng.standard_normal(7), rng.standard_normal(7)
        for form in ("std1", "std2"):
            lhs = eta(form, z, a * v + b * w)
            rhs = a * eta(form, z, v) + b * eta(form, z, w)
            assert lhs == pytest.approx(rhs, abs=1e-9 * (1 + abs(rhs)))


class TestMapF:
    def test_origin_fixed_point(self):
        out, _ = map_F(row_of([0.0], [0.0]), 1.0)
        assert out[0] == 0.0 and out[1] == 0.0 and out[2] == 0.0

    def test_hand_value(self):
        out, _ = map_F(row_of([1.0], [1.0]), 1.0)
        assert out[0] == 2.0
        assert out[1] == 0.0
        assert out[2] == -0.5

    def test_time_passes_through(self):
        _, t = map_F(row_of([1.0], [1.0]), 4.5)
        assert t == 4.5

    def test_pullback_identity_pointwise(self):
        # the std2 form after the map, applied to the tangent the map's own
        # code pushes forward (by complex step), equals the std1 form before
        rng = np.random.default_rng(12)
        for z, t in random_states(12, 50, 3):
            v = np.concatenate([rng.standard_normal(6), rng.standard_normal(1)])
            w = map_F(z + 1e-30j * v, t)[0].imag / 1e-30
            assert eta("std2", map_F(z, t)[0], w) == pytest.approx(eta("std1", z, v), abs=1e-12)

    def test_conformal_factor_is_one(self):
        for z, t in random_states(21, 50, 4):
            lam, res = conformal_factor(map_F, "std2", z, t, source_form="std1")
            assert lam == pytest.approx(1.0, abs=1e-12)
            assert res < 1e-12


def quadratic_hamiltonian() -> ContactHamiltonian:
    # H = (|P|^2 + |X|^2) / 2, S- and t-independent
    return lambda x, p, s, t: Partials(0.5 * float(p @ p + x @ x), x, p, 0.0, 0.0)


def anchored_hamiltonian(x_star, p_star) -> ContactHamiltonian:
    # H = (|P|^2 + |X|^2) / 2 + <x*, P> - <p*, X> + 2 S, the std2 example
    def H(x, p, s, t):
        value = 0.5 * float(p @ p + x @ x) + float(x_star @ p) - float(p_star @ x) + 2.0 * s
        return Partials(value, x - p_star, p + x_star, 2.0, 0.0)

    return H


def field_parts(ham, form, z, t):
    # the (dX, dP, dS) parts of the flat field row
    v = contact_field(ham, form, z, t)
    assert v.shape == z.shape
    return parts(v)


class TestContactFields:
    def test_std1_s_independent_gives_hamilton_equations(self):
        ham = quadratic_hamiltonian()
        for z, t in random_states(4, 10, 3):
            dx, dp, ds = field_parts(ham, "std1", z, t)
            x, p, s = parts(z)
            np.testing.assert_allclose(dx, p, atol=1e-14)
            np.testing.assert_allclose(dp, -x, atol=1e-14)
            assert ds == pytest.approx(float(p @ p) - ham(x, p, s, t).value, abs=1e-12)

    def test_std1_linear_s_term_damps_momentum(self):
        c = 0.7

        def ham(x, p, s, t):
            return Partials(0.5 * float(p @ p + x @ x) + c * s, x, p, c, 0.0)

        for z, t in random_states(5, 10, 2):
            _, dp, _ = field_parts(ham, "std1", z, t)
            x, p, _ = parts(z)
            np.testing.assert_allclose(dp, -x - c * p, atol=1e-14)

    def test_std2_quadratic_field_matrix(self):
        # H = (|P|^2 + |X|^2) / 2 under the symmetric form:
        # dX = P - 0, dP = -X - 0, dS = (<X, X> + <P, P>)/2 - H = H - H... 0
        ham = quadratic_hamiltonian()
        for z, t in random_states(6, 10, 2):
            dx, dp, ds = field_parts(ham, "std2", z, t)
            x, p, _ = parts(z)
            np.testing.assert_allclose(dx, p, atol=1e-14)
            np.testing.assert_allclose(dp, -x, atol=1e-14)
            assert ds == pytest.approx(0.0, abs=1e-12)

    def test_std2_anchored_linear_terms(self):
        # H = H0 + <x*, P> - <p*, X> + 2 S  =>  dX = grad_P H0 + x* - X,
        # dP = -grad_X H0 + p* - P
        x_star = np.array([0.3, -1.1])
        p_star = np.array([0.8, 0.2])
        ham = anchored_hamiltonian(x_star, p_star)
        for z, t in random_states(7, 10, 2):
            dx, dp, _ = field_parts(ham, "std2", z, t)
            x, p, _ = parts(z)
            np.testing.assert_allclose(dx, p + x_star - x, atol=1e-12)
            np.testing.assert_allclose(dp, -x + p_star - p, atol=1e-12)

    @pytest.mark.parametrize("damping", [
        pytest.param(constant_damping(0.3), id="constant"),
        pytest.param(nag_like_damping(0.3), id="nag_like"),
        pytest.param((lambda t: 3.0 / t, lambda t: -3.0 / (t * t)), id="3_over_t"),
    ])
    @pytest.mark.parametrize("c", [
        pytest.param(0.8, id="relativistic"),
        pytest.param(math.inf, id="newtonian"),
    ])
    def test_declared_gradients_match_value(self, c, damping):
        obj = make_random_quadratic(11, 3, 0.1, 2.0)
        ham = contact_hamiltonian(obj, ContactParams(*damping, m=1.2, c=c))
        for z, t in random_states(9, 10, 3):
            assert check_hamiltonian_gradients(ham, z, t) < 1e-5

    @pytest.mark.parametrize("part", ["grad_X", "grad_P", "dS", "dt"])
    def test_audit_catches_an_off_partial(self, part):
        obj = make_random_quadratic(11, 3, 0.1, 2.0)
        ham = contact_hamiltonian(obj, ContactParams(*nag_like_damping(0.3), m=1.2, c=0.8))

        def off(x, p, s, t):
            q = ham(x, p, s, t)
            return q._replace(**{part: getattr(q, part) + 1e-3})

        for z, t in random_states(9, 10, 3):
            assert check_hamiltonian_gradients(off, z, t) > 1e-5


class TestTrajectory:
    def test_columns_are_views_of_the_rows(self):
        z = np.arange(15.0).reshape(3, 5)
        traj = Trajectory(np.arange(3.0), z)
        assert len(traj) == 3 and not traj.diverged
        np.testing.assert_array_equal(traj.X, z[:, :2])
        np.testing.assert_array_equal(traj.P, z[:, 2:4])
        np.testing.assert_array_equal(traj.S, z[:, 4])
        for col in (traj.X, traj.P, traj.S):
            assert np.shares_memory(col, traj.z)

    def test_arrays_are_read_only_copies(self):
        t, z = np.arange(3.0), np.arange(9.0).reshape(3, 3)
        traj = Trajectory(t, z)
        t[0] = z[0, 0] = 7.0
        assert traj.t[0] == 0.0 and traj.z[0, 0] == 0.0
        for arr in (traj.t, traj.z, traj.X, traj.P, traj.S):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.z = z
        out = reference_integrate(quadratic_hamiltonian(), "std1", *state_of([1.0], [0.3]), 0.1, 5)
        for arr in (out.t, out.z):
            with pytest.raises(ValueError, match="read-only"):
                arr[-1] = 1.0

    @pytest.mark.parametrize("t, z", [
        (np.zeros(3), np.zeros((2, 3))),
        (np.zeros(3), np.zeros((3, 4))),
        (np.zeros((3, 1)), np.zeros((3, 3))),
        (np.zeros(3), np.zeros(3)),
    ], ids=["rows-vs-times", "even-width", "2d-times", "1d-rows"])
    def test_rejects_bad_shapes(self, t, z):
        with pytest.raises(ValueError, match="shape"):
            Trajectory(t, z)

    def test_of_records_every_step(self):
        traj = Trajectory.of(lambda z, t: (2.0 * z, t + 0.5), np.ones(3), 1.0, 3)
        assert not traj.diverged
        np.testing.assert_array_equal(traj.t, [1.0, 1.5, 2.0, 2.5])
        np.testing.assert_array_equal(traj.z, [[1.0] * 3, [2.0] * 3, [4.0] * 3, [8.0] * 3])

    def test_of_truncates_before_a_row_past_the_limit(self):
        # the second step overflows to inf; the run keeps the rows before it
        traj = Trajectory.of(lambda z, t: (1e200 * z, t + 1.0), np.ones(3), 0.0, 5)
        assert traj.diverged
        np.testing.assert_array_equal(traj.t, [0.0, 1.0])
        np.testing.assert_array_equal(traj.S, [1.0, 1e200])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_of_a_start_past_the_limit_is_a_run_of_no_rows(self, bad):
        steps = []

        def advance(z, t):
            steps.append(t)
            return z.copy(), t + 1.0

        traj = Trajectory.of(advance, np.array([bad, 0.0, 0.0]), 0.0, 3)
        assert traj.diverged and len(traj) == 0 and steps == []
        assert traj.z.shape == (0, 3) and traj.S.shape == (0,)
        # the clock is held to the same limit as the row beside it
        traj = Trajectory.of(advance, np.zeros(3), bad, 3)
        assert traj.diverged and len(traj) == 0 and steps == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2e300])
    def test_of_truncates_before_a_clock_past_the_limit(self, bad):
        traj = Trajectory.of(lambda z, t: (z.copy(), t + bad), np.ones(3), 0.0, 3)
        assert traj.diverged
        np.testing.assert_array_equal(traj.t, [0.0])
        np.testing.assert_array_equal(traj.z, [[1.0] * 3])


class TestReferenceIntegrate:
    def test_free_particle_exact(self):
        def ham(x, p, s, t):
            return Partials(0.5 * float(p @ p), np.zeros_like(x), p, 0.0, 0.0)

        z0, t0 = state_of([0.0, 1.0], [0.5, -0.25], t=0.0)
        traj = reference_integrate(ham, "std1", z0, t0, 1e-3, 1000)
        assert not traj.diverged
        x0, p0, _ = parts(z0)
        np.testing.assert_allclose(traj.X[-1], x0 + p0 * 1.0, atol=1e-10)
        np.testing.assert_allclose(traj.P[-1], p0, atol=1e-12)

    def test_harmonic_energy_drift(self):
        ham = quadratic_hamiltonian()
        n = int(round(10 * 2 * math.pi / 1e-2))
        traj = reference_integrate(ham, "std1", *state_of([1.0], [0.0], t=0.0), 1e-2, n)
        h = [ham(*row).value for row in zip(traj.X, traj.P, traj.S, traj.t)]
        assert max(abs(v - h[0]) for v in h) < 1e-8

    def test_self_convergence_fourth_order(self):
        obj = make_random_quadratic(2, 2, 0.2, 1.5)
        ham = contact_hamiltonian(obj, ContactParams(*constant_damping(0.1)))
        z0 = np.array([1.0, -0.5, 0.2, 0.1, 0.0])
        ref = reference_integrate(ham, "std1", z0, 0.0, 1e-3, 2000).z[-1]
        errs = []
        for dt in (0.1, 0.05, 0.025):
            end = reference_integrate(ham, "std1", z0, 0.0, dt, int(round(2.0 / dt))).z[-1]
            errs.append(float(np.max(np.abs(end - ref))))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for o in orders:
            assert 3.8 <= o <= 4.2

    @pytest.mark.parametrize("coords", ["std1", "std2"])
    @pytest.mark.parametrize("which", ["crgd", "anchored"])
    def test_matches_rk4_over_public_field(self, coords, which):
        # the flat-vector stages must reproduce, bit for bit, RK4 stepped by
        # hand over the public field
        if which == "crgd":
            ham = contact_hamiltonian(
                make_random_quadratic(3, 3, 0.2, 1.5),
                ContactParams(*nag_like_damping(0.3), m=1.2, c=0.8),
            )
        else:
            ham = anchored_hamiltonian(np.array([0.3, -1.1, 0.4]), np.array([0.8, 0.2, -0.5]))

        def f(z, t):
            return contact_field(ham, coords, z, t)

        z, t = next(random_states(40, 1, 3))
        dt = 0.01
        traj = reference_integrate(ham, coords, z, t, dt, 50)
        assert len(traj) == 51 and not traj.diverged
        for row, row_t in zip(traj.z[1:], traj.t[1:]):
            k1 = f(z, t)
            k2 = f(z + 0.5 * dt * k1, t + 0.5 * dt)
            k3 = f(z + 0.5 * dt * k2, t + 0.5 * dt)
            k4 = f(z + dt * k3, t + dt)
            z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t = t + dt
            np.testing.assert_array_equal(row, z)
            assert row_t == t

    def test_divergence_flag_truncates(self):
        # cubic feedback blows up fast from a large start
        def ham(x, p, s, t):
            return Partials(0.0, -(x**3), p**3, 0.0, 0.0)

        traj = reference_integrate(ham, "std1", *state_of([5.0], [5.0], t=0.0), 0.5, 50)
        assert traj.diverged
        assert len(traj) < 51
        assert np.all(np.abs(traj.z) <= DIVERGENCE_LIMIT)

    def test_argument_validation(self):
        ham = quadratic_hamiltonian()
        z0, t0 = state_of([1.0], [0.0])
        with pytest.raises(ValueError):
            reference_integrate(ham, "std3", z0, t0, 0.1, 10)
        with pytest.raises(ValueError):
            reference_integrate(ham, "std1", z0, t0, -0.1, 10)
        with pytest.raises(ValueError):
            reference_integrate(ham, "std1", z0, t0, 0.1, 0)

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
    def test_non_finite_step_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            reference_integrate(quadratic_hamiltonian(), "std1", *state_of([1.0], [0.0]), dt, 10)


class TestOneEvaluationPerPoint:
    @pytest.mark.parametrize("form", ["std1", "std2"])
    def test_each_reader_calls_h_once_per_point(self, form):
        points = []
        quadratic = quadratic_hamiltonian()

        def ham(*point):
            points.append(point)
            return quadratic(*point)

        n = 7
        traj = reference_integrate(ham, form, *state_of([1.0, -0.5], [0.3, 0.2], t=0.0), 0.01, n)
        assert len(points) == 4 * n  # one call per RK4 stage
        points.clear()
        contact_field(ham, form, row_of([1.0], [0.3]), 1.0)
        assert len(points) == 1
        points.clear()
        dissipation_residual(ham, traj)
        assert len(points) == len(traj) == n + 1


class TestDissipation:
    def test_conserved_when_s_and_t_independent(self):
        ham = quadratic_hamiltonian()
        traj = reference_integrate(ham, "std1", *state_of([1.0], [0.3], t=0.0), 1e-3, 500)
        assert dissipation_residual(ham, traj) < 1e-6

    def test_pure_s_hamiltonian_decays_exponentially(self):
        c = 0.7

        def ham(x, p, s, t):
            return Partials(c * s, np.zeros_like(x), np.zeros_like(p), c, 0.0)

        traj = reference_integrate(ham, "std1", *state_of([0.0], [0.0], s=2.0, t=0.0), 1e-3, 1000)
        h = ham(traj.X, traj.P, traj.S, traj.t).value
        expected = h[0] * np.exp(-c * np.arange(len(traj)) * 1e-3)
        np.testing.assert_allclose(h, expected, rtol=1e-6)

    def test_short_trajectory_rejected(self):
        ham = quadratic_hamiltonian()
        traj = reference_integrate(ham, "std1", *state_of([1.0], [0.0], t=0.0), 0.1, 1)
        with pytest.raises(ValueError):
            dissipation_residual(ham, traj)

    def test_unfinished_run_gives_inf(self):
        # a diverged run's finite prefix certifies nothing, however short
        ham = quadratic_hamiltonian()
        for n in (1, 20):
            traj = reference_integrate(ham, "std1", *state_of([1.0], [0.0], t=0.0), 0.1, n)
            assert dissipation_residual(ham, Trajectory(traj.t, traj.z, diverged=True)) == math.inf


class TestConformalFactor:
    def test_identity_map(self):
        # the complex step reads the identity's Jacobian exactly
        for z0, t0 in random_states(30, 5, 3):
            lam, res = conformal_factor(lambda z, t: (z, t), "std1", z0, t0)
            assert lam == 1.0 and res == 0.0

    def test_degenerate_map_reported(self):
        # a map that crushes the form, or computes NaN, fails its
        # certificate with an infinite residual
        target = row_of([0.0, 0.0], [0.0, 0.0])
        z0, t0 = next(random_states(31, 1, 2))
        lam, res = conformal_factor(lambda z, t: (target, t), "std1", z0, t0)
        assert lam == 0.0 and res == math.inf
        lam, res = conformal_factor(lambda z, t: (np.full_like(z, np.nan), t), "std1", z0, t0)
        assert math.isnan(lam) and res == math.inf

    def test_a_map_that_writes_into_its_row_is_refused(self):
        # every row a map is given, the start and each shifted copy, is read-only
        def scaling_in_place(z, t):
            z *= 2.0
            return z, t

        z0, t0 = next(random_states(32, 1, 2))
        with pytest.raises(ValueError, match="read-only"):
            conformal_factor(scaling_in_place, "std1", z0, t0)

    @pytest.mark.parametrize("filters", ["default", "error"])
    @pytest.mark.parametrize("name", ["casts to float", "takes abs", "calls math"])
    def test_a_map_that_cannot_carry_a_complex_row_fails(self, name, filters):
        # each is the identity on a real row, but drops or refuses the
        # imaginary part of a complex one: a cast (ComplexWarning), abs
        # (silently; its Jacobian reads 0) or a math function (TypeError)
        maps = {
            "casts to float": lambda z, t: (np.asarray(z, dtype=float).copy(), t),
            "takes abs": lambda z, t: (np.copysign(np.abs(z), z.real), t),
            "calls math": lambda z, t: (z * math.sqrt(1.0 + 0.0 * z[0].item()), t),
        }
        z0, t0 = next(random_states(34, 1, 2))
        np.testing.assert_array_equal(maps[name](z0, t0)[0], z0)
        with warnings.catch_warnings():
            warnings.simplefilter(filters)
            lam, res = conformal_factor(maps[name], "std1", z0, t0)
        assert res == math.inf and (lam == 0.0 if name == "takes abs" else math.isnan(lam))
