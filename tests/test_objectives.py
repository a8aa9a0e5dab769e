import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactopt.objectives import (
    OBJECTIVE_NAMES,
    Objective,
    camelback,
    check_gradient,
    diagonal_quadratic,
    draw_quadratic,
    get_objective,
    make_random_quadratic,
    quartic,
    rosenbrock,
)


class TestQuartic:
    def test_value_at_ones_is_weight_sum(self):
        obj = quartic(50)
        assert obj(np.ones(50)) == pytest.approx(1275.0, abs=1e-12)

    def test_origin_is_minimum(self):
        obj = quartic(50)
        assert obj(np.zeros(50)) == 0.0
        assert obj.known_min_value == 0.0

    def test_gradient_components(self):
        g = quartic(3).grad(np.ones(3))
        np.testing.assert_allclose(g, [4.0, 8.0, 12.0], rtol=0, atol=1e-14)

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            quartic(0)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
    def test_nonnegative_everywhere(self, xs):
        obj = quartic(len(xs))
        assert obj(np.array(xs)) >= 0.0


class TestCamelback:
    def test_global_minimum(self):
        obj = camelback()
        assert obj(np.zeros(2)) == 0.0
        np.testing.assert_array_equal(obj.grad(np.zeros(2)), np.zeros(2))

    def test_local_minimum_value(self):
        # hand evaluation at the left local minimizer
        obj = camelback()
        v = obj(np.array([-1.75, 0.87]))
        assert v == pytest.approx(0.29869850260416673, abs=1e-12)
        assert abs(v - 0.3) < 0.01

    def test_dim_is_two(self):
        assert camelback().dim == 2


class TestRosenbrock:
    def test_minimum_at_ones(self):
        obj = rosenbrock(100)
        assert obj(np.ones(100)) == 0.0

    def test_hand_value_dim2(self):
        # 100 (1 - 1.44)^2 + (1 + 1.2)^2
        obj = rosenbrock(2)
        assert obj(np.array([-1.2, 1.0])) == pytest.approx(24.2, abs=1e-12)

    def test_rejects_dim_below_two(self):
        with pytest.raises(ValueError):
            rosenbrock(1)

    def test_gradient_matches_differences(self):
        obj = rosenbrock(100)
        x = np.random.default_rng(5).uniform(-2, 2, 100)
        assert check_gradient(obj, x) < 1e-6


class TestRandomQuadratic:
    def test_eigenvalues_within_declared_range(self):
        obj = make_random_quadratic(1, 500, 1e-3, 1.0)
        eig = np.linalg.eigvalsh(obj.grad(np.eye(500)))
        assert eig.min() >= 1e-3 - 1e-9
        assert eig.max() <= 1.0 + 1e-9

    def test_zero_at_origin(self):
        obj = make_random_quadratic(9, 12, 0.5, 2.0)
        assert obj(np.zeros(12)) == 0.0

    def test_gradient_matches_differences(self):
        obj = make_random_quadratic(7, 3, 1e-3, 1.0)
        x = np.random.default_rng(0).standard_normal(3)
        assert check_gradient(obj, x) < 1e-7

    def test_seed_reproducibility(self):
        a = make_random_quadratic(3, 20, 0.1, 1.0)
        b = make_random_quadratic(3, 20, 0.1, 1.0)
        np.testing.assert_array_equal(a.grad(np.eye(20)), b.grad(np.eye(20)))

    def test_distinct_seeds_differ(self):
        a = make_random_quadratic(3, 20, 0.1, 1.0)
        b = make_random_quadratic(4, 20, 0.1, 1.0)
        assert not np.array_equal(a.grad(np.eye(20)), b.grad(np.eye(20)))

    def test_rejects_nonpositive_eigen_lo(self):
        with pytest.raises(ValueError):
            make_random_quadratic(1, 4, 0.0, 1.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_values_nonnegative(self, seed):
        obj = make_random_quadratic(seed, 5, 0.2, 1.5)
        x = np.random.default_rng(seed).standard_normal(5)
        assert obj(x) >= 0.0


class TestEigenbasisQuadratic:
    def test_draw_is_the_assembled_matrix(self):
        lam, rotate = draw_quadratic(3, 20, 0.1, 1.0)
        q = rotate(np.eye(20))
        np.testing.assert_allclose(q.T @ q, np.eye(20), rtol=0, atol=1e-12)
        a = make_random_quadratic(3, 20, 0.1, 1.0).grad(np.eye(20))
        np.testing.assert_allclose(q.T @ a @ q, np.diag(lam), rtol=0, atol=1e-12)

    def test_value_and_gradient_in_the_eigenbasis(self):
        lam, rotate = draw_quadratic(7, 6, 0.2, 1.5)
        full, diag = make_random_quadratic(7, 6, 0.2, 1.5), diagonal_quadratic(lam)
        x = np.random.default_rng(1).standard_normal((4, 6))
        y = rotate(x)
        np.testing.assert_allclose(diag.eval(y), full.eval(x), rtol=1e-13)
        np.testing.assert_allclose(diag.grad(y), rotate(full.grad(x)), rtol=0, atol=1e-13)
        assert diag.rows is None and check_gradient(diag, rotate(x[0])) < 1e-7

    def test_rotation_where_the_qr_blocks(self):
        # dim 200 is above LAPACK's crossover to the blocked QR; a row is
        # rotated exactly as it is alone, whatever is stacked with it
        n = 200
        lam, rotate = draw_quadratic(11, n, 0.1, 1.0)
        x = np.random.default_rng(2).standard_normal((5, n))
        x[3] = x[1]
        y = rotate(x)
        for row, alone in zip(y, x):
            np.testing.assert_array_equal(row, rotate(alone))
        np.testing.assert_array_equal(y[3], y[1])
        q = rotate(np.eye(n))
        np.testing.assert_allclose(q.T @ q, np.eye(n), rtol=0, atol=1e-12)
        a = make_random_quadratic(11, n, 0.1, 1.0).grad(np.eye(n))
        np.testing.assert_allclose((q * lam) @ q.T, a, rtol=0, atol=1e-12)

    def test_per_row_eigenvalues(self):
        lam = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        obj = diagonal_quadratic(lam)
        x = np.ones((3, 2))
        np.testing.assert_array_equal(obj.eval(x), [1.5, 3.5, 5.5])
        np.testing.assert_array_equal(obj.grad(x), lam)
        kept = obj.rows(np.array([True, False, True]))
        np.testing.assert_array_equal(kept.eval(x[:2]), [1.5, 5.5])


class TestCheckGradient:
    def test_quartic_small_error(self):
        assert check_gradient(quartic(3), np.ones(3), h=1e-5) < 1e-7

    def test_camelback_small_error(self):
        assert check_gradient(camelback(), np.array([0.3, -0.2]), h=1e-5) < 1e-7

    def test_linear_function_exact(self):
        c = np.array([2.0, -3.0, 0.5])
        obj = Objective(
            name="linear",
            dim=3,
            eval=lambda x: float(c @ x),
            grad=lambda x: c.copy(),
        )
        # exact for linear functions at any step; a large step keeps the
        # difference quotient free of round-off amplification
        x = np.array([0.4, 1.1, -2.2])
        assert check_gradient(obj, x, h=0.5) < 1e-12

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            check_gradient(quartic(2), np.ones(2), h=0.0)

    def test_nan_gradient_audits_as_nan(self):
        obj = Objective(
            name="nan",
            dim=3,
            eval=lambda x: float(x @ x),
            grad=lambda x: np.full(3, np.nan),
        )
        assert np.isnan(check_gradient(obj, np.ones(3)))

    def test_all_builtins_at_sampled_points(self):
        rng = np.random.default_rng(17)
        objs = [
            make_random_quadratic(5, 8, 0.1, 1.0),
            quartic(8),
            camelback(),
            rosenbrock(8),
        ]
        for obj in objs:
            for _ in range(100):
                x = rng.uniform(-2.0, 2.0, obj.dim)
                assert check_gradient(obj, x) < 1e-6


class TestGetObjective:
    def test_dispatch_by_name(self):
        for name in OBJECTIVE_NAMES:
            dim = 2 if name == "camelback" else 4
            obj = get_objective(name, dim=dim, seed=1)
            assert obj.dim == dim

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="quartic"):
            get_objective("bogus", dim=3, seed=1)

    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_camelback_rejects_other_dims(self, dim):
        with pytest.raises(ValueError, match="^camelback is two-dimensional; set dim = 2$"):
            get_objective("camelback", dim=dim)


class TestStacks:
    """eval and grad on a (T, n) stack equal the row-by-row calls."""

    @staticmethod
    def build(name, dim):
        if name == "quadratic":
            return make_random_quadratic(2, dim, 0.1, 3.0)
        return get_objective(name, dim=2 if name == "camelback" else dim)

    @given(
        st.sampled_from(OBJECTIVE_NAMES),
        st.integers(2, 7),
        st.integers(1, 9),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_stack_equals_rows(self, name, dim, T, seed):
        obj = self.build(name, dim)
        X = np.random.default_rng(seed).uniform(-3.0, 3.0, (T, obj.dim))
        values, grads = obj.eval(X), obj.grad(X)
        assert values.shape == (T,) and grads.shape == (T, obj.dim)
        row_values = np.array([obj.eval(x) for x in X])
        row_grads = np.array([obj.grad(x) for x in X])
        assert all(isinstance(obj.eval(x), float) for x in X)
        if name == "quadratic":
            # X @ A may round a stack differently from one row in the last bits
            scale = 1e-12 * (1.0 + np.abs(X).max()) ** 2
            np.testing.assert_allclose(values, row_values, rtol=1e-12, atol=scale)
            np.testing.assert_allclose(grads, row_grads, rtol=1e-12, atol=scale)
        else:
            np.testing.assert_array_equal(values, row_values)
            np.testing.assert_array_equal(grads, row_grads)
