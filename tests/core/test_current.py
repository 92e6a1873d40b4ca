"""Problem 2: the convex current-setting subroutine."""

import numpy as np
import pytest

from repro.core.current import (
    CURRENT_METHODS,
    minimize_peak_temperature,
    polish_current,
)


class TestGoldenSection:
    @pytest.fixture(scope="class")
    def optimum(self, small_deployed):
        return minimize_peak_temperature(small_deployed, record_history=True)

    def test_interior_optimum(self, optimum):
        assert 0.0 < optimum.current < optimum.lambda_m

    def test_beats_endpoints(self, small_deployed, optimum):
        peak_zero = small_deployed.solve(0.0).peak_silicon_c
        assert optimum.peak_c <= peak_zero + 1e-9

    def test_first_order_optimality(self, small_deployed, optimum):
        """The optimum is a local (hence global, convex) minimum."""
        delta = 0.05
        left = small_deployed.solve(max(optimum.current - delta, 0.0)).peak_silicon_c
        right = small_deployed.solve(optimum.current + delta).peak_silicon_c
        assert optimum.peak_c <= left + 1e-6
        assert optimum.peak_c <= right + 1e-6

    def test_beats_dense_grid(self, small_deployed, optimum):
        grid = np.linspace(0.0, 0.9 * optimum.lambda_m, 120)
        best = min(small_deployed.solve(i).peak_silicon_c for i in grid)
        assert optimum.peak_c <= best + 0.02

    def test_history_recorded(self, optimum):
        assert optimum.history
        assert all(len(pair) == 2 for pair in optimum.history)

    def test_converged_flag(self, optimum):
        assert optimum.converged
        assert optimum.method == "golden"

    def test_evaluation_budget_reasonable(self, optimum):
        assert optimum.evaluations < 120


class TestGradientDescent:
    def test_agrees_with_golden(self, small_deployed):
        golden = minimize_peak_temperature(small_deployed, method="golden")
        gradient = minimize_peak_temperature(small_deployed, method="gradient")
        assert gradient.peak_c == pytest.approx(golden.peak_c, abs=0.05)

    def test_method_label(self, small_deployed):
        result = minimize_peak_temperature(small_deployed, method="gradient")
        assert result.method == "gradient"


class TestEdgeCases:
    def test_no_tec_model_trivial(self, small_model):
        result = minimize_peak_temperature(small_model)
        assert result.current == 0.0
        assert np.isinf(result.lambda_m)
        assert result.converged

    def test_unknown_method(self, small_deployed):
        with pytest.raises(ValueError, match="unknown method"):
            minimize_peak_temperature(small_deployed, method="simplex")

    def test_brent_retired(self, small_deployed):
        assert CURRENT_METHODS == ("golden", "gradient", "newton")
        with pytest.raises(ValueError, match="'golden', 'gradient', 'newton'"):
            minimize_peak_temperature(small_deployed, method="brent")

    def test_bounds_only_seed_newton(self, small_deployed):
        with pytest.raises(ValueError, match="newton"):
            minimize_peak_temperature(small_deployed, bounds=(1.0, 2.0))

    def test_tolerance_validated(self, small_deployed):
        with pytest.raises(ValueError):
            minimize_peak_temperature(small_deployed, tolerance=0.0)

    def test_safety_fraction_validated(self, small_deployed):
        with pytest.raises(ValueError):
            minimize_peak_temperature(small_deployed, safety_fraction=1.0)

    def test_result_peak_matches_model(self, small_deployed):
        result = minimize_peak_temperature(small_deployed)
        assert small_deployed.solve(result.current).peak_silicon_c == pytest.approx(
            result.peak_c
        )


class TestGradientExactness:
    def test_analytic_gradient_matches_finite_difference(self, small_deployed):
        from repro.core.current import _PeakObjective

        objective = _PeakObjective(small_deployed)
        current = 3.0
        grad, _ = objective.gradient(current)
        h = 1e-5
        fd = (objective(current + h) - objective(current - h)) / (2.0 * h)
        assert grad == pytest.approx(fd, rel=1e-4, abs=1e-6)


class TestConvergedFlag:
    def test_gradient_converged_on_real_model(self, small_deployed):
        result = minimize_peak_temperature(small_deployed, method="gradient")
        assert result.converged

    def test_golden_converged_on_real_model(self, small_deployed):
        result = minimize_peak_temperature(small_deployed, method="golden")
        assert result.converged

    def test_line_search_exhaustion_far_from_optimum_not_converged(self):
        """A misleading gradient must not be reported as convergence.

        The objective decreases monotonically (f(i) = i going down as i
        shrinks... here f(i) = i with claimed gradient -1), so Armijo
        backtracking in the claimed descent direction (+1) always fails
        while the true improvement lies the other way.
        """
        from repro.core.current import _gradient_descent

        class Misleading:
            def __call__(self, current):
                return float(current)

            def gradient(self, current):
                return -1.0, None  # claims descent towards larger i

        current, value, converged = _gradient_descent(
            Misleading(), upper=10.0, tolerance=1e-4, max_iterations=50
        )
        assert not converged

    def test_boundary_minimum_still_converged(self):
        """Exhaustion at a genuine (projected) stationary point stays
        converged: the minimum of f(i) = (i - 20)^2 on [0, 10] is the
        boundary i = 10; no tolerance-sized move improves."""
        from repro.core.current import _gradient_descent

        class Boundary:
            def __call__(self, current):
                return (float(current) - 20.0) ** 2

            def gradient(self, current):
                return 2.0 * (float(current) - 20.0), None

        current, value, converged = _gradient_descent(
            Boundary(), upper=10.0, tolerance=1e-4, max_iterations=200
        )
        assert current == pytest.approx(10.0, abs=1e-3)
        assert converged


class TestAttachedStats:
    def test_stats_delta_attached(self, small_grid, small_power):
        from repro.core.problem import CoolingSystemProblem

        problem = CoolingSystemProblem(small_grid, small_power, name="stats")
        model = problem.model((5, 6, 9, 10))
        result = minimize_peak_temperature(model)
        assert result.stats is not None
        assert result.stats.solves == result.evaluations
        assert result.stats.solves > 0

    def test_trivial_model_stats(self, small_grid, small_power):
        from repro.thermal.model import PackageThermalModel

        model = PackageThermalModel(small_grid, small_power)
        result = minimize_peak_temperature(model)
        assert result.stats is not None
        assert result.stats.solves == 1


class TestNewtonMethod:
    """Safeguarded secant/bisection on the exact slope (warm rounds)."""

    @pytest.fixture(scope="class")
    def golden(self, small_deployed):
        return minimize_peak_temperature(
            small_deployed, method="golden", tolerance=1e-6)

    def test_agrees_with_golden(self, small_deployed, golden):
        newton = minimize_peak_temperature(
            small_deployed, method="newton", tolerance=1e-6)
        assert newton.method == "newton"
        assert newton.converged
        assert newton.current == pytest.approx(golden.current, abs=1e-5)
        assert newton.peak_c == pytest.approx(golden.peak_c, abs=1e-9)

    def test_warm_bounds_cut_evaluations(self, small_deployed, golden):
        cold = minimize_peak_temperature(
            small_deployed, method="newton", tolerance=1e-6)
        half = 0.25 * golden.current
        warm = minimize_peak_temperature(
            small_deployed, method="newton", tolerance=1e-6,
            lambda_m=golden.lambda_m,
            bounds=(golden.current - half, golden.current + half))
        assert warm.current == pytest.approx(golden.current, abs=1e-5)
        assert warm.evaluations <= cold.evaluations

    def test_drifted_bounds_still_converge(self, small_deployed, golden):
        # The warm bracket no longer contains the minimizer: the
        # slope-sign doubling must walk out and still find it.
        off = minimize_peak_temperature(
            small_deployed, method="newton", tolerance=1e-6,
            bounds=(2.0 * golden.current, 2.5 * golden.current))
        assert off.current == pytest.approx(golden.current, abs=1e-4)


class TestPolishCurrent:
    """The deterministic fixed-point refinement of a raw argmin."""

    @pytest.fixture(scope="class")
    def setting(self, small_deployed):
        optimum = minimize_peak_temperature(
            small_deployed, method="golden", tolerance=1e-4)
        return small_deployed, optimum

    def test_never_worse_than_input(self, setting):
        model, optimum = setting
        upper = 0.98 * optimum.lambda_m
        polished, evaluations = polish_current(
            model, optimum.current, upper=upper)
        assert evaluations > 0
        raw_peak = model.solve(optimum.current).peak_silicon_c
        polished_peak = model.solve(polished).peak_silicon_c
        assert polished_peak <= raw_peak + 1e-12

    def test_fixed_point_is_start_independent(self, setting):
        # Raw argmins scattered across the solver-noise plateau
        # (~1e-5 wide here) must polish to one fixed point — this is
        # what lets GreedyDeploy's warm optima be compared with the
        # cold oracle's at 1e-6 A.
        model, optimum = setting
        upper = 0.98 * optimum.lambda_m
        a, _ = polish_current(model, optimum.current + 1e-5, upper=upper)
        b, _ = polish_current(model, optimum.current - 1e-5, upper=upper)
        assert a == pytest.approx(b, abs=1e-7)

    def test_idempotent(self, setting):
        model, optimum = setting
        upper = 0.98 * optimum.lambda_m
        once, _ = polish_current(model, optimum.current, upper=upper)
        twice, _ = polish_current(model, once, upper=upper)
        assert twice == pytest.approx(once, abs=1e-6)

    def test_far_start_returns_input_unchanged(self, setting):
        # The 2h vertex guard: a start far outside the fit window is
        # not dragged anywhere — the input comes back untouched (the
        # caller's search result stands).
        model, optimum = setting
        upper = 0.98 * optimum.lambda_m
        start = optimum.current * 1.2
        polished, evaluations = polish_current(model, start, upper=upper)
        assert polished == start
        assert evaluations == 3

    def test_upper_below_minimizer_returns_input(self, setting):
        model, optimum = setting
        polished, _ = polish_current(
            model, optimum.current, upper=optimum.current * 0.5)
        assert polished == optimum.current
