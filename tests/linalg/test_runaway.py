"""The runaway current lambda_m (Theorem 1, Theorem 2)."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence, spsolve

from repro.linalg.runaway import (
    RunawayConvergenceError,
    rayleigh_quotient_bound,
    runaway_current,
    runaway_current_binary_search,
    runaway_current_eigen,
    runaway_current_shift_invert,
)
from repro.linalg.spd import cholesky_is_spd
from repro.linalg.stieltjes import random_stieltjes

from tests.linalg.runaway_oracle import dense_reduced_runaway


def _instance(n, seed, hot=0, cold=1, alpha=0.05):
    matrix = random_stieltjes(n, seed=seed)
    diag = np.zeros(n)
    diag[hot] = alpha
    diag[cold] = -alpha
    return matrix, diag


class TestEigenMethod:
    def test_analytic_two_by_two(self):
        # G = [[2,-1],[-1,2]], D = diag(a, 0): G - i a e1 e1' singular
        # when det = (2 - i a) * 2 - 1 = 0  =>  i = 1.5 / a.
        g = np.array([[2.0, -1.0], [-1.0, 2.0]])
        d = np.array([0.5, 0.0])
        result = runaway_current_eigen(g, d)
        assert result.value == pytest.approx(3.0)

    def test_singularity_at_lambda_m(self):
        g, d = _instance(8, seed=1)
        lam = runaway_current_eigen(g, d).value
        sign, logdet = np.linalg.slogdet(g - lam * np.diag(d))
        assert abs(sign * math.exp(logdet)) < 1e-6 * abs(np.linalg.det(g))

    def test_theorem1_dichotomy(self):
        g, d = _instance(8, seed=2)
        lam = runaway_current_eigen(g, d).value
        assert cholesky_is_spd(g - 0.999 * lam * np.diag(d))
        assert not cholesky_is_spd(g - 1.001 * lam * np.diag(d))

    def test_infinite_when_no_positive_entry(self):
        g = random_stieltjes(5, seed=3)
        d = np.zeros(5)
        d[0] = -0.1
        assert math.isinf(runaway_current_eigen(g, d).value)

    def test_zero_d_infinite(self):
        g = random_stieltjes(5, seed=3)
        assert math.isinf(runaway_current_eigen(g, np.zeros(5)).value)

    def test_sparse_matches_dense(self):
        g, d = _instance(12, seed=4)
        dense = runaway_current_eigen(g, d).value
        sparse = runaway_current_eigen(sp.csr_matrix(g), sp.diags(d)).value
        assert sparse == pytest.approx(dense, rel=1e-9)

    def test_d_as_full_matrix(self):
        g, d = _instance(6, seed=5)
        assert runaway_current_eigen(g, np.diag(d)).value == pytest.approx(
            runaway_current_eigen(g, d).value
        )

    def test_nondiagonal_d_rejected(self):
        g = random_stieltjes(3, seed=0)
        bad = np.array([[1.0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="diagonal"):
            runaway_current_eigen(g, bad)


class TestBinarySearch:
    def test_matches_eigen(self):
        g, d = _instance(10, seed=6)
        eigen = runaway_current_eigen(g, d).value
        search = runaway_current_binary_search(g, d, tolerance=1e-10)
        assert search.value == pytest.approx(eigen, rel=1e-7)

    def test_bracket_contains_value(self):
        g, d = _instance(7, seed=7)
        result = runaway_current_binary_search(g, d)
        lo, hi = result.bracket
        assert lo <= result.value <= hi

    def test_iterations_counted(self):
        g, d = _instance(7, seed=7)
        assert runaway_current_binary_search(g, d).iterations > 0

    def test_infinite_when_d_nonpositive(self):
        g = random_stieltjes(4, seed=8)
        result = runaway_current_binary_search(g, -np.ones(4))
        assert math.isinf(result.value)

    def test_rejects_indefinite_g(self):
        with pytest.raises(ValueError, match="positive definite"):
            runaway_current_binary_search(-np.eye(3), np.ones(3))


class TestDispatcher:
    def test_default_is_eigen(self):
        g, d = _instance(5, seed=9)
        assert runaway_current(g, d).method == "eigen"

    def test_binary_search_dispatch(self):
        g, d = _instance(5, seed=9)
        assert runaway_current(g, d, method="binary-search").method == "binary-search"

    def test_unknown_method(self):
        g, d = _instance(5, seed=9)
        with pytest.raises(ValueError, match="unknown method"):
            runaway_current(g, d, method="newton")


class TestRayleighBound:
    def test_upper_bounds_lambda_m(self):
        g, d = _instance(9, seed=10)
        lam = runaway_current_eigen(g, d).value
        x = np.zeros(9)
        x[0] = 1.0  # hot-node unit vector has x'Dx > 0
        assert rayleigh_quotient_bound(g, d, x) >= lam - 1e-9

    def test_rejects_nonpositive_denominator(self):
        g, d = _instance(9, seed=10)
        x = np.zeros(9)
        x[1] = 1.0  # cold node: x'Dx < 0
        with pytest.raises(ValueError):
            rayleigh_quotient_bound(g, d, x)


class TestRunawayProperties:
    @given(
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=0, max_value=10**6),
        st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_dichotomy_and_agreement(self, n, seed, alpha):
        g, d = _instance(n, seed=seed, alpha=alpha)
        lam = runaway_current_eigen(g, d).value
        assert lam > 0.0
        assert cholesky_is_spd(g - 0.99 * lam * np.diag(d))
        assert not cholesky_is_spd(g - 1.01 * lam * np.diag(d))
        search = runaway_current_binary_search(g, d, tolerance=1e-9)
        assert search.value == pytest.approx(lam, rel=1e-5)


class TestShiftInvert:
    """Warm-started inverse iteration on the pencil (G, D)."""

    @pytest.fixture(scope="class")
    def pencil(self):
        g, d = _instance(16, seed=11, hot=4, cold=9, alpha=0.2)
        exact, vector = runaway_current_eigen(g, d, return_vector=True)
        return g, d, exact.value, vector

    @staticmethod
    def _solve(g, d):
        """The `solve(current, rhs)` oracle: a Cholesky solve that, like
        the real solve engine, raises on an indefinite shifted system."""
        import scipy.linalg

        def solve(current, rhs):
            return scipy.linalg.cho_solve(
                scipy.linalg.cho_factor(g - current * np.diag(d)), rhs
            )

        return solve

    def test_converges_from_perturbed_seed(self, pencil):
        g, d, exact, vector = pencil
        rng = np.random.default_rng(0)
        guess = vector + 0.05 * rng.standard_normal(vector.shape)
        result, out = runaway_current_shift_invert(
            self._solve(g, d), g, d, guess=guess
        )
        assert result is not None
        assert result.method == "shift-invert"
        assert result.iterations > 0
        assert result.value == pytest.approx(exact, rel=1e-6)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    def test_value_is_certified_upper_bound(self, pencil):
        """The returned Rayleigh quotient can never undershoot lambda_m
        (Theorem 1's variational characterization)."""
        g, d, exact, vector = pencil
        rng = np.random.default_rng(1)
        guess = vector + 0.1 * rng.standard_normal(vector.shape)
        result, _ = runaway_current_shift_invert(
            self._solve(g, d), g, d, guess=guess
        )
        assert result.value >= exact * (1.0 - 1e-9)

    def test_explicit_shift_hint(self, pencil):
        """The incremental engine passes 0.6x the previous round's
        lambda_m as the starting shift."""
        g, d, exact, vector = pencil
        result, _ = runaway_current_shift_invert(
            self._solve(g, d), g, d, guess=vector, shift=0.6 * exact
        )
        assert result is not None
        assert result.value == pytest.approx(exact, rel=1e-6)

    def test_overshooting_shift_recovers(self, pencil):
        """A shift beyond lambda_m makes the shifted system indefinite;
        the geometric backoff must recover and still converge."""
        g, d, exact, vector = pencil
        result, _ = runaway_current_shift_invert(
            self._solve(g, d), g, d, guess=vector, shift=1.5 * exact
        )
        assert result is not None
        assert result.value == pytest.approx(exact, rel=1e-6)

    def test_budget_exhaustion_returns_none_pair(self, pencil):
        g, d, exact, vector = pencil
        rng = np.random.default_rng(2)
        guess = vector + 0.05 * rng.standard_normal(vector.shape)
        result, out = runaway_current_shift_invert(
            self._solve(g, d), g, d, guess=guess, max_iterations=1
        )
        assert result is None and out is None

    def test_degenerate_seed_rejected(self, pencil):
        g, d, _, _ = pencil
        result, out = runaway_current_shift_invert(
            self._solve(g, d), g, d, guess=np.zeros(16)
        )
        assert result is None and out is None
        # x' D x <= 0: the hot entry is zeroed, only the cold one acts.
        bad = np.zeros(16)
        bad[9] = 1.0
        result, out = runaway_current_shift_invert(
            self._solve(g, d), g, d, guess=bad
        )
        assert result is None and out is None

    def test_no_positive_d_is_infinite(self, pencil):
        g, _, _, _ = pencil
        result, out = runaway_current_shift_invert(
            self._solve(g, np.zeros(16)), g, np.zeros(16),
            guess=np.ones(16),
        )
        assert math.isinf(result.value)
        assert out is None


def _mixed_pencil(n, seed, density):
    """A random Stieltjes ``G`` with ~n/3 hot/cold Peltier pairs."""
    rng = np.random.default_rng(seed)
    g = random_stieltjes(n, density=density, seed=seed)
    pairs = max(1, n // 3)
    nodes = rng.choice(n, size=2 * pairs, replace=False)
    d = np.zeros(n)
    d[nodes[:pairs]] = rng.uniform(0.02, 0.4, size=pairs)
    d[nodes[pairs:]] = -rng.uniform(0.02, 0.4, size=pairs)
    return g, d


def _checkerboard_model():
    """The 32x32 die, uniform 60 W, checkerboard TEC deployment (512
    TECs) — the closed-loop control instance."""
    from repro.core.problem import CoolingSystemProblem
    from repro.thermal.chiplet import grown_default_stack
    from repro.thermal.geometry import TileGrid

    grid = TileGrid(32, 32)
    problem = CoolingSystemProblem(
        grid, np.full(grid.num_tiles, 60.0 / grid.num_tiles),
        max_temperature_c=1000.0,
        stack=grown_default_stack(grid.width, grid.height),
    )
    return problem.model(
        [tile for tile in range(grid.num_tiles) if (tile // 32 + tile % 32) % 2 == 0]
    )


def _two_chiplet_model():
    from repro.thermal.chiplet import demo_two_chiplet_layout
    from repro.thermal.model import CompositeThermalModel

    layout = demo_two_chiplet_layout(rows=4, cols=4, gap=2, power_w=8.0)
    return CompositeThermalModel(layout, tec_tiles=(0, 5, 10, 17, 22, 27))


class TestLanczosKernel:
    """The sparse Lanczos kernel against the dense reduced oracle."""

    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0.0, max_value=1.0),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_oracle(self, n, seed, density, sparse):
        g, d = _mixed_pencil(n, seed, density)
        if sparse:
            g = sp.csr_matrix(g)
        result = runaway_current_eigen(g, d)
        assert result.value == pytest.approx(dense_reduced_runaway(g, d), rel=1e-10)
        low, high = result.bracket
        assert low <= high == result.value

    @pytest.fixture(scope="class", params=["checkerboard-32x32", "two-chiplet"])
    def model(self, request):
        if request.param == "two-chiplet":
            return _two_chiplet_model()
        return _checkerboard_model()

    def test_model_matches_dense_oracle(self, model):
        g, d = model.system.g_matrix, model.system.d_diagonal
        oracle, oracle_vector = dense_reduced_runaway(g, d, return_vector=True)
        result, vector = model.runaway_current(return_vector=True)
        assert result.value == pytest.approx(oracle, rel=1e-10)
        # Same kernel with its own sparse LU instead of the session's.
        own = runaway_current_eigen(g, d).value
        assert own == pytest.approx(oracle, rel=1e-10)
        assert np.linalg.norm(vector - oracle_vector) < 1e-6

    def test_theorem1_dichotomy(self, model):
        g, d = model.system.g_matrix, model.system.d_diagonal
        lam = model.runaway_current().value
        assert cholesky_is_spd(g - 0.999 * lam * sp.diags(d))
        assert not cholesky_is_spd(g - 1.001 * lam * sp.diags(d))

    def test_vector_is_a_runaway_eigenvector(self, model):
        g, d = model.system.g_matrix, model.system.d_diagonal
        result, vector = model.runaway_current(return_vector=True)
        assert np.linalg.norm(vector) == pytest.approx(1.0)
        gv = g @ vector
        residual = gv - result.value * (d * vector)
        assert np.linalg.norm(residual) / np.linalg.norm(gv) <= 1e-8

    def test_value_is_the_certified_rayleigh_bound(self, model):
        g, d = model.system.g_matrix, model.system.d_diagonal
        result, vector = model.runaway_current(return_vector=True)
        assert rayleigh_quotient_bound(g, d, vector) == pytest.approx(
            result.value, rel=1e-12
        )
        low, high = result.bracket
        assert high == result.value
        assert 0.0 <= result.value - low <= 1e-8 * result.value

    def test_no_convergence_raises(self, monkeypatch):
        """ARPACK giving up is a typed error, not a silent estimate."""

        def stalled_eigsh(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr("repro.linalg.runaway.eigsh", stalled_eigsh)
        g, d = _instance(30, seed=12)
        with pytest.raises(RunawayConvergenceError):
            runaway_current_eigen(sp.csc_matrix(g), d)

    def test_solve_is_the_callers(self):
        g, d = _instance(30, seed=12)
        g = sp.csc_matrix(g)
        calls = []

        def solve(rhs):
            calls.append(rhs.shape)
            return spsolve(g, rhs)

        result = runaway_current_eigen(g, d, solve=solve)
        assert result.value == pytest.approx(dense_reduced_runaway(g, d), rel=1e-10)
        assert calls and all(shape == (30,) for shape in calls)
        assert result.iterations == len(calls) - 1
