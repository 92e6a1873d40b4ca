"""Steady-state solver: correctness, caching, backends, singular handling."""

import numpy as np
import pytest

from repro.thermal.assembly import assemble
from repro.thermal.network import NodeRole, ThermalNetwork
from repro.thermal.solve import (
    AUTO_SUPPORT_FLOOR,
    SingularSystemError,
    SteadyStateSolver,
    select_backend,
)
from repro.utils import celsius_to_kelvin


@pytest.fixture()
def tec_system():
    net = ThermalNetwork()
    sil = net.add_node("sil", NodeRole.SILICON)
    snk = net.add_node("snk", NodeRole.SINK)
    cold = net.add_node("cold", NodeRole.TEC_COLD)
    hot = net.add_node("hot", NodeRole.TEC_HOT)
    net.add_conductance(sil, cold, 0.3)
    net.add_conductance(cold, hot, 0.02)
    net.add_conductance(hot, snk, 0.3)
    net.add_conductance(sil, snk, 0.01)
    net.add_ground_conductance(snk, 1.0)
    net.add_source(sil, 0.5)
    net.add_joule(cold, 1.25e-3)
    net.add_joule(hot, 1.25e-3)
    net.set_peltier(hot, +2e-4)
    net.set_peltier(cold, -2e-4)
    return assemble(net, 45.0)


class TestSolve:
    def test_zero_current_matches_dense_solve(self, tec_system):
        solver = SteadyStateSolver(tec_system)
        theta = solver.solve(0.0)
        expected = np.linalg.solve(tec_system.g_matrix.toarray(), tec_system.p_base)
        assert np.allclose(theta, expected)

    def test_all_temperatures_above_ambient_without_cooling(self, tec_system):
        theta = SteadyStateSolver(tec_system).solve(0.0)
        assert np.all(theta >= celsius_to_kelvin(45.0) - 1e-9)

    def test_current_changes_solution(self, tec_system):
        solver = SteadyStateSolver(tec_system)
        assert not np.allclose(solver.solve(0.0), solver.solve(5.0))

    def test_cache_reuses_factorization(self, tec_system):
        solver = SteadyStateSolver(tec_system, cache_size=2)
        solver.solve(1.0)
        lu_first = solver._lu_cache[1.0]
        solver.solve(1.0)
        assert solver._lu_cache[1.0] is lu_first

    def test_cache_eviction(self, tec_system):
        solver = SteadyStateSolver(tec_system, cache_size=2)
        solver.solve(1.0)
        solver.solve(2.0)
        solver.solve(3.0)
        assert 1.0 not in solver._lu_cache
        assert {2.0, 3.0} <= set(solver._lu_cache)

    def test_cache_size_validation(self, tec_system):
        with pytest.raises(ValueError):
            SteadyStateSolver(tec_system, cache_size=0)

    def test_check_definite_raises_beyond_runaway(self, tec_system):
        from repro.linalg.runaway import runaway_current

        solver = SteadyStateSolver(tec_system)
        lam = runaway_current(tec_system.g_matrix, tec_system.d_diagonal).value
        with pytest.raises(SingularSystemError):
            solver.solve(1.5 * lam, check_definite=True)

    def test_below_runaway_passes_check(self, tec_system):
        from repro.linalg.runaway import runaway_current

        solver = SteadyStateSolver(tec_system)
        lam = runaway_current(tec_system.g_matrix, tec_system.d_diagonal).value
        theta = solver.solve(0.5 * lam, check_definite=True)
        assert np.all(np.isfinite(theta))


class TestRhsAndInfluence:
    def test_solve_rhs_shape_check(self, tec_system):
        solver = SteadyStateSolver(tec_system)
        with pytest.raises(ValueError, match="rhs"):
            solver.solve_rhs(0.0, np.zeros(3))

    def test_influence_rows_match_inverse(self, tec_system):
        solver = SteadyStateSolver(tec_system)
        rows = solver.influence_rows(0.0, [0, 2])
        inverse = np.linalg.inv(tec_system.g_matrix.toarray())
        assert np.allclose(rows[0], inverse[0])
        assert np.allclose(rows[1], inverse[2])

    def test_influence_rows_nonnegative(self, tec_system):
        """Lemma 3 seen through the solver: H entries >= 0."""
        solver = SteadyStateSolver(tec_system)
        rows = solver.influence_rows(0.0, range(tec_system.num_nodes))
        assert np.all(rows >= -1e-12)


class TestLruPolicy:
    def test_recently_used_entry_survives_eviction(self, tec_system):
        """True LRU: re-touching a current refreshes its recency, so the
        alternating access pattern of the section search keeps hitting."""
        solver = SteadyStateSolver(tec_system, cache_size=2)
        rhs = tec_system.p_base
        solver.solve_rhs(1.0, rhs)
        solver.solve_rhs(2.0, rhs)
        solver.solve_rhs(1.0, rhs)  # refresh 1.0
        solver.solve_rhs(3.0, rhs)  # must evict 2.0, not 1.0
        assert 1.0 in solver._lu_cache
        assert 2.0 not in solver._lu_cache
        assert 3.0 in solver._lu_cache

    def test_eviction_counter(self, tec_system):
        solver = SteadyStateSolver(tec_system, cache_size=2)
        rhs = tec_system.p_base
        for current in (1.0, 2.0, 3.0, 4.0):
            solver.solve_rhs(current, rhs)
        assert solver.stats.evictions == 2

    def test_hit_and_miss_counters(self, tec_system):
        solver = SteadyStateSolver(tec_system, cache_size=4)
        rhs = tec_system.p_base
        solver.solve_rhs(1.0, rhs)
        solver.solve_rhs(2.0, rhs)
        solver.solve_rhs(1.0, rhs)
        assert solver.stats.cache_misses == 2
        assert solver.stats.cache_hits == 1
        assert solver.stats.cache_hit_rate == pytest.approx(1.0 / 3.0)

    def test_solution_cache_hit(self, tec_system):
        solver = SteadyStateSolver(tec_system, cache_size=4)
        first = solver.solve(2.0)
        second = solver.solve(2.0)
        assert solver.stats.solution_hits == 1
        assert np.array_equal(first, second)
        # Returned arrays are copies: mutating one must not poison the cache.
        second[:] = 0.0
        assert np.array_equal(solver.solve(2.0), first)


class TestReuseMode:
    def test_matches_direct_mode(self, tec_system):
        direct = SteadyStateSolver(tec_system, mode="direct")
        reuse = SteadyStateSolver(tec_system, mode="reuse")
        for current in (0.0, 0.5, 1.0, 2.0):
            assert np.allclose(
                reuse.solve(current), direct.solve(current), rtol=1e-10, atol=1e-10
            )

    def test_single_sparse_factorization(self, tec_system):
        solver = SteadyStateSolver(tec_system, mode="reuse")
        for current in (0.1, 0.7, 1.3, 2.1, 2.9):
            solver.solve(current)
        assert solver.stats.factorizations == 1
        assert solver.stats.cap_factorizations == 5

    def test_solve_rhs_matches_direct(self, tec_system):
        direct = SteadyStateSolver(tec_system, mode="direct")
        reuse = SteadyStateSolver(tec_system, mode="reuse")
        rhs = np.arange(1.0, tec_system.num_nodes + 1.0)
        assert np.allclose(
            reuse.solve_rhs(1.5, rhs), direct.solve_rhs(1.5, rhs),
            rtol=1e-10, atol=1e-10,
        )

    def test_influence_rows_match_direct(self, tec_system):
        direct = SteadyStateSolver(tec_system, mode="direct")
        reuse = SteadyStateSolver(tec_system, mode="reuse")
        nodes = range(tec_system.num_nodes)
        assert np.allclose(
            reuse.influence_rows(1.0, nodes), direct.influence_rows(1.0, nodes),
            rtol=1e-10, atol=1e-10,
        )

    def test_mode_validation(self, tec_system):
        with pytest.raises(ValueError, match="mode"):
            SteadyStateSolver(tec_system, mode="iterative")


class TestMgMode:
    def test_matches_direct_mode(self, tec_system):
        direct = SteadyStateSolver(tec_system, mode="direct")
        mg = SteadyStateSolver(tec_system, mode="mg")
        for current in (0.0, 0.5, 1.0, 2.0):
            assert np.allclose(
                mg.solve(current), direct.solve(current),
                rtol=1e-8, atol=1e-8,
            )

    def test_solve_rhs_matches_direct(self, tec_system):
        direct = SteadyStateSolver(tec_system, mode="direct")
        mg = SteadyStateSolver(tec_system, mode="mg")
        rhs = np.column_stack([
            tec_system.p_base,
            np.arange(1.0, tec_system.num_nodes + 1.0),
        ])
        assert np.allclose(
            mg.solve_rhs(1.5, rhs), direct.solve_rhs(1.5, rhs),
            rtol=1e-8, atol=1e-8,
        )

    def test_influence_rows_match_direct(self, tec_system):
        direct = SteadyStateSolver(tec_system, mode="direct")
        mg = SteadyStateSolver(tec_system, mode="mg")
        nodes = range(tec_system.num_nodes)
        assert np.allclose(
            mg.influence_rows(1.0, nodes),
            direct.influence_rows(1.0, nodes),
            rtol=1e-8, atol=1e-8,
        )

    def test_iteration_counters(self, tec_system):
        solver = SteadyStateSolver(tec_system, mode="mg")
        solver.solve(0.7)
        assert solver.stats.mg_hierarchies == 1
        assert solver.stats.mg_solves == 1
        assert solver.stats.mg_cycles >= 1
        assert solver.stats.mg_fallbacks == 0
        # the hierarchy replaces every assembled factorization
        assert solver.stats.factorizations == 0

    def test_fallback_on_exhausted_budget(self, tec_system):
        """An exhausted iteration budget falls back to the exact
        per-current factorization — same answer, fallback counted."""
        direct = SteadyStateSolver(tec_system, mode="direct")
        starved = SteadyStateSolver(
            tec_system, mode="mg", krylov_rtol=1e-30, krylov_maxiter=1
        )
        theta = starved.solve(2.0)
        assert starved.stats.mg_fallbacks >= 1
        assert starved.stats.factorizations == 1
        assert np.allclose(theta, direct.solve(2.0), rtol=1e-10, atol=1e-10)


class TestAutoMode:
    def test_select_backend_small_support(self):
        assert select_backend(100, 10) == "reuse"

    def test_select_backend_dense_support(self):
        assert select_backend(10000, 2000) == "direct"

    def test_select_backend_floor_boundary(self):
        # the floor dominates sqrt(n) on small systems
        assert select_backend(16, AUTO_SUPPORT_FLOOR) == "reuse"
        assert select_backend(16, AUTO_SUPPORT_FLOOR + 1) == "direct"

    def test_auto_resolves_per_system(self, tec_system):
        solver = SteadyStateSolver(tec_system, mode="auto")
        # 4 nodes, support 2: well below the floor -> Woodbury reuse
        assert solver.effective_mode == "reuse"
        assert solver.mode == "auto"  # the request is preserved

    def test_auto_matches_direct(self, tec_system):
        direct = SteadyStateSolver(tec_system, mode="direct")
        auto = SteadyStateSolver(tec_system, mode="auto")
        for current in (0.0, 0.5, 1.0):
            assert np.allclose(
                auto.solve(current), direct.solve(current),
                rtol=1e-8, atol=1e-8,
            )

    def test_non_auto_effective_mode_is_identity(self, tec_system):
        for mode in ("direct", "reuse", "mg"):
            assert SteadyStateSolver(tec_system, mode=mode).effective_mode == mode


class TestExactFloatCacheKey:
    """Pin the exact-float per-current cache key (see the solve.py
    module docstring): quantizing the key is a deliberate change."""

    def test_nearly_identical_currents_always_miss(self, tec_system):
        solver = SteadyStateSolver(tec_system, mode="direct")
        rhs = tec_system.p_base
        current = 1.0
        solver.solve_rhs(current, rhs)
        solver.solve_rhs(current * (1.0 + 1e-15), rhs)
        assert solver.stats.cache_misses == 2
        assert solver.stats.cache_hits == 0
        assert solver.stats.cache_hit_rate == 0.0

    def test_exact_current_hits(self, tec_system):
        solver = SteadyStateSolver(tec_system, mode="direct")
        rhs = tec_system.p_base
        solver.solve_rhs(1.0, rhs)
        solver.solve_rhs(1.0, rhs)
        assert solver.stats.cache_hits == 1
        assert solver.stats.cache_hit_rate == pytest.approx(0.5)

    def test_reuse_capacitance_cache_keys_exact_floats(self, tec_system):
        solver = SteadyStateSolver(tec_system, mode="reuse")
        rhs = tec_system.p_base
        solver.solve_rhs(1.0, rhs)
        solver.solve_rhs(np.nextafter(1.0, 2.0), rhs)
        assert solver.stats.cap_factorizations == 2
        assert solver.stats.cache_hits == 0


class TestSingularHandling:
    """SingularSystemError at/beyond the runaway current ``lambda_m``
    for the reuse and mg backends (direct is covered above)."""

    @staticmethod
    def _runaway(tec_system):
        from repro.linalg.runaway import runaway_current

        return runaway_current(tec_system.g_matrix, tec_system.d_diagonal).value

    def test_reuse_capacitance_guard_at_runaway(self, tec_system):
        """The Woodbury capacitance ``I - i d Z`` is singular exactly at
        ``lambda_m``; the rcond guard must catch it instead of returning
        garbage temperatures."""
        solver = SteadyStateSolver(tec_system, mode="reuse")
        lam = self._runaway(tec_system)
        with pytest.raises(SingularSystemError, match="capacitance"):
            solver.solve(lam)

    def test_runaway_equals_capacitance_singularity(self, tec_system):
        """Cross-check: 1 / max eig of ``d Z`` is exactly ``lambda_m``,
        so the guard and Theorem 1 agree on where runaway happens."""
        solver = SteadyStateSolver(tec_system, mode="reuse")
        solver._base_factorization()
        solver._ensure_influence()
        eigs = np.linalg.eigvals(solver._d_support[:, None] * solver._z)
        real = eigs.real[np.abs(eigs.imag) < 1e-9 * np.abs(eigs).max()]
        i_sing = 1.0 / real.max()
        assert i_sing == pytest.approx(self._runaway(tec_system), rel=1e-9)

    def test_reuse_check_definite_beyond_runaway(self, tec_system):
        solver = SteadyStateSolver(tec_system, mode="reuse")
        with pytest.raises(SingularSystemError):
            solver.solve(1.5 * self._runaway(tec_system), check_definite=True)

    def test_mg_check_definite_beyond_runaway(self, tec_system):
        solver = SteadyStateSolver(tec_system, mode="mg")
        with pytest.raises(SingularSystemError):
            solver.solve(1.5 * self._runaway(tec_system), check_definite=True)

    def test_mg_near_runaway_stays_accurate(self, tec_system):
        """Close to runaway the preconditioned spectrum degrades; the
        residual check must either converge or fall back — never return
        an inaccurate answer silently."""
        direct = SteadyStateSolver(tec_system, mode="direct")
        mg = SteadyStateSolver(tec_system, mode="mg")
        current = 0.999 * self._runaway(tec_system)
        assert np.allclose(
            mg.solve(current), direct.solve(current), rtol=1e-6
        )


class TestNearRunawayBackends:
    """The three backends around ``lambda_m`` on a densely deployed die.

    An 8x8 die with 32 TECs.  Below runaway (90%, 99%, 99.9% of
    ``lambda_m``) ``direct``, ``reuse`` and ``mg`` agree to the
    near-runaway relative tolerance of :class:`TestSingularHandling`;
    past it the ``direct`` backend's positive-pivot certificate, and the
    ``mg`` backend's ``b'x > 0`` CG certificate with its factorized
    fallback, raise :class:`SingularSystemError` instead of returning
    sub-zero Kelvin.
    """

    _MODES = ("direct", "reuse", "mg")

    @pytest.fixture(scope="class")
    def models(self):
        from repro.thermal.geometry import TileGrid
        from repro.thermal.model import PackageThermalModel

        grid = TileGrid(8, 8)
        power = np.full(grid.num_tiles, 0.3)
        power[[18, 19, 26, 27, 44, 45]] = 2.0
        tiles = tuple(range(0, grid.num_tiles, 2))
        return {
            mode: PackageThermalModel(
                grid, power, tec_tiles=tiles, solver_mode=mode
            )
            for mode in self._MODES
        }

    @pytest.mark.parametrize("fraction", [0.9, 0.99, 0.999])
    def test_backends_agree_below_runaway(self, models, fraction):
        current = fraction * models["direct"].runaway_current().value
        reference = models["direct"].solver.solve(current)
        for mode in ("reuse", "mg"):
            np.testing.assert_allclose(
                models[mode].solver.solve(current), reference, rtol=1e-6
            )

    @pytest.mark.parametrize("fraction", [1.001, 1.05])
    def test_direct_raises_past_runaway(self, models, fraction):
        model = models["direct"]
        assert len(model.stamps) == 32
        current = fraction * model.runaway_current().value
        with pytest.raises(SingularSystemError):
            model.solve(current)

    @pytest.mark.parametrize("fraction", [1.001, 1.05])
    def test_mg_raises_past_runaway(self, models, fraction):
        current = fraction * models["direct"].runaway_current().value
        with pytest.raises(SingularSystemError):
            models["mg"].solve(current)


class TestBatchedRhs:
    def test_matrix_rhs_matches_column_solves(self, tec_system):
        solver = SteadyStateSolver(tec_system)
        rhs = np.column_stack([
            tec_system.p_base,
            np.arange(float(tec_system.num_nodes)),
        ])
        batched = solver.solve_rhs(1.0, rhs)
        assert batched.shape == rhs.shape
        for j in range(rhs.shape[1]):
            assert np.allclose(batched[:, j], solver.solve_rhs(1.0, rhs[:, j]))

    def test_rhs_columns_counted(self, tec_system):
        solver = SteadyStateSolver(tec_system)
        solver.solve_rhs(0.0, np.zeros((tec_system.num_nodes, 3)))
        assert solver.stats.rhs_columns == 3


class TestSolverStats:
    def test_diff_and_copy(self, tec_system):
        solver = SteadyStateSolver(tec_system)
        before = solver.stats.copy()
        solver.solve(1.0)
        delta = solver.stats.diff(before)
        assert delta.solves == 1
        assert delta.factorizations == 1
        assert before.solves == 0  # the snapshot is independent

    def test_as_dict_round_trips(self, tec_system):
        solver = SteadyStateSolver(tec_system)
        solver.solve(0.5)
        data = solver.stats.as_dict()
        assert data["solves"] == 1
        assert set(data) == {
            "factorizations", "cap_factorizations", "cap_refinements",
            "cap_refine_failures", "cache_hits",
            "cache_misses", "evictions", "solves", "rhs_columns",
            "solution_hits", "mg_hierarchies", "mg_solves",
            "mg_cycles", "mg_fallbacks",
            "factor_time_s", "solve_time_s",
            "full_builds", "incremental_builds", "assembly_time_s",
        }

    def test_summary_is_single_line(self, tec_system):
        solver = SteadyStateSolver(tec_system)
        solver.solve(0.5)
        summary = solver.stats.summary()
        assert "\n" not in summary
        assert "1 LU" in summary


class TestCapRefinement:
    """Iterative refinement of Woodbury capacitance solves against the
    nearest cached factorization (clustered-current fast path)."""

    @staticmethod
    def _big_model():
        from repro.thermal.geometry import TileGrid
        from repro.thermal.model import PackageThermalModel

        grid = TileGrid(6, 6)
        power = np.full(grid.num_tiles, 0.12)
        # Full coverage: support ~2 nodes/TEC clears the
        # _CAP_REFINE_MIN_SUPPORT=64 gate on a 36-tile grid.
        return PackageThermalModel(
            grid, power, tec_tiles=tuple(range(grid.num_tiles)),
            solver_mode="reuse",
        )

    def test_refined_solve_matches_fresh_factorization(self):
        refined_model = self._big_model()
        fresh_model = self._big_model()
        anchor, probe = 1.0, 1.05
        refined_model.solve(anchor)          # caches the anchor factors
        before = refined_model.solver.stats.copy()
        got = refined_model.solve(probe).theta_k
        delta = refined_model.solver.stats.diff(before)
        assert delta.cap_refinements > 0
        assert delta.cap_factorizations == 0
        want = fresh_model.solve(probe).theta_k
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)

    def test_small_support_never_refines(self, tec_system):
        solver = SteadyStateSolver(tec_system)
        solver.solve(1.0)
        solver.solve(1.05)
        assert solver.stats.cap_refinements == 0

    def test_failed_refinement_falls_back_to_fresh_factors(self, monkeypatch):
        import repro.thermal.session as session_module

        # Zero sweeps: every refinement attempt gives up immediately,
        # so the solver must fall back to a fresh factorization and
        # stay exact.
        monkeypatch.setattr(session_module, "_CAP_REFINE_MAX_ITERATIONS", 0)
        model = self._big_model()
        reference = self._big_model()
        model.solve(1.0)
        before = model.solver.stats.copy()
        got = model.solve(1.05).theta_k
        delta = model.solver.stats.diff(before)
        assert delta.cap_refine_failures > 0
        assert delta.cap_refinements == 0
        assert delta.cap_factorizations > 0
        want = reference.solve(1.05).theta_k
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
