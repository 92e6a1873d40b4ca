"""Transient RC extension: stability, settling, schedules."""

import numpy as np
import pytest

from repro.thermal.transient import TransientSimulator, node_capacitances


class TestCapacitances:
    def test_all_positive(self, small_deployed):
        capacitance = node_capacitances(small_deployed)
        assert capacitance.shape == (small_deployed.num_nodes,)
        assert np.all(capacitance > 0.0)

    def test_sink_heavier_than_die(self, small_model):
        """The thick copper sink stores far more heat than thin silicon."""
        capacitance = node_capacitances(small_model)
        die_c = capacitance[small_model.silicon_nodes[0]]
        from repro.thermal.network import NodeRole

        sink_node = small_model.nodes.indices_with_role(NodeRole.SINK)[0]
        assert capacitance[sink_node] > 10.0 * die_c


class TestSimulator:
    def test_starts_at_ambient(self, small_model):
        sim = TransientSimulator(small_model, dt=1e-3)
        assert sim.peak_silicon_c() == pytest.approx(small_model.stack.ambient_c)

    def test_steady_initial_state(self, small_model):
        sim = TransientSimulator(small_model, dt=1e-3, initial_state="steady")
        steady_peak = small_model.solve(0.0).peak_silicon_c
        assert sim.peak_silicon_c() == pytest.approx(steady_peak)

    def test_bad_initial_state_string(self, small_model):
        with pytest.raises(ValueError):
            TransientSimulator(small_model, initial_state="lukewarm")

    def test_explicit_initial_vector(self, small_model):
        theta0 = np.full(small_model.num_nodes, 320.0)
        sim = TransientSimulator(small_model, initial_state=theta0)
        assert sim.theta_k[0] == 320.0

    def test_initial_vector_shape_checked(self, small_model):
        with pytest.raises(ValueError):
            TransientSimulator(small_model, initial_state=np.zeros(3))

    def test_monotone_heating_from_ambient(self, small_model):
        """With constant power the peak rises monotonically to steady."""
        sim = TransientSimulator(small_model, dt=0.05)
        trace = sim.run(60)
        assert np.all(np.diff(trace) >= -1e-9)
        steady = small_model.solve(0.0).peak_silicon_c
        assert trace[-1] <= steady + 1e-6

    def test_settles_to_steady_state(self, small_model):
        sim = TransientSimulator(small_model, dt=0.1)
        sim.settle(tolerance_c=1e-7)
        steady = small_model.solve(0.0).peak_silicon_c
        assert sim.peak_silicon_c() == pytest.approx(steady, abs=0.05)

    def test_settles_with_tec_current(self, small_deployed):
        sim = TransientSimulator(small_deployed, current=4.0, dt=0.1)
        sim.settle(tolerance_c=1e-7)
        steady = small_deployed.solve(4.0).peak_silicon_c
        assert sim.peak_silicon_c() == pytest.approx(steady, abs=0.05)

    def test_time_advances(self, small_model):
        sim = TransientSimulator(small_model, dt=0.25)
        sim.run(4)
        assert sim.time_s == pytest.approx(1.0)

    def test_power_schedule_drives_response(self, small_model):
        """Dropping the power mid-run cools the chip back down."""
        sim = TransientSimulator(small_model, dt=0.1)
        sim.run(100)
        hot_peak = sim.peak_silicon_c()
        zero = np.zeros_like(small_model.power_map)
        sim.run(100, power_schedule=lambda step, t: zero)
        assert sim.peak_silicon_c() < hot_peak

    def test_power_schedule_shape_checked(self, small_model):
        sim = TransientSimulator(small_model, dt=0.1)
        with pytest.raises(ValueError):
            sim.step(power_map=np.zeros(3))

    def test_large_dt_remains_stable(self, small_model):
        """Backward Euler is unconditionally stable: huge steps land on
        the steady state instead of blowing up."""
        sim = TransientSimulator(small_model, dt=1e6)
        sim.step()
        steady = small_model.solve(0.0).peak_silicon_c
        assert sim.peak_silicon_c() == pytest.approx(steady, abs=0.5)

    def test_long_horizon_matches_steady_solver(self, small_deployed):
        """The backward-Euler fixed point *is* the steady solution:
        integrated far past every time constant, the full state must
        match the steady solver to solver precision, not just the
        loose settling tolerance."""
        current = 3.0
        sim = TransientSimulator(small_deployed, current=current, dt=50.0)
        sim.run(200)
        steady = small_deployed.solve(current).theta_k
        np.testing.assert_allclose(sim.theta_k, steady, atol=1e-6, rtol=0.0)

    def test_simulators_share_the_session_view(self, small_deployed):
        """Two simulators at the same dt share one C / dt view of the
        model's solve session: the second pays zero factorizations."""
        first = TransientSimulator(small_deployed, current=2.0, dt=0.05)
        first.run(5)
        stats = small_deployed.solver.stats
        factorizations = stats.factorizations
        second = TransientSimulator(small_deployed, current=2.0, dt=0.05)
        trace = second.run(5)
        assert stats.factorizations == factorizations
        reference = TransientSimulator(small_deployed, current=2.0, dt=0.05)
        assert np.allclose(trace, reference.run(5), atol=1e-12)

    def test_run_rejects_zero_steps(self, small_model):
        with pytest.raises(ValueError):
            TransientSimulator(small_model).run(0)

    def test_settle_raises_when_capped(self, small_model):
        sim = TransientSimulator(small_model, dt=1e-6)
        with pytest.raises(RuntimeError, match="settle"):
            sim.settle(tolerance_c=0.0, max_steps=3)
