"""Assembly of (G, D, p) from a network — Lemma 1 structure included."""

import numpy as np
import pytest

from repro.linalg import cholesky_is_spd, is_irreducible, is_stieltjes
from repro.thermal.network import NodeRole
from tests.thermal.network_oracle import ThermalNetwork, assemble
from repro.utils import celsius_to_kelvin


def _two_node_network():
    net = ThermalNetwork()
    net.add_node("sil", NodeRole.SILICON)
    net.add_node("snk", NodeRole.SINK)
    net.add_conductance(0, 1, 2.0)
    net.add_ground_conductance(1, 0.5)
    net.add_source(0, 3.0)
    return net


class TestAssemble:
    def test_g_matrix_values(self):
        system = assemble(_two_node_network(), ambient_c=45.0)
        g = system.g_matrix.toarray()
        assert g[0, 0] == pytest.approx(2.0)
        assert g[0, 1] == pytest.approx(-2.0)
        assert g[1, 1] == pytest.approx(2.5)

    def test_p_base_carries_source_and_ambient(self):
        system = assemble(_two_node_network(), ambient_c=45.0)
        ambient_k = celsius_to_kelvin(45.0)
        assert system.p_base[0] == pytest.approx(3.0)
        assert system.p_base[1] == pytest.approx(0.5 * ambient_k)

    def test_steady_state_energy_balance(self):
        """All injected power exits through the ground conductance."""
        system = assemble(_two_node_network(), ambient_c=45.0)
        theta = np.linalg.solve(system.g_matrix.toarray(), system.p_base)
        flux_out = 0.5 * (theta[1] - celsius_to_kelvin(45.0))
        assert flux_out == pytest.approx(3.0)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            assemble(ThermalNetwork(), 45.0)

    def test_ungrounded_network_rejected(self):
        net = ThermalNetwork()
        net.add_node("a")
        net.add_node("b")
        net.add_conductance(0, 1, 1.0)
        with pytest.raises(ValueError, match="ambient"):
            assemble(net, 45.0)


class TestTecTerms:
    def _network_with_tec(self):
        net = _two_node_network()
        cold = net.add_node("cold", NodeRole.TEC_COLD)
        hot = net.add_node("hot", NodeRole.TEC_HOT)
        net.add_conductance(0, cold, 0.3)
        net.add_conductance(hot, 1, 0.3)
        net.add_conductance(cold, hot, 0.02)
        net.add_joule(cold, 1e-3)
        net.add_joule(hot, 1e-3)
        net.set_peltier(hot, +2e-4)
        net.set_peltier(cold, -2e-4)
        return net, cold, hot

    def test_d_diagonal_signs(self):
        net, cold, hot = self._network_with_tec()
        system = assemble(net, 45.0)
        assert system.d_diagonal[hot] == pytest.approx(+2e-4)
        assert system.d_diagonal[cold] == pytest.approx(-2e-4)
        assert system.d_diagonal[0] == 0.0

    def test_system_matrix_peltier_signs(self):
        """G - iD must *add* conductance at the cold node and subtract
        at the hot node (Figure 4)."""
        net, cold, hot = self._network_with_tec()
        system = assemble(net, 45.0)
        g = system.g_matrix.toarray()
        combined = system.system_matrix(10.0).toarray()
        assert combined[cold, cold] == pytest.approx(g[cold, cold] + 10.0 * 2e-4)
        assert combined[hot, hot] == pytest.approx(g[hot, hot] - 10.0 * 2e-4)

    def test_power_vector_quadratic_in_current(self):
        net, cold, hot = self._network_with_tec()
        system = assemble(net, 45.0)
        p0 = system.power_vector(0.0)
        p5 = system.power_vector(5.0)
        assert p5[cold] - p0[cold] == pytest.approx(25.0 * 1e-3)
        assert p5[hot] - p0[hot] == pytest.approx(25.0 * 1e-3)

    def test_zero_current_shortcuts_to_base(self):
        net, _, _ = self._network_with_tec()
        system = assemble(net, 45.0)
        assert system.power_vector(0.0) is system.p_base
        assert system.system_matrix(0.0) is system.g_matrix


class TestLemma1OnPackage(object):
    """Lemma 1: the package G is an irreducible PD Stieltjes matrix."""

    def test_small_package(self, small_model):
        g = small_model.system.g_matrix
        assert is_stieltjes(g)
        assert is_irreducible(g)
        assert cholesky_is_spd(g)

    def test_deployed_package(self, small_deployed):
        g = small_deployed.system.g_matrix
        assert is_stieltjes(g)
        assert is_irreducible(g)
        assert cholesky_is_spd(g)

    def test_alpha_package(self, alpha_model):
        g = alpha_model.system.g_matrix
        assert is_stieltjes(g)
        assert is_irreducible(g)
        assert cholesky_is_spd(g)
