"""Thermal network builder semantics."""

import pytest

from repro.thermal.network import NodeRole
from tests.thermal.network_oracle import ThermalNetwork


@pytest.fixture()
def net():
    network = ThermalNetwork()
    network.add_node("a", NodeRole.SILICON, tile=0)
    network.add_node("b", NodeRole.TIM)
    network.add_node("c", NodeRole.TEC_HOT)
    return network


class TestNodes:
    def test_indices_sequential(self, net):
        assert net.num_nodes == 3
        assert net.add_node("d") == 3

    def test_role_required_type(self):
        network = ThermalNetwork()
        with pytest.raises(TypeError):
            network.add_node("x", role="silicon")

    def test_meta_stored(self, net):
        assert net.nodes[0].meta["tile"] == 0

    def test_indices_with_role(self, net):
        assert net.indices_with_role(NodeRole.SILICON) == [0]
        assert net.indices_with_role(NodeRole.TEC_COLD) == []

    def test_node_name(self, net):
        assert net.node_name(1) == "b"


class TestConductances:
    def test_parallel_accumulation(self, net):
        net.add_conductance(0, 1, 1.0)
        net.add_conductance(1, 0, 2.0)  # same pair, opposite order
        assert dict(net.conductance_items()) == {(0, 1): 3.0}

    def test_self_loop_rejected(self, net):
        with pytest.raises(ValueError, match="differ"):
            net.add_conductance(1, 1, 1.0)

    def test_nonpositive_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_conductance(0, 1, 0.0)

    def test_unknown_node_rejected(self, net):
        with pytest.raises(IndexError):
            net.add_conductance(0, 99, 1.0)


class TestGroundSourcesJoule:
    def test_ground_accumulates(self, net):
        net.add_ground_conductance(2, 0.5)
        net.add_ground_conductance(2, 0.25)
        assert net.total_ground_conductance() == pytest.approx(0.75)

    def test_sources_accumulate_and_skip_zero(self, net):
        net.add_source(0, 1.0)
        net.add_source(0, 0.5)
        net.add_source(1, 0.0)
        assert dict(net.source_items()) == {0: 1.5}
        assert net.total_source_power() == pytest.approx(1.5)

    def test_negative_source_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_source(0, -1.0)

    def test_joule_accumulates(self, net):
        net.add_joule(2, 0.001)
        net.add_joule(2, 0.001)
        assert dict(net.joule_items()) == {2: 0.002}


class TestPeltier:
    def test_set_once(self, net):
        net.set_peltier(2, +2e-4)
        assert dict(net.peltier_items()) == {2: 2e-4}

    def test_double_assignment_rejected(self, net):
        net.set_peltier(2, +2e-4)
        with pytest.raises(ValueError, match="already"):
            net.set_peltier(2, -2e-4)

    def test_zero_rejected(self, net):
        with pytest.raises(ValueError, match="non-zero"):
            net.set_peltier(2, 0.0)

    def test_negative_allowed_for_cold(self, net):
        net.set_peltier(1, -2e-4)
        assert dict(net.peltier_items()) == {1: -2e-4}
