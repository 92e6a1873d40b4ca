"""The Figure 4 compact-model stamp."""

import numpy as np
import pytest

from repro.tec.materials import TecDeviceParameters
from repro.tec.stamp import stamp_conductances
from repro.thermal.network import NodeRole
from tests.thermal.network_oracle import ThermalNetwork, stamp_tec


@pytest.fixture()
def net():
    network = ThermalNetwork()
    network.add_node("sil", NodeRole.SILICON)
    network.add_node("spr", NodeRole.SPREADER)
    network.add_ground_conductance(1, 1.0)
    return network


DEVICE = TecDeviceParameters()


class TestStamp:
    def test_creates_two_nodes_with_roles(self, net):
        stamp = stamp_tec(net, DEVICE, silicon_node=0, spreader_node=1, tile=7)
        assert net.nodes[stamp.cold_node].role is NodeRole.TEC_COLD
        assert net.nodes[stamp.hot_node].role is NodeRole.TEC_HOT
        assert net.nodes[stamp.cold_node].meta["tile"] == 7

    def test_conductance_wiring(self, net):
        stamp = stamp_tec(net, DEVICE, silicon_node=0, spreader_node=1, tile=0)
        conductances = dict(net.conductance_items())
        cold, hot = stamp.cold_node, stamp.hot_node
        assert conductances[(0, cold)] == pytest.approx(
            DEVICE.cold_contact_conductance
        )
        assert conductances[(1, hot)] == pytest.approx(DEVICE.hot_contact_conductance)
        assert conductances[(cold, hot)] == pytest.approx(DEVICE.thermal_conductance)

    def test_joule_half_on_each_side(self, net):
        stamp = stamp_tec(net, DEVICE, silicon_node=0, spreader_node=1, tile=0)
        joule = dict(net.joule_items())
        assert joule[stamp.cold_node] == pytest.approx(
            0.5 * DEVICE.electrical_resistance
        )
        assert joule[stamp.hot_node] == pytest.approx(
            0.5 * DEVICE.electrical_resistance
        )

    def test_peltier_signs(self, net):
        stamp = stamp_tec(net, DEVICE, silicon_node=0, spreader_node=1, tile=0)
        peltier = dict(net.peltier_items())
        assert peltier[stamp.hot_node] == pytest.approx(+DEVICE.seebeck)
        assert peltier[stamp.cold_node] == pytest.approx(-DEVICE.seebeck)

    def test_series_resistance_reduces_coupling(self, net):
        stamp = stamp_tec(
            net,
            DEVICE,
            silicon_node=0,
            spreader_node=1,
            tile=0,
            cold_series_resistance=2.0,
            hot_series_resistance=4.0,
        )
        conductances = dict(net.conductance_items())
        expected_cold = 1.0 / (1.0 / DEVICE.cold_contact_conductance + 2.0)
        expected_hot = 1.0 / (1.0 / DEVICE.hot_contact_conductance + 4.0)
        assert conductances[(0, stamp.cold_node)] == pytest.approx(expected_cold)
        assert conductances[(1, stamp.hot_node)] == pytest.approx(expected_hot)

    def test_negative_series_resistance_rejected(self, net):
        with pytest.raises(ValueError):
            stamp_tec(
                net,
                DEVICE,
                silicon_node=0,
                spreader_node=1,
                tile=0,
                cold_series_resistance=-1.0,
            )

    def test_custom_label(self, net):
        stamp = stamp_tec(
            net, DEVICE, silicon_node=0, spreader_node=1, tile=3, label="mytec"
        )
        assert net.node_name(stamp.cold_node) == "mytec.cold"
        assert net.node_name(stamp.hot_node) == "mytec.hot"

    def test_two_stamps_on_one_spreader_node(self, net):
        net.add_node("sil2", NodeRole.SILICON)
        stamp_tec(net, DEVICE, silicon_node=0, spreader_node=1, tile=0)
        stamp_tec(net, DEVICE, silicon_node=2, spreader_node=1, tile=1)
        assert len(net.indices_with_role(NodeRole.TEC_HOT)) == 2


class TestStampConductances:
    """The contact physics the package's stamp template records."""

    def test_matches_element_wise_stamp(self, net):
        stamp = stamp_tec(
            net, DEVICE, silicon_node=0, spreader_node=1, tile=0,
            cold_series_resistance=2.0, hot_series_resistance=4.0,
        )
        conductances = dict(net.conductance_items())
        g_cold, g_hot = stamp_conductances(
            DEVICE, cold_series_resistance=2.0, hot_series_resistance=4.0
        )
        assert conductances[(0, stamp.cold_node)] == g_cold
        assert conductances[(1, stamp.hot_node)] == g_hot

    def test_vectorized_over_tiles(self):
        series = np.array([0.0, 1.0, 3.0])
        g_cold, _ = stamp_conductances(DEVICE, cold_series_resistance=series)
        for value, r in zip(g_cold, series):
            assert value == stamp_conductances(DEVICE, cold_series_resistance=float(r))[0]

    def test_negative_series_resistance_rejected(self):
        with pytest.raises(ValueError):
            stamp_conductances(DEVICE, hot_series_resistance=np.array([1.0, -1.0]))
