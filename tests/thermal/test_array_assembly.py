"""The array assembly against the element-by-element oracle, bitwise.

:class:`~repro.thermal.assembly.NetworkBlueprint` records a package as
NumPy arrays and forms ``G``, ``D``, ``p_base`` and ``joule`` with
sequential ``np.bincount``; ``tests/thermal/network_oracle.py`` builds
the same package one node and conductance at a time into dicts and
walks them in insertion order.  Node order, edge order and every
per-node summation order agree, so the two must produce *identical*
arrays — not merely close ones — on random single-die grids (with and
without a die conductivity scale) and random composite layouts (with
and without an interposer and a board path), each at random
deployments.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.tec.materials import chowdhury_thin_film_tec
from repro.thermal.assembly import NetworkBlueprint
from repro.thermal.chiplet import InterposerSpec, layout_from_plain
from repro.thermal.geometry import TileGrid
from repro.thermal.model import CompositeThermalModel, PackageThermalModel
from repro.thermal.network import ROLES, NodeRole
from repro.thermal.transient import node_capacitances
from tests.thermal import network_oracle

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def _assert_matches_oracle(model):
    net, stamps, oracle = network_oracle.build_system(model)
    system = model.system
    _same(system.g_matrix.indptr, oracle.g_matrix.indptr)
    _same(system.g_matrix.indices, oracle.g_matrix.indices)
    _same(system.g_matrix.data, oracle.g_matrix.data)
    _same(system.d_diagonal, oracle.d_diagonal)
    _same(system.p_base, oracle.p_base)
    _same(system.joule, oracle.joule)
    _same(system.ground, oracle.ground)
    assert system.ambient_k == oracle.ambient_k
    _same(system.lattice.layer, oracle.lattice.layer)
    _same(system.lattice.tile, oracle.lattice.tile)
    assert model.silicon_nodes == net.indices_with_role(NodeRole.SILICON)
    assert model.hot_nodes == [stamp.hot_node for stamp in stamps]
    assert model.cold_nodes == [stamp.cold_node for stamp in stamps]
    assert model.stamps == stamps
    _same(node_capacitances(model), network_oracle.node_capacitances(model, net))
    nodes = model.nodes
    assert [ROLES[code] for code in nodes.roles] == [node.role for node in net.nodes]
    assert [nodes.node_name(i) for i in range(len(nodes))] == [
        node.name for node in net.nodes
    ]


@st.composite
def _single_die(draw):
    """A random (grid, power map, deployment, scale-or-None) case."""
    rows = draw(st.integers(min_value=1, max_value=5))
    cols = draw(st.integers(min_value=1, max_value=5))
    tiles = rows * cols
    power = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.8)),
        min_size=tiles, max_size=tiles,
    ))
    deployment = draw(st.sets(st.integers(0, tiles - 1), max_size=tiles))
    scale = None
    if draw(st.booleans()):
        scale = draw(st.lists(
            st.floats(min_value=0.5, max_value=1.5), min_size=tiles, max_size=tiles,
        ))
    return TileGrid(rows, cols), np.asarray(power), tuple(deployment), scale


@st.composite
def _composite(draw):
    """A random 2-3 chiplet layout with row offsets and column gaps,
    an optional interposer and board path, and a deployment."""
    count = draw(st.integers(min_value=2, max_value=3))
    plain, col = [], 0
    for index in range(count):
        rows = draw(st.integers(min_value=1, max_value=3))
        cols = draw(st.integers(min_value=1, max_value=3))
        row0 = draw(st.integers(min_value=0, max_value=2))
        col += draw(st.integers(min_value=0, max_value=2)) if index else 0
        power = draw(st.floats(min_value=0.0, max_value=6.0))
        plain.append((rows, cols, row0, col, power))
        col += cols
    interposer = draw(st.sampled_from(["none", "adiabatic", "board"]))
    spec = {
        "none": False,
        "adiabatic": InterposerSpec(),
        "board": InterposerSpec(board_resistance=draw(st.floats(0.5, 5.0))),
    }[interposer]
    layout = layout_from_plain(plain, interposer=spec)
    tiles = layout.composite_grid().num_tiles
    deployment = draw(st.sets(st.integers(0, tiles - 1), max_size=tiles))
    return layout, tuple(deployment)


class TestSingleDieAgainstOracle:
    @given(_single_die())
    @_settings
    def test_bitwise_equal(self, case):
        grid, power, deployment, scale = case
        _assert_matches_oracle(PackageThermalModel(
            grid, power, tec_tiles=deployment, die_conductivity_scale=scale
        ))

    @given(_single_die())
    @_settings
    def test_instantiation_bitwise_equal(self, case):
        """A model instantiated from a sibling's blueprint (under its
        own deployment and scale) still equals the oracle."""
        grid, power, deployment, scale = case
        blueprint = PackageThermalModel(grid, power).network_blueprint()
        _assert_matches_oracle(PackageThermalModel(
            grid, power, tec_tiles=deployment, die_conductivity_scale=scale,
            blueprint=blueprint,
        ))

    def test_alpha_deployment(self, alpha_deployed):
        _assert_matches_oracle(alpha_deployed)


class TestCompositeAgainstOracle:
    @given(_composite())
    @_settings
    def test_bitwise_equal(self, case):
        layout, deployment = case
        _assert_matches_oracle(CompositeThermalModel(layout, tec_tiles=deployment))

    @given(_composite())
    @_settings
    def test_instantiation_matches_fresh_build(self, case):
        layout, deployment = case
        blueprint = CompositeThermalModel(layout).network_blueprint()
        replayed = CompositeThermalModel(
            layout, tec_tiles=deployment, blueprint=blueprint
        )
        _assert_matches_oracle(replayed)
        fresh = CompositeThermalModel(layout, tec_tiles=deployment)
        _same(replayed.system.g_matrix.data, fresh.system.g_matrix.data)
        _same(replayed.system.p_base, fresh.system.p_base)


def _tiny_blueprint():
    """One tile: silicon -> TIM -> spreader, spreader grounded."""
    bp = NetworkBlueprint(num_tiles=1, lattice_shape=(1, 1), ambient_c=45.0)
    silicon = bp.add_nodes(NodeRole.SILICON, [0])
    tim = bp.add_nodes(NodeRole.TIM, [0], cover_tiles=[0])
    spreader = bp.add_nodes(NodeRole.SPREADER, [0])
    bp.add_sources(silicon, [1.0])
    bp.set_die_exit(1.0, 1.0)
    bp.add_conductances([silicon[0], tim[0]], [tim[0], spreader[0]], [0.5, 2.0])
    bp.add_stamp_section(
        chowdhury_thin_film_tec(), silicon=silicon, spreader=spreader,
        tiles=[0], hot_series_resistance=0.0,
    )
    bp.add_ground(spreader, 1.0)
    return bp, silicon, tim, spreader


class TestBlueprintValidation:
    def test_tiny_network_values(self):
        bp, silicon, tim, spreader = _tiny_blueprint()
        system, stamps, nodes = bp.instantiate(())
        g = system.g_matrix.toarray()
        assert g.tolist() == [[0.5, -0.5, 0.0], [-0.5, 2.5, -2.0], [0.0, -2.0, 3.0]]
        assert stamps == [] and len(nodes) == 3
        system, stamps, nodes = bp.instantiate((0,))
        assert [stamp.tile for stamp in stamps] == [0]
        assert nodes.role(stamps[0].cold_node) is NodeRole.TEC_COLD
        assert nodes.indices_with_role(NodeRole.TIM).size == 0

    def test_self_loop_rejected(self):
        bp = NetworkBlueprint(num_tiles=1, lattice_shape=(1, 1), ambient_c=45.0)
        node = bp.add_nodes(NodeRole.SILICON, [0])
        with pytest.raises(ValueError, match="differ"):
            bp.add_conductances(node, node, 1.0)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
    def test_bad_conductance_rejected(self, value):
        bp = NetworkBlueprint(num_tiles=1, lattice_shape=(1, 1), ambient_c=45.0)
        nodes = bp.add_nodes(NodeRole.SILICON, [0, 0])
        with pytest.raises(ValueError, match="positive"):
            bp.add_conductances(nodes[0], nodes[1], value)

    def test_unknown_node_rejected(self):
        bp = NetworkBlueprint(num_tiles=1, lattice_shape=(1, 1), ambient_c=45.0)
        node = bp.add_nodes(NodeRole.SILICON, [0])
        with pytest.raises(IndexError):
            bp.add_conductances(node, [5], 1.0)

    def test_negative_source_rejected(self):
        bp = NetworkBlueprint(num_tiles=1, lattice_shape=(1, 1), ambient_c=45.0)
        node = bp.add_nodes(NodeRole.SILICON, [0])
        with pytest.raises(ValueError, match="non-negative"):
            bp.add_sources(node, [-1.0])

    def test_parallel_pair_rejected_at_assembly(self):
        bp, silicon, tim, _ = _tiny_blueprint()
        bp.add_conductances(tim, silicon, 1.0)
        with pytest.raises(ValueError, match="two conductances"):
            bp.instantiate(())

    def test_frozen_after_instantiation(self):
        bp, silicon, tim, _ = _tiny_blueprint()
        bp.instantiate(())
        with pytest.raises(RuntimeError, match="frozen"):
            bp.add_conductances(silicon, tim, 1.0)

    def test_stamp_section_required(self):
        bp = NetworkBlueprint(num_tiles=1, lattice_shape=(1, 1), ambient_c=45.0)
        bp.add_nodes(NodeRole.TIM, [0], cover_tiles=[0])
        with pytest.raises(RuntimeError, match="stamp section"):
            bp.instantiate(())

    @pytest.mark.parametrize("tiles", [(1,), (-1,)])
    def test_deployment_out_of_range_rejected(self, tiles):
        bp, _, _, _ = _tiny_blueprint()
        with pytest.raises(ValueError, match="out of range"):
            bp.instantiate(tiles)

    def test_ungrounded_network_rejected(self):
        bp = NetworkBlueprint(num_tiles=1, lattice_shape=(1, 1), ambient_c=45.0)
        silicon = bp.add_nodes(NodeRole.SILICON, [0])
        tim = bp.add_nodes(NodeRole.TIM, [0], cover_tiles=[0])
        bp.set_die_exit(1.0, 1.0)
        bp.add_conductances(silicon, tim, 1.0)
        bp.add_stamp_section(
            chowdhury_thin_film_tec(), silicon=silicon, spreader=silicon,
            tiles=[0], hot_series_resistance=0.0,
        )
        with pytest.raises(ValueError, match="ambient"):
            bp.instantiate(())
