"""Reference oracle for package assembly: the element-by-element build.

The package assembles its networks as arrays
(:class:`repro.thermal.assembly.NetworkBlueprint`).  This module keeps
the straightforward builder the arrays must agree with: a mutable
:class:`ThermalNetwork` written one node, conductance and source at a
time (parallel conductances merge in a dict), the per-device
:func:`stamp_tec`, and an :func:`assemble` that walks the dicts in
insertion order.  :func:`build_network` runs the single-die or
composite package build of a model through it, so the differential
suite can compare the array pipeline with it bitwise; the small
hand-built networks of the solver and stamp tests use it directly.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.linalg.multigrid import LatticeGeometry
from repro.tec.stamp import TecStamp
from repro.thermal.assembly import AssembledSystem
from repro.thermal.model import CompositeThermalModel
from repro.thermal.network import NodeRole
from repro.utils import celsius_to_kelvin, check_nonnegative, check_positive
from repro.utils.validate import check_index

_SIDES = ("north", "east", "south", "west")


@dataclass
class Node:
    """One network node; ``meta`` carries builder context (``tile``...)."""

    name: str
    role: NodeRole
    meta: dict = field(default_factory=dict)


class ThermalNetwork:
    """Mutable thermal-network builder.

    Accumulates conductances between node pairs (parallel additions
    merge), ground conductances, constant sources, Joule coefficients
    (``coeff * i^2`` watts) and Peltier coefficients (the diagonal of
    ``D``).
    """

    def __init__(self):
        self.nodes = []
        self._conductances = {}
        self._ground = {}
        self._sources = {}
        self._joule = {}
        self._peltier = {}

    def __len__(self):
        return len(self.nodes)

    @property
    def num_nodes(self):
        return len(self.nodes)

    def add_node(self, name, role=NodeRole.OTHER, **meta):
        if not isinstance(role, NodeRole):
            raise TypeError("role must be a NodeRole, got {!r}".format(role))
        self.nodes.append(Node(str(name), role, dict(meta)))
        return len(self.nodes) - 1

    def add_conductance(self, a, b, conductance):
        a = check_index(a, "a", len(self.nodes))
        b = check_index(b, "b", len(self.nodes))
        if a == b:
            raise ValueError("conductance endpoints must differ, got node {}".format(a))
        conductance = check_positive(conductance, "conductance")
        key = (a, b) if a < b else (b, a)
        self._conductances[key] = self._conductances.get(key, 0.0) + conductance

    def add_ground_conductance(self, node, conductance):
        node = check_index(node, "node", len(self.nodes))
        conductance = check_positive(conductance, "conductance")
        self._ground[node] = self._ground.get(node, 0.0) + conductance

    def add_source(self, node, power):
        node = check_index(node, "node", len(self.nodes))
        power = check_nonnegative(power, "power")
        if power:
            self._sources[node] = self._sources.get(node, 0.0) + power

    def add_joule(self, node, coefficient):
        node = check_index(node, "node", len(self.nodes))
        coefficient = check_nonnegative(coefficient, "coefficient")
        if coefficient:
            self._joule[node] = self._joule.get(node, 0.0) + coefficient

    def set_peltier(self, node, alpha_signed):
        node = check_index(node, "node", len(self.nodes))
        alpha_signed = float(alpha_signed)
        if node in self._peltier:
            raise ValueError("node {} already has a Peltier coefficient".format(node))
        if alpha_signed == 0.0:
            raise ValueError("Peltier coefficient must be non-zero")
        self._peltier[node] = alpha_signed

    def conductance_items(self):
        return self._conductances.items()

    def ground_items(self):
        return self._ground.items()

    def source_items(self):
        return self._sources.items()

    def joule_items(self):
        return self._joule.items()

    def peltier_items(self):
        return self._peltier.items()

    def indices_with_role(self, role):
        return [k for k, node in enumerate(self.nodes) if node.role is role]

    def node_name(self, index):
        index = check_index(index, "index", len(self.nodes))
        return self.nodes[index].name

    def total_ground_conductance(self):
        return sum(self._ground.values())

    def total_source_power(self):
        return sum(self._sources.values())


def stamp_tec(network, device, *, silicon_node, spreader_node, tile,
              label=None, cold_series_resistance=0.0,
              hot_series_resistance=0.0, lattice_tile=None):
    """Write one TEC device (Figure 4) into ``network``."""
    prefix = label if label is not None else "tec[{}]".format(tile)
    meta_tile = int(tile) if lattice_tile is None else int(lattice_tile)
    cold = network.add_node("{}.cold".format(prefix), NodeRole.TEC_COLD, tile=meta_tile)
    hot = network.add_node("{}.hot".format(prefix), NodeRole.TEC_HOT, tile=meta_tile)
    if cold_series_resistance < 0.0 or hot_series_resistance < 0.0:
        raise ValueError("series resistances must be >= 0")
    g_cold = 1.0 / (1.0 / device.cold_contact_conductance + cold_series_resistance)
    g_hot = 1.0 / (1.0 / device.hot_contact_conductance + hot_series_resistance)
    network.add_conductance(silicon_node, cold, g_cold)
    network.add_conductance(hot, spreader_node, g_hot)
    network.add_conductance(cold, hot, device.thermal_conductance)
    half_r = 0.5 * device.electrical_resistance
    network.add_joule(cold, half_r)
    network.add_joule(hot, half_r)
    network.set_peltier(hot, +device.seebeck)
    network.set_peltier(cold, -device.seebeck)
    return TecStamp(tile=int(tile), hot_node=hot, cold_node=cold, device=device)


_LATTICE_LAYERS = {
    NodeRole.SILICON: 0,
    NodeRole.TEC_COLD: 1,
    NodeRole.TEC_HOT: 2,
    NodeRole.TIM: 3,
    NodeRole.SPREADER: 4,
    NodeRole.SINK: 5,
    NodeRole.INTERPOSER: 6,
}


def extract_lattice(network, grid_shape):
    """Node-by-node lattice placement; the first (layer, tile) claim wins."""
    rows, cols = int(grid_shape[0]), int(grid_shape[1])
    n = network.num_nodes
    layer = np.full(n, -1, dtype=np.int64)
    tile = np.full(n, -1, dtype=np.int64)
    seen = set()
    for index, node in enumerate(network.nodes):
        layer_id = _LATTICE_LAYERS.get(node.role)
        tile_index = node.meta.get("tile")
        if layer_id is None or tile_index is None:
            continue
        if not 0 <= int(tile_index) < rows * cols:
            continue
        key = (layer_id, int(tile_index))
        if key in seen:
            continue
        seen.add(key)
        layer[index] = layer_id
        tile[index] = int(tile_index)
    return LatticeGeometry(rows=rows, cols=cols, layer=layer, tile=tile)


def assemble(network, ambient_c, grid_shape=None):
    """Walk the network's dicts in insertion order into ``G``, ``D``, ``p``."""
    n = network.num_nodes
    if n == 0:
        raise ValueError("cannot assemble an empty network")
    ground = dict(network.ground_items())
    if not ground:
        raise ValueError(
            "network has no conductance to ambient; the steady state is undefined"
        )
    ambient_k = celsius_to_kelvin(ambient_c)
    diagonal = np.zeros(n)
    rows, cols, data = [], [], []
    for (a, b), conductance in network.conductance_items():
        rows.extend((a, b))
        cols.extend((b, a))
        data.extend((-conductance, -conductance))
        diagonal[a] += conductance
        diagonal[b] += conductance
    for node, conductance in ground.items():
        diagonal[node] += conductance
    rows.extend(range(n))
    cols.extend(range(n))
    data.extend(diagonal)
    g_matrix = sp.csc_matrix(sp.coo_matrix((data, (rows, cols)), shape=(n, n)))
    p_base = np.zeros(n)
    for node, power in network.source_items():
        p_base[node] += power
    for node, conductance in ground.items():
        p_base[node] += conductance * ambient_k
    joule = np.zeros(n)
    for node, coefficient in network.joule_items():
        joule[node] += coefficient
    d_diagonal = np.zeros(n)
    for node, alpha in network.peltier_items():
        d_diagonal[node] = alpha
    ground_vector = np.zeros(n)
    for node, conductance in ground.items():
        ground_vector[node] = conductance
    lattice = extract_lattice(network, grid_shape) if grid_shape is not None else None
    return AssembledSystem(
        g_matrix=g_matrix, d_diagonal=d_diagonal, p_base=p_base, joule=joule,
        ambient_k=ambient_k, lattice=lattice, ground=ground_vector,
    )


# ----------------------------------------------------------------------
# The package build, one element at a time
# ----------------------------------------------------------------------


def _die_exit_resistance(model, flat):
    die = model.stack.conduction_layers()[0]
    r_die_exit = die.vertical_generation_resistance(model.grid.tile_area)
    if model._die_k_scale is None:
        return r_die_exit
    return r_die_exit / model._die_k_scale[flat]


def _stamp_tile(model, net, flat, silicon_node, spreader_node, lattice_tile=None):
    spreader = model.stack.conduction_layers()[2]
    return stamp_tec(
        net, model.device,
        silicon_node=silicon_node, spreader_node=spreader_node, tile=flat,
        lattice_tile=lattice_tile,
        cold_series_resistance=_die_exit_resistance(model, flat),
        hot_series_resistance=spreader.vertical_half_resistance(model.grid.tile_area),
    )


def _build_core(model, net, tec_set):
    grid = model.grid
    die, tim, spreader, sink = model.stack.conduction_layers()
    tile_area = grid.tile_area
    silicon = [
        net.add_node("die[{}]".format(flat), NodeRole.SILICON, tile=flat)
        for flat, _, _ in grid.iter_tiles()
    ]
    tim_nodes = {}
    for flat, _, _ in grid.iter_tiles():
        if flat not in tec_set:
            tim_nodes[flat] = net.add_node("tim[{}]".format(flat), NodeRole.TIM, tile=flat)
    spreader_nodes = [
        net.add_node("spr[{}]".format(flat), NodeRole.SPREADER, tile=flat)
        for flat, _, _ in grid.iter_tiles()
    ]
    sink_nodes = [
        net.add_node("snk[{}]".format(flat), NodeRole.SINK, tile=flat)
        for flat, _, _ in grid.iter_tiles()
    ]
    for flat, _, _ in grid.iter_tiles():
        if model.power_map[flat] > 0.0:
            net.add_source(silicon[flat], model.power_map[flat])
    scale = model._die_k_scale
    for a, b, pitch, face in grid.iter_lateral_pairs():
        value = die.lateral_conductance(face, pitch)
        if scale is not None:
            sa, sb = scale[a], scale[b]
            value = value * (2.0 * sa * sb / (sa + sb))
        net.add_conductance(silicon[a], silicon[b], value)
    for layer, nodes in ((spreader, spreader_nodes), (sink, sink_nodes)):
        for a, b, pitch, face in grid.iter_lateral_pairs():
            net.add_conductance(nodes[a], nodes[b], layer.lateral_conductance(face, pitch))
    for a, b, pitch, face in grid.iter_lateral_pairs():
        if a in tim_nodes and b in tim_nodes:
            net.add_conductance(tim_nodes[a], tim_nodes[b], tim.lateral_conductance(face, pitch))
    tim_half = tim.vertical_half_resistance(tile_area)
    g_tim_spr = 1.0 / (tim_half + spreader.vertical_half_resistance(tile_area))
    g_spr_snk = 1.0 / (
        spreader.vertical_half_resistance(tile_area) + sink.vertical_half_resistance(tile_area)
    )
    for flat, _, _ in grid.iter_tiles():
        if flat in tim_nodes:
            g_die_tim = 1.0 / (_die_exit_resistance(model, flat) + tim_half)
            net.add_conductance(silicon[flat], tim_nodes[flat], g_die_tim)
            net.add_conductance(tim_nodes[flat], spreader_nodes[flat], g_tim_spr)
        net.add_conductance(spreader_nodes[flat], sink_nodes[flat], g_spr_snk)
    return silicon, spreader_nodes, sink_nodes


def _build_composite_core(model, net, tec_set):
    grid = model.grid
    layout = model.layout
    bounding = grid.bounding_grid()
    die, tim, spreader, sink = model.stack.conduction_layers()
    interposer = model.interposer_layer
    tile_area = grid.tile_area
    lattice_of = [grid.lattice_index(flat) for flat in range(grid.num_tiles)]
    silicon = []
    for flat, chiplet, _, _ in grid.iter_tiles():
        name = layout.chiplets[chiplet].name
        silicon.append(net.add_node(
            "die[{}:{}]".format(name, flat), NodeRole.SILICON,
            tile=lattice_of[flat], chiplet=chiplet,
        ))
    tim_nodes = {}
    for flat, chiplet, _, _ in grid.iter_tiles():
        if flat not in tec_set:
            name = layout.chiplets[chiplet].name
            tim_nodes[flat] = net.add_node(
                "tim[{}:{}]".format(name, flat), NodeRole.TIM,
                tile=lattice_of[flat], cover_tile=flat, chiplet=chiplet,
            )
    interposer_nodes = None
    if interposer is not None:
        interposer_nodes = [
            net.add_node("itp[{}]".format(lat), NodeRole.INTERPOSER, tile=lat)
            for lat, _, _ in bounding.iter_tiles()
        ]
    spreader_nodes = [
        net.add_node("spr[{}]".format(lat), NodeRole.SPREADER, tile=lat)
        for lat, _, _ in bounding.iter_tiles()
    ]
    sink_nodes = [
        net.add_node("snk[{}]".format(lat), NodeRole.SINK, tile=lat)
        for lat, _, _ in bounding.iter_tiles()
    ]
    for flat in range(grid.num_tiles):
        if model.power_map[flat] > 0.0:
            net.add_source(silicon[flat], model.power_map[flat])
    for chiplet, cgrid in enumerate(grid.grids):
        offset = grid.block_offset(chiplet)
        for a, b, pitch, face in cgrid.iter_lateral_pairs():
            net.add_conductance(
                silicon[offset + a], silicon[offset + b], die.lateral_conductance(face, pitch)
            )
    shared_layers = [(spreader, spreader_nodes), (sink, sink_nodes)]
    if interposer_nodes is not None:
        shared_layers.insert(0, (interposer, interposer_nodes))
    for layer, nodes in shared_layers:
        for a, b, pitch, face in bounding.iter_lateral_pairs():
            net.add_conductance(nodes[a], nodes[b], layer.lateral_conductance(face, pitch))
    for chiplet, cgrid in enumerate(grid.grids):
        offset = grid.block_offset(chiplet)
        for a, b, pitch, face in cgrid.iter_lateral_pairs():
            ga, gb = offset + a, offset + b
            if ga in tim_nodes and gb in tim_nodes:
                net.add_conductance(
                    tim_nodes[ga], tim_nodes[gb], tim.lateral_conductance(face, pitch)
                )
    tim_half = tim.vertical_half_resistance(tile_area)
    g_tim_spr = 1.0 / (tim_half + spreader.vertical_half_resistance(tile_area))
    g_spr_snk = 1.0 / (
        spreader.vertical_half_resistance(tile_area) + sink.vertical_half_resistance(tile_area)
    )
    for flat in range(grid.num_tiles):
        lat = lattice_of[flat]
        if flat in tim_nodes:
            g_die_tim = 1.0 / (_die_exit_resistance(model, flat) + tim_half)
            net.add_conductance(silicon[flat], tim_nodes[flat], g_die_tim)
            net.add_conductance(tim_nodes[flat], spreader_nodes[lat], g_tim_spr)
        if interposer_nodes is not None:
            net.add_conductance(
                silicon[flat], interposer_nodes[lat], layout.interposer.microbump_conductance
            )
    for lat in range(bounding.num_tiles):
        net.add_conductance(spreader_nodes[lat], sink_nodes[lat], g_spr_snk)
    if interposer_nodes is not None and layout.interposer.board_resistance is not None:
        g_board = 1.0 / (layout.interposer.board_resistance * bounding.num_tiles)
        for lat in range(bounding.num_tiles):
            net.add_ground_conductance(interposer_nodes[lat], g_board)
    return silicon, spreader_nodes, sink_nodes


def _build_periphery(model, net, spreader_nodes, sink_nodes, grid):
    stack = model.stack
    _, _, spreader, sink = stack.conduction_layers()
    die_w, die_h = model._die_side_w, model._die_side_h
    spr_side = spreader.side or max(die_w, die_h)
    snk_side = sink.side or spr_side
    spr_overhang_w = max(0.0, 0.5 * (spr_side - die_w))
    spr_overhang_h = max(0.0, 0.5 * (spr_side - die_h))
    snk_overhang = max(0.0, 0.5 * (snk_side - spr_side))
    factor = model.SPREADING_FACTOR

    def _trapezoid(inner_edge, outer_edge, depth):
        return 0.5 * (inner_edge + outer_edge) * depth

    spr_area, snk_inner_area, snk_outer_area = {}, {}, {}
    for side in _SIDES:
        horizontal = side in ("north", "south")
        inner_edge = die_w if horizontal else die_h
        overhang = spr_overhang_h if horizontal else spr_overhang_w
        if overhang > 0.0:
            spr_area[side] = _trapezoid(inner_edge, spr_side, overhang)
            snk_inner_area[side] = spr_area[side]
        if snk_overhang > 0.0:
            snk_outer_area[side] = _trapezoid(spr_side, snk_side, snk_overhang)
    spr_periphery, snk_inner, snk_outer = {}, {}, {}
    for side in _SIDES:
        overhang = spr_overhang_h if side in ("north", "south") else spr_overhang_w
        if overhang > 0.0:
            spr_periphery[side] = net.add_node(
                "spr.periphery.{}".format(side), NodeRole.SPREADER_PERIPHERY,
                area=spr_area[side],
            )
            snk_inner[side] = net.add_node(
                "snk.inner.{}".format(side), NodeRole.SINK_PERIPHERY,
                area=snk_inner_area[side],
            )
        if snk_overhang > 0.0:
            snk_outer[side] = net.add_node(
                "snk.outer.{}".format(side), NodeRole.SINK_PERIPHERY,
                area=snk_outer_area[side],
            )
    for layer, nodes, rings in ((spreader, spreader_nodes, spr_periphery),
                                (sink, sink_nodes, snk_inner)):
        for side in _SIDES:
            if side not in rings:
                continue
            horizontal = side in ("north", "south")
            overhang = spr_overhang_h if horizontal else spr_overhang_w
            pitch = grid.tile_height if horizontal else grid.tile_width
            face = grid.tile_width if horizontal else grid.tile_height
            distance = 0.5 * pitch + factor * overhang
            for flat in grid.boundary_tiles(side):
                g = layer.material.conductance(face * layer.thickness, distance)
                net.add_conductance(nodes[flat], rings[side], g)
    for side, area in spr_area.items():
        g = 1.0 / (spreader.vertical_half_resistance(area) + sink.vertical_half_resistance(area))
        net.add_conductance(spr_periphery[side], snk_inner[side], g)
    for side in _SIDES:
        if side not in snk_outer:
            continue
        if side in snk_inner:
            horizontal = side in ("north", "south")
            overhang = spr_overhang_h if horizontal else spr_overhang_w
            distance = factor * (overhang + snk_overhang)
            g = sink.material.conductance(spr_side * sink.thickness, distance)
            net.add_conductance(snk_inner[side], snk_outer[side], g)
        else:
            for flat in grid.boundary_tiles(side):
                face = grid.tile_width if side in ("north", "south") else grid.tile_height
                g = sink.material.conductance(face * sink.thickness, 0.5 * snk_overhang)
                net.add_conductance(sink_nodes[flat], snk_outer[side], g)
    total_conductance = 1.0 / stack.convection_resistance
    total_area = grid.area + sum(snk_inner_area.values()) + sum(snk_outer_area.values())
    per_tile = total_conductance * (grid.tile_area / total_area)
    for flat, _, _ in grid.iter_tiles():
        net.add_ground_conductance(sink_nodes[flat], per_tile)
    for side, node in snk_inner.items():
        net.add_ground_conductance(node, total_conductance * snk_inner_area[side] / total_area)
    for side, node in snk_outer.items():
        net.add_ground_conductance(node, total_conductance * snk_outer_area[side] / total_area)


def build_network(model):
    """The model's package network built element by element.

    Reads the model's geometry, stack, device, powers, deployment and
    die conductivity scale; returns ``(network, stamps)``.
    """
    net = ThermalNetwork()
    tec_set = set(model.tec_tiles)
    stamps = []
    if isinstance(model, CompositeThermalModel):
        bounding = model.grid.bounding_grid()
        silicon, spreader_nodes, sink_nodes = _build_composite_core(model, net, tec_set)
        for flat in model.tec_tiles:
            lat = model.grid.lattice_index(flat)
            stamps.append(_stamp_tile(
                model, net, flat, silicon[flat], spreader_nodes[lat], lattice_tile=lat
            ))
        _build_periphery(model, net, spreader_nodes, sink_nodes, bounding)
    else:
        silicon, spreader_nodes, sink_nodes = _build_core(model, net, tec_set)
        for flat in model.tec_tiles:
            stamps.append(_stamp_tile(model, net, flat, silicon[flat], spreader_nodes[flat]))
        _build_periphery(model, net, spreader_nodes, sink_nodes, model.grid)
    return net, stamps


def build_system(model):
    """``(network, stamps, system)`` of the element-wise build of ``model``."""
    net, stamps = build_network(model)
    system = assemble(net, model.stack.ambient_c, grid_shape=(model.grid.rows, model.grid.cols))
    return net, stamps, system


def node_capacitances(model, network):
    """Per-node capacitances walking the oracle network's nodes."""
    from repro.thermal.materials import BISMUTH_TELLURIDE_SUPERLATTICE

    gridded = {NodeRole.SILICON: "die", NodeRole.TIM: "tim",
               NodeRole.SPREADER: "spreader", NodeRole.SINK: "sink"}
    periphery = {NodeRole.SPREADER_PERIPHERY: "spreader",
                 NodeRole.SINK_PERIPHERY: "sink"}
    layers = {layer.name: layer for layer in model.stack.conduction_layers()}
    tile_area = model.grid.tile_area
    capacitance = np.zeros(network.num_nodes)
    for index, node in enumerate(network.nodes):
        if node.role in gridded:
            layer = layers[gridded[node.role]]
            capacitance[index] = (
                layer.material.volumetric_heat_capacity * tile_area * layer.thickness
            )
        elif node.role in periphery:
            layer = layers[periphery[node.role]]
            area = node.meta.get("area", tile_area)
            capacitance[index] = (
                layer.material.volumetric_heat_capacity * area * layer.thickness
            )
        elif node.role is NodeRole.INTERPOSER:
            interposer = getattr(model, "interposer_layer", None)
            if interposer is None:
                capacitance[index] = 1.0e-6
            else:
                capacitance[index] = (
                    interposer.material.volumetric_heat_capacity
                    * tile_area * interposer.thickness
                )
        elif node.role in (NodeRole.TEC_HOT, NodeRole.TEC_COLD):
            film_volume = model.device.footprint * 1.5e-5
            capacitance[index] = (
                0.5 * BISMUTH_TELLURIDE_SUPERLATTICE.volumetric_heat_capacity * film_volume
            )
        else:
            capacitance[index] = 1.0e-6
    return capacitance
