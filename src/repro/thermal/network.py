"""Node roles and the node view of an assembled package network.

Heat transfer is treated through its electrical dual (Section IV.A):
heat flow is "current" through thermal conductances, temperatures are
node "voltages" against a ground at absolute zero, power dissipation is
a current source, and the ambient is a constant voltage source that is
eliminated into the right-hand side during assembly.

The network itself only ever exists as arrays: a
:class:`~repro.thermal.assembly.NetworkBlueprint` records the package
once and instantiates the ``(G, D, p_base, joule)`` matrices of
Equation (4) for any deployment.  :class:`NetworkNodes` is the per-node
side of one instance — role codes and lattice tiles, with names derived
on demand.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.utils.validate import check_index


class NodeRole(enum.Enum):
    """Classification of network nodes.

    ``SILICON`` nodes are the paper's set SIL (the tiles whose peak
    temperature the optimization constrains); ``TEC_HOT`` / ``TEC_COLD``
    are HOT / CLD.  The remaining roles exist for reporting and for the
    layered builder; the matrices do not distinguish them.
    """

    SILICON = "silicon"
    TIM = "tim"
    INTERPOSER = "interposer"
    SPREADER = "spreader"
    SPREADER_PERIPHERY = "spreader-periphery"
    SINK = "sink"
    SINK_PERIPHERY = "sink-periphery"
    TEC_HOT = "tec-hot"
    TEC_COLD = "tec-cold"
    OTHER = "other"


#: Every role in declaration order; a node's role code indexes this.
ROLES = tuple(NodeRole)

#: Role -> the int8 code stored in :attr:`NetworkNodes.roles`.
ROLE_CODES = {role: code for code, role in enumerate(ROLES)}

_PREFIXES = {
    NodeRole.SILICON: "die",
    NodeRole.TIM: "tim",
    NodeRole.INTERPOSER: "itp",
    NodeRole.SPREADER: "spr",
    NodeRole.SINK: "snk",
}


class NetworkNodes:
    """Read-only view of the nodes of one assembled network.

    Attributes
    ----------
    roles:
        int8 role code per node (``ROLES[code]`` is the
        :class:`NodeRole`).
    tiles:
        Bounding-lattice tile per gridded or TEC node, ``-1`` for the
        periphery rings.
    rings:
        ``{node: (name, area)}`` for the periphery ring nodes, ``area``
        being the ring's footprint in m^2.

    ``chiplet_names`` (composite layouts only) names each chiplet, and
    ``flat_of_tile`` maps a lattice tile back to its global flat tile;
    both only feed :meth:`node_name`.
    """

    def __init__(self, roles, tiles, rings, *, chiplet_names=None,
                 chiplet_of_flat=None, flat_of_tile=None):
        self.roles = roles
        self.tiles = tiles
        self.rings = rings
        self._chiplet_names = chiplet_names
        self._chiplet_of_flat = chiplet_of_flat
        self._flat_of_tile = flat_of_tile

    def __len__(self):
        return self.roles.size

    def role(self, index):
        """The :class:`NodeRole` of node ``index``."""
        index = check_index(index, "index", len(self))
        return ROLES[self.roles[index]]

    def indices_with_role(self, role):
        """All node indices whose role is ``role``, ascending."""
        return np.flatnonzero(self.roles == ROLE_CODES[role])

    def node_name(self, index):
        """Name of node ``index`` (``die[5]``, ``tec[5].cold``, ...)."""
        index = check_index(index, "index", len(self))
        ring = self.rings.get(index)
        if ring is not None:
            return ring[0]
        role = ROLES[self.roles[index]]
        tile = int(self.tiles[index])
        flat = tile if self._flat_of_tile is None else int(self._flat_of_tile[tile])
        if role is NodeRole.TEC_COLD:
            return "tec[{}].cold".format(flat)
        if role is NodeRole.TEC_HOT:
            return "tec[{}].hot".format(flat)
        prefix = _PREFIXES.get(role, "node")
        if self._chiplet_names is not None and role in (NodeRole.SILICON, NodeRole.TIM):
            name = self._chiplet_names[self._chiplet_of_flat[flat]]
            return "{}[{}:{}]".format(prefix, name, flat)
        return "{}[{}]".format(prefix, tile)
