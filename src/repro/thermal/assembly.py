"""Assembly of the nodal equations ``(G - i D) theta = p(i)``.

This module builds the matrices of Equation (4)/(5) of the paper:

* ``G``: symmetric conductance matrix.  Off-diagonals are ``-g_kl``;
  diagonals are the sum of incident conductances *including* the
  conductance to the ambient voltage source (eliminating the ambient
  node keeps ``G`` positive definite — Lemma 1).
* ``D``: diagonal Peltier coupling matrix (``+alpha`` at hot nodes,
  ``-alpha`` at cold nodes).
* ``p(i) = p_base + i^2 * joule``: the power vector; ``p_base``
  carries the tile powers plus the ambient contribution
  ``g_ground * theta_ambient``, and ``joule`` carries the TEC
  ``r/2`` coefficients.

A package network is recorded once, as NumPy arrays, in a
:class:`NetworkBlueprint`: every node of the package with every TIM
tile present, the conductance edge list in build order, the ground,
source and Joule terms, and one TEC stamp template vectorized over all
tiles.  :meth:`NetworkBlueprint.instantiate` turns it into the
:class:`AssembledSystem` of any deployment with a handful of array
operations — no per-element Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.linalg.multigrid import LatticeGeometry
from repro.tec.stamp import TecStamp, stamp_conductances
from repro.thermal.network import ROLE_CODES, ROLES, NetworkNodes, NodeRole
from repro.utils import celsius_to_kelvin

#: Node roles that live on the tile lattice, with the layer id each
#: maps to in the :class:`~repro.linalg.multigrid.LatticeGeometry`
#: handed to the multigrid backend.  TIM and the TEC membrane occupy
#: distinct ids even though they share the physical gap — the stencil
#: probes vertical couplings between every layer pair, so holes in
#: either (covered vs. uncovered tiles) cost nothing.
_LATTICE_LAYERS = {
    NodeRole.SILICON: 0,
    NodeRole.TEC_COLD: 1,
    NodeRole.TEC_HOT: 2,
    NodeRole.TIM: 3,
    NodeRole.SPREADER: 4,
    NodeRole.SINK: 5,
    NodeRole.INTERPOSER: 6,
}
_LAYER_OF_CODE = np.array([_LATTICE_LAYERS.get(role, -1) for role in ROLES])

#: Edge kinds: plain conductances, and the two whose value depends on
#: the per-tile die conductivity scale (die lateral edges, die-to-TIM
#: verticals).  The third scale-bound value, a TEC's cold contact, lives
#: in the stamp template.
PLAIN, DIE_LATERAL, DIE_TIM = 0, 1, 2


def extract_lattice(roles, tiles, grid_shape):
    """Map a network's nodes onto a :class:`LatticeGeometry`.

    ``roles`` are role codes and ``tiles`` lattice tiles per node (see
    :class:`~repro.thermal.network.NetworkNodes`).  Every node of a
    gridded role with a tile inside the grid is placed at
    (layer-of-role, tile); everything else — periphery rings, lumped
    extras — stays off-lattice (``-1``) and rides through the
    multigrid coarsening as singleton aggregates.  A duplicate
    (layer, tile) claim keeps the first node and demotes the rest
    off-lattice, so irregular future stacks degrade gracefully instead
    of corrupting the stencil.
    """
    rows, cols = int(grid_shape[0]), int(grid_shape[1])
    size = rows * cols
    layer = _LAYER_OF_CODE[roles].astype(np.int64)
    tile = np.asarray(tiles, dtype=np.int64).copy()
    placed = (layer >= 0) & (tile >= 0) & (tile < size)
    key = np.where(placed, layer * size + tile, 0)
    claims = np.bincount(key[placed], minlength=1)
    if claims.max(initial=0) > 1:
        first = np.full(claims.size, layer.size)
        np.minimum.at(first, key[placed], np.flatnonzero(placed))
        placed &= first[key] == np.arange(layer.size)
    layer[~placed] = -1
    tile[~placed] = -1
    return LatticeGeometry(rows=rows, cols=cols, layer=layer, tile=tile)


@dataclass(frozen=True)
class AssembledSystem:
    """The assembled steady-state system.

    Attributes
    ----------
    g_matrix:
        Sparse CSC conductance matrix ``G`` (n x n).
    d_diagonal:
        The diagonal of ``D`` as a dense length-n vector (mostly zero).
    p_base:
        Constant part of the power vector (tile power + ambient term).
    joule:
        Per-node coefficients of the ``i^2`` power term (W / A^2).
    ambient_k:
        Ambient temperature (Kelvin) folded into ``p_base``.
    lattice:
        Optional :class:`~repro.linalg.multigrid.LatticeGeometry`
        describing the layered tile-lattice placement of the nodes.
        The ``mg`` backend coarsens geometrically and applies the
        operator matrix-free through it; without it multigrid falls
        back to algebraic pairwise aggregation.
    ground:
        Per-node conductance to the ambient source (W/K); the heat
        convected out of a state ``theta`` is
        ``ground @ (theta - ambient_k)``.
    """

    g_matrix: sp.csc_matrix
    d_diagonal: np.ndarray
    p_base: np.ndarray
    joule: np.ndarray
    ambient_k: float
    lattice: LatticeGeometry | None = None
    ground: np.ndarray | None = None

    @property
    def num_nodes(self):
        return self.g_matrix.shape[0]

    def d_matrix(self):
        """``D`` as a sparse diagonal matrix."""
        return sp.diags(self.d_diagonal)

    def _support_positions(self):
        """CSC data positions of ``G``'s diagonal on ``D``'s support.

        Computed lazily once; lets :meth:`system_matrix` form
        ``G - i D`` by patching a copy of ``G.data`` instead of going
        through sparse subtraction (``D`` never adds structure because
        every node's diagonal is populated).
        """
        cached = getattr(self, "_support_pos_cache", None)
        if cached is None:
            support = np.flatnonzero(self.d_diagonal)
            indptr = self.g_matrix.indptr
            indices = self.g_matrix.indices
            positions = np.empty(support.size, dtype=np.int64)
            for j, k in enumerate(support):
                start, stop = indptr[k], indptr[k + 1]
                offset = np.searchsorted(indices[start:stop], k)
                positions[j] = start + offset
            cached = (support, positions)
            object.__setattr__(self, "_support_pos_cache", cached)
        return cached

    def system_matrix(self, current):
        """``G - i D`` for supply current ``current`` (CSC).

        The result shares ``G``'s sparsity structure (index arrays are
        reused; only the data vector is copied and patched on the
        Peltier support), so repeated calls across currents are cheap.
        """
        current = float(current)
        if current == 0.0 or not np.any(self.d_diagonal):
            return self.g_matrix
        support, positions = self._support_positions()
        data = self.g_matrix.data.copy()
        data[positions] -= current * self.d_diagonal[support]
        return sp.csc_matrix(
            (data, self.g_matrix.indices, self.g_matrix.indptr),
            shape=self.g_matrix.shape,
        )

    def power_vector(self, current):
        """``p(i) = p_base + i^2 * joule``."""
        current = float(current)
        if current == 0.0 or not np.any(self.joule):
            return self.p_base
        return self.p_base + current * current * self.joule


def _check_nodes(nodes, num_nodes, name):
    nodes = np.atleast_1d(np.asarray(nodes, dtype=np.int64))
    if nodes.size and (nodes.min() < 0 or nodes.max() >= num_nodes):
        raise IndexError("{} out of range [0, {})".format(name, num_nodes))
    return nodes


def _check_values(values, shape, name, *, positive):
    values = np.broadcast_to(np.asarray(values, dtype=float), shape)
    bad = ~np.isfinite(values) | ((values <= 0.0) if positive else (values < 0.0))
    if np.any(bad):
        raise ValueError(
            "{} must be {} finite numbers, got {!r}".format(
                name, "positive" if positive else "non-negative",
                float(values[bad][0]),
            )
        )
    return values


class NetworkBlueprint:
    """A package network recorded once as NumPy arrays.

    The model builders record, in build order:

    * nodes by role with their lattice ``tile`` (TIM nodes also with
      the ``cover_tile`` whose TEC displaces them) and the periphery
      ring nodes with their names and footprint areas;
    * the conductance edge list ``(a, b, g)``, each edge with a kind
      and tile payload when its value depends on the die conductivity
      scale (:data:`DIE_LATERAL`, :data:`DIE_TIM`);
    * ground conductances and constant heat sources;
    * the **stamp section**: a marker at the current node and edge
      counts, plus one TEC stamp template vectorized over all tiles
      (2 nodes, 3 edges, 2 Joule and 2 Peltier entries per tile).

    Every TIM tile is present and no TEC is stamped; values are
    recorded at unit die conductivity scale.  :meth:`instantiate` then
    assembles any deployment: TIM nodes of covered tiles and their
    edges are masked out, nodes renumbered by a cumulative sum, the
    covered tiles' stamp rows inserted at the marker in sorted tile
    order, and the matrices formed with sequential ``np.bincount``.
    Node order, edge order and the order of every per-node summation
    equal those of an element-by-element build of the same deployment,
    so the result is bitwise identical to one.
    """

    def __init__(self, *, num_tiles, lattice_shape, ambient_c, naming=None):
        self.num_tiles = int(num_tiles)
        self.lattice_shape = (int(lattice_shape[0]), int(lattice_shape[1]))
        self.ambient_c = float(ambient_c)
        self._naming = dict(naming or {})
        self._num_nodes = 0
        self._chunks = {key: [] for key in (
            "roles", "tiles", "edge_a", "edge_b", "edge_g", "edge_kind",
            "edge_tile_a", "edge_tile_b", "ground_node", "ground_g",
            "source_node", "source_p",
        )}
        self._num_edges = 0
        self._rings = {}
        self._tim_node = np.full(self.num_tiles, -1, dtype=np.int64)
        self._die_exit = None
        self._stamp = None
        self._frozen = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _append(self, **arrays):
        if self._frozen:
            raise RuntimeError("blueprint is frozen; it has been instantiated")
        for key, value in arrays.items():
            self._chunks[key].append(value)

    def add_nodes(self, role, tiles, *, cover_tiles=None):
        """Add one node of ``role`` per entry of ``tiles``.

        ``tiles`` are the nodes' bounding-lattice tiles; for TIM nodes
        ``cover_tiles`` names the deployable (global flat) tile whose
        TEC displaces each node.  Returns the new node indices.
        """
        tiles = np.asarray(tiles, dtype=np.int64)
        nodes = np.arange(self._num_nodes, self._num_nodes + tiles.size)
        self._append(roles=np.full(tiles.size, ROLE_CODES[role], dtype=np.int8),
                     tiles=tiles)
        if cover_tiles is not None:
            self._tim_node[np.asarray(cover_tiles, dtype=np.int64)] = nodes
        self._num_nodes += tiles.size
        return nodes

    def add_ring(self, name, role, area):
        """Add one off-lattice periphery node; returns its index."""
        node = self._num_nodes
        self._append(roles=np.array([ROLE_CODES[role]], dtype=np.int8),
                     tiles=np.array([-1], dtype=np.int64))
        self._rings[node] = (str(name), float(area))
        self._num_nodes += 1
        return node

    def set_die_exit(self, r_die_exit, tim_half):
        """The unscaled die exit and TIM half resistances (K/W).

        The payload of the die-scale bound values: a :data:`DIE_TIM`
        edge is ``1 / (r_die_exit / s + tim_half)`` and a TEC's cold
        contact ``1 / (1 / g_c + r_die_exit / s)`` at die scale ``s``.
        """
        self._die_exit = (float(r_die_exit), float(tim_half))

    def add_conductances(self, a, b, g, *, kind=None, tile_a=None, tile_b=None):
        """Add conductances ``g`` (W/K) between nodes ``a`` and ``b``.

        ``kind`` (per edge, default plain) marks die-scale bound edges;
        ``tile_a`` / ``tile_b`` carry the tiles whose scale feeds them.
        """
        a, b = np.broadcast_arrays(
            _check_nodes(a, self._num_nodes, "conductance endpoint a"),
            _check_nodes(b, self._num_nodes, "conductance endpoint b"),
        )
        if np.any(a == b):
            raise ValueError("conductance endpoints must differ")
        g = _check_values(g, a.shape, "conductance", positive=True)
        minus = np.full(a.shape, -1, dtype=np.int64)
        self._append(
            edge_a=a, edge_b=b, edge_g=np.array(g),
            edge_kind=np.broadcast_to(
                np.asarray(PLAIN if kind is None else kind, dtype=np.int8), a.shape
            ),
            edge_tile_a=minus if tile_a is None else np.broadcast_to(tile_a, a.shape),
            edge_tile_b=minus if tile_b is None else np.broadcast_to(tile_b, a.shape),
        )
        self._num_edges += a.size

    def add_ground(self, nodes, g):
        """Add conductances ``g`` (W/K) from ``nodes`` to the ambient."""
        nodes = _check_nodes(nodes, self._num_nodes, "ground node")
        g = _check_values(g, nodes.shape, "ground conductance", positive=True)
        self._append(ground_node=nodes, ground_g=np.array(g))

    def add_sources(self, nodes, power):
        """Add constant heat sources (W, >= 0); zero entries are dropped."""
        nodes = _check_nodes(nodes, self._num_nodes, "source node")
        power = _check_values(power, nodes.shape, "power", positive=False)
        keep = power > 0.0
        self._append(source_node=nodes[keep], source_p=np.array(power[keep]))

    def add_stamp_section(self, device, *, silicon, spreader, tiles,
                          hot_series_resistance):
        """Mark the stamp section and record the TEC stamp template.

        ``silicon`` / ``spreader`` / ``tiles`` give, per deployable tile
        (global flat order), the silicon and spreader nodes a TEC there
        contacts and the lattice tile its two nodes sit on.  The cold
        contact carries the die exit resistance in series (see
        :meth:`set_die_exit`), the hot contact ``hot_series_resistance``
        — the lumping the TIM path a device replaces would also carry.
        """
        if self._stamp is not None:
            raise RuntimeError("stamp section already recorded")
        if self._die_exit is None:
            raise RuntimeError("set_die_exit must precede the stamp section")
        silicon = _check_nodes(silicon, self._num_nodes, "stamp silicon node")
        spreader = _check_nodes(spreader, self._num_nodes, "stamp spreader node")
        if silicon.shape != (self.num_tiles,) or spreader.shape != silicon.shape:
            raise ValueError("stamp template needs one entry per tile")
        g_cold, g_hot = stamp_conductances(
            device,
            cold_series_resistance=self._die_exit[0],
            hot_series_resistance=hot_series_resistance,
        )
        self._stamp = {
            "device": device,
            "nodes_at": self._num_nodes,
            "edges_at": self._num_edges,
            "silicon": silicon,
            "spreader": spreader,
            "tiles": np.asarray(tiles, dtype=np.int64),
            "g_cold": g_cold,
            "g_hot": g_hot,
        }

    def _freeze(self):
        if self._frozen:
            return
        if self._stamp is None:
            raise RuntimeError("blueprint has no stamp section")
        if np.any(self._tim_node < 0):
            raise RuntimeError("every deployable tile needs a TIM node")
        empty = {"roles": np.int8, "edge_kind": np.int8, "edge_g": float,
                 "ground_g": float, "source_p": float}
        for key, chunks in self._chunks.items():
            setattr(self, "_" + key, np.concatenate(
                chunks if chunks else [np.empty(0, empty.get(key, np.int64))]
            ))
        self._chunks = None
        self._lateral = np.flatnonzero(self._edge_kind == DIE_LATERAL)
        self._die_tim = np.flatnonzero(self._edge_kind == DIE_TIM)
        del self._edge_kind
        self._frozen = True

    # ------------------------------------------------------------------
    # Instantiation
    # ------------------------------------------------------------------

    def instantiate(self, tec_tiles, die_conductivity_scale=None):
        """Assemble the network of one deployment.

        Returns ``(system, stamps, nodes)``: the
        :class:`AssembledSystem`, the
        :class:`~repro.tec.stamp.TecStamp` records ordered by tile and
        the :class:`~repro.thermal.network.NetworkNodes` view.

        ``die_conductivity_scale`` (per-tile positive factors, flat
        row-major) recomputes every die-scale bound value with the
        builder's float expressions; ``None`` is unit scale.
        """
        self._freeze()
        covered = np.unique(np.asarray(list(tec_tiles), dtype=np.int64))
        if covered.size and (covered[0] < 0 or covered[-1] >= self.num_tiles):
            raise ValueError(
                "TEC tiles out of range [0, {})".format(self.num_tiles)
            )
        stamp = self._stamp
        k, base_nodes, at = covered.size, self._num_nodes, stamp["nodes_at"]

        # Nodes: drop covered TIM tiles, open 2k slots at the marker.
        keep = np.ones(base_nodes, dtype=bool)
        keep[self._tim_node[covered]] = False
        new = np.cumsum(keep) - 1
        kept_core = int(new[at - 1]) + 1 if at else 0
        new[at:] += 2 * k
        new[~keep] = -1
        n = base_nodes + k
        cold = kept_core + 2 * np.arange(k, dtype=np.int64)
        hot = cold + 1

        # Edges: the recorded list minus edges into dropped nodes, the
        # stamp rows spliced in at the marker.
        g = self._edge_g
        scale = None
        if die_conductivity_scale is not None:
            scale = np.asarray(die_conductivity_scale, dtype=float)
            g = g.copy()
            lateral = self._lateral
            sa = scale[self._edge_tile_a[lateral]]
            sb = scale[self._edge_tile_b[lateral]]
            g[lateral] = g[lateral] * (2.0 * sa * sb / (sa + sb))
            r_die_exit, tim_half = self._die_exit
            die_tim = self._die_tim
            g[die_tim] = 1.0 / (
                r_die_exit / scale[self._edge_tile_a[die_tim]] + tim_half
            )
        g_cold = np.broadcast_to(stamp["g_cold"], k)
        if scale is not None:
            g_cold = stamp_conductances(
                stamp["device"],
                cold_series_resistance=self._die_exit[0] / scale[covered],
            )[0]
        a, b = new[self._edge_a], new[self._edge_b]
        live = (a >= 0) & (b >= 0)
        split = stamp["edges_at"]
        device = stamp["device"]

        def splice(recorded, *stamped):
            # Per stamped tile: silicon-cold, hot-spreader, cold-hot.
            return np.concatenate([
                recorded[:split][live[:split]],
                np.stack(np.broadcast_arrays(*stamped), axis=1).ravel(),
                recorded[split:][live[split:]],
            ])

        silicon = new[stamp["silicon"][covered]]
        spreader = new[stamp["spreader"][covered]]
        edge_a = splice(a, silicon, hot, cold)
        edge_b = splice(b, cold, spreader, hot)
        edge_g = splice(g, g_cold, stamp["g_hot"], device.thermal_conductance)

        joule = np.zeros(n)
        d_diagonal = np.zeros(n)
        joule[cold] = joule[hot] = 0.5 * device.electrical_resistance
        d_diagonal[hot] = +device.seebeck
        d_diagonal[cold] = -device.seebeck

        roles = np.empty(n, dtype=np.int8)
        roles[new[keep]] = self._roles[keep]
        roles[cold] = ROLE_CODES[NodeRole.TEC_COLD]
        roles[hot] = ROLE_CODES[NodeRole.TEC_HOT]
        tiles = np.empty(n, dtype=np.int64)
        tiles[new[keep]] = self._tiles[keep]
        tiles[cold] = tiles[hot] = stamp["tiles"][covered]
        nodes = NetworkNodes(
            roles, tiles,
            {int(new[node]): ring for node, ring in self._rings.items()},
            **self._naming,
        )
        system = _assemble(
            n, edge_a, edge_b, edge_g,
            new[self._ground_node], self._ground_g,
            new[self._source_node], self._source_p,
            joule, d_diagonal,
            celsius_to_kelvin(self.ambient_c),
            extract_lattice(roles, tiles, self.lattice_shape),
        )
        stamps = [
            TecStamp(tile=int(tile), hot_node=int(h), cold_node=int(c), device=device)
            for tile, h, c in zip(covered, hot, cold)
        ]
        return system, stamps, nodes


def _assemble(n, a, b, g, ground_nodes, ground_g, source_nodes, source_p,
              joule, d_diagonal, ambient_k, lattice):
    """Form ``G`` and ``p_base`` from edge, ground and source arrays.

    ``np.bincount`` adds its weights in array order, so the diagonal
    sums each node's incident conductances in edge order and then its
    ground conductance, and ``p_base`` its sources and then the ambient
    term — the summation order of an element-wise build.

    Raises
    ------
    ValueError
        If the network is empty or no node is grounded (the steady
        state would be unbounded — heat would have nowhere to go).
    """
    if n == 0:
        raise ValueError("cannot assemble an empty network")
    if ground_nodes.size == 0:
        raise ValueError(
            "network has no conductance to ambient; the steady state is undefined"
        )
    ground = np.bincount(ground_nodes, weights=ground_g, minlength=n)
    diagonal = np.bincount(
        np.stack([a, b], axis=1).ravel(), weights=np.repeat(g, 2), minlength=n
    ) + ground
    diag = np.arange(n)
    g_matrix = sp.csc_matrix(sp.coo_matrix(
        (np.concatenate([-g, -g, diagonal]),
         (np.concatenate([a, b, diag]), np.concatenate([b, a, diag]))),
        shape=(n, n),
    ))
    if g_matrix.nnz != 2 * g.size + n:
        # The conversion merged entries: some pair carries two edges,
        # and its merged value would sum in a different order.
        raise ValueError("a node pair carries two conductances; merge them")
    p_base = np.bincount(source_nodes, weights=source_p, minlength=n) + ground * ambient_k
    return AssembledSystem(
        g_matrix=g_matrix,
        d_diagonal=d_diagonal,
        p_base=p_base,
        joule=joule,
        ambient_k=ambient_k,
        lattice=lattice,
        ground=ground,
    )
