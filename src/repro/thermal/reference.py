"""Independent fine-grid finite-difference reference solver.

Plays the role HotSpot 4.1 plays in Section VI of the paper: an
independent, finer discretization of the same package physics that the
compact model is validated against ("the two results agreed closely —
the worst-case difference is less than 1.5 C").

The solver discretizes the package on a rectilinear voxel grid:

* laterally, the die footprint is subdivided ``refine`` times per tile
  (so fine cells align with tile boundaries) and the spreader/sink
  overhangs are subdivided into ``overhang_cells`` rings per side;
* vertically, each conduction layer is split into a configurable
  number of slabs;
* die and TIM voxels exist only over the die footprint, spreader
  voxels over the spreader footprint, sink voxels everywhere;
* tile power is injected volumetrically over the die voxels of the
  tile (consistent with the compact model's one-node-per-tile die
  layer), and convection is distributed over the top sink voxels by
  area.

The implementation shares **no code** with the compact model beyond
the material/stack records: conductances are formed cell-by-cell from
harmonic means, and the sparse system is assembled directly.  That
independence is what makes the validation meaningful.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from repro.thermal.geometry import TileGrid
from repro.thermal.stack import PackageStack
from repro.utils import celsius_to_kelvin, check_finite, kelvin_to_celsius


def _segment(lo, hi, cells):
    """Uniform cell edges from ``lo`` to ``hi`` (``cells`` intervals)."""
    return np.linspace(lo, hi, cells + 1)


class ReferenceGridModel:
    """Fine-grid steady-state reference solver (no TECs).

    Parameters
    ----------
    grid:
        The silicon tile grid (defines the die footprint and the
        reporting granularity).
    power_map:
        Worst-case power per tile (W), flat row-major.
    stack:
        The :class:`~repro.thermal.stack.PackageStack` shared with the
        compact model under validation.
    refine:
        Lateral subdivisions per tile over the die (>= 1).
    overhang_cells:
        Lateral cells per overhang region per side (>= 1).
    die_slabs, tim_slabs, spreader_slabs, sink_slabs:
        Vertical slabs per layer.
    """

    def __init__(
        self,
        grid,
        power_map,
        *,
        stack=None,
        refine=2,
        overhang_cells=3,
        die_slabs=2,
        tim_slabs=2,
        spreader_slabs=3,
        sink_slabs=3,
    ):
        if not isinstance(grid, TileGrid):
            raise TypeError("grid must be a TileGrid, got {!r}".format(type(grid)))
        if refine < 1 or overhang_cells < 1:
            raise ValueError("refine and overhang_cells must be >= 1")
        for name, value in (
            ("die_slabs", die_slabs),
            ("tim_slabs", tim_slabs),
            ("spreader_slabs", spreader_slabs),
            ("sink_slabs", sink_slabs),
        ):
            if value < 1:
                raise ValueError("{} must be >= 1, got {}".format(name, value))
        self.grid = grid
        self.stack = stack if stack is not None else PackageStack()
        power_map = check_finite(power_map, "power_map")
        if power_map.shape != (grid.num_tiles,):
            raise ValueError(
                "power_map must have length {}, got shape {}".format(
                    grid.num_tiles, power_map.shape
                )
            )
        self.power_map = power_map.copy()
        self.refine = int(refine)

        die, tim, spreader, sink = self.stack.conduction_layers()
        die_w, die_h = grid.width, grid.height
        # An undersized spreader/sink would silently invert the
        # overhang segments below (negative cell widths -> negative
        # resistances); fail loudly instead.
        self.stack.validate_footprints(die_w, die_h)
        spr_side = spreader.side or max(die_w, die_h)
        snk_side = sink.side or spr_side

        # ---- lateral edges (common to every layer; voxels are masked).
        self._x_edges = self._lateral_edges(die_w, spr_side, snk_side, grid.cols, overhang_cells)
        self._y_edges = self._lateral_edges(die_h, spr_side, snk_side, grid.rows, overhang_cells)
        self._dx = np.diff(self._x_edges)
        self._dy = np.diff(self._y_edges)
        # Offsets of the die region within the lateral grid.
        self._die_x0 = self._die_offset(die_w, spr_side, snk_side, overhang_cells)
        self._die_y0 = self._die_offset(die_h, spr_side, snk_side, overhang_cells)

        # ---- vertical slabs, bottom (junction) to top (air).
        self._layers = []
        for layer, slabs in (
            (die, die_slabs),
            (tim, tim_slabs),
            (spreader, spreader_slabs),
            (sink, sink_slabs),
        ):
            dz = layer.thickness / slabs
            for _ in range(slabs):
                self._layers.append((layer, dz))
        self._die_slab_count = die_slabs

        # ---- voxel activity masks per slab.
        self._footprints = {
            "die": (die_w, die_h),
            "spreader": (spr_side, spr_side),
            "sink": (snk_side, snk_side),
        }
        self._masks = [self._mask_for(layer) for layer, _ in self._layers]

        self._assemble()

    # ------------------------------------------------------------------

    def _lateral_edges(self, die_side, spr_side, snk_side, die_cells, overhang_cells):
        refine = self.refine
        half_die = 0.5 * die_side
        half_spr = 0.5 * spr_side
        half_snk = 0.5 * snk_side
        pieces = []
        if half_snk > half_spr:
            pieces.append(_segment(-half_snk, -half_spr, overhang_cells)[:-1])
        if half_spr > half_die:
            pieces.append(_segment(-half_spr, -half_die, overhang_cells)[:-1])
        pieces.append(_segment(-half_die, half_die, die_cells * refine)[:-1])
        if half_spr > half_die:
            pieces.append(_segment(half_die, half_spr, overhang_cells)[:-1])
        if half_snk > half_spr:
            pieces.append(_segment(half_spr, half_snk, overhang_cells)[:-1])
        edges = np.concatenate(pieces + [np.array([half_snk])])
        return edges

    def _die_offset(self, die_side, spr_side, snk_side, overhang_cells):
        offset = 0
        if snk_side > spr_side:
            offset += overhang_cells
        if spr_side > die_side:
            offset += overhang_cells
        return offset

    def _mask_for(self, layer):
        """Boolean (ny, nx) mask of active voxels for one slab."""
        name = layer.name
        if name in ("die", "tim"):
            side_w, side_h = self._footprints["die"]
        elif name == "spreader":
            side_w, side_h = self._footprints["spreader"]
        else:
            side_w, side_h = self._footprints["sink"]
        x_centers = 0.5 * (self._x_edges[:-1] + self._x_edges[1:])
        y_centers = 0.5 * (self._y_edges[:-1] + self._y_edges[1:])
        eps = 1.0e-12
        in_x = np.abs(x_centers) <= 0.5 * side_w + eps
        in_y = np.abs(y_centers) <= 0.5 * side_h + eps
        return np.outer(in_y, in_x)

    # ------------------------------------------------------------------

    def _assemble(self):
        nx = self._dx.shape[0]
        ny = self._dy.shape[0]
        nz = len(self._layers)

        index = -np.ones((nz, ny, nx), dtype=int)
        counter = 0
        for z in range(nz):
            mask = self._masks[z]
            for y in range(ny):
                for x in range(nx):
                    if mask[y, x]:
                        index[z, y, x] = counter
                        counter += 1
        self._index = index
        self.num_cells = counter

        rows, cols, data = [], [], []
        diagonal = np.zeros(counter)
        rhs = np.zeros(counter)
        ambient_k = celsius_to_kelvin(self.stack.ambient_c)

        def couple(a, b, conductance):
            rows.extend((a, b))
            cols.extend((b, a))
            data.extend((-conductance, -conductance))
            diagonal[a] += conductance
            diagonal[b] += conductance

        for z in range(nz):
            layer_z, dz_z = self._layers[z]
            k_z = layer_z.material.thermal_conductivity
            for y in range(ny):
                for x in range(nx):
                    a = index[z, y, x]
                    if a < 0:
                        continue
                    # +x neighbour
                    if x + 1 < nx and index[z, y, x + 1] >= 0:
                        b = index[z, y, x + 1]
                        face = self._dy[y] * dz_z
                        g = face / (
                            0.5 * self._dx[x] / k_z + 0.5 * self._dx[x + 1] / k_z
                        )
                        couple(a, b, g)
                    # +y neighbour
                    if y + 1 < ny and index[z, y + 1, x] >= 0:
                        b = index[z, y + 1, x]
                        face = self._dx[x] * dz_z
                        g = face / (
                            0.5 * self._dy[y] / k_z + 0.5 * self._dy[y + 1] / k_z
                        )
                        couple(a, b, g)
                    # +z neighbour
                    if z + 1 < nz and index[z + 1, y, x] >= 0:
                        layer_up, dz_up = self._layers[z + 1]
                        k_up = layer_up.material.thermal_conductivity
                        b = index[z + 1, y, x]
                        face = self._dx[x] * self._dy[y]
                        g = face / (0.5 * dz_z / k_z + 0.5 * dz_up / k_up)
                        couple(a, b, g)

        # Convection from the top sink slab, distributed by area.
        top = nz - 1
        top_mask = self._masks[top]
        top_area = float(
            np.sum(np.outer(self._dy, self._dx)[top_mask])
        )
        h_total = 1.0 / self.stack.convection_resistance
        for y in range(ny):
            for x in range(nx):
                a = index[top, y, x]
                if a < 0:
                    continue
                area = self._dx[x] * self._dy[y]
                g = h_total * area / top_area
                diagonal[a] += g
                rhs[a] += g * ambient_k

        # Volumetric tile power over the die slabs.
        refine = self.refine
        die_volume_slabs = self._die_slab_count
        for flat, row, col in self.grid.iter_tiles():
            power = self.power_map[flat]
            if power == 0.0:
                continue
            per_cell = power / (refine * refine * die_volume_slabs)
            for z in range(die_volume_slabs):
                for sub_y in range(refine):
                    for sub_x in range(refine):
                        y = self._die_y0 + row * refine + sub_y
                        x = self._die_x0 + col * refine + sub_x
                        a = index[z, y, x]
                        if a < 0:
                            raise RuntimeError(
                                "die voxel unexpectedly inactive at {}".format((z, y, x))
                            )
                        rhs[a] += per_cell

        rows.extend(range(counter))
        cols.extend(range(counter))
        data.extend(diagonal)
        self._matrix = sp.csc_matrix(
            sp.coo_matrix((data, (rows, cols)), shape=(counter, counter))
        )
        self._rhs = rhs
        self._solution_k = None

    # ------------------------------------------------------------------

    def solve(self):
        """Solve the fine-grid steady state; cached after the first call."""
        if self._solution_k is None:
            self._solution_k = spsolve(self._matrix, self._rhs)
            if not np.all(np.isfinite(self._solution_k)):
                raise RuntimeError("reference solve produced non-finite temperatures")
        return self._solution_k

    def tile_temperatures_c(self):
        """Per-tile silicon temperatures (Celsius), flat row-major.

        Each tile's value is the volume average of its die voxels over
        every die slab — consistent with the compact model's lumped
        one-node-per-tile die layer.
        """
        theta = self.solve()
        refine = self.refine
        result = np.zeros(self.grid.num_tiles)
        for flat, row, col in self.grid.iter_tiles():
            total = 0.0
            count = 0
            for z in range(self._die_slab_count):
                for sub_y in range(refine):
                    for sub_x in range(refine):
                        y = self._die_y0 + row * refine + sub_y
                        x = self._die_x0 + col * refine + sub_x
                        total += theta[self._index[z, y, x]]
                        count += 1
            result[flat] = total / count
        return kelvin_to_celsius(result)

    def peak_tile_temperature_c(self):
        """Hottest tile temperature (Celsius)."""
        return float(np.max(self.tile_temperatures_c()))


_REF_SIDES = ("north", "east", "south", "west")


class ReferenceChipletModel:
    """Independent reference assembly of a 2.5D chiplet package.

    Validates the composite chiplet model the way the paper validated
    its compact model against HotSpot: a from-scratch, direct sparse
    assembly of the same package physics — per-chiplet silicon/TIM
    islands, the shared interposer with microbump links and lateral
    spreading, the shared spreader/sink with overhang periphery rings
    and area-distributed convection — sharing **no builder code** with
    :class:`~repro.thermal.model.CompositeThermalModel` (no blueprint
    machinery, no layer stamping helpers; every conductance is formed here from the material records
    directly, and the system is solved by a plain ``spsolve``).

    Because both sides discretize the package identically (one node
    per tile per layer, the same lumping conventions), agreement is
    expected to floating-point accuracy — the differential suite pins
    the peak-temperature difference at <= 1e-6 K, which is what makes
    this a meaningful end-to-end check of the composite stamping,
    assembly, indexing and solve pipeline.  No-TEC layouts only (the
    validation operating point, like Section VI's HotSpot comparison).
    """

    #: Effective-length factor for conduction into the lumped overhang
    #: rings; must match the compact model's calibrated value for the
    #: discretizations to coincide.
    SPREADING_FACTOR = 0.2

    def __init__(self, layout):
        from repro.thermal.chiplet import ChipletLayout

        if not isinstance(layout, ChipletLayout):
            raise TypeError(
                "layout must be a ChipletLayout, got {!r}".format(type(layout))
            )
        self.layout = layout
        self.composite = layout.composite_grid()
        self.stack = layout.stack
        self._solution_k = None
        self._assemble()

    # ------------------------------------------------------------------

    def _assemble(self):
        layout = self.layout
        composite = self.composite
        stack = self.stack
        die, tim, spreader, sink = stack.conduction_layers()
        interposer = layout.interposer

        rows, cols = composite.rows, composite.cols
        tw, th = composite.tile_width, composite.tile_height
        tile_area = tw * th
        num_lattice = rows * cols
        bounding_w = cols * tw
        bounding_h = rows * th

        # ---- node numbering (silicon, tim, [interposer], spreader,
        # sink, periphery), all indexed independently of the builder.
        counter = 0
        sil = list(range(counter, counter + composite.num_tiles))
        counter += composite.num_tiles
        tim_idx = list(range(counter, counter + composite.num_tiles))
        counter += composite.num_tiles
        itp = None
        if interposer is not None:
            itp = list(range(counter, counter + num_lattice))
            counter += num_lattice
        spr = list(range(counter, counter + num_lattice))
        counter += num_lattice
        snk = list(range(counter, counter + num_lattice))
        counter += num_lattice

        rows_l, cols_l, data = [], [], []
        diagonal = {}
        rhs = {}
        ambient_k = celsius_to_kelvin(stack.ambient_c)

        def couple(a, b, g):
            rows_l.extend((a, b))
            cols_l.extend((b, a))
            data.extend((-g, -g))
            diagonal[a] = diagonal.get(a, 0.0) + g
            diagonal[b] = diagonal.get(b, 0.0) + g

        def ground(a, g):
            diagonal[a] = diagonal.get(a, 0.0) + g
            rhs[a] = rhs.get(a, 0.0) + g * ambient_k

        # ---- per-chiplet tile bookkeeping on the bounding lattice.
        lattice_of = composite.occupied_lattice_tiles()
        power = layout.power_vector()
        for flat in range(composite.num_tiles):
            if power[flat] > 0.0:
                rhs[sil[flat]] = rhs.get(sil[flat], 0.0) + power[flat]

        # ---- lateral conduction.  Die/TIM inside each chiplet island;
        # interposer/spreader/sink across the whole bounding lattice.
        def lateral_g(material, thickness, face, pitch):
            return material.thermal_conductivity * (face * thickness) / pitch

        for chiplet_index, cgrid in enumerate(composite.grids):
            offset = composite.block_offset(chiplet_index)
            for r in range(cgrid.rows):
                for c in range(cgrid.cols):
                    local = r * cgrid.cols + c
                    if c + 1 < cgrid.cols:
                        couple(
                            sil[offset + local], sil[offset + local + 1],
                            lateral_g(die.material, die.thickness, th, tw),
                        )
                        couple(
                            tim_idx[offset + local], tim_idx[offset + local + 1],
                            lateral_g(tim.material, tim.thickness, th, tw),
                        )
                    if r + 1 < cgrid.rows:
                        couple(
                            sil[offset + local], sil[offset + local + cgrid.cols],
                            lateral_g(die.material, die.thickness, tw, th),
                        )
                        couple(
                            tim_idx[offset + local],
                            tim_idx[offset + local + cgrid.cols],
                            lateral_g(tim.material, tim.thickness, tw, th),
                        )
        shared = [(spreader, spr), (sink, snk)]
        if itp is not None:
            shared.append((interposer.layer(), itp))
        for layer, nodes in shared:
            for r in range(rows):
                for c in range(cols):
                    lat = r * cols + c
                    if c + 1 < cols:
                        couple(
                            nodes[lat], nodes[lat + 1],
                            lateral_g(layer.material, layer.thickness, th, tw),
                        )
                    if r + 1 < rows:
                        couple(
                            nodes[lat], nodes[lat + cols],
                            lateral_g(layer.material, layer.thickness, tw, th),
                        )

        # ---- vertical conduction: generation-exit (t/3k) out of the
        # die, mid-plane halves elsewhere, microbumps into the
        # interposer, optional lumped TSV/board leakage.
        k_die = die.material.thermal_conductivity
        k_tim = tim.material.thermal_conductivity
        k_spr = spreader.material.thermal_conductivity
        k_snk = sink.material.thermal_conductivity
        r_die_exit = die.thickness / (3.0 * k_die * tile_area)
        r_tim_half = 0.5 * tim.thickness / (k_tim * tile_area)
        r_spr_half = 0.5 * spreader.thickness / (k_spr * tile_area)
        r_snk_half = 0.5 * sink.thickness / (k_snk * tile_area)
        g_die_tim = 1.0 / (r_die_exit + r_tim_half)
        g_tim_spr = 1.0 / (r_tim_half + r_spr_half)
        g_spr_snk = 1.0 / (r_spr_half + r_snk_half)
        for flat in range(composite.num_tiles):
            lat = int(lattice_of[flat])
            couple(sil[flat], tim_idx[flat], g_die_tim)
            couple(tim_idx[flat], spr[lat], g_tim_spr)
            if itp is not None:
                couple(sil[flat], itp[lat], interposer.microbump_conductance)
        for lat in range(num_lattice):
            couple(spr[lat], snk[lat], g_spr_snk)
        if itp is not None and interposer.board_resistance is not None:
            g_board = 1.0 / (interposer.board_resistance * num_lattice)
            for lat in range(num_lattice):
                ground(itp[lat], g_board)

        # ---- periphery: trapezoidal overhang rings per side, lateral
        # edge-tile fan-in shortened by the spreading factor,
        # vertical ring-to-ring conduction.
        spr_side = spreader.side or max(bounding_w, bounding_h)
        snk_side = sink.side or spr_side
        spr_overhang_w = max(0.0, 0.5 * (spr_side - bounding_w))
        spr_overhang_h = max(0.0, 0.5 * (spr_side - bounding_h))
        snk_overhang = max(0.0, 0.5 * (snk_side - spr_side))

        spr_area = {}
        snk_inner_area = {}
        snk_outer_area = {}
        for side in _REF_SIDES:
            horizontal = side in ("north", "south")
            inner_edge = bounding_w if horizontal else bounding_h
            overhang = spr_overhang_h if horizontal else spr_overhang_w
            if overhang > 0.0:
                spr_area[side] = 0.5 * (inner_edge + spr_side) * overhang
                snk_inner_area[side] = spr_area[side]
            if snk_overhang > 0.0:
                snk_outer_area[side] = 0.5 * (spr_side + snk_side) * snk_overhang

        spr_ring = {}
        snk_inner = {}
        snk_outer = {}
        for side in _REF_SIDES:
            if side in spr_area:
                spr_ring[side] = counter
                counter += 1
                snk_inner[side] = counter
                counter += 1
            if side in snk_outer_area:
                snk_outer[side] = counter
                counter += 1

        def boundary_lattice(side):
            if side == "north":
                return [c for c in range(cols)]
            if side == "south":
                return [(rows - 1) * cols + c for c in range(cols)]
            if side == "west":
                return [r * cols for r in range(rows)]
            return [r * cols + cols - 1 for r in range(rows)]

        for side in _REF_SIDES:
            if side not in spr_ring:
                continue
            horizontal = side in ("north", "south")
            overhang = spr_overhang_h if horizontal else spr_overhang_w
            pitch = th if horizontal else tw
            face = tw if horizontal else th
            distance = 0.5 * pitch + self.SPREADING_FACTOR * overhang
            for lat in boundary_lattice(side):
                couple(
                    spr[lat], spr_ring[side],
                    k_spr * (face * spreader.thickness) / distance,
                )
                couple(
                    snk[lat], snk_inner[side],
                    k_snk * (face * sink.thickness) / distance,
                )
        for side, area in spr_area.items():
            g = 1.0 / (
                0.5 * spreader.thickness / (k_spr * area)
                + 0.5 * sink.thickness / (k_snk * area)
            )
            couple(spr_ring[side], snk_inner[side], g)
        for side in _REF_SIDES:
            if side not in snk_outer:
                continue
            if side in snk_inner:
                horizontal = side in ("north", "south")
                overhang = spr_overhang_h if horizontal else spr_overhang_w
                distance = self.SPREADING_FACTOR * (overhang + snk_overhang)
                couple(
                    snk_inner[side], snk_outer[side],
                    k_snk * (spr_side * sink.thickness) / distance,
                )
            else:
                for lat in boundary_lattice(side):
                    face = tw if side in ("north", "south") else th
                    couple(
                        snk[lat], snk_outer[side],
                        k_snk * (face * sink.thickness) / (0.5 * snk_overhang),
                    )

        # ---- convection to ambient, distributed by footprint area.
        total_conductance = 1.0 / stack.convection_resistance
        total_area = (
            bounding_w * bounding_h
            + sum(snk_inner_area.values())
            + sum(snk_outer_area.values())
        )
        per_tile = total_conductance * (tile_area / total_area)
        for lat in range(num_lattice):
            ground(snk[lat], per_tile)
        for side, node in snk_inner.items():
            ground(node, total_conductance * snk_inner_area[side] / total_area)
        for side, node in snk_outer.items():
            ground(node, total_conductance * snk_outer_area[side] / total_area)

        # ---- assemble.
        n = counter
        self.num_nodes = n
        diag_vec = np.zeros(n)
        for node, value in diagonal.items():
            diag_vec[node] = value
        rows_l.extend(range(n))
        cols_l.extend(range(n))
        data.extend(diag_vec)
        self._matrix = sp.csc_matrix(
            sp.coo_matrix((data, (rows_l, cols_l)), shape=(n, n))
        )
        rhs_vec = np.zeros(n)
        for node, value in rhs.items():
            rhs_vec[node] = value
        self._rhs = rhs_vec
        self._silicon = np.asarray(sil)

    # ------------------------------------------------------------------

    def solve(self):
        """Solve the reference steady state; cached after the first call."""
        if self._solution_k is None:
            self._solution_k = spsolve(self._matrix, self._rhs)
            if not np.all(np.isfinite(self._solution_k)):
                raise RuntimeError(
                    "chiplet reference solve produced non-finite temperatures"
                )
        return self._solution_k

    def tile_temperatures_c(self):
        """Per-tile silicon temperatures (Celsius), global flat order."""
        return kelvin_to_celsius(self.solve()[self._silicon])

    def peak_tile_temperature_c(self):
        """Hottest tile temperature (Celsius)."""
        return float(np.max(self.tile_temperatures_c()))
