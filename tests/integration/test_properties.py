"""Hypothesis property tests on cross-cutting model invariants.

Each property is a physical or mathematical law that must hold for
*any* admissible input, not just the benchmarks: energy conservation,
superposition of the passive network, reciprocity of the influence
matrix, monotonicity of the runaway current in the deployment, and
the Theorem 1 dichotomy on real package matrices.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.linalg.runaway import runaway_current_eigen
from repro.linalg.spd import cholesky_is_spd
from repro.thermal.geometry import TileGrid
from repro.thermal.model import PackageThermalModel

pytestmark = pytest.mark.integration

_GRID = TileGrid(4, 4)

_power_maps = st.lists(
    st.floats(min_value=0.0, max_value=0.8),
    min_size=16,
    max_size=16,
).map(np.array)

_tec_subsets = st.sets(
    st.integers(min_value=0, max_value=15), min_size=1, max_size=6
)

_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPassiveNetworkProperties:
    @given(_power_maps)
    @_settings
    def test_energy_conservation(self, power):
        """Heat out through convection equals heat in, always."""
        model = PackageThermalModel(_GRID, power)
        state = model.solve(0.0)
        ground = model.system.ground
        flux = sum(
            ground[node] * (state.theta_k[node] - 318.15)
            for node in np.flatnonzero(ground)
        )
        assert abs(flux - float(np.sum(power))) < 1e-8 * max(1.0, np.sum(power))

    @given(_power_maps, _power_maps)
    @_settings
    def test_superposition(self, pa, pb):
        """theta(a + b) - amb == (theta(a) - amb) + (theta(b) - amb)."""
        amb = PackageThermalModel(_GRID, np.zeros(16)).solve(0.0).silicon_k
        ta = PackageThermalModel(_GRID, pa).solve(0.0).silicon_k
        tb = PackageThermalModel(_GRID, pb).solve(0.0).silicon_k
        tab = PackageThermalModel(_GRID, pa + pb).solve(0.0).silicon_k
        assert np.allclose(tab - amb, (ta - amb) + (tb - amb), atol=1e-8)

    @given(_power_maps, st.integers(min_value=0, max_value=15))
    @_settings
    def test_monotonicity_in_power(self, power, tile):
        """Adding power anywhere can cool nothing (inverse-positivity
        of G seen thermally)."""
        base = PackageThermalModel(_GRID, power).solve(0.0).silicon_k
        boosted_power = power.copy()
        boosted_power[tile] += 0.5
        boosted = PackageThermalModel(_GRID, boosted_power).solve(0.0).silicon_k
        assert np.all(boosted >= base - 1e-10)

    @given(st.integers(min_value=0, max_value=15), st.integers(min_value=0, max_value=15))
    @_settings
    def test_reciprocity(self, tile_a, tile_b):
        """h_ab == h_ba: power at a heats b exactly as power at b
        heats a (symmetry of G^-1)."""
        model = PackageThermalModel(_GRID, np.zeros(16))
        node_a = model.silicon_nodes[tile_a]
        node_b = model.silicon_nodes[tile_b]
        unit_a = np.zeros(model.num_nodes)
        unit_a[node_a] = 1.0
        unit_b = np.zeros(model.num_nodes)
        unit_b[node_b] = 1.0
        h_ab = model.solver.solve_rhs(0.0, unit_a)[node_b]
        h_ba = model.solver.solve_rhs(0.0, unit_b)[node_a]
        assert abs(h_ab - h_ba) < 1e-12 * max(1.0, abs(h_ab))


class TestDeployedModelProperties:
    @given(_power_maps, _tec_subsets)
    @_settings
    def test_theorem1_dichotomy_on_package_matrices(self, power, tiles):
        """For any deployment, G - iD flips definiteness exactly at
        the computed lambda_m."""
        model = PackageThermalModel(_GRID, power, tec_tiles=tiles)
        g, d_diag, _, _ = model.matrices()
        lam = runaway_current_eigen(g, d_diag).value
        assert lam > 0.0
        dense = g.toarray()
        assert cholesky_is_spd(dense - 0.98 * lam * np.diag(d_diag))
        assert not cholesky_is_spd(dense - 1.02 * lam * np.diag(d_diag))

    @given(_power_maps, _tec_subsets, st.integers(min_value=0, max_value=15))
    @_settings
    def test_runaway_non_increasing_in_deployment(self, power, tiles, extra):
        """Adding one more TEC can only lower (or keep) the runaway
        current: the variational minimum runs over a larger feasible
        set once D gains support."""
        model = PackageThermalModel(_GRID, power, tec_tiles=tiles)
        bigger = PackageThermalModel(
            _GRID, power, tec_tiles=set(tiles) | {extra}
        )
        lam_small = model.runaway_current().value
        lam_big = bigger.runaway_current().value
        assert lam_big <= lam_small * (1.0 + 1e-9)

    @given(_power_maps, _tec_subsets)
    @_settings
    def test_influence_nonnegative_below_runaway(self, power, tiles):
        """Lemma 3 on deployed packages: H(i) >= 0 entrywise for
        i inside [0, lambda_m)."""
        model = PackageThermalModel(_GRID, power, tec_tiles=tiles)
        lam = model.runaway_current().value
        current = 0.5 * lam
        probe = np.zeros(model.num_nodes)
        probe[model.silicon_nodes[0]] = 1.0
        column = model.solver.solve_rhs(current, probe)
        assert np.all(column >= -1e-10)

    @given(_power_maps, _tec_subsets)
    @_settings
    def test_tec_power_balance(self, power, tiles):
        """Convected heat equals chip power plus TEC input power at
        any deployment and moderate current."""
        model = PackageThermalModel(_GRID, power, tec_tiles=tiles)
        current = 0.02 * model.runaway_current().value
        state = model.solve(current)
        ground = model.system.ground
        flux = sum(
            ground[node] * (state.theta_k[node] - 318.15)
            for node in np.flatnonzero(ground)
        )
        expected = float(np.sum(power)) + state.tec_input_power_w()
        assert abs(flux - expected) < 1e-7 * max(1.0, abs(expected))
