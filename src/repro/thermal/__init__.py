"""Compact thermal modeling of the chip package (Section IV).

This package implements the HotSpot-style compact thermal model the
paper builds its optimization on, plus an independent fine-grid
finite-difference reference solver used for validation (the role
HotSpot 4.1 plays in Section VI).

Layout of the model (Figure 2/3 of the paper):

* the **silicon** die, dissected into ``p x q`` tiles, each the size of
  one thin-film TEC device (0.5 mm x 0.5 mm), carrying the worst-case
  power of the transistors in that tile;
* the **TIM** layer between die and spreader — the layer whose tiles
  are substituted by TEC device models where TECs are deployed;
* the **heat spreader** (copper), larger than the die, modeled as a
  central grid plus peripheral nodes;
* the **heat sink**, larger still, with convection to the ambient;
* the **ambient**, a Dirichlet temperature eliminated into the power
  vector, leaving ``G`` positive definite (Lemma 1).

Public entry point: :class:`repro.thermal.model.PackageThermalModel`.
"""

from repro.thermal.geometry import TileGrid
from repro.thermal.materials import (
    AIR,
    ALUMINUM,
    COPPER,
    SILICON,
    TIM,
    Material,
)
from repro.thermal.model import PackageThermalModel, ThermalState
from repro.thermal.network import NetworkNodes, NodeRole
from repro.thermal.nonlinear import NonlinearSteadyState, silicon_conductivity_scale
from repro.thermal.spreading import (
    package_peak_resistance_estimate,
    spreading_resistance,
)
from repro.thermal.reference import ReferenceGridModel
from repro.thermal.reference_active import ActiveReferenceGridModel
from repro.thermal.solve import SolverStats, SteadyStateSolver
from repro.thermal.stack import Layer, PackageStack
from repro.thermal.transient import TransientSimulator, node_capacitances
from repro.thermal.validation import ValidationReport, validate_against_reference

__all__ = [
    "AIR",
    "ALUMINUM",
    "ActiveReferenceGridModel",
    "COPPER",
    "Layer",
    "Material",
    "NetworkNodes",
    "NodeRole",
    "NonlinearSteadyState",
    "PackageStack",
    "PackageThermalModel",
    "ReferenceGridModel",
    "SILICON",
    "SolverStats",
    "SteadyStateSolver",
    "TIM",
    "ThermalState",
    "TileGrid",
    "TransientSimulator",
    "ValidationReport",
    "node_capacitances",
    "package_peak_resistance_estimate",
    "silicon_conductivity_scale",
    "spreading_resistance",
    "validate_against_reference",
]
