"""Temperature-dependent silicon conductivity (beyond the paper).

The compact model (like HotSpot's default) uses a constant silicon
conductivity.  Physically, silicon's lattice conductivity falls with
temperature — approximately

    k(T) = k_300 * (300 K / T) ** 1.3

over the operating range, which makes hot spots *hotter* than the
linear model predicts (the hotter the tile, the worse it conducts).

:class:`NonlinearSteadyState` resolves this with damped fixed-point
iteration: solve the linear model, evaluate each tile's conductivity
scale at its own temperature, rebuild the die conductances
(``model.with_die_conductivity_scale(...)`` — an instantiation of the
model's blueprint that recomputes only the scale-bound conductances,
not a from-scratch model construction), repeat until the temperature field stops moving.
Convergence is fast (the coupling is mild); five iterations typically
reach micro-kelvin changes.

The effect on the Alpha benchmark is one to two degrees at the peak
(the die runs ~60 K above the 300 K reference, costing ~20% of its
conductivity) — visible, but well below the cooling swings under
study, which supports the paper's (and HotSpot's) use of the linear
model.  Quantified in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils import check_positive
from repro.utils.validate import check_in_range


def silicon_conductivity_scale(temperature_k, *, reference_k=300.0, exponent=1.3):
    """Scale factor ``(T_ref / T) ** exponent`` (array-safe)."""
    temperature = np.asarray(temperature_k, dtype=float)
    if np.any(temperature <= 0.0):
        raise ValueError("temperatures must be positive (Kelvin)")
    return (reference_k / temperature) ** exponent


@dataclass
class NonlinearResult:
    """Converged nonlinear steady state.

    Attributes
    ----------
    state:
        Final :class:`~repro.thermal.model.ThermalState`.
    model:
        The rebuilt model embedding the converged conductivity scales.
    iterations:
        Fixed-point iterations performed.
    converged:
        Whether the field change fell below the tolerance.
    peak_shift_c:
        Nonlinear peak minus linear peak (positive: nonlinearity makes
        the hot spot hotter).
    scale_range:
        ``(min, max)`` of the converged conductivity scale factors.
    """

    state: object
    model: object
    iterations: int
    converged: bool
    peak_shift_c: float
    scale_range: tuple


class NonlinearSteadyState:
    """Fixed-point solver for temperature-dependent silicon conductivity.

    Parameters
    ----------
    model:
        The (linear) :class:`PackageThermalModel` to correct; its own
        conductivity scale, if any, is replaced.
    exponent:
        The ``k ~ T^-exponent`` power law (1.3 for silicon; 0 recovers
        the linear model exactly).
    reference_k:
        Temperature (K) at which the stack's nominal conductivity is
        quoted.
    damping:
        Fraction of the new scale mixed in per iteration (1 = undamped).
    """

    def __init__(self, model, *, exponent=1.3, reference_k=300.0, damping=1.0):
        self.base_model = model
        self.exponent = float(exponent)
        if self.exponent < 0.0:
            raise ValueError("exponent must be >= 0")
        self.reference_k = check_positive(reference_k, "reference_k")
        self.damping = check_in_range(
            damping, "damping", 0.0, 1.0, inclusive=(False, True)
        )

    def solve(self, current=0.0, *, max_iterations=25, tolerance_k=1.0e-6):
        """Converge the nonlinear steady state at a supply current.

        Returns a :class:`NonlinearResult`.
        """
        linear_state = self.base_model.solve(current)
        linear_peak = linear_state.peak_silicon_c
        if self.exponent == 0.0:
            return NonlinearResult(
                state=linear_state,
                model=self.base_model,
                iterations=0,
                converged=True,
                peak_shift_c=0.0,
                scale_range=(1.0, 1.0),
            )

        scale = np.ones(self.base_model.grid.num_tiles)
        silicon_k = linear_state.silicon_k
        model = self.base_model
        state = linear_state
        converged = False
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            target = silicon_conductivity_scale(
                silicon_k, reference_k=self.reference_k, exponent=self.exponent
            )
            scale = (1.0 - self.damping) * scale + self.damping * target
            model = self.base_model.with_die_conductivity_scale(scale)
            state = model.solve(current)
            change = float(np.max(np.abs(state.silicon_k - silicon_k)))
            silicon_k = state.silicon_k
            if change < tolerance_k:
                converged = True
                break
        return NonlinearResult(
            state=state,
            model=model,
            iterations=iterations,
            converged=converged,
            peak_shift_c=state.peak_silicon_c - linear_peak,
            scale_range=(float(np.min(scale)), float(np.max(scale))),
        )
