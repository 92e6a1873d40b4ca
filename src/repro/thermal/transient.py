"""Transient extension of the compact model (beyond the paper).

The paper restricts itself to steady state ("the thermal capacitance is
not included in our model since we are focusing on the steady state
behavior").  This module adds the capacitances back and integrates the
RC network with the unconditionally stable backward-Euler scheme:

    (C / dt + G - i D) theta_{n+1} = (C / dt) theta_n + p(i, t_{n+1})

Per-node capacitances come from the layer volumes
(``C = c_v * volume``); TEC hot/cold nodes carry the (tiny) film
capacitance split in half.  The simulator supports time-varying power
maps, which lets the examples play workload traces through the
cooling system and watch the hotspot respond.

The shifted systems are solved through the model's
:class:`~repro.thermal.session.SolveSession`: the simulator requests
the session's ``C / dt`` view, so its factorizations live in the
shared per-(shift, current) LRU cache — a closed control loop running
the same model at the same ``dt`` hits the very same entries, and
``SolverStats`` aggregates transient work alongside the steady solves.

Large models can route the integration through the view's certified
reduced-order model (``rom="auto"|"always"|"off"``, see
:mod:`repro.linalg.mor`): each step becomes a dense solve in a
~30-dimensional Krylov subspace with an a-posteriori error bound
(:attr:`TransientSimulator.certified_error_k`) guaranteed against the
full-order trajectory; the basis is shared through the view's ROM
cache, so concurrent traces over the same model warm each other up.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.mor import ReducedTransient, resolve_rom_mode
from repro.thermal.network import ROLE_CODES, ROLES, NodeRole
from repro.utils import celsius_to_kelvin, check_positive, kelvin_to_celsius

_GRIDDED_ROLES = {
    NodeRole.SILICON: "die",
    NodeRole.TIM: "tim",
    NodeRole.SPREADER: "spreader",
    NodeRole.SINK: "sink",
}

_PERIPHERY_ROLES = {
    NodeRole.SPREADER_PERIPHERY: "spreader",
    NodeRole.SINK_PERIPHERY: "sink",
}


def node_capacitances(model):
    """Per-node thermal capacitances (J/K) for a package model.

    Gridded layer nodes use ``c_v * tile_area * thickness``; periphery
    nodes use their stored footprint area; TEC nodes get half the film
    volume each (using the super-lattice heat capacity as a stand-in
    for the thin device stack).
    """
    from repro.thermal.materials import BISMUTH_TELLURIDE_SUPERLATTICE

    layers = {layer.name: layer for layer in model.stack.conduction_layers()}
    tile_area = model.grid.tile_area
    nodes = model.nodes
    # Per role code; stray nodes keep a numerical floor.
    per_role = np.full(len(ROLES), 1.0e-6)
    for role, name in _GRIDDED_ROLES.items():
        layer = layers[name]
        per_role[ROLE_CODES[role]] = (
            layer.material.volumetric_heat_capacity * tile_area * layer.thickness
        )
    interposer = getattr(model, "interposer_layer", None)
    if interposer is not None:
        per_role[ROLE_CODES[NodeRole.INTERPOSER]] = (
            interposer.material.volumetric_heat_capacity
            * tile_area
            * interposer.thickness
        )
    film_volume = model.device.footprint * 1.5e-5  # ~15 um stack
    per_role[[ROLE_CODES[NodeRole.TEC_HOT], ROLE_CODES[NodeRole.TEC_COLD]]] = (
        0.5 * BISMUTH_TELLURIDE_SUPERLATTICE.volumetric_heat_capacity * film_volume
    )
    capacitance = per_role[nodes.roles]
    for index, (_, area) in nodes.rings.items():
        layer = layers[_PERIPHERY_ROLES[nodes.role(index)]]
        capacitance[index] = (
            layer.material.volumetric_heat_capacity * area * layer.thickness
        )
    return capacitance


class TransientSimulator:
    """Backward-Euler integrator over a package model's RC network.

    Parameters
    ----------
    model:
        A :class:`~repro.thermal.model.PackageThermalModel`.
    current:
        TEC supply current, fixed over the simulation (A).
    dt:
        Time step in seconds.  Backward Euler is unconditionally
        stable, so ``dt`` trades accuracy against step count only.
    initial_state:
        Starting temperatures: ``"ambient"`` (uniform ambient),
        ``"steady"`` (the steady state at ``current``), or an explicit
        Kelvin vector.
    session:
        Optional :class:`~repro.thermal.session.SolveSession` to solve
        through; defaults to the model's own session.  Passing a shared
        session lets several integrators (or a control loop) over the
        same model share one ``C / dt`` factorization cache.
    rom:
        Reduced-order mode: ``"off"`` always integrates at full order,
        ``"always"`` always goes through the view's certified ROM, and
        ``"auto"`` (the default) engages the ROM once the model has at
        least :data:`~repro.linalg.mor.ROM_AUTO_MIN_NODES` nodes —
        below that a sparse solve is already cheap.
    rom_dim / rom_tol:
        Target Krylov basis size and certified error budget (K) for
        the ROM; ``None`` takes the :mod:`repro.linalg.mor` defaults.
    """

    def __init__(
        self,
        model,
        *,
        current=0.0,
        dt=1.0e-3,
        initial_state="ambient",
        session=None,
        rom="auto",
        rom_dim=None,
        rom_tol=None,
    ):
        self.model = model
        self.current = float(current)
        self.dt = check_positive(dt, "dt")
        self.capacitance = node_capacitances(model)
        system = model.system
        self.session = session if session is not None else model.session
        self._view = self.session.view(self.capacitance / self.dt)
        self._base_power = system.power_vector(self.current)
        self._tile_power_reference = model.power_map.copy()
        self._silicon = np.asarray(model.silicon_nodes)
        self.rom_mode = rom
        self._rom = None
        self._rom_trace = None
        if resolve_rom_mode(rom, model.num_nodes):
            self._rom = self._view.reduced(dim=rom_dim, tol_kelvin=rom_tol)

        if isinstance(initial_state, str):
            if initial_state == "ambient":
                self.theta_k = np.full(
                    model.num_nodes, celsius_to_kelvin(model.stack.ambient_c)
                )
            elif initial_state == "steady":
                self.theta_k = model.solve(self.current).theta_k.copy()
            else:
                raise ValueError(
                    "initial_state must be 'ambient', 'steady' or a vector"
                )
        else:
            theta = np.asarray(initial_state, dtype=float)
            if theta.shape != (model.num_nodes,):
                raise ValueError(
                    "initial_state must have length {}, got shape {}".format(
                        model.num_nodes, theta.shape
                    )
                )
            self.theta_k = theta.copy()
        self.time_s = 0.0
        if self._rom is not None:
            self._rom_trace = ReducedTransient(self._rom, self.theta_k)

    @property
    def rom_active(self):
        """Whether steps go through the certified reduced model."""
        return self._rom_trace is not None

    @property
    def certified_error_k(self):
        """Certified max Kelvin error vs the full-order trajectory.

        Exactly ``0.0`` when the ROM is off (the trajectory *is* the
        full-order one).
        """
        if self._rom_trace is None:
            return 0.0
        return self._rom_trace.certified_error_k

    def rom_stats(self):
        """Work counters of the shared reduced model (None when off)."""
        return None if self._rom is None else self._rom.stats()

    def _power_delta(self, power_map):
        """Validate a per-tile override, return its delta vs the model."""
        power_map = np.asarray(power_map, dtype=float)
        if power_map.shape != self._tile_power_reference.shape:
            raise ValueError(
                "power_map must have length {}, got shape {}".format(
                    self._tile_power_reference.shape[0], power_map.shape
                )
            )
        return power_map - self._tile_power_reference

    def step(self, power_map=None):
        """Advance one time step; returns the new Kelvin vector.

        ``power_map`` optionally replaces the per-tile silicon powers
        for this step (flat, W); TEC Joule terms and the ambient
        contribution are unaffected.
        """
        if self._rom_trace is not None:
            extra = rows = None
            if power_map is not None:
                extra = self._power_delta(power_map)
                rows = self._silicon
            self._rom_trace.step(self.current, extra=extra, extra_rows=rows)
            self.theta_k = self._rom_trace.theta_full()
            self.time_s += self.dt
            return self.theta_k
        rhs = (self.capacitance / self.dt) * self.theta_k + self._base_power
        if power_map is not None:
            rhs[self._silicon] += self._power_delta(power_map)
        self.theta_k = self._view.solve_rhs(self.current, rhs)
        self.time_s += self.dt
        return self.theta_k

    def peak_silicon_c(self):
        """Current hottest silicon tile (Celsius)."""
        return float(kelvin_to_celsius(np.max(self.theta_k[self._silicon])))

    def run(self, steps, *, power_schedule=None, record_peak=True):
        """Integrate ``steps`` steps.

        Parameters
        ----------
        steps:
            Number of backward-Euler steps.
        power_schedule:
            Optional callable ``(step_index, time_s) -> power_map or
            None`` supplying a per-step tile power map.
        record_peak:
            When True, return the peak-temperature trace.

        Returns
        -------
        numpy.ndarray or None
            Peak silicon temperature (Celsius) after each step.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1, got {}".format(steps))
        trace = np.empty(steps) if record_peak else None
        for index in range(steps):
            power_map = None
            if power_schedule is not None:
                power_map = power_schedule(index, self.time_s)
            self.step(power_map)
            if record_peak:
                trace[index] = self.peak_silicon_c()
        return trace

    def settle(self, *, tolerance_c=1.0e-3, max_steps=200_000):
        """Integrate until the peak temperature stops moving.

        Returns the number of steps taken.  Useful for verifying that
        the transient settles onto the steady-state solver's answer.
        """
        previous = self.peak_silicon_c()
        for step_index in range(1, max_steps + 1):
            self.step()
            current = self.peak_silicon_c()
            if abs(current - previous) < tolerance_c:
                return step_index
            previous = current
        raise RuntimeError(
            "transient did not settle within {} steps".format(max_steps)
        )
