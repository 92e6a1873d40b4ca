"""Thin-film thermoelectric cooler (TEC) devices (Section III).

A TEC device is a pair of dissimilar semiconductor strips; driving a
current through them pumps heat from the cold face to the hot face
(Peltier effect) while dissipating Joule heat and conducting some heat
back.  The governing equations (paper Equations 1-3) are::

    q_c = alpha i theta_c - r i^2 / 2 - kappa (theta_h - theta_c)
    q_h = alpha i theta_h + r i^2 / 2 - kappa (theta_h - theta_c)
    p_tec = q_h - q_c = r i^2 + alpha i (theta_h - theta_c)

This package provides:

``materials`` / :class:`TecDeviceParameters`
    Parameter records for the super-lattice thin-film devices of
    Chowdhury et al. (reference [1] of the paper).
``device``
    The device physics — heat fluxes, input power, COP, classic
    figure-of-merit quantities.
``stamp``
    The compact-thermal-model stamp (Figure 4): how a device replaces a
    TIM node with a hot/cold node pair contributing to ``G``, ``D`` and
    the power vector.
``array``
    Devices connected electrically in series and thermally in parallel
    (Figure 1(b, c)).
"""

from repro.tec.array import TecArray
from repro.tec.cop import (
    device_cop_curve,
    system_efficiency_curve,
)
from repro.tec.device import (
    cold_side_flux,
    coefficient_of_performance,
    hot_side_flux,
    input_power,
    max_temperature_differential,
    zero_cop_current,
)
from repro.tec.materials import (
    TecDeviceParameters,
    chowdhury_thin_film_tec,
)
from repro.tec.stamp import TecStamp, stamp_conductances

__all__ = [
    "TecArray",
    "TecDeviceParameters",
    "TecStamp",
    "chowdhury_thin_film_tec",
    "coefficient_of_performance",
    "cold_side_flux",
    "device_cop_curve",
    "hot_side_flux",
    "input_power",
    "max_temperature_differential",
    "stamp_conductances",
    "system_efficiency_curve",
    "zero_cop_current",
]
