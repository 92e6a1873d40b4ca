"""Compact-model stamp of a TEC device (Section IV.B, Figure 4).

Deploying a TEC under a tile substitutes the tile's TIM node with the
device's two-node thermal model:

* a **cold** node facing the silicon tile through ``g_c``;
* a **hot** node facing the spreader tile through ``g_h``;
* the film conduction ``kappa`` between them;
* Joule sources ``r i^2 / 2`` on both nodes (current-dependent — they
  live in the ``joule`` coefficient vector);
* the Peltier transport as the ``D``-diagonal entries ``-alpha`` (cold)
  and ``+alpha`` (hot), so that ``G - i D`` carries the ``+alpha i``
  conductance-to-ground at the cold node and the ``-alpha i`` negative
  conductance at the hot node, exactly as in Figure 4.

The stamp does **not** decide where TECs go — that is the deployment
problem (``repro.core.deploy``).  The package network records one
stamp template per tile (see
:meth:`~repro.thermal.assembly.NetworkBlueprint.add_stamp_section`) and
stamps the deployed tiles when it is instantiated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TecStamp:
    """Bookkeeping for one stamped TEC device.

    Attributes
    ----------
    tile:
        Flat tile index the device covers.
    hot_node, cold_node:
        Network node indices of the device's two sides.
    device:
        The :class:`~repro.tec.materials.TecDeviceParameters` stamped.
    """

    tile: int
    hot_node: int
    cold_node: int
    device: object


def stamp_conductances(device, *, cold_series_resistance=0.0,
                       hot_series_resistance=0.0):
    """Contact conductances ``(g_c, g_h)`` (W/K) of a stamped device.

    ``cold_series_resistance`` / ``hot_series_resistance`` are extra
    series resistances (K/W, scalars or per-tile arrays) between the
    device contacts and the adjacent layer nodes — the die-exit and
    spreader-entry resistances the TIM path the device replaces would
    also have carried, so covered and uncovered tiles see consistent
    layer lumping.  The film conduction ``kappa``, the Joule
    coefficients ``r / 2`` and the Peltier entries ``-/+ alpha`` are
    the device's own parameters.
    """
    if np.any(np.asarray(cold_series_resistance) < 0.0) or np.any(
        np.asarray(hot_series_resistance) < 0.0
    ):
        raise ValueError("series resistances must be >= 0")
    g_cold = 1.0 / (1.0 / device.cold_contact_conductance + cold_series_resistance)
    g_hot = 1.0 / (1.0 / device.hot_contact_conductance + hot_series_resistance)
    return g_cold, g_hot
