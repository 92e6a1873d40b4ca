"""Grid-resolution scaling workload for the solver backends.

Sweeps tile grids (8x8 up to 128x128 by default) with dense TEC
deployments, times every applicable solver backend on the same
assembled system and probe currents through the batched
:meth:`~repro.thermal.session.SessionView.solve_batch` kernel, and
checks the acceptance criteria of the backend-layer PRs:

* every backend agrees with the ``direct`` reference on the peak
  temperature of every probe current to 1e-6 K;
* on every >= 48x48 grid where both ran, the ``direct`` backend (one
  sparse SPD factorization per current) beats the blocked-Woodbury
  ``reuse`` mode wall-clock;
* on the 256x256 grid (>= 260k nodes) the geometric-multigrid ``mg``
  backend beats every assembled-factorization backend by >= 2x
  wall-clock while holding less solver state (``solver_bytes``, the
  deterministic factor-fill/operator accounting of
  ``SessionView.solver_state_bytes``).  All ratios are reported in
  ``BENCH_backends.json``.

The measurements are written to ``BENCH_backends.json`` at the repo
root (schema: :func:`repro.io.results.bench_report_to_json`) so the
perf trajectory is machine-readable across commits.

The grid list honours the ``BENCH_BACKENDS_GRIDS`` environment
variable (comma-separated side lengths, e.g. ``8,16``) so CI can run a
fast subset; the >= 48x48 and 256x256 assertions skip themselves when
no such grid is in the list.  The ``reuse`` backend is skipped (and the skip
logged in the JSON) once the Peltier support exceeds
``_REUSE_SUPPORT_LIMIT`` — its dense influence block would not fit a
small machine, which is exactly the scaling wall this PR removes.

Run:  pytest benchmarks/bench_backends.py -s
      python benchmarks/bench_backends.py
"""

import dataclasses
import gc
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.problem import CoolingSystemProblem
from repro.io.results import bench_report_to_json
from repro.linalg.spd import cholesky_is_spd
from repro.thermal.geometry import TileGrid
from repro.thermal.solve import SteadyStateSolver
from repro.thermal.stack import PackageStack

_REPO_ROOT = Path(__file__).resolve().parent.parent
_DEFAULT_GRIDS = "8,16,32,48,64,128,256"
_BACKENDS = ("direct", "reuse", "mg")

#: Total die power (W), split uniformly over the tiles so refining the
#: grid changes the resolution, not the thermal problem.
_TOTAL_POWER_W = 60.0

#: Probe currents (A).  Halved together until ``G - i D`` is positive
#: definite at the largest probe, so every instance stays below its
#: runaway current.
_PROBE_CURRENTS = (0.25, 0.5, 1.0)

#: Skip the ``reuse`` backend beyond this Peltier-support size: its
#: dense ``n x support`` influence block and ``support^3`` capacitance
#: factorization are the scaling wall under study.
_REUSE_SUPPORT_LIMIT = 2500

#: Grids up to this side get full TEC coverage; larger ones a
#: checkerboard (still dense: 50% of the tiles).
_FULL_COVER_SIDE = 16

#: From this side on, a checkerboard's support would dwarf the reuse
#: limit, so the deployment thins to a stride lattice — enough TECs to
#: exercise every backend on the same >= 128x128 system.
_LATTICE_SIDE = 96


def _grid_sides():
    text = os.environ.get("BENCH_BACKENDS_GRIDS", _DEFAULT_GRIDS)
    sides = sorted({int(part) for part in text.split(",") if part.strip()})
    if not sides:
        raise ValueError("BENCH_BACKENDS_GRIDS selected no grids")
    return sides


def _scaled_stack(die_side):
    """The calibrated stack with spreader/sink grown to fit large dies."""
    stack = PackageStack()
    spreader_side = max(stack.spreader.side, die_side * 1.5)
    sink_side = max(stack.sink.side, spreader_side * 2.0)
    return dataclasses.replace(
        stack,
        spreader=dataclasses.replace(stack.spreader, side=spreader_side),
        sink=dataclasses.replace(stack.sink, side=sink_side),
    )


def _dense_deployment(side):
    if side <= _FULL_COVER_SIDE:
        return tuple(range(side * side))
    if side >= _LATTICE_SIDE:
        stride = max(2, side // 16)
        return tuple(
            idx for idx in range(side * side)
            if (idx // side) % stride == 0 and (idx % side) % stride == 0
        )
    return tuple(
        idx for idx in range(side * side) if ((idx // side) + (idx % side)) % 2 == 0
    )


def _build_problem_model(side):
    """The deployed thermal model of one benchmark instance.

    Shared with ``bench_rom.py``, which drives the same instances
    through closed-loop transients instead of steady batch solves.
    """
    grid = TileGrid(side, side)
    power = np.full(grid.num_tiles, _TOTAL_POWER_W / grid.num_tiles)
    die_side = max(grid.width, grid.height)
    problem = CoolingSystemProblem(
        grid,
        power,
        max_temperature_c=1000.0,
        stack=_scaled_stack(die_side),
        name="bench-{0}x{0}".format(side),
    )
    return problem.model(_dense_deployment(side))


def _build_instance(side):
    return _build_problem_model(side).solver.system


def _safe_currents(system):
    """The probe currents, halved until the largest is below runaway."""
    currents = list(_PROBE_CURRENTS)
    for _ in range(8):
        if cholesky_is_spd(system.system_matrix(max(currents))):
            return tuple(currents)
        currents = [0.5 * c for c in currents]
    raise RuntimeError("could not find probe currents below runaway")


def _time_backend(system, backend, currents):
    solver = SteadyStateSolver(system, mode=backend)
    # The previous backend's session (large factors, the dense reuse
    # influence block) dies through cycle collection; sweep it now so
    # the decay doesn't land inside this backend's measurement.
    gc.collect()
    start = time.perf_counter()
    batch = solver.solve_batch(currents)
    wall = time.perf_counter() - start
    peaks = [float(column.peak_k) for column in batch.columns]
    return {
        "backend": backend,
        "wall_s": wall,
        "peak_k": peaks,
        # Deterministic solver-state accounting (factor fill at 12
        # bytes/nonzero, hierarchy/stencil arrays, cached blocks) —
        # the memory axis of the mg acceptance criterion.
        "solver_bytes": int(solver.solver_state_bytes()),
        "stats": {
            key: value
            for key, value in solver.stats.as_dict().items()
            if isinstance(value, int) and value
        },
    }


def run_workload(sides=None):
    """Measure every applicable backend on every grid.

    Returns ``(entries, metadata)`` in the ``BENCH_backends.json``
    shape: one entry per (grid, backend) plus per-grid skip records.
    """
    entries = []
    for side in sides if sides is not None else _grid_sides():
        build_start = time.perf_counter()
        system = _build_instance(side)
        build_s = time.perf_counter() - build_start
        support = int(np.count_nonzero(system.d_diagonal))
        currents = _safe_currents(system)
        base = {
            "grid": "{0}x{0}".format(side),
            "side": side,
            "num_nodes": int(system.num_nodes),
            "support": support,
            "tecs": support // 2,
            "currents_a": list(currents),
            "build_s": build_s,
        }
        timings = {}
        measured_entries = {}
        for backend in _BACKENDS:
            if backend == "reuse" and support > _REUSE_SUPPORT_LIMIT:
                entries.append(dict(
                    base,
                    backend="reuse",
                    skipped="support {} exceeds the reuse limit {}".format(
                        support, _REUSE_SUPPORT_LIMIT
                    ),
                ))
                continue
            measured = _time_backend(system, backend, currents)
            timings[backend] = measured
            entry = dict(base, **measured)
            measured_entries[backend] = entry
            entries.append(entry)
        if "reuse" in timings:
            # The acceptance ratios: how much faster each challenger
            # backend answers the same probe currents than the dense
            # Woodbury update.
            for backend in ("direct", "mg"):
                if backend in timings:
                    measured_entries[backend]["speedup_vs_reuse"] = (
                        timings["reuse"]["wall_s"] / timings[backend]["wall_s"]
                    )
        if "mg" in timings and "direct" in timings:
            # The mg acceptance ratio: wall-clock vs the per-current
            # factorization on the same system.
            measured_entries["mg"]["speedup_vs_direct"] = (
                timings["direct"]["wall_s"] / timings["mg"]["wall_s"]
            )
    metadata = {
        "workload": "grid-resolution scaling, dense TEC deployments",
        "total_power_w": _TOTAL_POWER_W,
        "reuse_support_limit": _REUSE_SUPPORT_LIMIT,
        "cpu_count": os.cpu_count(),
    }
    return entries, metadata


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def workload():
    return run_workload()


def test_backends_agree(workload):
    entries, _ = workload
    by_grid = {}
    for entry in entries:
        if "skipped" not in entry:
            by_grid.setdefault(entry["grid"], []).append(entry)
    assert by_grid
    for grid, measured in by_grid.items():
        by_backend = {e["backend"]: e for e in measured}
        reference = by_backend.get("direct")
        assert reference is not None, grid
        for entry in measured:
            for peak, ref_peak in zip(entry["peak_k"], reference["peak_k"]):
                assert peak == pytest.approx(ref_peak, abs=1.0e-6), (
                    grid, entry["backend"]
                )


def test_direct_beats_reuse_on_large_grids(workload):
    entries, _ = workload
    ratios = {
        entry["grid"]: entry["speedup_vs_reuse"]
        for entry in entries
        if entry.get("backend") == "direct"
        and entry.get("speedup_vs_reuse") is not None and entry["side"] >= 48
    }
    print()
    for entry in entries:
        if "skipped" in entry:
            print("{:>7} {:<7} skipped: {}".format(
                entry["grid"], entry["backend"], entry["skipped"]))
        else:
            print("{:>7} {:<7} {:8.3f} s  ({} nodes, support {})".format(
                entry["grid"], entry["backend"], entry["wall_s"],
                entry["num_nodes"], entry["support"]))
    if not ratios:
        pytest.skip(
            "no >= 48x48 grid ran both reuse and direct "
            "(BENCH_BACKENDS_GRIDS subset)"
        )
    print("direct speedup vs reuse on large grids: " + ", ".join(
        "{} {:.1f}x".format(grid, ratio) for grid, ratio in sorted(ratios.items())
    ))
    assert min(ratios.values()) > 1.0


@pytest.mark.slow
def test_mg_wins_256(workload):
    """The multigrid tier's acceptance on the chiplet-scale column:
    >= 2x wall-clock over every assembled-factorization backend that
    ran the >= 256x256 grid, with less solver state."""
    entries, _ = workload
    mg_entries = [
        entry for entry in entries
        if entry.get("backend") == "mg" and "skipped" not in entry
        and entry["side"] >= 256
    ]
    if not mg_entries:
        pytest.skip(
            "no >= 256x256 grid in the run (BENCH_BACKENDS_GRIDS subset)"
        )
    for mg_entry in mg_entries:
        rivals = [
            entry for entry in entries
            if entry["side"] == mg_entry["side"] and "skipped" not in entry
            and entry["backend"] in ("direct", "reuse")
        ]
        assert rivals, "mg ran unopposed on {}".format(mg_entry["grid"])
        for rival in rivals:
            ratio = rival["wall_s"] / mg_entry["wall_s"]
            print("{}: mg {:.2f}x faster than {} ({:.1f} MB vs {:.1f} MB)".format(
                mg_entry["grid"], ratio, rival["backend"],
                mg_entry["solver_bytes"] / 1e6, rival["solver_bytes"] / 1e6,
            ))
            assert ratio >= 2.0, (mg_entry["grid"], rival["backend"])
            assert mg_entry["solver_bytes"] < rival["solver_bytes"], (
                mg_entry["grid"], rival["backend"]
            )


def test_writes_bench_json(workload):
    entries, metadata = workload
    path = _REPO_ROOT / "BENCH_backends.json"
    bench_report_to_json("backends", entries, path, metadata=metadata)
    assert path.exists()


if __name__ == "__main__":
    measured_entries, run_metadata = run_workload()
    for item in measured_entries:
        if "skipped" in item:
            print("{:>7} {:<7} skipped: {}".format(
                item["grid"], item["backend"], item["skipped"]))
        else:
            print("{:>7} {:<7} {:8.3f} s".format(
                item["grid"], item["backend"], item["wall_s"]))
    out = _REPO_ROOT / "BENCH_backends.json"
    bench_report_to_json("backends", measured_entries, out, metadata=run_metadata)
    print("written to {}".format(out))
