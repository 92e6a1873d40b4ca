"""Chiplet-scale composite workload for the thermal core.

Builds the two-chiplet interposer package at growing chiplet
resolutions (two ``side x side`` grids with a proportional gap on a
shared interposer/spreader/sink) and measures:

* composite assembly time and node count — the 2.5D build must stay
  in the same complexity class as the single-die assembly;
* the geometric-multigrid solve of the composite system, against the
  factored-SPD ``direct`` baseline where it fits — the acceptance
  column is the 128-per-chiplet package (>= 150k nodes), where the
  chiplet grid only the mg tier handles comfortably must solve and
  agree with the baseline to 1e-6 K;
* on the small column, the independent fine-grained
  :class:`~repro.thermal.reference.ReferenceChipletModel` differential
  (<= 1e-6 K), pinning the physics at benchmark scale too.

The measurements are written to ``BENCH_chiplet.json`` at the repo
root (schema: :func:`repro.io.results.bench_report_to_json`).

The per-chiplet side list honours the ``BENCH_CHIPLET_SIDES``
environment variable (comma-separated, e.g. ``16,32``) so CI can run a
fast subset; the >= 150k-node acceptance assertion skips itself when
no large column is in the list.

Run:  pytest benchmarks/bench_chiplet.py -s
      python benchmarks/bench_chiplet.py
"""

import os
import time
from pathlib import Path

import pytest

from repro.io.results import bench_report_to_json
from repro.thermal.chiplet import demo_two_chiplet_layout
from repro.thermal.model import CompositeThermalModel

_REPO_ROOT = Path(__file__).resolve().parent.parent
_DEFAULT_SIDES = "16,32,128"

#: Per-chiplet total power (W): two of these per package, spread
#: uniformly, so refining the grids changes the resolution only.
_CHIPLET_POWER_W = 30.0

#: The direct baseline stops being timed past this node count; the
#: mg column keeps going alone (with its residual as the check).
_DIRECT_NODE_LIMIT = 400_000

#: Columns at or below this per-chiplet side also run the independent
#: reference assembly (dense spsolve — fine at small scale only).
_REFERENCE_SIDE_LIMIT = 32

#: The acceptance column: composite grids at least this large must
#: solve through mg (>= 150k nodes for 128-per-chiplet).
_ACCEPTANCE_NODES = 150_000


def _chiplet_sides():
    text = os.environ.get("BENCH_CHIPLET_SIDES", _DEFAULT_SIDES)
    sides = sorted({int(part) for part in text.split(",") if part.strip()})
    if not sides:
        raise ValueError("BENCH_CHIPLET_SIDES selected no sides")
    return sides


def _layout(side):
    gap = max(2, side // 16)
    return demo_two_chiplet_layout(
        rows=side, cols=side, gap=gap, power_w=_CHIPLET_POWER_W
    )


def _time_solve(layout, backend):
    build_start = time.perf_counter()
    model = CompositeThermalModel(layout, solver_mode=backend)
    build_s = time.perf_counter() - build_start
    solve_start = time.perf_counter()
    state = model.solve(0.0)
    solve_s = time.perf_counter() - solve_start
    return model, {
        "backend": backend,
        "build_s": build_s,
        "solve_s": solve_s,
        "peak_c": float(state.peak_silicon_c),
    }


def run_workload(sides=None):
    """Measure the composite build + solve on every column.

    Returns ``(entries, metadata)`` in the ``BENCH_chiplet.json``
    shape: one entry per (column, backend) plus skip records.
    """
    entries = []
    for side in sides if sides is not None else _chiplet_sides():
        layout = _layout(side)
        grid = layout.composite_grid()
        base = {
            "column": "2x{0}x{0}".format(side),
            "side": side,
            "num_chiplets": layout.num_chiplets,
            "num_tiles": int(grid.num_tiles),
            "lattice": [int(grid.rows), int(grid.cols)],
            "total_power_w": layout.total_power_w,
        }
        mg_model, mg_entry = _time_solve(layout, "mg")
        base["num_nodes"] = int(mg_model.num_nodes)
        entries.append(dict(base, **mg_entry))
        if mg_model.num_nodes <= _DIRECT_NODE_LIMIT:
            _, direct_entry = _time_solve(layout, "direct")
            direct_entry["mg_speedup"] = (
                direct_entry["solve_s"] / mg_entry["solve_s"]
            )
            direct_entry["peak_delta_vs_mg_c"] = abs(
                direct_entry["peak_c"] - mg_entry["peak_c"]
            )
            entries.append(dict(base, **direct_entry))
        else:
            entries.append(dict(
                base,
                backend="direct",
                skipped="{} nodes exceed the direct limit {}".format(
                    mg_model.num_nodes, _DIRECT_NODE_LIMIT
                ),
            ))
        if side <= _REFERENCE_SIDE_LIMIT:
            from repro.thermal.reference import ReferenceChipletModel

            ref_start = time.perf_counter()
            reference = ReferenceChipletModel(layout)
            ref_peak = reference.peak_tile_temperature_c()
            ref_s = time.perf_counter() - ref_start
            entries.append(dict(
                base,
                backend="reference",
                solve_s=ref_s,
                peak_c=float(ref_peak),
                peak_delta_vs_mg_c=abs(float(ref_peak) - mg_entry["peak_c"]),
            ))
    metadata = {
        "workload": "two-chiplet interposer package, composite mg solves",
        "chiplet_power_w": _CHIPLET_POWER_W,
        "acceptance_nodes": _ACCEPTANCE_NODES,
        "cpu_count": os.cpu_count(),
    }
    return entries, metadata


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def workload():
    return run_workload()


def test_backends_and_reference_agree(workload):
    entries, _ = workload
    print()
    for entry in entries:
        if "skipped" in entry:
            print("{:>10} {:<9} skipped: {}".format(
                entry["column"], entry["backend"], entry["skipped"]))
        else:
            print("{:>10} {:<9} {:8.3f} s  peak {:7.3f} C  ({} nodes)".format(
                entry["column"], entry["backend"], entry["solve_s"],
                entry["peak_c"], entry["num_nodes"]))
    deltas = [
        entry["peak_delta_vs_mg_c"]
        for entry in entries
        if entry.get("peak_delta_vs_mg_c") is not None
    ]
    assert deltas, "no column ran a baseline against mg"
    assert max(deltas) <= 1.0e-6


@pytest.mark.slow
def test_mg_solves_chiplet_scale_grid(workload):
    """The acceptance column: >= 150k composite nodes through mg."""
    entries, _ = workload
    large = [
        entry for entry in entries
        if entry.get("backend") == "mg"
        and entry["num_nodes"] >= _ACCEPTANCE_NODES
    ]
    if not large:
        pytest.skip(
            "no >= 150k-node column in the run (BENCH_CHIPLET_SIDES subset)"
        )
    for entry in large:
        print("{}: {} nodes solved through mg in {:.3f} s".format(
            entry["column"], entry["num_nodes"], entry["solve_s"]))
        assert entry["solve_s"] > 0.0
        assert entry["peak_c"] > 45.0  # above ambient: heat actually flowed


def test_writes_bench_json(workload):
    entries, metadata = workload
    path = _REPO_ROOT / "BENCH_chiplet.json"
    bench_report_to_json("chiplet", entries, path, metadata=metadata)
    assert path.exists()


if __name__ == "__main__":
    measured_entries, run_metadata = run_workload()
    for item in measured_entries:
        if "skipped" in item:
            print("{:>10} {:<9} skipped: {}".format(
                item["column"], item["backend"], item["skipped"]))
        else:
            print("{:>10} {:<9} {:8.3f} s  peak {:7.3f} C".format(
                item["column"], item["backend"], item["solve_s"], item["peak_c"]))
    out = _REPO_ROOT / "BENCH_chiplet.json"
    bench_report_to_json("chiplet", measured_entries, out, metadata=run_metadata)
    print("written to {}".format(out))
