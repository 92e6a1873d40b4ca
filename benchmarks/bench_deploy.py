"""GreedyDeploy against the Figure 5 oracle.

Runs the full GreedyDeploy pipeline twice per workload — once through
:func:`repro.core.deploy.greedy_deploy` (warm rounds: a
``lambda_m``-scaled bracket searched by ``"newton"``, large-support
rounds on the ``direct`` backend) and once through the cold replay of
Figure 5 (:func:`tests.core.deploy_oracle.figure5_oracle`: every round
a fresh golden-section search on its own full capped interval) — on
the Table I ``alpha`` floorplan and on dense Gaussian-hotspot grids
(24x24 up to 48x48), and checks:

* both visit identical rounds (same ``added_tiles`` per round) and
  finish with the identical deployment and verdict;
* their optima agree: polished on the *oracle's* final model (the
  deterministic :func:`repro.core.current.polish_current` fixed point
  — raw argmins sit on a solver-noise plateau, and polishing on
  different solver backends shifts the shallow parabola vertex by
  ~1e-6), ``I_opt`` matches to 1e-6 A and the peak temperature to
  1e-6 K;
* on a dense >= 32x32 grid ``greedy_deploy`` is >= 2x faster than the
  oracle end-to-end (neither run is polished inside the timing).

The measurements are written to ``BENCH_deploy.json`` at the repo
root (schema: :func:`repro.io.results.bench_report_to_json`) so the
perf trajectory is machine-readable across commits.

The workload list honours the ``BENCH_DEPLOY_GRIDS`` environment
variable (comma-separated, e.g. ``table1,24``) so CI can run a fast
subset; the speedup assertion skips itself when no >= 32x32 grid is
in the list.

Run from the repo root (the oracle lives in the test package):
      PYTHONPATH=src python -m pytest benchmarks/bench_deploy.py -s
      PYTHONPATH=src:. python benchmarks/bench_deploy.py
"""

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.current import polish_current
from repro.core.deploy import greedy_deploy
from repro.core.problem import CoolingSystemProblem
from repro.experiments.benchmarks import load_benchmark
from repro.io.results import bench_report_to_json
from repro.thermal.geometry import TileGrid
from repro.thermal.stack import PackageStack
from tests.core.deploy_oracle import figure5_oracle

_REPO_ROOT = Path(__file__).resolve().parent.parent
_DEFAULT_WORKLOADS = "table1,24,32,48"

#: Problem 2 search tolerance for both runs.  Tight enough that the
#: two search centers land close together, so the common polish
#: converges to the same fixed point well inside the 1e-6 A agreement
#: budget.
_CURRENT_TOLERANCE = 1.0e-6

#: Agreement budgets (acceptance criteria).
_CURRENT_AGREEMENT_A = 1.0e-6
_PEAK_AGREEMENT_K = 1.0e-6

#: The speedup assertion only fires on grids at least this large —
#: smaller instances are dominated by per-run constants (bare solve,
#: model assembly) that warm rounds cannot amortize.  The target sits
#: below every committed >= 32x32 ratio of ``BENCH_deploy.json``.
_SPEEDUP_MIN_SIDE = 32
_SPEEDUP_TARGET = 2.0

#: Dense-grid hotspot shape: a central Gaussian plus a broad shoulder
#: over a mild background, with the temperature limit placed at the
#: 75th percentile of the bare map.  Offenders then cover ~25% of the
#: die in round 0 and the re-optimized current uncovers a second,
#: much larger offender ring, so the greedy loop takes two rounds —
#: the second, warm-started round is where ``greedy_deploy`` saves
#: over the oracle.  The instance ends infeasible (offenders inside
#: the deployment), mirroring the HC06/HC09 rows of Table I; both runs
#: must agree on that verdict.
_LIMIT_PERCENTILE = 75.0


def _workloads():
    text = os.environ.get("BENCH_DEPLOY_GRIDS", _DEFAULT_WORKLOADS)
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("BENCH_DEPLOY_GRIDS selected no workloads")
    return items


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


def _gaussian_power(side):
    ys, xs = np.divmod(np.arange(side * side), side)
    center = (side - 1) / 2.0
    # Distances in 24x24-tile units so the physical hotspot footprint
    # (and with it the round structure) is resolution-independent.
    d2 = ((ys - center) ** 2 + (xs - center) ** 2) * (24.0 / side) ** 2
    shape = (
        0.05
        + 0.5 * np.exp(-d2 / (2.0 * 4.0**2))
        + 0.25 * np.exp(-d2 / (2.0 * 9.0**2))
    )
    return shape * 0.2 * (24.0 / side) ** 2


def _dense_grid_problem(side):
    """A dense hotspot instance; returns one problem per call so the
    two runs never share solver caches."""
    grid = TileGrid(side, side)
    die_side = max(grid.width, grid.height)
    problem = CoolingSystemProblem(
        grid,
        _gaussian_power(side),
        max_temperature_c=1000.0,
        stack=_scaled_stack(die_side),
        name="bench-deploy-{0}x{0}".format(side),
    )
    bare = problem.model(()).solve(0.0)
    limit = float(np.percentile(bare.silicon_c, _LIMIT_PERCENTILE))
    return problem.with_limit(limit)


def _problem_for(workload):
    if workload == "table1":
        return load_benchmark("alpha")
    return _dense_grid_problem(int(workload))


def _problem_for(workload):
    if workload == "table1":
        return load_benchmark("alpha")
    return _dense_grid_problem(int(workload))


def _timed(run, problem):
    start = time.perf_counter()
    result = run(problem, current_tolerance=_CURRENT_TOLERANCE)
    return result, time.perf_counter() - start


def _measure(workload):
    problem = _problem_for(workload)
    oracle, oracle_wall = _timed(figure5_oracle, _problem_for(workload))
    result, deploy_wall = _timed(greedy_deploy, problem)

    rounds_match = [it.added_tiles for it in result.iterations] == oracle.added_tiles
    # One evaluation oracle for both optima: the oracle's final model.
    upper = 0.98 * oracle.lambda_m
    ref_oracle, _ = polish_current(oracle.model, oracle.current, upper=upper)
    ref_deploy, _ = polish_current(oracle.model, result.current, upper=upper)
    peak_oracle = float(oracle.model.solve(ref_oracle).peak_silicon_c)
    peak_deploy = float(oracle.model.solve(ref_deploy).peak_silicon_c)

    grid = problem.grid
    return {
        "workload": workload,
        "name": problem.name,
        "side": int(max(grid.rows, grid.cols)),
        "num_tiles": int(grid.num_tiles),
        "limit_c": float(problem.max_temperature_c),
        "feasible": bool(oracle.feasible),
        "rounds": len(oracle.added_tiles),
        "tecs": len(oracle.tec_tiles),
        "wall_oracle_s": oracle_wall,
        "wall_deploy_s": deploy_wall,
        "speedup": oracle_wall / deploy_wall,
        "same_deployment": bool(oracle.tec_tiles == result.tec_tiles),
        "same_rounds": bool(rounds_match),
        "same_feasible": bool(oracle.feasible == result.feasible),
        "i_opt_oracle_a": ref_oracle,
        "i_opt_deploy_a": ref_deploy,
        "di_a": abs(ref_oracle - ref_deploy),
        "dpeak_k": abs(peak_oracle - peak_deploy),
        "evals_oracle": oracle.evaluations,
        "evals_deploy": result.deploy_stats.total_evaluations,
        "stats_deploy": result.deploy_stats.as_dict(),
    }


def run_workload(workloads=None):
    """Race ``greedy_deploy`` against the oracle on every workload.

    Returns ``(entries, metadata)`` in the ``BENCH_deploy.json`` shape:
    one entry per workload with both walls, the speedup and the
    agreement checks.
    """
    entries = [
        _measure(workload)
        for workload in (workloads if workloads is not None else _workloads())
    ]
    metadata = {
        "workload": "GreedyDeploy vs the cold Figure 5 oracle, unpolished",
        "current_tolerance": _CURRENT_TOLERANCE,
        "limit_percentile": _LIMIT_PERCENTILE,
        "speedup_min_side": _SPEEDUP_MIN_SIDE,
        "speedup_target": _SPEEDUP_TARGET,
        "cpu_count": os.cpu_count(),
    }
    return entries, metadata


def _report_line(entry):
    return (
        "{:>12} oracle {:7.3f} s  greedy_deploy {:7.3f} s  -> {:5.2f}x  "
        "({} rounds, {} TECs, evals {} -> {}, dI {:.2e} A)".format(
            entry["workload"], entry["wall_oracle_s"],
            entry["wall_deploy_s"], entry["speedup"],
            entry["rounds"], entry["tecs"],
            entry["evals_oracle"], entry["evals_deploy"], entry["di_a"],
        )
    )


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def workload():
    return run_workload()


def test_matches_oracle(workload):
    entries, _ = workload
    assert entries
    for entry in entries:
        label = entry["workload"]
        assert entry["same_feasible"], label
        assert entry["same_rounds"], label
        assert entry["same_deployment"], label
        assert entry["di_a"] <= _CURRENT_AGREEMENT_A, (label, entry["di_a"])
        assert entry["dpeak_k"] <= _PEAK_AGREEMENT_K, (label, entry["dpeak_k"])


def test_speedup_over_oracle_on_dense_grid(workload):
    entries, _ = workload
    print()
    for entry in entries:
        print(_report_line(entry))
    ratios = {
        entry["workload"]: entry["speedup"]
        for entry in entries
        if entry["workload"] != "table1" and entry["side"] >= _SPEEDUP_MIN_SIDE
    }
    if not ratios:
        pytest.skip(
            "no >= {0}x{0} dense grid in the list "
            "(BENCH_DEPLOY_GRIDS subset)".format(_SPEEDUP_MIN_SIDE)
        )
    print("speedup over the oracle on dense grids: " + ", ".join(
        "{} {:.2f}x".format(name, ratio)
        for name, ratio in sorted(ratios.items())
    ))
    assert min(ratios.values()) >= _SPEEDUP_TARGET


def test_writes_bench_json(workload):
    entries, metadata = workload
    path = _REPO_ROOT / "BENCH_deploy.json"
    bench_report_to_json("deploy", entries, path, metadata=metadata)
    assert path.exists()


if __name__ == "__main__":
    measured_entries, run_metadata = run_workload()
    for item in measured_entries:
        print(_report_line(item))
    out = _REPO_ROOT / "BENCH_deploy.json"
    bench_report_to_json("deploy", measured_entries, out, metadata=run_metadata)
    print("written to {}".format(out))
