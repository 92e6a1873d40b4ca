"""Reproduction of Table I (Section VI).

For every benchmark: solve the bare chip (``theta_peak``), run
GreedyDeploy (``#TECs``, ``I_opt``, ``P_TEC``) and the Full-Cover
baseline (``min theta_peak``, ``SwingLoss``).  ``run_table1`` returns
the rows plus paper-vs-measured deltas; invoking the module
(``python -m repro.experiments.table1``) prints the table.

Rows are evaluated through the scenario-sweep engine
(:mod:`repro.sweep`): every benchmark is one independent ``table1``
scenario, so ``run_table1(workers=4)`` fans the table out over a
process pool with bit-identical results to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.baselines import full_cover
from repro.core.deploy import greedy_deploy
from repro.core.report import BenchmarkRow, format_table1
from repro.experiments.benchmarks import BENCHMARKS, benchmark_names


@dataclass
class Table1Comparison:
    """Measured rows plus paper-vs-measured summary."""

    rows: list
    paper_rows: dict
    avg_p_tec_w: float
    avg_swing_loss_c: float
    sweep_report: object = None

    def render(self, markdown=False):
        """The measured table in the paper's layout."""
        return format_table1(self.rows, markdown=markdown)

    def deltas(self):
        """Per-row dict of measured-minus-paper deltas for key columns."""
        out = {}
        for row in self.rows:
            spec = self.paper_rows[row.name]
            out[row.name] = {
                "theta_peak": row.theta_peak_c - spec.paper_theta_peak_c,
                "num_tecs": row.num_tecs - spec.paper_num_tecs,
                "i_opt": row.i_opt_a - spec.paper_i_opt_a,
                "p_tec": row.p_tec_w - spec.paper_p_tec_w,
                "min_peak": row.fullcover_min_peak_c - spec.paper_min_peak_c,
                "swing_loss": row.swing_loss_c - spec.paper_swing_loss_c,
            }
        return out


def run_benchmark_row(name, *, stack=None, device=None, current_method="golden",
                      max_rounds=None):
    """Run one Table I row; returns ``(BenchmarkRow, greedy, fullcover)``."""
    spec = BENCHMARKS[name]
    problem = spec.problem(stack=stack, device=device)
    greedy = greedy_deploy(problem, current_method=current_method,
                           max_rounds=max_rounds)
    baseline = full_cover(problem, current_method=current_method)
    row = BenchmarkRow.from_results(spec.name, spec.limit_c, greedy, baseline)
    return row, greedy, baseline


def row_from_scenario_result(result):
    """Rebuild a :class:`BenchmarkRow` from a ``table1`` sweep result."""
    if result.task != "table1":
        raise ValueError(
            "scenario {!r} has task {!r}, expected 'table1'".format(
                result.name, result.task
            )
        )
    values = result.values
    return BenchmarkRow(
        name=result.name,
        theta_peak_c=values["no_tec_peak_c"],
        theta_limit_c=values["limit_c"],
        num_tecs=values["num_tecs"],
        i_opt_a=values["current_a"],
        p_tec_w=values["tec_power_w"],
        fullcover_min_peak_c=values["fullcover_min_peak_c"],
        swing_loss_c=values["swing_loss_c"],
        feasible=values["feasible"],
        greedy_peak_c=values["peak_c"],
        runtime_s=result.elapsed_s,
    )


def run_table1(names=None, *, stack=None, device=None, current_method="golden",
               workers=None, max_rounds=None):
    """Run all (or selected) Table I rows.

    Parameters
    ----------
    names:
        Benchmark keys to run (default: every Table I row).
    stack / device:
        Package/device overrides.  When given, rows run serially in
        this process (overriding objects are not part of the
        plain-data scenario vocabulary); otherwise every row is a
        sweep scenario.
    workers:
        Fan the rows out over a process pool of this size (requires
        default stack/device).  ``None`` runs the serial sweep backend.
    max_rounds:
        Greedy-round budget per row; None runs every row to natural
        termination.  Rows that exhaust the budget report
        ``feasible=False`` with the rounds taken so far.

    Returns a :class:`Table1Comparison`; with the sweep path the
    underlying :class:`~repro.sweep.report.SweepReport` is attached as
    ``comparison.sweep_report``.
    """
    names = list(names) if names is not None else benchmark_names()
    report = None
    if stack is None and device is None:
        from repro.sweep import SweepRunner, SweepSpec

        spec = SweepSpec.table1(names, current_method=current_method,
                                max_rounds=max_rounds)
        report = SweepRunner(workers).run(spec)
        if report.errors:
            first = report.errors[0]
            raise RuntimeError(
                "Table I row {!r} failed: {}: {}\n{}".format(
                    first.name, first.error_type, first.message, first.traceback
                )
            )
        by_name = {result.name: result for result in report.results}
        rows = [row_from_scenario_result(by_name[name]) for name in names]
    else:
        if workers is not None and workers != 1:
            raise ValueError(
                "workers requires the default stack/device (scenarios are "
                "plain data); run serially or drop the overrides"
            )
        rows = []
        for name in names:
            row, _, _ = run_benchmark_row(
                name, stack=stack, device=device, current_method=current_method,
                max_rounds=max_rounds,
            )
            rows.append(row)
    return Table1Comparison(
        rows=rows,
        paper_rows={name: BENCHMARKS[name] for name in names},
        avg_p_tec_w=float(np.mean([row.p_tec_w for row in rows])),
        avg_swing_loss_c=float(np.mean([row.swing_loss_c for row in rows])),
        sweep_report=report,
    )


def main():
    """Print the reproduced Table I with paper deltas."""
    comparison = run_table1()
    print(comparison.render())
    print()
    print(
        "averages: P_TEC {:.2f} W (paper 1.70), SwingLoss {:.1f} C (paper 4.2)".format(
            comparison.avg_p_tec_w, comparison.avg_swing_loss_c
        )
    )


if __name__ == "__main__":
    main()
