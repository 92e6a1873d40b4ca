"""Result serialization round trips."""

import json

import pytest

from repro.core.report import BenchmarkRow
from repro.io.results import (
    bench_report_from_json,
    bench_report_to_json,
    deployment_to_dict,
    rows_from_json,
    rows_to_json,
    sweep_report_from_json,
    sweep_report_to_json,
)
from repro.sweep.report import ScenarioError, ScenarioResult, SweepReport


def _row(name="alpha"):
    return BenchmarkRow(
        name=name,
        theta_peak_c=91.8,
        theta_limit_c=85.0,
        num_tecs=13,
        i_opt_a=5.86,
        p_tec_w=1.11,
        fullcover_min_peak_c=87.9,
        swing_loss_c=3.8,
        feasible=True,
        greedy_peak_c=84.1,
        runtime_s=0.3,
    )


class TestRowsJson:
    def test_round_trip_string(self):
        text = rows_to_json([_row(), _row("hc01")])
        rows = rows_from_json(text)
        assert [row.name for row in rows] == ["alpha", "hc01"]
        assert rows[0].i_opt_a == pytest.approx(5.86)

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "rows.json"
        rows_to_json([_row()], path)
        rows = rows_from_json(str(path))
        assert rows[0].num_tecs == 13

    def test_metadata_embedded(self):
        text = rows_to_json([_row()], metadata={"calibration": "v1"})
        document = json.loads(text)
        assert document["metadata"]["calibration"] == "v1"

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="kind"):
            rows_from_json('{"kind": "other", "schema": 1, "rows": []}')

    def test_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="schema"):
            rows_from_json('{"kind": "table1-rows", "schema": 99, "rows": []}')


def _sweep_report():
    return SweepReport(
        spec_name="demo",
        backend="process",
        workers=2,
        results=(
            ScenarioResult(
                index=0, name="a", task="greedy",
                values={"peak_c": 84.1, "tec_tiles": [3, 4]},
                elapsed_s=0.25,
                solver_stats={"solves": 7, "factorizations": 1},
            ),
        ),
        errors=(
            ScenarioError(
                index=1, name="b", task="greedy",
                error_type="IndexError", message="tile 99",
                traceback="Traceback ...",
            ),
        ),
        wall_time_s=0.5,
        scenario_time_s=0.25,
        metadata={"note": "unit"},
    )


class TestSweepReportJson:
    def test_round_trip_string_is_lossless(self):
        original = _sweep_report()
        restored = sweep_report_from_json(sweep_report_to_json(original))
        assert restored == original

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "report.json"
        sweep_report_to_json(_sweep_report(), path)
        restored = sweep_report_from_json(str(path))
        assert restored.spec_name == "demo"
        assert restored.errors[0].error_type == "IndexError"
        assert restored.results[0].solver_stats["solves"] == 7

    def test_metrics_survive_round_trip(self):
        restored = sweep_report_from_json(sweep_report_to_json(_sweep_report()))
        assert restored.num_scenarios == 2
        assert not restored.ok
        assert restored.aggregate_solver_stats().solves == 7

    def test_metadata_embedded(self):
        text = sweep_report_to_json(_sweep_report(), metadata={"rev": "abc"})
        assert json.loads(text)["metadata"]["rev"] == "abc"

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="kind"):
            sweep_report_from_json(rows_to_json([_row()]))

    def test_round_trip_of_real_sweep(self, tmp_path):
        """A report produced by the engine itself survives the trip."""
        from repro.sweep import Scenario, run_sweep

        report = run_sweep(
            [
                Scenario(
                    name="solve", task="solve", rows=2, cols=2,
                    power_map=(0.3, 0.1, 0.1, 0.1),
                    tec_tiles=(0,), current_a=0.2,
                )
            ]
        )
        restored = sweep_report_from_json(sweep_report_to_json(report))
        assert restored.results[0].values == report.results[0].values
        assert restored.wall_time_s == report.wall_time_s


class TestBenchReport:
    _ENTRIES = [
        {"grid": "8x8", "backend": "mg", "wall_s": 0.01},
        {"grid": "8x8", "backend": "reuse", "wall_s": 0.02},
    ]

    def test_round_trip_via_string(self):
        text = bench_report_to_json(
            "backends", self._ENTRIES, metadata={"cpu_count": 1}
        )
        name, entries, metadata = bench_report_from_json(text)
        assert name == "backends"
        assert entries == self._ENTRIES
        assert metadata == {"cpu_count": 1}

    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        bench_report_to_json("x", self._ENTRIES, str(path))
        name, entries, metadata = bench_report_from_json(str(path))
        assert name == "x"
        assert entries == self._ENTRIES
        assert metadata == {}

    def test_document_shape(self):
        document = json.loads(bench_report_to_json("x", []))
        assert document["kind"] == "bench-report"
        assert document["schema"] == 1
        assert document["entries"] == []

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="kind"):
            bench_report_from_json(rows_to_json([_row()]))


class TestDeploymentDict:
    def test_flattens_real_result(self, alpha_greedy):
        data = deployment_to_dict(alpha_greedy)
        assert data["problem"] == "alpha"
        assert data["feasible"] is True
        assert data["num_tecs"] == len(data["tec_tiles"])
        assert data["iterations"]
        json.dumps(data)  # must be JSON-representable
