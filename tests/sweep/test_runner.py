"""SweepRunner backends: determinism, fault tolerance, bit-identity.

The serial backend is the reference; the process backend must
reproduce its ``values`` payloads bit-for-bit.  ``solver_stats`` and
``elapsed_s`` are execution metadata — they legitimately differ with
cache warmth and scheduling — so identity is asserted on
``(index, name, task, values)``.
"""

import pytest

from repro.sweep import (
    BACKENDS,
    Scenario,
    ScenarioError,
    ScenarioResult,
    SweepRunner,
    SweepSpec,
    run_sweep,
    validate_workers,
)
from repro.sweep import worker as sweep_worker

_HOTSPOT = tuple(
    0.55 if tile in (5, 6, 9, 10) else 0.08 for tile in range(16)
)


def _small_spec(include_failure=False):
    """A 4x4-grid sweep touching every task type (one shared geometry)."""
    scenarios = [
        # Limit just below the ~65.8 C bare peak, so GreedyDeploy must
        # cover the hot block to become feasible.
        Scenario(name="greedy", task="greedy", rows=4, cols=4,
                 power_map=_HOTSPOT, limit_c=65.25),
        Scenario(name="optimize", task="optimize", rows=4, cols=4,
                 power_map=_HOTSPOT, tec_tiles=(5, 6, 9, 10)),
        Scenario(name="solve", task="solve", rows=4, cols=4,
                 power_map=_HOTSPOT, tec_tiles=(5, 6, 9, 10), current_a=0.4),
        Scenario(name="pareto", task="pareto", rows=4, cols=4,
                 power_map=_HOTSPOT, tec_tiles=(5, 6, 9, 10), budget_w=0.05),
    ]
    if include_failure:
        # Tile 99 is out of range on a 4x4 grid: the worker's model
        # build raises IndexError, which the engine must capture.
        scenarios.insert(
            2,
            Scenario(name="broken", task="optimize", rows=4, cols=4,
                     power_map=_HOTSPOT, tec_tiles=(99,)),
        )
    return SweepSpec(scenarios=scenarios, name="small")


def _identity_view(report):
    return [(r.index, r.name, r.task, r.values) for r in report.results]


class TestRunnerConfiguration:
    def test_default_is_serial(self):
        runner = SweepRunner()
        assert runner.backend == "serial"
        assert runner.workers == 1

    @pytest.mark.parametrize("workers", [None, 1])
    def test_small_worker_counts_stay_serial(self, workers):
        assert SweepRunner(workers).backend == "serial"

    def test_multiple_workers_select_process(self):
        runner = SweepRunner(4)
        assert runner.backend == "process"
        assert runner.workers == 4

    @pytest.mark.parametrize("workers", [0, -1, -3])
    def test_nonpositive_workers_rejected(self, workers):
        """The library matches the CLI: workers <= 0 is an error, not a
        silent serial run (regression — SweepRunner(0) used to run
        serial while ``repro sweep --workers 0`` errored out)."""
        with pytest.raises(ValueError, match="positive"):
            SweepRunner(workers)
        with pytest.raises(ValueError, match="positive"):
            validate_workers(workers)

    @pytest.mark.parametrize("workers", ["two", object()])
    def test_non_integer_workers_rejected(self, workers):
        with pytest.raises(ValueError):
            validate_workers(workers)

    def test_validator_normalizes(self):
        assert validate_workers(None) is None
        assert validate_workers(3) == 3
        assert validate_workers("4") == 4

    def test_backend_override(self):
        assert SweepRunner(4, backend="serial").backend == "serial"
        assert SweepRunner(backend="process").backend == "process"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            SweepRunner(backend="threads")

    def test_backends_constant(self):
        assert BACKENDS == ("serial", "process")


class TestSerialBackend:
    @pytest.fixture(scope="class")
    def report(self):
        sweep_worker.clear_caches()
        return SweepRunner().run(_small_spec())

    def test_all_scenarios_succeed(self, report):
        assert report.ok
        assert report.num_scenarios == 4
        assert [r.name for r in report.results] == [
            "greedy", "optimize", "solve", "pareto",
        ]

    def test_values_are_plain_data(self, report):
        import json

        json.dumps([r.values for r in report.results])

    def test_solver_stats_recorded(self, report):
        merged = report.aggregate_solver_stats()
        assert merged.solves > 0
        assert merged.factorizations > 0

    def test_result_for(self, report):
        assert report.result_for("solve").values["current_a"] == 0.4
        with pytest.raises(KeyError):
            report.result_for("missing")

    def test_accepts_bare_scenario_iterable(self):
        scenarios = list(_small_spec())[:1]
        report = run_sweep(scenarios)
        assert report.ok and report.num_scenarios == 1

    def test_tasks_consistent_across_views(self, report):
        greedy = report.result_for("greedy").values
        optimize = report.result_for("optimize").values
        # The greedy deployment on this instance is the hot block, so
        # the optimize scenario re-derives the same optimum current.
        assert greedy["tec_tiles"] == [5, 6, 9, 10]
        assert greedy["current_a"] == pytest.approx(
            optimize["i_opt_a"], abs=1e-3
        )


class TestFaultTolerance:
    @pytest.fixture(scope="class", params=["serial", "process"])
    def report(self, request):
        sweep_worker.clear_caches()
        workers = 2 if request.param == "process" else None
        return SweepRunner(workers, backend=request.param).run(
            _small_spec(include_failure=True)
        )

    def test_sweep_completes_around_the_failure(self, report):
        assert not report.ok
        assert report.num_scenarios == 5
        assert len(report.results) == 4
        assert len(report.errors) == 1

    def test_error_is_structured(self, report):
        error = report.errors[0]
        assert isinstance(error, ScenarioError)
        assert error.name == "broken"
        assert error.index == 2
        assert error.error_type == "IndexError"
        assert "99" in error.message

    def test_traceback_captured(self, report):
        assert "IndexError" in report.errors[0].traceback

    def test_summary_reports_failure(self, report):
        summary = report.summary()
        assert "FAILED" in summary
        assert "broken" in summary

    def test_successful_results_unaffected(self, report):
        sweep_worker.clear_caches()
        clean = SweepRunner().run(_small_spec())
        by_name = {r.name: r for r in report.results}
        for result in clean.results:
            assert by_name[result.name].values == result.values


def _session_task_spec():
    """The two solve-session task kinds on the shared 4x4 geometry."""
    scenarios = [
        Scenario(name="transient", task="transient", rows=4, cols=4,
                 power_map=_HOTSPOT, tec_tiles=(5, 6, 9, 10),
                 current_a=0.4, dt=0.01, steps=30),
        Scenario(name="multipin", task="multipin", rows=4, cols=4,
                 power_map=_HOTSPOT, tec_tiles=(5, 6, 9, 10),
                 num_groups=2),
    ]
    return SweepSpec(scenarios=scenarios, name="session-tasks")


class TestSessionTaskKinds:
    @pytest.fixture(scope="class")
    def report(self):
        sweep_worker.clear_caches()
        return SweepRunner().run(_session_task_spec())

    def test_all_succeed(self, report):
        assert report.ok

    def test_transient_values(self, report):
        values = report.result_for("transient").values
        assert values["dt_s"] == 0.01
        assert values["steps"] == 30
        # Heating from ambient never overshoots the steady state.
        assert values["final_peak_c"] <= values["steady_peak_c"] + 1e-9
        assert values["max_peak_c"] <= values["steady_peak_c"] + 1e-9
        assert values["steady_gap_c"] == pytest.approx(
            values["steady_peak_c"] - values["final_peak_c"]
        )

    def test_transient_defaults_applied(self):
        scenario = Scenario(
            name="defaults", task="transient", rows=4, cols=4,
            power_map=_HOTSPOT, tec_tiles=(5, 6), current_a=0.2,
        )
        sweep_worker.clear_caches()
        report = SweepRunner().run([scenario])
        values = report.result_for("defaults").values
        assert values["dt_s"] == pytest.approx(1.0e-3)
        assert values["steps"] == 200

    def test_multipin_values(self, report):
        values = report.result_for("multipin").values
        assert values["num_groups"] == 2
        assert len(values["group_currents_a"]) == 2
        # Splitting the pins can only help relative to one shared pin.
        assert values["peak_c"] <= values["shared_peak_c"] + 1e-6
        assert values["improvement_c"] >= -1e-6
        assert values["evaluations"] > 0

    def test_process_backend_bit_identical(self):
        spec = _session_task_spec()
        sweep_worker.clear_caches()
        serial = SweepRunner().run(spec)
        parallel = SweepRunner(2, backend="process").run(spec)
        assert serial.ok and parallel.ok
        assert _identity_view(serial) == _identity_view(parallel)


class TestProcessBitIdentity:
    def test_small_spec_bit_identical(self):
        # backend="process" is forced: an *inferred* pool would degrade
        # to serial on a single-CPU CI host and the comparison would be
        # vacuous (see TestBackendDegradation).
        spec = _small_spec()
        sweep_worker.clear_caches()
        serial = SweepRunner().run(spec)
        parallel = SweepRunner(2, backend="process").run(spec)
        assert parallel.backend == "process"
        assert serial.ok and parallel.ok
        assert _identity_view(serial) == _identity_view(parallel)

    def test_table1_subset_bit_identical(self):
        """Two real Table I rows, serial vs a 2-worker pool."""
        spec = SweepSpec.table1(["hc02", "hc04"])
        sweep_worker.clear_caches()
        serial = SweepRunner().run(spec)
        parallel = SweepRunner(2, backend="process").run(spec)
        assert serial.ok and parallel.ok
        assert _identity_view(serial) == _identity_view(parallel)

    @pytest.mark.slow
    def test_full_table1_bit_identical_with_four_workers(self):
        """Acceptance: workers=4 matches serial on every Table I row."""
        spec = SweepSpec.table1()
        sweep_worker.clear_caches()
        serial = SweepRunner().run(spec)
        parallel = SweepRunner(4, backend="process").run(spec)
        assert serial.ok and parallel.ok
        assert parallel.workers == 4
        assert _identity_view(serial) == _identity_view(parallel)


class TestBackendDegradation:
    """Inferred process pools degrade to serial when the pool cannot pay
    for itself; forced backends never degrade.  The decision is recorded
    in ``report.metadata["runner"]``."""

    def test_constructor_semantics_unchanged(self):
        # Degradation is a run()-time decision: the constructor still
        # reports the inferred backend.
        runner = SweepRunner(4)
        assert runner.backend == "process"
        assert runner.workers == 4

    def test_single_cpu_host_degrades_inferred_pool(self):
        import unittest.mock

        from repro.sweep import runner as runner_mod

        spec = _small_spec()
        with unittest.mock.patch.object(
            runner_mod.os, "cpu_count", return_value=1
        ):
            backend, reason = SweepRunner(2)._resolve_backend(spec)
        assert backend == "serial"
        assert "single-CPU" in reason

    def test_cheap_scenarios_degrade_inferred_pool(self):
        import unittest.mock

        from repro.sweep import runner as runner_mod

        # 4x4 solves cost 16 * 2 = 32 "solve equivalents" — far below
        # the amortization threshold even on a many-core host.
        spec = SweepSpec(
            scenarios=[
                Scenario(name="s{}".format(i), task="solve", rows=4, cols=4,
                         power_map=_HOTSPOT, tec_tiles=(5,), current_a=0.1)
                for i in range(4)
            ],
            name="cheap",
        )
        with unittest.mock.patch.object(
            runner_mod.os, "cpu_count", return_value=8
        ):
            backend, reason = SweepRunner(2)._resolve_backend(spec)
        assert backend == "serial"
        assert "threshold" in reason

    def test_expensive_sweep_keeps_inferred_pool(self):
        import unittest.mock

        from repro.sweep import runner as runner_mod

        # Greedy deployments on 16x16 grids: 256 * 100 per scenario.
        spec = SweepSpec(
            scenarios=[
                Scenario(name="g", task="greedy", rows=16, cols=16,
                         power_map=tuple([0.1] * 256), limit_c=80.0),
            ],
            name="costly",
        )
        with unittest.mock.patch.object(
            runner_mod.os, "cpu_count", return_value=8
        ):
            backend, reason = SweepRunner(2)._resolve_backend(spec)
        assert backend == "process"
        assert reason == "inferred"

    def test_chiplet_scenarios_cost_their_own_tiles(self):
        import unittest.mock

        from repro.sweep import runner as runner_mod

        # Two chiplets of 64x64 and 32x32 tiles: 5120 tiles * 2 per
        # solve clears the threshold the 256-tile default would miss.
        scenario = Scenario(
            name="c", task="solve",
            chiplets=((64, 64, 0, 0, 10.0), (32, 32, 0, 72, 5.0)),
            tec_tiles=(0,), current_a=0.1,
        )
        assert runner_mod._estimate_cost(scenario) == (64 * 64 + 32 * 32) * 2
        with unittest.mock.patch.object(
            runner_mod.os, "cpu_count", return_value=8
        ):
            backend, reason = SweepRunner(2)._resolve_backend(
                SweepSpec(scenarios=[scenario], name="package")
            )
        assert backend == "process"
        assert reason == "inferred"

    def test_forced_process_backend_never_degrades(self):
        backend, reason = SweepRunner(
            2, backend="process"
        )._resolve_backend(_small_spec())
        assert backend == "process"
        assert reason == "forced"

    def test_degraded_run_records_decision_in_metadata(self):
        # On any host: either the single-CPU or the cost gate fires for
        # this cheap spec, so the inferred pool runs serial.
        sweep_worker.clear_caches()
        report = SweepRunner(2).run(_small_spec())
        assert report.backend == "serial"
        runner_meta = report.metadata["runner"]
        assert runner_meta["requested_backend"] == "process"
        assert runner_meta["requested_workers"] == 2
        assert runner_meta["backend"] == "serial"
        assert runner_meta["workers"] == 1
        assert runner_meta["degraded"] is True
        assert runner_meta["reason"].startswith("degraded")

    def test_forced_run_records_decision_in_metadata(self):
        sweep_worker.clear_caches()
        report = SweepRunner(2, backend="process").run(_small_spec())
        assert report.backend == "process"
        runner_meta = report.metadata["runner"]
        assert runner_meta["degraded"] is False
        assert runner_meta["reason"] == "forced"
        assert runner_meta["workers"] == 2
        assert runner_meta["chunk_size"] >= 1

    def test_metadata_preserves_spec_entries(self):
        spec = SweepSpec(
            scenarios=list(_small_spec())[:1],
            name="tagged",
            metadata={"origin": "unit-test"},
        )
        report = SweepRunner().run(spec)
        assert report.metadata["origin"] == "unit-test"
        assert "runner" in report.metadata

    def test_chunk_sizes(self):
        runner = SweepRunner(2, backend="process")
        # ceil(n / (workers * 4)): ~4 chunks per worker.
        assert runner._chunk_size(1) == 1
        assert runner._chunk_size(5) == 1
        assert runner._chunk_size(40) == 5
        assert runner._chunk_size(41) == 6

    def test_degradation_is_bit_identical(self):
        spec = _small_spec()
        sweep_worker.clear_caches()
        serial = SweepRunner().run(spec)
        degraded = SweepRunner(2).run(spec)
        assert degraded.backend == "serial"
        assert _identity_view(serial) == _identity_view(degraded)


class TestOrdering:
    def test_results_keep_spec_order(self):
        spec = _small_spec(include_failure=True)
        report = SweepRunner(2, backend="process").run(spec)
        indices = [r.index for r in report.results]
        assert indices == sorted(indices)
        names = {s.name: i for i, s in enumerate(spec)}
        for result in report.results:
            assert result.index == names[result.name]

    def test_report_records_backend_and_spec(self):
        report = SweepRunner().run(_small_spec())
        assert report.spec_name == "small"
        assert report.backend == "serial"
        assert isinstance(report.results[0], ScenarioResult)


def _crashing_execute(index, scenario, shared=None):
    """Pool-crash stand-in for ``worker.execute``: hard-kills the worker
    process on the marked scenario (bypassing the worker's exception
    capture) and delegates everything else."""
    if scenario.name == "crash":
        import os as worker_os

        worker_os._exit(17)
    return sweep_worker.execute(index, scenario, shared)


class TestPoolCrashPreservesResults:
    """A BrokenProcessPool mid-sweep must not discard completed results.

    Regression: the old runner's broad ``except Exception`` turned the
    crash into indistinguishable per-scenario errors, and a break
    during submission aborted the whole sweep, discarding scenarios
    that had already completed successfully.
    """

    @pytest.fixture(scope="class")
    def report(self):
        import multiprocessing

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("crash injection requires the fork start method")
        scenarios = list(_small_spec())
        scenarios.insert(
            2,
            Scenario(name="crash", task="solve", rows=4, cols=4,
                     power_map=_HOTSPOT, tec_tiles=(5, 6), current_a=0.1),
        )
        spec = SweepSpec(scenarios=scenarios, name="crashy")
        sweep_worker.clear_caches()
        runner = SweepRunner(1, backend="process")
        import unittest.mock

        with unittest.mock.patch(
            "repro.sweep.runner.execute", _crashing_execute
        ):
            return runner.run(spec)

    def test_completed_results_preserved(self, report):
        # One worker executes in submission order: the two scenarios
        # before the crash completed and must keep their results.
        names = [r.name for r in report.results]
        assert "greedy" in names and "optimize" in names

    def test_unfinished_scenarios_marked_as_pool_faults(self, report):
        assert not report.ok
        faults = report.pool_faults
        assert faults, "expected pool-fault errors after the crash"
        assert {e.name for e in faults} >= {"crash"}
        for fault in faults:
            assert fault.kind == "pool"
            assert fault.traceback == ""  # no worker-side traceback exists

    def test_every_scenario_accounted_for(self, report):
        assert report.num_scenarios == 5
        indices = sorted(
            [r.index for r in report.results] + [e.index for e in report.errors]
        )
        assert indices == [0, 1, 2, 3, 4]

    def test_pool_faults_distinguished_from_scenario_faults(self):
        """In-scenario exceptions keep kind='scenario' with a traceback."""
        sweep_worker.clear_caches()
        report = SweepRunner(2, backend="process").run(
            _small_spec(include_failure=True)
        )
        assert report.pool_faults == ()
        (error,) = report.scenario_faults
        assert error.kind == "scenario"
        assert "IndexError" in error.traceback

    def test_summary_labels_pool_faults(self, report):
        summary = report.summary()
        assert "(pool fault)" in summary


class TestScenarioSolverBackends:
    def test_backend_reaches_the_problem(self):
        sweep_worker.clear_caches()
        scenario = Scenario(
            name="k", task="solve", rows=4, cols=4, power_map=_HOTSPOT,
            tec_tiles=(5, 6, 9, 10), current_a=0.4, backend="direct",
        )
        problem = sweep_worker.problem_for(scenario)
        assert problem.solver_mode == "direct"

    def test_backends_never_share_problems(self):
        """Two scenarios differing only in backend must get distinct
        problem instances — a warm cache must not answer a direct
        scenario with a reuse solver."""
        sweep_worker.clear_caches()
        base = dict(task="solve", rows=4, cols=4, power_map=_HOTSPOT,
                    tec_tiles=(5, 6, 9, 10), current_a=0.4)
        reuse = sweep_worker.problem_for(Scenario(name="r", backend="reuse", **base))
        reuse.model((5, 6))  # record the geometry's network blueprint
        direct = sweep_worker.problem_for(Scenario(name="d", backend="direct", **base))
        assert reuse is not direct
        assert reuse.solver_mode == "reuse"
        assert direct.solver_mode == "direct"
        # ... while still sharing the recorded network blueprint
        assert direct._blueprint is not None
        assert direct._blueprint is reuse._blueprint

    def test_backends_agree_in_a_sweep(self):
        sweep_worker.clear_caches()
        scenarios = [
            Scenario(
                name="solve/{}".format(backend or "default"),
                task="solve", rows=4, cols=4, power_map=_HOTSPOT,
                tec_tiles=(5, 6, 9, 10), current_a=0.4, backend=backend,
            )
            for backend in (None, "direct", "reuse", "mg", "auto")
        ]
        report = run_sweep(SweepSpec(scenarios=scenarios, name="backends"))
        assert report.ok
        peaks = [r.values["peak_c"] for r in report.results]
        for peak in peaks[1:]:
            assert peak == pytest.approx(peaks[0], abs=1e-6)
