"""Fault-tolerant parallel execution of a :class:`~repro.sweep.spec.SweepSpec`.

Two backends:

``serial``
    Run every scenario in the calling process, in spec order.  This is
    the deterministic reference backend: tests assert that the process
    backend reproduces its results bit-for-bit.
``process``
    Fan scenarios out over a ``concurrent.futures.ProcessPoolExecutor``.
    Scenarios are pure functions of their plain-data description, so
    the only coordination is the result hand-back; workers rebuild
    problems from the scenario payload and amortize package
    construction through the per-process blueprint cache in
    :mod:`repro.sweep.worker`.

When the caller let the runner *infer* the process backend from a
worker count (rather than forcing ``backend="process"``), the choice
is re-examined per sweep at :meth:`SweepRunner.run` time: on a
single-CPU host, or when the estimated per-scenario cost is too small
to amortize the fork/IPC overhead, the sweep degrades to the serial
backend (results are bit-identical by construction — serial is the
reference).  Scenarios are also dispatched to the pool in contiguous
chunks instead of one task each, so cheap scenarios share one IPC
round trip.  The decision and shape land in the report metadata under
``"runner"`` so benchmark JSON shows what actually ran.

Failures never abort the sweep, and the two failure classes stay
distinguishable in the report:

* an exception *inside* a scenario is captured worker-side as a
  :class:`~repro.sweep.report.ScenarioError` with
  ``kind="scenario"`` (formatted traceback included) — every other
  scenario still completes;
* a worker-process crash (``BrokenProcessPool``) or any other
  transport failure is captured runner-side as a ``kind="pool"``
  fault on exactly the scenarios that did not finish.  Results that
  already completed before the crash are preserved in the returned
  :class:`~repro.sweep.report.SweepReport`.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

from repro.sweep.report import ScenarioError, SweepReport
from repro.sweep.spec import SweepSpec
from repro.sweep.worker import execute

#: Backends accepted by :class:`SweepRunner`.
BACKENDS = ("serial", "process")

#: Relative cost weights per scenario task, in "solve equivalents" per
#: tile (a greedy deployment run factors/solves hundreds of times per
#: round; a plain solve once).  Only the *ratios* matter — the
#: estimate gates pool amortization, it is not a wall-clock model.
_TASK_WEIGHTS = {
    "greedy": 100,
    "table1": 100,
    "multipin": 40,
    "pareto": 20,
    "optimize": 20,
    "transient": 10,
    "solve": 2,
}

#: Tile count assumed for benchmark-named scenarios (the registered
#: Table I benchmarks are 16x16 grids).
_DEFAULT_TILES = 256

#: Mean per-scenario cost (tiles x task weight) below which an
#: *inferred* process pool degrades to serial: forking an interpreter,
#: re-importing the scientific stack and pickling results costs more
#: than the solve itself — the 0.94x "speedup" previously recorded in
#: ``BENCH_sweep.json`` was exactly this regime.
_POOL_COST_THRESHOLD = 10_000


def _estimate_cost(scenario):
    """Tiles x task weight — the IPC-amortization cost proxy."""
    if scenario.chiplets:
        tiles = sum(rows * cols for rows, cols, *_ in scenario.chiplets)
    elif scenario.rows and scenario.cols:
        tiles = int(scenario.rows) * int(scenario.cols)
    else:
        tiles = _DEFAULT_TILES
    return tiles * _TASK_WEIGHTS.get(scenario.task, 10)


def _execute_chunk(items, shared=None):
    """Run a contiguous chunk of scenarios inside one worker task.

    ``items`` is a list of ``(index, scenario)`` pairs; the worker
    loops the ordinary scenario entry point over them, so per-scenario
    fault capture is untouched — one chunk result simply carries
    several scenario outcomes across the process boundary in a single
    IPC round trip.

    ``execute`` is looked up in the module globals *at call time* (not
    closed over at submit time) so test instrumentation that patches
    ``repro.sweep.runner.execute`` still intercepts chunked dispatch
    under a fork start method.
    """
    return [execute(index, scenario, shared) for index, scenario in items]


def validate_workers(workers):
    """Normalize and validate a worker count; shared with the CLI.

    ``None`` means "serial" and passes through; any other value must
    be an integer >= 1.  Non-positive counts raise ``ValueError`` —
    the library and the CLI ``--workers`` flag enforce the identical
    contract, so ``SweepRunner(0)`` can no longer silently run serial
    while ``repro sweep --workers 0`` errors out.
    """
    if workers is None:
        return None
    try:
        value = int(workers)
    except (TypeError, ValueError):
        raise ValueError(
            "workers must be None or an integer >= 1, got {!r}".format(workers)
        )
    if value < 1:
        raise ValueError(
            "workers must be a positive integer, got {}".format(value)
        )
    return value


def pool_fault(index, scenario, error):
    """A runner-side fault record for a scenario the pool lost.

    Worker-side exceptions never surface as raises (``execute``
    captures them and *returns* the error record), so anything raised
    while collecting a future is a pool-level failure: a crashed
    worker (``BrokenProcessPool``), a poisoned pipe, or a result that
    could not cross the process boundary.  Shared with the serve
    layer's process tier, which mirrors the same crash semantics.
    """
    return ScenarioError(
        index=int(index),
        name=scenario.name,
        task=scenario.task,
        error_type=type(error).__name__,
        message=str(error) or type(error).__name__,
        kind="pool",
    )


class SweepRunner:
    """Execute sweeps over a chosen backend.

    Parameters
    ----------
    workers:
        Worker-process count, ``None`` or an integer >= 1
        (:func:`validate_workers`).  ``None`` and 1 select the serial
        backend; larger values the process backend (unless ``backend``
        overrides the choice).
    backend:
        Force ``"serial"`` or ``"process"`` regardless of ``workers``.
        A *forced* process backend is never degraded at run time; an
        inferred one (``workers > 1`` with ``backend=None``) may
        degrade to serial per sweep — see :meth:`run`.
    share_blueprints:
        Process backend only: broadcast each multi-scenario geometry's
        assembled problem to the workers through one
        ``multiprocessing.shared_memory`` segment
        (:mod:`repro.sweep.shm`) instead of letting every worker pay
        the full first build.  Results are bit-identical either way;
        set False to force per-worker builds.
    """

    def __init__(self, workers=None, *, backend=None, share_blueprints=True):
        workers = validate_workers(workers)
        self._forced_backend = backend is not None
        if backend is None:
            backend = "process" if workers is not None and workers > 1 else "serial"
        if backend not in BACKENDS:
            raise ValueError(
                "backend must be one of {}, got {!r}".format(BACKENDS, backend)
            )
        if backend == "process" and workers is None:
            workers = os.cpu_count() or 1
        self.backend = backend
        self.workers = workers if backend == "process" else 1
        self.share_blueprints = bool(share_blueprints)

    def _resolve_backend(self, spec):
        """The backend this sweep will actually run, with the reason.

        A forced backend (explicit ``backend=`` at construction) and
        the serial backend pass through untouched.  An *inferred*
        process backend degrades to serial when the host has a single
        CPU (workers would serialize anyway, after paying fork and
        IPC) or when the sweep's mean estimated scenario cost sits
        below :data:`_POOL_COST_THRESHOLD` — both are the regimes
        where the pool measured *slower* than serial.
        """
        if self.backend != "process" or self._forced_backend:
            return self.backend, "forced" if self._forced_backend else "inferred"
        if (os.cpu_count() or 1) <= 1:
            return "serial", "degraded: single-CPU host"
        scenarios = list(spec)
        if scenarios:
            mean_cost = sum(
                _estimate_cost(scenario) for scenario in scenarios
            ) / len(scenarios)
            if mean_cost < _POOL_COST_THRESHOLD:
                return "serial", (
                    "degraded: mean scenario cost {:.0f} below the "
                    "IPC-amortization threshold {}".format(
                        mean_cost, _POOL_COST_THRESHOLD
                    )
                )
        return "process", "inferred"

    def _chunk_size(self, num_scenarios):
        """Chunks per worker: ~4, so stragglers still rebalance."""
        return max(1, -(-num_scenarios // (self.workers * 4)))

    def run(self, spec):
        """Run every scenario of ``spec``; returns a :class:`SweepReport`.

        Results and errors keep spec order regardless of completion
        order, so reports are reproducible across backends — including
        when an inferred process pool degrades to serial (serial *is*
        the reference ordering).  The resolved configuration is
        recorded in the report metadata under ``"runner"``.
        """
        if not isinstance(spec, SweepSpec):
            spec = SweepSpec(scenarios=tuple(spec))
        backend, reason = self._resolve_backend(spec)
        workers = self.workers if backend == "process" else 1
        runner_meta = {
            "requested_backend": self.backend,
            "requested_workers": self.workers,
            "backend": backend,
            "workers": workers,
            "reason": reason,
            "degraded": backend != self.backend,
        }
        start = time.perf_counter()
        if backend == "serial":
            outcomes = [
                execute(index, scenario)
                for index, scenario in enumerate(spec)
            ]
        else:
            runner_meta["chunk_size"] = self._chunk_size(len(list(spec)))
            outcomes = self._run_process_pool(spec, runner_meta["chunk_size"])
        metadata = dict(spec.metadata or {})
        metadata["runner"] = runner_meta
        return SweepReport.from_outcomes(
            spec_name=spec.name,
            backend=backend,
            workers=workers,
            outcomes=outcomes,
            wall_time_s=time.perf_counter() - start,
            metadata=metadata,
        )

    def _publish_blueprints(self, scenarios):
        """Broadcast multi-scenario geometries over shared memory.

        Builds (or reuses) the parent-side problem of every geometry
        that at least two scenarios share, forces its blueprint
        recording, and publishes it into one segment.  Publishing is
        strictly an optimization: any failure simply leaves the
        geometry out of the handle map and the workers rebuild from
        the scenario payload as before.
        """
        from repro.sweep import shm, worker

        counts = {}
        first = {}
        for _, scenario in scenarios:
            key = scenario.geometry_key()
            counts[key] = counts.get(key, 0) + 1
            first.setdefault(key, scenario)
        handles = {}
        for key, count in counts.items():
            if count < 2:
                continue
            try:
                problem = worker.problem_for(first[key])
                problem.model(())  # records the blueprint if not yet done
                handles[key] = shm.publish(problem)
            except Exception:  # noqa: BLE001 — sharing must never fail a sweep
                continue
        return handles

    def _run_process_pool(self, spec, chunk_size=1):
        from repro.sweep import shm

        scenarios = list(enumerate(spec))
        chunks = [
            scenarios[start:start + chunk_size]
            for start in range(0, len(scenarios), chunk_size)
        ]
        outcomes = {}
        submit_error = None
        handles = (
            self._publish_blueprints(scenarios) if self.share_blueprints else {}
        )
        try:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                futures = {}
                for position, chunk in enumerate(chunks):
                    try:
                        futures[position] = pool.submit(
                            _execute_chunk, chunk, handles or None
                        )
                    except BrokenExecutor as error:
                        # The pool broke mid-submission; stop submitting but
                        # keep draining what is already in flight below.
                        submit_error = error
                        break
                for position, future in futures.items():
                    chunk = chunks[position]
                    try:
                        for (index, _), outcome in zip(chunk, future.result()):
                            outcomes[index] = outcome
                    except Exception as error:  # pool crash / transport failure
                        # The whole chunk travelled (and died) together:
                        # every scenario of it gets the pool fault.
                        for index, scenario in chunk:
                            if index not in outcomes:
                                outcomes[index] = pool_fault(
                                    index, scenario, error
                                )
                        if isinstance(error, BrokenExecutor):
                            submit_error = error
        finally:
            # Covers every exit — clean completion, BrokenExecutor,
            # KeyboardInterrupt — so no /dev/shm segment outlives the
            # sweep even when workers crashed mid-flight.
            for handle in handles.values():
                shm.release(handle)
        if len(outcomes) < len(scenarios):
            # Scenarios that were never submitted because the pool broke:
            # fault them explicitly so the report stays complete.
            reason = submit_error or RuntimeError("process pool shut down early")
            for index, scenario in scenarios:
                if index not in outcomes:
                    outcomes[index] = pool_fault(index, scenario, reason)
        return [outcomes[index] for index in sorted(outcomes)]


def run_sweep(spec, *, workers=None, backend=None):
    """One-call convenience wrapper around :class:`SweepRunner`."""
    return SweepRunner(workers, backend=backend).run(spec)
