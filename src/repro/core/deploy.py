"""The GreedyDeploy algorithm (Section V.B, Figure 5).

Iteratively cover every tile whose temperature exceeds the limit, then
re-optimize the shared supply current for the enlarged deployment:

    S_TEC = {}
    solve G theta = p
    T = { tiles above theta_max }
    loop:
        S_TEC = S_TEC u T
        i_opt = argmin peak temperature            (Problem 2)
        solve (G - i_opt D) theta = p(i_opt)
        T = { tiles above theta_max }
        if T == {}:      return success
        if T subset S_TEC: return failure

Adding TECs cools the covered tiles but heats everything else (the
devices' input power dissipates inside the package), so new tiles can
cross the limit between iterations; the loop terminates because S_TEC
grows monotonically over a finite tile set.

Every round computes the exact runaway current ``lambda_m`` once with
the Lanczos kernel and hands it to the Problem 2 search.  Round 0
searches the full capped interval with ``current_method``.  Consecutive
rounds differ by a handful of TECs, so every later round starts warm:
the previous optimum, scaled by the ratio of the rounds' ``lambda_m``,
brackets the next one, and the slope root-find (``"newton"``)
converges in a few evaluations.  Per-round timing and these reuse
counters surface in :class:`DeployStats`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from repro.core.current import minimize_peak_temperature

#: Half-width of the warm-start bracket, as a fraction of the scaled
#: previous optimum (the lambda-ratio scaling is accurate to far
#: better than this in practice).
_WARM_HALF_FRACTION = 0.5

#: Peltier support size (~2 nodes per deployed tile) above which a
#: *warm* round of a ``reuse`` problem runs on the ``"direct"``
#: backend instead of the Woodbury machinery.  A warm round evaluates
#: only a handful of distinct currents (~5-8 slope root-find points),
#: so a per-current sparse LU each beats building the dense influence
#: block: measured at support 1774 / 4888 nodes, one sparse LU costs
#: 25 ms against a 1.1 s influence build plus 160 ms per capacitance
#: factorization.  Round 0 always stays on the problem's backend: a
#: cold bracket search evaluates enough currents to amortize the
#: influence block.
_DIRECT_MIN_SUPPORT = 256


@dataclass
class RoundStats:
    """Timing / reuse breakdown of one GreedyDeploy round.

    Attributes
    ----------
    index:
        Round number (0-based, matches ``GreedyIteration.index``).
    wall_s:
        Wall-clock time of the whole round.
    assembly_s / runaway_s / current_opt_s / steady_s:
        Phase split: model build, ``lambda_m`` computation, the 1-D
        Problem 2 search, and the post-optimization steady-state solve
        plus offender scan.
    evaluations:
        Steady-state solves spent by the Problem 2 search.
    runaway_iterations:
        ``G^{-1}`` applications of the Lanczos kernel.
    current_warm:
        True when the Problem 2 search ran inside a warm-start bracket.
    border_mode:
        ``"direct"`` for a warm round of a ``reuse`` problem served by
        per-current sparse factorizations (large support, see
        ``_DIRECT_MIN_SUPPORT``), ``"off"`` otherwise.
    lambda_m:
        The runaway current the round searched under (A).
    """

    index: int
    wall_s: float = 0.0
    assembly_s: float = 0.0
    runaway_s: float = 0.0
    current_opt_s: float = 0.0
    steady_s: float = 0.0
    evaluations: int = 0
    runaway_iterations: int = 0
    current_warm: bool = False
    border_mode: str = "off"
    lambda_m: float = 0.0

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class DeployStats:
    """Whole-run reuse instrumentation for GreedyDeploy.

    ``rounds`` holds one :class:`RoundStats` per greedy round; the
    counters aggregate across the run.  ``runaway_dense`` counts calls
    of the Lanczos kernel (one per round; the name predates it and is
    kept for the report schema).  ``runaway_warm`` is always 0: no
    round estimates ``lambda_m`` from a warm start any more; the field
    stays for the report schema.
    """

    rounds: list = field(default_factory=list)
    runaway_dense: int = 0
    runaway_warm: int = 0
    current_warm_rounds: int = 0
    border_direct: int = 0

    @property
    def total_wall_s(self):
        return sum(r.wall_s for r in self.rounds)

    @property
    def total_evaluations(self):
        return sum(r.evaluations for r in self.rounds)

    def as_dict(self):
        """Plain-data view (JSON-representable)."""
        data = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "rounds"
        }
        data["rounds"] = [r.as_dict() for r in self.rounds]
        data["total_wall_s"] = self.total_wall_s
        data["total_evaluations"] = self.total_evaluations
        return data

    def summary(self):
        """Compact one-line report for CLIs and benchmarks."""
        return (
            "{} rounds, {} evals, runaway {} eigen, current warm {} rounds, "
            "{} direct rounds".format(
                len(self.rounds),
                self.total_evaluations,
                self.runaway_dense,
                self.current_warm_rounds,
                self.border_direct,
            )
        )


@dataclass
class GreedyIteration:
    """Snapshot of one GreedyDeploy iteration.

    ``added_tiles`` is the set ``T`` merged into the deployment at the
    start of the iteration; the remaining fields describe the state
    after the current re-optimization.
    """

    index: int
    added_tiles: tuple
    deployment_size: int
    current: float
    peak_c: float
    offending_tiles: tuple


@dataclass
class DeploymentResult:
    """Outcome of GreedyDeploy on one problem instance.

    Attributes
    ----------
    feasible:
        True when the final peak temperature meets the limit (the
        algorithm of Figure 5 returned True).
    tec_tiles:
        The deployment ``S_TEC`` (flat indices, sorted).
    current:
        The optimized shared supply current for the final deployment.
    peak_c:
        Final peak silicon temperature (Celsius).
    no_tec_peak_c:
        Peak temperature of the bare chip (the ``theta_peak`` column).
    tec_power_w:
        Electrical input power of the deployed devices at ``current``
        (the ``P_TEC`` column).
    iterations:
        Per-iteration :class:`GreedyIteration` records.
    runtime_s:
        Wall-clock time of the whole deployment run.
    problem / model:
        The problem instance and the final deployed model.
    solver_stats:
        :class:`~repro.thermal.solve.SolverStats` delta accumulated by
        the problem's solve engine over the whole run (None when the
        problem does not expose shared stats).
    deploy_stats:
        :class:`DeployStats` with per-round timing and reuse
        counters.
    """

    feasible: bool
    tec_tiles: tuple
    current: float
    peak_c: float
    no_tec_peak_c: float
    tec_power_w: float
    iterations: list = field(default_factory=list)
    runtime_s: float = 0.0
    problem: object = None
    model: object = None
    current_result: object = None
    solver_stats: object = None
    deploy_stats: object = None

    @property
    def num_tecs(self):
        """Number of deployed devices (the ``#TECs`` column)."""
        return len(self.tec_tiles)

    @property
    def cooling_swing_c(self):
        """Drop of the peak temperature vs the bare chip (Section VI.B)."""
        return self.no_tec_peak_c - self.peak_c

    def tiles_by_chiplet(self):
        """The deployment grouped per chiplet.

        For a problem built from a
        :class:`~repro.thermal.chiplet.ChipletLayout` (see
        :meth:`~repro.core.problem.CoolingSystemProblem.from_chiplet_layout`),
        returns ``{chiplet_name: (global flat tiles...)}`` over every
        chiplet, empty tuples included — the per-chiplet ``#TECs``
        breakdown of a 2.5D report.  Single-die problems report the
        whole deployment under ``"die"``.
        """
        layout = getattr(self.problem, "layout", None)
        if layout is None:
            return {"die": tuple(self.tec_tiles)}
        grid = layout.composite_grid()
        grouped = {spec.name: [] for spec in layout.chiplets}
        for tile in self.tec_tiles:
            index, _, _ = grid.locate(int(tile))
            grouped[layout.chiplets[index].name].append(int(tile))
        return {name: tuple(tiles) for name, tiles in grouped.items()}


def greedy_deploy(problem, *, current_method="golden", current_tolerance=1.0e-4,
                  max_rounds=None):
    """Run GreedyDeploy (Figure 5) on a :class:`CoolingSystemProblem`.

    Parameters
    ----------
    problem:
        The :class:`~repro.core.problem.CoolingSystemProblem`.
    current_method / current_tolerance:
        Passed to :func:`~repro.core.current.minimize_peak_temperature`
        for the per-round Problem 2 solves.  ``current_method`` runs
        round 0 on the full capped interval; later rounds run
        ``"newton"`` inside the warm bracket (see the module
        docstring).
    max_rounds:
        Safety cap on iterations; defaults to the tile count (the loop
        provably terminates within that many rounds since the
        deployment grows each round).

    Returns
    -------
    DeploymentResult
    """
    start = time.perf_counter()
    if max_rounds is None:
        max_rounds = problem.grid.num_tiles
    max_rounds = int(max_rounds)
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative, got {}".format(max_rounds))

    shared_stats = getattr(problem, "solver_stats", None)
    stats_before = shared_stats.copy() if shared_stats is not None else None

    def _stats_delta():
        if shared_stats is None:
            return None
        return shared_stats.diff(stats_before)

    deploy_stats = DeployStats()

    bare_model = problem.model(())
    bare_state = bare_model.solve(0.0)
    no_tec_peak = bare_state.peak_silicon_c
    offenders = problem.tiles_above_limit(bare_state)

    if not offenders or max_rounds == 0:
        # Either nothing to cool, or no budget to deploy anything: the
        # bare chip is the answer (infeasible when it has offenders).
        return DeploymentResult(
            feasible=not offenders,
            tec_tiles=(),
            current=0.0,
            peak_c=no_tec_peak,
            no_tec_peak_c=no_tec_peak,
            tec_power_w=0.0,
            iterations=[],
            runtime_s=time.perf_counter() - start,
            problem=problem,
            model=bare_model,
            current_result=None,
            solver_stats=_stats_delta(),
            deploy_stats=deploy_stats,
        )

    direct_problem = None
    deployment = set()
    iterations = []
    optimum = None
    feasible = False
    for round_index in range(max_rounds):
        round_stats = RoundStats(index=round_index)
        round_start = time.perf_counter()
        added = tuple(sorted(offenders - deployment))
        deployment |= offenders

        direct_round = (
            optimum is not None
            and problem.solver_mode == "reuse"
            and 2 * len(deployment) >= _DIRECT_MIN_SUPPORT
        )
        phase_start = time.perf_counter()
        if direct_round:
            if direct_problem is None:
                direct_problem = problem.with_solver_mode("direct")
                if shared_stats is not None:
                    # One shared counter object so the result's
                    # solver-stats delta covers direct rounds too.
                    direct_problem.solver_stats = shared_stats
            model = direct_problem.model(deployment)
            round_stats.border_mode = "direct"
            deploy_stats.border_direct += 1
        else:
            model = problem.model(deployment)
        round_stats.assembly_s = time.perf_counter() - phase_start

        phase_start = time.perf_counter()
        runaway = model.runaway_current()
        round_stats.runaway_s = time.perf_counter() - phase_start
        round_stats.runaway_iterations = runaway.iterations
        round_stats.lambda_m = lam = runaway.value
        deploy_stats.runaway_dense += 1

        if optimum is None:
            method, bounds = current_method, None
        else:
            # Warm round: the previous optimum scaled by the lambda_m
            # ratio brackets this one; the slope root-find needs the
            # fewest factorizations inside a trusted bracket.
            guess = optimum.current * (lam / optimum.lambda_m)
            half = max(_WARM_HALF_FRACTION * guess, 50.0 * current_tolerance)
            method, bounds = "newton", (guess - half, guess + half)
        optimum = minimize_peak_temperature(
            model, method=method, tolerance=current_tolerance,
            lambda_m=lam, bounds=bounds,
        )
        phase_start = time.perf_counter()
        state = model.solve(optimum.current)
        offenders = problem.tiles_above_limit(state)
        round_stats.steady_s = time.perf_counter() - phase_start
        round_stats.current_opt_s = optimum.search_s
        round_stats.evaluations = optimum.evaluations
        round_stats.current_warm = optimum.warm_started
        if optimum.warm_started:
            deploy_stats.current_warm_rounds += 1
        iterations.append(
            GreedyIteration(
                index=round_index,
                added_tiles=added,
                deployment_size=len(deployment),
                current=optimum.current,
                peak_c=state.peak_silicon_c,
                offending_tiles=tuple(sorted(offenders)),
            )
        )
        round_stats.wall_s = time.perf_counter() - round_start
        deploy_stats.rounds.append(round_stats)
        if not offenders:
            feasible = True
            break
        if offenders <= deployment:
            feasible = False
            break
    return DeploymentResult(
        feasible=feasible,
        tec_tiles=tuple(sorted(deployment)),
        current=optimum.current,
        peak_c=state.peak_silicon_c,
        no_tec_peak_c=no_tec_peak,
        tec_power_w=state.tec_input_power_w(),
        iterations=iterations,
        runtime_s=time.perf_counter() - start,
        problem=problem,
        model=model,
        current_result=optimum,
        solver_stats=_stats_delta(),
        deploy_stats=deploy_stats,
    )
