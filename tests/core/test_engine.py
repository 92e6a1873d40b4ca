"""GreedyDeploy's warm rounds: differential semantics and stats.

:func:`~repro.core.deploy.greedy_deploy` warm-starts every round after
the first (a ``lambda_m``-scaled bracket searched by ``"newton"``, and
large-support rounds of ``reuse`` problems on the ``direct`` backend).
It must be *observationally identical* to Figure 5 replayed cold
(:func:`tests.core.deploy_oracle.figure5_oracle`) — same rounds, same
deployment, same feasibility verdict, same optimum.  Optima are
compared after polishing both on the oracle's final model
(:func:`~repro.core.current.polish_current`): the two runs reach the
minimizer along different evaluation paths and backends, and round-off
alone shifts the shallow parabola vertex by ~1e-6 A, while on a shared
model both argmins collapse to the same fixed point to ~1e-13 A.
"""

import json

import numpy as np
import pytest

from repro.core.current import polish_current
from repro.core.deploy import greedy_deploy
from repro.core.problem import CoolingSystemProblem
from repro.thermal.geometry import TileGrid
from tests.core.deploy_oracle import figure5_oracle

_CURRENT_AGREEMENT_A = 1.0e-6


def _gaussian_problem(side=12, scale=0.2, percentile=60.0, **kwargs):
    """A centered-hotspot instance whose greedy run takes two rounds.

    The limit sits at a bare-temperature percentile, so round 0 covers
    the hot core and the re-optimized current uncovers a wider
    offender ring; the instance ends infeasible (offenders inside the
    deployment) — the loop and the oracle must agree on that verdict
    too.
    """
    grid = TileGrid(side, side)
    ys, xs = np.divmod(np.arange(side * side), side)
    center = (side - 1) / 2.0
    d2 = ((ys - center) ** 2 + (xs - center) ** 2) * (24.0 / side) ** 2
    shape = (
        0.05
        + 0.5 * np.exp(-d2 / (2.0 * 4.0**2))
        + 0.25 * np.exp(-d2 / (2.0 * 9.0**2))
    )
    power = shape * scale * (24.0 / side) ** 2
    problem = CoolingSystemProblem(
        grid, power, max_temperature_c=1000.0,
        name="engine-gauss-{0}x{0}".format(side), **kwargs,
    )
    bare = problem.model(()).solve(0.0)
    return problem.with_limit(float(np.percentile(bare.silicon_c, percentile)))


def _random_problem(seed=2, side=10, percentile=70.0):
    """A randomized multi-blob floorplan (seeded, deterministic).

    The seed is chosen so the Problem 2 optimum is smooth (a single
    peak tile active around the minimizer).  Seeds whose optimum sits
    at a peak-tile crossover put a kink under the minimum; there the
    runs still agree on the achieved peak to ~1e-8 K, but the
    parabola-fit polish is ill-posed and currents scatter at ~1e-4 A,
    which is a property of the objective, not a loop discrepancy.
    """
    rng = np.random.default_rng(seed)
    grid = TileGrid(side, side)
    ys, xs = np.divmod(np.arange(side * side), side)
    power = np.full(side * side, 0.02)
    for _ in range(4):
        cy, cx = rng.uniform(1, side - 2, size=2)
        width = rng.uniform(1.0, 2.5)
        d2 = (ys - cy) ** 2 + (xs - cx) ** 2
        power = power + rng.uniform(0.1, 0.4) * np.exp(-d2 / (2.0 * width**2))
    problem = CoolingSystemProblem(
        grid, power, max_temperature_c=1000.0, name="engine-rng",
    )
    bare = problem.model(()).solve(0.0)
    return problem.with_limit(float(np.percentile(bare.silicon_c, percentile)))


def _race(factory):
    oracle = figure5_oracle(factory(), current_tolerance=1.0e-6)
    result = greedy_deploy(factory(), current_tolerance=1.0e-6)
    return oracle, result


def _assert_same_run(oracle, result):
    assert result.feasible == oracle.feasible
    assert [it.added_tiles for it in result.iterations] == oracle.added_tiles
    assert result.tec_tiles == oracle.tec_tiles
    if oracle.tec_tiles:
        upper = 0.98 * oracle.lambda_m
        reference, _ = polish_current(oracle.model, oracle.current, upper=upper)
        polished, _ = polish_current(oracle.model, result.current, upper=upper)
        assert abs(reference - polished) <= _CURRENT_AGREEMENT_A


class TestDifferential:
    def test_alpha_round_for_round(self, alpha_problem):
        oracle, result = _race(lambda: alpha_problem.with_limit(
            alpha_problem.max_temperature_c))
        _assert_same_run(oracle, result)

    def test_two_round_gaussian(self):
        oracle, result = _race(_gaussian_problem)
        assert len(oracle.added_tiles) == 2
        assert not oracle.feasible
        _assert_same_run(oracle, result)

    def test_randomized_floorplan(self):
        oracle, result = _race(_random_problem)
        _assert_same_run(oracle, result)

    def test_direct_warm_round_on_larger_grid(self):
        """A warm round whose support crosses ``_DIRECT_MIN_SUPPORT``
        runs on the direct backend — and still matches the oracle."""
        oracle, result = _race(lambda: _gaussian_problem(side=16))
        _assert_same_run(oracle, result)
        modes = [r.border_mode for r in result.deploy_stats.rounds]
        assert modes[0] == "off"
        assert "direct" in modes
        assert result.deploy_stats.border_direct >= 1

    def test_mg_problem_keeps_its_backend_in_warm_rounds(self):
        """Only ``reuse`` problems switch warm rounds to ``direct``: an
        ``mg`` problem solves its warm round with multigrid."""
        one = greedy_deploy(_gaussian_problem(side=16, solver_mode="mg"),
                            max_rounds=1)
        two = greedy_deploy(_gaussian_problem(side=16, solver_mode="mg"),
                            max_rounds=2)
        assert len(two.deploy_stats.rounds) == 2
        assert all(r.border_mode != "direct" for r in two.deploy_stats.rounds)
        assert two.deploy_stats.border_direct == 0
        assert two.solver_stats.mg_solves > one.solver_stats.mg_solves


class TestMaxRoundsExhaustion:
    """An exhausted ``max_rounds`` cap reports infeasible, with the
    executed rounds fully populated."""

    def test_capped_run_reports_infeasible(self):
        result = greedy_deploy(_gaussian_problem(), max_rounds=1)
        assert not result.feasible
        assert len(result.iterations) == 1
        iteration = result.iterations[0]
        assert iteration.added_tiles
        assert iteration.deployment_size == len(result.tec_tiles)
        assert result.current > 0.0
        assert result.deploy_stats is not None
        assert len(result.deploy_stats.rounds) == 1

    def test_cap_above_need_changes_nothing(self):
        capped = greedy_deploy(_gaussian_problem(), max_rounds=10,
                               current_tolerance=1.0e-6)
        free = greedy_deploy(_gaussian_problem(), current_tolerance=1.0e-6)
        assert capped.tec_tiles == free.tec_tiles
        assert capped.feasible == free.feasible


class TestDeployStats:
    @pytest.fixture(scope="class")
    def stats(self):
        return greedy_deploy(
            _gaussian_problem(), current_tolerance=1.0e-6,
        ).deploy_stats

    def test_rounds_indexed(self, stats):
        assert len(stats.rounds) == 2
        assert [r.index for r in stats.rounds] == [0, 1]

    def test_reuse_layers_fired(self, stats):
        # Every round runs the Lanczos kernel once; round 0 searches
        # cold, round 1 inside the warm bracket.
        assert stats.runaway_dense == 2
        assert stats.runaway_warm == 0
        assert stats.current_warm_rounds == 1
        cold, warm = stats.rounds
        assert not cold.current_warm
        assert warm.current_warm
        assert warm.lambda_m > 0.0
        assert warm.runaway_iterations > 0

    def test_timings_and_evaluations(self, stats):
        for r in stats.rounds:
            assert r.wall_s > 0.0
            assert r.evaluations > 0
        assert stats.total_wall_s == pytest.approx(
            sum(r.wall_s for r in stats.rounds))
        assert stats.total_evaluations == sum(
            r.evaluations for r in stats.rounds)

    def test_warm_round_cheaper(self, stats):
        cold_round, warm_round = stats.rounds
        assert warm_round.evaluations < cold_round.evaluations

    def test_as_dict_json_representable(self, stats):
        payload = json.loads(json.dumps(stats.as_dict()))
        assert payload["total_evaluations"] == stats.total_evaluations
        assert len(payload["rounds"]) == 2
        assert payload["rounds"][1]["current_warm"] is True

    def test_summary_line(self, stats):
        line = stats.summary()
        assert line.startswith("2 rounds")
        assert "current warm 1 rounds" in line
