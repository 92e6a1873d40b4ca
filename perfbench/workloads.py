"""The three batch workloads: deploy, control and chiplet.

Each workload makes its inputs from the seed in ``__init__`` and any
per-operation input in ``prepare()`` (both outside the timed region),
runs one unit of work per ``op()`` call on fresh program objects,
reports the program's own counters for the operation in ``counters()``
(summed counters, expected span counts), and checks one operation's
outputs in ``check()`` after its timing has ended, returning a list of
failure messages.  The
``serve`` workload lives in ``serve_load.py``.
"""

import dataclasses

import numpy as np

from repro.control.controllers import PiController
from repro.control.loop import ClosedLoopSimulator
from repro.control.sensors import SensorArray
from repro.core.deploy import greedy_deploy
from repro.core.problem import CoolingSystemProblem
from repro.thermal.chiplet import demo_two_chiplet_layout
from repro.thermal.geometry import TileGrid
from repro.thermal.stack import PackageStack


def _scaled_stack(side):
    """The calibrated stack with spreader and sink grown to fit a
    ``side x side`` die of 0.5 mm tiles."""
    die_side = TileGrid(side, side).width
    stack = PackageStack()
    spreader_side = max(stack.spreader.side, die_side * 1.5)
    sink_side = max(stack.sink.side, spreader_side * 2.0)
    return dataclasses.replace(
        stack,
        spreader=dataclasses.replace(stack.spreader, side=spreader_side),
        sink=dataclasses.replace(stack.sink, side=sink_side),
    )


def _summed_stats(problems):
    total = {}
    for problem in problems:
        for key, value in problem.solver_stats.as_dict().items():
            total[key] = total.get(key, 0) + value
    return total


class DeployWorkload:
    """GreedyDeploy, default settings, on seeded dense hot-spot dies.

    The dies are the dense Gaussian hot-spot family (a central hot spot
    plus a broad shoulder over a mild background, limit at the 75th
    percentile of the bare map, so the greedy loop takes two rounds);
    the seed moves the hot spot by up to half a tile and scales its
    amplitude by up to 1%.
    """

    SIDES = (24, 32)
    LIMIT_PERCENTILE = 75.0
    #: Current step for the local-optimality check (A); far above the
    #: 1e-4 A search tolerance.
    DELTA_A = 1.0e-2

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.instances = []
        for side in self.SIDES:
            shift = rng.uniform(-0.5, 0.5, size=2)
            amplitude = 1.0 + rng.uniform(-0.01, 0.01)
            power = self._power(side, shift, amplitude)
            bare = self._problem(side, power, 1000.0).model(()).solve(0.0)
            limit = float(np.percentile(bare.silicon_c, self.LIMIT_PERCENTILE))
            self.instances.append((side, power, limit))

    @staticmethod
    def _power(side, shift, amplitude):
        ys, xs = np.divmod(np.arange(side * side), side)
        center = (side - 1) / 2.0
        scale = 24.0 / side
        d2 = ((ys - center - shift[0]) ** 2 + (xs - center - shift[1]) ** 2) * scale**2
        shape = (
            0.05
            + amplitude * 0.5 * np.exp(-d2 / (2.0 * 4.0**2))
            + 0.25 * np.exp(-d2 / (2.0 * 9.0**2))
        )
        return shape * 0.2 * scale**2

    @staticmethod
    def _problem(side, power, limit, **kwargs):
        return CoolingSystemProblem(
            TileGrid(side, side), power, max_temperature_c=limit,
            stack=_scaled_stack(side), name="deploy-{0}x{0}".format(side),
            **kwargs,
        )

    def prepare(self):
        return None

    def op(self, _):
        return [
            greedy_deploy(self._problem(side, power, limit))
            for side, power, limit in self.instances
        ]

    def counters(self, results):
        deploy_stats = [result.deploy_stats for result in results]
        return {
            "stats": _summed_stats(result.problem for result in results),
            "rounds": sum(len(result.iterations) for result in results),
            "tecs": sum(result.num_tecs for result in results),
            "solver_bytes": max(
                result.model.solver.solver_state_bytes() for result in results
            ),
        }, {
            "deploy": len(results),
            "current": sum(len(stats.rounds) for stats in deploy_stats),
            "runaway": sum(
                stats.runaway_dense + stats.runaway_warm for stats in deploy_stats
            ),
        }

    def notes(self, results):
        return {}

    def check(self, results):
        """Re-solve each answer at ``I_opt`` with ``direct`` on a fresh
        problem: same peak within 1e-6 K, ``I_opt < lambda_m``, and no
        lower peak at ``I_opt +- delta``."""
        failures = []
        for (side, power, limit), result in zip(self.instances, results):
            model = self._problem(side, power, limit, solver_mode="direct").model(
                result.tec_tiles
            )
            current = result.current
            peak = model.solve(current).peak_silicon_c
            lambda_m = result.current_result.lambda_m
            label = "{0}x{0}".format(side)
            if abs(peak - result.peak_c) > 1e-6:
                failures.append("{}: direct peak {} != {}".format(
                    label, peak, result.peak_c))
            if not current < lambda_m:
                failures.append("{}: I_opt {} >= lambda_m {}".format(
                    label, current, lambda_m))
            for moved in (current - self.DELTA_A, current + self.DELTA_A):
                if 0.0 <= moved < lambda_m and model.solve(moved).peak_silicon_c < peak:
                    failures.append("{}: peak lower at {} A".format(label, moved))
        return failures


class ControlWorkload:
    """PI closed loop on the 32x32 dense deployment, default ``rom="auto"``.

    60 W spread uniformly over a 32x32 die with a checkerboard TEC
    deployment (512 TECs, 4,620 nodes, above the ROM's auto threshold);
    400 steps of 1 ms with a 10 ms control period.  The setpoint sits
    5 K below the passive peak, moved by up to 0.25 K by the seed.
    """

    SIDE = 32
    STEPS = 400
    DT_S = 1e-3
    CONTROL_PERIOD_S = 1e-2
    POWER_W = 60.0

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        side = self.SIDE
        self.tiles = tuple(
            idx for idx in range(side * side) if (idx // side + idx % side) % 2 == 0
        )
        passive = self.prepare().solve(0.0)
        self.sensed = sorted(set(self.tiles) | {passive.peak_tile})
        self.setpoint_c = passive.peak_silicon_c - 5.0 + rng.uniform(-0.25, 0.25)
        self._reference = None

    def prepare(self):
        """A fresh deployed model, so no operation inherits another's
        cached factorizations or ROM basis."""
        side = self.SIDE
        grid = TileGrid(side, side)
        problem = CoolingSystemProblem(
            grid, np.full(grid.num_tiles, self.POWER_W / grid.num_tiles),
            max_temperature_c=1000.0, stack=_scaled_stack(side),
            name="control-{0}x{0}".format(side),
        )
        return problem.model(self.tiles)

    def _simulator(self, model, rom):
        return ClosedLoopSimulator(
            model,
            PiController(setpoint_c=self.setpoint_c, kp=0.8, ki=0.2, i_max=8.0),
            SensorArray(self.sensed, noise_std_c=0.0, quantization_c=0.0, seed=0),
            dt=self.DT_S, control_period=self.CONTROL_PERIOD_S, rom=rom,
        )

    def op(self, model):
        before = model.solver.stats.copy()
        result = self._simulator(model, "auto").run(self.STEPS)
        return model.solver.stats.diff(before), result

    def counters(self, outputs):
        stats, result = outputs
        rom = result.rom or {}
        return {
            "stats": stats.as_dict(),
            "steps": result.steps,
            "rom_steps": rom.get("rom_steps", 0),
            "full_solve_columns": rom.get("full_solve_columns", 0),
            "enrichments": rom.get("enrichments", 0),
            "restarts": rom.get("restarts", 0),
            "rom_dim": rom.get("dim", 0),
            "certified_error_k": rom.get("certified_error_k", 0.0),
            "tol_k": rom.get("tol_kelvin", 0.0),
        }, {"control.ctor": 1, "control.run": 1, "runaway": 1}

    def notes(self, outputs):
        """The ROM's certified error next to its tolerance.  Whether a
        bound above the tolerance is a violation is an open question, so
        it is flagged here and does not count as a failure."""
        rom = outputs[1].rom or {}
        error, tol = rom.get("certified_error_k", 0.0), rom.get("tol_kelvin", 0.0)
        return {"mor.certified_error_k": error, "mor.tol_k": tol,
                "mor.bound_exceeds_tol": error > tol}

    def check(self, outputs):
        """The ROM trace stays within its certified bound of a
        ``rom="off"`` reference trace at every step, with identical
        current decisions."""
        if self._reference is None:
            self._reference = self._simulator(self.prepare(), "off").run(self.STEPS)
        _, result = outputs
        if result.rom is None:
            return ["ROM did not engage"]
        failures = []
        bound = result.rom["certified_error_k"]
        gap = np.abs(result.true_peak_c - self._reference.true_peak_c)
        if not np.all(gap <= bound):
            failures.append("gap {} K > certified {} K".format(np.max(gap), bound))
        if not np.array_equal(result.current_a, self._reference.current_a):
            failures.append("current decisions differ from rom=off")
        return failures


class ChipletWorkload:
    """The 2x128x128 two-chiplet package, ``solver_mode="auto"`` (mg).

    Built fresh and solved at two seeded currents on a stride-4 TEC
    deployment (1,024 TECs per chiplet).
    """

    ROWS = 128
    GAP = 8
    POWER_W = 30.0
    STRIDE = 4
    #: The session's Krylov/mg relative residual target.
    RTOL = 1.0e-10

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.currents = tuple(sorted(float(c) for c in rng.uniform(0.05, 0.4, size=2)))
        block = self.ROWS * self.ROWS
        self.tiles = tuple(
            chiplet * block + row * self.ROWS + col
            for chiplet in range(2)
            for row in range(0, self.ROWS, self.STRIDE)
            for col in range(0, self.ROWS, self.STRIDE)
        )

    def prepare(self):
        return None

    def op(self, _):
        layout = demo_two_chiplet_layout(
            rows=self.ROWS, cols=self.ROWS, gap=self.GAP, power_w=self.POWER_W
        )
        problem = CoolingSystemProblem.from_chiplet_layout(layout, solver_mode="auto")
        model = problem.model(self.tiles)
        return problem, model, [model.solve(current) for current in self.currents]

    def counters(self, outputs):
        problem, model, _ = outputs
        return {
            "stats": problem.solver_stats.as_dict(),
            "solver_bytes": model.solver.solver_state_bytes(),
        }, {}

    def notes(self, outputs):
        return {}

    def check(self, outputs):
        """True relative residual of ``(G - iD) theta = p(i)`` within the
        solver tolerance for every solve."""
        _, model, states = outputs
        system = model.system
        failures = []
        for state in states:
            rhs = system.power_vector(state.current)
            residual = system.system_matrix(state.current) @ state.theta_k - rhs
            relative = float(np.linalg.norm(residual) / np.linalg.norm(rhs))
            if not relative <= self.RTOL:
                failures.append("residual {} at {} A".format(relative, state.current))
        return failures


WORKLOADS = {
    "deploy": DeployWorkload,
    "control": ControlWorkload,
    "chiplet": ChipletWorkload,
}
