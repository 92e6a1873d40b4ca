"""Reference oracle for GreedyDeploy: Figure 5 replayed cold.

Every round rebuilds ``problem.model(deployment)`` and solves Problem 2
from scratch with the golden-section search on the full capped
interval (its own ``lambda_m``, no bracket carried over from the
previous round).  That is the paper's loop with nothing reused, so
:func:`repro.core.deploy.greedy_deploy` — which warm-starts every round
after the first — must visit the same rounds, reach the same
deployment and verdict, and land on the same optimum up to the
search tolerance.
"""

from dataclasses import dataclass

from repro.core.current import minimize_peak_temperature


@dataclass
class OracleRun:
    """What the oracle reports: the per-round added tiles, the final
    deployment, verdict and optimum, the final round's model and the
    Problem 2 evaluations spent over all rounds."""

    added_tiles: list
    tec_tiles: tuple
    feasible: bool
    current: float
    lambda_m: float
    model: object
    evaluations: int


def figure5_oracle(problem, *, current_tolerance=1.0e-4):
    """Run Figure 5 with a cold golden search on every round."""
    state = problem.model(()).solve(0.0)
    offenders = problem.tiles_above_limit(state)
    deployment = set()
    added_tiles = []
    optimum = model = None
    evaluations = 0
    while offenders:
        added_tiles.append(tuple(sorted(offenders - deployment)))
        deployment |= offenders
        model = problem.model(deployment)
        optimum = minimize_peak_temperature(
            model, method="golden", tolerance=current_tolerance
        )
        evaluations += optimum.evaluations
        state = model.solve(optimum.current)
        offenders = problem.tiles_above_limit(state)
        if offenders <= deployment:
            break
    return OracleRun(
        added_tiles=added_tiles,
        tec_tiles=tuple(sorted(deployment)),
        feasible=not offenders,
        current=optimum.current if optimum is not None else 0.0,
        lambda_m=optimum.lambda_m if optimum is not None else float("inf"),
        model=model,
        evaluations=evaluations,
    )
