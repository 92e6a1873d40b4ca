"""Which program functions belong to which layer, and the per-layer metrics.

``install`` wraps the public entry points of every layer the four
workloads reach (see README.md for the layer map).  ``layer_metrics``
turns a tracer plus the program's own counters into the flat per-layer
metric dict, and ``crosscheck`` compares every span count the program
also counts with that counter.
"""

import statistics

#: Per-layer metric names, in the order BENCHMARK.json lists them.
PER_LAYER = (
    "import.repro_s", "import.scipy_s", "import.networkx_s",
    "assembly.calls", "assembly.self_s", "assembly.full_builds",
    "assembly.incremental_builds",
    "session.factorizations", "session.solves", "session.rhs_columns",
    "session.cache_hit_ratio", "session.solve_self_s", "session.solver_bytes",
    "runaway.calls", "runaway.self_s", "runaway.max_tecs",
    "runaway.eigen_calls", "runaway.shift_invert_calls",
    "runaway.binary_search_calls",
    "current.calls", "current.self_s", "current.evaluations",
    "deploy.rounds", "deploy.tecs",
    "mor.basis_s", "mor.dim", "mor.rom_steps", "mor.full_solve_columns",
    "mor.enrichments", "mor.restarts", "mor.useful_ratio",
    "mor.certified_error_k", "mor.tol_k", "mor.bound_exceeds_tol",
    "control.ctor_s", "control.run_s", "control.steps_per_s",
    "mg.hierarchies", "mg.build_s", "mg.solves", "mg.cycles", "mg.fallbacks",
    "mg.solve_s",
    "serve.solve_p50_ms", "serve.transient_p50_ms", "serve.deploy_p50_ms",
    "serve.app_self_ms", "pool.hit_ratio", "pool.evictions",
    "batcher.batches", "batcher.coalesced_ratio", "process.tasks",
    "worker.run_task_s", "gen.late_ms", "gen.backlog",
    "trace.overhead_s", "other_s",
)

_UNITS = {
    "_exceeds_tol": "flag", "_per_s": "1/s", "_s": "s", "_ms": "ms", "_k": "K", "_ratio": "ratio",
    "_bytes": "B",
}


def unit_of(name):
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


_RUNAWAY_METHODS = {
    "runaway_current_eigen": "eigen",
    "runaway_current_shift_invert": "shift_invert",
    "runaway_current_binary_search": "binary_search",
}


def _mg_or_krylov(args, kwargs):
    """Layer of a session ``krylov_solve`` call: ``mg.solve`` when its
    preconditioner is a multigrid hierarchy's V-cycle."""
    from repro.linalg.multigrid import MultigridHierarchy

    owner = getattr(kwargs.get("preconditioner"), "__self__", None)
    return "mg.solve" if isinstance(owner, MultigridHierarchy) else "krylov"


def install(tracer):
    """Wrap every layer's entry points (program state is untouched)."""
    import repro.control.loop as loop
    import repro.core.current as current
    import repro.core.deploy as deploy
    import repro.linalg.mor as mor
    import repro.linalg.multigrid as multigrid
    import repro.linalg.runaway as runaway
    import repro.thermal.model as model
    import repro.thermal.session as session

    for cls in (model.PackageThermalModel, model.CompositeThermalModel):
        tracer.wrap_method(cls, "__init__", "assembly")
        tracer.wrap_method(cls, "network_blueprint", "blueprint")

    # Only the session's bindings: SolverStats counts these calls, while
    # the runaway kernel's own splu is part of the runaway layer.
    tracer.wrap_function(session, "splu", "factorize", everywhere=False)
    tracer.wrap_function(session, "spd_factorize", "factorize", everywhere=False)
    tracer.wrap_function(session, "krylov_solve", _mg_or_krylov, everywhere=False)
    for name in ("solve", "solve_rhs", "solve_batch", "solve_diagonal",
                 "influence_rows"):
        tracer.wrap_method(session.SessionView, name, "session")
    tracer.wrap_method(session.SolveSession, "solve_batch", "session")

    def runaway_done(method):
        def done(t, args, kwargs, result):
            t.count("runaway." + method + "_calls")
            d_matrix = args[1] if len(args) > 1 else kwargs["d_matrix"]
            tecs = int(runaway._diagonal_of(d_matrix).astype(bool).sum()) // 2
            t.counts["runaway.max_tecs"] = max(t.counts["runaway.max_tecs"], tecs)
        return done

    for name, method in _RUNAWAY_METHODS.items():
        tracer.wrap_function(runaway, name, "runaway",
                             on_result=runaway_done(method))

    tracer.wrap_function(
        current, "minimize_peak_temperature", "current",
        on_result=lambda t, a, k, r: t.count("current.evaluations", r.evaluations),
    )
    tracer.wrap_function(deploy, "greedy_deploy", "deploy")
    tracer.wrap_function(mor, "block_arnoldi", "mor")
    tracer.wrap_method(loop.ClosedLoopSimulator, "__init__", "control.ctor")
    tracer.wrap_method(loop.ClosedLoopSimulator, "run", "control.run")
    tracer.wrap_method(multigrid.MultigridHierarchy, "__init__", "mg.build")


def install_serve(tracer):
    """Server-process wrappers: the ASGI app call, the warm pool, the
    process tier and the sweep-worker task kernels."""
    import repro.serve.app as app
    import repro.serve.pool as pool
    import repro.sweep.worker as worker

    install(tracer)

    def http_only(args, kwargs):
        # The lifespan call lasts as long as the server: not a request.
        return "serve.app" if args[1]["type"] == "http" else None

    def app_done(t, args, kwargs, seconds):
        scope = args[1]
        t.sample("app " + scope["method"] + " " + scope["path"], seconds)

    tracer.wrap_async_method(app.ReproServeApp, "__call__", http_only,
                             on_done=app_done)
    tracer.wrap_method(pool.SessionPool, "acquire", "pool")
    # The process tier's only seam in the server process: the task
    # itself runs in a child the wrappers cannot reach.
    tracer.wrap_async_method(app.ReproServeApp, "_run_in_process", "process")
    tracer.wrap_function(worker, "run_task", "worker.run_task")
    tracer.wrap_function(worker, "solve_batch_rows", "worker.batch")


def _median_ms(values):
    return 1e3 * statistics.median(values) if values else 0.0


def layer_metrics(tracer, program, ops):
    """Flat per-layer metrics from a tracer and summed program counters.

    ``program`` holds the program's own counters summed over the traced
    operations (``stats`` is a summed ``SolverStats`` dict); ``ops`` is
    the number of traced operations, and counts and times of the batch
    workloads are reported per operation.
    """
    stats = program.get("stats", {})
    per = 1.0 / max(ops, 1)
    calls, self_s, total_s = tracer.calls, tracer.self_s, tracer.total_s
    lookups = stats.get("cache_hits", 0) + stats.get("cache_misses", 0)
    steps = program.get("steps", 0)
    rom_steps = program.get("rom_steps", 0)
    run_s = total_s["control.run"]
    out = {
        "assembly.calls": calls["assembly"] * per,
        "assembly.self_s": (self_s["assembly"] + self_s["blueprint"]) * per,
        "assembly.full_builds": stats.get("full_builds", 0) * per,
        "assembly.incremental_builds": stats.get("incremental_builds", 0) * per,
        "session.factorizations": calls["factorize"] * per,
        "session.solves": stats.get("solves", 0) * per,
        "session.rhs_columns": stats.get("rhs_columns", 0) * per,
        "session.cache_hit_ratio": (
            stats.get("cache_hits", 0) / lookups if lookups else 0.0
        ),
        "session.solve_self_s": (
            self_s["session"] + self_s["factorize"] + self_s["krylov"]
        ) * per,
        "session.solver_bytes": program.get("solver_bytes", 0),
        "runaway.calls": calls["runaway"] * per,
        "runaway.self_s": self_s["runaway"] * per,
        "runaway.max_tecs": tracer.counts["runaway.max_tecs"],
        "runaway.eigen_calls": tracer.counts["runaway.eigen_calls"] * per,
        "runaway.shift_invert_calls":
            tracer.counts["runaway.shift_invert_calls"] * per,
        "runaway.binary_search_calls":
            tracer.counts["runaway.binary_search_calls"] * per,
        "current.calls": calls["current"] * per,
        "current.self_s": self_s["current"] * per,
        "current.evaluations": tracer.counts["current.evaluations"] * per,
        "deploy.rounds": program.get("rounds", 0) * per,
        "deploy.tecs": program.get("tecs", 0) * per,
        "mor.basis_s": total_s["mor"] * per,
        "mor.dim": program.get("rom_dim", 0),
        "mor.rom_steps": rom_steps * per,
        "mor.full_solve_columns": program.get("full_solve_columns", 0) * per,
        "mor.enrichments": program.get("enrichments", 0) * per,
        "mor.restarts": program.get("restarts", 0) * per,
        "mor.useful_ratio": rom_steps / steps if steps else 0.0,
        "mor.certified_error_k": program.get("certified_error_k", 0.0),
        "mor.tol_k": program.get("tol_k", 0.0),
        "mor.bound_exceeds_tol": float(
            program.get("certified_error_k", 0.0) > program.get("tol_k", 0.0) > 0.0
        ),
        "control.ctor_s": total_s["control.ctor"] * per,
        "control.run_s": run_s * per,
        "control.steps_per_s": steps / run_s if run_s else 0.0,
        "mg.hierarchies": calls["mg.build"] * per,
        "mg.build_s": total_s["mg.build"] * per,
        "mg.solves": stats.get("mg_solves", 0) * per,
        "mg.cycles": stats.get("mg_cycles", 0) * per,
        "mg.fallbacks": stats.get("mg_fallbacks", 0) * per,
        "mg.solve_s": total_s["mg.solve"] * per,
    }
    samples = tracer.samples
    posts = [value for key, values in samples.items()
             if key.startswith("app POST") for value in values]
    out.update({
        "serve.solve_p50_ms": _median_ms(samples["app POST /solve"]),
        "serve.transient_p50_ms": _median_ms(samples["app POST /transient"]),
        "serve.deploy_p50_ms": _median_ms(samples["app POST /deploy"]),
        "serve.app_self_ms": _median_ms(posts),
        "process.tasks": calls["process"],
        "worker.run_task_s": total_s["worker.run_task"] + total_s["worker.batch"],
    })
    return out


def crosscheck(tracer, program, expected):
    """Mismatches between span counts and the program's own counters.

    ``expected`` maps a span layer to the count the program reports for
    it (only layers the workload's program actually counts).  Returns a
    list of ``"layer: spans N != program M"`` strings; empty when all
    agree.
    """
    stats = program.get("stats", {})
    checks = {
        "factorize": stats.get("factorizations", 0),
        "assembly": stats.get("full_builds", 0) + stats.get("incremental_builds", 0),
        "mg.build": stats.get("mg_hierarchies", 0),
        "mg.solve": stats.get("mg_solves", 0),
    }
    checks.update(expected)
    return [
        "{}: spans {} != program {}".format(layer, tracer.calls[layer], count)
        for layer, count in sorted(checks.items())
        if tracer.calls[layer] != count
    ]
