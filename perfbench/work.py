"""One workload in a fresh interpreter; started by ``run.py``.

    python3 perfbench/work.py probe --workload W
    python3 perfbench/work.py run --workload W --seed N --seconds S --trace 0|1

Both modes print ``ready`` once the workload's imports are done, so the
parent can time the set-up of a fresh interpreter.  ``probe`` exits
there.  ``run`` then times operations until at least ``--seconds`` of
them have been measured, checks each operation's outputs outside the
timed region, and prints one JSON object as its last line.

With ``--trace 1`` one untimed warm-up operation runs first, so that
first-call costs land in neither side; then operations alternate
untraced and traced (at least one of each).  The per-layer metrics
come from the traced ones and the tracing overhead is the difference of
the two medians.
"""

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time


def peak_rss_mb():
    """Peak resident set size of this process (VmHWM), in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def fingerprint():
    """Host and library stamp for every result."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = next(
        (os.environ[name] for name in
         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
         if name in os.environ),
        "default ({} cpus)".format(os.cpu_count()),
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": "{} {}".format(blas.get("name"), blas.get("version")),
        "blas_threads": threads,
    }


def _add(total, counters):
    """Sum counters over operations; sizes and accuracy figures keep
    their maximum."""
    for key, value in counters.items():
        if isinstance(value, dict):
            _add(total.setdefault(key, {}), value)
        elif key in ("solver_bytes", "rom_dim", "certified_error_k", "tol_k"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def run_batch(workload, seconds, trace):
    """Timed loop of a batch workload; returns the result dict."""
    from layers import crosscheck, install, layer_metrics
    from tracer import Tracer

    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    times = {False: [], True: []}
    failures, failed, notes = [], 0, {}
    program, expected = {}, {}
    rss = None
    warmups = 0
    if trace:
        warmups = 1
        problems = workload.check(workload.op(workload.prepare()))
        failed += bool(problems)
        failures += ["warm-up: " + problem for problem in problems]
    while True:
        traced = bool(trace) and len(times[False]) > len(times[True])
        arg = workload.prepare()
        gc.collect()
        if tracer is not None:
            tracer.enabled = traced
        start = time.perf_counter()
        outputs = workload.op(arg)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        times[traced].append(elapsed)
        if rss is None:
            rss = peak_rss_mb()
        if traced:
            counters, span_counts = workload.counters(outputs)
            _add(program, counters)
            _add(expected, span_counts)
        problems = workload.check(outputs)
        failed += bool(problems)
        failures += ["op {}: {}".format(len(times[False]) + len(times[True]) - 1, f)
                     for f in problems]
        notes = workload.notes(outputs)
        del outputs
        enough = not trace or (times[False] and times[True])
        if enough and sum(times[False] + times[True]) >= seconds:
            break
    result = {
        "op_s": times[False],
        "peak_rss_mb": rss,
        "attempted": warmups + len(times[False]) + len(times[True]),
        "failed": failed,
        "failures": failures,
        "notes": notes,
    }
    if tracer is not None:
        ops = len(times[True])
        layers = layer_metrics(tracer, program, ops)
        layers["trace.overhead_s"] = (
            statistics.median(times[True]) - statistics.median(times[False])
        )
        layers["other_s"] = (sum(times[True]) - tracer.root_seconds()) / ops
        result.update(
            traced_op_s=times[True],
            layers=layers,
            crosscheck=crosscheck(tracer, program, expected),
            spans=tracer.spans,
        )
        tracer.uninstall()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rates", help="serve: low,high offered rates (req/s)")
    args = parser.parse_args(argv)

    if args.workload == "serve":
        import serve_load as module
    else:
        import workloads as module
    print("ready", flush=True)
    if args.mode == "probe":
        return 0

    if args.workload == "serve":
        low, high = (float(part) for part in args.rates.split(","))
        result = module.run(args.seed, args.seconds, args.trace, low, high)
    else:
        workload = module.WORKLOADS[args.workload](args.seed)
        result = run_batch(workload, args.seconds, args.trace)
    result["fingerprint"] = fingerprint()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
