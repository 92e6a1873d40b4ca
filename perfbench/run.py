"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload deploy --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the package is imported from
``src/``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics, the tracing overhead and the time no layer span
covers.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when a correctness check or a span/counter cross-check
failed.  Every result is also written, with its stamp (seed, source
revision, host fingerprint), to ``.perfbench-out/``.  See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("deploy", "control", "serve", "chiplet")
#: Fresh-interpreter set-up samples per batch run (probes plus the
#: worker itself); the serve workload takes its own from server launches.
SETUP_SAMPLES = 5
#: The whole run must end well inside 180 s.
DEADLINE_S = 170.0
IMPORT_PACKAGES = ("repro", "scipy", "networkx")

#: The end-to-end metrics BENCHMARK.json bounds.  The tail is printed
#: beside them but not bounded: on a 2-CPU host its run-to-run spread
#: reached the largest bound the benchmark may set.
END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("answer_p50_s", "s"))
PRINTED = END_TO_END + (("answer_tail_s", "s"),)


def _env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _work(mode, args, extra=(), python_flags=()):
    return [sys.executable, *python_flags, os.path.join(HERE, "work.py"), mode,
            "--workload", args.workload, *extra]


def _probe(args, deadline):
    """Seconds from launching a fresh interpreter until ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen(_work("probe", args), stdout=subprocess.PIPE,
                          env=_env(), text=True) as process:
        line = process.stdout.readline()
        ready = time.perf_counter() - start
        process.communicate(timeout=max(1.0, deadline - time.monotonic()))
    if line.strip() != "ready" or process.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return ready


def _import_times(args):
    """Import seconds of each named package, from ``python -X
    importtime`` on the workload's set-up: the self time of the
    package's own modules, so ``repro`` excludes the scipy it imports."""
    if args.workload == "serve":
        command = [sys.executable, "-X", "importtime",
                   os.path.join(HERE, "serve_launcher.py"), "--help"]
    else:
        command = _work("probe", args, python_flags=("-X", "importtime"))
    done = subprocess.run(command, capture_output=True, text=True, env=_env(),
                          timeout=60, check=True)
    seconds = {}
    for line in done.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [field.strip() for field in line[len("import time:"):].split("|")]
        package = fields[2].split(".")[0]
        if package in IMPORT_PACKAGES and fields[0].isdigit():
            seconds[package] = seconds.get(package, 0.0) + int(fields[0]) / 1e6
    return {"import.{}_s".format(name): seconds.get(name, 0.0)
            for name in IMPORT_PACKAGES}


def _revision():
    """Git revision when the checkout is a repository, and a digest of
    the package sources either way."""
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        revision = None
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return {"git_revision": revision, "src_sha256": digest.hexdigest()[:16]}


def tail(values):
    """Label and value of the highest percentile with at least ten
    samples beyond it; the maximum when there are fewer than 20."""
    for percent in range(99, 49, -1):
        if len(values) * (100 - percent) / 100.0 >= 10:
            cut = statistics.quantiles(values, n=100, method="inclusive")[percent - 1]
            return "p{}".format(percent), cut
    return "max", max(values)


def end_to_end(workload, result, setup):
    """The end-to-end metrics (value, samples, note) of one run."""
    answers = result["low"] if workload == "serve" else result["op_s"]
    label, tail_value = tail(answers)
    return {
        "setup_s": (statistics.median(setup), len(setup), "median"),
        "peak_rss_mb": (result["peak_rss_mb"], 1, "process doing the work"),
        "answer_p50_s": (statistics.median(answers), len(answers), "median"),
        "answer_tail_s": (tail_value, len(answers), label),
    }


def _print_summary(args, stamp, result, metrics):
    print("perfbench {} seed={} trace={} seconds={}".format(
        args.workload, args.seed, args.trace, args.seconds))
    print("  stamp: " + json.dumps(stamp, sort_keys=True))
    if not args.trace:
        for name, unit in PRINTED:
            value, samples, note = metrics[name]
            print("  {:<16} {:>14.6g} {:<3} n={:<4} {}".format(
                name, value, unit, samples, note))
        print("  {:<16} {:>14.6g} ratio".format(
            "fail_frac", result["failed"] / result["attempted"]))
        if args.workload == "serve":
            for phase in ("low", "high"):
                values = result[phase]
                label, cut = tail(values)
                print("  lat_p50_ms.{0:<5} {1:>10.3f} ms  lat_{2}_ms.{0} {3:.3f} ms"
                      "  n={4}  gen late {5:.2f} ms backlog {6}".format(
                          phase, 1e3 * statistics.median(values), label,
                          1e3 * cut, len(values), result["gen"][phase]["late_ms"],
                          result["gen"][phase]["backlog"]))
        for key, value in sorted(result.get("notes", {}).items()):
            print("  {:<22} {}".format(key, value))
    else:
        for name, value in result["layers"].items():
            print("  {:<28} {:>16.6g}".format(name, value))
        for mismatch in result["crosscheck"]:
            print("  CROSS-CHECK MISMATCH " + mismatch)
    for failure in result["failures"][:20]:
        print("  FAILED " + failure)


def run_one(args):
    """One workload run; returns the exit code."""
    deadline = time.monotonic() + DEADLINE_S
    setup = []
    if args.workload != "serve":
        setup = [_probe(args, deadline) for _ in range(SETUP_SAMPLES - 1)]
    layers = _import_times(args) if args.trace else {}

    extra = ["--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--rates", args.rates]
    start = time.perf_counter()
    with subprocess.Popen(_work("run", args, extra), stdout=subprocess.PIPE,
                          env=_env(), text=True) as process:
        if process.stdout.readline().strip() == "ready":
            setup.append(time.perf_counter() - start)
        try:
            out, _ = process.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
            print("perfbench: {} run timed out".format(args.workload), file=sys.stderr)
            return 1
    if process.returncode != 0 or not out.strip():
        print("perfbench: {} run failed".format(args.workload), file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    if args.workload == "serve":
        setup = result["setup_s"]

    stamp = dict(_revision(), seed=args.seed, workload=args.workload,
                 trace=args.trace, **result["fingerprint"])
    metrics = None if args.trace else end_to_end(args.workload, result, setup)
    _print_summary(args, stamp, result, metrics)

    if args.trace:
        layers.update(result["layers"])
        from layers import PER_LAYER, unit_of

        reported = {name: {"value": float(layers.get(name, 0.0)),
                           "unit": unit_of(name)} for name in PER_LAYER}
    else:
        reported = {name: {"value": float(metrics[name][0]), "unit": unit}
                    for name, unit in END_TO_END}
    mismatches = result.get("crosscheck", [])
    line = {
        "correct": result["failed"] == 0 and not mismatches,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": reported,
    }
    os.makedirs(".perfbench-out", exist_ok=True)
    path = os.path.join(".perfbench-out", "{}-seed{}-trace{}.json".format(
        args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(dict(line, stamp=stamp, setup_samples_s=setup, raw=result),
                  handle, indent=1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rates", default="20,40",
                        help="serve: low,high offered rates in req/s")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a checkout (no src/repro here)",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    codes = [run_one(argparse.Namespace(**dict(vars(args), workload=name)))
             for name in WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
