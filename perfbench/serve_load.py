"""The ``serve`` workload: an open loop against ``repro serve``.

The server runs in its own process (``serve_launcher.py``, default
settings: warm pool of 8, 5 ms batch window).  This process is the one
load generator: a dispatcher thread releases each request at its due
time into a queue drained by two keep-alive connections, so a slow
server makes requests wait instead of lowering the offered rate.
Latency counts from when a request was due.

The seeded mix spreads over the 11 Table I chips (12x12 tiles) with one
fixed deployment each (the tiles above the limit on the bare chip), so
the working set of 11 exceeds the pool of 8: about 85% ``/solve`` at a
few currents, 10% short ``/transient`` and 5% ``/deploy``.
"""

import http.client
import json
import os
import queue
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

from repro.experiments.benchmarks import BENCHMARKS, load_benchmark
from repro.serve import schemas
from repro.sweep.worker import problem_for, run_task

HERE = os.path.dirname(os.path.abspath(__file__))
CURRENTS_A = (1.5, 3.0, 4.5)
TRANSIENT = {"dt": 1e-3, "steps": 20}
#: One cycle of the mix: 85% /solve, 10% /transient, 5% /deploy.
CYCLE = ("/solve",) * 4 + ("/transient",) + ("/solve",) * 4 + ("/deploy",) + (
    ("/solve",) * 4 + ("/transient",) + ("/solve",) * 5)
CONNECTIONS = 2
#: Set-up samples per untraced run (the launch that serves the load is
#: one of them).
SETUP_LAUNCHES = 4
CHECK_SAMPLES = 200
TOLERANCE_K = 1e-9
READY_TIMEOUT_S = 60.0
#: One BLAS thread per server process: the server's request threads and
#: its two process-tier workers already share two CPUs, and threaded
#: BLAS on top of them made the median latency move by 25% between runs.
SERVER_ENV = {"OPENBLAS_NUM_THREADS": "1"}


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``serve_launcher.py`` process; ``setup_s`` is the time from
    launch until ``GET /healthz`` answers."""

    def __init__(self, trace=0):
        self.port = _free_port()
        handle, self.out = tempfile.mkstemp(
            prefix="serve-", suffix=".json", dir=_out_dir()
        )
        os.close(handle)
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_launcher.py"),
             "--port", str(self.port), "--out", self.out,
             "--trace", str(trace)],
            stdout=subprocess.DEVNULL, env=dict(os.environ, **SERVER_ENV),
        )
        deadline = start + READY_TIMEOUT_S
        while True:
            try:
                status, _ = self.request("GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline or self.process.poll() is not None:
                self.stop()
                raise RuntimeError("server did not come up")
            time.sleep(0.01)
        self.setup_s = time.perf_counter() - start

    def request(self, method, path, body=None):
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def stop(self):
        """SIGINT, wait, and return the launcher's report (peak RSS,
        trace aggregates)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        try:
            with open(self.out) as handle:
                text = handle.read()
        finally:
            os.unlink(self.out)
        return json.loads(text) if text else {}


def _out_dir():
    path = os.path.join(os.getcwd(), ".perfbench-out")
    os.makedirs(path, exist_ok=True)
    return path


class Inputs:
    """The seeded request schedule and each chip's fixed deployment."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        # Zipf-like popularity over a seeded ranking of the chips: a few
        # chips take most requests, as when a handful of designs are
        # under active work, while the working set still exceeds the
        # pool.
        self.chips = [str(chip) for chip in self.rng.permutation(sorted(BENCHMARKS))]
        weights = 1.0 / np.arange(1, len(self.chips) + 1)
        self.popularity = weights / weights.sum()
        self.tiles = {}
        for chip in self.chips:
            problem = load_benchmark(chip)
            bare = problem.model(()).solve(0.0)
            self.tiles[chip] = sorted(int(t) for t in problem.tiles_above_limit(bare))


    def payload(self, path, chip):
        body = {"benchmark": chip}
        if path != "/deploy":
            body.update(tec_tiles=self.tiles[chip],
                        current_a=float(self.rng.choice(CURRENTS_A)))
        if path == "/transient":
            body.update(TRANSIENT)
        return path, body

    def warmup(self):
        """Fill the caches a long-running server has warm: each chip
        deployed three times (the process tier's workers keep per-process
        problem caches, and a worker takes whichever deploy arrives), two
        transients, then every chip solved once, least popular first, so
        that the pool starts with the popular ones."""
        items = [self.payload("/deploy", chip) for chip in self.chips * 3]
        items += [self.payload("/transient", chip) for chip in self.chips[:2]]
        items += [self.payload("/solve", chip) for chip in reversed(self.chips)]
        return [(0.0, path, body) for path, body in items]

    def schedule(self, rate, seconds):
        """Requests evenly spaced at ``rate`` per second for ``seconds``.

        The endpoints follow a fixed 20-request cycle with the shares of
        the mix; transients and deploys visit the chips in rank order,
        and the seed orders the solves and picks currents, so the seed
        changes neither how much heavy work a run offers nor how it
        bunches in time."""
        count = int(rate * seconds)
        paths = [CYCLE[index % len(CYCLE)] for index in range(count)]
        solves = iter(self.solve_chips(paths.count("/solve")))
        schedule = []
        for index, path in enumerate(paths):
            if path == "/solve":
                chip = next(solves)
            else:
                chip = self.chips[index // len(CYCLE) % len(self.chips)]
            schedule.append((index / rate,) + self.payload(path, chip))
        return schedule

    def solve_chips(self, count):
        """``count`` solve chips in seeded order, each chip as often as
        its popularity says (rounded), so the pool sees the same demand
        every run."""
        shares = np.floor(self.popularity * count).astype(int)
        shares[: count - shares.sum()] += 1
        chips = [chip for chip, n in zip(self.chips, shares) for _ in range(n)]
        return [chips[i] for i in self.rng.permutation(count)]


def open_loop(port, schedule):
    """Release requests at their due times; two keep-alive connections
    send them.  Returns the records ``(path, body, due, done, status,
    reply)`` and the generator's worst lateness and deepest queue."""
    pending = queue.Queue()
    records = [None] * len(schedule)
    late, depth = [], []

    def sender():
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        while True:
            item = pending.get()
            if item is None:
                break
            index, due = item
            _, path, body = schedule[index]
            try:
                connection.request("POST", path, body=json.dumps(body))
                response = connection.getresponse()
                status, reply = response.status, response.read()
            except (OSError, http.client.HTTPException) as error:
                connection.close()
                status, reply = None, str(error).encode()
            records[index] = (path, body, due, time.perf_counter(), status, reply)
        connection.close()

    threads = [threading.Thread(target=sender) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    for index, (offset, _, _) in enumerate(schedule):
        due = start + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late.append(time.perf_counter() - due)
        depth.append(pending.qsize())
        pending.put((index, due))
    for _ in threads:
        pending.put(None)
    for thread in threads:
        thread.join()
    return records, {"late_ms": 1e3 * max(late), "backlog": max(depth)}


def latencies(records):
    return [done - due for _, _, due, done, status, _ in records if status == 200]


def _values(path, reply):
    body = json.loads(reply)
    return body["results"][0]["values"] if path == "/solve" else body["values"]


def _expected(path, body):
    parse = {"/solve": schemas.parse_solve, "/transient": schemas.parse_transient,
             "/deploy": schemas.parse_deploy}[path](body)
    scenario = parse[0] if path == "/solve" else parse
    return run_task(scenario, problem_for(scenario))


def _differs(got, want):
    if isinstance(want, dict):
        return set(got) != set(want) or any(_differs(got[k], want[k]) for k in want)
    if isinstance(want, (list, tuple)):
        return len(got) != len(want) or any(_differs(g, w) for g, w in zip(got, want))
    if isinstance(want, float) and not isinstance(got, bool):
        return not abs(got - want) <= TOLERANCE_K
    return got != want


def check(records, rng):
    """Failures: every non-200 reply, plus sampled replies that differ
    from the in-process ``run_task`` answer by more than 1e-9 K."""
    failures = ["{} {}: status {}".format(path, body.get("benchmark"), status)
                for path, body, _, _, status, _ in records if status != 200]
    ok = [record for record in records if record[4] == 200]
    picks = rng.choice(len(ok), size=min(CHECK_SAMPLES, len(ok)), replace=False)
    for index in sorted(picks):
        path, body, _, _, _, reply = ok[index]
        if _differs(_values(path, reply), _expected(path, body)):
            failures.append("{} {}: reply differs from run_task".format(
                path, body["benchmark"]))
    return failures


def _drive(server, inputs, phases):
    warm, _ = open_loop(server.port, inputs.warmup())
    return warm, [open_loop(server.port, inputs.schedule(rate, seconds))
                  for rate, seconds in phases]


def _server_metrics(report, stats, gen):
    """Per-layer serve metrics from the traced server and ``/stats``."""
    from layers import crosscheck, layer_metrics
    from tracer import Tracer

    pool, batcher = stats["pool"], stats["batcher"]
    program = {"stats": pool["lifetime_solver_stats"]}
    tracer = Tracer.from_aggregates(report["trace"])
    layers = layer_metrics(tracer, program, 1)
    lookups = pool["hits"] + pool["misses"]
    requests = stats["server"]["requests"]
    layers.update({
        "pool.hit_ratio": pool["hits"] / lookups if lookups else 0.0,
        "pool.evictions": pool["evictions"],
        "batcher.batches": batcher["batches"],
        "batcher.coalesced_ratio": (
            batcher["coalesced_requests"] / batcher["requests"]
            if batcher["requests"] else 0.0
        ),
        "gen.late_ms": gen["late_ms"],
        "gen.backlog": gen["backlog"],
    })
    mismatches = crosscheck(tracer, program, {
        "serve.app": sum(requests.values()),
        "pool": lookups,
        "process": requests.get("POST /deploy", 0),
        "worker.run_task": requests.get("POST /transient", 0),
        "worker.batch": batcher["batches"],
    })
    return layers, mismatches


def run(seed, seconds, trace, low_rps, high_rps):
    """One serve run; returns the result dict ``work.py`` prints."""
    inputs = Inputs(seed)
    result = {"setup_s": []}
    records = []
    if not trace:
        for _ in range(SETUP_LAUNCHES - 1):
            probe = Server()
            result["setup_s"].append(probe.setup_s)
            probe.stop()
        server = Server()
        result["setup_s"].append(server.setup_s)
        try:
            warm, phases = _drive(server, inputs, (
                (low_rps, 0.75 * seconds), (high_rps, 0.25 * seconds)))
        finally:
            report = server.stop()
        (low, low_gen), (high, high_gen) = phases
        records = warm + low + high
        result.update(
            peak_rss_mb=report["peak_rss_mb"],
            low=latencies(low), high=latencies(high),
            gen={"low": low_gen, "high": high_gen},
        )
    else:
        runs = {}
        for traced in (0, 1):
            server = Server(trace=traced)
            result["setup_s"].append(server.setup_s)
            try:
                warm, [(high, gen)] = _drive(server, inputs,
                                             ((high_rps, 0.5 * seconds),))
                stats = json.loads(server.request("GET", "/stats")[1])
            finally:
                report = server.stop()
            records += warm + high
            runs[traced] = (high, gen, stats, report)
        high, gen, stats, report = runs[1]
        layers, mismatches = _server_metrics(report, stats, gen)
        layers["trace.overhead_s"] = (
            statistics.median(latencies(high))
            - statistics.median(latencies(runs[0][0]))
        )
        # App time outside the pool, process-tier and task-kernel spans
        # (JSON, routing, batch-window waits), summed over the phase.
        total_s = report["trace"]["total_s"]
        layers["other_s"] = total_s.get("serve.app", 0.0) - sum(
            total_s.get(layer, 0.0)
            for layer in ("pool", "process", "worker.run_task", "worker.batch")
        )
        result.update(peak_rss_mb=report["peak_rss_mb"], high=latencies(high),
                      layers=layers, crosscheck=mismatches, gen={"high": gen},
                      spans=report["trace"]["spans"])
    result["failures"] = check(records, inputs.rng)
    result["failed"] = len(result["failures"])
    result["attempted"] = len(records)
    return result
