"""Benchmark of loneaxis: one workload, one seed, one closed-loop client.

Run from the root of a checkout (the package is imported from ``src``)::

    python3 perfbench/run.py --workload corpus-decide --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py`` and listed, with the reason for
each, in ``BENCHMARK.json``.  A run

1. builds the workload's documents from the seed and writes them under
   ``perfbench/_work`` (removed at exit);
2. measures set-up: a fresh interpreter imports ``loneaxis`` and parses
   every document, several times, and the median is ``setup_s``;
3. sends a fixed list of operations one at a time, after a few untimed
   warm-up operations: the workload's fixed stratum once, then
   ``--seconds / PASS_S`` passes over its template (``workloads.py``), so
   the number attempted does not depend on the machine's speed.  Library
   operations run in a worker process that caps its own address space;
   CLI operations each start a fresh interpreter.  An operation that runs
   out of memory or passes its deadline is ended and the worker
   restarted, and the restart is left out of the timings;
4. checks every output against the expectations and reference runs
   (``validate.py``), outside the timed region;
5. prints a detail line, then one JSON result line.

Every operation time is scaled to a reference host speed by the kernel
timed beside it (``hostspeed.py``); the detail line also carries the
unscaled figures.  ``latency_p50_ms`` and ``latency_tail_ms`` are
percentiles over every operation of the run, a failed one counting as
slower than every latency limit (infinitely slow); ``throughput_ops_s`` is
the operations of the passes that complete, divided by the time the
passes took (the fixed stratum enters the latencies and the shares, not
the throughput).  ``setup_s`` is scaled like a CLI operation: only the
Python work from the import of ``loneaxis`` on.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` half the passes are run, and then the same operations again
with every public function of the package wrapped (``tracer.py``), and
the result holds per-layer self time and call counts, the failure counts
by category, and the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import selfcheck  # noqa: E402
import validate  # noqa: E402
import workloads  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
CLI_ENTRY = os.path.join(HERE, "cli_entry.py")
MEM_MB = 320            # address-space cap of every process that runs operations
# One client, nothing in parallel: numpy's BLAS gets one thread too.  Its
# default pool of one thread per vCPU adds 60-70 ms to every import, by an
# amount that swings with the load on the other vCPU.
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1")
DEADLINE_S = 30.0       # per operation
REFERENCE_DEADLINE_S = 120.0
SETUP_RUNS = 7
MIN_PASSES = 2
TAIL_BEYOND = 10
# Latency tail per workload: a percentile with at least TAIL_BEYOND
# operations beyond it (of 321, 220, 110 and 145 in a 20-second run) and
# above the share that fail at the seed commit (a failure counts as
# infinitely slow).  Higher ones would still leave ten beyond, but they
# fall among the few slowest operations, where the percentile moves by a
# tenth to a fifth from run to run.
TAIL = {"corpus-decide": 0.9, "pnp-bound-ladder": 0.8, "cli-docs": 0.8,
        "conjugacy": 0.75}

LAYER_TIMES = (
    "cli.parse_document", "cli.run_subcommand", "graphs.power",
    "nielsen.brute_force_nielsen_paths", "nielsen.find_nielsen_paths",
    "axes.stallings_decomposition", "whitehead.index_report",
    "whitehead.ideal_whitehead_graph", "whitehead.whitehead_isomorphic")
LAYER_CALLS = (
    "graphs.power", "graphs.compose", "graphs.GraphMap.apply_path",
    "spectral.transition_matrix", "spectral.matrix_class", "spectral.pf_data",
    "spectral.eigenmetric", "traintrack.is_train_track", "traintrack.gates",
    "traintrack.periodic_structure", "nielsen.brute_force_nielsen_paths",
    "nielsen.find_nielsen_paths", "axes.stallings_decomposition",
    "axes.lone_axis_decision", "axes.axis_signature",
    "whitehead.whitehead_isomorphic", "isomorphism.canonical_encoding",
    "isomorphism.canonical_turn_encoding", "isomorphism.are_isomorphic")
MODULE_TIMES = ("spectral", "traintrack", "axes", "isomorphism")


class Worker:
    """One library worker process and its line protocol."""

    def __init__(self, spec, trace, log):
        self.spec, self.trace, self.log = spec, trace, log
        self.proc = None

    def start(self):
        """Start and wait for the worker to parse its inputs; returns the
        wall time of that set-up and the worker's ready message."""
        spawned = time.time()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, self.spec, str(MEM_MB), str(int(self.trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log, env=ENV)
        self.buf = b""
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.proc.stdout, selectors.EVENT_READ)
        ready = self._readline(REFERENCE_DEADLINE_S)
        if ready is None:
            raise RuntimeError("worker did not start")
        setup = time.perf_counter() - t0 - ready["probe"]
        ready["interpreter_s"] = ready["t_main"] - spawned
        return setup, ready

    def _readline(self, timeout):
        end = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = end - time.perf_counter()
            if left <= 0 or not self.sel.select(left):
                return None
            chunk = os.read(self.proc.stdout.fileno(), 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return json.loads(line)

    def call(self, op, timeout):
        request = {k: v for k, v in op.items() if k != "expect"}
        self.proc.stdin.write((json.dumps(request) + "\n").encode())
        self.proc.stdin.flush()
        return self._readline(timeout)

    def peak_rss_kb(self):
        try:
            with open(f"/proc/{self.proc.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def stop(self):
        if self.proc is None:
            return
        self.sel.close()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc = None


def merge_spans(total, spans):
    """Add per-function [calls, self seconds] into ``total``."""
    for name, (calls, self_s) in (spans or {}).items():
        rec = total.setdefault(name, [0, 0.0])
        rec[0] += calls
        rec[1] += self_s


class LibraryRunner:
    """Sends library operations to a worker, restarting it after an
    operation that ran out of memory or time."""

    def __init__(self, worker, ready):
        self.worker = worker
        self.probe = hostspeed.REFERENCE_S   # until an operation reports one
        self.spans = {}
        merge_spans(self.spans, ready.get("trace"))
        self.rss_kb = ready["rss_kb"]

    def run(self, op, deadline=DEADLINE_S):
        t0 = time.perf_counter()
        reply = self.worker.call(op, deadline)
        wall = time.perf_counter() - t0
        if reply is None:
            alive = self.worker.proc.poll() is None
            rss = self.worker.peak_rss_kb()
            reply = {"ok": False, "category": "timeout" if alive else "memory",
                     "rss_kb": rss}
        else:
            wall = reply["t"]   # the library call alone, without the pipe
        self.rss_kb = max(self.rss_kb, reply["rss_kb"])
        self.probe = reply.get("probe", self.probe)
        merge_spans(self.spans, reply.get("trace"))
        rec = {"op": op, "ok": reply["ok"], "category": reply.get("category"),
               "result": reply.get("result"), "wall": wall,
               "scale": hostspeed.scale(self.probe)}
        if not reply["ok"] and reply["category"] in ("timeout", "memory"):
            # outside ``wall``, so the restart stays out of the timings
            self.worker.stop()
            _, ready = self.worker.start()
            merge_spans(self.spans, ready.get("trace"))
        return rec

    def stop(self):
        self.worker.stop()


class CliRunner:
    """Runs each CLI operation as a fresh ``loneaxis`` process."""

    def __init__(self, paths, trace):
        self.paths, self.trace = paths, trace
        self.spans = {}
        self.rss_kb = 0

    def run(self, op, deadline=DEADLINE_S):
        argv = [sys.executable, CLI_ENTRY, str(MEM_MB), str(int(self.trace)),
                op["argv"][0], *[self.paths[d] for d in op["docs"]], "--json"]
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=ENV)
        try:
            out, err = proc.communicate(timeout=deadline)
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            timed_out = True
        wall = time.perf_counter() - t0
        info = None
        for line in err.decode(errors="replace").splitlines():
            if line.startswith("PERFBENCH "):
                info = json.loads(line[len("PERFBENCH "):])
        scale = 1.0
        if info is not None:
            self.rss_kb = max(self.rss_kb, info["rss_kb"])
            merge_spans(self.spans, info["trace"])
            wall -= info["probe"]   # the process, without the probe it ran
            scale = hostspeed.scaled_start(wall, info["python_s"], info["probe"]) / wall
        try:
            report = json.loads(out) if out.strip() else None
        except ValueError:
            report = None
        return {"op": op, "ok": not timed_out,
                "category": "timeout" if timed_out else None,
                "result": {"exit": proc.returncode, "report": report}, "wall": wall,
                "scale": scale}

    def stop(self):
        pass


def run_ops(runner, ops):
    """Closed loop over ``ops``; returns the records and the busy time."""
    records = [runner.run(op) for op in ops]
    return records, sum(rec["wall"] for rec in records)


def scaled_busy(records):
    return sum(rec["wall"] * rec["scale"] for rec in records)


def warm_up(runner, ops):
    """Untimed operations; their records and spans are dropped."""
    spans, runner.spans = runner.spans, {}
    for op in ops:
        runner.run(dict(op, expect=None))
    runner.spans = spans


def start_library(spec, trace, log):
    worker = Worker(spec, trace, log)
    setup, ready = worker.start()
    return LibraryRunner(worker, ready), setup, ready


def measure_setup(spec, log, runs):
    """Set-up wall times of fresh interpreters, and their ready messages
    (which carry start-up, import and kernel times)."""
    setups, readies = [], []
    for _ in range(runs):
        worker = Worker(spec, False, log)
        try:
            setup, ready = worker.start()
        finally:
            worker.stop()
        setups.append(setup)
        readies.append(ready)
    return setups, readies


def scaled_setups(setups, readies):
    return [hostspeed.scaled_start(setup, ready["python_s"], ready["probe"])
            for setup, ready in zip(setups, readies)]


def run_references(spec, log, records):
    keyed = validate.reference_ops(records)
    refs = {}
    if not keyed:
        return refs
    runner, _, _ = start_library(spec, False, log)
    try:
        for key, op in keyed.items():
            rec = runner.run(dict(op, expect=None), REFERENCE_DEADLINE_S)
            refs[key] = rec["result"] if rec["ok"] else None
    finally:
        runner.stop()
    return refs


def label(op):
    """Short readable name of an operation."""
    parts = [op["kind"]] + [str(op[k]) for k in ("doc", "other", "graph", "bound")
                            if k in op]
    return " ".join(parts + op.get("argv", []))


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def machine_info():
    mem_mb = None
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal:"):
                mem_mb = int(line.split()[1]) // 1024
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "mem_total_mb": mem_mb,
            "python": platform.python_version(), "numpy": numpy,
            "machine": platform.machine()}


def timings(records, n_fixed, tail_q, scaled):
    """Latency percentiles over every operation (a failed one is infinitely
    slow) and the throughput of the passes, the first ``n_fixed`` records
    (the fixed stratum) left out of it.  ``scaled`` puts every time in
    reference-speed units (``hostspeed.py``)."""
    def took(rec):
        return rec["wall"] * (rec["scale"] if scaled else 1)

    lat = sorted(took(rec) if rec["failed"] is None else math.inf for rec in records)
    if len(lat) - math.ceil(tail_q * len(lat)) < TAIL_BEYOND:
        raise RuntimeError(f"fewer than {TAIL_BEYOND} operations beyond the tail")
    passes = records[n_fixed:]
    ok = sum(rec["failed"] is None for rec in passes)
    return {"latency_p50_ms": (percentile(lat, 0.5) * 1e3, "ms"),
            "latency_tail_ms": (percentile(lat, tail_q) * 1e3, "ms"),
            "throughput_ops_s": (ok / sum(map(took, passes)), "1/s")}


def end_to_end(records, n_fixed, failed, unknown, setups, rss_kb, tail_q):
    n = len(records)
    values = {
        "setup_s": (statistics.median(setups), "s"),
        **timings(records, n_fixed, tail_q, scaled=True),
        "ok_share": (1 - sum(failed.values()) / n, "ratio"),
        "certified_share": (1 - unknown / n, "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    for name, (value, _) in values.items():
        if not math.isfinite(value):
            raise RuntimeError(f"{name} is not finite: too many failed operations")
    return values


def per_layer(spans, failed, unknown, n, interpreter_s, import_s, overhead):
    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0])[1]

    values = {"cli.interpreter_s": (statistics.median(interpreter_s), "s"),
              "cli.import_s": (statistics.median(import_s), "s")}
    for name in LAYER_TIMES:
        values[f"{name}.self_s"] = (self_s(name), "s")
    for name in LAYER_CALLS:
        values[f"{name}.calls"] = (calls(name), "count")
    for module in MODULE_TIMES:
        total = sum(v[1] for k, v in spans.items() if k.startswith(module + "."))
        values[f"{module}.self_s"] = (total, "s")
    for category in validate.CATEGORIES:
        values[f"failed.{category}"] = (failed[category], "count")
    values["failed_share"] = (sum(failed.values()) / n, "ratio")
    values["unknown_share"] = (unknown / n, "ratio")
    values["trace.overhead_share"] = (overhead, "ratio")
    return values


def run(args, workdir):
    passes = max(MIN_PASSES, round(args.seconds / workloads.PASS_S[args.workload]))
    if args.trace:
        passes = max(1, passes // 2)
    plan = workloads.WORKLOADS[args.workload](args.seed, passes)
    spec = plan.write(workdir)
    ops = plan.fixed + [op for ops in plan.passes for op in ops]
    is_cli = args.workload == "cli-docs"
    log = open(os.path.join(workdir, "worker.log"), "wb")
    runners = []
    try:
        setups, readies = measure_setup(spec, log, SETUP_RUNS)
        if is_cli:
            runner = CliRunner(plan.paths, False)
        else:
            runner = start_library(spec, False, log)[0]
        runners.append(runner)
        warm_up(runner, plan.warmup)
        records, busy = run_ops(runner, ops)
        runner.stop()
        rss_kb = runner.rss_kb
        if args.trace:
            if is_cli:
                traced = CliRunner(plan.paths, True)
            else:
                traced = start_library(spec, True, log)[0]
            runners.append(traced)
            warm_up(traced, plan.warmup)
            traced_records, _ = run_ops(traced, ops)
            traced.stop()
        refs = run_references(spec, log, records)
    finally:
        for r in runners:
            r.stop()
        log.close()

    failed, unknown = validate.tally(records, refs, plan.images)
    n = len(records)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_info(), "ops": n, "passes": passes,
        "busy_s": busy, "tail_percentile": TAIL[args.workload],
        "failed": failed, "unknown": unknown,
        "failed_ops": [[label(rec["op"]), rec["failed"]]
                       for rec in records if rec["failed"]],
        "slowest_ops": [[label(rec["op"]), round(rec["wall"], 4)] for rec in
                        sorted(records, key=lambda r: -r["wall"])[:8]],
        "host_scale": statistics.median(rec["scale"] for rec in records),
    }
    if args.trace:
        # over the passes: the fixed stratum's runaway power takes seconds
        # whose length varies more than tracing adds
        n_fixed = len(plan.fixed)
        overhead = scaled_busy(traced_records[n_fixed:]) / scaled_busy(records[n_fixed:]) - 1
        values = per_layer(traced.spans, failed, unknown, n,
                           [r["interpreter_s"] for r in readies],
                           [r["import_s"] for r in readies], overhead)
    else:
        values = end_to_end(records, len(plan.fixed), failed, unknown,
                            scaled_setups(setups, readies), rss_kb, TAIL[args.workload])
        detail["unscaled"] = {k: v for k, (v, _) in timings(
            records, len(plan.fixed), TAIL[args.workload], scaled=False).items()}
        detail["unscaled"]["setup_s"] = statistics.median(setups)
    correct = failed["wrong_answer"] == 0 and failed["exit_code"] == 0
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": sum(failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("src", "loneaxis", "__init__.py")):
        print("error: run from the root of a loneaxis checkout (no src/loneaxis)",
              file=sys.stderr)
        return 2
    problems = selfcheck.problems()
    if problems:
        print("error: validator self-check failed: " + "; ".join(problems),
              file=sys.stderr)
        return 3
    workdir = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run(args, workdir)
    except Exception:
        log = os.path.join(workdir, "worker.log")
        if os.path.exists(log):
            with open(log, errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(HERE, "_work"))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
