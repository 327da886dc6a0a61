"""modfol benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; modfol is imported from ./src.  A run
makes one pass per PASS_SECONDS[W] of S (at least two) over the whole
seeded op list, each pass in a fresh interpreter (worker.py) with its own
empty MODFOL_CACHE under ./.perfbench-run/ (removed on exit), so no pass
sees another's state.  PASS_SECONDS is what a pass of each workload takes
at the seed commit, so a run measures for about S seconds there, and the
pass count, with the inputs and the sample counts, depends only on the
arguments.  RUN_LIMIT_S is a watchdog: a run that exceeds it prints no
result.

Every time is at the reference machine speed (see worker.py): the
machine's own speed drifts too much between runs for raw times to
resolve a regression.  An op's latency is its median over the passes.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  setup_s is
the median, over every pass and SETUP_ONLY_PER_PASS set-up-only launches
before each, of the time from process start to the first timed op.

--trace 1 makes half the passes untraced and as many again with every
public callable wrapped (tracer.py), checks that each op's stdout is the
same in every pass, and reports the per-layer metrics (medians over the
traced passes; their times are raw).  trace.overhead_s is the traced
wall_s minus the untraced one; the warm-query latencies and the IET step
rate come from the untraced passes.

The last stdout line is the result object.  The line before it records
the generated inputs, the sample count of each metric, the raw (unscaled)
wall time and the median calibration time.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

from workloads import PASS_SECONDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_ONLY_PER_PASS = 1
TAIL_BEYOND = 10
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """A pass could not be run; the benchmark prints no result."""


def _tail(values):
    """The highest latency with TAIL_BEYOND samples above it; the largest
    one when there are too few samples for that."""
    ranked = sorted(values)
    return ranked[max(0, len(ranked) - 1 - TAIL_BEYOND)] \
        if len(ranked) > TAIL_BEYOND else ranked[-1]


class Runner:
    def __init__(self, workload, seed, seconds):
        self.workload, self.seed = workload, seed
        self.passes = max(2, round(seconds / PASS_SECONDS[workload]))
        self.scratch = os.path.join(ROOT, ".perfbench-run", str(os.getpid()))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.launched = 0

    def launch(self, *extra):
        """Run one worker; returns (seconds to READY at the reference
        speed, the worker's record)."""
        self.launched += 1
        cache = os.path.join(self.scratch, "cache-%d" % self.launched)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--cache-dir", cache] + list(extra)
        env = dict(os.environ, PYTHONHASHSEED="0")
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before pass %d" % self.launched)
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env=env) as proc:
            watchdog = threading.Timer(left, proc.kill)
            watchdog.start()
            try:
                ready = proc.stdout.readline()
                setup = time.perf_counter() - start
                rest = proc.stdout.read()
                proc.wait()
            finally:
                watchdog.cancel()
        shutil.rmtree(cache, ignore_errors=True)
        if ready.strip() != "READY" or proc.returncode != 0:
            raise BenchError("worker %s exited with %s"
                             % (" ".join(extra) or "pass", proc.returncode))
        lines = rest.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no record")
        record = json.loads(lines[-1])
        return setup * record["setup_scale"], record

    def run_passes(self, count, *extra, setup_only=0):
        """`count` passes over the whole op list, each after `setup_only`
        set-up-only launches; returns (setup times, records)."""
        setups, records = [], []
        for _ in range(count):
            setups += [self.launch("--setup-only")[0]
                       for _ in range(setup_only)]
            setup, record = self.launch(*extra)
            setups.append(setup)
            records.append(record)
        return setups, records

    def timed(self):
        setups, records = self.run_passes(
            self.passes, setup_only=SETUP_ONLY_PER_PASS)
        ops = _median_ops(records)
        latencies = [op["seconds"] for op in ops if op["kind"] == "op"]
        wall = _wall(ops)
        metrics = {
            "setup_s": (statistics.median(setups), "s", len(setups)),
            "wall_s": (wall, "s", len(ops)),
            "ops_per_s": (len(ops) / wall, "1/s", len(ops)),
            "op_p50_s": (statistics.median(latencies), "s", len(latencies)),
            "op_p90_s": (_tail(latencies), "s", len(latencies)),
            "peak_rss_mb": (statistics.median(
                r["peak_rss_mb"] for r in records), "MB", len(records)),
        }
        return records, _failures(records), metrics

    def traced(self):
        half = max(1, self.passes // 2)
        _, plain = self.run_passes(half)
        _, traced = self.run_passes(half, "--trace")
        failures = _failures(plain + traced)
        layers = [r["layers"] for r in traced]
        metrics = {name: (statistics.median(x[name][0] for x in layers),
                          unit, len(layers))
                   for name, (_, unit) in layers[0].items()}
        ops = _median_ops(plain)
        overhead = _wall(_median_ops(traced)) - _wall(ops)
        metrics["trace.overhead_s"] = (overhead, "s", len(ops))
        warm = [op["seconds"] for op in ops if op["kind"] == "warm"]
        metrics["cache.warm_op_p50_s"] = (
            statistics.median(warm) if warm else 0.0, "s", len(warm))
        metrics["cache.warm_op_p90_s"] = (
            _tail(warm) if warm else 0.0, "s", len(warm))
        probes = [op for op in ops if op["steps"]]
        metrics["iet.steps_per_s"] = (
            sum(op["steps"] for op in probes) / _wall(probes)
            if probes else 0.0, "1/s", len(probes))
        return plain, failures, metrics


def _wall(ops):
    return sum(op["seconds"] for op in ops)


def _median_ops(records):
    """The first pass's op records, each latency (scaled and raw) replaced
    by its median over all passes."""
    return [dict(first, **{key: statistics.median(r["ops"][i][key]
                                                  for r in records)
                           for key in ("seconds", "raw_seconds")})
            for i, first in enumerate(records[0]["ops"])]


def _failures(records):
    """One line per op that failed a check in any pass, or whose stdout
    differs between passes."""
    out = []
    for i, first in enumerate(records[0]["ops"]):
        runs = [r["ops"][i] for r in records]
        why = next((r["problem"] for r in runs if r["problem"]), None)
        if why is None and any(r["sha256"] != first["sha256"] for r in runs):
            why = "stdout differs between passes"
        if why:
            out.append("%s: %s" % (first["argv"], why))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "modfol", "cli.py")):
        sys.exit("perfbench: no modfol sources under %s"
                 % os.path.join(ROOT, "src"))

    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        records, failures, metrics = \
            runner.traced() if args.trace else runner.timed()
    except BenchError as err:
        sys.exit("perfbench: %s" % err)
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(runner.scratch))
        except OSError:
            pass

    for line in failures:
        print("FAILED", line, file=sys.stderr)
    ops = _median_ops(records)
    attempted = len(ops)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": records[0]["inputs"], "passes": len(records),
        "samples": {name: m[2] for name, m in metrics.items()},
        "raw_wall_s": sum(op["raw_seconds"] for op in ops),
        "calibration_s": statistics.median(
            r["calibration_s"] for r in records),
    }, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": m[0], "unit": m[1]}
                    for name, m in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
