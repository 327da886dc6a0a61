"""One pass of a workload in a fresh interpreter (started by run.py).

Imports modfol from <checkout>/src, builds the seeded op list, runs the
set-up calls (for periods: the level records the ops will read from the
cache), prints READY, then calls modfol.cli.main once per op of the whole
seeded list (run.py's watchdog bounds the time a pass may take).  Only
the main() call is timed; the output check, gc.collect() and a short
calibration loop run between ops.

This machine's speed drifts by tens of percent within seconds, and the
calibration loop slows down with it (the two correlate at about 0.9).  So
each op's time is also given scaled to a fixed machine speed: multiplied
by CALIBRATION_REFERENCE_S over the mean of the calibration times just
before and just after the op and, in an untraced pass, every TICK_S
during it (see Meter).
setup_scale does the same for the set-up, from the calibration right
after READY.

The last stdout line is a JSON record of the pass (with --setup-only,
just setup_scale).  With --trace, every public callable of the package is
wrapped (see tracer.py) after set-up and the record carries the per-layer
accounting.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CALIBRATION_LOOPS = 40000
# About the median time of _calibrate() at the seed commit on a 2-vCPU VM.
# Every time is reported as if the machine ran at that speed throughout.
CALIBRATION_REFERENCE_S = 0.006
TICK_S = 0.2


def _call(cli, argv, meter=None):
    """(exit code or None, stdout bytes, seconds, error text or None).

    With a meter, the machine's speed is also sampled during the call, and
    the time the samples took is not counted in the seconds.
    """
    buf = io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        if meter is not None:
            meter.arm()
        try:
            rc = cli.main(argv)
        except Exception as err:  # a raising op is recorded as failed
            error = "%s: %s" % (type(err).__name__, err)
        end = time.perf_counter()
        if meter is not None:
            meter.disarm()
    seconds = end - start
    if meter is not None:
        seconds -= meter.stolen_before(end)
    return rc, buf.getvalue().encode("utf-8"), seconds, error


def _calibrate():
    """Seconds this interpreter takes for a fixed amount of pure-Python
    integer and dict work: a sample of the machine's current speed."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
        table[i & 4095] = total
    return time.perf_counter() - start


class Meter:
    """Runs _calibrate() from a SIGALRM handler every TICK_S while armed.

    The handler runs in the main thread between bytecodes, so it pauses
    the op; its time is taken back out by stolen_before().
    """

    def __init__(self):
        self.ticks, self.samples = [], []
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        calibration = _calibrate()
        self.ticks.append((start, time.perf_counter() - start, calibration))

    def arm(self):
        self.ticks = []
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def stolen_before(self, end):
        """Seconds spent in ticks that began before `end`; keeps only
        those ticks' calibration times in self.samples."""
        ticks = [t for t in self.ticks if t[0] < end]
        self.samples = [t[2] for t in ticks]
        return sum(t[1] for t in ticks)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.environ["MODFOL_CACHE"] = args.cache_dir
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from modfol import cli

    import tracer
    import workloads
    with open(os.path.join(HERE, "reference.json")) as handle:
        reference = json.load(handle)
    work = workloads.Workload(args.workload, args.seed, reference)
    for argv in work.warmup:
        rc, _, _, error = _call(cli, argv)
        if rc != 0:
            sys.exit("set-up call %r failed: %s" % (argv, error or rc))
    trace = None
    if args.trace:
        trace = tracer.Tracer()
        tracer.install(trace)
    # Objects that exist before the first op (the imported package, the
    # pools) are moved out of the collector's reach, so the gc.collect()
    # between ops only scans what the ops left behind.
    gc.collect()
    gc.freeze()
    print("READY", flush=True)
    before = _calibrate()
    record = {"setup_scale": CALIBRATION_REFERENCE_S / before}
    if args.setup_only:
        print(json.dumps(record), flush=True)
        return

    # a traced pass is not sampled, so its per-layer times hold no
    # calibration work
    meter = None if args.trace else Meter()
    records, calibrations = [], [before]
    for op in work.ops:
        gc.collect()
        rc, out, seconds, error = _call(cli, op.argv, meter)
        after = _calibrate()
        calibrations.append(after)
        problem = error or work.check(op, rc, out)
        around = [before, after] + (meter.samples if meter else [])
        scale = CALIBRATION_REFERENCE_S * len(around) / sum(around)
        records.append({"argv": op.key, "kind": op.kind,
                        "seconds": seconds * scale, "raw_seconds": seconds,
                        "rc": rc, "sha256": workloads.digest(out),
                        "steps": workloads.probe_steps(op),
                        "problem": problem})
        before = after
    record.update({
        "inputs": [op.key for op in work.ops],
        "ops": records,
        "calibration_s": statistics.median(calibrations),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if trace is not None:
        record["layers"] = tracer.layer_metrics(trace)
    print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
