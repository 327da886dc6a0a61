"""Per-op timings of the single-call baselines named in ROADMAP.md.

    python3 perfbench/baselines.py

Times `decompose 389`, `periods 37` for both orbits at --prec 60 (each off
a warm cache, as in the periods workload) and the golden-ratio Keane probe
at 100k steps, each call REPEATS times, each time in a fresh interpreter
with its own empty MODFOL_CACHE.  Every output goes through the same
invariant checks as the workloads.  These calls are too slow to fit a
timed run, so they are recorded once per commit of interest, not by
run.py.  Prints one JSON object.
"""

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REPEATS = 3

# name, CLI call, untimed set-up call, the figure ROADMAP.md records
BASELINES = (
    ("decompose 389", ["decompose", "389", "--no-cache"], None,
     "decompose(389): 17.5 s"),
    ("periods 37 orbit 0", ["periods", "37", "--orbit", "0", "--prec", "60"],
     ["decompose", "37"], "ensure_series at N=37, 864 terms: about 20 s"),
    ("periods 37 orbit 1", ["periods", "37", "--orbit", "1", "--prec", "60"],
     ["decompose", "37"], "ensure_series at N=37, 864 terms: about 20 s"),
    ("keane golden 100k",
     ["iet", "--lengths", "1,w", "--perm", "2,1", "--poly=-1,-1,1",
      "--steps", "100000"], None, "6.1 s per 100k steps"),
)

_CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import worker, workloads
from modfol import cli
setup, argv = json.loads(sys.argv[3]), json.loads(sys.argv[4])
if setup and worker._call(cli, setup)[0] != 0:
    sys.exit("set-up call failed")
rc, out, seconds, error = worker._call(cli, argv)
op = workloads.Op(argv)
problem = error or (rc != 0 and "exit code %r" % rc) or \\
    workloads.Invariants().check(op, out)
print(json.dumps({"seconds": seconds, "problem": problem,
                  "sha256": workloads.digest(out)}))
"""


def main():
    results = []
    for name, argv, setup, roadmap in BASELINES:
        runs = []
        for rep in range(REPEATS):
            cache = os.path.join(ROOT, ".perfbench-run", "baseline-%d" % rep)
            env = dict(os.environ, MODFOL_CACHE=cache, PYTHONHASHSEED="0")
            try:
                done = subprocess.run(
                    [sys.executable, "-c", _CHILD, HERE,
                     os.path.join(ROOT, "src"), json.dumps(setup),
                     json.dumps(argv)],
                    env=env, cwd=ROOT, capture_output=True, text=True,
                    timeout=600, check=True)
            finally:
                shutil.rmtree(cache, ignore_errors=True)
            runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
            print(name, rep, runs[-1]["seconds"], file=sys.stderr, flush=True)
        seconds = [r["seconds"] for r in runs]
        results.append({
            "name": name, "argv": " ".join(argv), "roadmap": roadmap,
            "seconds": seconds, "median_s": statistics.median(seconds),
            "problems": sorted({r["problem"] for r in runs if r["problem"]}),
            "sha256": sorted({r["sha256"] for r in runs}),
        })
    try:
        os.rmdir(os.path.join(ROOT, ".perfbench-run"))
    except OSError:
        pass
    print(json.dumps({
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "baselines": results,
    }, indent=1))


if __name__ == "__main__":
    main()
