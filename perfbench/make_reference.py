"""Write reference.json: exit code and stdout sha256 of every pool op.

Run from the repository root at a commit whose CLI output is trusted:

    python3 perfbench/make_reference.py

The benchmark holds every later commit to these bytes (the CLI output must
stay byte-identical), so regenerate the file only when a pool in
workloads.py changes, and then at the commit that defined the old bytes.
Also records the genus of each level of the levels pool: the levels
workload skips the classify of a genus-0 level, which exits 3 by design.
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    cache = tempfile.mkdtemp(prefix=".perfbench-ref-", dir=ROOT)
    os.environ["MODFOL_CACHE"] = cache
    from modfol import cli

    import workloads
    ops, genus = {}, {}
    try:
        for op, argv in workloads.reference_ops():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            out = buf.getvalue().encode("utf-8")
            ops[op.key] = {"rc": rc, "sha256": workloads.digest(out)}
            if op.argv[0] == "decompose" and \
                    int(op.argv[1]) <= workloads.LEVELS_MAX:
                genus[op.argv[1]] = json.loads(out)["genus"]
            print(rc, op.key, file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump({"genus": genus, "ops": ops}, handle, indent=0,
                  sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
