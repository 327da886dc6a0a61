"""Seeded workloads of modfol CLI calls and the checks on their output.

Every op is one `modfol.cli.main(argv)` call.  The input pool of each
workload is fixed here, and reference.json (written by make_reference.py
at the seed commit) holds the exit code and the sha256 of the stdout
bytes of every op in every pool.  A run's seed orders the ops and, on
iet, picks them from the pools; nothing else about a run depends on the
seed.

The iet pools are stratified so that each seed gets about the same amount
of work: the spread of the timings across seeds must stay well inside the
bounds in BENCHMARK.json.  NOTES.md says why each workload exists.
"""

import hashlib
import json
import random
from fractions import Fraction

WORKLOADS = ("levels", "big_level", "periods", "iet")

# A run makes one pass over the whole op list per PASS_SECONDS of its
# --seconds (see run.py).  These are the pass times at the seed commit on a
# 2-vCPU VM with the calibration between ops, rounded up; each workload is
# sized so that a 30 s run makes five to eight passes.
PASS_SECONDS = {"levels": 6.0, "big_level": 4.0, "periods": 6.0, "iet": 5.0}

# levels: every level 1..LEVELS_MAX, in seeded order.  Seeded samples of
# the range moved the median cold latency by a third between seeds: it
# sits where the cost per level climbs steeply.  Higher levels cost up to
# 2.3 s each (114, 120) and would not fit a pass.
LEVELS_MAX = 70

# big_level: the prime levels below 190 at which number-field elimination
# takes the largest share (about half) of a cold decompose: Galois orbits
# of degree 10, 12 and 11, 0.3-1.6 s each, in seeded order.
BIG_LEVELS = (131, 167, 179)

# periods: the orbit at level 11 and the degree-2 orbit at level 23, in
# seeded order.  Levels 17-37 cost 3 to 20 s per orbit; 37 is measured by
# baselines.py instead.
PERIOD_ORBITS = ((11, 0), (23, 0))
PERIOD_PREC = 60

# iet: Keane probes over quadratic and cubic fields with lengths of full
# rational rank (so Keane's theorem rules out every connection), and
# rational periodicity reports.  Pools are drawn once from IET_POOL_SEED.
IET_POOL_SEED = 20090316
QUADRATIC_POLYS = ("-1,-1,1", "-2,0,1", "-3,0,1", "-5,0,1", "-6,0,1",
                   "-7,0,1")
CUBIC_POLYS = ("-1,-1,0,1", "-1,-3,0,1", "1,-2,-1,1")
QUADRATIC_STEPS = 1500
CUBIC_STEPS = 250
QUADRATIC_POOL, QUADRATIC_PICK = 30, 3      # per field
CUBIC_POOL, CUBIC_PICK = 60, 5              # per field
RATIONAL_POOL, RATIONAL_PICK = 150, 10
RATIONAL_DENOMINATORS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)
IRREDUCIBLE_3 = ((3, 2, 1), (2, 3, 1), (3, 1, 2))
IRREDUCIBLE_4 = ((4, 3, 2, 1), (2, 4, 1, 3), (3, 1, 4, 2), (4, 1, 3, 2),
                 (2, 4, 3, 1), (3, 4, 1, 2))


class Op:
    """One CLI call; `kind` is "op" for a timed op or "warm" for the
    cache-hit re-query that follows a cold decompose."""

    __slots__ = ("argv", "kind", "key")

    def __init__(self, argv, kind="op"):
        self.argv = list(argv)
        self.kind = kind
        self.key = " ".join(self.argv)


def digest(data):
    return hashlib.sha256(data).hexdigest()


# -- pools ----------------------------------------------------------------------------


def _combo(coeffs):
    """CLI length token for sum(c_k w^k) with non-negative integers c_k."""
    terms = []
    for power, c in enumerate(coeffs):
        if c == 0:
            continue
        if power == 0:
            terms.append(str(c))
        else:
            terms.append("%d*w" % c + ("^%d" % power if power > 1 else ""))
    return "+".join(terms)


def _full_rank(rows):
    """True when the integer square matrix `rows` is nonsingular."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return False
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return True


def _probe_pool(rng, poly, size, degree, perms, steps):
    """`size` distinct probes of len(perm) == degree intervals whose
    lengths have rational rank equal to the interval count."""
    seen, pool = set(), []
    while len(pool) < size:
        rows = [[rng.randint(0, 5) for _ in range(degree)]
                for _ in range(degree)]
        if not _full_rank(rows):
            continue
        perm = rng.choice(perms)
        lengths = ",".join(_combo(row) for row in rows)
        if (lengths, perm) in seen:
            continue
        seen.add((lengths, perm))
        pool.append(Op(["iet", "--lengths", lengths,
                        "--perm", ",".join(map(str, perm)),
                        "--poly=" + poly, "--steps", str(steps)]))
    return pool


def _rational_pool(rng, size):
    seen, pool = set(), []
    while len(pool) < size:
        perm = rng.choice(IRREDUCIBLE_3 + IRREDUCIBLE_4)
        lengths = ",".join(
            "%d/%d" % (rng.randint(1, q - 1), q) for q in
            (rng.choice(RATIONAL_DENOMINATORS) for _ in perm))
        if (lengths, perm) in seen:
            continue
        seen.add((lengths, perm))
        pool.append(Op(["iet", "--lengths", lengths,
                        "--perm", ",".join(map(str, perm))]))
    return pool


def iet_pools():
    """Strata of the iet workload: one per field, then the rational one."""
    rng = random.Random(IET_POOL_SEED)
    strata = []
    for poly in QUADRATIC_POLYS:
        strata.append((_probe_pool(rng, poly, QUADRATIC_POOL, 2, ((2, 1),),
                                   QUADRATIC_STEPS), QUADRATIC_PICK))
    for poly in CUBIC_POLYS:
        strata.append((_probe_pool(rng, poly, CUBIC_POOL, 3, IRREDUCIBLE_3,
                                   CUBIC_STEPS), CUBIC_PICK))
    strata.append((_rational_pool(rng, RATIONAL_POOL), RATIONAL_PICK))
    return strata


def reference_ops():
    """Every op any seed can run, as (op, argv that yields its reference).

    decompose and classify references come from --no-cache runs, so the
    cached and warm paths are held to the bytes of a cold computation.
    """
    out = []
    for n in range(1, LEVELS_MAX + 1):
        out.append((Op(["decompose", str(n)]),
                    ["decompose", str(n), "--no-cache"]))
    for n in range(1, LEVELS_MAX + 1):
        out.append((Op(["classify", str(n)]),
                    ["classify", str(n), "--no-cache"]))
    for n in BIG_LEVELS:
        out.append((Op(["decompose", str(n)]),
                    ["decompose", str(n), "--no-cache"]))
    for n, k in PERIOD_ORBITS:
        argv = _periods_argv(n, k)
        out.append((Op(argv), argv))
    for pool, _ in iet_pools():
        for op in pool:
            out.append((op, op.argv))
    return out


def _periods_argv(n, k):
    return ["periods", str(n), "--orbit", str(k), "--prec", str(PERIOD_PREC)]


# -- seeded runs ----------------------------------------------------------------------


class Workload:
    """The seeded op list of one run, its set-up calls and its checks."""

    def __init__(self, name, seed, reference):
        self.reference = reference
        self.warmup = []
        rng = random.Random("%s:%d" % (name, seed))
        self.ops = getattr(self, "_build_" + name)(rng)
        self.invariants = Invariants()

    def _build_levels(self, rng):
        genus = {int(n): g for n, g in self.reference["genus"].items()}
        levels = list(range(1, LEVELS_MAX + 1))
        rng.shuffle(levels)
        ops = []
        for n in levels:
            ops.append(Op(["decompose", str(n)]))
            # a genus-0 level has no orbits to classify (exit code 3)
            if genus[n] > 0:
                ops.append(Op(["classify", str(n)], kind="warm"))
        return ops

    def _build_big_level(self, rng):
        levels = list(BIG_LEVELS)
        rng.shuffle(levels)
        return [Op(["decompose", str(n)]) for n in levels]

    def _build_periods(self, rng):
        orbits = list(PERIOD_ORBITS)
        rng.shuffle(orbits)
        self.warmup = [["decompose", str(n)] for n in sorted({n for n, _ in
                                                               orbits})]
        return [Op(_periods_argv(n, k)) for n, k in orbits]

    def _build_iet(self, rng):
        ops = []
        for pool, pick in iet_pools():
            ops += rng.sample(pool, pick)
        rng.shuffle(ops)
        return ops

    def check(self, op, rc, out):
        """None when the op's exit code and stdout are right, else why not.

        The invariants run on every op, before and apart from the
        comparison with the reference, so they still guard the output if
        reference.json is regenerated, and a mismatch names what broke.
        """
        problems = [self.invariants.check(op, out)]
        ref = self.reference["ops"].get(op.key)
        if ref is None:
            problems.append("no reference for %r" % op.key)
        elif rc != ref["rc"]:
            problems.append("exit code %r, expected %r" % (rc, ref["rc"]))
        elif digest(out) != ref["sha256"]:
            problems.append("stdout differs from the reference bytes")
        return "; ".join(p for p in problems if p) or None


class Invariants:
    """Checks that need no reference bytes; classify is checked against the
    decompose of the same level that ran just before it."""

    def __init__(self):
        self._last_decompose = None

    def check(self, op, out):
        try:
            obj = json.loads(out)
        except ValueError:
            return "stdout is not one JSON document"
        try:
            return getattr(self, "_check_" + op.argv[0])(op, obj)
        except (KeyError, IndexError, TypeError, AttributeError) as err:
            return "malformed %s output (%s: %s)" % (
                op.argv[0], type(err).__name__, err)

    def _check_decompose(self, op, obj):
        self._last_decompose = obj
        if obj["level"] != int(op.argv[1]):
            return "wrong level"
        total = sum(o["degree"] * o["multiplicity"] for o in obj["orbits"])
        if total != obj["genus"]:
            return "sum of degree * multiplicity %d != genus %d" % (
                total, obj["genus"])
        return None

    def _check_classify(self, op, entries):
        cold = self._last_decompose
        if cold is None or cold["level"] != int(op.argv[1]):
            return "classify without the preceding decompose"
        if [e["degree"] for e in entries] != \
                [o["degree"] for o in cold["orbits"]]:
            return "orbit degrees differ from decompose"
        for e in entries:
            d, g = e["degree"], e["genus"]
            if g != cold["genus"]:
                return "genus differs from decompose"
            if d == 1:
                want, excess = "strebel", None
            elif d == g:
                want, excess = "pseudo_anosov", None
            else:
                want, excess = "degenerate_pseudo_anosov", g - d
            if e["class"] != want or e.get("separatrix_excess") != excess:
                return "degree %d, genus %d classed %s" % (d, g, e["class"])
        return None

    def _check_periods(self, op, obj):
        prec = int(op.argv[op.argv.index("--prec") + 1])
        if not obj["rank_agreement"] or \
                obj["detected_rank"] != obj["exact_rank"]:
            return "detected rank disagrees with the exact rank"
        digits = obj["value_digits"]
        if len(digits) != len(obj["values"]) or min(digits) < prec:
            return "value_digits %r below --prec %d" % (digits, prec)
        return None

    def _check_iet(self, op, obj):
        if "--poly" not in op.key:
            lcm_ok = isinstance(obj.get("period_lcm"), int) and \
                obj["period_lcm"] >= 1
            if set(obj) != {"periodic", "period_lcm"} or \
                    obj["periodic"] is not True or not lcm_ok:
                return "malformed periodicity report"
            return None
        if set(obj) != {"keane_violations", "no_periodic_orbit_found"}:
            return "malformed probe report"
        # full-rank lengths and an irreducible permutation satisfy Keane's
        # condition, so no probe may report a connection
        if obj["keane_violations"] or obj["no_periodic_orbit_found"] is not True:
            return "connection reported for full-rank lengths"
        return None


def probe_steps(op):
    """Orbit steps a connection-free Keane probe executes."""
    if "--steps" not in op.argv:
        return 0
    cuts = op.argv[op.argv.index("--perm") + 1].count(",")
    return cuts * int(op.argv[op.argv.index("--steps") + 1])

