"""Command-line driver: JSON on stdout, stable exit codes, level cache.

Subcommands: genus, decompose, classify, periods, iet, torus.  Output is
canonical JSON (sorted keys, compact separators) so repeated runs with
identical inputs produce identical bytes, with or without the cache;
--pretty switches to indented form.  Errors are also JSON, shaped
{"error": ..., "hint": ...}, with exit codes 0 (success), 1 (stdout closed
before all output was written), 2 (usage), 3 (computation failed), 4
(numerically indeterminate).  genus, decompose and classify accept
--range A..B to process a batch of at most 10,000 levels, one JSON line
per level in ascending order, optionally on a process pool (--jobs),
which is loaded only when --jobs asks for more than one worker.  Levels
are bounded: at most 10^14 for genus, 2,000 for the others; so are the
periods precision (1,000 digits), the degree of an iet --poly (40), the
unit cells of a rational iet (10^6) and decompose --primes (25 primes up
to 1,000), each refused as a usage error before a series, a field, an
exchange or a space is built.  main() builds its argument parser once
per process and reuses it, so in-process callers pay for it once.  Level
records are cached under $MODFOL_CACHE (default .modfol-cache/); a cached
record of another shape than analyze_level's is a miss, and a cache that
cannot be written is skipped; explicit --primes runs bypass the cache,
whose files describe the default decomposition only.
"""

import argparse
import functools
import json
import os
import sys
from contextlib import suppress
from fractions import Fraction

from . import cache
from .arith import _integers
from .congruence import curve_data
from .eigen import PRIME_LIMIT
from .errors import (IndeterminateRankError, ModfolError, NoCuspFormsError,
                     PrecisionError, TruncationError, UndecidedSplitError)
from .foliation import (JacobianModule, TorusKind, classify_torus,
                        module_rank)
from .iet import IET, minimality_probe, periodicity_report
from .modsym import ModularSymbolSpace
from .numfield import NumberField
from .periods import (detect_rank, ensure_series, numeric_jacobian,
                      positive_precision, rank_precision, required_terms)
from .pipeline import (analyze_level, is_level_record, orbit_from_record,
                       rat_to_json)
from .polys import MAX_POWER, QPolynomial, parse_poly

_USAGE_HINT = "run 'modfol --help' or 'modfol <subcommand> --help' for usage"
_DILATATION_DIGITS = 30
_MAX_STEPS = 10 ** 6    # a probe step: about 0.3 us per cut compared
_MAX_LEVEL = 2000       # ModularSymbolSpace(2000): 0.3 s and 55 MB max RSS
_MAX_GENUS_LEVEL = 10 ** 14     # rho: 101 levels near 10^14 in 0.05 s
_MAX_RANGE = 10000      # levels in one --range batch
_MAX_PRIME = 1000       # decompose --primes: T_997 at level 1999 in 11 s
_MAX_PREC = 1000        # periods 11 --orbit 0 --prec 1000: about 0.6 s
_MAX_POLY_DEGREE = 40   # iet --poly, dense: about 0.05 s at 40, 0.08 s at 50
_MAX_CELLS = 10 ** 6    # rational iet unit cells: 0.25 s and 70 MB max RSS


class _UsageError(Exception):
    """Bad command line; reported as JSON with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# -- output and error plumbing ---------------------------------------------------------


def _emit(obj, pretty):
    if pretty:
        print(json.dumps(obj, sort_keys=True, indent=2))
    else:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def _error_code_hint(err):
    if isinstance(err, IndeterminateRankError):
        return 4, "rerun with a higher --prec"
    if isinstance(err, PrecisionError):
        if err.required_terms:
            return 4, ("the requested precision needs %d series terms"
                       % err.required_terms)
        return 4, "rerun with a higher --prec or more series terms"
    if isinstance(err, UndecidedSplitError):
        if err.next_prime:
            return 3, "add more primes to --primes (try %d)" % err.next_prime
        return 3, "add more primes to --primes"
    if isinstance(err, TruncationError):
        if err.required_order:
            return 3, "extend the series to order %d first" % err.required_order
        return 3, "extend the series first"
    if isinstance(err, NoCuspFormsError):
        return 3, "this level has genus 0, so there are no orbits"
    return 3, "check the argument values"


def _emit_error(err, pretty):
    code, hint = _error_code_hint(err)
    _emit({"error": str(err), "hint": hint}, pretty)
    return code


# -- shared helpers ---------------------------------------------------------------------


def _level_record(N, primes=None, use_cache=True):
    """Analysis record for a level, through the cache when allowed.

    Explicit prime lists bypass the cache both ways: cached files hold
    the default decomposition, whose primes escalate, only.
    """
    if primes is not None:
        return analyze_level(N, primes)
    if use_cache:
        record = cache.load(N)
        if record is not None and is_level_record(record):
            return record
    record = analyze_level(N)
    if use_cache:
        with suppress(OSError):     # as cache.load, an unusable cache misses
            cache.store(record)
    return record


def _decompose_obj(N, primes, use_cache):
    record = _level_record(N, primes, use_cache)
    return {
        "level": record["level"],
        "genus": record["curve"]["genus"],
        "primes": record["primes"],
        "orbits": [{key: rec[key]
                    for key in ("orbit", "degree", "minpoly",
                                "defining_prime", "multiplicity",
                                "possibly_old")}
                   for rec in record["orbits"]],
    }


def _classify_entries(N, use_cache):
    record = _level_record(N, None, use_cache)
    if record["curve"]["genus"] == 0:
        raise NoCuspFormsError(
            "level %d has genus 0: no cusp forms, nothing to classify" % N)
    return record["classification"]


def _decimal(value, digits):
    """Fixed-point decimal string of a Fraction, round-half-up; a value
    that rounds to zero prints unsigned, since its sign is noise below the
    last digit."""
    value = Fraction(value)
    scaled = abs(value) * 10 ** digits
    units = scaled.numerator // scaled.denominator
    if 2 * (scaled - units) >= 1:
        units += 1
    sign = "-" if value < 0 and units else ""
    text = str(units).rjust(digits + 1, "0")
    if digits == 0:
        return sign + text
    return sign + text[:-digits] + "." + text[-digits:]


def _check_orbit(args, count):
    if not 0 <= args.orbit < count:
        raise _UsageError("level %d has %d orbits; --orbit %d is out of "
                          "range" % (args.level, count, args.orbit))


def _parse_int_list(text, what):
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _UsageError("%s must be a comma-separated integer list, "
                          "got %r" % (what, text))


def _parse_fraction(text, what):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError("%s must be an exact rational like 3 or 5/7, "
                          "got %r" % (what, text))


# -- subcommand handlers ---------------------------------------------------------------


def _genus_handler(args):
    return _run_levels(args, "genus")


def _decompose_handler(args):
    if args.primes is not None:
        if args.range is not None:
            raise _UsageError("--primes cannot be combined with --range")
        primes = _parse_int_list(args.primes, "--primes")
        if len(set(primes)) > PRIME_LIMIT or max(primes) > _MAX_PRIME:
            raise _UsageError("--primes takes at most %d primes, each at "
                              "most %d" % (PRIME_LIMIT, _MAX_PRIME))
        _emit(_decompose_obj(args.level, primes, False), args.pretty)
        return 0
    return _run_levels(args, "decompose")


def _classify_handler(args):
    if args.orbit is not None:
        if args.range is not None:
            raise _UsageError("--orbit cannot be combined with --range")
        entries = _classify_entries(args.level, not args.no_cache)
        _check_orbit(args, len(entries))
        _emit(entries[args.orbit], args.pretty)
        return 0
    return _run_levels(args, "classify")


def _periods_handler(args):
    record = _level_record(args.level, None, not args.no_cache)
    _check_orbit(args, len(record["orbits"]))
    orbit = orbit_from_record(record, args.orbit)
    if not orbit.possibly_old:
        # numeric_jacobian and detect_rank would refuse this --prec only
        # after the series is built; ensure_series refuses old orbits first
        rank_precision(positive_precision(args.prec))
    space = ModularSymbolSpace(args.level)
    basis = space.homology_generators()
    top = max(required_terms(g[2], args.prec) for g, _ in basis)
    ensure_series(space, orbit, top)
    vector = numeric_jacobian(orbit, basis, args.prec,
                              orbit_index=args.orbit)
    detected = detect_rank(vector, args.prec)
    exact = module_rank(JacobianModule(orbit.field, list(orbit.eigenvector)))
    _emit({
        "level": args.level,
        "orbit": args.orbit,
        "precision": args.prec,
        "values": [_decimal(v, d)
                   for v, d in zip(vector.values, vector.value_digits)],
        "value_digits": list(vector.value_digits),
        "precision_estimate": vector.precision_estimate,
        "detected_rank": detected,
        "exact_rank": exact,
        "rank_agreement": detected == exact,
    }, args.pretty)
    return 0


def _iet_handler(args):
    try:
        polys = [parse_poly(tok, var="w") for tok in args.lengths.split(",")]
    except ModfolError as err:
        raise _UsageError("bad --lengths: %s" % err)
    perm = _parse_int_list(args.perm, "--perm")
    if args.poly is None:
        if any(p.degree > 0 for p in polys):
            raise _UsageError("lengths use the generator w; pass its "
                              "defining polynomial with --poly")
        lengths = [p.evaluate(0) for p in polys]
        cells = sum(_integers(lengths)[1])
        if cells > _MAX_CELLS:
            raise _UsageError("rational lengths span at most %d unit cells "
                              "(the lcm of the denominators times the total "
                              "length), got %d" % (_MAX_CELLS, cells))
        report = periodicity_report(IET(lengths, perm))
    else:
        # refused on the comma count, before a coefficient is read
        if args.poly.count(",") > _MAX_POLY_DEGREE:
            raise _UsageError("--poly has degree at most %d, got %d "
                              "coefficients" % (_MAX_POLY_DEGREE,
                                                args.poly.count(",") + 1))
        coeffs = [_parse_fraction(c, "--poly coefficient")
                  for c in args.poly.split(",")]
        try:
            field = NumberField(QPolynomial(coeffs))
        except ModfolError as err:
            raise _UsageError("bad --poly: %s" % err)
        table = IET([field.from_poly(p) for p in polys], perm)
        report = minimality_probe(table, args.steps)
    _emit(report, args.pretty)
    return 0


def _torus_handler(args):
    entries = _parse_int_list(args.matrix, "--matrix")
    if len(entries) != 4:
        raise _UsageError("--matrix needs exactly four entries a,b,c,d")
    result = classify_torus(entries)
    obj = {"kind": result.kind.value, "trace": result.trace}
    if result.kind is TorusKind.ANOSOV:
        approx = result.embedding.approx(
            result.dilatation, Fraction(1, 10 ** (_DILATATION_DIGITS + 5)))
        obj["dilatation"] = _decimal(approx, _DILATATION_DIGITS)
        obj["dilatation_minpoly"] = [
            rat_to_json(c) for c in result.dilatation.field.minpoly.coeffs]
    _emit(obj, args.pretty)
    return 0


# -- batch plumbing ---------------------------------------------------------------------


def _batch_eval(task):
    """One level of a batch; returns (json-ready object, failed)."""
    kind, N, use_cache = task
    try:
        return _single_level(kind, N, use_cache), False
    except ModfolError as err:
        _, hint = _error_code_hint(err)
        return {"level": N, "error": str(err), "hint": hint}, True


def _single_level(kind, N, use_cache):
    if kind == "genus":
        return curve_data(N)
    if kind == "decompose":
        return _decompose_obj(N, None, use_cache)
    return _classify_entries(N, use_cache)


def _run_levels(args, kind):
    """Dispatch one level or a --range batch for genus/decompose/classify."""
    use_cache = not getattr(args, "no_cache", True)
    if args.range is None:
        _emit(_single_level(kind, args.level, use_cache), args.pretty)
        return 0
    # both routes keep task order, and args.range ascends
    tasks = [(kind, N, use_cache) for N in args.range]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_batch_eval, tasks))
    else:
        results = [_batch_eval(task) for task in tasks]
    any_failed = False
    for obj, failed in results:
        any_failed = any_failed or failed
        _emit(obj, args.pretty)
    return 3 if any_failed else 0


# -- parser -----------------------------------------------------------------------------


def _job_count(text):
    """--jobs: a positive worker count, capped at the number of CPUs."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer, got %r" % text)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % jobs)
    return min(jobs, os.cpu_count() or 1)


def _at_most(bound, unit=""):
    """argparse type: an integer of at most ``bound``; one below 1 is left to
    the caller.  A longer digit string is refused before int() reads it."""
    def integer(text):
        digits = text.strip().lstrip("+0")
        if (digits.isdecimal() and len(digits) > len(str(bound))
                or int(text) > bound):
            got = text if len(text) <= 20 else "%d characters" % len(text)
            raise argparse.ArgumentTypeError(
                "at most %d%s, got %s" % (bound, unit, got))
        return int(text)
    return integer


def _level_range(bound):
    """argparse type for --range A..B: range(A, B + 1) with
    1 <= A <= B <= ``bound`` and at most _MAX_RANGE levels."""
    level = _at_most(bound)

    def level_range(text):
        lo, dots, hi = text.partition("..")
        lo, hi = level(lo), level(hi)
        if not dots or not 1 <= lo <= hi < lo + _MAX_RANGE:
            raise argparse.ArgumentTypeError(
                "needs A..B with 1 <= A <= B, at most %d levels"
                % _MAX_RANGE)
        return range(lo, hi + 1)
    return level_range


@functools.cache
def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--pretty", action="store_true",
                        help="indented JSON instead of one compact line")
    batch = argparse.ArgumentParser(add_help=False)
    batch.add_argument("--jobs", type=_job_count, default=1, metavar="J",
                       help="worker processes for --range (default 1, at "
                            "most the number of CPUs)")
    cached = argparse.ArgumentParser(add_help=False)
    cached.add_argument("--no-cache", action="store_true",
                        help="skip the on-disk level cache")

    parser = _Parser(prog="modfol",
                     description="Eigenform orbits of modular curves, their "
                                 "foliation classes, period lattices, and "
                                 "interval exchange probes.")
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    genus = subs.add_parser("genus", parents=[shared, batch],
                            help="curve invariants of a level")
    genus.set_defaults(handler=_genus_handler)

    decompose = subs.add_parser("decompose", parents=[shared, batch, cached],
                                help="orbit decomposition of a level")
    decompose.add_argument("--primes", metavar="P1,P2,...",
                           help="use exactly these primes (bypasses the "
                                "cache); at most %d primes, each at most "
                                "%d: T_997 at level 1999 takes about 11 s "
                                "on a 2-vCPU VM" % (PRIME_LIMIT, _MAX_PRIME))
    decompose.set_defaults(handler=_decompose_handler)

    classify = subs.add_parser("classify", parents=[shared, batch, cached],
                               help="foliation class of each orbit")
    classify.add_argument("--orbit", type=int, metavar="K",
                          help="report a single orbit")
    classify.set_defaults(handler=_classify_handler)
    for sub, bound in ((genus, _MAX_GENUS_LEVEL), (decompose, _MAX_LEVEL),
                       (classify, _MAX_LEVEL)):
        level = sub.add_mutually_exclusive_group(required=True)
        level.add_argument("level", type=_at_most(bound), nargs="?",
                           help="the level N, at most %d" % bound)
        level.add_argument("--range", type=_level_range(bound),
                           metavar="A..B",
                           help="process every level in the range, one JSON "
                                "line per level; at most %d levels, B at "
                                "most %d" % (_MAX_RANGE, bound))

    periods = subs.add_parser("periods", parents=[shared, cached],
                              help="period vector and rank of one orbit")
    periods.add_argument("level", type=_at_most(_MAX_LEVEL),
                         help="the level N, at most %d" % _MAX_LEVEL)
    periods.add_argument("--orbit", type=int, required=True, metavar="K")
    periods.add_argument("--prec", type=_at_most(_MAX_PREC, " digits"),
                         default=60, metavar="D",
                         help="working precision in digits (default 60, at "
                              "most %d). Each path's series has about "
                              "0.37*|c|*D terms, where |c| is a multiple of "
                              "the level, so its length grows as |c|*D: at "
                              "D = %d, periods 11 --orbit 0 takes about 0.6 s "
                              "on a 2-vCPU VM and periods 97 --orbit 1 about "
                              "1.7 minutes" % (_MAX_PREC, _MAX_PREC))
    periods.set_defaults(handler=_periods_handler)

    iet = subs.add_parser("iet", parents=[shared],
                          help="periodicity or minimality report of an "
                               "interval exchange")
    iet.add_argument("--lengths", required=True, metavar="L1,L2,...",
                     help="exact rationals like 1/2, or field elements "
                          "like 1+2*w or w^3, powers up to w^%d (then pass "
                          "--poly). Rational lengths span at most %d unit "
                          "cells (the lcm of the denominators times the "
                          "total length); the report on %d cells takes "
                          "about 0.25 s and 70 MB on a 2-vCPU VM"
                          % (MAX_POWER, _MAX_CELLS, _MAX_CELLS))
    iet.add_argument("--perm", required=True, metavar="S1,S2,...",
                     help="one-line permutation, 1-based")
    iet.add_argument("--poly", metavar="C0,C1,...",
                     help="defining polynomial of w, ascending "
                          "coefficients, degree at most %d. Irreducibility "
                          "is read modulo the first good prime and root "
                          "isolation runs an integer Sturm chain: the field "
                          "and a 10000-step probe of a dense polynomial of "
                          "degree %d with coefficients in -3..3 take about "
                          "0.05 s on a 2-vCPU VM, and about 0.08 s at "
                          "degree 50" % (_MAX_POLY_DEGREE, _MAX_POLY_DEGREE))
    iet.add_argument("--steps", type=_at_most(_MAX_STEPS, " steps"),
                     default=10000,
                     metavar="S",
                     help="orbit steps for the minimality probe (default "
                          "10000, at most %d). A k-interval exchange follows "
                          "k-1 orbits and compares each step with up to k-1 "
                          "cuts, about 0.3 us per comparison on a 2-vCPU "
                          "VM: %d steps take about 0.4 s on 2 intervals and "
                          "1 s on 4" % (_MAX_STEPS, _MAX_STEPS))
    iet.set_defaults(handler=_iet_handler)

    torus = subs.add_parser("torus", parents=[shared],
                            help="trace trichotomy of an SL(2,Z) matrix")
    torus.add_argument("--matrix", required=True, metavar="A,B,C,D")
    torus.set_defaults(handler=_torus_handler)
    return parser


def main(argv=None):
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early (piped into head, say): point it at
        # devnull, so that the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _main(argv):
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as err:
        _emit({"error": str(err), "hint": _USAGE_HINT}, False)
        return 2
    if getattr(args, "handler", None) is None:
        _emit({"error": "no subcommand given", "hint": _USAGE_HINT}, False)
        return 2
    try:
        return args.handler(args)
    except _UsageError as err:
        _emit({"error": str(err), "hint": _USAGE_HINT}, args.pretty)
        return 2
    except ModfolError as err:
        return _emit_error(err, args.pretty)


if __name__ == "__main__":
    sys.exit(main())
