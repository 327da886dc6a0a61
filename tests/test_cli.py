"""End-to-end CLI tests: golden outputs, exit codes, cache determinism."""

import io
import contextlib
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import modfol
from modfol import cache
from modfol.cli import (_build_parser, _decimal, _error_code_hint,
                        _iet_handler, main)
from modfol.errors import (DomainError, IndeterminateRankError,
                           InternalInvariantError, NoCuspFormsError,
                           PrecisionError, TruncationError,
                           UndecidedSplitError, WrongCaseError)
from modfol.numfield import NumberField
from modfol.polys import QPolynomial, parse_poly


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MODFOL_CACHE", str(tmp_path / "cache"))


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_json(*argv):
    code, out = run(*argv)
    return code, json.loads(out)


# -- golden outputs ---------------------------------------------------------------------


def test_genus_golden():
    code, obj = run_json("genus", "11")
    assert code == 0
    assert obj == {"N": 11, "mu": 12, "nu2": 0, "nu3": 0, "nu_inf": 2,
                   "genus": 1}


def test_genus_of_huge_level_is_fast(tmp_path):
    # 99999999999 = 3^2 * 21649 * 513239: every invariant comes from the
    # factorization, where a loop over the level would take 10^11 steps
    proc = subprocess.run(
        [sys.executable, "-m", "modfol.cli", "genus", "99999999999"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
        timeout=30)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "N": 99999999999, "mu": 133339752000, "nu2": 0, "nu3": 0,
        "nu_inf": 16, "genus": 11111645993}


def test_genus_is_one_compact_line():
    code, out = run("genus", "37")
    assert code == 0
    assert out.count("\n") == 1 and " " not in out


def test_torus_parabolic_golden_bytes():
    code, out = run("torus", "--matrix", "1,1,0,1")
    assert code == 0
    assert out == '{"kind":"parabolic_strebel","trace":2}\n'


def test_torus_anosov():
    code, obj = run_json("torus", "--matrix", "2,1,1,1")
    assert code == 0
    assert obj["kind"] == "anosov" and obj["trace"] == 3
    assert obj["dilatation_minpoly"] == [1, -3, 1]
    assert obj["dilatation"].startswith("2.61803398874989484820458683436")


def test_torus_negative_trace_dilatation():
    code, obj = run_json("torus", "--matrix=-2,1,1,-1")
    assert code == 0
    assert obj["kind"] == "anosov" and obj["trace"] == -3
    assert obj["dilatation"].startswith("-0.3819660112501051517954131656")


def test_torus_finite_order():
    code, obj = run_json("torus", "--matrix", "0,-1,1,0")
    assert (code, obj) == (0, {"kind": "finite_order", "trace": 0})


def test_classify_23_matches_specified_shape():
    code, obj = run_json("classify", "23")
    assert code == 0
    assert obj == [{"level": 23, "orbit": 0, "degree": 2, "genus": 2,
                    "class": "pseudo_anosov"}]
    code, single = run_json("classify", "23", "--orbit", "0")
    assert code == 0 and single == obj[0]


def test_classify_11_and_37_strebel():
    assert run_json("classify", "11")[1][0]["class"] == "strebel"
    entries = run_json("classify", "37")[1]
    assert [e["class"] for e in entries] == ["strebel", "strebel"]
    assert [e["orbit"] for e in entries] == [0, 1]


def test_decompose_23():
    code, obj = run_json("decompose", "23")
    assert code == 0
    assert obj["genus"] == 2 and obj["primes"] == [2]
    assert obj["orbits"] == [{"orbit": 0, "degree": 2, "minpoly": [-1, 1, 1],
                              "defining_prime": 2, "multiplicity": 1,
                              "possibly_old": False}]


def test_decompose_explicit_primes_agree_with_auto():
    assert run("decompose", "23", "--primes", "2")[1] \
        == run("decompose", "23")[1]


# sha256 of ``decompose N --no-cache`` stdout at the prime levels whose
# orbits reach degree 10-20, taken from the elimination eigenvector route
DECOMPOSE_DIGESTS = {
    131: "4b180d24c934a78b7863d6a3377fdb77a0507c619ee4cf814af2dc0bde1bc9ea",
    167: "f4be5e538f200efb2a07c0228e649a64fb3a8461ec65f9eeab1427f9f5cec3ab",
    179: "294a0874c80df28ab6b40d7a6c622ac634f41e68dfd8d736fc78d8f476f2c44c",
    191: "105f028bae817d539180ce067abcd60e82ea7f2ec120a17150e8bf8b3b3637de",
    389: "07e6f3c4923704b6f255d37cb22d0f36abbeecd31c8b360bfeb08079d134e8e9",
}


@pytest.mark.parametrize("N", sorted(DECOMPOSE_DIGESTS))
def test_decompose_big_level_bytes_pinned(N):
    code, out = run("decompose", str(N), "--no-cache")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DECOMPOSE_DIGESTS[N]


def test_decompose_genus_zero():
    code, obj = run_json("decompose", "13")
    assert code == 0
    assert obj == {"level": 13, "genus": 0, "primes": [], "orbits": []}


# -- cache determinism -------------------------------------------------------------------


def test_cold_warm_nocache_bytes_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("MODFOL_CACHE", str(tmp_path / "fresh"))
    cold = run("decompose", "23")
    assert (tmp_path / "fresh" / "level-23.bin").exists()
    warm = run("decompose", "23")
    bare = run("decompose", "23", "--no-cache")
    assert cold == warm == bare


def test_classify_warm_path_bytes_identical():
    cold = run("classify", "37")
    warm = run("classify", "37")
    assert cold == warm


def test_corrupt_cache_recomputes(tmp_path, monkeypatch):
    monkeypatch.setenv("MODFOL_CACHE", str(tmp_path / "c2"))
    cold = run("decompose", "11")
    path = cache.record_path(11)
    blob = bytearray(open(path, "rb").read())
    blob[16] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    assert cache.load(11) is None
    assert run("decompose", "11") == cold


def test_pretty_same_object():
    code, out = run("classify", "23", "--pretty")
    assert code == 0 and "\n  " in out
    assert json.loads(out) == run_json("classify", "23")[1]


# -- periods ----------------------------------------------------------------------------


def test_periods_level_11():
    code, obj = run_json("periods", "11", "--orbit", "0", "--prec", "45")
    assert code == 0
    assert obj["detected_rank"] == 1 and obj["exact_rank"] == 1
    assert obj["rank_agreement"] is True
    assert obj["value_digits"] == [45, 45]
    assert obj["precision_estimate"] == 45
    v0, v1 = obj["values"]
    assert v0.startswith("-1.26920930427955342168879461675454730521949224")
    assert len(v0.split(".")[1]) == 45
    assert abs(float(v0) - 2 * float(v1)) < 1e-12


def test_periods_orbit_out_of_range():
    code, obj = run_json("periods", "11", "--orbit", "3", "--prec", "45")
    assert code == 2 and "out of range" in obj["error"]


def test_periods_precision_floor():
    code, obj = run_json("periods", "11", "--orbit", "0", "--prec", "20")
    assert code == 3 and "error" in obj


@pytest.mark.parametrize("prec,message", [
    ("0", "precision must be a positive digit count"),
    ("-5", "precision must be a positive digit count"),
    ("39", "rank detection needs at least 40 digits, got 39"),
])
def test_periods_precision_rejected_before_series(monkeypatch, prec, message):
    def no_series(*args):
        raise AssertionError("series built for a rejected --prec")
    monkeypatch.setattr("modfol.cli.ensure_series", no_series)
    code, out = run("periods", "11", "--orbit", "0", "--prec=" + prec)
    assert (code, out) == (3, json.dumps(
        {"error": message, "hint": "check the argument values"},
        separators=(",", ":")) + "\n")


@pytest.mark.parametrize("prec", ["1001", "9" * 5000])
def test_periods_precision_above_bound_is_usage_error(monkeypatch, prec):
    def no_record(*args):
        raise AssertionError("level record read for a refused --prec")
    monkeypatch.setattr("modfol.cli._level_record", no_record)
    code, obj = run_json("periods", "11", "--orbit", "0", "--prec", prec)
    assert code == 2 and "at most 1000 digits" in obj["error"]


def test_periods_precision_at_bound_is_accepted():
    args = _build_parser().parse_args(
        ["periods", "11", "--orbit", "0", "--prec", "1000"])
    assert args.prec == 1000


@pytest.mark.slow
def test_periods_runs_at_precision_bound():
    code, obj = run_json("periods", "11", "--orbit", "0", "--prec", "1000")
    assert code == 0 and obj["value_digits"] == [1000, 1000]
    assert obj["values"][0].startswith(
        "-1.26920930427955342168879461675454730521949224")


def test_decimal_zero_is_unsigned():
    # a value that rounds to zero has no sign to show: its sign is noise
    # below the last printed digit
    assert _decimal(Fraction(-1, 10 ** 70), 60) == "0." + "0" * 60
    assert _decimal(Fraction(1, 10 ** 70), 60) == "0." + "0" * 60
    assert _decimal(Fraction(-2, 5), 0) == "0"
    assert _decimal(Fraction(-1, 2), 0) == "-1"
    assert _decimal(Fraction(-1, 10 ** 60), 60) == "-0." + "0" * 59 + "1"
    assert _decimal(Fraction(-7, 4), 1) == "-1.8"


def test_periods_old_orbit_reported_before_precision():
    code, obj = run_json("periods", "22", "--orbit", "0", "--prec", "20")
    assert code == 3 and "possibly_old" in obj["error"]


# -- iet --------------------------------------------------------------------------------


def test_iet_rational_periodicity():
    code, obj = run_json("iet", "--lengths", "1/2,1/3,1/6", "--perm",
                         "3,2,1")
    assert (code, obj) == (0, {"periodic": True, "period_lcm": 6})


def test_iet_golden_ratio_minimal():
    code, obj = run_json("iet", "--lengths", "1,w", "--perm", "2,1",
                         "--poly=-1,-1,1", "--steps", "2000")
    assert code == 0
    assert obj == {"no_periodic_orbit_found": True, "keane_violations": []}


def test_iet_connection_detected():
    code, obj = run_json("iet", "--lengths", "w,1,w", "--perm", "3,2,1",
                         "--poly=-1,-1,1", "--steps", "50")
    assert code == 0
    assert obj["no_periodic_orbit_found"] is False
    assert obj["keane_violations"] == [
        {"discontinuity": 1, "after_steps": 1, "hits": 1},
        {"discontinuity": 2, "after_steps": 2, "hits": 2},
    ]


def test_iet_field_symbol_requires_poly():
    code, obj = run_json("iet", "--lengths", "1/2,w", "--perm", "2,1")
    assert code == 2 and "--poly" in obj["error"]


def test_iet_rational_lengths_in_field_mode_rejected():
    code, obj = run_json("iet", "--lengths", "1/2,1/2", "--perm", "2,1",
                         "--poly=-1,-1,1")
    assert code == 3 and "error" in obj


def test_iet_field_without_real_place_rejected():
    code, obj = run_json("iet", "--lengths", "1,w", "--perm", "2,1",
                         "--poly=1,0,1")
    assert code == 3 and "real place" in obj["error"]


def test_iet_length_power_above_bound_is_usage_error():
    for token in ("w^1001", "2*w^99999999999999999999"):
        code, obj = run_json("iet", "--lengths", "1," + token, "--perm",
                             "2,1", "--poly=-1,-1,1", "--steps", "5")
        assert code == 2 and "w^1000" in obj["error"]


def test_iet_length_power_at_bound():
    poly = parse_poly("w^1000", var="w")
    assert poly == QPolynomial.x() ** 1000
    field = NumberField(QPolynomial([-1, -1, 1]))
    assert field.from_poly(poly) == field.gen() ** 1000
    code, obj = run_json("iet", "--lengths", "1,w^1000", "--perm", "2,1",
                         "--poly=-1,-1,1", "--steps", "5")
    assert code == 0 and obj["keane_violations"] == []


@pytest.mark.parametrize("degree", [41, 10 ** 5])
def test_iet_poly_degree_above_bound_is_usage_error(monkeypatch, degree):
    # refused on the comma count: no coefficient is parsed
    def no_parse(*args):
        raise AssertionError("coefficient parsed for a refused --poly")
    monkeypatch.setattr("modfol.cli._parse_fraction", no_parse)
    poly = ",".join(["-2"] + ["0"] * (degree - 1) + ["1"])
    code, obj = run_json("iet", "--lengths", "1,w", "--perm", "2,1",
                         "--poly=" + poly, "--steps", "5")
    assert code == 2 and "degree at most 40" in obj["error"]


def test_iet_poly_degree_at_bound():
    poly = ",".join(["-2"] + ["0"] * 39 + ["1"])       # w^40 - 2
    code, obj = run_json("iet", "--lengths", "1,w", "--perm", "2,1",
                         "--poly=" + poly, "--steps", "5")
    assert code == 0 and obj["keane_violations"] == []


def test_iet_steps_above_bound_is_usage_error():
    # --poly=-1,0,1 is reducible: the step bound is checked before the
    # field is built, so the error names the steps
    for poly in ("-1,-1,1", "-1,0,1"):
        for steps in (10 ** 6 + 1, 99999999999999):
            code, obj = run_json("iet", "--lengths", "1,w", "--perm", "2,1",
                                 "--poly=" + poly, "--steps", str(steps))
            assert code == 2 and "at most 1000000 steps" in obj["error"]


def test_iet_steps_at_bound_is_accepted():
    args = _build_parser().parse_args(
        ["iet", "--lengths", "1,w", "--perm", "2,1", "--poly=-1,-1,1",
         "--steps", str(10 ** 6)])
    assert args.steps == 10 ** 6 and args.handler is _iet_handler
    # rational lengths take the periodicity report, which runs no probe
    code, obj = run_json("iet", "--lengths", "1/2,1/3,1/6", "--perm",
                         "3,2,1", "--steps", str(10 ** 6))
    assert (code, obj) == (0, {"periodic": True, "period_lcm": 6})


def test_iet_zero_steps_is_domain_error():
    code, obj = run_json("iet", "--lengths", "1,w", "--perm", "2,1",
                         "--poly=-1,-1,1", "--steps", "0")
    assert code == 3 and "max_steps" in obj["error"]


def test_iet_bad_length_token():
    code, obj = run_json("iet", "--lengths", "1/2,zebra", "--perm", "2,1")
    assert code == 2


def test_iet_lengths_use_the_polynomial_grammar():
    # 2w and w**2 are parse_poly's; a zero denominator is a usage error
    code, obj = run_json("iet", "--lengths", "2w,w**2", "--perm", "2,1",
                         "--poly=-1,-1,1", "--steps", "5")
    assert code == 0 and obj["keane_violations"] == []
    for lengths in ("1/0,1", "1,w/0", "1,", "1,2*w^-1"):
        code, obj = run_json("iet", "--lengths", lengths, "--perm", "2,1",
                             "--poly=-1,-1,1")
        assert code == 2, lengths


# -- batches ----------------------------------------------------------------------------


def test_range_matches_singles():
    code, out = run("genus", "--range", "11..14")
    assert code == 0
    singles = "".join(run("genus", str(n))[1] for n in range(11, 15))
    assert out == singles


def test_range_parallel_matches_serial():
    serial = run("decompose", "--range", "11..14")
    parallel = run("decompose", "--range", "11..14", "--jobs", "3")
    assert serial == parallel == (0, serial[1])


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size and maps in
    this process, so no worker is ever started."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus, jobs, pools", [
    (2, "64", [2]), (4, "3", [3]), (1, "8", []), (None, "8", []),
])
def test_jobs_capped_at_cpu_count(monkeypatch, cpus, jobs, pools):
    import concurrent.futures
    import modfol.cli as cli
    # _run_levels imports the pool class from concurrent.futures when
    # --jobs asks for more than one worker
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    serial = run("decompose", "--range", "11..12")
    assert run("decompose", "--range", "11..12", "--jobs", jobs) == serial
    assert _RecordingPool.sizes == pools


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_usage_error(jobs):
    code, obj = run_json("decompose", "--range", "11..12", "--jobs", jobs)
    assert code == 2 and set(obj) == {"error", "hint"}
    assert "--jobs" in obj["error"]


def test_range_reports_per_level_errors():
    code, out = run("classify", "--range", "12..13")
    assert code == 3
    lines = [json.loads(line) for line in out.splitlines()]
    assert [line["level"] for line in lines] == [12, 13]
    assert all("error" in line for line in lines)


def test_range_usage_errors():
    assert run("genus", "11", "--range", "12..13")[0] == 2
    assert run("genus", "--range", "13..11")[0] == 2
    assert run("genus", "--range", "11-13")[0] == 2
    assert run("genus")[0] == 2


# -- level and range bounds --------------------------------------------------------------


BIG = "9" * 5000    # int() alone would refuse this with a ValueError


@pytest.mark.parametrize("argv,value", [
    (["decompose", "2000"], 2000),
    (["classify", "2000"], 2000),
    (["periods", "2000", "--orbit", "0"], 2000),
    (["genus", str(10 ** 14)], 10 ** 14),
])
def test_level_at_bound_is_accepted(argv, value):
    assert _build_parser().parse_args(argv).level == value


@pytest.mark.parametrize("argv", [
    ["decompose", "2001"],
    ["decompose", "2001", "--primes", "2"],
    ["classify", "2001"],
    ["classify", "2001", "--orbit", "0"],
    ["periods", "2001", "--orbit", "0"],
    ["genus", str(10 ** 14 + 1)],
    ["decompose", BIG],
    ["genus", BIG],
])
def test_level_above_bound_is_usage_error(argv):
    code, obj = run_json(*argv)
    assert code == 2 and set(obj) == {"error", "hint"}
    assert "at most" in obj["error"]


def test_genus_at_bound_runs():
    code, obj = run_json("genus", str(10 ** 14))
    assert code == 0 and obj["N"] == 10 ** 14


@pytest.mark.parametrize("argv", [["genus", "0"], ["genus", "-5"],
                                  ["decompose", "0"], ["decompose", "-5"]])
def test_level_below_one_is_computation_error(argv):
    assert run(*argv)[0] == 3


@pytest.mark.parametrize("argv,levels", [
    (["genus", "--range", "1..10000"], range(1, 10001)),
    (["genus", "--range", "%d..%d" % (10 ** 14 - 9999, 10 ** 14)],
     range(10 ** 14 - 9999, 10 ** 14 + 1)),
    (["decompose", "--range", "1991..2000"], range(1991, 2001)),
    (["classify", "--range", "1..2000"], range(1, 2001)),
])
def test_range_at_bounds_is_accepted(argv, levels):
    assert _build_parser().parse_args(argv).range == levels


@pytest.mark.parametrize("argv,message", [
    (["genus", "--range", "1..10001"], "at most 10000 levels"),
    (["genus", "--range", "5..10005"], "at most 10000 levels"),
    (["genus", "--range", "%d..%d" % (10 ** 14 - 9998, 10 ** 14 + 1)],
     "at most 100000000000000"),
    (["decompose", "--range", "1992..2001"], "at most 2000"),
    (["classify", "--range", "1992..2001"], "at most 2000"),
    (["genus", "--range", "1.." + BIG], "at most 100000000000000"),
    (["genus", "--range", BIG + ".." + BIG], "at most 100000000000000"),
])
def test_range_above_bounds_is_usage_error(argv, message):
    code, obj = run_json(*argv)
    assert code == 2 and set(obj) == {"error", "hint"}
    assert message in obj["error"]


def test_oversized_range_fails_as_json_in_a_child(tmp_path):
    # before the bounds, int() raised a ValueError here and the CLI printed
    # a traceback with exit code 1
    proc = subprocess.run(
        [sys.executable, "-m", "modfol.cli", "genus", "--range", "1.." + BIG],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
        timeout=30)
    assert proc.returncode == 2 and proc.stderr == ""
    assert "at most" in json.loads(proc.stdout)["error"]


def test_closed_stdout_exits_quietly(tmp_path):
    # the reader stops after one line, as `modfol genus --range ... | head -1`
    # does; the rest of the batch meets a closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "modfol.cli", "genus", "--range", "1..10000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=tmp_path,
        env=_child_env())
    try:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert json.loads(first)["N"] == 1
    assert stderr == b""


# -- parser reuse -------------------------------------------------------------------------


def run_exiting(*argv):
    """Like run(), but a SystemExit (from --help) gives the exit code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
    return code, buf.getvalue()


REUSE_SEQUENCE = [
    ("decompose", "11", "--pretty"),
    ("decompose", "11"),
    ("decompose", "--range", "11..12", "--jobs", "x"),
    ("--help",),
    ("decompose", "--help"),
    ("classify", "11"),
    ("iet", "--lengths", "1/2,1/3,1/6", "--perm", "3,2,1"),
]


def test_reused_parser_keeps_no_state(monkeypatch):
    import modfol.cli as cli
    monkeypatch.setenv("COLUMNS", "80")
    parser = _build_parser()
    assert _build_parser() is parser
    reused = [run_exiting(*argv) for argv in REUSE_SEQUENCE]
    assert _build_parser() is parser
    # every call of the second pass builds a parser of its own
    monkeypatch.setattr(cli, "_build_parser", _build_parser.__wrapped__)
    fresh = [run_exiting(*argv) for argv in REUSE_SEQUENCE]
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0, 2, 0, 0, 0, 0]
    assert "usage: modfol decompose" in reused[4][1]


# -- exit codes and error JSON ------------------------------------------------------------


def test_no_subcommand_is_usage_error():
    code, obj = run_json()
    assert code == 2 and "hint" in obj


def test_usage_error_emits_json():
    code, obj = run_json("torus", "--matrix", "1,1,0")
    assert code == 2 and set(obj) == {"error", "hint"}


def test_computation_error_emits_json():
    code, obj = run_json("torus", "--matrix", "1,2,3,4")
    assert code == 3 and set(obj) == {"error", "hint"}


def test_nonprime_rejected_with_code_3():
    code, obj = run_json("decompose", "37", "--primes", "4")
    assert code == 3 and "prime" in obj["error"]


def test_error_code_mapping():
    assert _error_code_hint(IndeterminateRankError("x"))[0] == 4
    assert _error_code_hint(PrecisionError("x", required_terms=99)) \
        == (4, "the requested precision needs 99 series terms")
    code, hint = _error_code_hint(UndecidedSplitError("x", next_prime=7))
    assert code == 3 and "7" in hint
    assert _error_code_hint(TruncationError("x", required_order=12))[0] == 3
    assert _error_code_hint(NoCuspFormsError("x"))[0] == 3
    assert _error_code_hint(WrongCaseError("x"))[0] == 3
    assert _error_code_hint(DomainError("x"))[0] == 3


def test_internal_invariant_error_exits_3(monkeypatch):
    from modfol.modsym import ModularSymbolSpace

    def broken(self):
        raise InternalInvariantError("boundary check failed")

    monkeypatch.setattr(ModularSymbolSpace, "_build_boundary", broken)
    code, obj = run_json("decompose", "11", "--no-cache")
    assert code == 3
    assert obj["error"] == "boundary check failed"


def _child_env():
    # A child run from another directory would not resolve a relative
    # PYTHONPATH (``src`` in a source checkout): put the directory of the
    # modfol under test first and make the inherited entries absolute.
    package_root = str(Path(modfol.__file__).resolve().parents[1])
    inherited = [os.path.abspath(entry) for entry in
                 os.environ.get("PYTHONPATH", "").split(os.pathsep) if entry]
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join([package_root] + inherited))


def test_cli_import_loads_no_process_pool(tmp_path):
    # the pool is imported only when --jobs asks for more than one worker
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, modfol.cli; print(sorted(m for m "
         "in ('concurrent.futures.process', 'multiprocessing') "
         "if m in sys.modules))"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(),
        timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "modfol.cli", "torus", "--matrix", "1,1,0,1"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout == '{"kind":"parabolic_strebel","trace":2}\n'


PERIODS_11 = (
    b'{"detected_rank":1,"exact_rank":1,"level":11,"orbit":0,"precision":60,'
    b'"precision_estimate":60,"rank_agreement":true,"value_digits":[60,60],'
    b'"values":["-1.269209304279553421688794616754547305219492241830608667967137",'
    b'"-0.634604652139776710844397308377273652609746120915304333983568"]}\n')


DECOMPOSE_37 = (
    b'{"genus":2,"level":37,"orbits":[{"defining_prime":2,"degree":1,'
    b'"minpoly":[2,1],"multiplicity":1,"orbit":0,"possibly_old":false},'
    b'{"defining_prime":2,"degree":1,"minpoly":[0,1],"multiplicity":1,'
    b'"orbit":1,"possibly_old":false}],"primes":[2]}\n')


def _run_child(tmp_path, flags, argv):
    return subprocess.run(
        [sys.executable] + flags + ["-m", "modfol.cli"] + argv,
        capture_output=True, cwd=tmp_path, env=_child_env())


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_periods_bytes_with_and_without_asserts(tmp_path, flags):
    # -O strips assert statements; the invariant checks on this route are
    # raises, so they still run, and the bytes must match the plain run's.
    proc = _run_child(tmp_path, flags, ["periods", "11", "--orbit", "0",
                                        "--prec", "60", "--no-cache"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == PERIODS_11


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_decompose_bytes_with_and_without_asserts(tmp_path, flags):
    # the orbit split's invariant checks are raises too
    proc = _run_child(tmp_path, flags, ["decompose", "37", "--no-cache"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DECOMPOSE_37


@pytest.mark.parametrize("flags", [["-O"], []], ids=["optimized", "plain"])
def test_decompose_131_bytes_with_and_without_asserts(tmp_path, flags):
    # degree-10 orbit: the eigenvector route and the number-field
    # inverses run with their invariant checks
    proc = _run_child(tmp_path, flags, ["decompose", "131", "--no-cache"])
    assert proc.returncode == 0, proc.stderr
    assert (hashlib.sha256(proc.stdout).hexdigest()
            == DECOMPOSE_DIGESTS[131])
