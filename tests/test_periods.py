"""Period integrals, period vectors, and integer-relation rank detection."""

import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
import sympy
from mpmath import mp

from modfol.eigen import decompose
from modfol.errors import (
    DimensionError,
    DomainError,
    IndeterminateRankError,
    PrecisionError,
    TruncationError,
)
from modfol import eigen, periods, pipeline
from modfol.hecke import hecke_matrix
from modfol.linalg import QMatrix, lattice_key, lll_reduce
from modfol.modsym import ModularSymbolSpace
from modfol.numfield import leading_entry
from modfol.periods import (
    PeriodVector,
    detect_rank,
    ensure_series,
    numeric_jacobian,
    period_integral,
    positive_precision,
    rank_precision,
    required_terms,
)
from oracles import (approx_series, eta_product_qexp, fraction_lll, mat_mul,
                     mpmath_path_tables, power_loop_integral, term_loop_sum)

# Real period of the rank-0 elliptic curve of conductor 11, computed two
# independent ways (quadrature on the Weierstrass model, and this package's
# series route); the routes agree beyond the digits frozen here.
OMEGA_11 = "1.26920930427955342168879461675454730521949224183060866"

G1_11 = (6, 1, 11, 2)
G2_11 = (4, 1, 11, 3)

_LEVELS = {}


def level(N):
    """Shared (space, orbits) per level; series grow monotonically."""
    if N not in _LEVELS:
        space = ModularSymbolSpace(N)
        _LEVELS[N] = (space, decompose(space))
    return _LEVELS[N]


def _mpf(x):
    """A Fraction as an mpf, or a (re, im) pair of them as an mpc, at the
    current precision."""
    if isinstance(x, tuple):
        return mp.mpc(_mpf(x[0]), _mpf(x[1]))
    return mp.mpf(x.numerator) / x.denominator


def embed(orbit, x, digits=70):
    fr = orbit.field.real_embeddings()[0].approx(x, Fraction(1, 10 ** digits))
    with mp.workdps(digits + 10):
        return mp.mpf(fr.numerator) / mp.mpf(fr.denominator)


# -- lattice reduction ----------------------------------------------------------------


def test_lll_finds_dyadic_relations():
    rows = [[1, 0, 0, 10 ** 6], [0, 1, 0, 500000], [0, 0, 1, 250000]]
    reduced = lll_reduce(rows)
    patterns = {tuple(r[:3]) for r in reduced} | {tuple(-x for x in r[:3]) for r in reduced}
    assert (1, -2, 0) in patterns
    assert (0, 1, -2) in patterns


def test_lll_preserves_lattice():
    rng = random.Random(20260814)
    for _ in range(25):
        n = rng.randrange(2, 5)
        extra = rng.randrange(1, 3)
        rows = [[int(i == j) for j in range(n)]
                + [rng.randrange(-9, 10) for _ in range(extra)]
                for i in range(n)]
        reduced = lll_reduce(rows)
        frac = lambda rs: [[Fraction(x) for x in r] for r in rs]
        assert lattice_key(frac(reduced)) == lattice_key(frac(rows))


def test_lll_input_validation():
    with pytest.raises(DomainError):
        lll_reduce([[1, 2], [2, 4]])
    with pytest.raises(DimensionError):
        lll_reduce([[1, 0], [0, 1, 2]])
    assert lll_reduce([]) == []


def _relation_lattice(rng, n, planted):
    """Rows (e_i, v_i) with v_i of 20 to 60 digits; a planted relation
    makes one v_k a small combination of the earlier ones, up to rounding."""
    scale = 10 ** rng.randint(20, 60)
    vals = [rng.randrange(-scale, scale) for _ in range(n)]
    if planted:
        k = rng.randrange(1, n)
        vals[k] = sum(rng.randint(-9, 9) * v for v in vals[:k]) \
            + rng.randint(-2, 2)
    return [[int(i == j) for j in range(n)] + [v] for i, v in enumerate(vals)]


def test_lll_matches_fraction_oracle():
    # 200 lattices of dimensions 2-8, half with planted relations; the
    # small dimensions come more often because the oracle's cost grows
    # steeply with the dimension
    dims = (2,) * 6 + (3,) * 5 + (4,) * 3 + (5,) * 3 + (6, 7, 8)
    rng = random.Random(20261018)
    for t in range(200):
        rows = _relation_lattice(rng, dims[t % len(dims)], t % 2 == 0)
        assert lll_reduce(rows) == fraction_lll(rows), t


# -- term-count bookkeeping -------------------------------------------------------------


def test_required_terms_goldens():
    assert required_terms(11, 60) == 292
    assert required_terms(1, 40) == 65
    assert required_terms(-11, 60) == 292
    with pytest.raises(DomainError):
        required_terms(0, 50)


# -- exact series ------------------------------------------------------------------------


def test_series_matches_eta_product():
    space, (orbit,) = level(11)
    terms = 150
    series = ensure_series(space, orbit, terms)
    eta = eta_product_qexp(11, terms)
    K = orbit.field
    assert eta[11] == 1    # pins the bad-prime route through the functional
    for n in range(1, terms + 1):
        assert series[n] == K.from_rational(eta[n])
    for p in (2, 3, 5, 7, 13, 101, 149):
        assert series[p] == K.from_rational(eta[p])


def test_longer_series_reuses_the_dual_functional(monkeypatch):
    # the dual functional is built once per orbit, so extending the series
    # to new primes builds no operator matrix
    space = ModularSymbolSpace(11)
    (orbit,) = decompose(space)
    calls = []

    def counting(space, p):
        calls.append(p)
        return hecke_matrix(space, p)

    monkeypatch.setattr(eigen, "hecke_matrix", counting)
    ensure_series(space, orbit, 20)
    assert calls
    calls.clear()
    series = ensure_series(space, orbit, 60)
    assert calls == []
    eta = eta_product_qexp(11, 60)
    assert series[1:] == [orbit.field.from_rational(c) for c in eta[1:]]


def test_corrupted_functional_table_fails_verification(monkeypatch):
    # one table entry that the walk at a verified prime reads is changed:
    # the exact check at that prime must refuse the functional
    space, (orbit,) = level(23)
    p = min(orbit.coefficient_map)
    tabulate = periods._functional_table

    def corrupted(space, field, W):
        field, den, rows = tabulate(space, field, W)
        j = leading_entry(W, field)[0]
        c, d = space.p1.reps[space.free_symbols[j]]
        counts = space.p1.heilbronn_counts(c, d, p)
        first = next(i for i, m in enumerate(counts) if m)
        rows = [list(row) for row in rows]
        rows[0][first] += 1
        return field, den, rows

    periods._dual_functional(space, orbit)      # the clean table passes
    monkeypatch.setattr(periods, "_functional_table", corrupted)
    with pytest.raises(DomainError,
                       match="dual eigenvector failed verification"):
        periods._dual_functional(space, orbit)


@pytest.mark.parametrize("N,k,folded", [
    (11, 0, True), (23, 0, True), (37, 1, True), (97, 1, True),
    (37, 0, False),     # L(f, 1) = 0: the dual eigenspace vanishes at (0:1)
])
def test_functional_reads_the_folded_start(N, k, folded):
    # free symbol 0 is (0:1), whose Heilbronn walk is folded by the star
    # involution; the functional takes it whenever it can
    space, orbits = level(N)
    assert space.p1.reps[space.free_symbols[0]] == (0, 1)
    _, j = periods._dual_functional(space, orbits[k])
    assert (j == 0) == folded


def test_series_level_mismatch_and_possibly_old():
    space11, (orbit11,) = level(11)
    space23, _ = level(23)
    with pytest.raises(DomainError):
        ensure_series(space23, orbit11, 20)
    space22 = ModularSymbolSpace(22)
    orbits22 = decompose(space22)
    old = next(o for o in orbits22 if o.possibly_old)
    with pytest.raises(DomainError):
        ensure_series(space22, old, 20)


# -- single-path integrals ---------------------------------------------------------------


def test_integral_matches_curve_period():
    space, (orbit,) = level(11)
    terms = required_terms(11, 50)
    ensure_series(space, orbit, terms)
    value, bound = period_integral(orbit, G1_11, terms, 50)
    with mp.workdps(70):
        value, bound = _mpf(value), _mpf(bound)
        omega = mp.mpf(OMEGA_11)
        assert abs(-value.real - omega) < mp.mpf("1e-50")
        assert abs(value.imag) < mp.mpf("1e-50")
        assert 0 < bound < mp.mpf("1e-50")


def test_integral_sign_and_cocycle():
    space, (orbit,) = level(11)
    terms = required_terms(11, 45)
    ensure_series(space, orbit, terms)
    g2_inv = (3, -1, -11, 4)
    combo = mat_mul(G1_11, g2_inv)
    assert combo == (7, -2, 11, -3)
    # the combined loop's homology class is the difference of the pieces
    c1 = space.loop_class(G1_11)
    c2 = space.loop_class(G2_11)
    cc = space.loop_class(combo)
    assert all(x == y - z for x, y, z in zip(cc, c1, c2))
    v1, _ = period_integral(orbit, G1_11, terms, 45)
    v2, _ = period_integral(orbit, G2_11, terms, 45)
    v2i, _ = period_integral(orbit, g2_inv, terms, 45)
    vc, _ = period_integral(orbit, combo, terms, 45)
    with mp.workdps(60):
        v1, v2, v2i, vc = map(_mpf, (v1, v2, v2i, vc))
        tol = mp.mpf("1e-42")
        assert abs(v2i + v2) < tol          # inverse negates the period
        assert abs(vc - (v1 - v2)) < tol    # additivity on products


def test_integral_doubling_terms_agrees():
    space, (orbit,) = level(11)
    eta = eta_product_qexp(11, 420)
    t1 = next(n for n in range(400, 420) if eta[n] != 0)
    ensure_series(space, orbit, 2 * t1)
    v1, b1 = period_integral(orbit, G1_11, t1, 80)
    v2, _ = period_integral(orbit, G1_11, 2 * t1, 80)
    with mp.workdps(100):
        assert b1 > 0
        assert abs(_mpf(v1) - _mpf(v2)) < _mpf(b1)


def _assert_kernel_matches_loop(orbit, series, gammas, precision):
    """The fixed-point kernel against the complex-power loop at 40 more
    digits, summed on the oracle's embedded coefficients of `series`."""
    digits = precision + periods._GUARD
    top = max(required_terms(g[2], precision) for g in gammas)
    coeffs = approx_series(orbit, series, top, digits)
    tol = mp.mpf(10) ** -(precision + 20)
    for g in gammas:
        terms = required_terms(g[2], precision)
        value, _ = period_integral(orbit, g, terms, precision)
        reference = power_loop_integral(coeffs, g, terms, digits + 40)
        with mp.workdps(digits + 40):
            assert abs(_mpf(value) - reference) < tol, (g, precision)


@pytest.mark.parametrize("N,k", [(11, 0), (23, 0), (37, 1), (43, 1)])
def test_integral_kernel_matches_power_loop(N, k):
    space, orbits = level(N)
    gammas = [g for g, _ in space.homology_generators()]
    series = ensure_series(space, orbits[k],
                           max(required_terms(g[2], 80) for g in gammas))
    for precision in (45, 60, 80):
        _assert_kernel_matches_loop(orbits[k], series, gammas, precision)


def test_integral_kernel_negative_and_multiple_c():
    # level 30's basis has paths with c = 30, 2 * 30 and 3 * 30; each
    # inverse has c < 0, and its period is the negated one
    space, orbits = level(30)
    orbit = next(o for o in orbits if not o.possibly_old)
    gammas = [g for g, _ in space.homology_generators()]
    assert {g[2] for g in gammas} == {30, 60, 90}
    inverses = [(d, -b, -c, a) for a, b, c, d in gammas]
    series = ensure_series(space, orbit, required_terms(90, 45))
    _assert_kernel_matches_loop(orbit, series, gammas + inverses[-1:], 45)
    for g, h in zip(gammas, inverses):
        terms = required_terms(g[2], 45)
        v, _ = period_integral(orbit, g, terms, 45)
        w, _ = period_integral(orbit, h, terms, 45)
        with mp.workdps(80):
            assert abs(_mpf(v) + _mpf(w)) < mp.mpf(10) ** -65


@pytest.mark.parametrize("N,k", [(11, 0), (23, 0), (97, 1)])
def test_fixed_series_within_two_units(N, k):
    # degrees 1, 2 and 4; the oracle's coefficients are off by under
    # 10^-10 units of 2^-bits at these digits
    space, orbits = level(N)
    orbit = orbits[k]
    assert orbit.degree == {11: 1, 23: 2, 97: 4}[N]
    terms = required_terms(N, 60)
    series = ensure_series(space, orbit, terms)
    for bits in (48, 323):
        fixed, _ = periods._fixed_series(orbit, terms, bits)
        digits = math.ceil(bits * math.log10(2)) + 10
        reference = approx_series(orbit, series, terms, digits)
        with mp.workdps(digits):
            worst = max(abs(fixed[n] - reference[n] * 2 ** bits)
                        for n in range(1, terms + 1))
            assert worst < 2, (N, k, bits, worst)


def _assert_residue_sums_match_term_loop(orbit, gammas, terms, bits):
    # the regrouping is exact on the same tables, which
    # test_path_tables_match_mpmath checks on their own
    fixed, _ = periods._fixed_series(orbit, terms, bits)
    for g in gammas:
        tables = periods._path_tables(abs(g[2]), bits)
        assert (periods._period_sum(orbit, g, terms, bits)
                == term_loop_sum(fixed, g, terms, bits, tables)), (g, terms,
                                                                   bits)


@pytest.mark.parametrize("N,k", [(11, 0), (23, 0), (37, 1), (43, 1)])
def test_residue_sums_match_term_loop(N, k):
    space, orbits = level(N)
    gammas = [g for g, _ in space.homology_generators()]
    for precision in (45, 80):
        terms = required_terms(N, precision)
        ensure_series(space, orbits[k], terms)
        for bits in (64, 300):
            _assert_residue_sums_match_term_loop(orbits[k], gammas, terms,
                                                 bits)


def test_residue_sums_negative_and_multiple_c():
    space, orbits = level(30)
    orbit = next(o for o in orbits if not o.possibly_old)
    gammas = [g for g, _ in space.homology_generators()]
    assert {g[2] for g in gammas} == {30, 60, 90}
    inverses = [(d, -b, -c, a) for a, b, c, d in gammas]
    assert {g[2] for g in inverses} == {-30, -60, -90}
    for g in gammas + inverses:
        terms = required_terms(g[2], 45)
        ensure_series(space, orbit, terms)
        _assert_residue_sums_match_term_loop(orbit, [g], terms, 300)


# 2 cos(m pi / 6) and 2 sin(m pi / 6), m mod 12, where they are integers
_TWICE_COS = {0: 2, 2: 1, 3: 0, 4: -1, 6: -2, 8: -1, 9: 0, 10: 1}
_TWICE_SIN = {0: 0, 1: 1, 3: 2, 5: 1, 6: 0, 7: -1, 9: -2, 11: -1}
_TABLE_CS = tuple(range(1, 61)) + (97, 389)


@pytest.mark.parametrize("precision,cs", [
    (40, _TABLE_CS + (997, 1999)),
    (60, _TABLE_CS + (997, 1999)),
    (1000, _TABLE_CS),
    pytest.param(1000, (997, 1999), marks=pytest.mark.slow),
])
def test_path_tables_match_mpmath(precision, cs):
    # r and the roots of unity at the bits period_integral takes for
    # `precision` digits along a path with lower-left entry c: within one
    # unit of 2^-bits of mpmath's truncated values, identical to them where
    # c is prime to 6, and exact where the value is 0, +-1/2 or +-1 (where
    # mpmath's are one unit low at some k, as its argument 2k/c is rounded)
    for c in cs:
        bits = periods._working_bits(precision, required_terms(c, precision))
        r, cos, sin = tables = periods._path_tables(c, bits)
        r0, cos0, sin0 = reference = mpmath_path_tables(c, bits)
        assert len(cos) == len(sin) == c
        assert abs(r - r0) <= 1, (c, bits)
        assert max(abs(x - y) for x, y in zip(cos + sin, cos0 + sin0)) <= 1
        if c % 2 and c % 3:
            assert tables == reference, (c, bits)
        for k in range(c):
            if 12 * k % c == 0:
                m = 12 * k // c
                if m in _TWICE_COS:
                    assert cos[k] == _TWICE_COS[m] << bits - 1, (c, k)
                if m in _TWICE_SIN:
                    assert sin[k] == _TWICE_SIN[m] << bits - 1, (c, k)


def test_value_digits_match_mpmath():
    # truncation bounds |top| 2^-bits exp(-2 pi terms / c) on a seeded grid
    # from --prec 40 to 1000, spread from 10^12 above to 10^21 below
    # 10^-precision; the integer estimate is mpmath's at 50 digits, which
    # still resolves bound + 10^-(precision + 5) there
    rng = random.Random(34)
    seen = set()
    for _ in range(300):
        precision = rng.choice((40, 45, 60, 61, 250, 1000))
        c = rng.choice((11, 23, 37, 97, 389, 1999)) * rng.randint(1, 3)
        terms = required_terms(c, precision) + rng.randrange(c)
        bits = periods._working_bits(precision, terms)
        top = rng.randrange(1, 1 << bits + rng.randint(-20, 40))
        got = periods._value_digits(
            periods._truncation_bound(top, terms, c, bits), precision)
        with mp.workdps(50):
            bound = (mp.mpf(top) / mp.mpf(2) ** bits
                     * mp.exp(-2 * mp.pi * terms / c))
            expected = int(mp.floor(
                -mp.log10(bound + mp.mpf(10) ** -(precision + 5))))
        assert got == expected, (top, bits, terms, c, precision)
        seen.add(precision - got)
    assert min(seen) < 0 < max(seen)
    # exact at the ends: 10^-1005 alone, and plus a bound far below it
    assert periods._value_digits(Fraction(0), 1000) == 1005
    assert periods._value_digits(Fraction(1, 10 ** 2000), 1000) == 1004


def test_integral_input_errors():
    space, (orbit,) = level(11)
    with pytest.raises(DomainError):
        period_integral(orbit, (1, 1, 0, 1), 300, 40)      # degenerate path
    with pytest.raises(DomainError):
        period_integral(orbit, (6, 1, 11, 3), 300, 40)     # determinant 7
    with pytest.raises(DomainError):
        period_integral(orbit, G1_11, 300, 0)
    space23, (orbit23,) = level(23)
    with pytest.raises(DomainError):
        period_integral(orbit23, G1_11, 300, 40)           # wrong subgroup
    err = pytest.raises(PrecisionError,
                        period_integral, orbit, G1_11, 100, 50)
    assert err.value.required_terms == required_terms(11, 50)


@pytest.mark.parametrize("what,call", [
    ("lower-left entry", lambda sp, o: required_terms(11.0, 40)),
    ("precision", lambda sp, o: required_terms(11, 40.5)),
    ("terms", lambda sp, o: ensure_series(sp, o, 100.5)),
    ("matrix entries",
     lambda sp, o: period_integral(o, (1, 0.5, 11, 1), 400, 40)),
    ("terms", lambda sp, o: period_integral(o, G1_11, 400.0, 40)),
    ("precision", lambda sp, o: period_integral(o, G1_11, 400, 40.0)),
    ("matrix entries",
     lambda sp, o: numeric_jacobian(o, [(6, 1, 11.0, 2)], 40)),
    ("precision", lambda sp, o: numeric_jacobian(o, [G1_11], "40")),
    ("precision", lambda sp, o: positive_precision(True)),
    ("precision", lambda sp, o: rank_precision(60.5)),
    ("level", lambda sp, o: PeriodVector(11.5, 0, [], [], 40)),
    ("orbit", lambda sp, o: PeriodVector(11, 0.5, [], [], 40)),
    ("value digits", lambda sp, o: PeriodVector(11, 0, [1], [40.7], 40)),
    ("precision estimate", lambda sp, o: PeriodVector(11, 0, [], [], 40.7)),
], ids=["required_terms-c", "required_terms-precision", "ensure_series",
        "period_integral-gamma", "period_integral-terms",
        "period_integral-precision", "numeric_jacobian-basis",
        "numeric_jacobian-precision", "positive_precision", "rank_precision",
        "PeriodVector-N", "PeriodVector-orbit", "PeriodVector-digits",
        "PeriodVector-estimate"])
def test_integer_arguments_are_not_truncated(what, call):
    # int() read each of these as a nearby integer: (1, 0.5, 11, 1) gave
    # the period of (1, 0, 11, 1), True the precision 1, and
    # PeriodVector(11.5, 0.5, [], [], 40.7) N 11, orbit 0 and estimate 40
    space, (orbit,) = level(11)
    with pytest.raises(DomainError, match=what + " must be int"):
        call(space, orbit)


def test_negative_term_count_is_refused(monkeypatch):
    # -5 on a fresh orbit built the whole dual eigenvector and returned [],
    # and -3 on an orbit with a 400-term series returned the cached list
    def no_functional(space, orbit):
        raise AssertionError("the functional was built")

    space11, (orbit11,) = level(11)
    assert len(ensure_series(space11, orbit11, 400)) > 400
    space = ModularSymbolSpace(23)
    (orbit,) = decompose(space)
    monkeypatch.setattr(periods, "_dual_functional", no_functional)
    for sp, o, terms in ((space, orbit, -5), (space11, orbit11, -3)):
        with pytest.raises(DomainError, match="terms must be at least 0"):
            ensure_series(sp, o, terms)
    assert orbit not in periods._PERIOD_DATA


@pytest.mark.parametrize("call", [
    lambda o: period_integral(o, (1, 2, 3), 300, 40),
    lambda o: period_integral(o, (6, 1, 11, 2, 0), 300, 40),
    lambda o: period_integral(o, 5, 300, 40),
    lambda o: numeric_jacobian(o, [(6, 1, 11)], 40),
    lambda o: numeric_jacobian(o, [((6, 1, 11), (1, 0))], 40),
    lambda o: numeric_jacobian(o, [5], 40),
], ids=["period_integral-3", "period_integral-5", "period_integral-int",
        "numeric_jacobian-3", "numeric_jacobian-pair-3",
        "numeric_jacobian-int"])
def test_group_elements_need_four_entries(call):
    # a bare ValueError (the 3-tuple of period_integral) or TypeError (the
    # 3-tuple and the int of numeric_jacobian) escaped the error contract
    space, (orbit,) = level(11)
    ensure_series(space, orbit, required_terms(11, 40))
    with pytest.raises(DomainError, match="matrix entries must be four"):
        call(orbit)


def test_periods_leave_the_orbit_as_decompose_made_it():
    # ensure_series wrote every series prime into coefficient_map: at 23/0
    # a 300-term series grew it from 1 prime to 62
    space = ModularSymbolSpace(23)
    (orbit,) = decompose(space)
    keys = set(orbit.coefficient_map)
    record = pipeline._orbit_record(0, orbit)
    gens = space.homology_generators()
    ensure_series(space, orbit, max(required_terms(g[2], 60) for g, _ in gens))
    numeric_jacobian(orbit, gens, 60)
    assert set(orbit.coefficient_map) == keys
    assert pipeline._orbit_record(0, orbit) == record


def test_period_data_is_dropped_with_its_orbit():
    space = ModularSymbolSpace(11)
    (orbit,) = decompose(space)
    ensure_series(space, orbit, 300)
    period_integral(orbit, G1_11, 300, 40)      # fills a fixed series too
    assert orbit in periods._PERIOD_DATA
    gc.collect()
    count = len(periods._PERIOD_DATA)
    alive = weakref.ref(orbit)
    del orbit
    gc.collect()
    assert alive() is None
    assert len(periods._PERIOD_DATA) == count - 1


def test_integral_requires_series():
    space = ModularSymbolSpace(11)
    (orbit,) = decompose(space)
    terms = required_terms(11, 45)
    err = pytest.raises(TruncationError,
                        period_integral, orbit, G1_11, terms, 45)
    assert err.value.required_order == terms


# -- period vectors ----------------------------------------------------------------------


def test_jacobian_level_11():
    space, (orbit,) = level(11)
    gens = space.homology_generators()
    top = max(required_terms(g[2], 60) for g, _ in gens)
    ensure_series(space, orbit, top)
    pv = numeric_jacobian(orbit, gens, 60, orbit_index=0)
    assert isinstance(pv, PeriodVector)
    assert pv.N == 11 and pv.orbit == 0
    assert len(pv) == 2 * space.genus == 2
    assert pv.value_digits == (60, 60)
    assert pv.precision_estimate == 60
    assert "PeriodVector" in repr(pv)
    with mp.workdps(80):
        # the two real parts span the rank-1 real-period lattice: v0 = 2 v1
        assert abs(_mpf(pv[0] - 2 * pv[1])) < mp.mpf("1e-55")
        assert abs(abs(_mpf(pv[0])) - mp.mpf(OMEGA_11)) < mp.mpf("1e-50")
    assert detect_rank(pv, 60) == 1


def test_jacobian_accepts_bare_matrices():
    space, (orbit,) = level(11)
    gens = space.homology_generators()
    top = max(required_terms(g[2], 50) for g, _ in gens)
    ensure_series(space, orbit, top)
    via_pairs = numeric_jacobian(orbit, gens, 50)
    via_bare = numeric_jacobian(orbit, [g for g, _ in gens], 50)
    assert via_pairs.values == via_bare.values
    assert via_pairs.orbit is None


def test_jacobian_level_23_rank_two():
    space, (orbit,) = level(23)
    gens = space.homology_generators()
    top = max(required_terms(g[2], 60) for g, _ in gens)
    ensure_series(space, orbit, top)
    pv = numeric_jacobian(orbit, gens, 60, orbit_index=0)
    assert len(pv) == 4 and pv.precision_estimate == 60
    assert detect_rank(pv, 60) == 2 == orbit.degree


def test_jacobian_level_37_ranks():
    space, orbits = level(37)
    gens = space.homology_generators()
    top = max(required_terms(g[2], 60) for g, _ in gens)
    for k, orbit in enumerate(orbits):
        ensure_series(space, orbit, top)
        pv = numeric_jacobian(orbit, gens, 60, orbit_index=k)
        assert len(pv) == 4
        assert detect_rank(pv, 60) == 1 == orbit.degree


def test_jacobian_unimodular_basis_change():
    space, (orbit,) = level(11)
    gens = space.homology_generators()
    ensure_series(space, orbit, required_terms(11, 55))
    pv = numeric_jacobian(orbit, gens, 55)
    g2_inv = (3, -1, -11, 4)
    combo = mat_mul(G1_11, g2_inv)
    # new basis (loop1 - loop2, loop2): the transform [[1,-1],[0,1]] acts
    pv2 = numeric_jacobian(orbit, [combo, G2_11], 55)
    with mp.workdps(70):
        tol = mp.mpf("1e-50")
        assert abs(_mpf(pv2[0] - (pv[0] - pv[1]))) < tol
        assert abs(_mpf(pv2[1] - pv[1])) < tol
    assert detect_rank(pv2, 55) == detect_rank(pv, 55) == 1


def test_jacobian_requires_series_and_basis():
    space = ModularSymbolSpace(23)
    (orbit,) = decompose(space)
    gens = space.homology_generators()
    top = max(required_terms(g[2], 60) for g, _ in gens)
    err = pytest.raises(TruncationError,
                        numeric_jacobian, orbit, gens, 60)
    assert err.value.required_order == top
    with pytest.raises(DomainError):
        numeric_jacobian(orbit, [], 60)


def test_hecke_transpose_scales_period_vector():
    space, (orbit,) = level(23)
    gens = space.homology_generators()
    top = max(required_terms(g[2], 60) for g, _ in gens)
    series = ensure_series(space, orbit, top)
    pv = numeric_jacobian(orbit, gens, 60)
    n = len(gens)
    basis = QMatrix.from_rows(
        [[gens[j][1][i] for j in range(n)] for i in range(n)])
    with mp.workdps(90):
        for p in (2, 3):
            tb = space.restrict_to_cuspidal(hecke_matrix(space, p)) * basis
            solved = sympy.Matrix(basis.to_rows()).LUsolve(
                sympy.Matrix(tb.to_rows()))
            action = QMatrix.from_rows(
                [[Fraction(int(x.p), int(x.q)) for x in row]
                 for row in solved.tolist()])
            cp = embed(orbit, series[p], 80)
            for i in range(n):
                image = mp.fsum(
                    mp.mpf(action[j, i].numerator) / action[j, i].denominator
                    * pv[j] for j in range(n))
                assert abs(image - cp * pv[i]) < mp.mpf("1e-45")


# -- rank detection ----------------------------------------------------------------------


def test_rank_golden_examples():
    assert detect_rank((1.0, 0.5, 0.25), 50) == 1
    with mp.workdps(80):
        assert detect_rank((mp.mpf(1), mp.sqrt(2)), 50) == 2
        phi = (1 + mp.sqrt(5)) / 2
        assert detect_rank((mp.mpf(1), phi, phi ** 2), 60) == 2
        assert detect_rank((mp.mpf(1), mp.sqrt(2), mp.sqrt(3)), 60) == 3


def test_rank_degenerate_inputs():
    assert detect_rank((), 50) == 0
    assert detect_rank((0.0,), 45) == 0
    assert detect_rank((5.0,), 40) == 1
    assert detect_rank((0.0, 0.0), 45) == 0
    assert detect_rank((Fraction(3, 7), Fraction(9, 14)), 45) == 1


def test_rank_random_integer_combinations():
    rng = random.Random(11)
    with mp.workdps(90):
        basis = [mp.sqrt(2), mp.sqrt(3)]
        values = [rng.randrange(-9, 10) * basis[0]
                  + rng.randrange(-9, 10) * basis[1] for _ in range(6)]
        assert detect_rank(values, 60) == 2


def test_rank_of_seeded_combinations():
    # n integer combinations, coefficients in [-9, 9], of the first r of
    # pi*sqrt(2), pi*sqrt(3), pi*sqrt(5), which are independent over Q;
    # the coefficient matrix is redrawn until it has rank r.  At the odd
    # precision 61 the accept threshold 10^-30.5 is irrational
    rng = random.Random(26)
    with mp.workdps(120):
        basis = [mp.pi * mp.sqrt(k) for k in (2, 3, 5)]
        for precision, r in itertools.product((60, 61), (1, 2, 3)):
            for n in range(r, 7):
                for _ in range(12):
                    while True:
                        coeffs = [[rng.randint(-9, 9) for _ in range(r)]
                                  for _ in range(n)]
                        if QMatrix.from_rows(coeffs).rank() == r:
                            break
                    values = [mp.fsum(c * b for c, b in zip(row, basis))
                              for row in coeffs]
                    assert detect_rank(values, precision) == r, coeffs


def test_rank_reads_floats_and_mpfs_alike():
    # an mpf of a float's binary value is read as the same rational
    for values in [(1.0, 0.5, 0.25), (1.0, math.sqrt(2)), (0.1, 0.2, 0.3),
                   (math.pi, 2 * math.pi, math.e), (1.0, 0.5, 1e-15),
                   (0.0, 3.0)]:
        with mp.workdps(30):
            mpfs = [mp.mpf(x) for x in values]
        assert detect_rank(values, 40) == detect_rank(mpfs, 40)
    for x in (-0.375, 1e-300, -math.pi, 2.0 ** 80, 0.0):
        assert periods._exact(mp.mpf(x)) == Fraction(x)
    with pytest.raises(IndeterminateRankError):
        detect_rank((1e-15,), 40)
    with pytest.raises(IndeterminateRankError):
        detect_rank((mp.mpf(1e-15),), 40)


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), mp.inf, mp.nan])
def test_rank_refuses_nonfinite_values(bad):
    with pytest.raises(DomainError):
        detect_rank((1.0, bad), 40)


def test_rank_precision_floor_and_deadband():
    with pytest.raises(DomainError):
        detect_rank((1.0,), 39)
    with mp.workdps(60):
        probe = (mp.mpf(10) ** -15,)
        with pytest.raises(IndeterminateRankError):
            detect_rank(probe, 40)
        with pytest.raises(IndeterminateRankError):
            detect_rank((1.0, 0.5, mp.mpf(10) ** -15), 40)
