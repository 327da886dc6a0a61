"""Acceptance suite: ten criteria, one test (and one pass/fail line) each.

Run with `pytest -v tests/test_acceptance.py`; the verbose listing shows
one PASSED/FAILED line per criterion.  Every numeric tolerance is pinned
here rather than imported, so a change in library behavior cannot
silently weaken the gate.  No network access is needed and the whole
module targets a laptop-scale runtime budget.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import contextlib
import io

import pytest
from mpmath import mp

from modfol.congruence import curve_data
from modfol.eigen import decompose, rescale_eigenvector
from modfol.errors import ModfolError
from modfol.foliation import (FoliationKind, JacobianModule, TorusKind,
                              basis_change, classify, classify_torus,
                              module_rank, scale_module)
from modfol.hecke import hecke_matrix
from modfol.iet import IET, iet_apply, minimality_probe, periodicity_report
from modfol.linalg import QMatrix, lattice_key, lll_reduce
from modfol.modsym import ModularSymbolSpace
from modfol.numfield import NumberField
from modfol.periods import (detect_rank, ensure_series, numeric_jacobian,
                            required_terms)
from modfol.polys import QPolynomial, factor_poly

from oracles import coset_genus, eta_product_qexp

PRIMES_TO_100 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]

RANK_PRECISION = 60            # digits, criterion 7
RESIDUAL_BOUND = Fraction(1, 10 ** 30)   # criterion 7
LEVEL_TIME_BUDGET = 120.0      # seconds per level, criterion 7
KEANE_STEPS = 100000           # criterion 10


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MODFOL_CACHE", str(tmp_path / "cache"))


@pytest.fixture(scope="module")
def prime_levels():
    """Symbol space and orbit decomposition for every prime level <= 100."""
    levels = {}
    for N in PRIMES_TO_100:
        space = ModularSymbolSpace(N)
        levels[N] = (space, decompose(space))
    return levels


def run_json(*argv):
    from modfol.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, json.loads(buf.getvalue())


def _report(number, text):
    print("CRITERION %d: PASS — %s" % (number, text))


# -- 1 ------------------------------------------------------------------------------


def test_criterion_01_genus_pipeline(prime_levels):
    fixtures = {11: 1, 23: 2, 37: 2}
    for N in PRIMES_TO_100:
        code, obj = run_json("genus", str(N))
        assert code == 0
        assert obj["genus"] == coset_genus(N), N
        space, _ = prime_levels[N]
        assert space.cuspidal_dim == 2 * obj["genus"], N
        if N in fixtures:
            assert obj["genus"] == fixtures[N], N
    _report(1, "genus N matches the coset-enumeration oracle and "
               "dim(cuspidal) = 2g for all prime N <= 100")


# -- 2 ------------------------------------------------------------------------------


def test_criterion_02_hecke_qexp_formula():
    space = ModularSymbolSpace(11)
    orbit = decompose(space)[0]
    series = ensure_series(space, orbit, 500)
    K = orbit.field
    eta = eta_product_qexp(11, 500)
    for m in range(1, 501):
        assert series[m] == K.from_rational(eta[m]), m
    for n in range(1, 11):
        for m in range(1, 51):
            acted = K.from_rational(0)
            for a in range(1, min(m, n) + 1):
                if m % a == 0 and n % a == 0:
                    acted = acted + a * series[m * n // (a * a)]
            assert acted == series[n] * series[m], (n, m)
    _report(2, "T_n f = c_n f coefficientwise (n <= 10, m <= 50) and the "
               "first 500 level-11 coefficients equal the eta-product "
               "oracle exactly")


# -- 3 ------------------------------------------------------------------------------


def test_criterion_03_commutativity_and_reality(prime_levels):
    for N in (11, 23, 37, 67):
        space, orbits = prime_levels[N]
        mats = [space.restrict_to_cuspidal(hecke_matrix(space, p))
                for p in (2, 3, 5, 7) if N % p]
        for A, B in itertools.combinations(mats, 2):
            assert A * B == B * A, N
        assert orbits, N
        for orbit in orbits:
            assert len(orbit.field.real_embeddings()) == orbit.field.degree, \
                (N, orbit.degree)
    _report(3, "Hecke commutators vanish exactly and every K_f is "
               "totally real at N in {11, 23, 37, 67}")


# -- 4 ------------------------------------------------------------------------------


def test_criterion_04_eigenvector_rescaling():
    rng = random.Random(20260814)
    done = 0
    while done < 500:
        n = rng.randint(2, 6)
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        T = QMatrix.from_rows(rows)
        factors = factor_poly(QPolynomial(T.charpoly()))
        simple = [f for f, mult in factors if mult == 1]
        if not simple:
            continue
        poly = rng.choice(simple)
        K = NumberField(poly, check=False)
        lam = K.gen()
        x = rescale_eigenvector(T, lam)
        assert len(x) == n
        lead = next(c for c in x if not c.is_zero())
        assert lead == K.one()
        for i in range(n):
            acted = K.from_rational(0)
            for j in range(n):
                if rows[i][j]:
                    acted = acted + rows[i][j] * x[j]
            assert acted == lam * x[i], (rows, i)
        done += 1
    _report(4, "500 random matrices (n <= 6, |entries| <= 5): rescaled "
               "eigenvector satisfies T x = lambda x in exact K-arithmetic")


# -- 5 ------------------------------------------------------------------------------


def _random_unimodular(rng, k):
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(8):
        move = rng.randrange(3)
        i, j = rng.randrange(k), rng.randrange(k)
        if move == 0 and i != j:
            c = rng.randint(-3, 3)
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif move == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return rows


def test_criterion_05_module_invariance():
    rng = random.Random(11235)
    pool = [NumberField(QPolynomial(cs))
            for cs in ([-2, 0, 1], [-3, 0, 1], [-1, 1, 1],
                       [-1, -3, 0, 1], [1, -2, -1, 1], [1, 0, -4, 0, 1])]
    for _ in range(1000):
        K = rng.choice(pool)
        k = rng.randint(1, 4)
        gens = [K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(K.degree)])
                for _ in range(k)]
        J = JacobianModule(K, gens)
        changed = basis_change(J, _random_unimodular(rng, k))
        assert changed.lattice_key() == J.lattice_key()
        mu = K.from_rational(0)
        while mu.is_zero():
            mu = K.element([rng.randint(-5, 5) for _ in range(K.degree)])
        mult = [(K.element([int(t == j) for t in range(K.degree)]) * mu).coeffs
                for j in range(K.degree)]
        expected = [[sum(row[j] * mult[j][t] for j in range(K.degree))
                     for t in range(K.degree)]
                    for row in J.coordinate_rows()]
        assert scale_module(J, mu).lattice_key() == lattice_key(expected)
    _report(5, "1000 random (module, unimodular) pairs: Hermite key "
               "invariant under basis change, scales exactly by mu")


# -- 6 ------------------------------------------------------------------------------


def test_criterion_06_rank_equals_degree_exact(prime_levels):
    checked = 0
    for N, (space, orbits) in prime_levels.items():
        for orbit in orbits:
            J = JacobianModule(orbit.field, list(orbit.eigenvector))
            assert module_rank(J) == orbit.degree, (N, orbit.degree)
            checked += 1
    assert checked >= 25
    _report(6, "module_rank(eigenvector module) = deg(K_f|Q) for all %d "
               "orbits at prime N <= 100, zero tolerance" % checked)


# -- 7 ------------------------------------------------------------------------------


def _accepted_relations(values, precision):
    """Independent LLL pass: integer relations with residual < 10^-30."""
    n = len(values)
    with mp.workdps(precision + 60):
        bound = mp.mpf(RESIDUAL_BOUND.numerator) / RESIDUAL_BOUND.denominator
        scale = mp.mpf(10) ** precision
        rows = [[int(i == k) for k in range(n)]
                + [int(mp.nint(v * scale))] for i, v in enumerate(values)]
        relations = []
        for row in lll_reduce(rows):
            coeffs = row[:n]
            if max(abs(c) for c in coeffs) > 10 ** 15:
                continue
            residual = abs(mp.fsum(c * v for c, v in zip(coeffs, values)))
            if residual < bound:
                relations.append(coeffs)
        return relations


def test_criterion_07_numeric_rank_crosscheck():
    for N in (11, 23, 37):
        started = time.monotonic()
        space = ModularSymbolSpace(N)
        orbits = decompose(space)
        basis = space.homology_generators()
        top = max(required_terms(g[2], RANK_PRECISION) for g, _ in basis)
        for index, orbit in enumerate(orbits):
            ensure_series(space, orbit, top)
            vector = numeric_jacobian(orbit, basis, RANK_PRECISION,
                                      orbit_index=index)
            detected = detect_rank(vector, RANK_PRECISION)
            exact = module_rank(JacobianModule(orbit.field,
                                               list(orbit.eigenvector)))
            assert detected == exact == orbit.degree, (N, index)
            relations = _accepted_relations(vector.values, RANK_PRECISION)
            found = (QMatrix.from_rows(relations).rank() if relations
                     else 0)
            assert found == len(vector) - detected, (N, index)
        elapsed = time.monotonic() - started
        assert elapsed < LEVEL_TIME_BUDGET, (N, elapsed)
    _report(7, "detect_rank at 60 digits equals the exact rank for "
               "N in {11, 23, 37}; all relation residuals < 1e-30; "
               "every level under 120 s")


# -- 8 ------------------------------------------------------------------------------


def test_criterion_08_foliation_trichotomy(prime_levels):
    assert [e["class"] for e in run_json("classify", "11")[1]] \
        == ["strebel"]
    assert [e["class"] for e in run_json("classify", "37")[1]] \
        == ["strebel", "strebel"]
    assert [e["class"] for e in run_json("classify", "23")[1]] \
        == ["pseudo_anosov"]
    for N, (space, orbits) in prime_levels.items():
        if space.genus == 0:
            continue
        curve = curve_data(N)
        for orbit in orbits:
            outcome = classify(orbit, curve)
            d, g = orbit.degree, curve["genus"]
            truth = {
                FoliationKind.STREBEL: d == 1,
                FoliationKind.PSEUDO_ANOSOV: 2 <= d == g,
                FoliationKind.DEGENERATE_PSEUDO_ANOSOV: 2 <= d <= g - 1,
            }
            assert sum(truth.values()) == 1, (N, d, g)
            assert truth[outcome.kind], (N, d, g)
    _report(8, "classify: strebel at 11 and both 37 orbits, "
               "pseudo_anosov at 23; exactly one class per orbit for all "
               "prime N <= 100")


# -- 9 ------------------------------------------------------------------------------


def _mat_mul2(a, b):
    return (a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
            a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3])


def test_criterion_09_torus_trichotomy_exhaustive():
    total = 0
    for entries in itertools.product(range(-3, 4), repeat=4):
        a, b, c, d = entries
        if a * d - b * c != 1:
            continue
        total += 1
        result = classify_torus(list(entries))
        power = (1, 0, 0, 1)
        for _ in range(12):
            power = _mat_mul2(power, entries)
        is_identity = power == (1, 0, 0, 1)
        assert (result.kind is TorusKind.FINITE_ORDER) == is_identity, \
            entries
        if result.kind is TorusKind.PARABOLIC_STREBEL:
            assert abs(a + d) == 2, entries
        if result.kind is TorusKind.ANOSOV:
            assert abs(a + d) > 2, entries
    assert total > 100
    _report(9, "trace trichotomy matches brute-force A^12 = I order "
               "testing on all %d det-1 matrices with entries in [-3, 3]"
            % total)


# -- 10 -----------------------------------------------------------------------------


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(1, total - parts + 2):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _irreducible_perms(k):
    out = []
    for perm in itertools.permutations(range(1, k + 1)):
        if all(max(perm[:j]) > j for j in range(1, k)):
            out.append(list(perm))
    return out


def test_criterion_10_iet_dichotomy():
    perms = {k: _irreducible_perms(k) for k in range(1, 5)}
    assert [len(perms[k]) for k in range(1, 5)] == [1, 1, 3, 13]
    checked = 0
    for denominator in range(1, 13):
        for k in range(1, 5):
            if denominator < k:
                continue
            for comp in _compositions(denominator, k):
                lengths = [Fraction(c, denominator) for c in comp]
                for perm in perms[k]:
                    table = IET(lengths, perm)
                    report = periodicity_report(table)
                    assert report["periodic"] is True, (lengths, perm)
                    period = report["period_lcm"]
                    assert period >= 1
                    for i in range(k):
                        start = sum(lengths[:i], Fraction(0))
                        point = start + lengths[i] / 2
                        image = point
                        for _ in range(period):
                            image = iet_apply(table, image)
                        assert image == point, (lengths, perm)
                    checked += 1
    assert checked == 7173
    golden = NumberField(QPolynomial([-1, -1, 1]))
    table = IET([golden.one(), golden.gen()], [2, 1])
    probe = minimality_probe(table, KEANE_STEPS)
    assert probe == {"no_periodic_orbit_found": True, "keane_violations": []}
    _report(10, "all 7173 rational IETs (k <= 4, common denominator <= 12) "
                "certified periodic with verified periods; golden-ratio "
                "2-IET passes a 100000-step Keane probe with zero "
                "violations")
