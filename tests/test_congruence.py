import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from modfol.congruence import (
    P1Space,
    _normalize_cusp,
    cusp_class_key,
    cusp_classes,
    curve_data,
    gamma0_contains,
    mat_det,
)
from modfol.arith import factorize
from modfol.errors import DomainError, InternalInvariantError

from oracles import (brute_canonical, brute_p1_classes, coset_genus,
                     cusp_equivalent, mat_mul, moebius_on_cusp,
                     random_gamma0_element, search_cusp_class_key,
                     search_cusp_count, sweep_p1)


@lru_cache(maxsize=8)
def _p1(N):
    return P1Space(N)


def _swept(space):
    """The space's reps, and the class of every pair (c, d) in the order of
    sweep_p1's flat table, read off each first entry's row through its
    unit (-1 at non-points)."""
    N = space.N
    return space.reps, [row[v * d % N]
                        for row, v in zip(space._rows, space._units)
                        for d in range(N)]


class TestCurveData:
    GOLDEN = {
        1: (1, 1, 1, 1, 0),
        2: (3, 1, 0, 2, 0),
        6: (12, 0, 0, 4, 0),
        11: (12, 0, 0, 2, 1),
        23: (24, 0, 0, 2, 2),
        37: (38, 2, 2, 2, 2),
        48: (96, 0, 0, 12, 3),
    }

    @pytest.mark.parametrize("N", sorted(GOLDEN))
    def test_golden(self, N):
        mu, nu2, nu3, nu_inf, genus = self.GOLDEN[N]
        d = curve_data(N)
        assert d == {"N": N, "mu": mu, "nu2": nu2, "nu3": nu3,
                     "nu_inf": nu_inf, "genus": genus}

    def test_genus_against_coset_orbit_count(self):
        for N in range(1, 61):
            assert curve_data(N)["genus"] == coset_genus(N), N

    def test_invalid_level(self):
        with pytest.raises(DomainError):
            curve_data(0)

    def test_non_integer_genus_is_an_invariant_error(self, monkeypatch):
        # 11 read as 5: mu 13, nu2 2, nu3 0, nu_inf 2, so 12 g = 7
        monkeypatch.setattr("modfol.congruence.factorize",
                            lambda N: [(5, 1)])
        with pytest.raises(InternalInvariantError,
                           match="non-integer 7/12 at level 11"):
            curve_data(11)

    def test_factorize(self):
        assert factorize(1) == []
        assert factorize(12) == [(2, 2), (3, 1)]
        assert factorize(37) == [(37, 1)]


class TestMatrices:
    def test_mul_det(self):
        m = (1, 2, 3, 4)
        n = (0, 1, -1, 0)
        assert mat_mul(m, n) == (-2, 1, -4, 3)
        assert mat_det(mat_mul(m, n)) == mat_det(m) * mat_det(n)

    def test_gamma0_membership(self):
        assert gamma0_contains((1, 1, 0, 1), 11)
        assert gamma0_contains((1, 0, 11, 1), 11)
        assert not gamma0_contains((0, -1, 1, 0), 11)
        assert not gamma0_contains((2, 0, 0, 2), 11)


class TestP1:
    def test_size_matches_brute_force_and_index(self):
        for N in range(1, 41):
            space = P1Space(N)
            assert len(space) == len(brute_p1_classes(N))
            assert len(space) == curve_data(N)["mu"]

    def test_reps_match_brute_force(self):
        for N in (1, 2, 12, 15, 23):
            assert sorted(P1Space(N).reps) == sorted(brute_p1_classes(N))

    def test_canonical_invariance_under_units(self):
        rng = random.Random(41)
        space = P1Space(24)
        for _ in range(50):
            c, d = rng.randrange(24), rng.randrange(24)
            if gcd(gcd(c, d), 24) != 1:
                continue
            for u in (5, 7, 11, 23):
                assert space.index(u * c, u * d) == space.index(c, d)

    def test_index_of_matrix_constant_on_cosets(self):
        rng = random.Random(42)
        N = 15
        space = P1Space(N)
        for _ in range(25):
            gamma = random_gamma0_element(rng, N)
            m = (2, 1, 1, 1)  # arbitrary unimodular matrix
            assert space.index(*m[2:]) == space.index(*mat_mul(gamma, m)[2:])

    def test_rejects_non_point(self):
        with pytest.raises(DomainError):
            P1Space(12).index(2, 4)

    def test_reps_and_table_match_the_full_sweep(self):
        for N in range(1, 121):
            assert _swept(P1Space(N)) == sweep_p1(N), N

    @pytest.mark.slow
    def test_reps_and_table_match_the_full_sweep_at_large_levels(self):
        # every level to 400, then primes, prime powers and levels with many
        # divisors up to the CLI's bound of 2,000; the sweep over every
        # level to 2,000 takes about 40 minutes
        for N in [*range(121, 401), 512, 729, 961, 997, 1000, 1024, 1331,
                  1680, 1728, 1800, 1980, 1998, 1999, 2000]:
            assert _swept(P1Space(N)) == sweep_p1(N), N

    def test_one_row_per_divisor_and_one_unit_per_first_entry(self):
        # no N*N structure: sigma_0(2000) = 20 distinct class rows of length
        # 2000, shared by the first entries of each gcd, and 2000 units
        space = P1Space(2000)
        rows = {id(row): row for row in space._rows}.values()
        assert len(space._rows) == len(space._units) == 2000
        assert len(rows) == 20
        assert {len(row) for row in rows} == {2000}
        assert all(gcd(v, 2000) == 1 and v * c % 2000 == gcd(c, 2000) % 2000
                   for c, v in enumerate(space._units))

    def test_canonical_and_index_match_oracle_on_every_pair(self):
        for N in range(1, 61):
            space = P1Space(N)
            for c in range(N):
                for d in range(N):
                    if gcd(gcd(c, d), N) != 1:
                        with pytest.raises(DomainError):
                            space.index(c, d)
                        continue
                    rep = brute_canonical(N, c, d)
                    assert space.reps[space.index(c, d)] == rep, (N, c, d)

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(N=st.integers(1, 400), c=st.integers(-10 ** 6, 10 ** 6),
           d=st.integers(-10 ** 6, 10 ** 6), u=st.integers(-10 ** 6, 10 ** 6))
    def test_canonical_properties(self, N, c, d, u):
        assume(gcd(gcd(c, d), N) == 1 and gcd(u, N) == 1)
        space = _p1(N)
        rep = space.reps[space.index(c, d)]
        assert rep == brute_canonical(N, c, d)
        assert space.reps[space.index(*rep)] == rep
        assert space.index(u * c, u * d) == space.index(c, d)


class TestCusps:
    def test_normalize(self):
        assert _normalize_cusp(2, 4) == (1, 2)
        assert _normalize_cusp(-1, -2) == (1, 2)
        assert _normalize_cusp(3, 0) == (1, 0)
        assert _normalize_cusp(0, 5) == (0, 1)
        assert _normalize_cusp(Fraction(6, 4), 1) == (3, 2)
        with pytest.raises(DomainError):
            _normalize_cusp(0, 0)

    def test_equivalence_is_invariant_under_group_action(self):
        rng = random.Random(43)
        for N in (5, 11, 12, 24, 37):
            for _ in range(30):
                p = rng.randint(-9, 9)
                q = rng.randint(0, 9)
                if p == 0 and q == 0:
                    continue
                gamma = random_gamma0_element(rng, N)
                image = moebius_on_cusp(gamma, (p, q))
                assert cusp_equivalent((p, q), image, N)

    def test_class_count_matches_formula(self):
        for N in range(1, 41):
            assert len(cusp_classes(N)) == curve_data(N)["nu_inf"], N

    def test_class_key_constant_on_classes(self):
        rng = random.Random(44)
        N = 36
        for _ in range(25):
            p = rng.randint(-20, 20)
            q = rng.randint(0, 20)
            if p == 0 and q == 0:
                continue
            gamma = random_gamma0_element(rng, N)
            image = moebius_on_cusp(gamma, (p, q))
            assert cusp_class_key((p, q), N) == cusp_class_key(image, N)

    def test_distinct_classes_get_distinct_keys(self):
        for N in (11, 12, 36):
            keys = cusp_classes(N)
            assert len(keys) == len(set(keys))
            for k1 in keys:
                for k2 in keys:
                    if k1 != k2:
                        assert not cusp_equivalent(k1, k2, N)

    def test_class_key_matches_search(self):
        # labels by closed form against the search over a/c with Cremona's
        # criterion, on every class label and a seeded sample of fractions
        # p/q with q <= 3N and |p| <= 2N
        rng = random.Random(45)
        for N in range(1, 121):
            cusps = cusp_classes(N) + [(1, 0), (0, 1), (1, 1)]
            cusps += [(rng.randint(-2 * N, 2 * N), rng.randint(1, 3 * N))
                      for _ in range(12)]
            for cusp in cusps:
                assert cusp_class_key(cusp, N) == \
                    search_cusp_class_key(cusp, N), (cusp, N)

    def test_class_count_matches_divisor_sum(self):
        for N in range(1, 401):
            assert curve_data(N)["nu_inf"] == search_cusp_count(N), N

    def test_infinity_and_zero(self):
        # infinity is the class of 1/N, zero the class of denominator 1
        assert cusp_equivalent((1, 0), (1, 11), 11)
        assert not cusp_equivalent((1, 0), (0, 1), 11)
        assert cusp_equivalent((0, 1), (5, 1), 11)


@pytest.mark.parametrize("build", [curve_data, P1Space, cusp_classes])
@pytest.mark.parametrize("N", [11.0, 11.5, True, "11"])
def test_levels_must_be_ints(build, N):
    # curve_data(11.0) raised a bare TypeError and curve_data(True) gave
    # the record of level 1 with N True
    with pytest.raises(DomainError, match="level must be int"):
        build(N)
