from fractions import Fraction

import pytest

import modfol.arith
import modfol.hecke
from modfol.arith import is_prime, next_prime, _primes_up_to
from modfol.congruence import P1Space
from modfol.errors import DomainError
from modfol.hecke import (
    eigenvalue_from_functional,
    hecke_matrix,
    qexp_from_primes,
)
from modfol.linalg import QMatrix
from modfol.modsym import ModularSymbolSpace
from modfol.numfield import NumberField
from modfol.periods import _functional_table
from modfol.polys import QPolynomial, factor_poly, parse_poly

from oracles import (cuspidal_basis, eta_product_qexp, hecke_column_paths,
                     hecke_matrix_merel, hecke_matrix_paths, heilbronn,
                     heilbronn_images)


@pytest.fixture(scope="module")
def spaces():
    return {N: ModularSymbolSpace(N) for N in (11, 22, 23, 33, 37, 97)}


class TestPrimes:
    def test_is_prime(self):
        assert [n for n in range(30) if is_prime(n)] == \
            [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_next_prime(self):
        assert next_prime(2) == 3
        assert next_prime(13) == 17
        assert next_prime(1) == 2

    def test_primes_up_to(self):
        assert _primes_up_to(1) == []
        assert _primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


class TestFamily:
    def test_counts(self):
        # nearest-integer continued fractions; any other rounding makes
        # longer expansions and so more matrices
        assert [len(heilbronn(p)) for p in (2, 3, 5, 7, 11, 13, 101)] == \
            [4, 6, 12, 18, 30, 38, 412]

    def test_shape(self):
        for p in (2, 3, 5, 7, 13, 101):
            fam = heilbronn(p)
            assert len(fam) == len(set(fam))
            for a, b, c, d in fam:
                assert a * d - b * c == p

    @pytest.mark.parametrize("p", [7.0, 2.5, True])
    def test_non_int_prime_raises(self, spaces, p):
        # is_prime read 2.5 as prime, and 7.0 ended in a bare TypeError
        with pytest.raises(DomainError, match="prime must be int"):
            hecke_matrix(spaces[11], p)

    @pytest.mark.parametrize("n", [0, 1, 4, 9, 91])
    def test_non_prime_raises(self, spaces, n):
        with pytest.raises(DomainError):
            heilbronn(n)
        space = spaces[11]
        with pytest.raises(DomainError):
            space.p1.heilbronn_counts(1, 1, n)
        with pytest.raises(DomainError):
            hecke_matrix(space, n)
        K = NumberField(QPolynomial([0, 1]))
        ones = QMatrix.from_rows([[1]] * space.dim)
        table = _functional_table(space, K, ones)
        with pytest.raises(DomainError):
            eigenvalue_from_functional(space, n, table, 0)


class TestWalk:
    @pytest.mark.parametrize("N", [11, 22, 23, 33, 37, 97])
    def test_walk_counts_the_family_images(self, N):
        # the same multiset, at three points per prime; p | N included,
        # where the images that are not points drop out of both
        p1 = P1Space(N)
        n = len(p1)
        for p in _primes_up_to(299):
            for i in {0, p % n, (3 * p + 1) % n}:
                c, d = p1.reps[i]
                family = [0] * n
                for x in heilbronn_images(N, c, d, p):
                    family[p1.index(*x)] += 1
                assert p1.heilbronn_counts(c, d, p) == family, (p, i)


class TestOracleRoutes:
    @pytest.mark.parametrize("N", range(1, 41))
    def test_whole_matrix_equals_merel_family(self, N):
        space = ModularSymbolSpace(N)
        for p in _primes_up_to(31):
            assert hecke_matrix(space, p) == hecke_matrix_merel(space, p), p

    @pytest.mark.parametrize("N", [11, 22, 23, 37, 97])
    def test_column_equals_path_route(self, spaces, N):
        # column 0 is the start (0:1), whose walk is folded by the star
        # involution, at every prime, p | N included
        space = spaces[N]
        assert space.p1.reps[space.free_symbols[0]] == (0, 1)
        for p in _primes_up_to(499):
            T = hecke_matrix(space, p)
            for j in {0, p % space.dim}:
                assert T.col(j) == hecke_column_paths(space, p, j), (p, j)


class TestOperatorRoutes:
    @pytest.mark.parametrize("N,p", [
        (11, 2), (11, 3), (11, 5), (11, 7), (11, 11),
        (22, 2), (23, 2), (23, 3), (33, 3), (37, 2), (37, 5), (37, 31),
        (97, 2), (97, 13),
    ])
    def test_family_route_equals_path_route(self, spaces, N, p):
        space = spaces[N]
        assert hecke_matrix(space, p) == hecke_matrix_paths(space, p)

    def test_operators_commute(self, spaces):
        for N in (11, 23, 37):
            space = spaces[N]
            t2 = hecke_matrix(space, 2)
            t3 = hecke_matrix(space, 3)
            t5 = hecke_matrix(space, 5)
            assert t2 * t3 == t3 * t2
            assert t2 * t5 == t5 * t2

    def test_cuspidal_subspace_is_stable(self, spaces):
        for N in (11, 23, 37):
            space = spaces[N]
            image = hecke_matrix(space, 2) * QMatrix.from_rows(
                cuspidal_basis(space)).transpose()
            for j in range(image.cols):
                assert space.is_cuspidal(image.col(j))

    def test_full_quotient_has_trivial_eisenstein_eigenvalue(self, spaces):
        # x - (p+1) divides the full charpoly for p not dividing the level
        for N, p in ((11, 2), (23, 2), (37, 3)):
            cp = QPolynomial(hecke_matrix(spaces[N], p).charpoly())
            assert cp.evaluate(p + 1) == 0


class TestCuspidalCharpolys:
    def test_golden_charpolys(self, spaces):
        t2_11 = spaces[11].restrict_to_cuspidal(hecke_matrix(spaces[11], 2))
        assert QPolynomial(t2_11.charpoly()) == parse_poly("x^2 + 4*x + 4")

        t2_23 = spaces[23].restrict_to_cuspidal(hecke_matrix(spaces[23], 2))
        assert QPolynomial(t2_23.charpoly()) == parse_poly("x^2 + x - 1") ** 2

        t2_37 = spaces[37].restrict_to_cuspidal(hecke_matrix(spaces[37], 2))
        assert QPolynomial(t2_37.charpoly()) == \
            parse_poly("x + 2") ** 2 * parse_poly("x") ** 2

    def test_level_dividing_prime(self, spaces):
        # at level 11 the prime 11 acts on the one-dimensional system as +1
        t11 = spaces[11].restrict_to_cuspidal(hecke_matrix(spaces[11], 11))
        assert QPolynomial(t11.charpoly()) == parse_poly("x - 1") ** 2


class TestCoefficients:
    def test_eta_product_oracle_level_11(self, spaces):
        M = 40
        eta = eta_product_qexp(11, M)
        assert eta[1] == 1 and eta[2] == -2 and eta[3] == -1

        got = qexp_from_primes(11, lambda p: Fraction(eta[p]), M)
        assert [int(x) for x in got[1:]] == eta[1:]

    def test_recursion_at_bad_prime(self):
        # with c_11 = 1 at level 11: c_121 = c_11^2 (no -p correction)
        got = qexp_from_primes(11, lambda p: Fraction({11: 1}.get(p, 0)), 121)
        assert got[121] == 1

    def test_good_prime_recursion(self):
        # level 1-style check: c_4 = c_2^2 - 2 when 2 is a good prime
        got = qexp_from_primes(5, lambda p: Fraction(3) if p == 2 else Fraction(0), 8)
        assert got[4] == 9 - 2
        assert got[8] == got[2] * got[4] - 2 * got[2]

    def test_fill_makes_no_factorize_call(self, monkeypatch):
        # the smallest prime power of each m comes from one sieve
        calls = []
        factorize = modfol.arith.factorize

        def counted(n):
            calls.append(n)
            return factorize(n)

        monkeypatch.setattr(modfol.arith, "factorize", counted)
        monkeypatch.setattr(modfol.hecke, "factorize", counted, raising=False)
        got = qexp_from_primes(37, lambda p: Fraction(p % 7 - 3, 2), 5000)
        assert calls == []
        for m in range(2, 5001):
            p, e = factorize(m)[0]
            if p ** e < m:
                assert got[m] == got[p ** e] * got[m // p ** e]


class TestFunctionalRoute:
    def test_eigenvalue_series_level_11(self, spaces):
        space = spaces[11]
        # left eigenvector of T_2 on the full quotient with eigenvalue -2
        t2 = hecke_matrix(space, 2)
        lhs = t2.transpose() - QMatrix.identity(space.dim).scale(Fraction(-2))
        kernel, _ = lhs.echelon_kernel()
        rows = [kernel.col(j) for j in range(kernel.cols)]
        # the eigenvalue -2 part is the two-dimensional cuspidal dual piece
        assert len(rows) == 2
        row = rows[0]
        j = next(i for i, x in enumerate(row) if x != 0)
        # tabulated over Q as a degree-1 field, scaled to 1 at j
        K = NumberField(QPolynomial([0, 1]))
        table = _functional_table(space, K, QMatrix.from_rows(
            [[x / row[j]] for x in row]))
        eta = eta_product_qexp(11, 30)
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29):
            assert eigenvalue_from_functional(space, p, table, j) == eta[p], p
