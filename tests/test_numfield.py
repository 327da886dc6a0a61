import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from modfol import eigen
from modfol.eigen import decompose, dual_eigenvector
from modfol.errors import DimensionError, DomainError, InternalInvariantError
from modfol.hecke import hecke_matrix
from modfol.linalg import QMatrix
from modfol.modsym import ModularSymbolSpace
from modfol.numfield import NumberField, RealEmbedding, leading_entry
from modfol.polys import QPolynomial, isolate_real_roots, parse_poly

from oracles import (FractionElement, FractionEmbedding,
                     elimination_nf_kernel, fraction_row_approx,
                     fraction_row_sign, horner_from_poly,
                     kronecker_eigenspace)


@pytest.fixture
def golden_ratio_field():
    # x^2 - x - 1; generator is one of (1 +- sqrt5)/2 depending on embedding
    return NumberField(parse_poly("x^2 - x - 1"))


@pytest.fixture
def sqrt2_field():
    return NumberField(parse_poly("x^2 - 2"))


class TestFieldArithmetic:
    def test_generator_satisfies_minpoly(self, golden_ratio_field):
        a = golden_ratio_field.gen()
        assert a * a == a + 1

    def test_inverse_of_generator(self, golden_ratio_field):
        # 1/phi = phi - 1 in Q[x]/(x^2-x-1)
        a = golden_ratio_field.gen()
        assert a.inverse() == a - 1
        assert (1 / a) == a - 1

    def test_field_axioms_random(self, sqrt2_field):
        rng = random.Random(31)
        K = sqrt2_field

        def rand_elt():
            return K.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                              for _ in range(2)])

        for _ in range(25):
            x, y, z = rand_elt(), rand_elt(), rand_elt()
            assert (x + y) * z == x * z + y * z
            assert x * (y * z) == (x * y) * z
            if not x.is_zero():
                assert x * x.inverse() == K.one()
                assert (y / x) * x == y

    def test_pow(self, sqrt2_field):
        a = sqrt2_field.gen()
        assert a ** 2 == 2
        assert a ** 4 == 4
        assert a ** (-2) == Fraction(1, 2)

    def test_cubic_field(self):
        K = NumberField(parse_poly("x^3 - x - 1"))
        a = K.gen()
        assert a ** 3 == a + 1
        assert (a ** 2 + 1) * (a ** 2 + 1).inverse() == K.one()

    def test_degree_one_field(self):
        K = NumberField(parse_poly("x - 3"))
        a = K.gen()
        assert a == Fraction(3)
        assert a * a + 1 == Fraction(10)

    def test_rational_detection(self, golden_ratio_field):
        a = golden_ratio_field.gen()
        assert a != Fraction(0) and a != Fraction(1)
        assert a + (1 - a) == Fraction(1)

    def test_rational_element_hashes_like_the_rational(self, golden_ratio_field):
        K = golden_ratio_field
        assert hash(K.from_rational(3)) == hash(3)
        assert {K.from_rational(3), 3} == {3}
        half = Fraction(1, 2)
        assert len({K.from_rational(half), half, K.gen()}) == 2
        assert {NumberField(parse_poly("x - 3")).gen(), 3} == {3}

    def test_coerce(self, golden_ratio_field, sqrt2_field):
        K = golden_ratio_field
        a = K.gen()
        assert K.coerce(a) is a
        assert K.coerce(2) == K.from_rational(2)
        assert K.coerce(Fraction(1, 2)) == Fraction(1, 2)
        # a separately built copy of the field is the same field
        assert K.coerce(NumberField(parse_poly("x^2 - x - 1")).gen()) == a
        with pytest.raises(DomainError, match="different field"):
            K.coerce(sqrt2_field.gen())
        with pytest.raises(DomainError,
                           match="a rational must be int or Fraction"):
            K.coerce(0.5)

    def test_reducible_rejected(self):
        with pytest.raises(DomainError):
            NumberField(parse_poly("x^2 - 1"))

    @pytest.mark.parametrize("poly", ["x - 3", "x^2 - 2",
                                      "x^3 - x^2 - 2*x + 1",
                                      "x^4 - 4*x^2 + 2"])
    def test_rational_scalar_product_equals_field_product(self, poly):
        K = NumberField(parse_poly(poly))
        rng = random.Random(7)
        scalars = [0, Fraction(0), 1, -3, 10 ** 20, Fraction(-7, 12),
                   Fraction(5, 10 ** 9)]
        for _ in range(10):
            x = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(K.degree)])
            den, ints = x.integers
            for c in scalars:
                expected = K.from_rational(c) * x
                # a rational scalar scales the stored integers
                r = Fraction(c)
                scaled = K.from_integers(den * r.denominator,
                                         [r.numerator * a for a in ints])
                for got in (c * x, x * c):
                    assert got == expected
                    assert got.integers == scaled.integers
                    assert all(type(a) is Fraction for a in got.coeffs)

    def test_inverse_over_reducible_polynomial_raises(self):
        # without the irreducibility check, a - 1 divides x^2 - 1
        K = NumberField(parse_poly("x^2 - 1"), check=False)
        with pytest.raises(InternalInvariantError):
            (K.gen() - 1).inverse()

    def test_mixed_rational_ops(self, golden_ratio_field):
        a = golden_ratio_field.gen()
        assert 2 * a - a == a
        assert (a + Fraction(1, 2)) - Fraction(1, 2) == a
        assert a - 1 == -(1 - a)


# fields with integral and with non-integral defining polynomials, by
# ascending coefficients: x - 3, x + 1/2, x^2 - x - 1, x^2 - 1/2,
# x^2 + x/3 + 1/5, x^3 - x - 1, x^3 - x/2 - 1/3 and x^4 - 4x^2 + 2
_ORACLE_FIELDS = [NumberField(QPolynomial(c)) for c in (
    [-3, 1], [Fraction(1, 2), 1], [-1, -1, 1], [Fraction(-1, 2), 0, 1],
    [Fraction(1, 5), Fraction(1, 3), 1], [-1, -1, 0, 1],
    [Fraction(-1, 3), Fraction(-1, 2), 0, 1], [2, 0, -4, 0, 1])]
_SCALARS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6),
    st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
              st.integers(1, 10 ** 4)))


@st.composite
def _element_cases(draw):
    """(K, x, y, r, n): a field, two elements (often rational, sometimes
    zero), a rational scalar and an exponent."""
    K = draw(st.sampled_from(_ORACLE_FIELDS))

    def element():
        coords = draw(st.lists(_SCALARS, min_size=K.degree,
                               max_size=K.degree))
        shape = draw(st.sampled_from(["full", "full", "rational", "zero"]))
        if shape == "rational":
            coords = coords[:1] + [0] * (K.degree - 1)
        elif shape == "zero":
            coords = [0] * K.degree
        return K.element(coords)

    return K, element(), element(), draw(_SCALARS), draw(st.integers(-3, 4))


class TestElementMatchesFractionOracle:
    """NFElement on integers over one denominator against the Fraction
    coordinate arithmetic it replaced (oracles.FractionElement)."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(_element_cases())
    def test_arithmetic(self, case):
        K, x, y, r, n = case
        fx, fy = (FractionElement(K, e.coeffs) for e in (x, y))

        def same(got, expected):
            assert got.field == K
            assert got.coeffs == expected.coeffs
            assert all(type(c) is Fraction for c in got.coeffs)
            # equal values store equal: a rebuilt copy equals and hashes alike
            copy = K.element(list(expected.coeffs))
            assert got == copy and hash(got) == hash(copy)

        same(x + y, fx + fy)
        same(x - y, fx - fy)
        same(x * y, fx * fy)
        same(-x, -fx)
        for got in (x * r, r * x):
            same(got, fx * r)
        same(x + r, fx + r)
        same(r + x, fx + r)
        same(x - r, fx - r)
        same(r - x, r - fx)
        if not x.is_zero():
            same(x.inverse(), fx.inverse())
            same(y / x, fy * fx.inverse())
            same(x ** n, fx ** n)
        elif n >= 0:
            same(x ** n, fx ** n)
        assert x.matrix().to_rows() == fx.matrix_rows()
        assert (x == y) == (fx == fy) == (x.coeffs == y.coeffs)
        assert (x == r) == (fx == r)
        if x == y:
            assert hash(x) == hash(y)
        if not any(x.coeffs[1:]):
            # a rational element equals and hashes like its Fraction
            assert x == x.coeffs[0] and hash(x) == hash(x.coeffs[0])
            assert hash(x) == hash(fx)

    def test_large_powers(self):
        # exponents 0, 1 and 40 (and -7), on fields with t = 1 and t > 1
        for K in _ORACLE_FIELDS:
            x = K.element([Fraction(k + 2, 2 * k + 3)
                           for k in range(K.degree)])
            fx = FractionElement(K, x.coeffs)
            for n in (0, 1, 40, -7):
                assert (x ** n).coeffs == (fx ** n).coeffs, (K, n)
            assert K.gen() ** 0 == K.one() and K.gen() ** 1 == K.gen()

    def test_non_integral_defining_polynomial(self):
        K = _ORACLE_FIELDS[3]                    # x^2 - 1/2
        a = K.gen()
        assert a * a == Fraction(1, 2)
        assert a.inverse() == 2 * a
        assert a.matrix().to_rows() == [[0, 1], [Fraction(1, 2), 0]]
        assert {a * a, Fraction(1, 2)} == {Fraction(1, 2)}
        L = _ORACLE_FIELDS[6]                    # x^3 - x/2 - 1/3
        b = L.gen()
        assert b ** 3 == b / 2 + Fraction(1, 3)
        assert (b ** 2 + b) * (b ** 2 + b).inverse() == 1


def _eisenstein_field(rng, d):
    """A field of degree d defined by t x^d + 3 (c_(d-1) x^(d-1) + ... +
    c_0), with 3 dividing neither t nor c_0: irreducible by Eisenstein at
    3, and with t > 1 the monic defining polynomial is non-integral."""
    t = rng.choice([1, 1, 2, 5, 7])
    c0 = rng.choice([-4, -2, -1, 1, 2, 4])
    coeffs = [3 * c0] + [3 * rng.randint(-20, 20) for _ in range(d - 1)]
    return NumberField(QPolynomial(coeffs + [t]), check=False)


def _oracle_inverse(K, x):
    return FractionElement(K, x.coeffs).inverse().coeffs


def _check_inverses(seed, degrees):
    # per degree, a rational element, a generator power and dense elements
    # with rational coordinates, against Fraction Gauss-Jordan
    rng = random.Random(seed)
    for d in degrees:
        K = _eisenstein_field(rng, d)
        elements = [K.from_rational(Fraction(rng.randint(1, 99), 7)),
                    K.gen() ** rng.randint(0, d)]
        elements += [K.element([Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                         rng.randint(1, 50))
                                for _ in range(d)]) for _ in range(2)]
        for x in elements:
            y = x.inverse()
            assert y.coeffs == _oracle_inverse(K, x)
            assert x * y == 1 and y * x == K.one()


class TestInverse:
    """NFElement.inverse, by the extended primitive remainder sequence of
    polys, against the Fraction Gauss-Jordan inverse of the oracle."""

    def test_degree_one(self):
        K = NumberField(QPolynomial([Fraction(-7, 3), 2]))      # 2x - 7/3
        assert K._defining == (-7, 6)
        x = K.gen() * Fraction(5, 4) + 1
        assert x.inverse() == Fraction(24, 59)
        assert x.inverse().coeffs == _oracle_inverse(K, x)

    def test_non_monic_defining_polynomial(self):
        # 3x^2 - 7 is x^2 - 7/3, with t = 3
        K = NumberField(QPolynomial([-7, 0, 3]))
        assert K._defining == (-7, 0, 3)
        a = K.gen()
        assert a.inverse() == a * Fraction(3, 7)
        x = a * Fraction(2, 5) - Fraction(1, 3)
        assert x.inverse().coeffs == _oracle_inverse(K, x)

    def test_seeded_elements_to_degree_12(self):
        _check_inverses(2011, range(1, 13))

    @pytest.mark.slow
    def test_seeded_elements_at_degree_40_and_above(self):
        _check_inverses(2012, (40, 47))

    def test_shared_factor_is_an_invariant_error(self):
        # without the irreducibility check, x^2 + 1 divides the quartic
        K = NumberField(QPolynomial([1, 0, 2, 0, 1]), check=False)
        a = K.gen()
        for x in (a * a + 1, (a * a + 1) * (a + 3), (a * a + 1) * a * 5):
            with pytest.raises(InternalInvariantError, match="share a factor"):
                x.inverse()
        assert (a + 3).inverse() * (a + 3) == 1
        with pytest.raises(ZeroDivisionError):
            K.from_rational(0).inverse()


# the embedding fields below, plus x^2 - 1/2 and x^3 - x/2 - 1/3
_ROUTE_FIELDS = [NumberField(QPolynomial(c)) for c in (
    [-1, -1, 1], [-2, 0, 1], [-1, -1, 0, 1], [1, -2, -1, 1], [-3, 1],
    [Fraction(-1, 2), 0, 1], [Fraction(-1, 3), Fraction(-1, 2), 0, 1])]


@pytest.mark.parametrize("seed", range(4))
def test_embedding_reads_integers_like_the_fraction_row_route(seed):
    # the same answers, and the same interval after every call, as the
    # route through a Fraction QMatrix row, on seeded elements and epsilons
    rng = random.Random(seed)
    for K in _ROUTE_FIELDS:
        for lo, hi in isolate_real_roots(K.minpoly):
            ints, rows = RealEmbedding(K, lo, hi), RealEmbedding(K, lo, hi)
            for _ in range(20):
                coords = [Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                   rng.randint(1, 10 ** 4))
                          for _ in range(K.degree)]
                x = K.element(coords if rng.random() < 0.8
                              else [0] * K.degree)
                if rng.random() < 0.5:
                    assert ints.sign(x) == fraction_row_sign(rows, x)
                else:
                    eps = Fraction(1, 10 ** rng.randint(1, 90))
                    assert ints.approx(x, eps) == \
                        fraction_row_approx(rows, x, eps)
                assert (ints.lo, ints.hi) == (rows.lo, rows.hi)


_EIGEN_FIELDS = [NumberField(parse_poly(f)) for f in (
    "x^2 - x - 1", "x^3 - x - 1")]
_RATIONALS = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def _eigen_systems(draw):
    """(K, pairs, floor): 1-3 pairs (A, c), A an n x n rational matrix with
    n <= 5 and c in K, and a lower bound on the eigenspace dimension.

    A is dense and c random, or A = [[M, X], [0, R]] + t*I with M the
    matrix of the generator g and c = g + t, which has an eigenvector.  A
    further pair is random, or (A^2 + s*A, c^2 + s*c), which keeps every
    eigenvector of the first pair.
    """
    K = draw(st.sampled_from(_EIGEN_FIELDS))
    d = K.degree
    n = draw(st.integers(1, 5))
    elt = st.lists(_RATIONALS, min_size=d, max_size=d).map(K.element)

    def dense():
        return [[draw(_RATIONALS) for _ in range(n)] for _ in range(n)]

    often = st.sampled_from([True, True, True, False])
    rows = dense()
    if n >= d and draw(often):
        t = draw(_RATIONALS)
        m = K.gen().matrix()
        rows = [[m[i, j] if i < d else 0 for j in range(d)] + row[d:]
                for i, row in enumerate(rows)]
        A = QMatrix.from_rows(rows) + QMatrix.identity(n).scale(t)
        pairs, floor = [(A, K.gen() + t)], 1
    else:
        A = QMatrix.from_rows(rows)
        pairs, floor = [(A, draw(elt))], 0
    c = pairs[0][1]
    for _ in range(draw(st.integers(0, 2))):
        if draw(often):
            s = draw(_RATIONALS)
            pairs.append((A * A + A.scale(s), c * c + s * c))
        else:
            pairs.append((QMatrix.from_rows(dense()), draw(elt)))
            floor = 0
    return K, pairs, floor


_MATRIX_FIELDS = [NumberField(parse_poly(f)) for f in (
    "x^2 - x - 1", "x^3 - x - 1", "x^3 - 3*x - 1")]


@st.composite
def _matrix_cases(draw):
    """(K, a, b, rows): a field K, two elements and 1-4 coordinate rows."""
    K = draw(st.sampled_from(_MATRIX_FIELDS))
    coords = st.lists(_RATIONALS, min_size=K.degree, max_size=K.degree)
    rows = draw(st.lists(coords, min_size=1, max_size=4))
    return K, K.element(draw(coords)), K.element(draw(coords)), rows


class TestMultiplicationMatrix:
    """NFElement.matrix(): row k holds the coordinates of a^k * self."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(_matrix_cases())
    def test_rows_products_and_trace(self, case):
        K, a, b, rows = case
        m = a.matrix()
        assert (a * b).matrix() == m * b.matrix()
        assert (a + b).matrix() == m + b.matrix()
        power = K.one()
        for k in range(K.degree):
            assert m.row(k) == list((power * a).coeffs)
            power = power * K.gen()
        image = QMatrix.from_rows(rows) * m
        assert image.to_rows() == [list((K.element(r) * a).coeffs)
                                   for r in rows]
        assert a.trace() == sum(m[k, k] for k in range(K.degree))

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(_matrix_cases())
    def test_product_is_the_polynomial_remainder(self, case):
        K, a, b, _ = case
        x = sympy.Symbol("x")

        def poly(coeffs):
            return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(coeffs)], x)

        rem = (poly(a.coeffs) * poly(b.coeffs)).rem(poly(K.minpoly.coeffs))
        assert rem.as_expr() == poly((a * b).coeffs).as_expr()


class TestEigenspace:
    """kronecker_eigenspace(pairs), the joint eigenspace over K as coordinate
    matrices by restriction of scalars: the test oracle for the dual and
    possibly-old eigenvectors, itself checked against Gauss-Jordan over K."""

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(_eigen_systems())
    def test_matches_gauss_jordan_over_the_field(self, system):
        K, pairs, floor = system
        n = pairs[0][0].rows
        rows = [[A[i, j] - c if i == j else A[i, j] for j in range(n)]
                for A, c in pairs for i in range(n)]
        expected = [QMatrix.from_rows([x.coeffs for x in v])
                    for v in elimination_nf_kernel(K, rows)]
        got = kronecker_eigenspace(pairs)
        assert got == expected
        assert len(got) >= floor
        for X in got:
            assert all(A * X == X * c.matrix() for A, c in pairs)

    def test_second_pair_cuts_the_space(self, golden_ratio_field):
        K = golden_ratio_field
        m = K.gen().matrix()

        def block_diagonal(top, bottom):
            return QMatrix.from_rows([row + [0, 0] for row in top.to_rows()]
                                     + [[0, 0] + row for row in bottom.to_rows()])

        A = block_diagonal(m, m)
        both = kronecker_eigenspace([(A, K.gen())])
        assert len(both) == 2
        # the basis is 1 at its free entries, 1 and 3, in that order
        assert [X.row(1) for X in both] == [[1, 0], [0, 0]]
        assert [X.row(3) for X in both] == [[0, 0], [1, 0]]
        # -M on the second block has eigenvalue -g there, so the pair
        # (diag(M, -M), g) keeps only the first block
        (X,) = kronecker_eigenspace([(A, K.gen()),
                                     (block_diagonal(m, -m), K.gen())])
        assert X == both[0]
        assert X.row(2) == X.row(3) == [0, 0]

    def test_bad_pairs(self, golden_ratio_field, sqrt2_field):
        a, b = golden_ratio_field.gen(), sqrt2_field.gen()
        square = QMatrix.identity(2)
        with pytest.raises(DomainError):
            kronecker_eigenspace([])
        with pytest.raises(DimensionError):
            kronecker_eigenspace([(QMatrix.zeros(2, 3), a)])
        with pytest.raises(DimensionError):
            kronecker_eigenspace([(square, a), (QMatrix.identity(3), a)])
        with pytest.raises(DomainError):
            kronecker_eigenspace([(square, a), (square, b)])

    def test_dual_eigenspace_of_every_new_orbit(self):
        # w+ spans the oracle's line of the verified pairs and the star pair
        # (S^T, 1), so it reads the oracle's a_p
        count = 0
        for N in range(1, 60):
            space = ModularSymbolSpace(N)
            if space.genus == 0:
                continue
            for orbit in decompose(space):
                if not orbit.possibly_old:
                    _assert_dual_matches_oracle(space, orbit)
                    count += 1
        assert count == 53

    def test_dual_block_is_cut_where_orbits_share_a_minimal_polynomial(
            self, built_primes):
        # 307/2 and 307/3 agree at 2, the smallest level with such a pair:
        # their dual block at p* = 2 has dimension 2 and is cut at 3
        space = ModularSymbolSpace(307)
        orbits = decompose(space)
        for orbit in orbits[2:4]:
            built_primes.clear()
            _assert_dual_matches_oracle(space, orbit)
            assert built_primes == [2, 3]

    @pytest.mark.slow
    def test_dual_eigenvector_sweep(self, built_primes):
        # every certainly-new orbit at N < 200 against the oracle; at 389
        # and 997 the oracle takes minutes at high degree, so there each
        # a_p is checked on the primal eigenvector instead.  997/0 and
        # 997/1 agree at 2 and 3, so their dual blocks are cut at 3 and 5.
        count = 0
        for N in range(1, 200):
            space = ModularSymbolSpace(N)
            for orbit in decompose(space) if space.genus else ():
                if not orbit.possibly_old:
                    _assert_dual_matches_oracle(space, orbit)
                    count += 1
        assert count == 336
        for N in (389, 997):
            space = ModularSymbolSpace(N)
            for k, orbit in enumerate(decompose(space)):
                built_primes.clear()
                W = dual_eigenvector(space, orbit)
                assert built_primes == (
                    [2, 3, 5] if (N, k) in {(997, 0), (997, 1)}
                    else [orbit.defining_prime]), (N, k)
                _assert_dual_reads_primal_eigenvalues(space, orbit, W)


@pytest.fixture
def built_primes(monkeypatch):
    """The primes at which eigen builds a Hecke operator, in order."""
    built = []
    build = eigen.hecke_matrix
    monkeypatch.setattr(eigen, "hecke_matrix",
                        lambda space, p: built.append(p) or build(space, p))
    return built


def test_dual_eigenvector_refuses_a_wrong_field():
    # an orbit whose field no dual eigensystem has: the +1 dual block at p*
    # is empty, and the route refuses it
    space = ModularSymbolSpace(23)
    (orbit,) = decompose(space)
    K = NumberField(parse_poly("x^2 - 3"))
    orbit.field, orbit.degree = K, 2
    orbit.coefficient_map = {2: K.gen()}
    with pytest.raises(InternalInvariantError,
                       match="dual block of dimension 0 at degree 2"):
        dual_eigenvector(space, orbit)


def _normalized(X, field):
    return X * leading_entry(X, field)[1].inverse().matrix()


def _assert_dual_matches_oracle(space, orbit):
    K = orbit.field
    star = space.star_matrix().transpose()
    pairs = [(hecke_matrix(space, p).transpose(), c)
             for p, c in orbit.coefficient_map.items()]
    # the star rows first: the same reduced basis, in a fifth of the time
    (line,) = kronecker_eigenspace([(star, K.one())] + pairs)
    W = dual_eigenvector(space, orbit)
    assert _normalized(W, K) == _normalized(line, K), (space.N, orbit)


def _assert_dual_reads_primal_eigenvalues(space, orbit, W):
    """W is fixed by the transposed star, and W^T T_p = c_p W^T at the first
    primes, none dividing the level, with c_p read off the orbit's primal
    eigenvector by T_p on the +1 half."""
    K = orbit.field
    star = space.star_matrix().transpose()
    assert star * W == W
    basis, free = space.plus_span()
    v = QMatrix.from_rows([x.coeffs for x in orbit.eigenvector])
    lead = leading_entry(v, K)[0]
    for p in (2, 3, 5, 7, 11, 13):
        T = hecke_matrix(space, p)
        image = T.restrict(basis, free) * v
        den, rows = image.integer_rows()
        c = K.from_integers(den, rows[lead])
        assert image == v * c.matrix(), (space.N, p)
        assert T.transpose() * W == W * c.matrix(), (space.N, p)


class TestRealEmbeddings:
    def test_totally_real(self):
        for poly, totally_real in (("x^2 - x - 1", True), ("x^2 - 2", True),
                                   ("x^2 + 1", False), ("x^3 - 2", False)):
            K = NumberField(parse_poly(poly))
            assert (len(K.real_embeddings()) == K.degree) == totally_real

    def test_embedding_count_and_order(self, golden_ratio_field):
        embs = golden_ratio_field.real_embeddings()
        assert len(embs) == 2
        a = golden_ratio_field.gen()
        # embeddings ordered by image of generator: (1-sqrt5)/2 < (1+sqrt5)/2
        assert embs[0].sign(a) == -1
        assert embs[1].sign(a) == 1

    def test_sign_exactness(self, golden_ratio_field):
        K = golden_ratio_field
        a = K.gen()
        emb = K.real_embeddings()[1]          # phi = (1+sqrt5)/2
        assert emb.sign(a - 1) == 1           # phi > 1
        assert emb.sign(a - 2) == -1          # phi < 2
        assert emb.sign(a * a - a - 1) == 0   # exactly zero
        # golden ratio identity: 1/phi = phi - 1
        assert emb.sign(1 / a - (a - 1)) == 0

    def test_approx_accuracy(self, sqrt2_field):
        K = sqrt2_field
        a = K.gen()
        emb = K.real_embeddings()[1]          # +sqrt2
        eps = Fraction(1, 10 ** 30)
        ap = emb.approx(a, eps)
        # |ap^2 - 2| <= |ap - s||ap + s| <= eps * 4
        assert abs(ap * ap - 2) < 4 * eps

    def test_approx_of_rational_combination(self, golden_ratio_field):
        K = golden_ratio_field
        a = K.gen()
        emb = K.real_embeddings()[1]
        # phi^2 = phi + 1, so value is exactly phi + 1 ~ 2.618
        ap = emb.approx(a * a, Fraction(1, 10 ** 6))
        assert Fraction(26, 10) < ap < Fraction(27, 10)

    def test_degree_one_embedding(self):
        K = NumberField(parse_poly("x - 3"))
        embs = K.real_embeddings()
        assert len(embs) == 1
        assert embs[0].sign(K.gen() - 2) == 1
        assert embs[0].sign(K.gen() - 3) == 0
        assert embs[0].approx(K.gen(), Fraction(1, 100)) is not None

    def test_cubic_real_embeddings(self):
        # x^3 - x - 1 has exactly one real root (plastic number ~ 1.3247)
        K = NumberField(parse_poly("x^3 - x - 1"))
        embs = K.real_embeddings()
        assert len(embs) == 1
        a = K.gen()
        assert embs[0].sign(a - 1) == 1
        assert embs[0].sign(a - 2) == -1


# the golden field and the other --poly fields of the benchmark's Keane
# probes, ascending coefficients, and a degree-1 field whose root 3 is a
# bisection midpoint of its isolating interval (-4, 4)
_EMBEDDING_FIELDS = [NumberField(QPolynomial(c)) for c in (
    [-1, -1, 1], [-2, 0, 1], [-3, 0, 1], [-5, 0, 1], [-6, 0, 1], [-7, 0, 1],
    [-1, -1, 0, 1], [-1, -3, 0, 1], [1, -2, -1, 1], [-3, 1])]
_COORDINATE = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                        st.integers(1, 10 ** 4))


@st.composite
def _embedding_calls(draw):
    """(K, (lo, hi), calls): a real place of K by its isolating interval,
    and up to 12 calls ("sign", coeffs), ("approx", coeffs, eps) or
    ("refine",)."""
    K = draw(st.sampled_from(_EMBEDDING_FIELDS))
    interval = draw(st.sampled_from(isolate_real_roots(K.minpoly)))
    coeffs = st.one_of(
        st.lists(_COORDINATE, min_size=K.degree, max_size=K.degree),
        st.just([0] * K.degree))
    eps = st.builds(Fraction, st.integers(1, 10),
                    st.integers(1, 10 ** 60))
    call = st.one_of(st.tuples(st.just("sign"), coeffs),
                     st.tuples(st.just("approx"), coeffs, eps),
                     st.tuples(st.just("refine")))
    return K, interval, draw(st.lists(call, min_size=1, max_size=12))


class TestIntegerEmbeddingMatchesFractions:
    """RealEmbedding against the Fraction interval route it replaced: the
    same signs and approximations, and the same interval after each call."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              database=None)
    @given(_embedding_calls())
    def test_same_answers_and_intervals(self, case):
        K, (lo, hi), calls = case
        ints, fracs = RealEmbedding(K, lo, hi), FractionEmbedding(K, lo, hi)
        for name, *args in calls:
            if name == "refine":
                ints._refine()
                fracs._refine()
            else:
                args[0] = K.element(args[0])
                assert getattr(ints, name)(*args) == getattr(fracs, name)(*args)
            assert (ints.lo, ints.hi) == (fracs.lo, fracs.hi)

    def test_rational_root_branch(self):
        K = _EMBEDDING_FIELDS[-1]                      # x - 3
        ints, fracs = RealEmbedding(K, -4, 4), FractionEmbedding(K, -4, 4)
        for _ in range(6):
            ints._refine()
            fracs._refine()
            assert (ints.lo, ints.hi) == (fracs.lo, fracs.hi)
        # the third bisection lands on 3; later steps shrink around it
        assert (ints.lo, ints.hi) == (Fraction(47, 16), Fraction(49, 16))


def _non_integral_fields(seed):
    """Per degree 1..4, two checked fields whose monic defining polynomial
    has a non-integral coefficient, so that a^d has a denominator t > 1."""
    rng = random.Random(seed)
    for d in range(1, 5):
        found = 0
        while found < 2:
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                      for _ in range(d)] + [1]
            if all(c.denominator == 1 for c in coeffs):
                continue
            try:
                K = NumberField(QPolynomial(coeffs))
            except DomainError:
                continue
            assert K._defining[-1] > 1
            found += 1
            yield K


def test_from_poly_equals_horner_in_k():
    # one integer remainder by the defining polynomial gives the element
    # that Horner's rule in K gives, for polynomials up to degree 3d
    rng = random.Random(36)
    for K in _non_integral_fields(3601):
        for n in range(3 * K.degree + 1):
            p = QPolynomial([Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                             for _ in range(n)] + [Fraction(rng.randint(1, 5),
                                                            rng.randint(1, 4))])
            assert K.from_poly(p) == horner_from_poly(K, p), (K, p)
        assert K.from_poly(QPolynomial([])) == K.from_rational(0)
    K = NumberField(parse_poly("x^2 - x - 1"))
    p = parse_poly("x^40 + 3*x^7 - 1/2")
    assert K.from_poly(p) == horner_from_poly(K, p)


def _padded_integers(coeffs, d):
    """(den, ints): rational coordinates padded to length d, in lowest
    terms (the lcm of reduced denominators leaves no common factor)."""
    cs = [Fraction(c) for c in coeffs] + [Fraction(0)] * (d - len(coeffs))
    den = lcm(*(c.denominator for c in cs))
    return den, tuple(c.numerator * (den // c.denominator) for c in cs)


def test_gen_and_element_store_reduced_integers():
    # gen() and element() go through the one reduction by the defining
    # polynomial: the rational root at degree 1, the unit vector above it,
    # the padded coordinates for up to d coefficients and Horner's rule in
    # K beyond, each stored as the same lowest-terms integers
    rng = random.Random(38)
    for K in _non_integral_fields(3801):
        d = K.degree
        gen = (K.from_rational(-K.minpoly.coeffs[0]) if d == 1
               else K.from_integers(1, [0, 1] + [0] * (d - 2)))
        assert K.gen().integers == gen.integers
        for n in range(3 * d + 1):
            coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 9))
                      for _ in range(n - 1)] + [rng.randint(-3, 3)] * (n > 0)
            if n <= d:
                expected = _padded_integers(coeffs, d)
            else:
                acc = K.from_rational(0)
                for c in reversed(coeffs):
                    acc = acc * gen + c
                expected = acc.integers
            assert K.element(coeffs).integers == expected, (K, coeffs)
        assert K.element([1] + [0] * 2 * d).integers == _padded_integers([1], d)


def test_narrow_lands_on_the_interval_of_approx():
    # halving the isolating interval below num/den gives the interval that
    # approx of the generator to num/den reaches, with the same integers
    rng = random.Random(3602)
    fields = _EMBEDDING_FIELDS[:-1] + list(_non_integral_fields(3603))
    for K in fields:
        if K.degree < 2:
            continue
        for lo, hi in isolate_real_roots(K.minpoly):
            for _ in range(3):
                num, den = rng.randint(1, 10 ** 3), rng.randint(1, 10 ** 40)
                by_approx, by_narrow = (RealEmbedding(K, lo, hi)
                                        for _ in range(2))
                by_approx.approx(K.gen(), Fraction(num, den))
                by_narrow.narrow(num, den)
                assert ((by_narrow._lo_num, by_narrow._hi_num,
                         by_narrow._denom)
                        == (by_approx._lo_num, by_approx._hi_num,
                            by_approx._denom))
                assert (by_narrow.hi - by_narrow.lo) * den < num
    emb = _EMBEDDING_FIELDS[0].real_embeddings()[-1]
    for num, den in ((0, 1), (1, 0), (-1, 5)):
        with pytest.raises(DomainError):
            emb.narrow(num, den)
