import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from modfol.eigen import _poly_at_matrix
from modfol.errors import DomainError
from modfol.linalg import (
    QMatrix,
    _hnf,
    is_unimodular,
    lattice_key,
)
from modfol.polys import QPolynomial, factor_poly

from oracles import fraction_rref


def rand_matrix(rng, n, m, lo=-9, hi=9, denom=1):
    return QMatrix.from_rows(
        [[Fraction(rng.randint(lo, hi), rng.randint(1, denom)) for _ in range(m)]
         for _ in range(n)]
    )


class TestArithmetic:
    def test_identity_multiplication(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(1, 5)
            a = rand_matrix(rng, n, n)
            assert a * QMatrix.identity(n) == a
            assert QMatrix.identity(n) * a == a

    def test_associativity(self):
        rng = random.Random(2)
        for _ in range(20):
            a = rand_matrix(rng, 3, 4)
            b = rand_matrix(rng, 4, 2)
            c = rand_matrix(rng, 2, 5)
            assert (a * b) * c == a * (b * c)

    def test_distributivity_and_scaling(self):
        rng = random.Random(3)
        a = rand_matrix(rng, 3, 3)
        b = rand_matrix(rng, 3, 3)
        c = rand_matrix(rng, 3, 3)
        assert a * (b + c) == a * b + a * c
        assert (2 * a) * b == 2 * (a * b)
        assert a.scale(Fraction(1, 3)).scale(3) == a

    def test_transpose_involution(self):
        rng = random.Random(5)
        a = rand_matrix(rng, 2, 5)
        assert a.transpose().transpose() == a


class TestSolveRankKernel:
    def test_rank_plus_nullity(self):
        rng = random.Random(7)
        for _ in range(15):
            n, m = rng.randint(1, 5), rng.randint(1, 5)
            a = rand_matrix(rng, n, m, lo=-3, hi=3)
            assert a.rank() + a.echelon_kernel()[0].cols == m

    def test_kernel_vectors_annihilate(self):
        rng = random.Random(8)
        for _ in range(15):
            a = rand_matrix(rng, 3, 5, lo=-3, hi=3)
            basis, _ = a.echelon_kernel()
            assert (a * basis).is_zero()

    def test_det_multiplicative(self):
        # det M is the constant term of charpoly, times (-1)^n
        rng = random.Random(9)
        for _ in range(10):
            a = rand_matrix(rng, 4, 4)
            b = rand_matrix(rng, 4, 4)
            assert (a * b).charpoly()[0] == a.charpoly()[0] * b.charpoly()[0]
        assert QMatrix.from_rows([[1, 2], [Fraction(1, 2), 1]]).charpoly()[0] == 0
        assert QMatrix(0, 0, []).charpoly()[0] == 1

    def test_rref_idempotent_and_pivots(self):
        rng = random.Random(10)
        a = rand_matrix(rng, 4, 6, lo=-3, hi=3)
        r, pivots = a.rref()
        r2, pivots2 = r.rref()
        assert r == r2 and pivots == pivots2
        for k, c in enumerate(pivots):
            assert r[k, c] == 1
            assert all(r[i, c] == 0 for i in range(r.rows) if i != k)


_rationals = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                       st.integers(1, 10 ** 6))
_entries = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                     _rationals)


@st.composite
def _matrices(draw):
    """Matrices of shape 0..8 x 0..8 with rank-deficient rows and zero rows
    and columns mixed in."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    m = [[draw(_entries) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        if draw(st.booleans()):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(_entries), draw(_entries)
            m[i] = [s * x + t * y for x, y in zip(m[a], m[b])]
    if rows and draw(st.booleans()):
        m[draw(st.integers(0, rows - 1))] = [Fraction(0)] * cols
    if cols and draw(st.booleans()):
        c = draw(st.integers(0, cols - 1))
        for row in m:
            row[c] = Fraction(0)
    return rows, cols, m


class TestFractionFreeRref:
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None)
    @given(_matrices())
    def test_matches_fraction_gauss_jordan(self, shape):
        rows, cols, m = shape
        reduced, pivots = QMatrix(rows, cols, [x for r in m for x in r]).rref()
        expected, expected_pivots = fraction_rref(m, cols)
        assert pivots == expected_pivots
        assert reduced.to_rows() == expected


class TestCharpoly:
    def test_diagonal(self):
        a = QMatrix.from_rows([[2, 0], [0, 3]])
        # x^2 - 5x + 6, ascending
        assert a.charpoly() == [Fraction(6), Fraction(-5), Fraction(1)]

    def test_cayley_hamilton(self):
        rng = random.Random(11)
        for _ in range(8):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, n, n, lo=-4, hi=4, denom=2)
            cp = a.charpoly()
            acc = QMatrix.zeros(n, n)
            power = QMatrix.identity(n)
            for c in cp:
                acc = acc + power.scale(c)
                power = power * a
            assert acc.is_zero()

    def test_trace_and_det_coefficients(self):
        rng = random.Random(12)
        for _ in range(8):
            n = rng.randint(1, 4)
            a = rand_matrix(rng, n, n)
            cp = a.charpoly()
            tr = sum(a[i, i] for i in range(n))
            assert cp[n] == 1
            assert cp[n - 1] == -tr
            assert cp[0] == (-1) ** n * _rat(_sym(a).det())


    @settings(max_examples=80, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.lists(
        st.builds(Fraction, st.integers(-50, 50), st.integers(1, 1000)),
        min_size=n * n, max_size=n * n).map(lambda data: (n, data))))
    def test_matches_sympy(self, shape):
        n, data = shape
        expected = sympy.Matrix(n, n, [sympy.Rational(x.numerator, x.denominator)
                                       for x in data]).charpoly().all_coeffs()
        got = QMatrix(n, n, data).charpoly()
        assert got == [Fraction(int(c.p), int(c.q)) for c in reversed(expected)]
        assert all(type(c) is Fraction for c in got)


_small = st.one_of(st.just(Fraction(0)), st.builds(
    Fraction, st.integers(-50, 50), st.integers(1, 1000)))


@st.composite
def _operands(draw):
    """(a, b: n x m, c: m x k, s: n x n, scalar, vector of length m) with
    every dimension in 0..6; each matrix is all zero now and then."""
    n, m, k = (draw(st.integers(0, 6)) for _ in range(3))

    def matrix(rows, cols):
        if draw(st.integers(0, 9)) == 0:
            return QMatrix.zeros(rows, cols)
        return QMatrix(rows, cols, [draw(_small) for _ in range(rows * cols)])

    vec = [draw(_small) for _ in range(m)]
    return (matrix(n, m), matrix(n, m), matrix(m, k), matrix(n, n),
            draw(_small), vec)


def _sym(a):
    return sympy.Matrix(a.rows, a.cols, [sympy.Rational(x.numerator, x.denominator)
                                         for r in a.to_rows() for x in r])


def _rat(x):
    return Fraction(int(x.p), int(x.q))


def _rows(s):
    return [[_rat(s[i, j]) for j in range(s.cols)] for i in range(s.rows)]


class TestAgainstSympy:
    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(_operands())
    def test_operations_match_sympy(self, ops):
        a, b, c, s, x, v = ops
        sa, ss = _sym(a), _sym(s)
        assert (a * c).to_rows() == _rows(sa * _sym(c))
        assert (a + b).to_rows() == _rows(sa + _sym(b))
        assert (a - b).to_rows() == _rows(sa - _sym(b))
        assert a.scale(x).to_rows() == _rows(
            sa * sympy.Rational(x.numerator, x.denominator))
        assert a.transpose().to_rows() == _rows(sa.T)
        assert (a * QMatrix(len(v), 1, v)).col(0) == \
            [_rat(y) for y in sa * sympy.Matrix(len(v), 1, v)]
        reduced, pivots = a.rref()
        sym_reduced, sym_pivots = sa.rref()
        assert (reduced.to_rows(), pivots) == (_rows(sym_reduced),
                                               list(sym_pivots))
        kernel, _ = a.echelon_kernel()
        assert [kernel.col(j) for j in range(kernel.cols)] == \
            [[_rat(y) for y in w] for w in sa.nullspace()]
        assert s.charpoly()[0] == (-1) ** s.rows * _rat(ss.det())
        assert s.charpoly() == [_rat(y) for y in
                                reversed(ss.charpoly().all_coeffs())]

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.integers(0, 6).flatmap(
        lambda m: st.lists(_small, min_size=n * m, max_size=n * m).map(
            lambda data: QMatrix(n, m, data)))))
    def test_int_and_fraction_storage_agree(self, a):
        den = lcm(*[x.denominator for r in a.to_rows() for x in r])
        ints = [[int(x * den) for x in r] for r in a.to_rows()]
        fracs = [[Fraction(x * 3, 3) for x in r] for r in ints]
        from_ints = QMatrix(a.rows, a.cols, [x for r in ints for x in r])
        from_fracs = QMatrix(a.rows, a.cols, [x for r in fracs for x in r])
        assert from_ints == from_fracs and hash(from_ints) == hash(from_fracs)
        assert from_ints == a.scale(den) and hash(from_ints) == hash(a.scale(den))
        assert from_ints.scale(Fraction(1, den)) == a


@st.composite
def _operator_and_spans(draw):
    """(T, spans): a small integer T and echelon spans (K, free), the
    kernels of f(T) for every factor f of its characteristic polynomial,
    which are T-invariant, plus the kernel of a random integer matrix,
    which in general is not."""
    n = draw(st.integers(1, 5))
    ints = st.integers(-3, 3)
    t = QMatrix(n, n, [draw(ints) for _ in range(n * n)])
    spans = [_poly_at_matrix(f, t).echelon_kernel()
             for f, _ in factor_poly(QPolynomial(t.charpoly()))]
    k = draw(st.integers(1, n))
    spans.append(QMatrix(k, n, [draw(ints) for _ in range(k * n)])
                 .echelon_kernel())
    return t, [(basis, free) for basis, free in spans if basis.cols]


class TestRestrict:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(_operator_and_spans())
    def test_matches_sympy_solution(self, case):
        t, spans = case
        for basis, free in spans:
            assert basis.select_rows(free) == QMatrix.identity(basis.cols)
            sb = _sym(basis)
            try:
                x, params = sb.gauss_jordan_solve(_sym(t) * sb)
            except ValueError:      # T * basis leaves the span
                with pytest.raises(DomainError):
                    t.restrict(basis, free)
                continue
            assert params.shape[0] == 0
            assert t.restrict(basis, free).to_rows() == _rows(x)


class TestHNFAndLattices:
    def test_hnf_canonical_under_row_ops(self):
        rng = random.Random(13)
        for _ in range(10):
            rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(3)]
            h1 = _hnf(rows)
            shuffled = rows[::-1]
            shuffled[0] = [a + 2 * b for a, b in zip(shuffled[0], shuffled[-1])]
            h2 = _hnf(shuffled + [[0, 0, 0, 0]])
            assert h1 == h2

    def test_lattice_key_detects_equality_and_difference(self):
        a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        b = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
        c = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert lattice_key(a) == lattice_key(b)
        assert lattice_key(a) != lattice_key(c)

    def test_lattice_key_scaling(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]
        half = [[x / 2 for x in row] for row in a]
        assert lattice_key(a) != lattice_key(half)
        back = [[x * 2 for x in row] for row in half]
        assert lattice_key(a) == lattice_key(back)

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.data())
    def test_is_unimodular_matches_sympy(self, data):
        # an integer matrix with n <= 6: random entries, or the identity
        # (with one entry 2, for det +-2) under row additions and swaps
        n = data.draw(st.integers(1, 6))
        kind = data.draw(st.sampled_from(["entries", "det 1", "det 2"]))
        if kind == "entries":
            rows = [[data.draw(st.integers(-3, 3)) for _ in range(n)]
                    for _ in range(n)]
        else:
            rows = [[int(i == j) for j in range(n)] for i in range(n)]
            rows[0][0] = 2 if kind == "det 2" else 1
            steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                              st.integers(-3, 3))
            for i, j, c in data.draw(st.lists(steps, max_size=8)):
                if c == 0:
                    rows[i], rows[j] = rows[j], rows[i]
                elif i != j:
                    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        det = sympy.Matrix(rows).det()
        if kind != "entries":
            assert abs(det) == (2 if kind == "det 2" else 1)
        assert is_unimodular(rows) == (abs(det) == 1)

    def test_is_unimodular_rejects_non_square_and_empty(self):
        assert not is_unimodular([])
        assert not is_unimodular([[1, 0]])
        assert not is_unimodular([[1], [0]])
        assert not is_unimodular([[1, 0], [0]])
