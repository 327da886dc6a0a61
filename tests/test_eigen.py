"""Orbit decomposition of the cuspidal space and eigenvector rescaling."""

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from modfol import eigen, pipeline
from modfol.arith import _primes_up_to, is_prime
from modfol.cli import main
from modfol.congruence import curve_data
from modfol.eigen import (
    _plus_hecke_matrix,
    _poly_at_matrix,
    decompose,
    rescale_eigenvector,
)
from modfol.errors import (
    DomainError,
    InternalInvariantError,
    MultiplicityError,
    UndecidedSplitError,
)
from modfol.hecke import hecke_matrix
from modfol.linalg import QMatrix
from modfol.modsym import ModularSymbolSpace
from modfol.numfield import NumberField
from modfol.pipeline import analyze_level
from modfol.polys import QPolynomial, factor_poly, parse_poly

from oracles import (elimination_eigenvector, eta_product_qexp,
                     fraction_poly_at_matrix, horner_adjugate_column,
                     identity_start_decompose, per_part_primary_blocks,
                     plus_hecke_two_step)


def field_of(text):
    return NumberField(parse_poly(text))


def apply_over_field(mat, vec, field):
    out = []
    for i in range(mat.rows):
        s = field.from_rational(0)
        for j, x in enumerate(vec):
            if mat[i, j]:
                s = s + mat[i, j] * x
        out.append(s)
    return out


def random_unimodular(rng, n, steps=14):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


# -- rescale_eigenvector -----------------------------------------------------------


def test_rescale_fibonacci_matrix():
    K = field_of("x^2 - x - 1")
    lam = K.gen()
    x = rescale_eigenvector(QMatrix.from_rows([[1, 1], [1, 0]]), lam)
    assert x[0] == K.one()
    assert x[1] == lam - 1


def test_rescale_diagonal_matrix():
    K = field_of("x - 2")
    x = rescale_eigenvector(QMatrix.from_rows([[2, 0], [0, 3]]), K.gen())
    assert x == (K.one(), K.from_rational(0))


def test_rescale_rotation_over_gaussian_field():
    K = field_of("x^2 + 1")
    lam = K.gen()
    x = rescale_eigenvector(QMatrix.from_rows([[0, -1], [1, 0]]), lam)
    assert x[0] == K.one()
    assert x[1] == -lam


def test_rescale_zero_leading_coordinate():
    # eigenvector of eigenvalue 3 is e_2: leading coordinate skips a zero
    K = field_of("x - 3")
    x = rescale_eigenvector(QMatrix.from_rows([[2, 0], [0, 3]]), K.gen())
    assert x == (K.from_rational(0), K.one())


def test_rescale_multiplicity_error():
    K = field_of("x - 1")
    with pytest.raises(MultiplicityError):
        rescale_eigenvector(QMatrix.identity(2), K.gen())


def test_rescale_rejects_non_eigenvalue():
    K = field_of("x - 5")
    with pytest.raises(DomainError):
        rescale_eigenvector(QMatrix.from_rows([[2, 0], [0, 3]]), K.gen())


def test_rescale_projective_invariance_under_integer_base_change():
    rng = random.Random(20260814)
    cases = [
        (QMatrix.from_rows([[1, 1], [1, 0]]), field_of("x^2 - x - 1")),
        # companion matrix of a totally real cubic
        (QMatrix.from_rows([[0, 0, -1], [1, 0, 2], [0, 1, 1]]),
         field_of("x^3 - x^2 - 2*x + 1")),
    ]
    for T, K in cases:
        lam = K.gen()
        x = rescale_eigenvector(T, lam)
        n = T.rows
        for _ in range(10):
            rows = random_unimodular(rng, n)
            U = QMatrix.from_rows(rows)
            # U is unimodular, so its inverse is an integer matrix
            Uinv = QMatrix.from_rows([[int(e) for e in row] for row in
                                      sympy.Matrix(rows).inv().tolist()])
            Tc = U * T * Uinv
            xc = rescale_eigenvector(Tc, lam)
            ux = apply_over_field(U, x, K)
            # same projective point: cross products all vanish
            for i in range(n):
                for j in range(n):
                    assert xc[i] * ux[j] == xc[j] * ux[i]


def test_rescale_jordan_block():
    # algebraic multiplicity 2, geometric multiplicity 1
    K = field_of("x - 2")
    x = rescale_eigenvector(QMatrix.from_rows([[2, 1], [0, 2]]), K.gen())
    assert x == (K.one(), K.from_rational(0))


def test_rescale_repeated_block_multiplicity_error():
    # diag(B, B) with B the Fibonacci matrix: each eigenvalue has a
    # two-dimensional eigenspace over K
    K = field_of("x^2 - x - 1")
    T = QMatrix.from_rows([[1, 1, 0, 0], [1, 0, 0, 0],
                           [0, 0, 1, 1], [0, 0, 1, 0]])
    with pytest.raises(MultiplicityError):
        rescale_eigenvector(T, K.gen())


def test_rescale_quadratic_non_eigenvalue():
    K = field_of("x^2 - 2")
    with pytest.raises(DomainError):
        rescale_eigenvector(QMatrix.from_rows([[1, 1], [1, 0]]), K.gen())


def test_rescale_empty_matrix():
    K = field_of("x - 1")
    with pytest.raises(DomainError):
        rescale_eigenvector(QMatrix.from_rows([]), K.gen())


_small = st.integers(-5, 5)


def _similar(draw, rows):
    """Conjugate by a few elementary integer matrices E = I + t*e_ij."""
    n = len(rows)
    m = [r[:] for r in rows]
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        t = draw(st.sampled_from([-1, 1, 2]))
        if i == j:
            continue
        m[i] = [a + t * b for a, b in zip(m[i], m[j])]      # E * m
        for r in m:                                          # m * E^-1
            r[j] -= t * r[i]
    return m


@st.composite
def _eigen_cases(draw):
    """(T, lam): T is a random n x n matrix (n <= 6, entries in +-5) or a
    block triangular [[B, C], [0, B']] made similar by an integer change
    of basis, with B' = B for repeated charpoly factors and C = 0 for
    eigenspaces of dimension 2, and half the time conjugated by a diagonal
    matrix to make the entries rational; lam is a root of a charpoly
    factor, a rational or a quadratic irrational, or one that does not
    generate its field: a root of a charpoly factor f (else of x^2 - 2) as
    the square of a root of f(x^2), and a rational (a root of a linear
    factor when there is one) in Q(sqrt 2)."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 6))
        rows = [[draw(_small) for _ in range(n)] for _ in range(n)]
    else:
        k = draw(st.integers(1, 3))
        b = [[draw(_small) for _ in range(k)] for _ in range(k)]
        if draw(st.booleans()):
            b2 = [r[:] for r in b]
        else:
            k2 = draw(st.integers(1, 3))
            b2 = [[draw(_small) for _ in range(k2)] for _ in range(k2)]
        k2 = len(b2)
        zero_c = draw(st.booleans())
        c = [[0 if zero_c else draw(_small) for _ in range(k2)]
             for _ in range(k)]
        rows = ([b[i] + c[i] for i in range(k)]
                + [[0] * k + b2[i] for i in range(k2)])
        rows = _similar(draw, rows)
    if draw(st.booleans()):
        # D*T*D^-1 for a diagonal D: rational entries, same eigenvalues
        d = [draw(st.integers(1, 6)) for _ in rows]
        rows = [[Fraction(x * d[i], d[j]) for j, x in enumerate(r)]
                for i, r in enumerate(rows)]
    T = QMatrix.from_rows(rows)
    factors = [f for f, _ in factor_poly(QPolynomial(T.charpoly()))]
    at_squares = (f.evaluate(QPolynomial.x() ** 2) for f in factors
                  if f.degree <= 2)
    squares = ([g for g in at_squares if factor_poly(g) == [(g, 1)]]
               or [parse_poly("x^4 - 2")])
    roots = [-f.coeffs[0] for f in factors if f.degree == 1] or [draw(_small)]
    choice = draw(st.sampled_from(["root", "rational", "quadratic", "square",
                                   "embedded"]))
    if choice == "square":
        lam = NumberField(draw(st.sampled_from(squares))).gen() ** 2
    elif choice == "embedded":
        lam = field_of("x^2 - 2").from_rational(draw(st.sampled_from(roots)))
    elif choice == "root" and factors:
        lam = NumberField(draw(st.sampled_from(factors))).gen()
    elif choice == "quadratic":
        lam = field_of(draw(st.sampled_from(["x^2 - 2", "x^2 - x - 1",
                                             "x^2 + 1"]))).gen()
    else:
        lam = NumberField(QPolynomial([-draw(_small), 1])).gen()
    return T, lam


def _outcome(route, T, lam):
    try:
        return route(T, lam)
    except (DomainError, MultiplicityError) as err:
        return type(err)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_eigen_cases())
def test_rescale_matches_elimination_oracle(case):
    T, lam = case
    assert _outcome(rescale_eigenvector, T, lam) == _outcome(
        elimination_eigenvector, T, lam)


_rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 1000))


@st.composite
def _horner_cases(draw):
    """(mat, factor, multiplicity): a rational matrix (denominators up to
    10^3, n <= 6; block triangular half the time, so that charpolys
    split and repeat) and one factor of its charpoly."""
    n = draw(st.integers(1, 6))
    rows = [[draw(_rationals) for _ in range(n)] for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        k = draw(st.integers(1, n - 1))
        for i in range(k, n):
            rows[i][:k] = [Fraction(0)] * k
        if 2 * k == n and draw(st.booleans()):
            for i in range(k):
                rows[k + i][k:] = rows[i][:k]
    mat = QMatrix.from_rows(rows)
    poly, mult = draw(st.sampled_from(factor_poly(QPolynomial(mat.charpoly()))))
    return mat, poly, mult


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_horner_cases())
def test_horner_and_its_powers_equal_fraction_horner(case):
    mat, poly, mult = case
    got = _poly_at_matrix(poly, mat)
    expected = fraction_poly_at_matrix(poly, mat)
    assert got == expected
    power, expected_power = got, expected
    for _ in range(mult - 1):
        power = power * got
        expected_power = expected_power * expected
    assert power == expected_power == _poly_at_matrix(poly ** mult, mat)


# -- primary blocks and the adjugate column against per-part oracles ----------------

_PARTS = ("x", "x - 1", "x + 2", "x^2 - 2", "x^2 + x - 1", "x^2 + 1",
          "x^3 - x - 1", "x^3 - 3*x + 1")


def _companion(poly):
    """Companion matrix of a monic integer polynomial."""
    cs = [int(c) for c in poly.coeffs]
    n = len(cs) - 1
    return [[int(i == j + 1) for j in range(n - 1)] + [-cs[i]]
            for i in range(n)]


def _block_matrix(rng, parts):
    """A seeded integer matrix whose charpoly has the primary parts
    (f, m): per part the companion matrix of f^m or, half the time when
    m > 1, of f^(m-1) and f beside it, so f has two Jordan chains; the
    blocks sit on the diagonal and are mixed by integer row operations
    and their inverse column operations."""
    blocks = []
    for f, m in parts:
        if m > 1 and rng.random() < 0.5:
            blocks += [_companion(f ** (m - 1)), _companion(f)]
        else:
            blocks.append(_companion(f ** m))
    n = sum(len(b) for b in blocks)
    rows, at = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[at + i][at:at + len(b)] = row
        at += len(b)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        t = rng.choice([-2, -1, 1, 2])
        rows[i] = [a + t * b for a, b in zip(rows[i], rows[j])]
        for r in rows:
            r[j] -= t * r[i]
    return QMatrix.from_rows(rows)


def _seeded_parts(seed):
    """2-5 distinct irreducible parts with multiplicities 1-3, at most
    16 dimensions, sorted as factor_poly sorts them."""
    rng = random.Random(seed)
    parts = []
    for text in rng.sample(_PARTS, rng.randint(2, 5)):
        f, m = parse_poly(text), rng.randint(1, 3)
        if sum(g.degree * k for g, k in parts) + f.degree * m <= 16:
            parts.append((f, m))
    if len(parts) < 2:
        parts.append((parse_poly("x - 3"), 1))
    parts.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return rng, parts


def _whole(T):
    """The one block before any split: the whole space, with no operators
    and no factors yet."""
    return [(QMatrix.identity(T.rows), list(range(T.rows)), {}, {})]


@pytest.mark.parametrize("seed", range(16))
def test_primary_blocks_match_per_part_kernels(seed):
    # an echelon basis determines its free rows (where it is the identity),
    # so equal blocks are equal (block, free) pairs
    rng, parts = _seeded_parts(seed)
    T = _block_matrix(rng, parts)
    S = T * T - T.scale(2)
    oracle = per_part_primary_blocks(T)
    assert [f for f, _, _ in oracle] == [f for f, _ in parts]
    got = eigen._primary_blocks(eigen._primary_blocks(_whole(T), 2, T), 3, S)
    assert ([(block, free) for block, free, _, _ in got]
            == [(K, free) for _, K, free in oracle])
    for (_, _, mats, factors), (f, K, free) in zip(got, oracle):
        assert mats == {2: T.restrict(K, free), 3: S.restrict(K, free)}
        assert factors[2] == f
        assert factor_poly(QPolynomial(mats[3].charpoly()))[0][0] == factors[3]


@pytest.mark.parametrize("seed", range(16))
def test_adjugate_column_matches_horner_over_k(seed):
    # on the block of each simple part f, T has charpoly f; the block over
    # a denominator D has charpoly f(D x) / D^d, with non-integral
    # coefficients, so the integer recurrence carries both denominators
    rng, parts = _seeded_parts(seed)
    T = _block_matrix(rng, parts)
    for (f, m), (_, K, free) in zip(parts, per_part_primary_blocks(T)):
        if m == 1:
            block = T.restrict(K, free)
            D = rng.choice([2, 3, 10])
            for M in (block, block.scale(Fraction(1, D))):
                chi = QPolynomial(M.charpoly())
                assert (eigen._adjugate_column(M, chi)
                        == horner_adjugate_column(
                            M, NumberField(chi, check=False).gen(),
                            chi.coeffs))


@pytest.mark.parametrize("parts, low", [
    ((("x - 1", 2), ("x^3 - x - 1", 1)), 0),
    ((("x^2 - 2", 2), ("x^3 - x - 1", 1)), 1),
    ((("x + 2", 1), ("x^3 - 3*x + 1", 3)), 0),
])
def test_two_part_split_evaluates_its_lower_degree_side_once(
        monkeypatch, parts, low):
    parts = [(parse_poly(f), m) for f, m in parts]
    T = _block_matrix(random.Random(7), parts)
    calls = []

    def counting(poly, mat):
        calls.append(poly)
        return _poly_at_matrix(poly, mat)

    monkeypatch.setattr(eigen, "_poly_at_matrix", counting)
    blocks = eigen._primary_blocks(_whole(T), 2, T)
    f, m = parts[low]
    assert calls == [f ** m]
    assert [b.cols for b, _, _, _ in blocks] == [g.degree * k for g, k in parts]


# -- decompose ---------------------------------------------------------------------


def test_level11_single_rational_orbit():
    sp = ModularSymbolSpace(11)
    orbits = decompose(sp, [2])
    assert len(orbits) == 1
    orb = orbits[0]
    assert orb.degree == 1
    assert orb.defining_prime == 2
    assert orb.coefficient_map[2] == Fraction(-2)
    assert orb.eigenvector == (orb.field.one(),)
    assert orb.multiplicity == 1 and not orb.possibly_old


def test_level23_quadratic_orbit():
    sp = ModularSymbolSpace(23)
    orbits = decompose(sp, [2])
    assert len(orbits) == 1
    orb = orbits[0]
    assert orb.degree == 2
    assert orb.field.minpoly == parse_poly("x^2 + x - 1")
    assert orb.eigenvalue == orb.field.gen()
    assert len(orb.eigenvector) == 2


def test_level37_two_rational_orbits_in_trace_order():
    sp = ModularSymbolSpace(37)
    orbits = decompose(sp, [2, 3])
    assert [o.degree for o in orbits] == [1, 1]
    assert [o.coefficient_map[2] for o in orbits] == [Fraction(-2), Fraction(0)]
    assert [o.coefficient_map[3] for o in orbits] == [Fraction(-3), Fraction(1)]


def test_level11_eigenvalues_match_eta_product():
    sp = ModularSymbolSpace(11)
    eta = eta_product_qexp(11, 20)
    orbits = decompose(sp, [2, 3, 5, 7, 13])
    assert len(orbits) == 1
    for p in (2, 3, 5, 7, 13):
        assert orbits[0].coefficient_map[p] == Fraction(eta[p])


def test_eigenvector_identity_exact_for_all_computed_primes():
    for N, ps in ((11, [2, 3]), (23, [2, 3]), (37, [2, 3]), (43, [2, 3])):
        sp = ModularSymbolSpace(N)
        for orb in decompose(sp, ps):
            for p in ps:
                tp = _plus_hecke_matrix(sp, p)
                image = apply_over_field(tp, orb.eigenvector, orb.field)
                expected = [orb.coefficient_map[p] * x for x in orb.eigenvector]
                assert image == expected


def test_blocks_split_again_at_a_later_prime():
    # a block of the first prime splits again at a later one, so the free
    # rows of the new blocks are composed through two kernels
    for N, ps, shape in ((57, [2, 5, 7], [(1, 1), (1, 1), (1, 2), (1, 1)]),
                         (77, [2, 3, 5], [(1, 2), (1, 1), (1, 1), (1, 1),
                                          (2, 1)])):
        sp = ModularSymbolSpace(N)
        orbits = decompose(sp, ps)
        assert [(o.degree, o.multiplicity) for o in orbits] == shape
        for orb in orbits:
            for p in ps:
                image = apply_over_field(_plus_hecke_matrix(sp, p),
                                         orb.eigenvector, orb.field)
                assert image == [orb.coefficient_map[p] * x
                                 for x in orb.eigenvector]


def test_eigenvector_leading_one():
    for N in (23, 37, 67):
        sp = ModularSymbolSpace(N)
        for orb in decompose(sp):
            lead = next(x for x in orb.eigenvector if not x.is_zero())
            assert lead == orb.field.one()


def test_degree_sum_and_totally_real_across_prime_levels():
    for N in [p for p in _primes_up_to(100) if p >= 11]:
        sp = ModularSymbolSpace(N)
        orbits = decompose(sp)
        assert sum(2 * o.degree for o in orbits) == 2 * sp.genus
        for orb in orbits:
            assert 1 <= orb.degree <= sp.genus
            assert orb.multiplicity == 1 and not orb.possibly_old
            assert len(orb.field.real_embeddings()) == orb.field.degree


def test_undecided_split_at_113_names_next_prime():
    sp = ModularSymbolSpace(113)
    with pytest.raises(UndecidedSplitError) as exc:
        decompose(sp, [2])
    assert exc.value.next_prime == 3
    orbits = decompose(sp, [2, 3])
    assert [o.degree for o in orbits] == [1, 2, 3, 3]


def test_decompose_escalates_from_the_first_coprime_prime():
    sp = ModularSymbolSpace(113)
    orbits = decompose(sp)
    assert [o.degree for o in orbits] == [1, 2, 3, 3]
    assert sum(2 * o.degree for o in orbits) == 2 * sp.genus
    assert all(set(o.coefficient_map) == {2, 3} for o in orbits)


def test_decompose_stops_at_the_prime_limit(monkeypatch):
    monkeypatch.setattr(eigen, "PRIME_LIMIT", 1)
    with pytest.raises(UndecidedSplitError) as exc:
        decompose(ModularSymbolSpace(113))
    assert exc.value.next_prime == 3


def test_resumed_split_equals_the_split_with_the_longer_list():
    # the escalation at 113 adds 3 to [2] and splits only the blocks it
    # has, at 3: the orbits, eigenvectors and classes are those of one
    # run with [2, 3]
    assert analyze_level(113) == analyze_level(113, [2, 3])


def _count_steps(monkeypatch):
    """Count the calls of the steps that a restart would repeat."""
    calls = {}

    def counted(name, fn):
        def counting(*args):
            calls[name] += 1
            return fn(*args)
        return counting

    for name in ("_plus_hecke_matrix", "factor_poly", "_poly_at_matrix"):
        calls[name] = 0
        monkeypatch.setattr(eigen, name, counted(name, getattr(eigen, name)))
    return calls


def test_escalation_builds_each_operator_once(monkeypatch):
    # a restart would build T_2 twice, factor the +1 half at 2 twice and
    # evaluate every split again.  The W_N eigenspaces (dimensions 3 and 6)
    # are factored at 2 apart, one call more than the one identity block
    # took (5), and only the 6-dimensional one splits, into three parts by
    # two cuts, where the whole half's four parts took three
    calls = _count_steps(monkeypatch)
    decompose(ModularSymbolSpace(113))
    assert calls == {"_plus_hecke_matrix": 2, "factor_poly": 6,
                     "_poly_at_matrix": 2}


@pytest.mark.slow
def test_escalation_at_997_resumes_and_keeps_its_bytes(monkeypatch):
    # 997 escalates from [2] to [2, 3, 5]; restarting took 6, 24 and 19.
    # The W_N eigenspaces (38 and 44) are factored at 2 apart and then hold
    # eight blocks, not seven: W_N parts the two rational orbits that agree
    # at 2 and 3.  So 2 + 8 + 8 factorizations where the identity start
    # took 1 + 7 + 7, and 4 + 2 cuts at 2 where its seven parts took six,
    # with no cut at 5, which parted that pair before
    calls = _count_steps(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["decompose", "997", "--no-cache"]) == 0
    assert calls == {"_plus_hecke_matrix": 3, "factor_poly": 18,
                     "_poly_at_matrix": 6}
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "304501015540c2071eddd5b64327333541a181d28abfab07a65b43b56ff26433")


@pytest.mark.parametrize("N, ps, pairs", [(57, [2, 5, 7], 8),
                                          (113, [2, 3], 6)])
def test_each_block_and_prime_factored_once(monkeypatch, N, ps, pairs):
    # pairs visited: a block is factored at each prime in turn until one
    # splits it, and each part inherits the factors up to that prime, so
    # it is factored only at the primes after it.  At the prime level 113
    # the +1 half starts as two W_N eigenspaces, each factored at 2, and
    # their four blocks at 3: 6, where one identity block took 1 + 4
    calls = []

    def counting(poly):
        calls.append(poly)
        return factor_poly(poly)

    monkeypatch.setattr(eigen, "factor_poly", counting)
    decompose(ModularSymbolSpace(N), ps)
    assert len(calls) == pairs


def test_atkin_lehner_sign_is_minus_a_N():
    # at a prime level W_N acts on each orbit by eps_N = -a_N (Atkin &
    # Lehner 1970), with a_N its eigenvalue under T_N, which the Heilbronn
    # walk builds at p = N as at any other prime
    for N in [p for p in _primes_up_to(100) if p >= 11 and p != 13]:
        sp = ModularSymbolSpace(N)
        W = sp.plus_atkin_lehner()
        T_N = hecke_matrix(sp, N).restrict(*sp.plus_span())
        for orb in decompose(sp):
            vec, field = list(orb.eigenvector), orb.field
            image = apply_over_field(T_N, vec, field)
            a_N = image[next(i for i, x in enumerate(vec) if not x.is_zero())]
            assert a_N * a_N == field.one(), N
            assert image == [a_N * x for x in vec], N
            assert apply_over_field(W, vec, field) == \
                [-a_N * x for x in vec], N


def test_a_non_involution_w_is_an_internal_error(monkeypatch):
    # QMatrix.restrict certifies that W_N commutes with each T_p, and every
    # prime-level decomposition checks that it squares to 1
    build = ModularSymbolSpace.plus_atkin_lehner
    monkeypatch.setattr(ModularSymbolSpace, "plus_atkin_lehner",
                        lambda space: build(space).scale(2))
    with pytest.raises(InternalInvariantError, match="W_N does not square"):
        decompose(ModularSymbolSpace(37))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["decompose", "37", "--no-cache"]) == 3
    assert "W_N does not square to 1" in out.getvalue()
    # composite levels start from the identity block and never build W_N
    assert decompose(ModularSymbolSpace(22), [3, 5])


@pytest.mark.parametrize("levels", [
    range(2, 201),
    pytest.param(range(2, 401), marks=pytest.mark.slow)])
def test_records_equal_the_identity_start(monkeypatch, levels):
    # the W_N eigenspaces are unions of orbits, and a primary block's span,
    # echelon basis and normalised eigenvector do not depend on the route
    for N in filter(is_prime, levels):
        record = analyze_level(N)
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "decompose", identity_start_decompose)
            assert analyze_level(N) == record, N


def test_undecided_splits_equal_the_identity_start():
    # both routes raise the same error, or none, at every explicit prime
    # list; 19 of these 210 runs are undecided, among them 37 at [7],
    # where W_N parts the two orbits (see the test below)
    undecided = 0
    for N in filter(is_prime, range(11, 201)):
        sp = ModularSymbolSpace(N)
        for ps in ([2], [3], [5], [7], [2, 3]):
            if N in ps:
                continue
            errors = []
            for route in (decompose, identity_start_decompose):
                try:
                    route(sp, ps)
                    errors.append(None)
                except UndecidedSplitError as err:
                    errors.append((str(err), err.next_prime))
            assert errors[0] == errors[1], (N, ps)
            undecided += errors[0] is not None
    assert undecided == 19


def test_orbits_parted_by_w_alone_count_as_one_block():
    # 37a and 37b share a_7 = -1 and have opposite signs under W_N, which
    # parts them: the two 1-dimensional blocks share their factor at 7
    with pytest.raises(UndecidedSplitError) as exc:
        decompose(ModularSymbolSpace(37), [7])
    assert str(exc.value).startswith("a 2-dimensional block")
    assert exc.value.next_prime == 11
    assert analyze_level(37, [7, 11])["primes"] == [7, 11]


@pytest.mark.slow
def test_997_at_primes_2_and_3_keeps_its_error_bytes():
    # W_N puts the two rational orbits that agree at 2 and 3 in blocks of
    # their own, and the identity start in one: the blocks sharing their
    # factors at every supplied prime count as one
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["decompose", "997", "--primes", "2,3", "--no-cache"])
    assert code == 3
    assert json.loads(out.getvalue())["error"] == (
        "a 2-dimensional block is not generated by any supplied eigenvalue; "
        "distinct orbits share all supplied primes -- try adding prime 5")


def test_composite_level_flags_possibly_old():
    # genus 2, all forms come from level 11 in two copies
    sp = ModularSymbolSpace(22)
    orbits = decompose(sp, [3, 5])
    assert len(orbits) == 1
    orb = orbits[0]
    assert orb.possibly_old
    assert orb.degree == 1 and orb.multiplicity == 2
    eta = eta_product_qexp(11, 8)
    assert orb.coefficient_map[3] == Fraction(eta[3])
    assert orb.coefficient_map[5] == Fraction(eta[5])


def test_composite_level_new_orbit_not_flagged():
    # genus 1; the single orbit is new at level 14
    sp = ModularSymbolSpace(14)
    orbits = decompose(sp, [3, 5])
    assert len(orbits) == 1
    assert not orbits[0].possibly_old
    assert orbits[0].multiplicity == 1


def test_decompose_rejects_bad_primes():
    sp = ModularSymbolSpace(11)
    with pytest.raises(DomainError):
        decompose(sp, [11])
    with pytest.raises(DomainError):
        decompose(sp, [4])
    with pytest.raises(DomainError):
        decompose(sp, [])


@pytest.mark.parametrize("p", [2.9, 2.0, True, "2"])
def test_decompose_refuses_non_int_primes(p):
    # int() read 2.9 as 2 and split by T_2
    with pytest.raises(DomainError, match="primes must be int"):
        decompose(ModularSymbolSpace(11), [p])


def test_decompose_genus_zero_is_empty():
    assert decompose(ModularSymbolSpace(10), [3]) == []


def test_plus_space_dimension_is_genus():
    for N in (11, 23, 37, 45, 60):
        sp = ModularSymbolSpace(N)
        basis, free = sp.plus_span()
        assert (basis.rows, basis.cols) == (sp.dim, sp.genus)
        assert sp.star_matrix() * basis == basis
        assert all(sp.is_cuspidal(basis.col(j)) for j in range(sp.genus))
        assert [basis.row(i) for i in free] == \
            QMatrix.identity(sp.genus).to_rows()


def test_plus_hecke_matrix_is_the_two_step_restriction():
    levels = [N for N in range(1, 61) if curve_data(N)["genus"]] + [131]
    for N in levels:
        sp = ModularSymbolSpace(N)
        for p in (2, 3, 5):
            if N % p:
                assert _plus_hecke_matrix(sp, p) == \
                    plus_hecke_two_step(sp, p), (N, p)
