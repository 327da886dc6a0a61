"""Jacobian modules, rank invariance, and the classification trichotomies."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from modfol.congruence import curve_data
from modfol.eigen import decompose
from modfol.errors import DimensionError, DomainError, NoCuspFormsError
from modfol.foliation import (
    FoliationKind,
    JacobianModule,
    TorusKind,
    basis_change,
    classify,
    classify_torus,
    module_rank,
    scale_module,
)
from modfol.linalg import QMatrix, lattice_key
from modfol.modsym import ModularSymbolSpace
from modfol.numfield import NumberField
from modfol.polys import parse_poly

GOLDEN = NumberField(parse_poly("x^2 - x - 1"))
CUBIC = NumberField(parse_poly("x^3 - x^2 - 2*x + 1"))
RATIONALS = NumberField(parse_poly("x - 1"))


def random_unimodular(rng, n, steps=12):
    if n == 1:
        return [[rng.choice([1, -1])]]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
    return m


# -- module rank ---------------------------------------------------------------------


def test_rank_of_rational_generators():
    J = JacobianModule(RATIONALS, [1, Fraction(1, 2), Fraction(1, 3)])
    assert module_rank(J) == 1


def test_rank_of_golden_pair():
    lam = GOLDEN.gen()
    J = JacobianModule(GOLDEN, [GOLDEN.one(), lam - 1])
    assert module_rank(J) == 2


def test_rank_of_zero_generator():
    J = JacobianModule(GOLDEN, [GOLDEN.from_rational(0)])
    assert module_rank(J) == 0


def test_empty_generators_rejected():
    with pytest.raises(DomainError):
        JacobianModule(GOLDEN, [])


# -- basis change ---------------------------------------------------------------------


def test_basis_change_identity():
    lam = GOLDEN.gen()
    J = JacobianModule(GOLDEN, [GOLDEN.one(), lam])
    J2 = basis_change(J, [[1, 0], [0, 1]])
    assert J2.generators == J.generators


def test_basis_change_shear_keeps_lattice():
    lam = GOLDEN.gen()
    J = JacobianModule(GOLDEN, [GOLDEN.one(), lam - 1])
    J2 = basis_change(J, [[1, 1], [0, 1]])
    assert J2.generators[0] == lam          # 1 + (lam - 1)
    assert J2.generators[1] == lam - 1
    assert module_rank(J2) == 2
    assert J2.lattice_key() == J.lattice_key()
    assert J2 == J


def test_basis_change_rational_gcd_lattice():
    J = JacobianModule(RATIONALS, [1, Fraction(1, 2)])
    J2 = basis_change(J, [[2, 1], [1, 1]])
    assert list(J2.generators) == [Fraction(5, 2), Fraction(3, 2)]
    assert module_rank(J2) == 1
    assert J2.lattice_key() == lattice_key([[Fraction(1, 2)]])


def test_basis_change_hands_the_determinant_ints():
    # a QMatrix holds integral Fractions, and is_unimodular reads ints only
    J = JacobianModule(GOLDEN, [GOLDEN.one(), GOLDEN.gen()])
    shear = [[1, 1], [0, 1]]
    assert basis_change(J, QMatrix.from_rows(shear)) == basis_change(J, shear)
    # the entries of rows read through _as_int: integral Fractions come in
    # a QMatrix
    for A in ([[1.5, 0], [0, 1]], [[Fraction(1), 1], [0, Fraction(1)]]):
        with pytest.raises(DomainError, match="matrix entries must be int"):
            basis_change(J, A)
    with pytest.raises(DomainError, match="matrix entries must be integers"):
        basis_change(J, QMatrix.from_rows([[Fraction(1, 2), 0], [0, 2]]))


def test_basis_change_rejects_bad_input():
    J = JacobianModule(RATIONALS, [1, Fraction(1, 2)])
    with pytest.raises(DomainError):
        basis_change(J, [[2, 0], [0, 1]])       # det 2
    with pytest.raises(DimensionError):
        basis_change(J, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DomainError):
        basis_change(J, [[Fraction(1, 2), 0], [0, 2]])


def test_basis_change_lattice_and_rank_invariance_randomized():
    rng = random.Random(1729)
    fields = [RATIONALS, GOLDEN, CUBIC]
    for _ in range(1000):
        K = rng.choice(fields)
        n = rng.randint(1, 4)
        gens = []
        for _ in range(n):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(K.degree)]
            gens.append(K.element(coeffs))
        J = JacobianModule(K, gens)
        A = random_unimodular(rng, n)
        J2 = basis_change(J, A)
        assert module_rank(J2) == module_rank(J)
        assert J2.lattice_key() == J.lattice_key()


# -- scaling ----------------------------------------------------------------------------


def test_scale_module_identity():
    J = JacobianModule(GOLDEN, [GOLDEN.one(), GOLDEN.gen()])
    assert scale_module(J, 1).generators == J.generators


def test_scale_module_examples():
    lam = GOLDEN.gen()
    J = JacobianModule(GOLDEN, [GOLDEN.one(), lam - 1])
    J2 = scale_module(J, 2)
    assert J2.generators == (GOLDEN.from_rational(2), 2 * lam - 2)
    assert module_rank(J2) == 2

    J3 = JacobianModule(RATIONALS, [1, Fraction(1, 2)])
    J4 = scale_module(J3, Fraction(1, 3))
    assert list(J4.generators) == [Fraction(1, 3), Fraction(1, 6)]
    assert module_rank(J4) == 1


def test_scale_module_by_field_element():
    lam = GOLDEN.gen()
    J = JacobianModule(GOLDEN, [GOLDEN.one(), lam])
    J2 = scale_module(J, lam)
    assert J2.generators == (lam, lam * lam)
    assert module_rank(J2) == 2


def test_scale_module_zero_rejected():
    J = JacobianModule(GOLDEN, [GOLDEN.one()])
    with pytest.raises(DomainError):
        scale_module(J, 0)


def test_scale_lattice_scales_by_mu_randomized():
    rng = random.Random(271828)
    for _ in range(300):
        K = rng.choice([RATIONALS, GOLDEN])
        n = rng.randint(1, 3)
        gens = [K.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                           for _ in range(K.degree)]) for _ in range(n)]
        J = JacobianModule(K, gens)
        mu = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        J2 = scale_module(J, mu)
        assert module_rank(J2) == module_rank(J)
        scaled_rows = [[mu * x for x in row] for row in J.coordinate_rows()]
        assert J2.lattice_key() == lattice_key(scaled_rows)


# -- rank = degree for eigenform orbits --------------------------------------------------


def test_module_rank_equals_orbit_degree():
    for N in (11, 23, 37, 43, 67):
        sp = ModularSymbolSpace(N)
        for orb in decompose(sp):
            J = JacobianModule(orb.field, orb.eigenvector)
            assert module_rank(J) == orb.degree


# -- classification of orbits -------------------------------------------------------------


def test_classify_level11_strebel():
    sp = ModularSymbolSpace(11)
    (orb,) = decompose(sp)
    fc = classify(orb, curve_data(11))
    assert fc.kind == FoliationKind.STREBEL
    assert (fc.degree, fc.genus, fc.separatrix_excess) == (1, 1, None)


def test_classify_level23_pseudo_anosov():
    sp = ModularSymbolSpace(23)
    (orb,) = decompose(sp)
    fc = classify(orb, curve_data(23))
    assert fc.kind == FoliationKind.PSEUDO_ANOSOV
    assert (fc.degree, fc.genus) == (2, 2)


def test_classify_level37_both_strebel():
    sp = ModularSymbolSpace(37)
    for orb in decompose(sp):
        assert classify(orb, curve_data(37)).kind == FoliationKind.STREBEL


def test_classify_level67_degenerate_case():
    sp = ModularSymbolSpace(67)
    kinds = []
    for orb in decompose(sp):
        fc = classify(orb, curve_data(67))
        kinds.append(fc.kind)
        if fc.kind == FoliationKind.DEGENERATE_PSEUDO_ANOSOV:
            assert fc.separatrix_excess == fc.genus - fc.degree == 3
    assert kinds == [FoliationKind.STREBEL,
                     FoliationKind.DEGENERATE_PSEUDO_ANOSOV,
                     FoliationKind.DEGENERATE_PSEUDO_ANOSOV]


def test_classify_trichotomy_is_total_and_exclusive():
    for N in (11, 23, 37, 43, 53, 67):
        curve = curve_data(N)
        for orb in decompose(ModularSymbolSpace(N)):
            fc = classify(orb, curve)
            strebel = fc.degree == 1
            pa = fc.degree == fc.genus and fc.genus >= 2
            degenerate = 2 <= fc.degree <= fc.genus - 1
            assert [strebel, pa, degenerate].count(True) == 1
            assert fc.kind == (
                FoliationKind.STREBEL if strebel
                else FoliationKind.PSEUDO_ANOSOV if pa
                else FoliationKind.DEGENERATE_PSEUDO_ANOSOV)


def test_classify_errors():
    sp = ModularSymbolSpace(11)
    (orb,) = decompose(sp)
    with pytest.raises(DomainError):
        classify(orb, curve_data(23))
    fake = SimpleNamespace(N=10, degree=1)
    with pytest.raises(NoCuspFormsError):
        classify(fake, curve_data(10))


# -- torus trichotomy ------------------------------------------------------------------------


def test_torus_golden_examples():
    assert classify_torus((1, 1, 0, 1)).kind == TorusKind.PARABOLIC_STREBEL
    assert classify_torus((0, -1, 1, 0)).kind == TorusKind.FINITE_ORDER
    t = classify_torus((2, 1, 1, 1))
    assert t.kind == TorusKind.ANOSOV
    assert t.trace == 3
    # dilatation is the larger root of x^2 - 3x + 1, i.e. (3 + sqrt5)/2
    assert t.dilatation.field.minpoly == parse_poly("x^2 - 3*x + 1")
    approx = t.embedding.approx(t.dilatation, Fraction(1, 10**30))
    assert abs(approx - Fraction(2618033988749894848204586834, 10**27)) \
        < Fraction(1, 10**20)


def test_torus_accepts_nested_rows_and_qmatrix():
    from modfol.linalg import QMatrix
    flat = classify_torus((2, 1, 1, 1))
    nested = classify_torus([[2, 1], [1, 1]])
    qm = classify_torus(QMatrix.from_rows([[2, 1], [1, 1]]))
    assert flat.kind == nested.kind == qm.kind == TorusKind.ANOSOV
    # a QMatrix is read off its integer rows, which need denominator 1
    with pytest.raises(DomainError, match="matrix entries must be integers"):
        classify_torus(QMatrix.from_rows([[Fraction(3, 2), 1],
                                          [Fraction(1, 2), 1]]))


def test_torus_negative_trace_dilatation_convention():
    # literal "larger root": for trace -3 that root is (-3 + sqrt5)/2
    t = classify_torus((-2, -1, -1, -1))
    assert t.kind == TorusKind.ANOSOV and t.trace == -3
    approx = t.embedding.approx(t.dilatation, Fraction(1, 10**20))
    assert Fraction(-1, 2) < approx < 0


def test_torus_plus_minus_identity_finite_order():
    assert classify_torus((1, 0, 0, 1)).kind == TorusKind.FINITE_ORDER
    assert classify_torus((-1, 0, 0, -1)).kind == TorusKind.FINITE_ORDER


def test_torus_determinant_checked():
    with pytest.raises(DomainError):
        classify_torus((1, 0, 0, -1))
    with pytest.raises(DomainError):
        classify_torus((2, 0, 0, 1))
    with pytest.raises(DimensionError):
        classify_torus((1, 0, 0))


def test_torus_finite_order_iff_twelfth_power_identity():
    def pow12_is_identity(a, b, c, d):
        m = (1, 0, 0, 1)
        for _ in range(12):
            m = (m[0] * a + m[1] * c, m[0] * b + m[1] * d,
                 m[2] * a + m[3] * c, m[2] * b + m[3] * d)
        return m == (1, 0, 0, 1)

    count = 0
    for a, b, c, d in itertools.product(range(-3, 4), repeat=4):
        if a * d - b * c != 1:
            continue
        count += 1
        t = classify_torus((a, b, c, d))
        assert (t.kind == TorusKind.FINITE_ORDER) == pow12_is_identity(a, b, c, d)
    assert count == 116   # number of det-1 matrices with entries in [-3, 3]
