"""The argument policy: every entry point that takes a number reads it
through `arith._as_int` (an integer) or `arith._as_fraction` (an exact
rational), so a float, a bool, a string or a Decimal is a DomainError that
names the argument, at every entry point alike."""

import re
from decimal import Decimal
from fractions import Fraction

import pytest

from modfol.errors import DomainError
from modfol.foliation import JacobianModule, basis_change, classify_torus
from modfol.iet import IET, iet_apply
from modfol.linalg import QMatrix
from modfol.modsym import ModularSymbolSpace
from modfol.numfield import NFElement, NumberField
from modfol.polys import QPolynomial

GOLDEN = NumberField(QPolynomial([-1, -1, 1]))      # x^2 - x - 1
EMBEDDING = GOLDEN.real_embeddings()[-1]
HALVES = IET([Fraction(1, 2), Fraction(1, 2)], [2, 1])
GOLDEN_IET = IET([GOLDEN.one(), GOLDEN.gen()], [2, 1])
SPACE = ModularSymbolSpace(11)
MODULE = JacobianModule(GOLDEN, [GOLDEN.one(), GOLDEN.gen()])

# label: (call, the argument's name in the error, an exact value it takes);
# call(x) hands x to the entry point as that one argument
ENTRY_POINTS = {
    "IET lengths": (lambda x: IET([x, Fraction(1, 2)], [2, 1]), "lengths",
                    Fraction(1, 3)),
    "IET field lengths": (lambda x: IET([GOLDEN.gen(), x], [2, 1]),
                          "lengths", 1),
    "IET.coerce": (HALVES.coerce, "a point", Fraction(1, 4)),
    "IET.coerce over a field": (GOLDEN_IET.coerce, "a point", 1),
    "IET.interval_index": (HALVES.interval_index, "a point", Fraction(1, 4)),
    "iet_apply": (lambda x: iet_apply(HALVES, x), "a point", 0),
    "iet_apply over a field": (lambda x: iet_apply(GOLDEN_IET, x), "a point",
                               Fraction(1, 2)),
    "path start": (lambda x: SPACE.path(x, None), "path endpoint",
                   Fraction(1, 3)),
    "path end": (lambda x: SPACE.path(0, x), "path endpoint", 2),
    "loop_class": (lambda x: SPACE.loop_class((x, 0, 11, 1)),
                   "matrix entries", 1),
    "classify_torus": (lambda x: classify_torus([x, 1, 1, 1]),
                       "matrix entries", 2),
    "classify_torus rows": (lambda x: classify_torus([[2, 1], [1, x]]),
                            "matrix entries", 1),
    "basis_change": (lambda x: basis_change(MODULE, [[x, 0], [0, 1]]),
                     "matrix entries", 1),
    "RealEmbedding.narrow num": (lambda x: EMBEDDING.narrow(x, 3), "num", 1),
    "RealEmbedding.narrow den": (lambda x: EMBEDDING.narrow(1, x), "den", 3),
    "RealEmbedding.approx eps": (lambda x: EMBEDDING.approx(GOLDEN.gen(), x),
                                 "eps", Fraction(1, 10)),
    "RealEmbedding.approx elt": (
        lambda x: EMBEDDING.approx(x, Fraction(1, 10)), "a rational", 1),
    "NumberField.from_rational": (GOLDEN.from_rational, "a rational",
                                  Fraction(2, 3)),
    "NumberField.coerce": (GOLDEN.coerce, "a rational", 5),
    "QPolynomial": (lambda x: QPolynomial([1, x]), "coefficients",
                    Fraction(1, 2)),
    "QMatrix": (lambda x: QMatrix(1, 2, [1, x]), "matrix entries",
                Fraction(1, 2)),
    "QMatrix.from_rows": (lambda x: QMatrix.from_rows([[1], [x]]),
                          "matrix entries", 7),
    "NFElement": (lambda x: NFElement(GOLDEN, [1, x]), "coordinates",
                  Fraction(-1, 2)),
}


@pytest.mark.parametrize("value", [2.0, True, "1/2", Decimal("0.5")],
                         ids=["float", "bool", "str", "Decimal"])
@pytest.mark.parametrize("label", list(ENTRY_POINTS))
def test_inexact_values_are_refused(label, value):
    call, name, _ = ENTRY_POINTS[label]
    message = r"^%s must be int( or Fraction)?, not %s$" % (
        re.escape(name), type(value).__name__)
    with pytest.raises(DomainError, match=message):
        call(value)


@pytest.mark.parametrize("label", list(ENTRY_POINTS))
def test_exact_values_are_read(label):
    call, _, value = ENTRY_POINTS[label]
    call(value)
