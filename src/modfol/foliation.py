"""Jacobian modules of measured foliations and the classification trichotomies.

A Jacobian module is the Z-module spanned by finitely many elements of a
totally real number field, viewed inside the real line.  Its rank equals
the Q-rank of the coordinate matrix in the power basis, is invariant
under unimodular changes of generators, and scales trivially; module
equality is decided through the Hermite normal form of the coordinate
lattice.

The classification of the foliation attached to an eigenform orbit
depends only on the degree d of its eigenvalue field against the genus
g: d = 1 gives a Strebel foliation (this case wins when g = 1, where
the two descriptions overlap), d = g with g >= 2 gives a pseudo-Anosov
one, and 2 <= d <= g-1 a degenerate pseudo-Anosov one with g - d extra
separatrix connections.  On the torus the same trichotomy is driven by
the trace of an SL(2, Z) matrix.
"""

import enum

from .arith import _as_int
from .errors import DimensionError, DomainError, NoCuspFormsError
from .linalg import QMatrix, is_unimodular, lattice_key
from .numfield import NFElement, NumberField
from .polys import QPolynomial


class JacobianModule:
    """Z-module spanned by elements of a number field."""

    __slots__ = ("field", "generators")

    def __init__(self, field, generators):
        gens = [field.coerce(g) for g in generators]
        if not gens:
            raise DomainError("a Jacobian module needs at least one generator")
        self.field = field
        self.generators = tuple(gens)

    def coordinate_rows(self):
        """Power-basis coordinates of the generators, one row each."""
        return [list(g.coeffs) for g in self.generators]

    def lattice_key(self):
        """Canonical (Hermite-form) key of the coordinate lattice."""
        return lattice_key(self.coordinate_rows())

    def __eq__(self, other):
        if not isinstance(other, JacobianModule):
            return NotImplemented
        return (self.field == other.field
                and self.lattice_key() == other.lattice_key())

    def __hash__(self):
        return hash((self.field, self.lattice_key()))

    def __repr__(self):
        return ("JacobianModule(degree=%d, generators=%d)"
                % (self.field.degree, len(self.generators)))


def module_rank(J):
    """Rank of the Z-module: Q-rank of the generator coordinate matrix, read
    off each generator's integers (a row times its denominator)."""
    return QMatrix.from_integer_rows(
        1, [g.integers[1] for g in J.generators]).rank()


def basis_change(J, A):
    """Replace generators by integer unimodular combinations A * generators."""
    rows = _integer_matrix(A, len(J.generators))
    if not is_unimodular(rows):
        raise DomainError("change of basis must be unimodular (det +-1)")
    gens = QMatrix.from_rows(rows) * QMatrix.from_rows(J.coordinate_rows())
    return JacobianModule(J.field, [NFElement(J.field, r) for r in gens.to_rows()])


def _integer_matrix(A, n):
    """The rows of an n x n integer matrix: a QMatrix over denominator 1,
    or rows of entries that each read through _as_int."""
    if isinstance(A, QMatrix):
        den, rows = A.integer_rows()
        if den != 1:
            raise DomainError("matrix entries must be integers")
    else:
        rows = list(A)
        if not all(isinstance(row, (tuple, list)) for row in rows):
            raise DomainError("matrix entries must be %d rows of ints" % n)
        rows = [[_as_int(x, "matrix entries") for x in row] for row in rows]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise DimensionError("expected a %d x %d matrix" % (n, n))
    return rows


def scale_module(J, mu):
    """Multiply every generator by a nonzero field element."""
    m = J.field.coerce(mu)
    if m.is_zero():
        raise DomainError("scaling by zero collapses the module")
    return JacobianModule(J.field, [m * g for g in J.generators])


# -- classification --------------------------------------------------------------


class FoliationKind(enum.Enum):
    STREBEL = "strebel"
    PSEUDO_ANOSOV = "pseudo_anosov"
    DEGENERATE_PSEUDO_ANOSOV = "degenerate_pseudo_anosov"


class FoliationClass:
    """Outcome of the degree-vs-genus trichotomy for one orbit."""

    __slots__ = ("kind", "degree", "genus", "separatrix_excess")

    def __init__(self, kind, degree, genus, separatrix_excess=None):
        self.kind = kind
        self.degree = degree
        self.genus = genus
        self.separatrix_excess = separatrix_excess

    def __repr__(self):
        extra = ("" if self.separatrix_excess is None
                 else ", separatrix_excess=%d" % self.separatrix_excess)
        return ("FoliationClass(%s, degree=%d, genus=%d%s)"
                % (self.kind.value, self.degree, self.genus, extra))


def classify(orbit, curve):
    """Classify the foliation of an eigenform orbit on its curve.

    ``curve`` is the dict produced by congruence.curve_data for the same
    level.  The kind depends only on degree d and genus g: d=1 Strebel
    (taking precedence at g=1 where the cases overlap), d=g >= 2
    pseudo-Anosov, otherwise degenerate pseudo-Anosov with g-d recorded
    as the separatrix excess.
    """
    if orbit.N != curve["N"]:
        raise DomainError("orbit and curve belong to different levels")
    g = curve["genus"]
    if g == 0:
        raise NoCuspFormsError("genus 0: no cusp forms, nothing to classify")
    d = orbit.degree
    if not 1 <= d <= g:
        raise DomainError("orbit degree %d outside 1..genus=%d" % (d, g))
    if d == 1:
        return FoliationClass(FoliationKind.STREBEL, d, g)
    if d == g:
        return FoliationClass(FoliationKind.PSEUDO_ANOSOV, d, g)
    return FoliationClass(FoliationKind.DEGENERATE_PSEUDO_ANOSOV, d, g,
                          separatrix_excess=g - d)


class TorusKind(enum.Enum):
    FINITE_ORDER = "finite_order"
    PARABOLIC_STREBEL = "parabolic_strebel"
    ANOSOV = "anosov"


class TorusClass:
    """Trace trichotomy for a torus automorphism from SL(2, Z).

    For the Anosov case, ``dilatation`` is the larger root of
    x^2 - trace*x + 1 as an element of its (real quadratic) field and
    ``embedding`` is the real embedding under which the generator is
    that larger root.
    """

    __slots__ = ("kind", "trace", "dilatation", "embedding")

    def __init__(self, kind, trace, dilatation=None, embedding=None):
        self.kind = kind
        self.trace = trace
        self.dilatation = dilatation
        self.embedding = embedding

    def __repr__(self):
        return "TorusClass(%s, trace=%d)" % (self.kind.value, self.trace)


def classify_torus(A):
    """Classify an SL(2, Z) matrix by its trace.

    |trace| <= 1 is finite order; |trace| = 2 is a parabolic (Strebel)
    twist except for +-identity, which induces the identity map and is
    finite order; |trace| > 2 is Anosov with quadratic dilatation.  A is
    a QMatrix, two rows, or the four entries a, b, c, d in row order.
    """
    if not isinstance(A, QMatrix):
        # four entries in row order; any other count but two rows is ragged
        A = list(A)
        if len(A) != 2:
            A = [A[:2], A[2:]]
    (a, b), (c, d) = _integer_matrix(A, 2)
    if a * d - b * c != 1:
        raise DomainError("matrix must have determinant 1")
    tr = a + d
    if b == 0 and c == 0 and a == d and abs(a) == 1:
        return TorusClass(TorusKind.FINITE_ORDER, tr)
    if abs(tr) <= 1:
        return TorusClass(TorusKind.FINITE_ORDER, tr)
    if abs(tr) == 2:
        return TorusClass(TorusKind.PARABOLIC_STREBEL, tr)
    field = NumberField(QPolynomial([1, -tr, 1]))
    lam = field.gen()
    emb = field.real_embeddings()[-1]
    return TorusClass(TorusKind.ANOSOV, tr, dilatation=lam, embedding=emb)
