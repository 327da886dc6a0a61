"""Number fields Q[x]/(f): exact arithmetic, eigenspaces, real embeddings.

Elements are coordinate vectors in the power basis 1, a, ..., a^(d-1) of a
root a of the monic irreducible defining polynomial, and a vector of K^n is
the n x d rational matrix of their coordinates (see eigenspace).  Real
embeddings carry an isolating interval as integers over one common
denominator and support exact sign queries and rational approximation to
any requested accuracy: bisection and interval Horner run on integers, the
exact zero test comes first, and no floating point enters any exact
decision.
"""

from fractions import Fraction

from .arith import _frac
from .errors import DimensionError, DomainError, InternalInvariantError
from .linalg import QMatrix
from .polys import QPolynomial, _sign_at, is_irreducible, isolate_real_roots


class NumberField:
    """Q[x]/(minpoly) for a monic irreducible minpoly."""

    __slots__ = ("minpoly", "degree", "_top", "_embeddings")

    def __init__(self, minpoly, check=True):
        if not isinstance(minpoly, QPolynomial):
            raise TypeError("minpoly must be a QPolynomial")
        if minpoly.degree < 1:
            raise DomainError("defining polynomial must be nonconstant")
        minpoly = minpoly.monic()
        if check and not is_irreducible(minpoly):
            raise DomainError("defining polynomial is not irreducible: %r"
                              % (minpoly,))
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self._top = tuple(-c for c in minpoly.coeffs[:-1])    # a^d
        self._embeddings = None

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return "NumberField(%r)" % (self.minpoly,)

    def zero(self):
        return NFElement(self, [0] * self.degree)

    def one(self):
        return self.from_rational(1)

    def gen(self):
        cs = [Fraction(0)] * self.degree
        if self.degree == 1:
            # a is rational: a = -c0
            return NFElement(self, [-self.minpoly.coeffs[0]])
        cs[1] = Fraction(1)
        return NFElement(self, cs)

    def from_rational(self, c):
        cs = [Fraction(0)] * self.degree
        cs[0] = _frac(c)
        return NFElement(self, cs)

    def element(self, coeffs):
        cs = [_frac(c) for c in coeffs]
        if len(cs) > self.degree:
            return self.from_poly(QPolynomial(cs))
        cs += [Fraction(0)] * (self.degree - len(cs))
        return NFElement(self, cs)

    def from_poly(self, p):
        """Image of a rational polynomial at the generator, by Horner in K."""
        acc, gen = self.zero(), self.gen()
        for c in reversed(p.coeffs):
            acc = acc * gen + c
        return acc

    def coerce(self, x):
        """x as an element of this field: an int, a Fraction, or an element
        of this field itself."""
        if isinstance(x, NFElement):
            if x.field != self:
                raise DomainError("element of a different field")
            return x
        return self.from_rational(x)

    def real_embeddings(self):
        """All real embeddings, ordered by the image of the generator."""
        if self._embeddings is None:
            ivs = isolate_real_roots(self.minpoly)
            self._embeddings = [RealEmbedding(self, lo, hi) for lo, hi in ivs]
        return list(self._embeddings)


class NFElement:
    """Element of a NumberField in power-basis coordinates."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = [_frac(c) for c in coeffs]
        if len(cs) != field.degree:
            raise DomainError("coordinate vector has wrong length")
        self.field = field
        self.coeffs = tuple(cs)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, NFElement):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        # an element equal to a rational must hash like that rational
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.field.minpoly.coeffs, self.coeffs))

    def __repr__(self):
        from .polys import format_poly
        return "NFElement(%s)" % (format_poly(QPolynomial(self.coeffs), var="a"),)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (NFElement, int, Fraction)):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NFElement(self.field, [a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return NFElement(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return NFElement(self.field, [a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scalar scales the coordinates: no field product
            if not other:
                return self.field.zero()
            return NFElement(self.field, [other * a for a in self.coeffs])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    if b:
                        prod[i + j] += a * b
        # a^k = a^(k-d) * a^d, from the top down
        for k in range(2 * d - 2, d - 1, -1):
            c = prod[k]
            if c:
                for j, r in enumerate(self.field._top):
                    prod[k - d + j] += c * r
        return NFElement(self.field, prod[:d])

    __rmul__ = __mul__

    def inverse(self):
        """y with y*self = 1: row k of matrix() holds a^k*self, so y's
        coordinates solve matrix()^T y = e_0, read off one rref."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        d = self.field.degree
        rows = self.matrix().transpose().to_rows()
        reduced, pivots = QMatrix.from_rows(
            [row + [int(k == 0)] for k, row in enumerate(rows)]).rref()
        if d in pivots:
            raise InternalInvariantError(
                "element and defining polynomial share a factor: the "
                "defining polynomial is not irreducible")
        return NFElement(self.field, reduced.col(d))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def matrix(self):
        """The d x d rational matrix of multiplication by self.

        Row k holds the coordinates of a^k * self, so an n x d matrix whose
        rows are coordinates of a K-vector, times this, holds those of the
        vector scaled by self.
        """
        row = list(self.coeffs)
        rows = [row]
        for _ in range(self.field.degree - 1):
            top, row = row[-1], [0] + row[:-1]
            if top:
                row = [x + top * r for x, r in zip(row, self.field._top)]
            rows.append(row)
        return QMatrix.from_rows(rows)

    def trace(self):
        """Trace of multiplication-by-self, a rational number."""
        m = self.matrix()
        return sum(m[k, k] for k in range(m.rows))


# -- linear algebra over a number field ------------------------------------------


def eigenspace(pairs):
    """Basis over K of {X : A*X = X*c.matrix() for every pair (A, c)}.

    A is an n x n rational QMatrix, c an element of one field K of degree
    d, and X the n x d coordinate matrix of a vector of K^n.  On the
    row-major entries of X the equations are A (x) I_d - I_n (x) c.matrix()^T,
    the restriction of scalars of A - c*I, which maps a reduced echelon form
    over K to one over Q: the rational kernel vector at free column j*d is
    the vector over K that is 1 at its free entry j, in free-entry order.
    """
    if not pairs:
        raise DomainError("eigenspace needs at least one (matrix, value) pair")
    field = pairs[0][1].field
    n, d = pairs[0][0].rows, field.degree
    rows = []
    for A, c in pairs:
        if (A.rows, A.cols) != (n, n):
            raise DimensionError("eigenspace needs square matrices of one size")
        if c.field != field:
            raise DomainError("eigenvalues lie in different fields")
        # the system times den_A * den_c, which leaves its kernel alone
        den_a, a = A.integer_rows()
        den_c, ct = c.matrix().transpose().integer_rows()
        for i, arow in enumerate(a):
            for r, crow in enumerate(ct):
                row = [den_c * x if k == r else 0 for x in arow for k in range(d)]
                for k, z in enumerate(crow):
                    row[i * d + k] -= den_a * z
                rows.append(row)
    basis, free = QMatrix.from_rows(rows).echelon_kernel()
    vectors = (basis.col(k) for k, f in enumerate(free) if f % d == 0)
    return [QMatrix.from_rows([v[j:j + d] for j in range(0, n * d, d)])
            for v in vectors]


def leading_entry(X, field):
    """(i, x): the first nonzero row of a coordinate matrix, and its element."""
    i = next(i for i, row in enumerate(X.integer_rows()[1]) if any(row))
    return i, NFElement(field, X.row(i))


# -- real embeddings ----------------------------------------------------------------


def _integers(values):
    """(D, ints): D > 0 and the integer coordinates of D * values."""
    den, (ints,) = QMatrix.from_rows([values]).integer_rows()
    return den, ints


class RealEmbedding:
    """A real place of a number field, held as an isolating interval.

    The generator's image is the unique root of the defining polynomial in
    the open interval (lo, hi) = (L/Q, H/Q), stored as integers L < H over
    one positive denominator Q.  All queries are exact and run on integers:
    an element with cleared denominators is bounded by interval Horner over
    [L, H], scaled by a positive power of Q, and the interval is bisected
    until the bound excludes 0 (for a sign) or is narrow enough (for an
    approximation).
    """

    __slots__ = ("field", "_lo_num", "_hi_num", "_denom", "_poly", "_rising")

    def __init__(self, field, lo, hi):
        self.field = field
        self._denom, (self._lo_num, self._hi_num) = _integers([lo, hi])
        # the defining polynomial with cleared denominators, and whether it
        # is negative at lo (it is nonzero there and changes sign once)
        self._poly = _integers(field.minpoly.coeffs)[1]
        self._rising = _sign_at(self._poly, self._lo_num, self._denom) < 0

    @property
    def lo(self):
        return Fraction(self._lo_num, self._denom)

    @property
    def hi(self):
        return Fraction(self._hi_num, self._denom)

    def __repr__(self):
        return "RealEmbedding(%r in (%s, %s))" % (self.field, self.lo, self.hi)

    def _refine(self):
        """One bisection step on the isolating interval."""
        lo, hi, den = self._lo_num, self._hi_num, self._denom
        s = _sign_at(self._poly, lo + hi, 2 * den)
        if s == 0:
            # rational root at the midpoint: shrink to the middle half
            lo, hi, den = 3 * lo + hi, lo + 3 * hi, 4 * den
        elif (s > 0) == self._rising:
            lo, hi, den = 2 * lo, lo + hi, 2 * den
        else:
            lo, hi, den = lo + hi, 2 * hi, 2 * den
        self._lo_num, self._hi_num, self._denom = lo, hi, den

    def _bounds(self, ints):
        """(lo, hi, Q^(n-1)): interval Horner over [L, H] bounding
        Q^(n-1) * sum ints[i] a^i, for n = len(ints) integer coordinates."""
        box_lo, box_hi, den = self._lo_num, self._hi_num, self._denom
        lo = hi = ints[-1]
        scale = 1
        for c in reversed(ints[:-1]):
            scale *= den
            c *= scale
            ps = (lo * box_lo, lo * box_hi, hi * box_lo, hi * box_hi)
            lo, hi = min(ps) + c, max(ps) + c
        return lo, hi, scale

    def enclosures(self, rows):
        """[(lo, hi)]: lo <= S * sum row[i] a^i <= hi for each integer row,
        with one scale S > 0 for all rows of one length, so enclosures add
        and compare; they stay valid when the interval is refined later."""
        return [self._bounds(row)[:2] for row in rows]

    def integer_sign(self, ints):
        """Exact sign (-1, 0, 1) of sum ints[i] a^i for integer coordinates
        ints in the power basis."""
        if not any(ints):
            return 0
        # a nonzero polynomial of degree < [K:Q] in the generator has a
        # nonzero image; refine until the interval excludes 0
        while True:
            lo, hi, _ = self._bounds(ints)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._refine()

    def sign(self, elt):
        """Exact sign (-1, 0, 1) of the image of elt under this embedding."""
        return self.integer_sign(_integers(self.field.coerce(elt).coeffs)[1])

    def approx(self, elt, eps):
        """Rational approximation of elt's image within eps (> 0)."""
        elt = self.field.coerce(elt)
        eps = _frac(eps)
        if eps <= 0:
            raise DomainError("eps must be positive")
        den, ints = _integers(elt.coeffs)
        while True:
            lo, hi, scale = self._bounds(ints)
            # the image lies in [lo, hi] / (den * scale)
            if (hi - lo) * eps.denominator < eps.numerator * den * scale:
                return Fraction(lo + hi, 2 * den * scale)
            self._refine()
