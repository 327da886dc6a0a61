"""Number fields Q[x]/(f): exact arithmetic and real embeddings.

An element is its coordinate vector in the power basis 1, a, ..., a^(d-1)
of a root a of the monic irreducible defining polynomial, stored as
integers over one positive denominator in lowest terms, the normal form
QMatrix uses, so equal elements have equal storage; sums, products,
rational scalars and multiplication matrices run on those integers, and
``coeffs`` reads them back as Fractions.  A product is the integer
product of polys (`_zx_mul`), and it and the image of a polynomial at the
generator share one reduction by the defining polynomial; powers take
the binary-power loop of arith.  An inverse is the Bezout cofactor of
the element's integers against t times the defining polynomial, from
the extended primitive remainder sequence of polys (`_zx_cofactor`),
in O(d^2) steps where an elimination takes O(d^3), and it is checked by
one product.  A vector of K^n is the n x d rational matrix of its
coordinates, and eigen solves no system over K.
Real embeddings carry an isolating interval as integers over one common
denominator and support exact sign queries, rational approximation
to any requested accuracy and narrowing below a width: bisection and
interval Horner run on
integers, reading an element's integers directly, the exact zero test
comes first, and no floating point enters any exact decision.
"""

from fractions import Fraction
from math import lcm

from .arith import _as_fraction, _as_int, _integers, _lowest_terms, _power
from .errors import DomainError, InternalInvariantError
from .linalg import QMatrix
from .polys import (QPolynomial, _gfp_trim, _sign_at, _zx_cofactor, _zx_mul,
                    is_irreducible, isolate_real_roots)


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
        # (t, top): a^d = sum top[j] a^j / t, integers over t > 0
        self._top = _integers([-c for c in minpoly.coeffs[:-1]])
        self._embeddings = None

    def __eq__(self, other):
        return self is other or (isinstance(other, NumberField)
                                 and self.minpoly == other.minpoly)

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return "NumberField(%r)" % (self.minpoly,)

    def one(self):
        return self.from_rational(1)

    def gen(self):
        return self._reduce(1, [0, 1] + [0] * (self.degree - 2))

    def from_rational(self, c):
        c = _as_fraction(c, "a rational")
        return NFElement._make(self, c.denominator,
                               [c.numerator] + [0] * (self.degree - 1))

    def from_integers(self, den, ints):
        """The element with coordinates ints[k] / den, for integers ints
        and den > 0 (as QMatrix.integer_rows gives them)."""
        if len(ints) != self.degree:
            raise DomainError("coordinate vector has wrong length")
        return NFElement._make(self, den, list(ints))

    def element(self, coeffs):
        """sum coeffs[k] a^k, for int-or-Fraction coeffs of any length."""
        return self.from_poly(QPolynomial(coeffs))

    def from_poly(self, p):
        """Image of a rational polynomial at the generator: its integer
        coefficients, reduced once by the defining polynomial."""
        den, ints = _integers(p.coeffs)
        return self._reduce(den, ints + [0] * (self.degree - len(ints)))

    def _reduce(self, den, ints):
        """The element sum ints[k] a^k / den, for a list of at least degree
        integers: each term of degree k >= d, from the top down, becomes
        a^(k-d) * a^d, and a^d has denominator t."""
        d = self.degree
        t, top = self._top
        for k in range(len(ints) - 1, d - 1, -1):
            c = ints[k]
            if c:
                if t != 1:
                    ints[:k] = [t * x for x in ints[:k]]
                    den *= t
                for j, r in enumerate(top):
                    ints[k - d + j] += c * r
        return NFElement._make(self, den, ints[:d])

    def coerce(self, x):
        """x as an element of this field: an element of this field itself,
        or a rational read by from_rational."""
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
    """Element of a NumberField: power-basis coordinates ``_numer[k] /
    _denom``, integers over one positive denominator in lowest terms.

    Arithmetic runs on the integers and reduces once per result, as
    QMatrix does, so equality is equality of storage.  ``coeffs`` is the
    read-only Fraction view of the coordinates.
    """

    __slots__ = ("field", "_numer", "_denom")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != field.degree:
            raise DomainError("coordinate vector has wrong length")
        self.field = field
        self._denom, self._numer = _integers(coeffs, "coordinates")

    @classmethod
    def _make(cls, field, den, ints):
        """ints / den in lowest terms, for a list ints of degree length."""
        elt = cls.__new__(cls)
        elt.field = field
        elt._denom, elt._numer = _lowest_terms(den, ints)
        return elt

    @property
    def coeffs(self):
        """The coordinates as a tuple of Fractions."""
        den = self._denom
        return tuple(Fraction(x, den) for x in self._numer)

    @property
    def integers(self):
        """(den, ints): the coordinates as ints[k] / den, in lowest terms."""
        return self._denom, tuple(self._numer)

    # -- predicates ---------------------------------------------------------

    def is_zero(self):
        return not any(self._numer)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, NFElement):
            return (self._denom == other._denom and self._numer == other._numer
                    and self.field == other.field)
        if isinstance(other, (int, Fraction)):
            return (self._denom == other.denominator
                    and self._numer[0] == other.numerator
                    and not any(self._numer[1:]))
        return NotImplemented

    def __hash__(self):
        # an element equal to a rational must hash like that rational
        if not any(self._numer[1:]):
            return hash(Fraction(self._numer[0], self._denom))
        return hash((self.field.minpoly.coeffs, self._denom,
                     tuple(self._numer)))

    def __repr__(self):
        from .polys import format_poly
        return "NFElement(%s)" % (format_poly(QPolynomial(self.coeffs), var="a"),)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (NFElement, int, Fraction)):
            return self.field.coerce(other)
        return None

    def _combine(self, other, sign):
        """self + sign*other over the least common denominator."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        den = lcm(self._denom, o._denom)
        s, t = den // self._denom, sign * (den // o._denom)
        return NFElement._make(self.field, den, [
            s * a + t * b for a, b in zip(self._numer, o._numer)])

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return NFElement._make(self.field, self._denom,
                               [-a for a in self._numer])

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational scalar scales the coordinates: no field product
            return NFElement._make(self.field, self._denom * other.denominator,
                                   [other.numerator * a for a in self._numer])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field._reduce(self._denom * o._denom,
                                  _zx_mul(self._numer, o._numer))

    __rmul__ = __mul__

    def inverse(self):
        """y with y*self = 1: self is n(a)/den for integers n of degree
        below d, and the extended primitive remainder sequence of
        (t*minpoly, n) in Z[x] (polys._zx_cofactor) gives s*n = e modulo
        the defining polynomial, so y = den*s(a)/e, checked once."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        field = self.field
        t, top = field._top
        found = _zx_cofactor(_gfp_trim(list(self._numer)),
                             [-r for r in top] + [t])
        if found is None:
            raise InternalInvariantError(
                "element and defining polynomial share a factor: the "
                "defining polynomial is not irreducible")
        e, s = found
        y = field._reduce(e, [self._denom * x for x in s]
                          + [0] * (field.degree - len(s)))
        if y * self != 1:
            raise InternalInvariantError("inverse times element is not 1")
        return y

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
        return _power(self, n, self.field.one())

    def matrix(self):
        """The d x d rational matrix of multiplication by self.

        Row k holds the coordinates of a^k * self, so an n x d matrix whose
        rows are coordinates of a K-vector, times this, holds those of the
        vector scaled by self.  Each row is the last times a on integers:
        a shift, and the top coordinate times a^d, whose denominator t
        multiplies the row's.
        """
        d = self.field.degree
        t, top = self.field._top
        row = self._numer
        rows = [row]
        for _ in range(d - 1):
            hi, row = row[-1], [0] + row[:-1]
            if t != 1:
                row = [t * x for x in row]
            if hi:
                row = [x + hi * r for x, r in zip(row, top)]
            rows.append(row)
        if t != 1:
            # row k is over den * t^k: bring every row to den * t^(d-1)
            rows = [[t ** (d - 1 - k) * x for x in row]
                    for k, row in enumerate(rows)]
        return QMatrix.from_integer_rows(self._denom * t ** (d - 1), rows)

    def trace(self):
        """Trace of multiplication-by-self, a rational number."""
        m = self.matrix()
        return sum(m[k, k] for k in range(m.rows))


# -- vectors over a number field -------------------------------------------------


def leading_entry(X, field):
    """(i, x): the first nonzero row of a coordinate matrix, and its element."""
    den, rows = X.integer_rows()
    i = next(i for i, row in enumerate(rows) if any(row))
    return i, field.from_integers(den, rows[i])


# -- real embeddings ----------------------------------------------------------------


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
        # t times the defining polynomial, t x^d - sum top[j] x^j, and
        # whether it is negative at lo (it is nonzero there and changes
        # sign once)
        t, top = field._top
        self._poly = [-r for r in top] + [t]
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
        return self.integer_sign(self.field.coerce(elt)._numer)

    def narrow(self, num, den):
        """Bisect the isolating interval until it is narrower than num/den
        (ints num, den > 0): in a field of degree at least 2, the interval
        that approx(gen, num/den) reaches, with no interval Horner per
        halving."""
        num, den = _as_int(num, "num"), _as_int(den, "den")
        if num <= 0 or den <= 0:
            raise DomainError("the width must be positive")
        while (self._hi_num - self._lo_num) * den >= num * self._denom:
            self._refine()

    def approx(self, elt, eps):
        """Rational approximation of elt's image within eps (> 0)."""
        elt = self.field.coerce(elt)
        eps = _as_fraction(eps, "eps")
        if eps <= 0:
            raise DomainError("eps must be positive")
        den, ints = elt._denom, elt._numer
        while True:
            lo, hi, scale = self._bounds(ints)
            # the image lies in [lo, hi] / (den * scale)
            if (hi - lo) * eps.denominator < eps.numerator * den * scale:
                return Fraction(lo + hi, 2 * den * scale)
            self._refine()
