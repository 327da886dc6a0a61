"""Dense exact linear algebra over Q, plus integer lattice utilities.

QMatrix stores integers row-major over one positive common denominator,
reduced so that equal matrices have equal storage (_lowest_terms, the
normal form number-field elements share); entries are read back as
Fractions.  Products, sums, scaling, the Horner recurrence of an
eigenvector (horner_columns) and elimination run on the integers: one
fraction-free Gauss-Jordan elimination (rref, which also serves rank,
kernel and column span), and one characteristic polynomial, Berkowitz's
division-free recursion (charpoly, whose constant coefficient also
serves the determinant in is_unimodular); for integer lattices, a
row-style Hermite normal form and Cohen's integral LLL, which updates
its Gram-Schmidt data in place.

An invariant subspace is held as an echelon basis, a column matrix that
is the identity at its rows ``free`` (as echelon_kernel and echelon_span
return it), so restrict() reads an operator's matrix off one product.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .arith import _as_fraction, _as_int, _integers, _lowest_terms
from .errors import DimensionError, DomainError


class QMatrix:
    """Immutable-ish dense matrix over Q: integers ``_num`` over ``_den``."""

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows, cols, data):
        if len(data) != rows * cols:
            raise DimensionError("data length %d != %d x %d" % (len(data), rows, cols))
        den, num = _integers(data, "matrix entries")
        self._set(rows, cols, num, den)

    def _set(self, rows, cols, num, den):
        """Store num/den in lowest terms: gcd(den, *num) = 1, den > 0."""
        self.rows = rows
        self.cols = cols
        self._den, self._num = _lowest_terms(den, num)
        return self

    @classmethod
    def _from_ints(cls, rows, cols, num, den=1):
        return cls.__new__(cls)._set(rows, cols, num, den)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows):
        rows = [list(r) for r in rows]
        if not rows:
            return cls(0, 0, [])
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise DimensionError("ragged rows")
        return cls(len(rows), n, [x for r in rows for x in r])

    @classmethod
    def from_integer_rows(cls, den, rows):
        """The matrix rows / den, for integer rows and den > 0: the inverse
        of integer_rows()."""
        return cls._from_ints(len(rows), len(rows[0]) if rows else 0,
                              [x for r in rows for x in r], den)

    @classmethod
    def identity(cls, n):
        return cls._from_ints(n, n, [int(i == j) for i in range(n)
                                     for j in range(n)])

    @classmethod
    def zeros(cls, rows, cols):
        return cls._from_ints(rows, cols, [0] * (rows * cols))

    # -- access ----------------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return Fraction(self._num[i * self.cols + j], self._den)

    def row(self, i):
        c = self.cols
        return [Fraction(x, self._den) for x in self._num[i * c:(i + 1) * c]]

    def col(self, j):
        return [Fraction(x, self._den) for x in self._num[j::self.cols]]

    def to_rows(self):
        return [self.row(i) for i in range(self.rows)]

    def integer_rows(self):
        """(d, rows): the common denominator d > 0 and the integer rows of
        d*self, with no common factor left between d and all the rows."""
        c = self.cols
        return self._den, [self._num[i * c:(i + 1) * c] for i in range(self.rows)]

    def select_rows(self, indices):
        """The matrix of the rows at ``indices``, in that order."""
        c = self.cols
        return QMatrix._from_ints(len(indices), c, [
            x for i in indices for x in self._num[i * c:(i + 1) * c]], self._den)

    def __eq__(self, other):
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self._den == other._den
                and self._num == other._num)

    def __hash__(self):
        return hash((self.rows, self.cols, self._den, tuple(self._num)))

    def __repr__(self):
        return "QMatrix(%d x %d)" % (self.rows, self.cols)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """self + sign*other over the least common denominator."""
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch")
        den = lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        return QMatrix._from_ints(self.rows, self.cols, [
            s * a + t * b for a, b in zip(self._num, other._num)], den)

    def __neg__(self):
        return QMatrix._from_ints(self.rows, self.cols,
                                  [-a for a in self._num], self._den)

    def scale(self, c):
        c = _as_fraction(c, "scalar")
        return QMatrix._from_ints(self.rows, self.cols,
                                  [c.numerator * a for a in self._num],
                                  c.denominator * self._den)

    def __mul__(self, other):
        if not isinstance(other, QMatrix):
            return self.scale(other)
        if self.cols != other.rows:
            raise DimensionError("cannot multiply %dx%d by %dx%d"
                                 % (self.rows, self.cols, other.rows, other.cols))
        n, m, k = self.rows, other.cols, self.cols
        a, b = self._num, other._num
        out = []
        for i in range(n):
            acc = [0] * m
            for t, x in enumerate(a[i * k:(i + 1) * k]):
                if x:
                    ob = t * m
                    for j in range(m):
                        y = b[ob + j]
                        if y:
                            acc[j] += x * y
            out += acc
        return QMatrix._from_ints(n, m, out, self._den * other._den)

    __rmul__ = scale

    def horner_columns(self, coeffs):
        """The n x d matrix whose column i is h_i(self) e_0, for a square
        self and the ascending rational coefficients of a polynomial of
        degree d >= 1: h_(d-1) = 1 and h_i = x*h_(i+1) + coeffs[i+1].

        One integer recurrence on vectors: with self = A/D and coeffs =
        p/q, u_(d-1) = e_0 and u_i = q*A*u_(i+1) + p_(i+1)*D*(D*q)^(k-1)*e_0
        is (D*q)^k h_i(self) e_0 for k = d - 1 - i, so column i is u_i
        times (D*q)^i over (D*q)^(d-1).
        """
        if self.rows != self.cols:
            raise DimensionError("horner_columns needs a square matrix")
        n = self.rows
        q, p = _integers(coeffs, "coefficients")
        rows = [self._num[i * n:(i + 1) * n] for i in range(n)]
        dq = self._den * q
        powers = [dq ** k for k in range(len(p) - 1)]
        u = [int(i == 0) for i in range(n)]
        cols = [u]
        for k, c in enumerate(reversed(p[1:-1]), 1):
            u = [q * sum(map(mul, row, u)) for row in rows]
            u[0] += c * self._den * powers[k - 1]
            cols.append(u)
        # cols[k] is u_(d-1-k): column i is cols[d-1-i] times dq^i
        scaled = [[f * x for x in col] for f, col in zip(powers, reversed(cols))]
        return QMatrix._from_ints(n, len(cols),
                                  [x for row in zip(*scaled) for x in row],
                                  powers[-1])

    def transpose(self):
        return QMatrix._from_ints(self.cols, self.rows,
                                  [x for j in range(self.cols)
                                   for x in self._num[j::self.cols]], self._den)

    def is_zero(self):
        return not any(self._num)

    # -- elimination -------------------------------------------------------

    def rref(self):
        """(reduced row echelon form, pivot column list).

        Fraction-free on the stored integers: integer row operations
        (each new row divided by the gcd of its entries), then every row
        divided by its pivot over one common denominator.  The reduced
        form is unique, so this equals the textbook Fraction elimination.
        """
        c = self.cols
        m = [self._num[i * c:(i + 1) * c] for i in range(self.rows)]
        pivots = []
        r = 0
        for col in range(c):
            if r == self.rows:
                break
            p = next((i for i in range(r, self.rows) if m[i][col] != 0), None)
            if p is None:
                continue
            m[r], m[p] = m[p], m[r]
            pivot_row = m[r]
            a = pivot_row[col]
            for i in range(self.rows):
                f = m[i][col]
                if i != r and f != 0:
                    row = [a * x - f * y for x, y in zip(m[i], pivot_row)]
                    g = gcd(*row)
                    m[i] = [x // g for x in row] if g > 1 else row
            pivots.append(col)
            r += 1
        den = lcm(*[abs(m[i][col]) for i, col in enumerate(pivots)])
        out = []
        for i, row in enumerate(m):
            s = den // row[pivots[i]] if i < r else 0
            out += [s * x for x in row]
        return QMatrix._from_ints(self.rows, c, out, den), pivots

    def rank(self):
        return len(self.rref()[1])

    def echelon_kernel(self):
        """(K, free) from one rref: the columns of K are a basis of the right
        kernel, and K is the identity at the rows ``free`` (self's free
        columns), so a kernel vector's coordinates are its entries there."""
        R, piv = self.rref()
        free = [c for c in range(self.cols) if c not in piv]
        c, k = self.cols, len(free)
        num = [0] * (c * k)
        for j, f in enumerate(free):
            num[f * k + j] = R._den
            for r, p in enumerate(piv):
                num[p * k + j] = -R._num[r * c + f]
        return QMatrix._from_ints(c, k, num, R._den), free

    def echelon_span(self):
        """(B, free): the column span, held as echelon_kernel holds a kernel.
        By matroid duality with rref's first pivots, ``free`` are the last
        coordinates onto which the span projects isomorphically: one rref of
        the transpose with its columns reversed finds them, and B."""
        n, c = self.rows, self.cols
        flip = [self._num[i * c + j] for j in range(c) for i in reversed(range(n))]
        R, piv = QMatrix._from_ints(c, n, flip).rref()
        k = len(piv)
        B = [R._num[(k - 1 - j) * n + n - 1 - i] for i in range(n) for j in range(k)]
        return QMatrix._from_ints(n, k, B, R._den), [n - 1 - p for p in piv[::-1]]

    def restrict(self, basis, free):
        """Matrix of self on the column span of an echelon basis.

        ``basis`` is the identity at the rows ``free``; returns the small
        matrix M with self * basis = basis * M, which is self * basis read
        at those rows.  Raises DomainError unless the span is invariant.
        """
        image = self * basis
        small = image.select_rows(free)
        if basis * small != image:
            raise DomainError("column span is not invariant under the operator")
        return small

    # -- characteristic polynomial -----------------------------------------

    def charpoly(self):
        """Coefficients (ascending) of det(xI - M), a monic degree-n list.

        Berkowitz's division-free recursion (*Inform. Process. Lett.* 18,
        1984) on the stored integers A = den*M, over its leading blocks:
        if A_(k+1) = [[A_k, c], [r, a]] and chi = det(xI - A_k), then the
        adjugate of xI - A_k, expanded by Cayley-Hamilton, gives
        det(xI - A_(k+1)) = (x - a) chi - sum_(i<j) x^i chi_j r A_k^(j-i-1) c.
        Coefficient i of det(xI - M) = det(den*x*I - A)/den^n is then
        chi_i/den^(n-i); the constant one is (-1)^n det(M).
        """
        if self.rows != self.cols:
            raise DimensionError("charpoly of non-square matrix")
        n, a = self.rows, self._num
        chi = [1]
        for k in range(n):
            block = [a[i * n:i * n + k] for i in range(k)]
            r, v = a[k * n:k * n + k], a[k:k * n:n]
            s = []                                  # s[m] = r A_k^m c
            for _ in range(k):
                s.append(sum(map(mul, r, v)))
                v = [sum(map(mul, row, v)) for row in block]
            d = a[k * n + k]
            chi = [x - d * y - sum(map(mul, chi[i + 1:], s))
                   for i, (x, y) in enumerate(zip([0] + chi, chi))] + [1]
        return [Fraction(c, self._den ** (n - i)) for i, c in enumerate(chi)]


# -- integer lattice utilities ------------------------------------------------


def _hnf(rows):
    """Row-style Hermite normal form of an integer matrix.

    Returns the list of nonzero rows: pivots positive, entries above each
    pivot reduced into [0, pivot).  Canonical for the row lattice.
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    if any(len(r) != ncols for r in m):
        raise DimensionError("ragged rows")
    r = 0
    for c in range(ncols):
        # find a nonzero entry in column c at or below row r
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # gcd-eliminate below
        for i in range(r + 1, len(m)):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        # reduce entries above the pivot
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r] if any(row)]


def lattice_key(rational_rows):
    """Canonical key for the Z-lattice spanned by rows of Fractions.

    Returns (denominator, tuple of HNF rows) in lowest terms: two generating
    sets give equal keys iff they span the same lattice in Q^n.  The stored
    form of a QMatrix is already in lowest terms, and the HNF keeps the gcd
    of the entries.
    """
    den, rows = QMatrix.from_rows(rational_rows).integer_rows()
    return (den, tuple(tuple(r) for r in _hnf(rows)))


def is_unimodular(rows):
    """True iff the integer matrix is square with determinant +-1."""
    m = [[_as_int(x, "matrix entries") for x in r] for r in rows]
    n = len(m)
    if n == 0 or any(len(r) != n for r in m):
        return False
    return abs(QMatrix.from_rows(m).charpoly()[0]) == 1


def lll_reduce(rows):
    """LLL reduction, with delta = 3/4, of linearly independent integer
    rows: new integer rows spanning the same lattice.  Cohen's integral
    LLL (*A Course in Computational Algebraic Number Theory*, 1993, Alg.
    2.6.7) updates the Gram determinants d and lam_kj = d_(j+1) mu_kj in
    place on each size reduction and swap; no Gram-Schmidt data is ever
    recomputed."""
    b = [[_as_int(x, "lattice entries") for x in r] for r in rows]
    if not b:
        return []
    if any(len(r) != len(b[0]) for r in b):
        raise DimensionError("lattice rows must share a common length")
    n = len(b)
    # d[i + 1] is the Gram determinant of rows 0..i
    d, lam = [1] * (n + 1), [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            lam[k][j] = u
        d[k + 1] = lam[k][k]
        if not d[k + 1]:
            raise DomainError("lattice rows must be linearly independent")
    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):    # full size reduction, q = [mu + 1/2]
            q = (2 * lk[j] + d[j + 1]) // (2 * d[j + 1])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                lk[j] -= q * d[j + 1]
                lk[:j] = [x - q * y for x, y in zip(lk, lam[j][:j])]
        la = lk[k - 1]
        # Lovasz condition d_(k+1) d_(k-1) >= (3/4) d_k^2 - lam^2, times 4
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * la * la:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        lk[:k - 1], lam[k - 1][:k - 1] = lam[k - 1][:k - 1], lk[:k - 1]
        big = (d[k - 1] * d[k + 1] + la * la) // d[k]
        for li in lam[k + 1:]:
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - la * t) // d[k]
            li[k - 1] = (big * t + la * li[k]) // d[k + 1]
        d[k] = big
        k = max(k - 1, 1)
    return b
