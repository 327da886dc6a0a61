"""Weight-2 modular symbols for Gamma0(N).

The space is presented by generators [c:d] indexed by P^1(Z/N) modulo the
two-term and three-term relations induced by the elliptic elements

    s = [[0, -1], [1, 0]]      (order 2)      x + x.s = 0
    t = [[0, -1], [1, -1]]     (order 3)      x + x.t + x.t^2 = 0

acting on the right of cosets (on bottom rows).  A symbol [g] stands for
the geodesic path {g.0, g.oo}; the boundary map sends it to the difference
of the cusp classes of its endpoints, and the cuspidal subspace is the
boundary kernel, of dimension twice the genus.

Coordinates: the relation module is eliminated once at construction; every
symbol, path and loop is afterwards expressed in a fixed basis of the
quotient (dimension 2*genus + #cusps - 1).  Symbol and path coordinates are
integers (the elimination is checked to leave no denominators), and each
symbol is 1, -1 or 0 times a two-term representative, so the boundary map
is checked on the representatives, with one cusp label per residue pair.  The
cuspidal subspace and the +1 half of the star involution on it are held
as echelon bases of the quotient with their free rows, so an operator is
restricted to either by one checked product (QMatrix.restrict).
"""

from fractions import Fraction
from math import gcd

from .congruence import (
    P1Space,
    cusp_class_key,
    cusp_classes,
    curve_data,
    gamma0_contains,
    mat_det,
)
from .errors import DimensionError, DomainError, InternalInvariantError
from .linalg import QMatrix


class ModularSymbolSpace:
    """Weight-2 modular symbol space of level N, with boundary and homology."""

    def __init__(self, N):
        data = curve_data(N)
        self.N = N
        self.genus = data["genus"]
        self.p1 = P1Space(N)
        self._build_boundary(*self._build_quotient())
        self._generators = None
        self._plus_span = None

    # -- construction -------------------------------------------------------

    def _build_quotient(self):
        p1 = self.p1
        n = len(p1.reps)

        # (c, d).s = (d, -c) and (c, d).t = (d, -c - d)
        sigma = [p1.index(d, -c) for c, d in p1.reps]
        tau = [p1.index(d, -c - d) for c, d in p1.reps]

        # stage 1: two-term relations; keep one symbol per s-orbit: symbol
        # i is sign times representative k (column k of the relations), and
        # sign 0 marks symbols forced to vanish
        rep_of = [None] * n          # i -> (sign, k)
        reps = []
        for i in range(n):
            if rep_of[i] is not None:
                continue
            j = sigma[i]
            if j == i:
                rep_of[i] = (0, 0)           # x + x.s = 2x = 0
            else:
                rep_of[i] = (1, len(reps))
                rep_of[j] = (-1, len(reps))
                reps.append(i)

        # stage 2: three-term relations over the surviving representatives
        rows = []
        seen = set()
        for i in range(n):
            orbit = (i, tau[i], tau[tau[i]])
            key = min(orbit)
            if key in seen:
                continue
            seen.add(key)
            row = [0] * len(reps)
            for j in orbit:
                sign, k = rep_of[j]
                if sign != 0:
                    row[k] += sign
            if any(row):
                rows.append(row)

        rel = QMatrix.from_rows(rows) if rows else QMatrix.zeros(0, len(reps))
        basis, free_cols = rel.echelon_kernel()
        self.dim = len(free_cols)
        self.free_symbols = [reps[c] for c in free_cols]

        # integer coordinates of each representative in the quotient basis:
        # its row of the echelon kernel basis
        den, coord_rows = basis.integer_rows()
        if den != 1:
            c, x = next((c, x) for c, row in enumerate(coord_rows)
                        for x in row if x % den)
            raise InternalInvariantError(
                "symbol %d has the non-integral coordinate %s at level %d"
                % (reps[c], Fraction(x, den), self.N))
        signed = {1: [tuple(row) for row in coord_rows],
                  -1: [tuple(-x for x in row) for row in coord_rows],
                  0: [(0,) * self.dim]}
        self._symbol_coords = [signed[sign][k] for sign, k in rep_of]
        return rep_of, coord_rows

    def _build_boundary(self, rep_of, rep_rows):
        N = self.N
        self.cusp_keys = cusp_classes(N)
        key_pos = {k: i for i, k in enumerate(self.cusp_keys)}
        nu = len(self.cusp_keys)
        # the class of a cusp p/q with gcd(p, q) = 1 and q >= 0 depends only
        # on (p mod N, q mod N): c = gcd(q, N), t = gcd(c, N/c) and
        # p*(q/c) mod t are read off them, as c*t divides N
        labels = {}

        def divisor(rep):
            a, b, c, d = _lift_canonical(*rep)
            v = [0] * nu
            for p, q, s in ((a, c, 1), (b, d, -1)):
                key = (p % N, q % N)
                if key not in labels:
                    labels[key] = key_pos[cusp_class_key((p, q), N)]
                v[labels[key]] += s
            return v

        # columns of the boundary matrix come from the free symbols; every
        # symbol is 1, -1 or 0 times its two-term representative, so one
        # product over the representatives checks each symbol's divisor
        divisors = [divisor(rep) for rep in self.p1.reps]
        cols = [divisors[i] for i in self.free_symbols]
        self._boundary = [[col[r] for col in cols] for r in range(nu)]
        image = (QMatrix.from_rows(rep_rows) * QMatrix(
            self.dim, nu, [x for col in cols for x in col])).integer_rows()[1]
        bad = next((i for i, (sign, k) in enumerate(rep_of) if divisors[i] != (
            [sign * x for x in image[k]] if sign else [0] * nu)), None)
        if bad is not None:
            raise InternalInvariantError(
                "boundary map inconsistent with relations at symbol %d" % bad)

        # the cuspidal basis is the echelon kernel: the identity at the free
        # rows, which is what express_cuspidal and restrict read off
        self._cuspidal_columns, self._cuspidal_free = QMatrix.from_rows(
            self._boundary).echelon_kernel()
        self.cuspidal_dim = self._cuspidal_columns.cols
        if self.cuspidal_dim != 2 * self.genus:
            raise InternalInvariantError(
                "cuspidal dimension %d != 2*genus %d"
                % (self.cuspidal_dim, 2 * self.genus))

    # -- symbols -----------------------------------------------------------------

    def symbol_coords(self, c, d):
        """Quotient coordinates of the symbol [c:d]."""
        return self._symbol_coords[self.p1.index(c, d)]

    # -- paths -------------------------------------------------------------------

    def path(self, x, y):
        """Coordinates of the symbol of the geodesic path {x, y}.

        Endpoints are Fractions (or integers), or None for infinity.
        """
        return self._path(_pair(x), _pair(y))

    def _path(self, x, y):
        """path() for endpoints given as (numerator, denominator) pairs
        with positive denominators, or None for infinity."""
        return tuple(b - a for a, b in zip(self._path_from_infinity(x),
                                           self._path_from_infinity(y)))

    def _path_from_infinity(self, x):
        """Integer coordinates of {oo, p/q} for x = (p, q), q > 0.

        p/q need not be in lowest terms: a common factor leaves every
        Euclidean quotient, hence every convergent, unchanged.
        """
        if x is None:
            return [0] * self.dim
        # continued-fraction convergents p_k/q_k of x, after 1/0 and 0/1
        pk, qk, pk_1, qk_1 = 1, 0, 0, 1
        a, b = x
        index, coords = self.p1.index, self._symbol_coords
        steps = []
        while b:
            quo = a // b
            a, b = b, a - quo * b
            pk, qk, pk_1, qk_1 = quo * pk + pk_1, quo * qk + qk_1, pk, qk
            # unimodular path {p_{k-1}/q_{k-1}, p_k/q_k} = [h.0, h.oo] for
            # h = (pk, det*pk_1, qk, det*qk_1)
            h = (pk, pk_1, qk, qk_1)
            det = mat_det(h)
            if det not in (1, -1):
                raise InternalInvariantError(
                    "convergent matrix %s of %d/%d has determinant %d"
                    % (h, *x, det))
            steps.append(coords[index(qk, det * qk_1)])
        return [sum(col) for col in zip(*steps)]

    # -- cuspidal subspace ----------------------------------------------------------

    def boundary_of(self, vec):
        if len(vec) != self.dim:
            raise DimensionError("vector of length %d in a space of dimension "
                                 "%d" % (len(vec), self.dim))
        return tuple(sum(a * x for a, x in zip(row, vec) if a)
                     for row in self._boundary)

    def is_cuspidal(self, vec):
        return all(x == 0 for x in self.boundary_of(vec))

    def express_cuspidal(self, vec):
        """Coordinates of a cuspidal vector in the cuspidal basis: its
        entries at the basis's free rows, where the basis is the identity,
        so the integer vector of a path or loop has integer coordinates."""
        if not self.is_cuspidal(vec):
            raise DomainError("vector does not lie in the cuspidal subspace")
        return tuple(vec[f] for f in self._cuspidal_free)

    def restrict_to_cuspidal(self, op):
        """Restrict an operator on the quotient to the cuspidal subspace.

        op is a dim x dim QMatrix mapping the cuspidal subspace to itself;
        returns the (2g) x (2g) matrix in the cuspidal basis, whose rows are
        the free rows of op times the basis (see express_cuspidal).
        """
        return op.restrict(self._cuspidal_columns, self._cuspidal_free)

    # -- star involution ---------------------------------------------------------------

    def star_matrix(self):
        """Matrix of the involution [c:d] -> [-c:d] on the quotient.

        This is the map induced by z -> -conj(z) on paths; it squares to
        the identity and commutes with every Hecke operator.
        """
        reps = self.p1.reps
        cols = [self.symbol_coords(-reps[i][0], reps[i][1])
                for i in self.free_symbols]
        return QMatrix.from_rows(zip(*cols))

    def plus_span(self):
        """(basis, free): an echelon basis of the +1 eigenspace of the star
        involution on the cuspidal subspace, in quotient coordinates, and
        its free rows.

        The involution splits the 2g-dimensional cuspidal space into halves
        of dimension g, and on the +1 half each Hecke eigensystem appears
        exactly once (for prime level), which is what the orbit
        decomposition relies on.
        """
        if self._plus_span is None:
            fixed = (self.restrict_to_cuspidal(self.star_matrix())
                     - QMatrix.identity(self.cuspidal_dim))
            kernel, rows = fixed.echelon_kernel()
            if kernel.cols != self.genus:
                raise DimensionError(
                    "star +1 eigenspace has dimension %d, expected genus %d"
                    % (kernel.cols, self.genus))
            # the cuspidal basis is the identity at its free rows F and the
            # kernel at rows G, so their product is the identity at F[G]
            self._plus_span = (self._cuspidal_columns * kernel,
                               [self._cuspidal_free[i] for i in rows])
        return self._plus_span

    # -- homology ----------------------------------------------------------------------

    def loop_class(self, gamma):
        """Cuspidal coordinates of the closed loop {0, gamma.0}."""
        if not gamma0_contains(gamma, self.N):
            raise DomainError("matrix is not in the level subgroup")
        a, b, c, d = gamma
        target = None if d == 0 else Fraction(b, d)
        vec = self.path(Fraction(0), target)
        return self.express_cuspidal(vec)

    def homology_generators(self):
        """2*genus group elements whose loops form a homology basis.

        Returns a list of (matrix, coords) pairs; coords are the integer
        coordinates of the loop in the cuspidal basis.  Deterministic greedy
        sweep over the elements (a, b, kN, d), 0 < d <= kN, for k = 1, 2, ...:
        one rref per sweep, of the picked loops followed by all of the
        sweep's candidates as columns, keeps those at its pivot columns,
        which are the candidates independent of all before them.
        """
        if self._generators is not None:
            return list(self._generators)
        out = []
        k = 0
        while len(out) < self.cuspidal_dim:
            k += 1
            if k > 40:
                raise InternalInvariantError(
                    "homology generator sweep exhausted at level %d" % self.N)
            c = k * self.N
            for d in range(1, c + 1):
                if gcd(d, c) == 1:
                    a = pow(d, -1, c)
                    gamma = (a, (a * d - 1) // c, c, d)
                    # loop_class checks that gamma is in Gamma0(N)
                    out.append((gamma, self.loop_class(gamma)))
            columns = QMatrix.from_rows(zip(*(v for _, v in out)))
            out = [out[j] for j in columns.rref()[1]]
        self._generators = out
        return list(out)


def _lift_canonical(c, d):
    """An SL2(Z) matrix whose bottom row is the canonical representative
    (c, d) of a point of P^1(Z/N), or (0, 1) when c = 0."""
    if c == 0:
        # the zero-first class is (0, 1) (or (0, 0) at N = 1): the identity
        return (1, 0, 0, 1)
    # the smallest first entry in a unit orbit is gcd(c, N), a divisor
    # of N, so gcd(c, d) = gcd(c, d, N) = 1
    if gcd(c, d) != 1:
        raise InternalInvariantError(
            "canonical pair (%d, %d) is not coprime" % (c, d))
    # complete (c, d) to determinant 1: a*d - b*c = 1
    a = pow(d, -1, c)
    return (a, (a * d - 1) // c, c, d)


def _pair(x):
    """(numerator, denominator) of a rational endpoint; None stays None."""
    if x is None:
        return None
    x = Fraction(x)
    return x.numerator, x.denominator
