"""Weight-2 modular symbols for Gamma0(N).

The space is presented by generators [c:d] indexed by P^1(Z/N) modulo the
two-term and three-term relations induced by the elliptic elements

    s = [[0, -1], [1, 0]]      (order 2)      x + x.s = 0
    t = [[0, -1], [1, -1]]     (order 3)      x + x.t + x.t^2 = 0

acting on the right of cosets (on bottom rows).  A symbol [g] stands for
the geodesic path {g.0, g.oo}; the boundary map sends it to the difference
of the cusp classes of its endpoints, and the cuspidal subspace is the
boundary kernel, of dimension twice the genus.

Coordinates: the three-term relations are the incidence matrix of the
trivalent graph of t-orbits joined by the two-term representatives
(Manin; Cremona, Algorithms for Modular Elliptic Curves, 1997, 2.2), so
the quotient (dimension 2*genus + #cusps - 1) is its cycle space: its
basis is the free symbols, the edges outside a spanning forest, and every
symbol, path and loop has integer coordinates in it, certified against
every relation.  Only this module reads how a symbol's coordinates are
stored: other modules sum them with symbol_sum or take symbol_matrix.
The boundary map is certified on the relations themselves: two-term
partners have swapped cusp ends and each three-term orbit closes into a
triangle of cusps, which, as the coordinates are the quotient map,
implies that every symbol's boundary is that of its coordinates.  The
cuspidal subspace and the +1 half of the star involution on it are held
as echelon bases of the quotient with their free rows, so an operator is
restricted to either by one checked product (QMatrix.restrict).
The Atkin-Lehner involution W_N is read the same way on the +1 half, from
the images of the free symbols' paths under z -> -1/(N z).
"""

from fractions import Fraction
from math import gcd
from operator import add, neg

from .arith import _as_fraction, _as_int
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
        self.N = N
        self.genus = curve_data(N)["genus"]
        self.cusp_keys = cusp_classes(N)
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

        # stage 1: two-term relations; keep one symbol per s-orbit: symbol i is
        # sign times representative k, or forced to vanish when sign is 0
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

        # stage 2: three-term relations, the incidence matrix of the graph
        # of t-orbits whose edge k runs from reps[k]'s partner to reps[k]
        orbits = [(i, tau[i], tau[tau[i]]) for i in range(n)
                  if i == min(i, tau[i], tau[tau[i]])]
        vertex = {i: v for v, orbit in enumerate(orbits) for i in orbit}
        free, rows = _cycle_space(
            len(orbits), [(vertex[i], vertex[sigma[i]]) for i in reps])
        self.dim = len(free)
        self.free_symbols = [reps[c] for c in free]
        signed = {1: [tuple(row) for row in rows],
                  -1: [tuple(map(neg, row)) for row in rows],
                  0: [(0,) * self.dim]}
        self._symbol_coords = coords = [signed[sign][k] for sign, k in rep_of]

        # certified: the known dimension, unit free symbols, relations killed
        if self.dim != 2 * self.genus + len(self.cusp_keys) - 1:
            raise InternalInvariantError(
                "quotient dimension %d != 2*genus + cusps - 1 at level %d"
                % (self.dim, self.N))
        for j, i in enumerate(self.free_symbols):
            if coords[i][j] != 1 or coords[i].count(0) != self.dim - 1:
                raise InternalInvariantError(
                    "free symbol %d is not a basis vector at level %d"
                    % (i, self.N))
        for i, j, k in orbits:
            if any(map(add, map(add, coords[i], coords[j]), coords[k])):
                raise InternalInvariantError(
                    "three-term relation of symbol %d fails at level %d"
                    % (i, self.N))
        return sigma, orbits

    def _build_boundary(self, sigma, orbits):
        # a symbol [g] = {g.0, g.oo} has boundary (g.oo) - (g.0): the cusps
        # a/c and b/d of its canonical lift.  The class of p/q, gcd(p, q) = 1,
        # q >= 0, depends only on c = gcd(q, N) and p*(q/c) mod gcd(c, N/c)
        N, labels = self.N, {}

        def label(p, q):
            c = gcd(q, N)
            key = (c, p * (q // c) % gcd(c, N // c))
            if key not in labels:
                labels[key] = self.cusp_keys.index(cusp_class_key((p, q), N))
            return labels[key]

        ends = [(label(a, c), label(b, d)) for a, b, c, d in
                (_lift_canonical(*rep) for rep in self.p1.reps)]
        cols = [ends[i] for i in self.free_symbols]
        self._boundary = [[(p == r) - (m == r) for p, m in cols]
                          for r in range(len(self.cusp_keys))]

        # certified on the relations the quotient divides out: [g.s] is
        # {g.oo, g.0}, the reverse of [g], and the t-orbit's paths run
        # g.oo -> g.0 -> g.1 -> g.oo.  The coordinates are the quotient map,
        # so this implies that every symbol's boundary is that of its row
        for i, j in enumerate(sigma):
            if ends[j] != ends[i][::-1]:
                raise InternalInvariantError(
                    "boundary map fails the two-term relation of symbol %d "
                    "at level %d" % (i, N))
        for i, j, k in orbits:
            if (ends[i][1], ends[j][1], ends[k][1]) != (
                    ends[j][0], ends[k][0], ends[i][0]):
                raise InternalInvariantError(
                    "boundary map fails the three-term relation of symbol %d "
                    "at level %d" % (i, N))

        # the cuspidal basis is the echelon kernel: the identity at the free
        # rows, which is what express_cuspidal and restrict read off
        self._cuspidal_columns, self._cuspidal_free = QMatrix.from_rows(
            self._boundary).echelon_kernel()
        self.cuspidal_dim = self._cuspidal_columns.cols
        if self.cuspidal_dim != 2 * self.genus:
            raise InternalInvariantError(
                "cuspidal dimension %d != 2*genus %d"
                % (self.cuspidal_dim, 2 * self.genus))

    # -- paths -------------------------------------------------------------------

    def path(self, x, y):
        """Coordinates of the symbol of the geodesic path {x, y}.

        Endpoints are Fractions or integers, or None for infinity; any
        other endpoint (a float, a string, a bool) is a DomainError.
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
            return self.symbol_sum(())
        # continued-fraction convergents p_k/q_k of x, after 1/0 and 0/1
        pk, qk, pk_1, qk_1 = 1, 0, 0, 1
        a, b = x
        index, steps = self.p1.index, []
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
            steps.append(index(qk, det * qk_1))
        return self.symbol_sum(steps)

    # -- symbol coordinates ------------------------------------------------------

    def symbol_sum(self, points):
        """Integer coordinates of the sum of the Manin symbols at these
        indices of P^1, a point listed k times counted k times."""
        coords = self._symbol_coords
        rows = [coords[i] for i in points]
        return [sum(col) for col in zip(*rows)] if rows else [0] * self.dim

    def symbol_matrix(self):
        """The |P^1| x dim QMatrix whose row i is the coordinates of the
        i-th Manin symbol."""
        return QMatrix.from_rows(self._symbol_coords)

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
        star = self.p1.star_permutation()
        cols = [self.symbol_sum([star[i]]) for i in self.free_symbols]
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

    # -- Atkin-Lehner involution ---------------------------------------------------------

    def plus_atkin_lehner(self):
        """Matrix of the Atkin-Lehner involution W_N on the +1 half, in the
        basis of plus_span().

        W_N z = -1/(N z) normalises Gamma0(N) and commutes with the star
        involution and every Hecke operator (Atkin & Lehner, Math. Ann.
        185, 1970).  A free symbol [c:d], lifted to (a b; c d), is the path
        {b/d, a/c}, which W_N sends to {-d/(N b), -c/(N a)}, with infinity
        where b or a is 0: its column is that path's coordinates.
        """
        N = self.N

        def image(p, q):
            # W_N(p/q) = -q/(N p), with a positive denominator
            return None if p == 0 else (-q, N * p) if p > 0 else (q, -N * p)

        cols = []
        for i in self.free_symbols:
            a, b, c, d = _lift_canonical(*self.p1.reps[i])
            cols.append(self._path(image(b, d), image(a, c)))
        return QMatrix.from_rows(zip(*cols)).restrict(*self.plus_span())

    # -- homology ----------------------------------------------------------------------

    def loop_class(self, gamma):
        """Cuspidal coordinates of the closed loop {0, gamma.0}."""
        gamma = tuple(_as_int(x, "matrix entries") for x in gamma)
        if not gamma0_contains(gamma, self.N):
            raise DomainError("matrix is not in the level subgroup")
        _, b, _, d = gamma
        vec = self.path(0, None if d == 0 else Fraction(b, d))
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
                    gamma = _lift_canonical(c, d)
                    # loop_class checks that gamma is in Gamma0(N)
                    out.append((gamma, self.loop_class(gamma)))
            columns = QMatrix.from_rows(zip(*(v for _, v in out)))
            out = [out[j] for j in columns.rref()[1]]
        self._generators = out
        return list(out)


def _cycle_space(n, edges):
    """(free, rows) for the graph on vertices 0..n-1 whose edge k runs from
    edges[k][1] to edges[k][0]: the edges outside Kruskal's spanning forest
    in edge order, and each edge's flow in their fundamental cycles.  These
    are the free columns and the echelon kernel of the incidence matrix."""
    root, tree, free = list(range(n)), [[] for _ in range(n)], []
    for k, (u, v) in enumerate(edges):
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u == v:
            free.append(k)
        else:
            root[u] = v
            for w in edges[k]:
                tree[w].append(k)
    # breadth first from the forest roots: up[v] = (edge up, parent)
    order = [v for v in range(n) if root[v] == v]
    up = [() if root[v] == v else None for v in range(n)]
    for v in order:
        for k in tree[v]:
            w = sum(edges[k]) - v
            if up[w] is None:
                up[w] = (k, v)
                order.append(w)
    # a tree edge carries what the free edges bring into the tree below it
    rows = [[0] * len(free) for _ in edges]
    into = [[0] * len(free) for _ in range(n)]
    for j, f in enumerate(free):
        rows[f][j] = 1
        into[edges[f][0]][j] += 1
        into[edges[f][1]][j] -= 1
    for v in reversed(order):
        if up[v]:
            k, p = up[v]
            rows[k] = into[v] if edges[k][1] == v else list(map(neg, into[v]))
            into[p] = list(map(add, into[p], into[v]))
    return free, rows


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
    x = _as_fraction(x, "path endpoint")
    return x.numerator, x.denominator
