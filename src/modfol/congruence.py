"""Arithmetic of the congruence subgroup Gamma0(N).

Provides the projective line P^1(Z/N) with canonical representatives, the
standard multiplicative invariants (index, elliptic point counts, cusp
count, genus), membership testing, and cusp classes in closed form from
the factorization of N (Cremona, Algorithms for Modular Elliptic Curves,
2nd ed., 1997, 2.2), with no loop over N.

A point of P^1(Z/N) is a pair (c, d) with gcd(c, d, N) = 1, up to scaling
by units of Z/N.  The canonical representative of a class is the
lexicographically smallest pair in its unit orbit.  The classes are held
as one row of length N per divisor of N, read through one unit per first
entry: about N*sigma_0(N) entries, with no N*N table.  The Heilbronn walk
steps through move rows, one permutation of P^1 per quotient residue mod
N, each built the first time a walk meets its residue: at most 2p + 1
rows for T_p, and N rows of len(reps) + 1 entries at worst.
"""

from fractions import Fraction
from math import gcd

from .arith import _as_int, factorize, is_prime
from .errors import DomainError, InternalInvariantError

# 2x2 integer matrices are flat tuples (a, b, c, d)


def _group_entries(m):
    """(a, b, c, d): the entries of a 2x2 matrix in row order, each read
    through _as_int; DomainError unless m is a tuple or list of four."""
    if not isinstance(m, (tuple, list)) or len(m) != 4:
        raise DomainError("matrix entries must be four ints, one group element")
    return tuple(_as_int(x, "matrix entries") for x in m)


def mat_det(m):
    a, b, c, d = m
    return a * d - b * c


def gamma0_contains(m, N):
    """Whether an integer matrix lies in Gamma0(N)."""
    a, b, c, d = m
    return a * d - b * c == 1 and c % N == 0


def curve_data(N):
    """Invariants of the level-N modular curve.

    Returns a dict with keys N, mu (index), nu2, nu3 (elliptic point
    counts), nu_inf (cusp count), genus.
    """
    N = _as_int(N, "level")
    if N < 1:
        raise DomainError("level must be a positive integer")
    fac = factorize(N) if N > 1 else []
    mu = N
    for p, _ in fac:
        mu = mu * (p + 1) // p

    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p, _ in fac:
            if p == 2:
                continue
            nu2 *= 2 if p % 4 == 1 else 0
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p, _ in fac:
            if p == 3:
                continue
            nu3 *= 2 if p % 3 == 1 else 0

    # nu_inf = sum over d | N of phi(gcd(d, N/d)), a multiplicative function
    nu_inf = 1
    for p, e in fac:
        nu_inf *= sum(p ** m - p ** (m - 1) if m else 1
                      for m in (min(k, e - k) for k in range(e + 1)))

    genus_frac = 1 + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) \
        - Fraction(nu_inf, 2)
    if genus_frac.denominator != 1:
        raise InternalInvariantError(
            "genus formula gave the non-integer %s at level %d" % (genus_frac, N))
    return {
        "N": N,
        "mu": mu,
        "nu2": nu2,
        "nu3": nu3,
        "nu_inf": nu_inf,
        "genus": genus_frac.numerator,
    }


class P1Space:
    """P^1(Z/N) with canonical representatives and index lookup.

    The smallest first entry in the unit orbit of (c, d) is g = gcd(c, N),
    and a unit v with v*c = g (mod N) carries (c, d) to (g, v*d).  So the
    space keeps one class row of length N for c = 0 and for each divisor
    g < N (-1 marks non-points), and one such unit per first entry: the
    class of (c, d), reduced mod N, is _rows[c][_units[c] * d % N], where
    _rows[c] is the row of gcd(c, N).  The rows are swept in the order of
    a lexicographic sweep of all pairs, so the first pair met of each
    orbit is its canonical representative, and its class is spread over
    the units that fix g.  That is about N*sigma_0(N) steps and entries,
    not N^2.  index() is one read, reps[index(c, d)] the canonical
    representative.  _moves[k] is the move row of the residue k (see
    _move_row), None until heilbronn_counts first meets k.
    """

    __slots__ = ("N", "reps", "_rows", "_units", "_star", "_moves")

    def __init__(self, N):
        N = _as_int(N, "level")
        if N < 1:
            raise DomainError("level must be a positive integer")
        self.N = N
        units = [u for u in range(1, max(N, 2)) if gcd(u, N) == 1]
        reps, row_of = [], {}
        for g in [0] + [g for g in range(1, N) if N % g == 0]:
            fix = [u for u in units if u * g % N == g]
            row = row_of[gcd(g, N)] = [-1] * N
            for d in range(N):
                if row[d] >= 0 or gcd(g, d, N) != 1:
                    continue
                k = len(reps)
                reps.append((g, d))
                for u in fix:
                    row[u * d % N] = k
        self.reps = tuple(reps)
        # the row of g = gcd(c, N), and v = (c/g)^-1 mod N/g lifted to a unit
        self._rows, self._units = [], []
        for c in range(N):
            g = gcd(c, N)
            v = pow(c // g, -1, N // g)
            while gcd(v, N) != 1:
                v += N // g
            self._rows.append(row_of[g])
            self._units.append(v)
        self._star = None
        self._moves = [None] * N

    def __len__(self):
        return len(self.reps)

    def index(self, c, d):
        N = self.N
        c %= N
        d %= N
        i = self._rows[c][self._units[c] * d % N]
        if i < 0:
            raise DomainError("(%d, %d) is not a point of P^1(Z/%d)" % (c, d, N))
        return i

    def star_permutation(self):
        """star[i] is the index of (-c:d) for reps[i] = (c:d), and
        star[len(reps)] = len(reps) keeps the non-point slot of
        heilbronn_counts in place: the star involution on P^1, built on
        first use."""
        if self._star is None:
            N, rows, units = self.N, self._rows, self._units
            self._star = [rows[-c % N][units[-c % N] * d % N]
                          for c, d in self.reps] + [len(self.reps)]
        return self._star

    def _move_row(self, k):
        """Row k of the Heilbronn walk, built on first use and cached:
        row[i] is the index of (y : k*y - x) for reps[i] = (x : y), the
        right action of [[0, -1], [1, k]] on P^1, and row[len(reps)] =
        len(reps) keeps the non-point slot in place, as in star_permutation."""
        N, rows, units = self.N, self._rows, self._units
        row = self._moves[k] = [rows[y][units[y] * (k * y - x) % N]
                                for x, y in self.reps] + [len(self.reps)]
        return row

    def heilbronn_counts(self, c, d, p):
        """Multiplicities, indexed like reps, of the points (c:d)h over a
        Heilbronn family h of determinant p, walked on P^1.  After
        (c, d*p), each 0 <= r <= p/2 starts at (c*p, d - c*r), and each step
        of the nearest-integer continued fraction of -p/r, with quotient q,
        maps (x : y) to (y : q*y - x): Cremona's matrices.  That map is a
        permutation of P^1 that depends on q mod N alone, so a chain is
        carried as its point's index and stepped through _move_row(q % N).
        The chain of -r is the conjugate of r's by diag(-1, 1), the same
        quotients negated: it starts at (c*p, d + c*r) and steps through
        _move_row(-q % N), so one continued fraction drives both.  When
        c = 0 mod N every start is (0:d) and the -r images are the star
        images of the r images, so each r > 0 chain is walked once from
        the index of (0:d) and folded in by star_permutation.  p = 2 has
        four matrices of its own.  Non-points (only when p divides N) drop
        out."""
        c, d = _as_int(c, "first entry"), _as_int(d, "second entry")
        p = _as_int(p, "prime")
        if not is_prime(p):
            raise DomainError("expected a prime, got %d" % p)
        N, rows, units, moves = self.N, self._rows, self._units, self._moves
        cp = c * p % N
        if p == 2:
            starts = (c, 2 * d), (2 * c, d), (2 * c, c + d), (c + d, 2 * d)
            half = 0
        else:   # the matrix (1, 0, 0, p), and r = 0
            starts, half = ((c, d * p), (cp, d)), p // 2
        # the rows mark non-points -1: they land in a last, dropped slot,
        # which every move row keeps in place
        counts = [0] * (len(self.reps) + 1)
        fold = c % N == 0
        first, v = rows[cp], units[cp]
        start = first[v * d % N]      # (0:d) when folded
        for r in range(1, half + 1):
            if fold:
                i = start
            else:
                i = first[v * (d - c * r) % N]
                j = first[v * (d + c * r) % N]
                counts[i] += 1
                counts[j] += 1
            a, b = -p, r
            while b:
                q = (2 * a + b) // (2 * b)        # nearest integer to a/b
                a, b = -b, a - q * b
                i = (moves[q % N] or self._move_row(q % N))[i]
                counts[i] += 1
                if not fold:
                    j = (moves[-q % N] or self._move_row(-q % N))[j]
                    counts[j] += 1
        if fold:
            counts = [k + counts[s]
                      for k, s in zip(counts, self.star_permutation())]
            counts[start] += 2 * half      # the r != 0 starts
        for x, y in starts:
            x %= N
            counts[rows[x][units[x] * y % N]] += 1
        counts.pop()
        return counts


# -- cusps -------------------------------------------------------------------


def _normalize_cusp(p, q):
    """Reduce a cusp to lowest terms (p, q) with q >= 0; infinity is (1, 0)."""
    if isinstance(p, Fraction):
        if q != 1:
            raise DomainError("pass a Fraction alone or an integer pair")
        p, q = p.numerator, p.denominator
    if p == 0 and q == 0:
        raise DomainError("0/0 is not a cusp")
    g = gcd(p, q)
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    if q == 0:
        return (1, 0)
    return (p, q)


def cusp_class_key(cusp, N):
    """Canonical label (a, c) of the cusp's class: with c = gcd(q, N) and
    t = gcd(c, N/c), p/q ~ a/c iff a = p*(q/c) (mod t), and a is the
    smallest such a >= 0 prime to c."""
    p, q = _normalize_cusp(*cusp)
    c = gcd(q, N)
    t = gcd(c, N // c)
    return _cusp_label(p * (q // c) % t, t, c)


def cusp_classes(N):
    """Sorted canonical labels of all cusp classes of level N: one for
    each c | N and each unit r mod t = gcd(c, N/c)."""
    N = _as_int(N, "level")
    if N < 1:
        raise DomainError("level must be a positive integer")
    divisors = [1]
    for p, e in factorize(N):
        divisors = [d * p ** k for d in divisors for k in range(e + 1)]
    keys = []
    for c in divisors:
        t = gcd(c, N // c)
        keys += [_cusp_label(r, t, c) for r in range(t) if gcd(r, t) == 1]
    return sorted(keys)


def _cusp_label(r, t, c):
    """(a, c) for the smallest a >= 0 with a = r (mod t) and gcd(a, c) = 1;
    r is a unit mod t, so a few steps find it."""
    a = r
    while gcd(a, c) != 1:
        a += t
    return (a, c)
