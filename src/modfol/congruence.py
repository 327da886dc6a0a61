"""Arithmetic of the congruence subgroup Gamma0(N).

Provides the projective line P^1(Z/N) with canonical representatives, the
standard multiplicative invariants (index, elliptic point counts, cusp
count, genus), membership testing, and exact cusp equivalence.

A point of P^1(Z/N) is a pair (c, d) with gcd(c, d, N) = 1, up to scaling
by units of Z/N.  The canonical representative of a class is the
lexicographically smallest pair in its unit orbit.
"""

from fractions import Fraction
from math import gcd

from .arith import factorize
from .errors import DomainError, InternalInvariantError

# 2x2 integer matrices are flat tuples (a, b, c, d)


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def mat_det(m):
    a, b, c, d = m
    return a * d - b * c


def mat_inv_sl2(m):
    """Inverse of a determinant-1 integer matrix."""
    a, b, c, d = m
    if a * d - b * c != 1:
        raise DomainError("matrix does not have determinant 1")
    return (d, -b, -c, a)


def gamma0_contains(m, N):
    """Whether an integer matrix lies in Gamma0(N)."""
    a, b, c, d = m
    return a * d - b * c == 1 and c % N == 0


def moebius_apply(m, x):
    """Action of an integer matrix on P^1(Q); x is a Fraction or None for infinity."""
    a, b, c, d = m
    if x is None:
        return Fraction(a, c) if c != 0 else None
    num = a * x + b
    den = c * x + d
    if den == 0:
        return None
    return Fraction(num, den) if not isinstance(num, Fraction) else num / den


def curve_data(N):
    """Invariants of the level-N modular curve.

    Returns a dict with keys N, mu (index), nu2, nu3 (elliptic point
    counts), nu_inf (cusp count), genus.
    """
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

    nu_inf = 0
    for d in range(1, N + 1):
        if N % d == 0:
            nu_inf += _euler_phi(gcd(d, N // d))

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
        "genus": int(genus_frac),
    }


def _euler_phi(n):
    out = n
    for p, _ in factorize(n):
        out = out * (p - 1) // p
    return out


class P1Space:
    """P^1(Z/N) with canonical representatives and index lookup.

    The constructor sweeps all N^2 pairs once in lexicographic order; the
    first pair met of each unit orbit is its canonical representative, and
    every member of the orbit gets that class's index in a flat N*N table
    (-1 marks pairs that are not points).  canonical() and index() are one
    table read.
    """

    __slots__ = ("N", "reps", "_table")

    def __init__(self, N):
        if N < 1:
            raise DomainError("level must be a positive integer")
        self.N = N
        units = [u for u in range(1, max(N, 2)) if gcd(u, N) == 1]
        table = [-1] * (N * N)
        reps = []
        for c in range(N):
            for d in range(N):
                if table[c * N + d] >= 0 or gcd(gcd(c, d), N) != 1:
                    continue
                k = len(reps)
                reps.append((c, d))
                for u in units:
                    table[(u * c) % N * N + (u * d) % N] = k
        self.reps = tuple(reps)
        self._table = table

    def __len__(self):
        return len(self.reps)

    def canonical(self, c, d):
        """Canonical representative of the class of (c, d)."""
        return self.reps[self.index(c, d)]

    def index(self, c, d):
        N = self.N
        c %= N
        d %= N
        i = self._table[c * N + d]
        if i < 0:
            raise DomainError("(%d, %d) is not a point of P^1(Z/%d)" % (c, d, N))
        return i

    def index_of_matrix(self, m):
        """Index of the coset of an SL2(Z) matrix (by bottom row)."""
        return self.index(m[2], m[3])


# -- cusps -------------------------------------------------------------------


def normalize_cusp(p, q):
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


def cusp_equivalent(cusp1, cusp2, N):
    """Exact Gamma0(N)-equivalence of two cusps given as (p, q) pairs."""
    p1, q1 = normalize_cusp(*cusp1)
    p2, q2 = normalize_cusp(*cusp2)
    s1 = pow(p1, -1, q1) if q1 >= 1 else 1
    s2 = pow(p2, -1, q2) if q2 >= 1 else 1
    g = gcd(q1 * q2, N)
    return (s1 * q2 - s2 * q1) % g == 0


def cusp_class_key(cusp, N):
    """Canonical label (a, c) of the cusp's class: c = gcd(q, N) and a the
    smallest nonnegative numerator with a/c equivalent to the cusp."""
    p, q = normalize_cusp(*cusp)
    c = gcd(q, N)
    for a in range(N + 1):
        if gcd(a, c) == 1 and cusp_equivalent((p, q), (a, c), N):
            return (a, c)
    raise InternalInvariantError(
        "no canonical representative found for %s" % ((p, q),))


def cusp_classes(N):
    """Sorted canonical labels of all cusp classes of level N."""
    if N < 1:
        raise DomainError("level must be a positive integer")
    keys = set()
    for c in range(1, N + 1):
        if N % c != 0:
            continue
        for a in range(c if c > 1 else 1):
            if gcd(a, c) == 1 or (c == 1 and a == 0):
                keys.add(cusp_class_key((a, c), N))
    keys.add(cusp_class_key((1, 0), N))
    return sorted(keys)
