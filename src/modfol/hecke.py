"""Hecke operators on weight-2 modular symbols.

T_p sends the Manin symbol (c:d) to the sum of the symbols (c:d)h over
Cremona's Heilbronn matrices h of determinant p (Cremona, *Algorithms for
Modular Elliptic Curves*, 2nd ed., 1997, sec. 2.4; Merel, *Universal
Fourier expansions of modular forms*, LNM 1585, 1994).  The family has
O(p log p) members, so one column routine serves both whole matrices for
the orbit split and single columns for eigenvalues at large p.  The tests
check it against Merel's family and against the degeneracy-coset path
route.

Also provides the standard multiplicative/recursive extension of prime
eigenvalues to a full coefficient sequence:

    c(p^(k+1)) = c(p) c(p^k) - p c(p^(k-1))   if p does not divide the level
    c(p^(k+1)) = c(p) c(p^k)                  if p divides the level
    c(mn) = c(m) c(n)                         for coprime m, n
"""

from math import gcd

from .arith import factorize, is_prime, primes_up_to
from .errors import DomainError
from .linalg import QMatrix


# -- Heilbronn matrices ------------------------------------------------------------


def heilbronn(p):
    """Cremona's Heilbronn matrices (a, b, c, d) of determinant p.

    (1, 0, 0, p), then for each |r| <= p/2 the matrix (p, -r, 0, 1) and
    one more per step of the nearest-integer continued fraction of -p/r.
    """
    if not is_prime(p):
        raise DomainError("expected a prime, got %d" % p)
    if p == 2:
        return [(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]
    fam = [(1, 0, 0, p)]
    for r in range(-(p // 2), p // 2 + 1):
        a, b, h = -p, r, (p, -r, 0, 1)
        fam.append(h)
        while b:
            q = (2 * a + b) // (2 * b)        # nearest integer to a/b
            a, b = -b, a - q * b
            h = (h[1], q * h[1] - h[0], h[3], q * h[3] - h[2])
            fam.append(h)
    return fam


# -- operators on the symbol quotient ------------------------------------------------


def _column(space, fam, j):
    """Column j of T_p: the symbols (c:d)h, h in fam, of the j-th free
    symbol (c:d), summed in quotient coordinates."""
    N = space.N
    c, d = space.p1.reps[space.free_symbols[j]]
    images = []
    for (ma, mb, mc, md) in fam:
        c2 = (c * ma + d * mc) % N
        d2 = (c * mb + d * md) % N
        if gcd(c2, d2, N) == 1:           # fails only when p divides N
            images.append(space.symbol_coords(c2, d2))
    return [sum(col) for col in zip(*images)]


def hecke_matrix(space, p):
    """T_p on the full symbol quotient."""
    fam = heilbronn(p)
    cols = [_column(space, fam, j) for j in range(space.dim)]
    return QMatrix.from_rows(zip(*cols))


def cuspidal_hecke_matrix(space, p):
    """T_p restricted to the cuspidal subspace, in the cuspidal basis.

    Memoised on the space, so the orbit split and the level record share
    one matrix per prime; callers must not mutate it.
    """
    mat = space._cuspidal_hecke.get(p)
    if mat is None:
        mat = space.restrict_to_cuspidal(hecke_matrix(space, p))
        space._cuspidal_hecke[p] = mat
    return mat


def eigenvalue_from_functional(space, p, row, j):
    """Eigenvalue c_p given a left eigenvector `row` of the T_p family.

    row is a length-dim sequence over Q or a number field satisfying
    row^T T_q = c_q row^T for all primes q; j indexes a coordinate with
    row[j] != 0.  Only one matrix column is computed, so this stays cheap
    for large p.
    """
    col = _column(space, heilbronn(p), j)
    terms = [ri * ci for ri, ci in zip(row, col) if ci]
    num = sum(terms[1:], terms[0]) if terms else 0 * row[j]
    return num / row[j]


# -- coefficient sequences -----------------------------------------------------------


def qexp_from_primes(N, prime_value, terms):
    """Coefficient list c[0..terms] with c[0] = 0, c[1] = 1, built from
    prime eigenvalues by the standard recursion and multiplicativity.

    prime_value(p) supplies c_p; values may be Fractions or number field
    elements (anything closed under +, *, and int multiples).
    """
    c = [0] * (terms + 1)
    if terms < 1:
        return c
    c[1] = 1
    for p in primes_up_to(terms):
        cp = prime_value(p)
        c[p] = cp
        pk = p * p
        prev, cur = c[1], cp
        while pk <= terms:
            if N % p == 0:
                nxt = cp * cur
            else:
                nxt = cp * cur - p * prev
            c[pk] = nxt
            prev, cur = cur, nxt
            pk *= p
    # multiplicative fill: split off the prime power of the smallest prime
    for m in range(2, terms + 1):
        p, e = factorize(m)[0]
        q = p ** e
        if q < m:
            c[m] = c[q] * c[m // q]
    return c
