"""Hecke operators on weight-2 modular symbols.

T_p sends the Manin symbol (c:d) to the sum of the symbols (c:d)h over
Heilbronn matrices h of determinant p (Cremona, *Algorithms for Modular
Elliptic Curves*, 2nd ed., 1997, sec. 2.4; Merel, *Universal Fourier
expansions of modular forms*, LNM 1585, 1994): Cremona's chains for
0 <= r <= p/2, and for -r their conjugates by diag(-1, 1).  The
O(p log p) matrices are never built: P1Space.heilbronn_counts walks
their images on P^1, where the next matrix of a continued fraction, with
quotient q, moves the image's index through the cached permutation of
P^1 for q mod N, (x : y) -> (y : q*y - x), one recursion driving the
chains of r and -r together, and counts them.  For the start (0:1) the
-r images are the star images of the r images, so that walk takes each
chain once.  A matrix column is the images' ModularSymbolSpace.symbol_sum;
an eigenvalue at a large prime dots the counts with a dual functional
tabulated on P^1 (see periods).  Tests check the walk against the
matrices, and the operators against Merel's family and the
degeneracy-coset path route.

Also provides the standard multiplicative/recursive extension of prime
eigenvalues to a full coefficient sequence:

    c(p^(k+1)) = c(p) c(p^k) - p c(p^(k-1))   if p does not divide the level
    c(p^(k+1)) = c(p) c(p^k)                  if p divides the level
    c(mn) = c(m) c(n)                         for coprime m, n
"""

from itertools import compress
from operator import mul

from .arith import smallest_prime_factors
from .linalg import QMatrix


# -- operators on the symbol quotient ------------------------------------------------


def hecke_matrix(space, p):
    """T_p on the full symbol quotient: column j sums the coordinates of
    the Heilbronn images of the j-th free symbol, with multiplicity."""
    p1 = space.p1
    points = range(len(p1))
    cols = []
    for j in space.free_symbols:
        counts = p1.heilbronn_counts(*p1.reps[j], p)
        cols.append(space.symbol_sum(i for i in compress(points, counts)
                                     for _ in range(counts[i])))
    return QMatrix.from_rows(zip(*cols))


def eigenvalue_from_functional(space, p, table, j):
    """Eigenvalue c_p of a left eigenvector w of the T_p family, with
    w[j] = 1, from its table (field, den, rows): rows[k][i] / den is the
    k-th coordinate of w on the i-th point of P^1.  c_p is w on column j of
    T_p: the images' counts dotted with each row give its integer
    coordinates over den, reduced once into a field element.  For j = 0,
    the start (0:1), the walk takes each Heilbronn chain pair once (see
    P1Space.heilbronn_counts), which is why periods prefers it.
    """
    field, den, rows = table
    counts = space.p1.heilbronn_counts(*space.p1.reps[space.free_symbols[j]], p)
    return field.from_integers(den, [sum(map(mul, counts, row))
                                     for row in rows])


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
    spf = smallest_prime_factors(terms)
    for p in (k for k in range(2, terms + 1) if spf[k] == k):
        cp = prime_value(p)
        c[p] = cp
        pk = p * p
        prev, cur = c[1], cp
        while pk <= terms:
            nxt = cp * cur if N % p == 0 else cp * cur - p * prev
            c[pk] = nxt
            prev, cur = cur, nxt
            pk *= p
    # multiplicative fill: split off the prime power of the smallest prime
    for m in range(2, terms + 1):
        p = q = spf[m]
        while m % (q * p) == 0:
            q *= p
        if q < m:
            c[m] = c[q] * c[m // q]
    return c
