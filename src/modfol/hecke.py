"""Hecke operators on weight-2 modular symbols, by two independent routes.

Route one acts on Manin symbols through a finite family of integer matrices
of determinant p (enumerated directly from the inequality description
a > b >= 0, d > c >= 0).  Route two acts on paths through the p+1 degeneracy
cosets z -> (z+i)/p and z -> pz, decomposing the images by continued
fractions.  The library uses the path route one column at a time, for
single-column eigenvalue extraction at large p, where building the whole
matrix would be wasteful; the tests assemble whole path-route matrices and
require them to equal the family route.

Also provides the standard multiplicative/recursive extension of prime
eigenvalues to a full coefficient sequence:

    c(p^(k+1)) = c(p) c(p^k) - p c(p^(k-1))   if p does not divide the level
    c(p^(k+1)) = c(p) c(p^k)                  if p divides the level
    c(mn) = c(m) c(n)                         for coprime m, n
"""

from fractions import Fraction
from math import gcd

from .arith import factorize, is_prime, primes_up_to
from .errors import DomainError
from .linalg import QMatrix


# -- determinant-p family --------------------------------------------------------


def merel_family(p):
    """All integer matrices (a, b, c, d), det = p, a > b >= 0, d > c >= 0."""
    if not is_prime(p):
        raise DomainError("expected a prime, got %d" % p)
    fam = [(1, 0, c, p) for c in range(p)]
    fam += [(p, b, 0, 1) for b in range(p)]
    # interior matrices: all entries positive; bc = ad - p forces a + d <= p + 1
    for a in range(2, p + 1):
        for d in range(2, p + 2 - a):
            e = a * d - p
            if e <= 0:
                continue
            b = 1
            while b * b <= e:
                if e % b == 0:
                    c = e // b
                    if b < a and c < d:
                        fam.append((a, b, c, d))
                    if c != b and c < a and b < d:
                        fam.append((a, c, b, d))
                b += 1
    fam.sort()
    return fam


# -- operators on the symbol quotient ------------------------------------------------


def hecke_matrix(space, p):
    """T_p on the full symbol quotient via the determinant-p family."""
    N = space.N
    fam = merel_family(p)
    dim = space.dim
    cols = []
    for sym in space.free_symbols:
        c, d = space.p1.reps[sym]
        images = []
        for (ma, mb, mc, md) in fam:
            c2 = (c * ma + d * mc) % N
            d2 = (c * mb + d * md) % N
            if gcd(gcd(c2, d2), N) != 1:
                continue          # possible only when p divides N
            images.append(space.symbol_coords(c2, d2))
        cols.append([sum(col) for col in zip(*images)])
    return QMatrix.from_rows(
        [[cols[j][i] for j in range(dim)] for i in range(dim)])


def _coset_images(x, p, with_scaling):
    """Images of a point of P^1(Q) under the p+1 degeneracy maps.

    x is a Fraction or None (infinity); images come back as (numerator,
    denominator) pairs with positive denominators, not reduced, or None.
    """
    if x is None:
        return [None] * (p + 1 if with_scaling else p)
    num, den = x.numerator, x.denominator
    out = [(num + i * den, p * den) for i in range(p)]
    if with_scaling:
        out.append((p * num, den))
    return out


def hecke_column_paths(space, p, j):
    """Column j of T_p (image of the j-th basis symbol), via paths."""
    if not is_prime(p):
        raise DomainError("expected a prime, got %d" % p)
    sym = space.free_symbols[j]
    a, b, c, d = space.lift(*space.p1.reps[sym])
    alpha = None if d == 0 else Fraction(b, d)      # image of 0
    beta = None if c == 0 else Fraction(a, c)       # image of infinity
    with_scaling = space.N % p != 0
    images = [space._path(xa, xb)
              for xa, xb in zip(_coset_images(alpha, p, with_scaling),
                                _coset_images(beta, p, with_scaling))]
    return [sum(col) for col in zip(*images)]


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
    row[j] != 0.  Only one matrix column is computed, by the path route,
    so this stays cheap for large p.
    """
    col = hecke_column_paths(space, p, j)
    num = None
    for ri, ci in zip(row, col):
        if ci == 0:
            continue
        term = ri * ci
        num = term if num is None else num + term
    if num is None:
        num = 0 * row[j]
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
