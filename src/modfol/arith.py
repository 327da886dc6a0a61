"""Integer and rational helpers shared by the package.

Primality, the next prime, a sieve, trial-division factorization, and the
int-or-Fraction coercion used by every exact container.
"""

from fractions import Fraction
from math import isqrt

from .errors import DomainError


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def primes_up_to(m):
    if m < 2:
        return []
    sieve = bytearray([1]) * (m + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p:: p] = bytearray(len(sieve[p * p:: p]))
    return [i for i, b in enumerate(sieve) if b]


def factorize(n):
    """Prime factorization as a sorted list of (p, e)."""
    if n < 1:
        raise DomainError("expected a positive integer, got %d" % n)
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out
