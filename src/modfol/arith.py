"""Integer and rational helpers shared by the package.

Primality, the next prime, a smallest-prime-factor sieve, factorization
by trial division and Pollard's rho; the two readers through which every
entry point reads a number argument, `_as_int` for an integer and
`_as_fraction` for an exact rational; and for exact containers the one
clearing of denominators (Fractions, or integer vectors over a
denominator each, as integers over the lcm of theirs) and the one
binary-power loop.
"""

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm

from .errors import DomainError


def _as_int(x, what):
    """x if it is an int, else a DomainError naming `what`: int() would
    read 2.5 as 2, "5" as 5 and True as 1."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise DomainError("%s must be int, not %s" % (what, type(x).__name__))
    return x


def _as_fraction(x, what):
    """x as a Fraction if it is a Fraction or an int, else a DomainError
    naming `what`: Fraction() would read 0.5, "1/2", Decimal("0.5") and
    True alike."""
    if isinstance(x, Fraction):
        return x
    if not isinstance(x, int) or isinstance(x, bool):
        raise DomainError("%s must be int or Fraction, not %s"
                          % (what, type(x).__name__))
    return Fraction(x)


def _lowest_terms(den, ints):
    """(den, ints) divided by gcd(den, *ints), for den > 0: the one normal
    form of the rational vector ints / den, so equal vectors store equal."""
    g = gcd(den, *ints) if den > 1 else 1
    if g > 1:
        return den // g, [x // g for x in ints]
    return den, ints


def _common_denominator(pairs):
    """(den, rows): the rational vectors ints / d of (d, ints) pairs, each
    d > 0, as integer rows over one den, the lcm of the d's."""
    den = lcm(*[d for d, _ in pairs])
    return den, [[c * (den // d) for c in ints] for d, ints in pairs]


def _integers(values, what="values"):
    """(den, ints): int-or-Fraction values as integers over one den > 0,
    in lowest terms (the lcm of reduced denominators leaves no factor);
    any other value is a DomainError naming `what`."""
    if set(map(type, values)) <= {int}:
        return 1, list(values)
    fractions = [_as_fraction(x, what) for x in values]
    den, rows = _common_denominator([(x.denominator, (x.numerator,))
                                     for x in fractions])
    return den, [c for c, in rows]


def _power(x, n, one):
    """x ** n for an int n >= 0, by binary powering from ``one``."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


def is_prime(n):
    """Deterministic: trial division by the primes below 1,000 settles
    n < 10^6; then strong probable-prime tests to the first 13 prime bases,
    which no composite below 3.3 * 10^24 passes (Sorenson & Webster 2017)."""
    n = _as_int(n, "n")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return False
    if n >= 3317044064679887385961981:
        raise DomainError("primality is certified below 3.3 * 10^24")
    s = ((n - 1) & (1 - n)).bit_length() - 1    # n - 1 = 2^s * odd
    for a in _SMALL_PRIMES[:13]:
        # a^odd is 1, or squares to -1 within s - 1 squarings, mod a prime
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << i, n) != n - 1 for i in range(s)):
            return False
    return True


def next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def smallest_prime_factors(m):
    """spf[k] is the smallest prime factor of k for 2 <= k <= m."""
    spf = list(range(m + 1))
    # a smaller p is sieved later, so each k keeps its smallest factor
    for p in range(isqrt(max(m, 0)), 1, -1):
        spf[p * p::p] = [p] * len(range(p * p, m + 1, p))
    return spf


def _primes_up_to(m):
    return [p for p, s in enumerate(smallest_prime_factors(m)) if s == p > 1]


_SMALL_PRIMES = _primes_up_to(1000)


def _rho(n):
    """A proper factor of a composite n free of primes below 1,000, by
    Pollard's rho with Brent's cycle search on x^2 + c, c = 1, 2, ..."""
    for c in count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g


def factorize(n):
    """Prime factorization as a sorted list of (p, e): trial division by
    the primes below 1,000, then rho on a composite cofactor."""
    if n < 1:
        raise DomainError("expected a positive integer, got %d" % n)
    out = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        if p * p > n:
            break
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        # m has no prime factor below 1,000, so m < 1,000^2 is prime
        if m < 10 ** 6 or is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            parts += [d, m // d]
    return sorted(out.items())
