"""Primality and factorization in arith against sympy, and the clearing
of denominators against Fractions."""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from modfol.arith import (_common_denominator, _integers, factorize,
                          is_prime)
from modfol.errors import DomainError

# the first Carmichael numbers, and 3,215,031,751 = 151 * 751 * 28351, a
# strong pseudoprime to the bases 2, 3, 5 and 7
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 62745, 63973, 75361, 101101, 126217, 172081, 188461,
              252601, 278545, 294409, 314821, 334153, 340561, 399001)
PSEUDOPRIMES = CARMICHAEL + (3215031751, 2152302898747, 3474749660383,
                             341550071728321, 3825123056546413051)


def _seeded(seed, count):
    """Integers up to 10^14 at every scale: uniform digit counts, plus
    products of two primes above 1,000 and prime powers."""
    rng = random.Random(seed)
    out = [rng.randrange(1, 10 ** rng.randint(1, 14)) for _ in range(count)]
    for _ in range(count // 4):
        p = sympy.nextprime(rng.randrange(1000, 10 ** 7))
        q = sympy.nextprime(rng.randrange(1000, 10 ** 14 // p))
        out += [p * q, p ** 2, p ** 2 * rng.randint(1, 999)]
    return out


def test_is_prime_matches_sympy():
    for n in list(range(-3, 5000)) + _seeded(1, 1000) + list(PSEUDOPRIMES):
        assert is_prime(n) == sympy.isprime(n), n


def test_factorize_matches_sympy():
    for n in list(range(1, 3000)) + _seeded(2, 300) + list(PSEUDOPRIMES):
        assert factorize(n) == sorted(sympy.factorint(n).items()), n


def test_primes_near_the_genus_bound():
    # the largest primes below 10^14, and their products with small primes
    p = sympy.prevprime(10 ** 14)
    assert is_prime(p) and factorize(p) == [(p, 1)]
    q = sympy.prevprime(10 ** 7)
    assert factorize(q * q) == [(q, 2)]
    assert factorize(2 * 3 * q * sympy.prevprime(q)) == sorted(
        [(2, 1), (3, 1), (q, 1), (sympy.prevprime(q), 1)])


def test_is_prime_refuses_beyond_its_certificate():
    # the 13 bases decide every n below 3.3 * 10^24
    assert is_prime(3317044064679887385961813) == sympy.isprime(
        3317044064679887385961813)
    with pytest.raises(DomainError):
        is_prime(3317044064679887385961981)
    with pytest.raises(DomainError):
        factorize(0)


@pytest.mark.parametrize("n", [2.5, 9.5, 7.0, True, "7"])
def test_is_prime_refuses_a_non_int(n):
    # 2.5 and 9.5 read as primes, so a Hecke operator at p = 7.0 ended in a
    # bare TypeError from range
    with pytest.raises(DomainError, match="n must be int"):
        is_prime(n)


def test_clearing_matches_fractions():
    rng = random.Random(3901)
    for _ in range(200):
        pairs = [(rng.randint(1, 60), [rng.randint(-99, 99)
                                       for _ in range(rng.randint(0, 3))])
                 for _ in range(rng.randint(1, 5))]
        den, rows = _common_denominator(pairs)
        assert all(den % d == 0 for d, _ in pairs)
        assert [[Fraction(c, den) for c in row] for row in rows] == [
            [Fraction(c, d) for c in ints] for d, ints in pairs]
        values = [rng.choice((rng.randint(-9, 9), Fraction(
            rng.randint(-99, 99), rng.randint(1, 60)))) for _ in range(5)]
        den, ints = _integers(values)
        assert [Fraction(c, den) for c in ints] == values
        assert gcd(den, *ints) == 1
