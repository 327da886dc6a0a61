import random
import types
from fractions import Fraction

import pytest
import sympy

from modfol.eigen import _plus_hecke_matrix
from modfol.errors import DomainError, InternalInvariantError
from modfol.modsym import ModularSymbolSpace
import modfol.polys
from modfol.polys import (
    _gfp_distinct_degree,
    _gfp_factor,
    _hensel_lift_tree,
    _zp_add,
    _zp_divmod_monic,
    _zp_mul,
    _zp_sub,
    _zx_cofactor,
    _zx_derivative,
    _zx_div,
    _zx_gcd,
    _zx_prem,
    _zx_pseudo_divide,
    _zx_squarefree,
    QPolynomial,
    factor_poly,
    format_poly,
    is_irreducible,
    isolate_real_roots,
    parse_poly,
)


from oracles import fraction_isolate_real_roots


def to_sympy(p):
    x = sympy.Symbol("x")
    return sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(p.coeffs))


def sympy_factor_multiset(p):
    """{(degree, monic ascending coeffs): multiplicity} via sympy, as oracle."""
    x = sympy.Symbol("x")
    _, factors = sympy.factor_list(to_sympy(p), x)
    out = {}
    for f, mult in factors:
        poly = sympy.Poly(f, x)
        cs = [sympy.Rational(c) for c in reversed(poly.all_coeffs())]
        lead = cs[-1]
        cs = tuple(Fraction(int((c / lead).p), int((c / lead).q)) for c in cs)
        key = (len(cs) - 1, cs)
        out[key] = out.get(key, 0) + mult
    return out


def rand_poly(rng, deg, lo=-6, hi=6):
    cs = [Fraction(rng.randint(lo, hi)) for _ in range(deg)]
    cs.append(Fraction(rng.choice([1, 2, -1, 3])))
    return QPolynomial(cs)


X = sympy.Symbol("x")


def zx(ints):
    """A dense ascending integer list as a sympy Poly over ZZ."""
    return sympy.Poly(ints[::-1] or [0], X, domain="ZZ")


def from_zx(poly):
    return [int(c) for c in reversed(poly.all_coeffs())] if poly else []


def normalized(poly):
    """The primitive part with a positive leading coefficient."""
    prim = poly.primitive()[1]
    return from_zx(-prim if prim.LC() < 0 else prim)


def rand_zx(rng, deg, digits):
    """Degree deg, coefficients of up to digits digits, a nonzero and
    possibly negative leading coefficient."""
    bound = 10 ** digits
    return ([rng.randint(-bound, bound) for _ in range(deg)]
            + [rng.choice((-1, 1)) * rng.randint(1, bound)])


def fraction_sum(a, b):
    """Coefficients of a + b by a plain Fraction loop, trimmed."""
    out = [Fraction(0)] * max(len(a), len(b))
    for cs in (a, b):
        for i, c in enumerate(cs):
            out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def fraction_product(a, b):
    """Coefficients of a * b by a plain Fraction loop, trimmed."""
    out = [Fraction(0)] * (len(a) + len(b))
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return fraction_sum(out, [])


# (degree, digits) of the random integer operands: non-monic, up to degree
# 40 and coefficients of 100 digits
SIZES = [(1, 1), (3, 2), (6, 1), (10, 30), (17, 5), (25, 100), (40, 3),
         (40, 100)]


class TestArithmetic:
    def test_exact_division_against_sympy(self):
        rng = random.Random(20)

        def expected(a, b):
            quotient, rest = sympy.div(zx(a), zx(b), domain="QQ")
            if rest or any(not c.is_integer for c in quotient.all_coeffs()):
                return None
            return from_zx(quotient)

        for deg, digits in SIZES:
            b = rand_zx(rng, rng.randint(1, deg), digits)
            q = rand_zx(rng, rng.randint(0, deg), digits)
            a = from_zx(zx(b) * zx(q))
            assert _zx_div(a, b) == expected(a, b) == q
            # a remainder of lower degree, and a quotient over Q that is
            # not integral, make non-divisors
            r = from_zx(zx(a) + zx(rand_zx(rng, len(b) - 2, digits)))
            assert _zx_div(r, b) is expected(r, b) is None
            b2 = [2 * c for c in b]
            assert _zx_div(a, b2) == expected(a, b2)
        assert _zx_div([1, 0, 1], [1, 2]) is None       # 1/2 x - 1/4
        assert _zx_div([2, 3, 1], [-1, -1]) == [-2, -1]

    def test_gcd_divides_both(self):
        rng = random.Random(21)
        for deg, digits in SIZES:
            g = rand_zx(rng, rng.randint(1, deg), digits)
            a = from_zx(zx(g) * zx(rand_zx(rng, rng.randint(0, deg), digits)))
            b = from_zx(zx(g) * zx(rand_zx(rng, rng.randint(0, deg), digits)))
            d = _zx_gcd(a, b)
            assert d == normalized(zx(a).gcd(zx(b)))
            assert d[-1] > 0 and _zx_div(a, d) is not None
            assert _zx_div(b, d) is not None and len(d) >= len(g)
        assert _zx_gcd([4, 4], [6, 6]) == [1, 1]
        assert _zx_gcd([-3], []) == [1]

    def test_pseudo_division_identity(self):
        # m*a = q*b + r with deg r < deg b, m a power of |lc b|, and the
        # pseudo-remainder a positive multiple of sympy's remainder over Q
        rng = random.Random(22)
        for deg, digits in SIZES:
            b = rand_zx(rng, rng.randint(1, deg), digits)
            a = rand_zx(rng, rng.randint(0, 2 * deg), digits)
            m, q, r = _zx_pseudo_divide(a, b)
            assert zx(a) * m == zx(q) * zx(b) + zx(r)
            assert len(r) < len(b) and not (r and r[-1] == 0)
            assert m in {abs(b[-1]) ** k
                         for k in range(max(1, len(a) - len(b) + 2))}
            assert _zx_prem(a, b) == r
            rest = sympy.rem(zx(a), zx(b), domain="QQ")
            assert sympy.Poly(zx(r), X, domain="QQ") == rest * m

    def test_cofactor_inverts_modulo_f(self):
        # s*a = e modulo f, against sympy's remainder, for f of degree up
        # to 40 with 100-digit coefficients and a of any lower degree
        rng = random.Random(23)
        for deg, digits in SIZES:
            f = rand_zx(rng, deg + 1, digits)
            a = rand_zx(rng, rng.randint(0, deg), digits)
            if len(_zx_gcd(a, f)) > 1:
                assert _zx_cofactor(a, f) is None
                continue
            e, s = _zx_cofactor(a, f)
            assert e > 0 and len(s) < len(f) and s[-1] != 0
            rest = sympy.rem(zx(a) * zx(s), zx(f), domain="QQ")
            assert rest == sympy.Poly(e, X, domain="QQ")
        assert _zx_cofactor([-3], [2, 0, 1]) == (3, [-1])

    def test_cofactor_refuses_a_shared_factor(self):
        # (x - 1)(x^2 + 1) and 2(x - 1)(x + 3) share x - 1; the sequence
        # ends in zero, a step or two after it starts
        f = from_zx(zx([-1, 1]) * zx([1, 0, 1]))
        assert _zx_cofactor([-6, 4, 2], f) is None
        assert _zx_cofactor([-1, 1], f) is None
        assert _zx_cofactor([1, 0, 1], f) is None

    def test_evaluate_matches_expansion(self):
        p = parse_poly("x^3 - 2*x + 5")
        for t in [Fraction(0), Fraction(1), Fraction(-3, 2)]:
            assert p.evaluate(t) == t ** 3 - 2 * t + 5

    def test_ring_operations_match_fraction_loops(self):
        # zero, constant and rational operands of different lengths, and
        # int or Fraction operands on either side
        lists = [[], [5], [Fraction(-2, 3)], [1, Fraction(1, 2)],
                 [Fraction(3, 4), 0, Fraction(-5, 6), 7],
                 [0, 0, 0, 0, Fraction(1, 9)], [Fraction(2, 5)] * 6,
                 [Fraction(1, 6), Fraction(-1, 10), Fraction(1, 15)]]
        scalars = [0, 3, Fraction(-7, 4)]
        for a in lists:
            p = QPolynomial(a)
            for b in lists + [[s] for s in scalars]:
                q = QPolynomial(b)
                neg = [-c for c in b]
                assert (p + q).coeffs == (q + p).coeffs == fraction_sum(a, b)
                assert (p - q).coeffs == fraction_sum(a, neg)
                assert (p * q).coeffs == (q * p).coeffs == fraction_product(
                    a, b)
                assert all(type(c) is Fraction
                           for c in (p + q).coeffs + (p * q).coeffs)
            for s in scalars:
                assert (p + s).coeffs == (s + p).coeffs == fraction_sum(a, [s])
                assert (s - p).coeffs == fraction_sum([s], [-c for c in a])
                assert (p * s).coeffs == (s * p).coeffs == fraction_product(
                    a, [s])

    def test_pow(self):
        x = QPolynomial.x()
        assert (x + 1) ** 3 == parse_poly("x^3 + 3*x^2 + 3*x + 1")
        # 0, 1 and a large exponent against repeated Fraction products
        for cs in ([], [Fraction(-2, 3)], [Fraction(1, 2), 0, Fraction(-3, 5)],
                   [0, 1]):
            expected = (Fraction(1),)
            for n in range(41):
                if n in (0, 1, 2, 40):
                    assert (QPolynomial(cs) ** n).coeffs == expected
                expected = fraction_product(expected, cs)
        with pytest.raises(DomainError):
            x ** -1

    def test_zp_product_and_sum_match_naive_loops(self):
        # mod a prime and mod prime powers, on reduced, unreduced and
        # negative operands of different lengths, the empty list among them
        rng = random.Random(39)

        def naive_mul(a, b, m):
            out = [0] * (len(a) + len(b))
            for i in range(len(a)):
                for j in range(len(b)):
                    out[i + j] = (out[i + j] + a[i] * b[j]) % m
            return fraction_sum(out, [])

        def naive_add(a, b, m):
            n = max(len(a), len(b))
            a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
            return fraction_sum([(x + y) % m for x, y in zip(a, b)], [])

        for m in (3, 31, 3 ** 5, 7 ** 12):
            for _ in range(25):
                a, b = ([rng.randrange(-2 * m, 2 * m)
                         for _ in range(rng.randint(0, 9))] for _ in "ab")
                assert tuple(_zp_mul(a, b, m)) == naive_mul(a, b, m)
                assert tuple(_zp_add(a, b, m)) == naive_add(a, b, m)
                assert tuple(_zp_sub(a, b, m)) == naive_add(
                    a, [-c for c in b], m)


class TestFormatParse:
    CASES = [
        "x^2 + x - 1",
        "x^3 - 2*x + 5",
        "x - 1",
        "2*x^2 - 1/2",
        "x",
        "-x^4 + x^2",
        "7",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, text):
        p = parse_poly(text)
        assert parse_poly(format_poly(p)) == p

    def test_format_golden(self):
        assert format_poly(parse_poly("x^2+x-1")) == "x^2 + x - 1"
        assert format_poly(QPolynomial([])) == "0"
        assert format_poly(QPolynomial([Fraction(1, 2), 0, 1])) == "x^2 + 1/2"

    def test_parse_rejects_garbage(self):
        for bad in ["", "x^", "^2", "x^-1", "x+*2", "y+1"]:
            with pytest.raises(DomainError):
                parse_poly(bad)

    def test_power_bound(self):
        assert parse_poly("w^1000", var="w") == QPolynomial.x() ** 1000
        assert parse_poly("x^0001000") == QPolynomial.x() ** 1000
        for bad in ("w^1001", "2*w^01001", "w^99999999999999999999"):
            with pytest.raises(DomainError, match=r"above w\^1000"):
                parse_poly(bad, var="w")

    def test_zero_denominator_is_a_domain_error(self):
        for bad in ("1/0", "x/0 + 1", "1/0*x^2"):
            with pytest.raises(DomainError, match="malformed"):
                parse_poly(bad)


def rand_powers(rng, deg, digits):
    """A product of random integer polynomials to random powers, made
    primitive with a positive leading coefficient."""
    p = zx([1])
    for _ in range(rng.randint(1, 4)):
        p *= zx(rand_zx(rng, rng.randint(1, deg), digits)) ** rng.randint(1, 3)
    return normalized(p)


class TestSquarefree:
    """Yun's decomposition and the squarefree part over Z, against sympy."""

    def test_decomposition_reassembles(self):
        rng = random.Random(22)
        for deg, digits in SIZES[:-1]:
            f = rand_powers(rng, max(1, deg // 3), digits)
            parts = _zx_squarefree(f)
            assert ({(tuple(part), m) for part, m in parts}
                    == {(tuple(normalized(part)), m)
                        for part, m in zx(f).sqf_list()[1]})
            prod = zx([1])
            for part, m in parts:
                assert part[-1] > 0 and zx(part).is_sqf
                prod *= zx(part) ** m
            assert from_zx(prod) == f

    def test_squarefree_part(self):
        # the squarefree part that root isolation takes: f / gcd(f, f')
        rng = random.Random(27)
        for deg, digits in SIZES[:-1]:
            f = rand_powers(rng, max(1, deg // 3), digits)
            sf = _zx_div(f, _zx_gcd(f, _zx_derivative(f)))
            assert sf == normalized(zx(f).sqf_part())


class TestFactor:
    GOLDEN = [
        ("x^2 - 1", {(1, (Fraction(-1), Fraction(1))): 1,
                     (1, (Fraction(1), Fraction(1))): 1}),
        ("x^2 + x - 1", {(2, (Fraction(-1), Fraction(1), Fraction(1))): 1}),
        ("x^2 - x - 1", {(2, (Fraction(-1), Fraction(-1), Fraction(1))): 1}),
        ("x^4 - 1", {(1, (Fraction(-1), Fraction(1))): 1,
                     (1, (Fraction(1), Fraction(1))): 1,
                     (2, (Fraction(1), Fraction(0), Fraction(1))): 1}),
    ]

    @pytest.mark.parametrize("text,expected", GOLDEN)
    def test_golden(self, text, expected):
        got = {(f.degree, f.coeffs): m for f, m in factor_poly(parse_poly(text))}
        assert got == expected

    def test_against_sympy_random(self):
        rng = random.Random(23)
        for _ in range(25):
            p = rand_poly(rng, rng.randint(1, 6))
            if p.degree < 1:
                continue
            mine = {(f.degree, f.coeffs): m for f, m in factor_poly(p)}
            assert mine == sympy_factor_multiset(p)

    def test_structured_products(self):
        # products of known irreducibles, including repeated factors
        f1 = parse_poly("x^2 + x - 1")
        f2 = parse_poly("x^2 + 1")
        f3 = parse_poly("x - 3")
        p = f1 ** 2 * f2 * f3
        got = {(f.degree, f.coeffs): m for f, m in factor_poly(p)}
        assert got == {
            (2, f1.coeffs): 2,
            (2, f2.coeffs): 1,
            (1, f3.coeffs): 1,
        }

    def test_product_recovers_input_up_to_unit(self):
        rng = random.Random(24)
        for _ in range(15):
            p = rand_poly(rng, rng.randint(1, 6))
            prod = QPolynomial([p.coeffs[-1]])
            for f, m in factor_poly(p):
                assert f.coeffs[-1] == 1
                prod = prod * f ** m
            assert prod == p

    def test_rational_coefficients(self):
        p = parse_poly("x^2 - 1/4")
        got = {(f.degree, f.coeffs): m for f, m in factor_poly(p)}
        assert got == {(1, (Fraction(-1, 2), Fraction(1))): 1,
                       (1, (Fraction(1, 2), Fraction(1))): 1}

    def test_high_degree_cyclotomic_style(self):
        # x^12 - 1 has the divisors' cyclotomic factors
        p = parse_poly("x^12 - 1")
        mine = {(f.degree, f.coeffs): m for f, m in factor_poly(p)}
        assert mine == sympy_factor_multiset(p)
        assert sum(d * m for (d, _), m in mine.items()) == 12

    def test_x_powers(self):
        p = parse_poly("x^3 + x^2")
        got = {(f.degree, f.coeffs): m for f, m in factor_poly(p)}
        assert got == {(1, (Fraction(0), Fraction(1))): 2,
                       (1, (Fraction(1), Fraction(1))): 1}

    def test_x_power_products_match_sympy(self):
        # x^k (k <= 3) times seeded parts, some with a zero constant term:
        # Yun's parts and the subset search find x like any other factor
        rng = random.Random(3801)
        x = QPolynomial.x()
        for _ in range(30):
            p = x ** rng.randint(0, 3) * rng.choice([1, -2, Fraction(1, 3)])
            for _ in range(rng.randint(1, 2)):
                part = rand_poly(rng, rng.randint(1, 4), -4, 4)
                if rng.random() < 0.5:
                    part = part * x + rng.choice([0, 0, 1])
                p = p * part ** rng.randint(1, 2)
            factors = factor_poly(p)
            mine = {(f.degree, f.coeffs): m for f, m in factors}
            assert mine == sympy_factor_multiset(p), p
            prod = QPolynomial([p.coeffs[-1]])
            for f, m in factors:
                prod = prod * f ** m
            assert prod == p

    def test_constants_have_no_factors(self):
        for c in (1, -7, Fraction(2, 3)):
            assert factor_poly(QPolynomial([c])) == []

    @pytest.mark.parametrize("text", [
        "x", "2*x", "x^2", "x^3 + x", "x^2 - x", "-1/3*x", "x^3 - 2*x^2"])
    def test_irreducibility_with_zero_constant_term(self, text):
        p = parse_poly(text)
        expected = sympy.Poly(to_sympy(p), X, domain="QQ").is_irreducible
        assert is_irreducible(p) == expected

    def test_is_irreducible(self):
        assert is_irreducible(parse_poly("x^2 + x - 1"))
        assert is_irreducible(parse_poly("x^3 - x - 1"))
        assert not is_irreducible(parse_poly("x^2 - 1"))
        assert not is_irreducible(parse_poly("5"))

    def test_zero_raises(self):
        with pytest.raises(DomainError):
            factor_poly(QPolynomial([]))

    def test_deterministic_order(self):
        p = parse_poly("x^4 - 1")
        fs = factor_poly(p)
        keys = [(f.degree, f.coeffs) for f, _ in fs]
        assert keys == sorted(keys)


def gfp_factor(f, p):
    """The factorisation mod p of a monic squarefree f: its distinct-degree
    parts, each split by equal-degree factorisation."""
    return _gfp_factor(_gfp_distinct_degree(f, p), p)


class TestFactorModP:
    """The factorisation mod p that Hensel lifting starts from, against
    sympy's factorisation over GF(p)."""

    PRIMES = (3, 5, 7, 11, 31)

    @staticmethod
    def sympy_factors(f, p):
        """Monic irreducible factors over residues 0..p-1, sorted like
        _gfp_factor's: by length, then by coefficients from the top."""
        x = sympy.Symbol("x")
        _, factors = sympy.Poly(f[::-1], x, modulus=p).factor_list()
        out = []
        for g, mult in factors:
            assert mult == 1
            cs = [int(c) % p for c in reversed(g.all_coeffs())]
            inv = pow(cs[-1], -1, p)
            out.append([c * inv % p for c in cs])
        return sorted(out, key=lambda g: (len(g), g[::-1]))

    @staticmethod
    def monic_product(factors, p):
        x = sympy.Symbol("x")
        prod = sympy.Poly(1, x, modulus=p)
        for g in factors:
            prod *= sympy.Poly(g[::-1], x, modulus=p)
        return [int(c) % p for c in reversed(prod.all_coeffs())]

    def check(self, f, p):
        got = gfp_factor(f, p)
        assert got == self.sympy_factors(f, p)
        assert gfp_factor(f, p) == got

    @pytest.mark.parametrize("p", PRIMES)
    def test_random_squarefree(self, p):
        rng = random.Random(p)
        x = sympy.Symbol("x")
        checked = 0
        while checked < 8:
            f = [rng.randrange(p) for _ in range(rng.randint(1, 20))] + [1]
            if not sympy.Poly(f[::-1], x, modulus=p).is_sqf:
                continue
            self.check(f, p)
            checked += 1

    @pytest.mark.parametrize("p,d", [(3, 3), (3, 4), (5, 1), (5, 2),
                                     (7, 3), (11, 1), (31, 2)])
    def test_many_factors_of_one_degree(self, p, d):
        # four or more distinct irreducibles of degree d: the distinct-degree
        # step returns them as one part, which the equal-degree step must
        # split all the way down
        rng = random.Random(100 * p + d)
        x = sympy.Symbol("x")
        count = 4 + rng.randrange(2)
        chosen = set()
        while len(chosen) < count:
            g = tuple([rng.randrange(p) for _ in range(d)] + [1])
            if sympy.Poly(g[::-1], x, modulus=p).is_irreducible:
                chosen.add(g)
        factors = [list(g) for g in chosen]
        f = self.monic_product(factors, p)
        assert gfp_factor(f, p) == sorted(factors,
                                           key=lambda g: (len(g), g[::-1]))
        self.check(f, p)

    @pytest.mark.parametrize("n", [2, 7, 20])
    def test_distinct_degree_stops_at_half_the_degree(self, n, monkeypatch):
        # an irreducible f of degree n has no factor of degree <= n/2, so it
        # is known irreducible after n // 2 Frobenius powers x^(p^d) mod f
        p = 5
        rng = random.Random(n)
        x = sympy.Symbol("x")
        while True:
            f = [rng.randrange(p) for _ in range(n)] + [1]
            if sympy.Poly(f[::-1], x, modulus=p).is_irreducible:
                break
        calls = []
        powmod = modfol.polys._gfp_powmod

        def counted(base, e, mod, q):
            calls.append(e)
            return powmod(base, e, mod, q)

        monkeypatch.setattr(modfol.polys, "_gfp_powmod", counted)
        assert gfp_factor(f, p) == [f]
        assert calls == [p] * (n // 2)


def swinnerton_dyer(primes):
    """The monic integer polynomial whose roots are the sums of +-sqrt(q)
    over the primes q (degree 2^len(primes), irreducible over Q, and a
    product of factors of degree <= 2 modulo every prime).

    f_next(x) = f(x + s) f(x - s) for s = sqrt(q): with f(x + s) = A + s B,
    reduced by s^2 = q, that is A^2 - q B^2.
    """
    x = QPolynomial.x()
    f = x
    for q in primes:
        a, b = QPolynomial([]), QPolynomial([])
        for c in reversed(f.coeffs):
            a, b = a * x + b * q + c, a + b * x
        f = a * a - b * b * q
    return f


def _irreducibility_corpus(seed):
    """Seeded rational polynomials of degree 1-12, products of two of them
    and squares, polynomials whose leading coefficient or discriminant 3,
    5 and 7 divide (so that the first odd primes are not good), cyclic
    cubics, and the Swinnerton-Dyer polynomials of degree 8 and 16."""
    rng = random.Random(seed)

    def rational(deg):
        return QPolynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                            for _ in range(deg)]
                           + [Fraction(rng.choice((1, 2, -3, 5)),
                                       rng.randint(1, 3))])

    for deg in range(1, 13):
        yield rational(deg)
        yield rational(deg)
    for _ in range(10):
        yield rational(rng.randint(1, 6)) * rational(rng.randint(1, 6))
        yield rational(rng.randint(1, 5)) ** 2
    yield parse_poly("x^2 + x")
    yield parse_poly("2*x")
    x = QPolynomial.x()
    for deg in range(1, 9):
        # lead 105: every coefficient of the monic integer form but the top
        # is divisible by 3, 5 and 7
        yield QPolynomial([rng.randint(-9, 9) for _ in range(deg)] + [105])
        # g(x) g(x + 105) + 105 r(x) is g^2 modulo 3, 5 and 7
        g = QPolynomial([rng.randint(-5, 5) for _ in range(deg)] + [1])
        shifted = g.evaluate(x + 105)
        yield g * shifted + QPolynomial(
            [105 * rng.randint(-3, 3) for _ in range(deg)])
    # Shanks's simplest cubics, cyclic and irreducible for every t
    for t in (-1, 0, 1, 2, 5, 11):
        yield QPolynomial([-1, -(t + 3), -t, 1])
    yield swinnerton_dyer((2, 3, 5))
    yield swinnerton_dyer((2, 3, 5, 7))


class TestIrreducibility:
    def test_matches_sympy_and_factor_poly(self):
        cases = 0
        for p in _irreducibility_corpus(3604):
            expected = sympy.Poly(to_sympy(p), X, domain="QQ").is_irreducible
            assert is_irreducible(p) == expected, p
            fs = factor_poly(p)
            assert expected == (len(fs) == 1 and fs[0][1] == 1
                                and fs[0][0].degree == p.degree), p
            cases += 1
        assert cases == 70

    def test_swinnerton_dyer(self):
        sd = swinnerton_dyer((2, 3, 5, 7))
        assert sd.degree == 16 and all(c.denominator == 1 for c in sd.coeffs)
        assert is_irreducible(sd)
        assert not is_irreducible(sd * swinnerton_dyer((2, 3)))
        assert not is_irreducible(sd * sd)

    @pytest.mark.parametrize("text", [
        "x^2 - x - 1", "x^3 - x - 1",
        # torus quadratics x^2 - t x + 1 of traces 3, -3, 4, -4, 6 and 7
        "x^2 - 3*x + 1", "x^2 + 3*x + 1", "x^2 - 4*x + 1", "x^2 + 4*x + 1",
        "x^2 - 6*x + 1", "x^2 - 7*x + 1",
        # the other benchmark fields that stay irreducible at their first
        # good prime
        "x^2 - 2", "x^2 - 3", "x^2 - 5", "x^3 - 3*x - 1",
        "x^3 - x^2 - 2*x + 1"])
    def test_decided_at_the_first_good_prime(self, text, monkeypatch):
        # an image that is irreducible mod the first good prime decides:
        # no RNG, equal-degree split, Hensel lift, sort or QPolynomial
        def refuse(*args, **kwargs):
            raise AssertionError("reached")

        p = parse_poly(text)
        for name in ("_gfp_equal_degree", "_hensel_lift_tree",
                     "_hensel_step", "factor_poly", "QPolynomial"):
            monkeypatch.setattr(modfol.polys, name, refuse)
        monkeypatch.setattr(modfol.polys, "sorted", refuse, raising=False)
        monkeypatch.setattr(modfol.polys, "random",
                            types.SimpleNamespace(Random=refuse))
        assert is_irreducible(p)

    @pytest.mark.parametrize("text,prime", [
        ("x^2 - 6", 5), ("x^2 - 7", 3), ("x^2 - 5*x + 1", 5)])
    def test_split_at_the_first_good_prime(self, text, prime, monkeypatch):
        # x^2 - 6 and x^2 - 5x + 1 split mod 5, their first good prime, and
        # x^2 - 7 mod 3: Zassenhaus lifts the linear factors and finds no
        # factor over Z
        split = []
        equal_degree = modfol.polys._gfp_equal_degree

        def counted(g, d, p, rng):
            split.append((d, p))
            return equal_degree(g, d, p, rng)

        monkeypatch.setattr(modfol.polys, "_gfp_equal_degree", counted)
        assert is_irreducible(parse_poly(text))
        assert split[0] == (1, prime)

    def test_repeated_factor_refused_by_one_gcd(self, monkeypatch):
        # a square is squarefree modulo no prime: one gcd over Z refuses it
        # before the search for a good prime starts
        monkeypatch.setattr(modfol.polys, "next_prime",
                            lambda n: pytest.fail("prime search started"))
        monkeypatch.setattr(modfol.polys, "_factor_monic_squarefree_z",
                            lambda f: pytest.fail("Zassenhaus started"))
        for p in (parse_poly("x^2 - 2*x + 1"), parse_poly("x^2 - 2") ** 2,
                  swinnerton_dyer((2, 3)) ** 2):
            assert not is_irreducible(p)


class TestSturm:
    def test_count_golden(self):
        assert len(isolate_real_roots(parse_poly("x^2 + x - 1"))) == 2
        assert len(isolate_real_roots(parse_poly("x^2 + 1"))) == 0
        assert len(isolate_real_roots(parse_poly("x^3 - x"))) == 3

    def test_count_against_sympy(self):
        rng = random.Random(25)
        x = sympy.Symbol("x")
        for _ in range(20):
            p = rand_poly(rng, rng.randint(1, 6))
            if p.degree < 1:
                continue
            # sympy counts with multiplicity; compare distinct roots
            expected_distinct = len(set(sympy.Poly(to_sympy(p), x).real_roots()))
            assert len(isolate_real_roots(p)) == expected_distinct

    def test_isolation(self):
        rng = random.Random(26)
        x = sympy.Symbol("x")
        for _ in range(15):
            p = rand_poly(rng, rng.randint(1, 6))
            if p.degree < 1:
                continue
            ivs = isolate_real_roots(p)
            assert len(ivs) == len(set(sympy.Poly(to_sympy(p), x).real_roots()))
            prev_hi = None
            sf = sympy.Poly(to_sympy(p), x).sqf_part()
            for lo, hi in ivs:
                assert lo < hi
                at_lo = sf.eval(sympy.Rational(lo.numerator, lo.denominator))
                at_hi = sf.eval(sympy.Rational(hi.numerator, hi.denominator))
                assert at_lo != 0 and at_hi != 0
                # sign change across the interval
                assert (at_lo > 0) != (at_hi > 0)
                if prev_hi is not None:
                    assert lo >= prev_hi
                prev_hi = hi

    def test_isolation_with_rational_roots(self):
        p = parse_poly("x^2 - 1") * parse_poly("x^2 - 2")
        ivs = isolate_real_roots(p)
        assert len(ivs) == 4

    def test_integer_chain_is_a_positive_multiple_of_sympys(self,
                                                           monkeypatch):
        # the first sign query of each member is at the Cauchy bound -M,
        # so the first calls list the chain in order
        seen = []
        sign_at = modfol.polys._sign_at

        def recorded(ints, num, den):
            seen.append(ints)
            return sign_at(ints, num, den)

        monkeypatch.setattr(modfol.polys, "_sign_at", recorded)
        rng = random.Random(28)
        for p in _isolation_corpus(range(2, 13), 2011):
            p = p * rng.choice((-3, -1, 1, 2))
            chain = sympy.Poly(to_sympy(p), X, domain="QQ").sturm()
            seen.clear()
            isolate_real_roots(p)
            for member, over_q in zip(seen, chain):
                over_q = [sympy.Rational(c) for c in reversed(over_q.all_coeffs())]
                assert len(member) == len(over_q)
                ratio = member[-1] / over_q[-1]
                assert ratio > 0
                assert [c * ratio for c in over_q] == member
            assert len({tuple(m) for m in seen}) == len(chain)


def _isolation_corpus(degrees, seed):
    """Per degree: a dense polynomial with coefficients in -3..3, one with
    rational coefficients, and one with rational roots and a repeated
    factor."""
    rng = random.Random(seed)
    for deg in degrees:
        yield QPolynomial([rng.randint(-3, 3) for _ in range(deg)]
                          + [rng.choice((-2, -1, 1, 3))])
        yield QPolynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                           for _ in range(deg)] + [Fraction(1, 7)])
        p = QPolynomial([rng.randint(-2, 2) for _ in range(deg // 2)] + [1])
        for _ in range(deg - p.degree):
            root = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            p = p * QPolynomial([-root, 1])
        yield p * QPolynomial([-root, 1])


def _check_isolation(degrees, seed):
    for p in _isolation_corpus(degrees, seed):
        assert isolate_real_roots(p) == fraction_isolate_real_roots(p), p


# the benchmark's nine --poly fields, ascending, then polynomials with
# rational coefficients, one with a negative leading coefficient, x^2 - 1,
# whose root -1 is the first cut point tried in (-2, 2), rational roots,
# and (x - 1)^2 (x^2 + 1)
_ISOLATION_FIELDS = ("-1,-1,1", "-2,0,1", "-3,0,1", "-5,0,1", "-6,0,1",
                     "-7,0,1", "-1,-1,0,1", "-1,-3,0,1", "1,-2,-1,1",
                     "-1/2,1/3,1", "5/7,0,-3/2,1/5", "1/3,-2,0,0,-7/4",
                     "-1,0,1", "0,-4,0,1", "1,-2,2,-2,1")


def test_isolation_matches_fraction_sturm_signs():
    # the integer Horner signs pick the same bisection points as Fraction
    # Horner, so every interval is the same Fraction
    _check_isolation(range(2, 13), 2009)
    for text in _ISOLATION_FIELDS:
        p = QPolynomial([Fraction(c) for c in text.split(",")])
        assert isolate_real_roots(p) == fraction_isolate_real_roots(p), p


@pytest.mark.slow
def test_isolation_matches_fraction_sturm_signs_to_degree_40():
    _check_isolation(range(13, 41), 2010)


@pytest.mark.slow
def test_factor_t2_charpoly_at_level_997():
    # degree 82 with repeated factors, where Yun's gcds need remainder
    # sequences that keep their coefficients small
    cp = QPolynomial(_plus_hecke_matrix(ModularSymbolSpace(997), 2).charpoly())
    factors = factor_poly(cp)
    assert [(f.degree, m) for f, m in factors] == [
        (1, 1), (1, 2), (2, 2), (5, 1), (5, 1), (23, 1), (42, 1)]
    prod = QPolynomial([1])
    for f, m in factors:
        prod = prod * f ** m
    assert prod == cp


class TestInternalInvariants:
    def test_division_by_non_monic_raises(self):
        with pytest.raises(InternalInvariantError):
            _zp_divmod_monic([1, 2, 1], [1, 2], 9)

    def test_hensel_lift_of_common_factor_raises(self):
        # (x + 1)^2 = (x + 1)(x + 1) mod 3: the factors are not coprime
        with pytest.raises(InternalInvariantError):
            _hensel_lift_tree([1, 2, 1], [[1, 1], [1, 1]], 3, 81)
