"""Univariate polynomials over Q: arithmetic, root isolation, factorization.

QPolynomial holds ascending Fraction coefficients; the zero polynomial has
an empty tuple and degree -1.  Its sums and products clear denominators
once and run on dense integer lists, through the one product `_zx_mul`
and sum `_zx_add` that (Z/m)[x] reduces mod m and number fields by their
defining polynomial.  Remainders are computed on the same lists by
primitive remainder sequences (Collins 1967; Brown 1971): gcds, Yun's
squarefree decomposition and the Sturm chains of root isolation.
Factorization over Q scales the monic polynomial to a monic integer one,
splits it by Yun, factors each part modulo the first usable odd prime
(Cantor-Zassenhaus), lifts by quadratic Hensel steps beyond the Mignotte
bound and recombines by Zassenhaus's subset search with exact division;
x, when p(0) = 0, is found there like any other factor.  Factors come
back monic, sorted by degree then coefficients.
Irreducibility is read off the same monic integer polynomial: one gcd
with its derivative refuses a repeated factor, an image that is
irreducible modulo that prime decides at once, and otherwise the same
lift and recombination finish it.  Root isolation splits its intervals
on integer endpoints over a common denominator.
"""

import random
from fractions import Fraction
from itertools import combinations, zip_longest
from math import gcd, isqrt

from .arith import _as_fraction, _integers, _power, next_prime
from .errors import DomainError, InternalInvariantError

# highest power parse_poly accepts: x^k is a dense list of k + 1 coefficients
MAX_POWER = 1000


class QPolynomial:
    """Dense univariate polynomial over Q, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = tuple(_gfp_trim([_as_fraction(c, "coefficients")
                                       for c in coeffs]))

    # -- basics -----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, QPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "QPolynomial(%s)" % (format_poly(self),)

    def __bool__(self):
        return not self.is_zero()

    @classmethod
    def x(cls):
        return cls([0, 1])

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        n = len(self.coeffs)
        den, ints = _integers(self.coeffs + _coerce(other).coeffs)
        return QPolynomial([Fraction(c, den)
                            for c in _zx_add(ints[:n], ints[n:])])

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        n = len(self.coeffs)
        den, ints = _integers(self.coeffs + _coerce(other).coeffs)
        return QPolynomial([Fraction(c, den * den)
                            for c in _zx_mul(ints[:n], ints[n:])])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise DomainError("negative power")
        return _power(self, n, QPolynomial([1]))

    def monic(self):
        if self.is_zero():
            raise DomainError("cannot normalize zero polynomial")
        lead = self.coeffs[-1]
        return self if lead == 1 else QPolynomial([c / lead for c in self.coeffs])

    def evaluate(self, x):
        """Horner evaluation; works for any x supporting + and * with Fractions."""
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0)
        return acc


def _coerce(x):
    return x if isinstance(x, QPolynomial) else QPolynomial([x])


# -- Z[x] (dense int lists, ascending): products, sums, remainder sequences ----


def _zx_mul(a, b):
    """Product in Z[x], len(a) + len(b) - 1 long; (Z/m)[x] and Q[x]/(f)
    reduce it."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _zx_add(a, b):
    """Sum in Z[x], untrimmed; (Z/m)[x] reduces it."""
    return [x + y for x, y in zip_longest(a, b, fillvalue=0)]


def _primitive(a):
    """a divided by its positive content."""
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _zx_derivative(a):
    return [i * c for i, c in enumerate(a)][1:]


def _zx_prem(a, b):
    """Pseudo-remainder of a by b != 0 in Z[x].  Each step scales a by
    |lc b| > 0, so the result is a positive multiple of the remainder over
    Q and keeps every Sturm sign."""
    a = list(a)
    scale, n = abs(b[-1]), len(b) - 1
    while len(a) > n:
        c = a.pop() if b[-1] > 0 else -a.pop()      # the top term cancels
        k = len(a) - n
        if scale != 1:
            a = [x * scale for x in a]
        for i in range(n):
            a[k + i] -= c * b[i]
        _gfp_trim(a)
    return a


def _zx_gcd(a, b):
    """Primitive gcd in Z[x] with a positive leading coefficient, by the
    primitive remainder sequence (Collins 1967, Brown 1971): each remainder
    is made primitive before it divides, so coefficients do not grow."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_zx_prem(a, b))
    return [-c for c in a] if a and a[-1] < 0 else a


def _zx_div(a, b):
    """Exact quotient a / b in Z[x], or None if b does not divide a."""
    a = list(a)
    lead, n = b[-1], len(b)
    q = [0] * max(0, len(a) - n + 1)
    while len(a) >= n:
        c, r = divmod(a[-1], lead)
        if r:
            return None
        k = len(a) - n
        q[k] = c
        for i, cb in enumerate(b):
            a[k + i] -= c * cb
        _gfp_trim(a)
    return q if not a else None


def _zx_squarefree(f):
    """Yun's squarefree decomposition of a primitive f with lc f > 0:
    (part, multiplicity) pairs, f = prod part^mult, the parts primitive,
    squarefree and pairwise coprime with positive leading coefficients."""
    g = _zx_gcd(f, _zx_derivative(f))
    w = _zx_div(f, g)
    out = []
    i = 1
    while len(w) > 1:
        y = _zx_gcd(w, g)
        z = _zx_div(w, y)
        if len(z) > 1:
            out.append((z, i))
        w = y
        g = _zx_div(g, y)
        i += 1
    return out


# -- Sturm sequences ----------------------------------------------------------


def _sign_at(ints, num, den):
    """Sign of sum ints[i] (num/den)^i for den > 0, by Horner on the
    integer sum ints[i] num^i den^(n-1-i), n = len(ints)."""
    acc = 0
    scale = 1
    for c in reversed(ints):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def isolate_real_roots(p):
    """Disjoint open rational intervals, one per distinct real root, sorted.

    Returns (lo, hi) pairs with lo < hi, p(lo) != 0 != p(hi), and exactly one
    real root of p strictly inside each; consecutive intervals are disjoint.
    Because each isolated root is simple (squarefree part) and interior,
    p(lo) and p(hi) have opposite signs, so the interval can be refined by
    sign bisection.  The search runs on integer endpoints over a common
    denominator, and only the intervals it returns are Fractions.
    """
    if p.is_zero():
        raise DomainError("cannot isolate the roots of the zero polynomial")
    # the primitive squarefree part in Z[x] with a positive leading
    # coefficient and its Sturm chain, each member a positive multiple of
    # the one over Q, give signs by integer Horner
    f = _primitive(_integers(p.coeffs)[1])
    if f[-1] < 0:
        f = [-c for c in f]
    f = _zx_div(f, _zx_gcd(f, _zx_derivative(f)))
    deg = len(f) - 1
    if deg < 1:
        return []
    chain = [f, _zx_derivative(f)]
    while len(chain[-1]) > 1:
        rem = _zx_prem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in _primitive(rem)])

    def var(num, den):
        signs = [s for s in (_sign_at(q, num, den) for q in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    # every real root lies inside (-M, M) (Cauchy), M = 1 + max|f_i| / f_n;
    # an interval is (lo / den, hi / den)
    M, den = f[-1] + max(map(abs, f[:-1])), f[-1]
    out = []
    stack = [(-M, M, den, var(-M, den), var(M, den))]
    while stack:
        lo, hi, den, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            out.append((Fraction(lo, den), Fraction(hi, den)))
        elif vlo - vhi > 1:
            # f has at most deg roots, so one of the deg + 1 interior points
            # lo + (hi - lo) k / (deg + 2) is not a root
            width, n = hi - lo, deg + 2
            lo, hi, den = lo * n, hi * n, den * n
            for k in range(1, n):
                mid = lo + width * k
                if _sign_at(f, mid, den):
                    break
            else:
                raise InternalInvariantError("no non-root cut point found")
            vm = var(mid, den)
            stack.append((lo, mid, den, vlo, vm))
            stack.append((mid, hi, den, vm, vhi))
    return sorted(out)


# -- arithmetic in GF(p)[x] (dense int lists, ascending) ----------------------


def _gfp_trim(a):
    """Drop the top zero coefficients of a dense ascending list, in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_mul(a, b, m):
    """Product in (Z/m)[x]: m is p for the factorisation mod p, a power of p
    for Hensel lifting."""
    return _gfp_trim([c % m for c in _zx_mul(a, b)])


def _zp_prod(factors, m):
    """Product of a list of polynomials in (Z/m)[x]."""
    out = [1]
    for g in factors:
        out = _zp_mul(out, g, m)
    return out


def _zp_add(a, b, m):
    """Sum in (Z/m)[x]."""
    return _gfp_trim([c % m for c in _zx_add(a, b)])


def _zp_sub(a, b, m):
    """Difference in (Z/m)[x]."""
    return _zp_add(a, [-c for c in b], m)


def _gfp_divmod(a, b, p):
    """divmod of reduced operands in (Z/p)[x]: p prime, or b monic."""
    if not b:
        raise ZeroDivisionError
    a = a[:]
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        c = (a[-1] * inv) % p
        k = len(a) - len(b)
        q[k] = c
        for i, cb in enumerate(b):
            a[k + i] = (a[k + i] - c * cb) % p
        _gfp_trim(a)
    return _gfp_trim(q), a


def _gfp_gcd(a, b, p):
    """Monic gcd in GF(p)[x]."""
    a, b = a[:], b[:]
    while b:
        a, b = b, _gfp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [(c * inv) % p for c in a]
    return a


def _gfp_xgcd(a, b, p):
    """(g, s, t) with s*a + t*b = g (monic) in GF(p)[x]."""
    r0, r1 = a[:], b[:]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gfp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _zp_sub(s0, _zp_mul(q, s1, p), p)
        t0, t1 = t1, _zp_sub(t0, _zp_mul(q, t1, p), p)
    if r0:
        inv = pow(r0[-1], -1, p)
        r0 = [(c * inv) % p for c in r0]
        s0 = [(c * inv) % p for c in s0]
        t0 = [(c * inv) % p for c in t0]
    return r0, s0, t0


def _gfp_powmod(base, e, mod, p):
    base = _gfp_divmod(base, mod, p)[1]
    result = [1]
    for bit in bin(e)[2:]:
        result = _gfp_divmod(_zp_mul(result, result, p), mod, p)[1]
        if bit == "1":
            result = _gfp_divmod(_zp_mul(result, base, p), mod, p)[1]
    return result


_SPLIT_ATTEMPTS = 64    # each attempt splits with probability about 1/2


def _gfp_distinct_degree(f, p):
    """[(g, d)]: the distinct-degree parts of a monic squarefree f in
    GF(p)[x], g the product of the irreducible factors of degree d.

    gcd(f, x^(p^d) - x) is the product of the factors of degree d, and once
    2d exceeds the degree left, what is left is irreducible.
    """
    parts = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _gfp_powmod(h, p, f, p)
        g = _gfp_gcd(f, _zp_sub(h, [0, 1], p), p)
        if len(g) > 1:
            parts.append((g, d))
            f = _gfp_divmod(f, g, p)[0]
    if len(f) > 1:
        parts.append((f, len(f) - 1))
    return parts


def _gfp_factor(parts, p):
    """Monic irreducible factors in GF(p)[x], p odd, of the product of the
    distinct-degree parts of a monic squarefree polynomial, sorted: each
    part split by equal-degree factorisation."""
    rng = random.Random(0)
    factors = []
    for g, d in parts:
        factors += _gfp_equal_degree(g, d, p, rng)
    return sorted(factors, key=_poly_sort_key)


def _gfp_equal_degree(g, d, p, rng):
    """Split a monic g, a product of irreducibles of degree d, into them.

    For a random a, a^((p^d - 1)/2) is 1 modulo about half of the factors
    of g, so gcd(g, a^((p^d - 1)/2) - 1) splits g.
    """
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p ** d - 1) // 2
    for _ in range(_SPLIT_ATTEMPTS):
        a = _gfp_trim([rng.randrange(p) for _ in range(n)])
        s = _gfp_gcd(g, _zp_sub(_gfp_powmod(a, e, g, p), [1], p), p)
        if 0 < len(s) - 1 < n:
            return (_gfp_equal_degree(s, d, p, rng)
                    + _gfp_equal_degree(_gfp_divmod(g, s, p)[0], d, p, rng))
    raise InternalInvariantError(
        "no equal-degree split of a degree-%d product in %d attempts"
        % (n, _SPLIT_ATTEMPTS))


def _poly_sort_key(g):
    return (len(g), tuple(reversed(g)))


# -- Hensel lifting ------------------------------------------------------------


def _zp_divmod_monic(a, b, m):
    """Division by a monic b in (Z/m)[x]."""
    if not b or b[-1] != 1:
        raise InternalInvariantError("divisor is not monic")
    return _gfp_divmod(_gfp_trim([c % m for c in a]), b, m)


def _hensel_step(f, g, h, s, t, m):
    """One quadratic lift: from mod m to mod m*m.

    Requires f = g*h (mod m), s*g + t*h = 1 (mod m), f, g, h monic.
    Returns g*, h*, s*, t* with the same relations mod m*m.
    """
    mm = m * m
    e = _zp_sub(f, _zp_mul(g, h, mm), mm)
    q, r = _zp_divmod_monic(_zp_mul(s, e, mm), h, mm)
    # g + t*e + q*g and h + r; phantom top coefficients of g_ are 0 mod m*m
    # (the product must stay monic of the right degree) and get trimmed.
    g_ = _zp_add(g, _zp_add(_zp_mul(t, e, mm), _zp_mul(q, g, mm), mm), mm)
    h_ = _zp_add(h, r, mm)
    b = _zp_sub(_zp_add(_zp_mul(s, g_, mm), _zp_mul(t, h_, mm), mm), [1], mm)
    c, d = _zp_divmod_monic(_zp_mul(s, b, mm), h_, mm)
    s_ = _zp_sub(s, d, mm)
    t_ = _zp_sub(t, _zp_add(_zp_mul(t, b, mm), _zp_mul(c, g_, mm), mm), mm)
    return g_, h_, s_, t_


def _hensel_lift_tree(f, factors, p, m):
    """Lift a list of monic coprime factors of monic f from mod p to mod m.

    m is p squared up k times and f is reduced mod m; so is every lift.
    """
    if len(factors) == 1:
        return [f]
    k = len(factors) // 2
    g, h = _zp_prod(factors[:k], p), _zp_prod(factors[k:], p)
    one, s, t = _gfp_xgcd(g, h, p)
    if one != [1]:
        raise InternalInvariantError("factors not coprime mod p")
    q = p
    while q < m:
        g, h, s, t = _hensel_step(f, g, h, s, t, q)
        q *= q
    return (_hensel_lift_tree(g, factors[:k], p, m)
            + _hensel_lift_tree(h, factors[k:], p, m))


# -- Zassenhaus over Z (monic squarefree) --------------------------------------


def _mignotte_bound(f):
    """Coefficient bound for monic factors of monic integer f."""
    n = len(f) - 1
    norm2 = isqrt(sum(c * c for c in f)) + 1
    return (2 ** n) * norm2


def _sym(c, m):
    c %= m
    return c - m if 2 * c > m else c


def _factor_monic_squarefree_z(f):
    """Monic irreducible Z[x] factors of a monic squarefree integer poly."""
    # pick the first odd prime where f (monic, so of full degree mod p)
    # stays squarefree
    p = 3
    while True:
        fp = [c % p for c in f]
        if len(_gfp_gcd(fp, _gfp_trim([c % p for c in _zx_derivative(fp)]), p)) == 1:
            break
        p = next_prime(p)
    parts = _gfp_distinct_degree(fp, p)
    if len(parts) == 1 and parts[0][1] == len(f) - 1:
        # irreducible mod p, so over Z: nothing to split, lift or recombine
        return [f]
    modular = _gfp_factor(parts, p)
    bound = 2 * _mignotte_bound(f) + 1
    m = p
    while m < bound:
        m *= m
    lifted = _hensel_lift_tree([c % m for c in f], modular, p, m)
    # recombination by subset size, each factor found divided out of f with
    # its modular factors; a factor's constant term divides f's (0 % c is 0)
    result = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            cand = _zp_prod([lifted[i] for i in subset], m)
            cand = _gfp_trim([_sym(c, m) for c in cand])
            if cand[0] and f[0] % cand[0]:
                continue
            q = _zx_div(f, cand)
            if q is not None:
                result.append(cand)
                f = q
                lifted = [g for i, g in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return result + [f]


# -- public factorization -------------------------------------------------------


def _monic_integer(p):
    """(d, G) for p of degree n: with a the primitive integer multiple of p
    whose lead d is positive, G(x) = d^(n-1) a(x/d) is monic with integer
    coefficients (d is the lcm of the denominators of p made monic); a
    root r of G is the root r/d of p."""
    a = _primitive(_integers(p.coeffs)[1])
    if a[-1] < 0:
        a = [-c for c in a]
    d, n = a[-1], len(a) - 1
    return d, [c * d ** (n - 1 - i) for i, c in enumerate(a[:-1])] + [1]


def factor_poly(p):
    """Factor p in Q[x]: list of (monic irreducible QPolynomial, multiplicity).

    Sorted by degree, then lexicographically on ascending coefficients.
    The product of factors^multiplicities equals p up to its leading
    coefficient.
    """
    if not isinstance(p, QPolynomial):
        raise TypeError("factor_poly expects a QPolynomial")
    if p.is_zero():
        raise DomainError("cannot factor the zero polynomial")
    out = []
    # the squarefree parts of G and their irreducible factors are monic
    # with integer coefficients too; x is one of them when p(0) = 0
    d, G = _monic_integer(p)
    for part, mult in _zx_squarefree(G):
        for g in _factor_monic_squarefree_z(part):
            deg = len(g) - 1
            out.append((QPolynomial([Fraction(c, d ** (deg - i))
                                     for i, c in enumerate(g)]), mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def is_irreducible(p):
    """Whether p is irreducible over Q, decided on the monic integer G that
    factor_poly factors.

    A repeated factor shows in one gcd of G with its derivative over Z.
    Then G is factored modulo the first good prime as factor_poly does,
    and an image that is irreducible there decides at once (Musser 1978);
    otherwise the same Zassenhaus lift and recombination finish it.
    """
    if p.degree < 1:
        return False
    G = _monic_integer(p)[1]
    if len(_zx_gcd(G, _zx_derivative(G))) > 1:
        return False
    return len(_factor_monic_squarefree_z(G)) == 1


# -- formatting / parsing --------------------------------------------------------


def format_poly(p, var="x"):
    """Human form, descending powers: 'x^2 + x - 1'."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c))
        else:
            xs = var if i == 1 else "%s^%d" % (var, i)
            term = xs if abs(c) == 1 else "%s*%s" % (abs(c), xs)
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def parse_poly(text, var="x"):
    """Parse expressions like 'x^2 - x - 1' or '2*x^3 + 1/2' into a QPolynomial;
    a power above MAX_POWER is refused before its digits are read."""
    try:
        return _parse_poly(text, var)
    except DomainError:
        raise
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        raise DomainError("malformed polynomial %r" % text) from exc


def _parse_poly(text, var):
    s = text.replace(" ", "").replace("**", "^")
    if not s:
        raise DomainError("empty polynomial")
    # split into signed terms
    terms = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "+-^*/(":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    terms.append(cur)
    coeffs = {}
    for term in terms:
        if not term or term in "+-":
            raise DomainError("malformed polynomial %r" % text)
        sign = 1
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:]
        if var in term:
            head, _, tail = term.partition(var)
            if head in ("", "*"):
                coef = Fraction(1)
            else:
                coef = Fraction(head.rstrip("*"))
            if tail.startswith("^"):
                exponent = tail[1:]
                if (len(exponent.lstrip("+0")) > len(str(MAX_POWER))
                        or not 0 <= int(exponent) <= MAX_POWER):
                    raise DomainError(
                        "powers of %s below %s^0 or above %s^%d are not "
                        "accepted" % (var, var, var, MAX_POWER))
                power = int(exponent)
            elif tail == "":
                power = 1
            else:
                raise DomainError("malformed term %r" % term)
        else:
            coef = Fraction(term)
            power = 0
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coef
    top = max(coeffs)
    return QPolynomial([coeffs.get(i, Fraction(0)) for i in range(top + 1)])
