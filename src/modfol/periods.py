"""Numeric period integrals of eigenforms, and rank detection for the
resulting real-number collections.

An eigenform orbit (from :mod:`modfol.eigen`) determines a holomorphic
differential on the level curve once its field is embedded into the reals.
Integrating that differential along the closed loops attached to group
elements gives the classical periods.  Three layers live here:

* exact coefficients: :func:`ensure_series` extends an orbit's q-expansion
  to any order through a dual eigenvector from numfield.eigenspace,
  tabulated once on P^1, so the coefficient at a prime p is one integer
  dot product with the counts of its O(p log p) Heilbronn images;
* numerics: :func:`period_integral` evaluates the loop integral for a
  single group element by summing the antiderivative series at the two
  endpoints of a balanced path.  Both endpoints lie at height 1/|c|, so
  their powers are r^n times c-th roots of unity, and the sum is one
  integer fixed-point loop over a table of those roots, with a stated
  error budget.  :func:`numeric_jacobian` collects the real parts over a
  whole homology basis into a :class:`PeriodVector`;
* arithmetic detection: :func:`detect_rank` finds the rank of the
  Z-module spanned by a list of real numbers via integral LLL,
  with explicit accept/reject thresholds and a hard error in between.

All floating work carries a guard margin over the requested decimal
precision, in mpmath or in integers scaled by a power of two; all
certificates (integer relations, eigenvalue checks) are verified exactly
or against stated thresholds.
"""

import functools
import math
from fractions import Fraction
from math import gcd

from mpmath import libmp, mp

from .congruence import gamma0_contains
from .errors import (
    DomainError,
    IndeterminateRankError,
    PrecisionError,
    TruncationError,
)
from .hecke import eigenvalue_from_functional, hecke_matrix, qexp_from_primes
from .linalg import QMatrix, lll_reduce, unimodular_with_first_row
from .numfield import NFElement, eigenspace, leading_entry

# Extra decimal digits carried internally beyond the requested precision.
_GUARD = 25

# Floor on the precision argument of detect_rank: below this the accept
# and reject thresholds are too close to random noise to mean anything.
MIN_RANK_PRECISION = 40


def required_terms(c, precision):
    """Series length needed for `precision` digits along a path whose
    group element has lower-left entry c.

    The summed terms decay like exp(-2 pi n / |c|), so matching 10**-precision
    needs |c| * precision * ln(10) / (2 pi) terms; a flat margin of 50 terms
    absorbs the slowly growing coefficient sizes.
    """
    c = abs(int(c))
    if c == 0:
        raise DomainError("degenerate path: lower-left entry is zero")
    return math.ceil(c * int(precision) * math.log(10) / (2 * math.pi)) + 50


# -- exact q-expansions ---------------------------------------------------------------


def ensure_series(space, orbit, terms):
    """Extend `orbit`'s exact q-expansion to order >= `terms` and return it.

    The list is cached on the orbit (index n holds c_n; index 0 is unused).
    Prime coefficients come from the orbit's verified eigenvalue map when
    available; new primes are evaluated through a dual eigenvector, which
    needs only a single operator column per prime.  Orbits flagged
    possibly_old are refused: their systems repeat inside the block, so a
    dual vector does not pin down one form.
    """
    if orbit.possibly_old:
        raise DomainError(
            "q-expansion is only defined for orbits that are certainly new; "
            "this one is flagged possibly_old")
    if space.N != orbit.N:
        raise DomainError(
            "space level %d does not match orbit level %d" % (space.N, orbit.N))
    terms = int(terms)
    if orbit._series is not None and len(orbit._series) > terms:
        return orbit._series
    table, j = _dual_functional(space, orbit)

    def prime_value(p):
        got = orbit.coefficient_map.get(p)
        if got is not None:
            return got
        c = eigenvalue_from_functional(space, p, table, j)
        orbit.coefficient_map[p] = c
        return c

    orbit._series = qexp_from_primes(space.N, prime_value, terms)
    return orbit._series


def _dual_functional(space, orbit):
    """(table, j): a dual eigenvector w of the orbit, scaled once so that
    w[j] = 1, tabulated on every Manin symbol (see _functional_table).

    The joint eigenspace of the verified pairs (T_p^T, c_p) cuts out
    exactly this orbit's dual block, so any w in it, with w^T T_p = c_p w^T,
    gives the coefficients of this orbit alone.  The table is re-checked
    exactly against every verified eigenvalue before use.
    """
    K = orbit.field
    kern = eigenspace([(hecke_matrix(space, p).transpose(), cp)
                       for p, cp in sorted(orbit.coefficient_map.items())])
    if not kern:
        raise DomainError("orbit data admits no dual eigenvector")
    j, x = leading_entry(kern[0], K)
    table = _functional_table(space, K, kern[0] * x.inverse().matrix())
    for p, cp in orbit.coefficient_map.items():
        if eigenvalue_from_functional(space, p, table, j) != cp:
            raise DomainError(
                "dual eigenvector failed verification at prime %d" % p)
    return table, j


def _functional_table(space, field, W):
    """(field, den, rows): rows[k][i] / den is the k-th coordinate of the
    dual vector with coordinate matrix W on the i-th P^1 point's quotient
    coordinates: the integer rows of (symbol coordinates * W)^T."""
    coords = QMatrix.from_rows(space._symbol_coords)
    den, rows = (coords * W).transpose().integer_rows()
    return field, den, rows


def _require_series(orbit, count):
    """The orbit's exact series; TruncationError unless it reaches count."""
    series = orbit._series
    if series is None or len(series) <= count:
        have = 0 if series is None else len(series) - 1
        raise TruncationError(
            "orbit carries %d q-expansion coefficients but %d are needed; "
            "call ensure_series first" % (have, count),
            required_order=count)
    return series


def _embedded_series(orbit, count, digits):
    """Numeric coefficients c_1..c_count under the designated embedding,
    rounded to `digits` decimal digits; cached per digit count."""
    series = _require_series(orbit, count)
    cache = orbit._embedded.setdefault(digits, [mp.mpf(0)])
    if len(cache) > count:
        return cache
    emb = orbit.designated_embedding()
    eps = Fraction(1, 10 ** (digits + 5))
    with mp.workdps(digits + 10):
        while len(cache) <= count:
            val = series[len(cache)]
            fr = emb.approx(val, eps) if isinstance(val, NFElement) \
                else Fraction(val)
            cache.append(mp.mpf(fr.numerator) / mp.mpf(fr.denominator))
    return cache


# -- period integrals -----------------------------------------------------------------


def period_integral(orbit, gamma, terms, precision):
    """Integral of the orbit's differential along the loop of `gamma`.

    Returns (value, bound): a complex number rounded at precision + _GUARD
    digits and the reported truncation estimate
    |c_terms| * exp(-2 pi terms / |c|).  The path runs from the balanced
    base point z0 = (-d + i)/c to gamma z0 = (a + i)/c (c > 0 after a sign
    change of gamma), and the value is the truncated antiderivative series
    sum c_n / n * (q1^n - q0^n), n <= terms, with q = exp(2 pi i z).  Both
    endpoints sit at height 1/c, so q1^n = r^n zeta^(a n) and
    q0^n = r^n zeta^(-d n) with r = exp(-2 pi / c) and zeta = exp(2 pi i / c):
    the sum runs on integers scaled by 2^bits, over one table of the c-th
    roots of unity, with r^n carried by one product and shift per term.

    Error budget: r, each table entry and each c_n are truncated to
    2^-bits once, and each term truncates twice more, so r^n is off by
    under 2n units and each term by under 6 |c_n| + 10 units of 2^-bits.
    Deligne's bound |c_n| <= d(n) sqrt(n) <= 2n keeps the whole sum off by
    under 16 terms^2 units, and bits = digits * log2(10) + 2 * bitlen(terms)
    + 16 puts that below 10^-digits / 4000.  The series truncation (the
    bound above) and the rounding of each embedded c_n at 10^-(digits + 5)
    are the other parts of the error.

    pre: gamma lies in the level subgroup with nonzero lower-left entry;
    the orbit's series (see ensure_series) reaches order `terms`, and
    `terms` covers required_terms(c, precision).
    """
    a, b, c, d = (int(x) for x in gamma)
    if not gamma0_contains((a, b, c, d), orbit.N):
        raise DomainError("matrix is not in the level-%d subgroup" % orbit.N)
    if c == 0:
        raise DomainError("degenerate path: lower-left entry is zero")
    precision = positive_precision(precision)
    terms = int(terms)
    need = required_terms(c, precision)
    if terms < need:
        raise PrecisionError(
            "%d terms cannot deliver %d digits along a path with |c| = %d; "
            "%d terms are required" % (terms, precision, abs(c), need),
            required_terms=need)
    if c < 0:
        a, b, c, d = -a, -b, -c, -d
    digits = precision + _GUARD
    coeffs = _embedded_series(orbit, terms, digits)
    bits = math.ceil(digits * math.log2(10)) + 2 * terms.bit_length() + 16
    with mp.workprec(bits + 20):
        r = _fixed(mp.exp(-2 * mp.pi / c), bits)
    cos, sin = _unit_circle(c, bits)
    re = im = 0
    rn = 1 << bits
    ka = kd = 0
    step_a, step_d = a % c, -d % c
    for n in range(1, terms + 1):
        rn = rn * r >> bits
        ka = (ka + step_a) % c
        kd = (kd + step_d) % c
        cn = coeffs[n]
        if cn:
            w = (_fixed(cn, bits) * rn >> bits) // n
            re += w * (cos[ka] - cos[kd])
            im += w * (sin[ka] - sin[kd])
    with mp.workdps(digits):
        total = mp.mpc(mp.mpf((re, -2 * bits)), mp.mpf((im, -2 * bits)))
        bound = abs(coeffs[terms]) * mp.exp(-2 * mp.pi * terms / c)
    return total, bound


def _fixed(x, bits):
    """The mpf x as an integer scaled by 2**bits, truncated."""
    return libmp.to_fixed(x._mpf_, bits)


@functools.lru_cache(maxsize=4)
def _unit_circle(c, bits):
    """(cos, sin): the c-th roots of unity e^(2 pi i k / c), k < c, as two
    tuples of integers scaled by 2**bits; the paths of a homology basis
    with the same |c| and term count share them."""
    prec = bits + 20
    roots = [libmp.mpf_cos_sin_pi(libmp.from_rational(2 * k, c, prec), prec)
             for k in range(c)]
    return (tuple(libmp.to_fixed(x, bits) for x, _ in roots),
            tuple(libmp.to_fixed(y, bits) for _, y in roots))


class PeriodVector:
    """Real parts of one orbit's period integrals over a homology basis.

    Fields: the level, the orbit's index in its level's decomposition (or
    None when unknown), the values in basis order, a per-value count of
    digits believed correct, and their minimum as the overall estimate.
    """

    __slots__ = ("N", "orbit", "values", "value_digits", "precision_estimate")

    def __init__(self, N, orbit, values, value_digits, precision_estimate):
        self.N = int(N)
        self.orbit = None if orbit is None else int(orbit)
        self.values = tuple(values)
        self.value_digits = tuple(int(x) for x in value_digits)
        self.precision_estimate = int(precision_estimate)

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __getitem__(self, i):
        return self.values[i]

    def __repr__(self):
        return ("PeriodVector(N=%d, orbit=%r, %d values, ~%d digits)"
                % (self.N, self.orbit, len(self.values),
                   self.precision_estimate))


def positive_precision(precision):
    """`precision` as an int; DomainError unless it is positive."""
    precision = int(precision)
    if precision < 1:
        raise DomainError("precision must be a positive digit count")
    return precision


def rank_precision(precision):
    """`precision` as an int; DomainError below MIN_RANK_PRECISION."""
    precision = int(precision)
    if precision < MIN_RANK_PRECISION:
        raise DomainError(
            "rank detection needs at least %d digits, got %d"
            % (MIN_RANK_PRECISION, precision))
    return precision


def numeric_jacobian(orbit, basis, precision, orbit_index=None):
    """Period vector of `orbit` over a spanning list of group elements.

    `basis` may hold bare matrices or (matrix, coords) pairs as produced
    by the symbol space's homology_generators().  Each value is computed
    with exactly the term count its path requires for `precision` digits.

    pre: basis spans the cuspidal homology; the orbit's series reaches the
    largest required term count (TruncationError reports it otherwise).
    """
    precision = positive_precision(precision)
    gammas = [tuple(int(x) for x in (item if len(item) == 4 else item[0]))
              for item in basis]
    if not gammas:
        raise DomainError("homology basis is empty")
    needs = [required_terms(g[2], precision) for g in gammas]
    _require_series(orbit, max(needs))
    values = []
    digits = []
    floor_err = mp.mpf(10) ** (-(precision + 5))
    for g, need in zip(gammas, needs):
        val, bound = period_integral(orbit, g, need, precision)
        values.append(val.real)
        with mp.workdps(20):
            est = int(mp.floor(-mp.log10(bound + floor_err)))
        digits.append(min(est, precision))
    return PeriodVector(orbit.N, orbit_index, values, digits, min(digits))


# -- integer-relation rank detection --------------------------------------------------


def detect_rank(values, precision):
    """Rank of the Z-module generated by the given real numbers.

    Builds the standard relation-finding lattice rows (e_i, round(10**precision
    * v_i)), reduces it exactly, and hunts for integer relations.  A candidate
    relation is accepted when its true residual is below 10**(-precision/2)
    and its coefficients stay below 10**(precision/4); it is discarded when
    the residual exceeds 10**(-precision/4); residuals in between raise
    IndeterminateRankError.  Each accepted relation eliminates one value
    through a unimodular change of generators, and the count left at the end
    is the rank.

    pre: precision >= 40 decimal digits.
    """
    if isinstance(values, PeriodVector):
        values = values.values
    precision = rank_precision(precision)
    items = list(values)
    with mp.workdps(precision + 2 * _GUARD):
        nums = [_as_mpf(x) for x in items]
        return _rank_step(nums, precision)


def _as_mpf(x):
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def _rank_step(v, precision):
    n = len(v)
    if n == 0:
        return 0
    accept = mp.mpf(10) ** (mp.mpf(-precision) / 2)
    reject = mp.mpf(10) ** (mp.mpf(-precision) / 4)
    cap = 10 ** (precision // 4)
    if n == 1:
        size = abs(v[0])
        if size < accept:
            return 0
        if size > reject:
            return 1
        raise IndeterminateRankError(
            "single value sits between the zero and nonzero thresholds; "
            "rerun with higher precision")
    scale = mp.mpf(10) ** precision
    rows = []
    for i, x in enumerate(v):
        rows.append([int(i == k) for k in range(n)] + [int(mp.nint(x * scale))])
    reduced = lll_reduce(rows)
    found = None
    deadband = False
    for row in reduced:
        m = row[:n]
        if max(abs(c) for c in m) > cap:
            # Rows this unbalanced exist for every input (pigeonhole on the
            # scaled column), so neither their acceptance nor their ambiguity
            # carries arithmetic information; only modest rows are candidates.
            continue
        residual = abs(mp.fsum(c * x for c, x in zip(m, v)))
        if residual < accept:
            found = m
            break
        if residual <= reject:
            deadband = True
    if found is None:
        if deadband:
            raise IndeterminateRankError(
                "integer-relation residual fell between the accept and "
                "reject thresholds; rerun with higher precision")
        return n
    g = 0
    for c in found:
        g = gcd(g, c)
    primitive = [c // g for c in found]
    change = unimodular_with_first_row(primitive)
    remaining = [mp.fsum(change[i][k] * v[k] for k in range(n))
                 for i in range(1, n)]
    return _rank_step(remaining, precision)
