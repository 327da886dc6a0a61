"""Numeric period integrals of eigenforms, and rank detection for the
resulting real-number collections.

An eigenform orbit (from :mod:`modfol.eigen`) determines a holomorphic
differential on the level curve once its field is embedded into the reals.
Integrating that differential along the closed loops attached to group
elements gives the classical periods.  Three layers live here:

* exact coefficients: :func:`ensure_series` extends an orbit's q-expansion
  to any order through its star-fixed dual eigenvector w+ (from
  eigen.dual_eigenvector), tabulated once on P^1, so the coefficient at a
  prime p is one integer dot product with the counts of its O(p log p)
  Heilbronn images.  w+ is read at the star-fixed symbol (0:1) where it
  is nonzero: from that start the images of each chain -r are the star
  images of the chain r, so the walk takes each pair once;
* numerics: :func:`period_integral` evaluates the loop integral for a
  single group element by summing the antiderivative series at the two
  endpoints of a balanced path.  Both endpoints lie at height 1/|c|, so
  their powers are r^n times c-th roots of unity.  The series is embedded
  once as integers scaled by 2^bits, its terms are summed once per residue
  class mod |c|, and a loop is |c| products with a table of those roots,
  under a stated error budget.  :func:`numeric_jacobian` collects the
  real parts over a whole homology basis into a :class:`PeriodVector`;
* arithmetic detection: :func:`detect_rank` finds the rank of the
  Z-module spanned by a list of real numbers via integral LLL, with
  explicit accept/reject thresholds and a hard error in between; each
  accepted relation drops one value that the others span over Q.

All numeric work is on integers scaled by a power of two, with a guard
margin over the requested decimal precision: pi by Machin's formula,
exponentials by their Taylor series after argument halving, and values
returned as exact Fractions; all certificates (integer relations,
eigenvalue checks) are verified exactly or against stated thresholds.
"""

import math
import operator
import weakref
from fractions import Fraction
from types import SimpleNamespace

from .arith import _as_int
from .congruence import gamma0_contains
from .eigen import dual_eigenvector
from .errors import (
    DomainError,
    IndeterminateRankError,
    PrecisionError,
    TruncationError,
)
from .hecke import eigenvalue_from_functional, qexp_from_primes
from .linalg import lll_reduce
from .numfield import leading_entry

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
    c = abs(_as_int(c, "lower-left entry"))
    if c == 0:
        raise DomainError("degenerate path: lower-left entry is zero")
    precision = _as_int(precision, "precision")
    return math.ceil(c * precision * math.log(10) / (2 * math.pi)) + 50


# -- exact q-expansions ---------------------------------------------------------------


# Period data per orbit (see ensure_series), dropped with it: none names it.
_PERIOD_DATA = weakref.WeakKeyDictionary()


def ensure_series(space, orbit, terms):
    """Extend `orbit`'s exact q-expansion to order >= `terms` and return it.

    The list (index n holds c_n; index 0 is unused) is kept in _PERIOD_DATA
    beside the fixed-point series per bits and the dual functional (table,
    j), built once per orbit: each prime coefficient is that functional on
    a single operator column, so an extension builds no matrix.  The orbit
    is not changed.  Orbits flagged possibly_old are refused: their systems
    repeat inside the block, so a dual vector does not pin down one form.
    """
    if orbit.possibly_old:
        raise DomainError(
            "q-expansion is only defined for orbits that are certainly new; "
            "this one is flagged possibly_old")
    if space.N != orbit.N:
        raise DomainError(
            "space level %d does not match orbit level %d" % (space.N, orbit.N))
    if _as_int(terms, "terms") < 0:
        raise DomainError("terms must be at least 0, got %d" % terms)
    data = _PERIOD_DATA.get(orbit)
    if data is None:
        data = _PERIOD_DATA[orbit] = SimpleNamespace(
            functional=_dual_functional(space, orbit), series=[0], fixed={})
    if len(data.series) <= terms:
        (table, j), old = data.functional, data.series
        # a prime the cached series holds is not walked again
        data.series = qexp_from_primes(space.N, lambda p: (
            old[p] if p < len(old)
            else eigenvalue_from_functional(space, p, table, j)), terms)
    return data.series


def _dual_functional(space, orbit):
    """(table, j): the orbit's dual eigenvector w+, scaled once so that
    w[j] = 1, tabulated on every Manin symbol (see _functional_table).

    Of the orbit's dual eigenvectors only w+ can be nonzero at the
    star-fixed symbol (0:1), free symbol 0; where it is, j = 0 and each
    coefficient takes the walk that heilbronn_counts folds by the star
    involution, and where it is not (L(f, 1) = 0, as at 37/0), j is its
    first nonzero entry.  The table is re-checked exactly against every
    verified eigenvalue before use.
    """
    K = orbit.field
    w = dual_eigenvector(space, orbit)
    j, x = leading_entry(w, K)
    table = _functional_table(space, K, w * x.inverse().matrix())
    for p, cp in orbit.coefficient_map.items():
        if eigenvalue_from_functional(space, p, table, j) != cp:
            raise DomainError(
                "dual eigenvector failed verification at prime %d" % p)
    return table, j


def _functional_table(space, field, W):
    """(field, den, rows): rows[k][i] / den is the k-th coordinate of the
    dual vector with coordinate matrix W on the i-th P^1 point's quotient
    coordinates: the integer rows of (symbol coordinates * W)^T."""
    den, rows = (space.symbol_matrix() * W).transpose().integer_rows()
    return field, den, rows


def _require_series(orbit, count):
    """The orbit's _PERIOD_DATA entry; TruncationError unless its exact
    series reaches count."""
    data = _PERIOD_DATA.get(orbit)
    have = 0 if data is None else len(data.series) - 1
    if data is None or have < count:
        raise TruncationError(
            "orbit carries %d q-expansion coefficients but %d are needed; "
            "call ensure_series first" % (have, count),
            required_order=count)
    return data


def _fixed_series(orbit, count, bits):
    """(fixed, sums): fixed[n] is 2**bits c_n under the designated
    embedding, an int, for each n the exact series holds (>= count); sums
    holds _residue_sums.  Kept in _PERIOD_DATA per bits.  The designated
    embedding is the field's smallest real root (others give conjugate
    forms with the same rational invariants).  With c_n = sum m_k a^k / D
    in the power basis, fixed[n] is floor(sum m_k P_k / (D 2**g)),
    P_k = a^k 2**(bits + g) embedded once within 1, so it is off by under
    sum |m_k| / (D 2**g) + 1 < 2 units: the guard g keeps sum |m_k| / D
    under 2**g for every n."""
    data = _require_series(orbit, count)
    cached = data.fixed.get(bits)
    if cached is not None and len(cached[0]) > count:
        return cached
    field, emb = orbit.field, orbit.field.real_embeddings()[0]
    rows = [field.coerce(x).integers for x in data.series[1:]]
    guard = max((sum(map(abs, ints)) // den).bit_length()
                for den, ints in rows)
    scale = 1 << (bits + guard)
    powers = [round(emb.approx(field.gen() ** k, Fraction(1, 2 * scale))
                    * scale) for k in range(field.degree)]
    fixed = [0] + [sum(map(operator.mul, ints, powers)) // (den << guard)
                   for den, ints in rows]
    data.fixed[bits] = cached = fixed, {}
    return cached


# -- period integrals -----------------------------------------------------------------


def period_integral(orbit, gamma, terms, precision):
    """Integral of the orbit's differential along the loop of `gamma`.

    Returns ((re, im), bound): the real and imaginary parts as exact
    Fractions, the integers of _period_sum over 4^bits, and the truncation
    estimate |c_terms| exp(-2 pi terms / |c|) as a Fraction (see
    _truncation_bound).  The path runs from z0 = (-d + i)/c to
    gamma z0 = (a + i)/c (c > 0 after a sign change of gamma), and the
    value is the truncated series sum c_n / n * (q1^n - q0^n), n <= terms,
    with q = exp(2 pi i z).  Both endpoints sit at height 1/c, so
    q1^n = r^n zeta^(a n) and q0^n = r^n zeta^(-d n) with
    r = exp(-2 pi / c), zeta = exp(2 pi i / c), summed on integers scaled
    by 2^bits (see _period_sum).

    Error budget: r and each root of unity are off by under one unit of
    2^-bits (see _path_tables), each c_n by under 2 units (see
    _fixed_series), and each term truncates twice more, so r^n is off by
    under 2n units and each term by under 6 |c_n| + 12 units.  Deligne's
    bound |c_n| <= d(n) sqrt(n) <= 2n keeps the sum off by under
    16 terms^2 units, and bits = digits * log2(10) + 2 * bitlen(terms) + 16
    puts that below 10^-digits / 4000, beside the series truncation (the
    bound).

    pre: gamma lies in the level subgroup with nonzero lower-left entry;
    the orbit's series (see ensure_series) reaches order `terms`, and
    `terms` covers required_terms(c, precision).
    """
    a, b, c, d = (_as_int(x, "matrix entries") for x in _group_element(gamma))
    if not gamma0_contains((a, b, c, d), orbit.N):
        raise DomainError("matrix is not in the level-%d subgroup" % orbit.N)
    if c == 0:
        raise DomainError("degenerate path: lower-left entry is zero")
    precision = positive_precision(precision)
    terms = _as_int(terms, "terms")
    need = required_terms(c, precision)
    if terms < need:
        raise PrecisionError(
            "%d terms cannot deliver %d digits along a path with |c| = %d; "
            "%d terms are required" % (terms, precision, abs(c), need),
            required_terms=need)
    bits = _working_bits(precision, terms)
    re, im = _period_sum(orbit, (a, b, c, d), terms, bits)
    top = _fixed_series(orbit, terms, bits)[0][terms]
    return ((Fraction(re, 1 << 2 * bits), Fraction(im, 1 << 2 * bits)),
            _truncation_bound(top, terms, abs(c), bits))


def _group_element(item):
    """The matrix of item, bare or the first of a (matrix, coords) pair;
    DomainError naming the matrix entries unless it has four."""
    if isinstance(item, (tuple, list)) and len(item) == 2:
        item = item[0]
    if not isinstance(item, (tuple, list)) or len(item) != 4:
        raise DomainError("matrix entries must be four ints, one group element")
    return item


def _working_bits(precision, terms):
    """The bits that period_integral works at for `precision` digits over
    `terms` terms (see its error budget)."""
    digits = precision + _GUARD
    return math.ceil(digits * math.log2(10)) + 2 * terms.bit_length() + 16


def _period_sum(orbit, gamma, terms, bits):
    """(re, im): the period of gamma as integers scaled by 4**bits.  Term n
    is w_n (zeta^(a n) - zeta^(-d n)), so grouping n by j = n mod c gives
    the same integers as sum_j S[j] (zeta^(a j) - zeta^(-d j)), j < c."""
    a, _, c, d = gamma
    if c < 0:
        a, c, d = -a, -c, -d
    S, cos, sin = _residue_sums(orbit, c, terms, bits)
    re = im = 0
    for j, s in enumerate(S):
        ka, kd = a * j % c, -d * j % c
        re += s * (cos[ka] - cos[kd])
        im += s * (sin[ka] - sin[kd])
    return re, im


def _residue_sums(orbit, c, terms, bits):
    """(S, cos, sin), integers scaled by 2**bits that every path with
    lower-left entry c shares: S[j] sums w_n = (f_n R_n >> bits) // n over
    n <= terms, n = j mod c, with f_n from _fixed_series and R_n = r^n,
    r = exp(-2 pi / c), carried by one product and shift per term; and
    cos[k] + i sin[k] = exp(2 pi i k / c), k < c (see _path_tables)."""
    fixed, sums = _fixed_series(orbit, terms, bits)
    if (c, terms) not in sums:
        r, cos, sin = _path_tables(c, bits)
        S = [0] * c
        rn = 1 << bits
        for n in range(1, terms + 1):
            rn = rn * r >> bits
            S[n % c] += (fixed[n] * rn >> bits) // n
        sums[c, terms] = S, cos, sin
    return sums[c, terms]


def _path_tables(c, bits):
    """(r, cos, sin) for paths with lower-left entry c > 0, scaled by
    2**bits: r = exp(-2 pi / c) and cos[k] + i sin[k] = zeta^k,
    zeta = exp(2 pi i / c), k < c.

    They are computed at w = bits + g bits, g = bitlen(c) + 30: theta =
    2 pi / c from one _machin_pi is off by under 5 units of 2^-w, so r and
    zeta from _exp are off by under 7, and the k-th power of zeta, one
    product and shift per step, by under 12 k units, that is under 2^-26
    units of 2^-bits.  Each entry x is then floor(2^bits x + 2^-20) up to
    that error: within one unit of 2^-bits, and exact where x is 0, +-1/2
    or +-1."""
    g = c.bit_length() + 30
    w = bits + g
    theta = 2 * _machin_pi(w) // c
    slack = 1 << g - 20
    r = _exp(-theta, 0, w)[0] + slack >> g
    zr, zi = _exp(0, theta, w)
    cos, sin = [1 << bits], [0]
    x, y = 1 << w, 0
    for _ in range(1, c):
        x, y = x * zr - y * zi >> w, x * zi + y * zr >> w
        cos.append(x + slack >> g)
        sin.append(y + slack >> g)
    return r, cos, sin


def _truncation_bound(top, terms, c, bits):
    """|top| 2^-bits exp(-2 pi terms / c) as a Fraction, c > 0.

    As 2 pi log2(e) < 10, the exponential is at least 2^-(10 terms // c
    + 10); _exp computes it at w = 10 terms // c + 74 bits from an
    argument off by under 2 units of 2^-w, so it keeps 64 bits and is
    within a relative 2^-60 of its value."""
    w = 10 * terms // c + 74
    shift = terms.bit_length() + 4
    x = 2 * terms * _machin_pi(w + shift) // c >> shift
    return Fraction(abs(top) * _exp(-x, 0, w)[0], 1 << bits + w)


def _machin_pi(bits):
    """pi scaled by 2**bits, off by under two units: Machin's
    pi = 16 atan(1/5) - 4 atan(1/239), each arctangent from _arccot at
    g = bitlen(bits) + 8 guard bits, so their truncations (under 4 (bits
    + g) units of 2^-(bits + g)) stay below 2^-5 units of 2^-bits, beside
    the last shift."""
    g = bits.bit_length() + 8
    return 16 * _arccot(5, bits + g) - 4 * _arccot(239, bits + g) >> g


def _arccot(x, w):
    """atan(1/x) scaled by 2**w, for an integer x > 1: the alternating
    series sum_k (-1)^k / ((2k + 1) x^(2k + 1)), whose powers are exact
    floors and whose terms each truncate once, so the sum is off by under
    one unit per term."""
    power, k, total = (1 << w) // x, 1, 0
    while power:
        total += power // k if k % 4 == 1 else -(power // k)
        power //= x * x
        k += 2
    return total


def _exp(re, im, w):
    """exp(z) for z = (re + i im) / 2**w with re <= 0, as (real, imaginary)
    scaled by 2**w, each off by under two units.

    z is halved h times to below 2^-15 in modulus, its Taylor series is
    summed at W = w + g bits, g = h + bitlen(w) + 8 (W // 15 + 1 terms,
    each off by under 4 units of 2^-W, and a tail below one), and the sum
    is squared h times, which at most doubles its error (plus 2 units)
    each time, as |exp(z)| <= 1; so the error stays below
    2^h (W / 3 + 3) < 2^(g - 5) units of 2^-W before the last shift."""
    h = max(0, max(re.bit_length(), im.bit_length()) - w + 16)
    g = h + w.bit_length() + 8
    W = w + g
    zr, zi = re << g - h, im << g - h
    sr = tr = 1 << W
    si = ti = 0
    for n in range(1, W // 15 + 2):
        tr, ti = ((tr * zr - ti * zi >> W) // n,
                  (tr * zi + ti * zr >> W) // n)
        sr += tr
        si += ti
    for _ in range(h):
        sr, si = sr * sr - si * si >> W, sr * si >> W - 1
    return sr >> g, si >> g


class PeriodVector:
    """Real parts of one orbit's period integrals over a homology basis.

    Fields: the level, the orbit's index in its level's decomposition (or
    None when unknown), the values in basis order, a per-value count of
    digits believed correct, and their minimum as the overall estimate.
    """

    __slots__ = ("N", "orbit", "values", "value_digits", "precision_estimate")

    def __init__(self, N, orbit, values, value_digits, precision_estimate):
        self.N = _as_int(N, "level")
        self.orbit = None if orbit is None else _as_int(orbit, "orbit")
        self.values = tuple(values)
        self.value_digits = tuple(_as_int(x, "value digits")
                                  for x in value_digits)
        self.precision_estimate = _as_int(precision_estimate,
                                          "precision estimate")

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
    """`precision`, an int; DomainError unless it is positive."""
    precision = _as_int(precision, "precision")
    if precision < 1:
        raise DomainError("precision must be a positive digit count")
    return precision


def rank_precision(precision):
    """`precision`, an int; DomainError below MIN_RANK_PRECISION."""
    precision = _as_int(precision, "precision")
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
    if orbit_index is not None:
        orbit_index = _as_int(orbit_index, "orbit index")
    precision = positive_precision(precision)
    gammas = [tuple(_as_int(x, "matrix entries") for x in _group_element(item))
              for item in basis]
    if not gammas:
        raise DomainError("homology basis is empty")
    needs = [required_terms(g[2], precision) for g in gammas]
    _require_series(orbit, max(needs))
    values, digits = [], []
    for g, need in zip(gammas, needs):
        (re, _), bound = period_integral(orbit, g, need, precision)
        values.append(re)
        digits.append(min(_value_digits(bound, precision), precision))
    return PeriodVector(orbit.N, orbit_index, values, digits, min(digits))


def _value_digits(bound, precision):
    """floor(-log10(bound + 10^-(precision + 5))) for a Fraction bound >= 0,
    in integers: the largest d with 10^d (bound + 10^-(precision + 5)) <= 1."""
    d = precision + 5
    scaled = bound * 10 ** d + 1
    while scaled > 1:
        scaled /= 10
        d -= 1
    return d


# -- integer-relation rank detection --------------------------------------------------


def detect_rank(values, precision):
    """Rank of the Z-module generated by the given real numbers.

    Builds the standard relation-finding lattice rows (e_i, round(10**precision
    * v_i)), reduces it exactly, and hunts for integer relations.  A candidate
    relation is accepted when its true residual is below 10**(-precision/2)
    and its coefficients stay below 10**(precision/4); it is discarded when
    the residual exceeds 10**(-precision/4); residuals in between raise
    IndeterminateRankError.  Each accepted relation drops the last value
    it involves, which lies in the Q-span of the others, and the count left
    at the end is the rank.  A single value is tested the same way, on its
    one lattice row.  Values are read exactly (see _exact), so every
    rounding and comparison is on rationals.

    pre: precision >= 40 decimal digits.
    """
    precision = rank_precision(precision)
    return _rank_step([_exact(x) for x in values], precision)


def _exact(x):
    """x as the Fraction it equals: an mpmath mpf read off its (sign,
    mantissa, exponent, bitcount) tuple, anything else (int, float,
    Fraction, Decimal) through Fraction; DomainError unless it is finite."""
    parts = getattr(x, "_mpf_", None)
    if parts is None:
        try:
            return Fraction(x)
        except (OverflowError, ValueError):
            raise DomainError("rank detection needs finite real values, "
                              "got %r" % (x,))
    sign, man, exp, _ = parts
    if not man and exp:
        raise DomainError("rank detection needs finite real values, got %r"
                          % (x,))
    value = Fraction(int(man) << max(exp, 0), 1 << max(-exp, 0))
    return -value if sign else value


def _rank_step(v, precision):
    """detect_rank on the list v of Fractions, which it consumes: each
    accepted relation m drops v[k] for the last k with m[k] != 0.  The
    residual s = |sum m_i v_i| is accepted iff s^2 10^precision < 1 and
    falls in the deadband iff s^4 10^precision <= 1."""
    cap = 10 ** (precision // 4)
    scale = 10 ** precision
    while v:
        n = len(v)
        rows = [[int(i == k) for k in range(n)] + [round(x * scale)]
                for i, x in enumerate(v)]
        deadband = False
        for row in lll_reduce(rows):
            m = row[:n]
            if max(abs(c) for c in m) > cap:
                # Rows this unbalanced exist for every input (pigeonhole on
                # the scaled column), so neither their acceptance nor their
                # ambiguity carries arithmetic information; only modest rows
                # are candidates.
                continue
            square = sum(map(operator.mul, m, v)) ** 2
            if square * scale < 1:
                del v[max(k for k, c in enumerate(m) if c)]
                break
            deadband = deadband or square * square * scale <= 1
        else:
            if deadband:
                raise IndeterminateRankError(
                    "integer-relation residual fell between the accept and "
                    "reject thresholds; rerun with higher precision")
            return n
    return 0
