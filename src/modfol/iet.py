"""Interval exchange transformations with exact arithmetic.

An IET cuts [0, L) into finitely many half-open intervals and rearranges
them by a translation on each piece.  Everything here is exact: lengths
are rational numbers or elements of a real number field compared through
a designated embedding, so orbit questions (periodicity, connections
between discontinuities) are decided, never estimated.

The three dynamical entry points mirror the trichotomy the rest of the
package detects on homology: :func:`periodicity_report` settles the fully
rational case by counting unit cells, :func:`minimality_probe` runs the
Keane connection check when the lengths have rational rank at least two,
and :func:`rauzy_step` performs one step of Rauzy induction.
"""

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from operator import mul

from .arith import _as_int
from .errors import DegenerateStepError, DomainError, WrongCaseError
from .foliation import JacobianModule, module_rank
from .numfield import NFElement


class IET:
    """Exchange of k intervals: lengths in domain order plus a permutation.

    ``permutation`` uses one-line notation on {1..k}: the i-th interval
    from the left is sent to slot permutation[i-1] of the rearranged
    order.  The permutation must be irreducible — no proper prefix
    {1..j} may be invariant, otherwise the map splits into two smaller
    exchanges.  Lengths are Fractions, or elements of one real number
    field together with an embedding fixing their numeric meaning (the
    largest real place by default).
    """

    __slots__ = ("lengths", "permutation", "field", "embedding",
                 "_cuts", "_shifts", "total")

    def __init__(self, lengths, permutation, embedding=None):
        perm = tuple(_as_int(p, "permutation entries") for p in permutation)
        k = len(perm)
        if k == 0:
            raise DomainError("an exchange needs at least one interval")
        if sorted(perm) != list(range(1, k + 1)):
            raise DomainError(
                "permutation must list each of 1..%d exactly once" % k)
        top = 0
        for j, slot in enumerate(perm[:-1], 1):
            top = max(top, slot)
            if top == j:
                raise DomainError(
                    "reducible permutation: {1..%d} is invariant" % j)
        if len(lengths) != k:
            raise DomainError(
                "%d lengths against %d permutation entries" % (len(lengths), k))
        field = None
        for x in lengths:
            if isinstance(x, NFElement):
                if field is None:
                    field = x.field
                elif x.field != field:
                    raise DomainError("lengths mix distinct number fields")
        if field is None:
            vals = tuple(_as_fraction(x, "lengths") for x in lengths)
            if embedding is not None:
                raise DomainError("an embedding is only meaningful with "
                                  "number field lengths")
        else:
            if embedding is None:
                places = field.real_embeddings()
                if not places:
                    raise DomainError("lengths need a field with a real place")
                embedding = places[-1]
            elif embedding.field != field:
                raise DomainError("embedding belongs to a different field")
            vals = tuple(x if isinstance(x, NFElement)
                         else field.from_rational(_as_fraction(x, "lengths"))
                         for x in lengths)
        self.lengths = vals
        self.permutation = perm
        self.field = field
        self.embedding = embedding
        # the lengths as integer columns over one denominator (one column
        # for rationals, one per power-basis coordinate for field elements),
        # and the values that columns of integers over den stand for
        if field is None:
            den = lcm(*[x.denominator for x in vals])
            cols = [[x.numerator * (den // x.denominator) for x in vals]]
            positive = min(cols[0]) > 0

            def values(cols):
                return [Fraction(c, den) for c in cols[0]]
        else:
            den, rows = _coordinate_rows(vals)
            cols = list(zip(*rows))
            positive = all(embedding.sign(x) > 0 for x in vals)

            def values(cols):
                return [field.from_integers(den, row) for row in zip(*cols)]
        if not positive:
            raise DomainError("interval lengths must be positive")
        # left endpoints in the domain, and the translation on each piece,
        # summed column by column on the integers
        slots = sorted(range(k), key=perm.__getitem__)   # intervals by slot
        cut_cols, shift_cols = [], []
        for col in cols:
            cuts = list(accumulate(col, initial=0))
            image = dict(zip(slots, accumulate((col[i] for i in slots),
                                               initial=0)))
            cut_cols.append(cuts)
            shift_cols.append([image[i] - cuts[i] for i in range(k)])
        cuts = values(cut_cols)
        self.total = cuts.pop()
        self._cuts = tuple(cuts)
        self._shifts = tuple(values(shift_cols))

    def _sign(self, x):
        if self.field is None:
            return -1 if x < 0 else (0 if x == 0 else 1)
        return self.embedding.sign(x)

    def coerce(self, x):
        """Bring a point into this exchange's arithmetic world."""
        if not isinstance(x, NFElement):
            x = _as_fraction(x, "a point")
        elif self.field is None:
            raise DomainError("point lies in a different field")
        return x if self.field is None else self.field.coerce(x)

    def interval_index(self, x):
        """0-based index of the piece containing x; x must lie in [0, total)."""
        x = self.coerce(x)
        if self.field is None:
            # rational cuts are increasing Fractions: compare, subtract none
            if x < 0 or x >= self.total:
                raise DomainError("point outside [0, total)")
            return bisect_right(self._cuts, x) - 1
        if self._sign(x) < 0 or self._sign(self.total - x) <= 0:
            raise DomainError("point outside [0, total)")
        lo, hi = 0, len(self.lengths) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._sign(x - self._cuts[mid]) >= 0:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def __repr__(self):
        return "IET(k=%d, permutation=%s)" % (len(self.lengths),
                                              list(self.permutation))


def _as_fraction(x, what):
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise DomainError("%s must be exact (Fraction, int, or number "
                          "field element), not float" % what)
    return Fraction(x)


def _coordinate_rows(elements):
    """(den, rows): the power-basis coordinates of field elements as
    integer rows over one denominator, the lcm of theirs."""
    coords = [x.integers for x in elements]
    den = lcm(*[d for d, _ in coords])
    return den, [[c * (den // d) for c in ints] for d, ints in coords]


def iet_apply(T, x):
    """Image of the point x under the exchange; exact, piecewise translation."""
    x = T.coerce(x)
    return x + T._shifts[T.interval_index(x)]


def periodicity_report(T):
    """Certify the all-rational case: every orbit is periodic.

    Clearing denominators turns the exchange into a permutation of equal
    unit cells; the report carries the lcm of its cycle lengths, which is
    the global period of the map.  Irrational lengths are the wrong case.
    """
    if T.field is not None:
        raise WrongCaseError(
            "periodicity certification needs all-rational lengths")
    den = lcm(*[x.denominator for x in T.lengths])
    cells, shifts, starts = ([x.numerator * (den // x.denominator)
                              for x in values]
                             for values in (T.lengths, T._shifts, T._cuts))
    m = sum(cells)
    sigma = [0] * m
    for i, n in enumerate(cells):
        for j in range(starts[i], starts[i] + n):
            sigma[j] = j + shifts[i]
    seen = [False] * m
    period = 1
    for j in range(m):
        if seen[j]:
            continue
        length = 0
        at = j
        while not seen[at]:
            seen[at] = True
            at = sigma[at]
            length += 1
        period = period * length // gcd(period, length)
    return {"periodic": True, "period_lcm": period}


def minimality_probe(T, max_steps):
    """Keane connection check for exchanges of rational rank at least two.

    Follows the forward orbit of every interior discontinuity for up to
    max_steps exact iterations and records any step that lands exactly on
    a discontinuity (a connection).  Finding none is the classical
    sufficient condition for minimality up to the probed depth.  Lengths
    of rational rank < 2 are the wrong case: such exchanges are never
    within reach of the criterion.

    Each sign of x - c, for an orbit point x and a cut c, is certified:
    integer enclosures of x and c that do not overlap decide it, and
    otherwise the exact RealEmbedding.integer_sign of x - c decides it, so
    only an exact sign can report a connection.

    A step builds no list outside that exact branch: the enclosures are
    read from flat lists and the shifts taken are counted per piece, so a
    step costs about 0.3 us per cut compared on a 2-vCPU VM, and 10^6
    steps on 2 intervals take about 0.3 s in-process.
    """
    max_steps = _as_int(max_steps, "max_steps")
    if max_steps < 1:
        raise DomainError("max_steps must be positive")
    if T.field is None:
        raise WrongCaseError(
            "rational lengths have rank 1: the connection criterion "
            "cannot apply")
    if module_rank(JacobianModule(T.field, T.lengths)) < 2:
        raise WrongCaseError(
            "lengths span a rank-<2 module: the connection criterion "
            "cannot apply")
    # cuts and shifts as integer rows over one denominator, enclosed once
    # over one scale; a point's enclosure is the sum of those of its start
    # cut and of the shifts taken, about n rows wide after n steps.  Orbits
    # of N steps come within about N^-2 of a cut at rank <= 3, so the
    # generator is first sharpened to N^-3 per unit of the largest entry.
    emb = T.embedding
    den, rows = _coordinate_rows(T._cuts[1:] + T._shifts)
    top = max(abs(c) for row in rows for c in row)
    emb.narrow(den, (max_steps + 1) ** 3 * top)
    boxes = emb.enclosures(rows)
    m = len(T._cuts) - 1
    # the enclosures as four flat lists, read by index in the step loop:
    # rows 0..m-1 are the interior cuts, rows m..2m the shifts of the pieces
    cut_lo = [lo for lo, _ in boxes[:m]]
    cut_hi = [hi for _, hi in boxes[:m]]
    shift_lo = [lo for lo, _ in boxes[m:]]
    shift_hi = [hi for _, hi in boxes[m:]]
    cuts = range(m)
    violations = []
    for start in cuts:
        # x is its start cut plus counts[i] shifts of piece i; the cut
        # itself is the left end of piece start + 1
        counts = [0] * (m + 1)
        lo, hi = cut_lo[start], cut_hi[start]
        index = start + 1
        for step in range(1, max_steps + 1):
            counts[index] += 1
            lo += shift_lo[index]
            hi += shift_hi[index]
            # one pass of signs serves both jobs: locating the piece that
            # holds x (cuts are increasing, so the index is the number of
            # interior cuts at or below x) and testing whether x IS a cut;
            # only an enclosure that overlaps the cut's needs the exact sign
            index = 0
            at_cut = None
            for j in cuts:
                if lo > cut_hi[j]:
                    index += 1
                elif hi < cut_lo[j]:
                    break
                else:
                    # x - c_j = sum taken[i] * rows[i] - rows[j]
                    taken = [int(i == start) for i in cuts] + counts
                    s = emb.integer_sign([sum(map(mul, taken, col)) - col[j]
                                          for col in zip(*rows)])
                    index += s >= 0
                    if s == 0:
                        at_cut = j + 1
            if at_cut is not None:
                violations.append({"discontinuity": start + 1,
                                   "after_steps": step,
                                   "hits": at_cut})
                break
    return {"no_periodic_orbit_found": not violations,
            "keane_violations": violations}


def rauzy_step(T):
    """One step of Rauzy induction: first-return map to [0, total - m)
    where m is the smaller of the two rightmost interval lengths.

    The longer of the rightmost domain interval and the rightmost image
    interval loses length m; the permutation is rewired accordingly and
    stays irreducible.  Equal rightmost lengths leave no first-return
    exchange of the same size, so they raise DegenerateStepError.
    """
    k = len(T.lengths)
    if k < 2:
        raise DegenerateStepError("a single interval admits no induction")
    perm = T.permutation
    top = list(range(k))
    bottom = [perm.index(s) for s in range(1, k + 1)]
    alpha = top[-1]
    beta = bottom[-1]
    diff = T.lengths[alpha] - T.lengths[beta]
    s = T._sign(diff)
    if s == 0:
        raise DegenerateStepError(
            "rightmost intervals have equal length: induction degenerates")
    lengths = list(T.lengths)
    if s > 0:
        lengths[alpha] = diff
        bottom.pop()
        bottom.insert(bottom.index(alpha) + 1, beta)
    else:
        lengths[beta] = -diff
        top.pop()
        top.insert(top.index(beta) + 1, alpha)
    relabel = {old: new for new, old in enumerate(top)}
    new_lengths = [lengths[old] for old in top]
    new_perm = [0] * k
    for slot, old in enumerate(bottom, 1):
        new_perm[relabel[old]] = slot
    return IET(new_lengths, new_perm, embedding=T.embedding)
