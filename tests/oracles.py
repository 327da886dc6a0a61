"""Independent cross-check computations used only by the test suite.

Everything here is deliberately naive (brute force, first principles) and
kept separate from the package so the two routes share no code.  The
routes that the package replaced (Gauss-Jordan over K for kernels and
eigenvectors, Fraction Horner for primary blocks, and the two Hecke routes
that Heilbronn matrices superseded: Merel's determinant-p family and the
degeneracy-coset paths, for whole matrices and single columns, the
Heilbronn family itself as a list of matrices, which the walk mod N
replaced, LLL with Gram-Schmidt data in Fractions, period integrals by
complex powers in mpmath, which the fixed-point kernel replaced, the search
for cusp labels by Cremona's equivalence criterion, and real embeddings
by interval Horner over Fractions with the Keane probe on field elements)
live on here; they reuse the package's field, matrix and path arithmetic
but none of the code they check.
"""

from fractions import Fraction
from math import gcd

from mpmath import mp

from modfol.arith import is_prime
from modfol.congruence import normalize_cusp
from modfol.errors import (DimensionError, DomainError,
                           InternalInvariantError, MultiplicityError)
from modfol.linalg import QMatrix
from modfol.numfield import NFElement


def brute_canonical(N, c, d):
    """Lexicographically smallest pair in the unit orbit of (c, d) mod N."""
    c, d = c % N, d % N
    return min(((u * c) % N, (u * d) % N)
               for u in range(1, max(N, 2)) if gcd(u, N) == 1)


def brute_p1_classes(N):
    """P^1(Z/N) classes by explicit union of unit orbits."""
    if N == 1:
        return [(0, 0)]
    units = [u for u in range(1, N) if gcd(u, N) == 1]
    seen = set()
    classes = []
    for c in range(N):
        for d in range(N):
            if gcd(gcd(c, d), N) != 1 or (c, d) in seen:
                continue
            orbit = {((u * c) % N, (u * d) % N) for u in units}
            classes.append(min(orbit))
            seen |= orbit
    return classes


def coset_genus(N):
    """Genus of the level-N curve by counting orbits on cosets.

    Cosets of the level subgroup in the full modular group are identified
    with bottom rows up to units.  The three permutations below are right
    multiplication by the order-2 element, the order-3 element, and the
    translation; Euler characteristic 2 - 2g = #orb2 + #orb3 + #orbT - mu.
    """
    reps = brute_p1_classes(N)

    def orbits(step):
        seen = set()
        count = 0
        for r in reps:
            if r in seen:
                continue
            count += 1
            cur = r
            while cur not in seen:
                seen.add(cur)
                cur = brute_canonical(N, *step(cur))
        return count

    n2 = orbits(lambda cd: (cd[1], -cd[0]))          # (c,d) . S
    n3 = orbits(lambda cd: (cd[1], cd[1] - cd[0]))   # (c,d) . ST
    nT = orbits(lambda cd: (cd[0], cd[0] + cd[1]))   # (c,d) . T
    chi = n2 + n3 + nT - len(reps)
    assert (2 - chi) % 2 == 0
    return (2 - chi) // 2


def random_gamma0_element(rng, N, size=20):
    """A nontrivial element of the level subgroup, built directly."""
    while True:
        c = N * rng.randint(-size, size)
        d = rng.randint(-size, size)
        if gcd(c, d) != 1:
            continue
        # solve a*d - b*c = 1
        g, x, y = _xgcd(d, -c)
        assert g == 1
        a, b = x, y
        # randomize by adding multiples of (c, d) to the top row
        k = rng.randint(-3, 3)
        return (a + k * c, b + k * d, c, d)


def _xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def fraction_rref(rows, cols):
    """Reduced row echelon form by textbook Fraction Gauss-Jordan elimination.

    rows is a list of ``cols``-long rows of rationals; returns (reduced rows,
    pivot column list).
    """
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(cols):
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def fraction_lll(rows, delta=Fraction(3, 4)):
    """LLL on Fractions that derives its Gram-Schmidt data afresh from the
    rows instead of updating it.

    The loop, the rounding q = floor(mu + 1/2), the full size reduction
    before each Lovasz test and the test itself are those of the package's
    integral LLL, so the two return the same rows.  Whenever row k is
    read or changed, its mu_kj and squared norm are recomputed in
    Fractions from the integer Gram matrix (an exact LDL^T over rows 0..k),
    so no update formula is shared.
    """
    b = [list(map(int, r)) for r in rows]
    if not b:
        return []
    n = len(b)
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms = [Fraction(0)] * n

    def project(i):
        # rows 0..i-1 must be current
        for j in range(i + 1):
            s = Fraction(sum(x * y for x, y in zip(b[i], b[j])))
            for t in range(j):
                s -= mu[j][t] * mu[i][t] * norms[t]
            if j < i:
                mu[i][j] = s / norms[j]
            else:
                norms[i] = s

    for i in range(n):
        project(i)
        if norms[i] == 0:
            raise DomainError("lattice rows must be linearly independent")
    k = 1
    while k < n:
        project(k)
        for j in range(k - 1, -1, -1):
            f = mu[k][j]
            q = (2 * f.numerator + f.denominator) // (2 * f.denominator)
            if q:
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                project(k)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            if k == 1:
                project(0)
            k = max(k - 1, 1)
    return b


def span_coordinates(basis, vec):
    """The unique coefficients c with sum c_k basis[k] = vec, or None if vec
    is outside the span; basis vectors must be independent."""
    k = len(basis)
    rows = [[b[i] for b in basis] + [vec[i]] for i in range(len(vec))]
    reduced, pivots = fraction_rref(rows, k + 1)
    if pivots != list(range(k)):
        return None
    return [reduced[r][k] for r in range(k)]


def _as_nf(field, x):
    if isinstance(x, NFElement):
        if x.field != field:
            raise DomainError("mixed fields in matrix")
        return x
    return field.from_rational(x)


def nf_rref(field, rows):
    """Reduced row echelon form over the field; returns (rows, pivot_cols)."""
    m = [[_as_nf(field, x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def elimination_nf_kernel(field, rows):
    """Basis of the right kernel over the field by Gauss-Jordan elimination,
    the oracle for numfield.eigenspace on the rows A - c*I.

    Echelonized; each basis vector has value 1 in its distinguishing
    (free) coordinate.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    rref, pivots = nf_rref(field, rows)
    pivot_set = set(pivots)
    basis = []
    for c in range(ncols):
        if c in pivot_set:
            continue
        v = [field.zero()] * ncols
        v[c] = field.one()
        for k, pc in enumerate(pivots):
            v[pc] = -rref[k][c]
        basis.append(v)
    return basis


def elimination_eigenvector(T, lam):
    """rescale_eigenvector by Gauss-Jordan elimination over K.

    Solves (T - lam*I) x = 0 with elimination_nf_kernel and normalises
    the single kernel vector at its first nonzero entry; DomainError if
    lam is not an eigenvalue, MultiplicityError if the kernel has
    dimension > 1.
    """
    if T.rows != T.cols:
        raise DimensionError("rescale_eigenvector needs a square matrix")
    field = lam.field
    n = T.rows
    rows = [[T[i, j] - lam if i == j else T[i, j] for j in range(n)]
            for i in range(n)]
    kernel = elimination_nf_kernel(field, rows)
    if not kernel:
        raise DomainError("value is not an eigenvalue of the matrix")
    if len(kernel) > 1:
        raise MultiplicityError(
            "eigenspace has dimension %d > 1; eigenvalue is not simple"
            % len(kernel))
    vec = kernel[0]
    lead = next(i for i, x in enumerate(vec) if not x.is_zero())
    inv = vec[lead].inverse()
    out = tuple(x * inv for x in vec)
    if any(_row_dot(T, i, out, field) != lam * out[i] for i in range(n)):
        raise InternalInvariantError("rescaled vector is not an eigenvector")
    return out


def _row_dot(mat, i, vec, field):
    total = field.zero()
    for j, x in enumerate(vec):
        a = mat[i, j]
        if a:
            total = total + a * x
    return total


def fraction_poly_at_matrix(poly, mat):
    """Evaluate a rational polynomial at a square matrix by Horner on rows
    of Fractions, apart from QMatrix arithmetic."""
    a = mat.to_rows()
    n = len(a)
    out = [[Fraction(0)] * n for _ in range(n)]
    for c in reversed(poly.coeffs):
        out = [[sum((x * a[t][j] for t, x in enumerate(row) if x), c * (i == j))
                for j in range(n)] for i, row in enumerate(out)]
    return QMatrix.from_rows(out)


def heilbronn(p):
    """Cremona's Heilbronn matrices (a, b, c, d) of determinant p.

    (1, 0, 0, p), then for each |r| <= p/2 the matrix (p, -r, 0, 1) and
    one more per step of the nearest-integer continued fraction of -p/r.
    """
    if not is_prime(p):
        raise DomainError("expected a prime, got %d" % p)
    if p == 2:
        return [(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]
    fam = [(1, 0, 0, p)]
    for r in range(-(p // 2), p // 2 + 1):
        a, b, h = -p, r, (p, -r, 0, 1)
        fam.append(h)
        while b:
            q = (2 * a + b) // (2 * b)        # nearest integer to a/b
            a, b = -b, a - q * b
            h = (h[1], q * h[1] - h[0], h[3], q * h[3] - h[2])
            fam.append(h)
    return fam


def heilbronn_images(N, c, d, p):
    """Points (c:d)h of P^1(Z/N), h in the Heilbronn family of p, as
    reduced pairs; pairs that are not points (only when p | N) drop out."""
    out = []
    for (ma, mb, mc, md) in heilbronn(p):
        c2 = (c * ma + d * mc) % N
        d2 = (c * mb + d * md) % N
        if gcd(c2, d2, N) == 1:
            out.append((c2, d2))
    return out


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


def hecke_matrix_merel(space, p):
    """T_p on the full symbol quotient via the Merel family."""
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


def hecke_matrix_paths(space, p):
    """T_p on the full symbol quotient via the degeneracy-coset route."""
    dim = space.dim
    cols = [hecke_column_paths(space, p, j) for j in range(dim)]
    return QMatrix.from_rows(
        [[cols[j][i] for j in range(dim)] for i in range(dim)])


def moebius_on_cusp(m, cusp):
    """Matrix action on a cusp given as a pair (p, q), q may be 0."""
    a, b, c, d = m
    p, q = cusp
    return (a * p + b * q, c * p + d * q)


def cusp_equivalent(cusp1, cusp2, N):
    """Exact Gamma0(N)-equivalence of two cusps given as (p, q) pairs:
    p1/q1 ~ p2/q2 iff s1*q2 = s2*q1 mod gcd(q1*q2, N), s_i = p_i^-1 mod q_i
    (Cremona 1997, 2.2)."""
    p1, q1 = normalize_cusp(*cusp1)
    p2, q2 = normalize_cusp(*cusp2)
    s1 = pow(p1, -1, q1) if q1 >= 1 else 1
    s2 = pow(p2, -1, q2) if q2 >= 1 else 1
    g = gcd(q1 * q2, N)
    return (s1 * q2 - s2 * q1) % g == 0


def search_cusp_class_key(cusp, N):
    """The label (a, c) of a cusp's class by search: c = gcd(q, N) and a
    the smallest nonnegative numerator prime to c with a/c equivalent to
    the cusp."""
    p, q = normalize_cusp(*cusp)
    c = gcd(q, N)
    for a in range(N + 1):
        if gcd(a, c) == 1 and cusp_equivalent((p, q), (a, c), N):
            return (a, c)
    raise InternalInvariantError(
        "no canonical representative found for %s" % ((p, q),))


def search_cusp_count(N):
    """Number of cusp classes as the sum over d | N of phi(gcd(d, N/d)),
    with every divisor and every totient found by search."""
    def phi(n):
        return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
    return sum(phi(gcd(d, N // d)) for d in range(1, N + 1) if N % d == 0)


def power_loop_integral(coeffs, gamma, terms, digits):
    """Loop integral of sum c_n q^n dq/q along gamma, as the mpmath loop
    that the fixed-point kernel replaced: the antiderivative series
    sum c_n / n * (q1^n - q0^n), n <= terms, with q1 and q0 the endpoints
    (a + i)/c and (-d + i)/c mapped to the disc, and both powers carried
    as complex numbers at `digits` decimal digits."""
    a, b, c, d = gamma
    if c < 0:
        a, b, c, d = -a, -b, -c, -d
    with mp.workdps(digits):
        i2pi = 2 * mp.pi * mp.mpc(0, 1)
        q1 = mp.exp(i2pi * mp.mpc(mp.mpf(a) / c, mp.mpf(1) / c))
        q0 = mp.exp(i2pi * mp.mpc(mp.mpf(-d) / c, mp.mpf(1) / c))
        total, pow1, pow0 = mp.mpc(0), mp.mpc(1), mp.mpc(1)
        for n in range(1, terms + 1):
            pow1 *= q1
            pow0 *= q0
            cn = coeffs[n]
            if cn:
                total += cn / n * (pow1 - pow0)
    return total


def eta_product_qexp(N, terms):
    """q-expansion oracle for the weight-2 newforms at levels 11 and 20-ish
    eta-product levels; implemented only for the cases the tests use."""
    if N == 11:
        # eta(z)^2 eta(11 z)^2 = q prod (1-q^n)^2 (1-q^{11n})^2
        return _eta_power_product([(1, 2), (11, 2)], terms)
    raise NotImplementedError(N)


def _eta_power_product(powers, terms):
    # compute q * prod_{(m, e)} prod_n (1 - q^{m n})^e up to q^terms
    # (the leading q comes from the eta prefactors: sum m*e/24 = 1 here)
    pre = sum(m * e for m, e in powers)
    assert pre % 24 == 0
    shift = pre // 24
    # polynomial arithmetic truncated at q^(terms+1)
    size = terms + 1
    coeffs = [0] * size
    coeffs[0] = 1
    for m, e in powers:
        for _ in range(e):
            # multiply by prod_n (1 - q^{m n})
            new = [0] * size
            # use Euler's pentagonal expansion of prod (1 - x^n) with x = q^m
            pent = _pentagonal_series((size - 1) // m + 1)
            for k, c in enumerate(pent):
                if k * m >= size or c == 0:
                    continue
                for i in range(size - k * m):
                    if coeffs[i]:
                        new[i + k * m] += c * coeffs[i]
            coeffs = new
    out = [0] * (terms + 1)
    for i, c in enumerate(coeffs):
        if i + shift <= terms:
            out[i + shift] = c
    return out   # out[n] = coefficient of q^n


def _pentagonal_series(size):
    """Coefficients of prod_{n>=1} (1 - x^n) up to x^(size-1)."""
    out = [0] * size
    out[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 >= size and g2 >= size:
            break
        sign = -1 if k % 2 == 1 else 1
        if g1 < size:
            out[g1] += sign
        if g2 < size:
            out[g2] += sign
        k += 1
    return out


# -- real embeddings over Fractions -------------------------------------------------


def _interval_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _interval_mul(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


class FractionEmbedding:
    """RealEmbedding by bisection and interval Horner over Fractions.

    The generator's image is the unique root of the defining polynomial in
    the open interval (lo, hi); signs are decided by refining the interval
    until interval arithmetic becomes conclusive.
    """

    def __init__(self, field, lo, hi):
        self.field = field
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)

    def _refine(self):
        """One bisection step on the isolating interval."""
        f = self.field.minpoly
        mid = (self.lo + self.hi) / 2
        vm = f.evaluate(mid)
        if vm == 0:
            # rational root: shrink to a tiny interval still containing it
            w = (self.hi - self.lo) / 4
            self.lo, self.hi = mid - w, mid + w
            return
        if (f.evaluate(self.lo) > 0) != (vm > 0):
            self.hi = mid
        else:
            self.lo = mid

    def _interval_eval(self, coeffs):
        """Interval Horner evaluation of sum c_i a^i over (lo, hi)."""
        acc = (Fraction(0), Fraction(0))
        box = (self.lo, self.hi)
        for c in reversed(coeffs):
            acc = _interval_add(_interval_mul(acc, box), (c, c))
        return acc

    def sign(self, elt):
        """Exact sign (-1, 0, 1) of the image of elt under this embedding."""
        elt = _as_nf(self.field, elt)
        if elt.is_zero():
            return 0
        while True:
            lo, hi = self._interval_eval(elt.coeffs)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            self._refine()

    def approx(self, elt, eps):
        """Rational approximation of elt's image within eps (> 0)."""
        elt = _as_nf(self.field, elt)
        eps = Fraction(eps)
        if eps <= 0:
            raise DomainError("eps must be positive")
        while True:
            lo, hi = self._interval_eval(elt.coeffs)
            if hi - lo < eps:
                return (lo + hi) / 2
            self._refine()


def fraction_keane_probe(T, max_steps):
    """minimality_probe's connection search on field elements, with signs
    from a FractionEmbedding on the exchange's isolating interval.  The
    rank check is left to the caller."""
    emb = FractionEmbedding(T.field, T.embedding.lo, T.embedding.hi)
    emb.approx(T.field.gen(), Fraction(1, 10 ** 40))
    sign = emb.sign
    cuts = T._cuts[1:]
    shifts = T._shifts
    violations = []
    for start, d in enumerate(cuts, 1):
        x = d
        for step in range(max_steps + 1):
            index = 0
            at_cut = None
            for j, c in enumerate(cuts, 1):
                s = sign(x - c)
                if s >= 0:
                    index += 1
                if s == 0:
                    at_cut = j
            if step > 0 and at_cut is not None:
                violations.append({"discontinuity": start,
                                   "after_steps": step,
                                   "hits": at_cut})
                break
            if step == max_steps:
                break
            x = x + shifts[index]
    return {"no_periodic_orbit_found": not violations,
            "keane_violations": violations}
