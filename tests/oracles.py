"""Independent cross-check computations used only by the test suite.

Everything here is deliberately naive (brute force, first principles) and
kept separate from the package so the two routes share no code.  The
routes that the package replaced (the sweep of all N^2 pairs for
P^1(Z/N), Gauss-Jordan over K for kernels and eigenvectors, the joint
eigenspace over K by restriction of scalars, which the adjugate column
replaced for dual and possibly-old eigenvectors, Fraction
Horner on each primary part for primary blocks, the adjugate column by
Horner over K, and the two Hecke routes that Heilbronn matrices
superseded: Merel's determinant-p family and the degeneracy-coset
paths, for whole matrices and single columns, the orbit split from one
identity block at prime levels, which the W_N eigenspaces replaced, the
Heilbronn family itself as a list of matrices, which the walk mod N
replaced, T_p on the +1 half by restriction first to the cuspidal
subspace and then to the star-fixed kernel there, LLL with Gram-Schmidt data in Fractions, period integrals by
complex powers in mpmath, which the fixed-point kernel replaced, the
numeric coefficients by one rational approximation per coefficient and the
per-term fixed-point loop, which the integer series and its residue-class
sums replaced, r = exp(-2 pi / c) and the c-th roots of unity from mpmath,
which the integer Machin, Taylor and power kernels replaced, the homology
basis by one rank computation per candidate loop, the search
for cusp labels by Cremona's equivalence criterion, real embeddings by
interval Horner over Fractions with the Keane probe on field elements,
the probe's step loop that sliced the cut enclosures and carried a taken
vector as long as all the rows, which flat enclosure lists replaced,
real-root isolation with Sturm signs from Fraction Horner on sympy's chain
over QQ, number-field elements on Fraction coordinates, with the
embedding queries that read them through a Fraction QMatrix row, the
Manin-symbol quotient by elimination of the dense three-term relation
matrix, which the spanning forest replaced, and the boundary map checked
by a walk over every symbol's coordinate row, which the certificate on the
two- and three-term relations replaced, the image of a polynomial at
the generator by Horner in K, which one integer remainder replaced) live
on here; they reuse the
package's field, matrix and path arithmetic but none of the code they
check.
"""

from fractions import Fraction
from math import gcd
from operator import mul

import sympy
from mpmath import libmp, mp

from modfol import eigen
from modfol.arith import is_prime
from modfol.congruence import (P1Space, _normalize_cusp, cusp_class_key,
                               cusp_classes)
from modfol.errors import (DimensionError, DomainError,
                           InternalInvariantError, MultiplicityError,
                           UndecidedSplitError)
from modfol.hecke import hecke_matrix
from modfol.linalg import QMatrix
from modfol.modsym import ModularSymbolSpace, _lift_canonical
from modfol.numfield import NFElement
from modfol.pipeline import rat_to_json
from modfol.polys import QPolynomial, factor_poly


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


def sweep_p1(N):
    """P^1(Z/N) by a sweep of all N^2 pairs in lexicographic order: the
    first pair met of each unit orbit is its representative.  Returns the
    representatives and the flat N*N table of class indices, -1 at the
    pairs that are not points."""
    units = [u for u in range(1, max(N, 2)) if gcd(u, N) == 1]
    table = [-1] * (N * N)
    reps = []
    for c in range(N):
        for d in range(N):
            if table[c * N + d] >= 0 or gcd(gcd(c, d), N) != 1:
                continue
            reps.append((c, d))
            for u in units:
                table[(u * c) % N * N + (u * d) % N] = len(reps) - 1
    return tuple(reps), table


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


# 2x2 integer matrices are flat tuples (a, b, c, d)


def mat_mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


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


def cuspidal_basis(space):
    """Echelon basis of the cuspidal subspace, one tuple per vector: the
    kernel of the boundary map, read off its images of the unit vectors."""
    n = space.dim
    images = [space.boundary_of([int(i == j) for i in range(n)])
              for j in range(n)]
    boundary = QMatrix(len(space.cusp_keys), n,
                       [x for row in zip(*images) for x in row])
    basis, _ = boundary.echelon_kernel()
    return [tuple(basis.col(j)) for j in range(basis.cols)]


def relation_quotient(N):
    """(free_symbols, symbol_coords) of the Manin-symbol quotient by
    elimination: the dense three-term relation rows over the two-term
    representatives, their echelon kernel, and a check that it has no
    denominators; each symbol's coordinates are its representative's row
    of the kernel basis, times the sign of the two-term relation."""
    p1 = P1Space(N)
    n = len(p1.reps)
    sigma = [p1.index(d, -c) for c, d in p1.reps]
    tau = [p1.index(d, -c - d) for c, d in p1.reps]
    rep_of, reps = [None] * n, []
    for i in range(n):
        if rep_of[i] is None:
            if sigma[i] == i:
                rep_of[i] = (0, 0)
            else:
                rep_of[i], rep_of[sigma[i]] = (1, len(reps)), (-1, len(reps))
                reps.append(i)
    rows, seen = [], set()
    for i in range(n):
        orbit = (i, tau[i], tau[tau[i]])
        if min(orbit) in seen:
            continue
        seen.add(min(orbit))
        row = [0] * len(reps)
        for j in orbit:
            sign, k = rep_of[j]
            if sign:
                row[k] += sign
        if any(row):
            rows.append(row)
    rel = QMatrix.from_rows(rows) if rows else QMatrix.zeros(0, len(reps))
    basis, free = rel.echelon_kernel()
    den, coord_rows = basis.integer_rows()
    if den != 1:
        raise InternalInvariantError("non-integral coordinates at level %d" % N)
    dim = len(free)
    signed = {1: [tuple(row) for row in coord_rows],
              -1: [tuple(-x for x in row) for row in coord_rows],
              0: [(0,) * dim]}
    return ([reps[c] for c in free],
            [signed[sign][k] for sign, k in rep_of])


def boundary_walk_failures(N, free, coords, lift):
    """The symbols whose boundary differs from their coordinates'
    boundary, by the per-symbol walk that the relation certificate
    replaced: each symbol's ends, the cusp classes of g.oo and g.0 for its
    lift g = lift(c, d), against the free symbols' ends summed over its
    coordinate row."""
    keys = cusp_classes(N)

    def label(p, q):
        return keys.index(cusp_class_key((p, q), N))

    ends = [(label(a, c), label(b, d)) for a, b, c, d in
            (lift(*rep) for rep in P1Space(N).reps)]
    failures = []
    for i, row in enumerate(coords):
        rest = [0] * len(keys)
        rest[ends[i][0]] += 1
        rest[ends[i][1]] -= 1
        for j, x in enumerate(row):
            rest[ends[free[j]][0]] -= x
            rest[ends[free[j]][1]] += x
        if any(rest):
            failures.append(i)
    return failures


def greedy_homology_generators(space):
    """The homology basis by the per-candidate sweep: over (a, b, kN, d),
    0 < d <= kN, for k = 1, 2, ..., each loop is kept when one rank
    computation of the picked loops with it finds it independent."""
    out = []
    k = 0
    while len(out) < space.cuspidal_dim:
        k += 1
        c = k * space.N
        for d in range(1, c + 1):
            if gcd(d, c) != 1:
                continue
            a = pow(d, -1, c)
            gamma = (a, (a * d - 1) // c, c, d)
            coords = space.loop_class(gamma)
            trial = [list(v) for _, v in out] + [list(coords)]
            if QMatrix.from_rows(trial).rank() == len(trial):
                out.append((gamma, coords))
                if len(out) == space.cuspidal_dim:
                    break
    return out


def record_with_hecke(record):
    """A level record in its earlier shape, which also held each cuspidal
    T_p at the record's primes under "hecke" as rows of JSON rationals."""
    space = ModularSymbolSpace(record["level"])
    return dict(record, hecke={
        str(p): [[rat_to_json(x) for x in row]
                 for row in space.restrict_to_cuspidal(
                     hecke_matrix(space, p)).to_rows()]
        for p in record["primes"]})


def plus_hecke_two_step(space, p):
    """T_p on the +1 half in two restrictions: to the cuspidal subspace,
    then to the kernel of star - 1 in cuspidal coordinates."""
    star = space.restrict_to_cuspidal(space.star_matrix())
    fixed = star - QMatrix.identity(space.cuspidal_dim)
    return space.restrict_to_cuspidal(hecke_matrix(space, p)).restrict(
        *fixed.echelon_kernel())


def identity_start_decompose(space, primes=None):
    """eigen.decompose by the route that the W_N start replaced at prime
    levels: the +1 half starts as one identity block at every level, and
    at a prime level the first block, in order, that no supplied
    eigenvalue generates is undecided.  It shares the primary blocks and
    each block's orbit with the package, and none of the W_N code."""
    N, g = space.N, space.genus
    ps = ([eigen._next_split_prime([1], N)] if primes is None
          else sorted({int(p) for p in primes}))
    if g == 0:
        return []
    blocks = [(QMatrix.identity(g), list(range(g)), {}, {})]
    while True:
        for p in ps[len(blocks[0][3]):]:
            blocks = eigen._primary_blocks(
                blocks, p, eigen._plus_hecke_matrix(space, p))
        try:
            for block, _, _, factors in blocks:
                dim = block.cols
                if is_prime(N) and all(factors[p].degree != dim for p in ps):
                    q = eigen._next_split_prime(ps, N)
                    raise UndecidedSplitError(
                        "a %d-dimensional block is not generated by any "
                        "supplied eigenvalue; distinct orbits share all "
                        "supplied primes -- try adding prime %d" % (dim, q),
                        next_prime=q)
            orbits = [eigen._orbit_from_block(space, ps, block, mats, factors)
                      for block, _, mats, factors in blocks]
            break
        except UndecidedSplitError as err:
            if primes is not None or len(ps) >= eigen.PRIME_LIMIT:
                raise
            ps.append(err.next_prime)
    p0 = ps[0]
    orbits.sort(key=lambda o: (o.degree,
                               o.coefficient_map[p0].trace(),
                               o.field.minpoly.coeffs,
                               o.coefficient_map[p0].coeffs))
    return orbits


def span_coordinates(basis, vec):
    """The unique coefficients c with sum c_k basis[k] = vec, or None if vec
    is outside the span; basis vectors must be independent."""
    k = len(basis)
    rows = [[b[i] for b in basis] + [vec[i]] for i in range(len(vec))]
    reduced, pivots = fraction_rref(rows, k + 1)
    if pivots != list(range(k)):
        return None
    return [reduced[r][k] for r in range(k)]


def nf_rref(field, rows):
    """Reduced row echelon form over the field; returns (rows, pivot_cols)."""
    m = [[field.coerce(x) for x in row] for row in rows]
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
    the oracle for kronecker_eigenspace on the rows A - c*I.

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
        v = [field.from_rational(0)] * ncols
        v[c] = field.one()
        for k, pc in enumerate(pivots):
            v[pc] = -rref[k][c]
        basis.append(v)
    return basis


def kronecker_eigenspace(pairs):
    """Basis over K of {X : A*X = X*c.matrix() for every pair (A, c)}, by
    restriction of scalars: the oracle for eigen.dual_eigenvector and the
    possibly-old eigenvectors of eigen.decompose, which the package once
    solved this way.

    A is an n x n rational QMatrix, c an element of one field K of degree
    d, and X the n x d coordinate matrix of a vector of K^n.  On the
    row-major entries of X the equations are A (x) I_d - I_n (x) c.matrix()^T,
    the restriction of scalars of A - c*I, which maps a reduced echelon form
    over K to one over Q: the rational kernel vector at free column j*d is
    the vector over K that is 1 at its free entry j, in free-entry order.
    """
    if not pairs:
        raise DomainError("eigenspace needs at least one (matrix, value) pair")
    field = pairs[0][1].field
    n, d = pairs[0][0].rows, field.degree
    rows = []
    for A, c in pairs:
        if (A.rows, A.cols) != (n, n):
            raise DimensionError("eigenspace needs square matrices of one size")
        if c.field != field:
            raise DomainError("eigenvalues lie in different fields")
        # the system times den_A * den_c, which leaves its kernel alone
        den_a, a = A.integer_rows()
        den_c, ct = c.matrix().transpose().integer_rows()
        for i, arow in enumerate(a):
            for r, crow in enumerate(ct):
                row = [den_c * x if k == r else 0 for x in arow for k in range(d)]
                for k, z in enumerate(crow):
                    row[i * d + k] -= den_a * z
                rows.append(row)
    basis, free = QMatrix.from_rows(rows).echelon_kernel()
    vectors = (basis.col(k) for k, f in enumerate(free) if f % d == 0)
    return [QMatrix.from_rows([v[j:j + d] for j in range(0, n * d, d)])
            for v in vectors]


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
    total = field.from_rational(0)
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


def per_part_primary_blocks(T):
    """(f, kernel of f^m(T), its free rows) for each primary part f^m of
    T's characteristic polynomial, in factor_poly order: each part's
    f^m(T) by Fraction Horner on its own, and its kernel as
    echelon_kernel returns it."""
    return [(f, *fraction_poly_at_matrix(f ** m, T).echelon_kernel())
            for f, m in factor_poly(QPolynomial(T.charpoly()))]


def horner_adjugate_column(T, lam, chi):
    """A nonzero column of adj(lam*I - T) = g(T), g = chi/(x - lam), as its
    n x d coordinate matrix: column j by Horner over K, one n x n by n x d
    product per coefficient of g."""
    field = lam.field
    n = T.rows
    g, acc = [None] * n, field.one()
    for k in range(n - 1, -1, -1):
        g[k] = acc
        acc = acc * lam + chi[k]
    if not acc.is_zero():
        raise DomainError("value is not an eigenvalue of the matrix")
    for j in range(n):
        col = QMatrix.zeros(n, field.degree)
        for gk in reversed(g):
            lift = [gk.coeffs if i == j else [0] * field.degree
                    for i in range(n)]
            col = T * col + QMatrix.from_rows(lift)
        if not col.is_zero():
            return col
    raise MultiplicityError("adj(lam*I - T) vanishes")


def heilbronn(p):
    """A Heilbronn family (a, b, c, d) of determinant p.

    (1, 0, 0, p), then Cremona's chains for 0 <= r <= p/2: the matrix
    (p, -r, 0, 1) and one more per step of the nearest-integer continued
    fraction of -p/r; then, for -r, the conjugates (a, -b, -c, d) of the
    r > 0 chains by diag(-1, 1).  Cremona's own -r chains differ from
    these only where his rounding meets a tie.
    """
    if not is_prime(p):
        raise DomainError("expected a prime, got %d" % p)
    if p == 2:
        return [(1, 0, 0, 2), (2, 0, 0, 1), (2, 1, 0, 1), (1, 0, 1, 2)]
    fam, mirror = [(1, 0, 0, p)], []
    for r in range(p // 2 + 1):
        a, b, h = -p, r, (p, -r, 0, 1)
        chain = [h]
        while b:
            q = (2 * a + b) // (2 * b)        # nearest integer to a/b
            a, b = -b, a - q * b
            h = (h[1], q * h[1] - h[0], h[3], q * h[3] - h[2])
            chain.append(h)
        fam += chain
        if r:
            mirror += [(a, -b, -c, d) for a, b, c, d in chain]
    return fam + mirror


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
            images.append(space.p1.index(c2, d2))
        cols.append(space.symbol_sum(images))
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
    a, b, c, d = _lift_canonical(*space.p1.reps[sym])
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


def moebius_apply(m, x):
    """Action of an integer matrix on P^1(Q); x is a Fraction or None for infinity."""
    a, b, c, d = m
    if x is None:
        return Fraction(a, c) if c != 0 else None
    num = a * x + b
    den = c * x + d
    if den == 0:
        return None
    return Fraction(num, den) if not isinstance(num, Fraction) else num / den


def cusp_equivalent(cusp1, cusp2, N):
    """Exact Gamma0(N)-equivalence of two cusps given as (p, q) pairs:
    p1/q1 ~ p2/q2 iff s1*q2 = s2*q1 mod gcd(q1*q2, N), s_i = p_i^-1 mod q_i
    (Cremona 1997, 2.2)."""
    p1, q1 = _normalize_cusp(*cusp1)
    p2, q2 = _normalize_cusp(*cusp2)
    s1 = pow(p1, -1, q1) if q1 >= 1 else 1
    s2 = pow(p2, -1, q2) if q2 >= 1 else 1
    g = gcd(q1 * q2, N)
    return (s1 * q2 - s2 * q1) % g == 0


def search_cusp_class_key(cusp, N):
    """The label (a, c) of a cusp's class by search: c = gcd(q, N) and a
    the smallest nonnegative numerator prime to c with a/c equivalent to
    the cusp."""
    p, q = _normalize_cusp(*cusp)
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


def approx_series(orbit, series, count, digits):
    """[0, c_1, ..., c_count] of the orbit's exact `series` as mpf under its
    designated embedding, the field's first real one, by the route the
    fixed-point series replaced: each c_n is a rational within
    10^-(digits + 5) of its image (one RealEmbedding.approx call per
    coefficient), then the quotient of its numerator and denominator as
    mpf at digits + 10 decimal digits."""
    emb = orbit.field.real_embeddings()[0]
    eps = Fraction(1, 10 ** (digits + 5))
    coeffs = [mp.mpf(0)]
    with mp.workdps(digits + 10):
        for val in series[1:count + 1]:
            if isinstance(val, NFElement):
                val = emb.approx(val, eps)
            coeffs.append(mp.mpf(val.numerator) / mp.mpf(val.denominator))
    return coeffs


def mpmath_path_tables(c, bits):
    """(r, cos, sin) for paths with lower-left entry c > 0, scaled by
    2**bits, by the mpmath route that the integer kernels replaced:
    r = exp(-2 pi / c) and cos[k] + i sin[k] = exp(2 pi i k / c), k < c,
    at bits + 20 bits, each truncated (to_fixed).  The roots are evaluated
    at 2k / c rounded to bits + 20 bits, so where the exact value is +-1/2
    the truncation can land one unit below it (as at c = 6, k = 4 and 5)."""
    prec = bits + 20
    with mp.workprec(prec):
        r = libmp.to_fixed(mp.exp(-2 * mp.pi / c)._mpf_, bits)
    roots = [libmp.mpf_cos_sin_pi(libmp.from_rational(2 * k, c, prec), prec)
             for k in range(c)]
    return (r, [libmp.to_fixed(x, bits) for x, _ in roots],
            [libmp.to_fixed(y, bits) for _, y in roots])


def term_loop_sum(fixed, gamma, terms, bits, tables):
    """(re, im): the period of gamma as integers scaled by 4**bits, by the
    per-term loop that the residue-class sums replaced.  fixed[n] is c_n
    scaled by 2**bits and tables = (r, cos, sin) holds r = exp(-2 pi / |c|)
    and the |c|-th roots of unity, scaled alike; r^n is carried by one
    product and shift per term, w_n = (fixed[n] r^n >> bits) // n, and the
    indices of zeta^(a n) and zeta^(-d n) step by a and -d mod c over the
    table of roots."""
    a, b, c, d = gamma
    if c < 0:
        a, b, c, d = -a, -b, -c, -d
    r, cos, sin = tables
    re = im = 0
    rn = 1 << bits
    ka = kd = 0
    for n in range(1, terms + 1):
        rn = rn * r >> bits
        ka = (ka + a) % c
        kd = (kd - d) % c
        w = (fixed[n] * rn >> bits) // n
        re += w * (cos[ka] - cos[kd])
        im += w * (sin[ka] - sin[kd])
    return re, im


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


# -- number-field elements on Fraction coordinates ----------------------------------


class FractionElement:
    """A NumberField element as a tuple of Fraction power-basis
    coordinates, with the arithmetic NFElement ran before it held integers
    over one denominator: schoolbook products reduced by a^d = sum top_j a^j
    from the top down, and the inverse by Fraction Gauss-Jordan on the
    transposed multiplication matrix."""

    def __init__(self, field, coeffs):
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != field.degree:
            raise DomainError("coordinate vector has wrong length")
        self.field = field
        self.coeffs = tuple(cs)

    def _other(self, other):
        if isinstance(other, FractionElement):
            return other
        return FractionElement(self.field, [Fraction(other)]
                               + [0] * (self.field.degree - 1))

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._other(other)
        return (isinstance(other, FractionElement)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        if not any(self.coeffs[1:]):
            return hash(self.coeffs[0])
        return hash((self.field.minpoly.coeffs, self.coeffs))

    def __add__(self, other):
        o = self._other(other)
        return FractionElement(self.field, [a + b for a, b in
                                            zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return FractionElement(self.field, [-a for a in self.coeffs])

    def __sub__(self, other):
        return self + -self._other(other)

    def __rsub__(self, other):
        return self._other(other) - self

    def __mul__(self, other):
        o = self._other(other)
        d = self.field.degree
        top = [-c for c in self.field.minpoly.coeffs[:-1]]
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                prod[i + j] += a * b
        for k in range(2 * d - 2, d - 1, -1):
            for j, r in enumerate(top):
                prod[k - d + j] += prod[k] * r
        return FractionElement(self.field, prod[:d])

    __rmul__ = __mul__

    def matrix_rows(self):
        """Rows of the multiplication matrix: row k is a^k * self."""
        gen = FractionElement(self.field, [0, 1] + [0] * (self.field.degree - 2)) \
            if self.field.degree > 1 else self._other(-self.field.minpoly.coeffs[0])
        rows, x = [], self
        for _ in range(self.field.degree):
            rows.append(list(x.coeffs))
            x = x * gen
        return rows

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        d = self.field.degree
        cols = list(zip(*self.matrix_rows()))
        reduced, _ = fraction_rref([list(col) + [int(k == 0)]
                                    for k, col in enumerate(cols)], d + 1)
        return FractionElement(self.field, [row[d] for row in reduced])

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self._other(1)
        for _ in range(n):
            result = result * self
        return result


def fraction_row_sign(emb, elt):
    """RealEmbedding.sign through the route it replaced: the element's
    Fraction coordinates cleared as one QMatrix row."""
    _, (ints,) = QMatrix.from_rows([elt.coeffs]).integer_rows()
    return emb.integer_sign(ints)


def fraction_row_approx(emb, elt, eps):
    """RealEmbedding.approx through the route it replaced, as above."""
    eps = Fraction(eps)
    den, (ints,) = QMatrix.from_rows([elt.coeffs]).integer_rows()
    while True:
        lo, hi, scale = emb._bounds(ints)
        if (hi - lo) * eps.denominator < eps.numerator * den * scale:
            return Fraction(lo + hi, 2 * den * scale)
        emb._refine()


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
        elt = self.field.coerce(elt)
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
        elt = self.field.coerce(elt)
        eps = Fraction(eps)
        if eps <= 0:
            raise DomainError("eps must be positive")
        while True:
            lo, hi = self._interval_eval(elt.coeffs)
            if hi - lo < eps:
                return (lo + hi) / 2
            self._refine()


def fraction_period_lcm(lengths, permutation):
    """period_lcm as periodicity_report computed it before an exchange kept
    its integer columns: the lengths cleared over the lcm of their
    denominators into unit cells, each piece's cells sent to its slot in
    the rearranged order, and the lcm of the cycle lengths taken."""
    den = 1
    for x in lengths:
        den = den * x.denominator // gcd(den, x.denominator)
    cells = [x.numerator * (den // x.denominator) for x in lengths]
    by_slot = sorted(range(len(cells)), key=lambda i: permutation[i])
    sigma = {}
    for slot, i in enumerate(by_slot):
        start, image = sum(cells[:i]), sum(cells[j] for j in by_slot[:slot])
        sigma.update((start + c, image + c) for c in range(cells[i]))
    period, seen = 1, set()
    for j in sigma:
        length = 0
        while j not in seen:
            seen.add(j)
            j = sigma[j]
            length += 1
        if length:
            period = period * length // gcd(period, length)
    return period


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


def enclosure_keane_probe(T, max_steps):
    """minimality_probe's connection search as it stood before its step
    loop read the enclosures from flat lists: each step slices the cut
    enclosures and carries a taken vector as long as all the rows.  The
    same set-up, so it asks integer_sign the same questions in the same
    order.  The rank check and the step-count check are left to the
    caller."""
    emb = T.embedding
    den, rows = QMatrix.from_rows(
        [x.coeffs for x in T._cuts[1:] + T._shifts]).integer_rows()
    top = max(abs(c) for row in rows for c in row)
    emb.approx(T.field.gen(), Fraction(den, (max_steps + 1) ** 3 * top))
    boxes = emb.enclosures(rows)
    m = len(T._cuts) - 1
    violations = []
    for start in range(m):
        # x = sum taken[i] * rows[i]: its start cut plus the shifts taken;
        # the cut itself is the left end of piece start + 1
        taken = [int(i == start) for i in range(len(rows))]
        lo, hi = boxes[start]
        index = start + 1
        for step in range(1, max_steps + 1):
            taken[m + index] += 1
            lo, hi = lo + boxes[m + index][0], hi + boxes[m + index][1]
            # one pass of signs serves both jobs: locating the piece that
            # holds x (cuts are increasing, so the index is the number of
            # interior cuts at or below x) and testing whether x IS a cut;
            # only an enclosure that overlaps the cut's needs the exact sign
            index = 0
            at_cut = None
            for j, (c_lo, c_hi) in enumerate(boxes[:m]):
                if lo > c_hi:
                    index += 1
                elif hi < c_lo:
                    break
                else:
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


# -- real-root isolation over Fractions ---------------------------------------------


def fraction_isolate_real_roots(p):
    """isolate_real_roots with the monic squarefree part and its Sturm
    chain from sympy over QQ and every sign from Fraction Horner: the same
    bisection points, so the intervals must agree exactly."""
    chain = [QPolynomial([Fraction(int(c.p), int(c.q))
                          for c in reversed(q.all_coeffs())])
             for q in sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                                  for c in reversed(p.coeffs)],
                                 sympy.Symbol("x"), domain="QQ").sturm()]
    p = chain[0]
    if p.degree < 1:
        return []

    def var(x):
        signs = [v > 0 for v in (q.evaluate(x) for q in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def interior_nonroot(lo, hi):
        for k in range(1, p.degree + 2):
            m = lo + (hi - lo) * Fraction(k, p.degree + 2)
            if p.evaluate(m) != 0:
                return m
        raise InternalInvariantError("no non-root cut point found")

    M = 1 + max(abs(c) for c in p.coeffs[:-1])
    out = []
    stack = [(-M, M, var(-M), var(M))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            out.append((lo, hi))
        elif vlo - vhi > 1:
            mid = interior_nonroot(lo, hi)
            vm = var(mid)
            stack.append((lo, mid, vlo, vm))
            stack.append((mid, hi, vm, vhi))
    return sorted(out)


# -- number fields --------------------------------------------------------------------


def horner_from_poly(field, p):
    """NumberField.from_poly as Horner's rule in K: one field product by
    the generator and one rational sum per coefficient."""
    acc, gen = field.from_rational(0), field.gen()
    for c in reversed(p.coeffs):
        acc = acc * gen + c
    return acc
