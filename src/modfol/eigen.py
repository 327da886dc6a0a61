"""Hecke eigenform orbits: the cuspidal space split into Galois orbits.

The commuting Hecke operators act on the 2g-dimensional cuspidal space.
The star involution splits that space into two halves of dimension g,
and on the +1 half each eigensystem appears exactly once when the level
is prime.  The decomposition therefore refines the +1 half into joint
generalized eigenspaces of the supplied operators; a block is certified
to be a single orbit once the eigenvalue of some supplied prime has
minimal polynomial of degree equal to the block dimension, in which
case that polynomial defines the eigenvalue field K and the eigenvector
can be rescaled into K^g with first nonzero coordinate 1.

Composite levels can carry eigensystems repeated across copies coming
from lower levels; such systems cannot be separated by operators at
primes coprime to the level.  Blocks whose dimension exceeds the field
degree are therefore reported as one orbit with ``possibly_old=True``
and a multiplicity, after verifying that every supplied operator really
does act as a scalar on the chosen eigenvector.

All rational linear algebra is QMatrix arithmetic on integers over a
common denominator: a primary block is the kernel of f^m(T) for a factor
f^m of the characteristic polynomial, by Horner, held as an echelon
basis with its free rows, so that an operator's matrix on a block is one
checked product (QMatrix.restrict) and no system is solved; the
eigenvector of a new block comes from the adjugate of lam*I - T, with no
elimination over the eigenvalue field.
"""

from .arith import is_prime, next_prime
from .errors import (
    DimensionError,
    DomainError,
    InternalInvariantError,
    MultiplicityError,
    UndecidedSplitError,
)
from .hecke import cuspidal_hecke_matrix
from .linalg import QMatrix
from .numfield import NFElement, NumberField, nf_kernel
from .polys import QPolynomial, factor_poly, is_irreducible


class EigenformOrbit:
    """One Galois orbit of eigenforms at level N.

    Fields: the eigenvalue field ``field`` (of degree ``degree``), the
    ``defining_prime`` p* whose eigenvalue generates the field, that
    ``eigenvalue`` as the field generator, an ``eigenvector`` in the +1
    star eigenspace (length genus, first nonzero coordinate 1), and a
    ``coefficient_map`` of exactly verified eigenvalues per prime.
    ``multiplicity`` counts how often the eigensystem repeats inside its
    block (1 unless the level is composite and the system may come from
    a lower level, in which case ``possibly_old`` is set).
    """

    __slots__ = ("N", "field", "degree", "defining_prime", "eigenvalue",
                 "eigenvector", "coefficient_map", "multiplicity",
                 "possibly_old", "_series", "_embedded")

    def __init__(self, N, field, defining_prime, eigenvalue, eigenvector,
                 coefficient_map, multiplicity=1, possibly_old=False):
        self.N = N
        self.field = field
        self.degree = field.degree
        self.defining_prime = defining_prime
        self.eigenvalue = eigenvalue
        self.eigenvector = tuple(eigenvector)
        self.coefficient_map = dict(coefficient_map)
        self.multiplicity = multiplicity
        self.possibly_old = possibly_old
        self._series = None      # q-expansion cache, filled by periods
        self._embedded = {}      # numeric coefficient cache, keyed by digits

    def designated_embedding(self):
        """The real place used for all numeric work on this orbit.

        Fixed, deterministic choice: the smallest real root of the field's
        defining polynomial.  Other choices give Galois-conjugate forms with
        the same rational invariants.
        """
        return self.field.real_embeddings()[0]

    def __repr__(self):
        return ("EigenformOrbit(N=%d, degree=%d, defining_prime=%d%s)"
                % (self.N, self.degree, self.defining_prime,
                   ", possibly_old" if self.possibly_old else ""))


def eigen_field(poly):
    """Number field defined by a monic irreducible rational polynomial."""
    if not isinstance(poly, QPolynomial):
        raise DomainError("eigen_field expects a QPolynomial")
    if poly.degree < 1 or poly.coeffs[-1] != 1:
        raise DomainError("defining polynomial must be monic of degree >= 1")
    if not is_irreducible(poly):
        raise DomainError("defining polynomial is reducible")
    return NumberField(poly)


def rescale_eigenvector(T, lam):
    """The eigenvector of T for lam, normalised at its first nonzero entry.

    T is a square rational matrix; lam, an element of a number field K,
    must be an eigenvalue whose eigenspace over K is one-dimensional
    (equivalently rank(T - lam*I) = n - 1).  Returns the unique
    eigenvector x in K^n whose first nonzero coordinate equals 1, so the
    result is invariant under rescaling and canonical for the K-line.

    No elimination over K: with chi the characteristic polynomial of T and
    g = chi/(x - lam) in K[x], g(T) = adj(lam*I - T), which is nonzero
    exactly when rank(T - lam*I) = n - 1, and then every nonzero column
    is an eigenvector.  Column j is sum_k g_k T^k e_j, a K-combination of
    the Krylov vectors T^k e_j, which are rational, so its coordinates
    come from rational matrix products alone.
    """
    if T.rows != T.cols:
        raise DimensionError("rescale_eigenvector needs a square matrix")
    field = lam.field
    n = T.rows
    chi = T.charpoly()
    # synthetic division by x - lam; what is left over is chi(lam)
    g = [None] * n
    acc = field.one()
    for k in range(n - 1, -1, -1):
        g[k] = acc
        acc = acc * lam + chi[k]
    if not acc.is_zero():
        raise DomainError("value is not an eigenvalue of the matrix")
    # column j of g(T), by Horner on its n x d matrix of coordinates; the
    # integer rows of that matrix are a positive multiple of the column
    for j in range(n):
        col = QMatrix.zeros(n, field.degree)
        for gk in reversed(g):
            lift = [gk.coeffs if i == j else [0] * field.degree for i in range(n)]
            col = T * col + QMatrix.from_rows(lift)
        vec = [NFElement(field, r) for r in col.integer_rows()[1]]
        if any(vec):
            break
    else:
        raise MultiplicityError(
            "adj(lam*I - T) vanishes: rank(T - lam*I) < n - 1, so the "
            "eigenvalue is not simple")
    lead = next(i for i, x in enumerate(vec) if not x.is_zero())
    inv = vec[lead].inverse()
    out = tuple(x * inv for x in vec)
    if any(_row_dot(T, i, out, field) != lam * out[i] for i in range(n)):
        raise InternalInvariantError("rescaled vector is not an eigenvector")
    return out


def decompose(space, primes):
    """Split the cuspidal space of ``space`` into eigenform orbits.

    ``primes`` is a nonempty collection of primes not dividing the
    level.  Orbits come back sorted by field degree, then by the trace
    of the eigenvalue at the smallest supplied prime.  If two orbits
    agree at every supplied prime, an UndecidedSplitError names the next
    prime worth adding.
    """
    N = space.N
    ps = sorted({int(p) for p in primes})
    if not ps:
        raise DomainError("at least one prime is required")
    for p in ps:
        if not is_prime(p):
            raise DomainError("%d is not prime" % p)
        if N % p == 0:
            raise DomainError(
                "prime %d divides the level %d; orbit separation needs "
                "primes coprime to the level" % (p, N))
    if space.genus == 0:
        return []

    tplus = {p: plus_hecke_matrix(space, p) for p in ps}

    # a block is an echelon basis with its free rows; if B is the identity
    # at rows F and K at rows G, then B*K is the identity at rows F[G]
    blocks = [(QMatrix.identity(space.genus), list(range(space.genus)))]
    for p in ps:
        refined = []
        for block, free in blocks:
            mat = tplus[p].restrict(block, free)
            factors = factor_poly(QPolynomial(mat.charpoly()))
            if len(factors) == 1:
                refined.append((block, free))
                continue
            for poly, mult in factors:
                kernel, kfree = _poly_at_matrix(poly ** mult, mat).echelon_kernel()
                refined.append((block * kernel, [free[i] for i in kfree]))
        blocks = refined
    if sum(b.cols for b, _ in blocks) != space.genus:
        raise InternalInvariantError("primary blocks do not fill the +1 half")

    orbits = [_orbit_from_block(space, block, free, tplus, ps)
              for block, free in blocks]
    p0 = ps[0]
    orbits.sort(key=lambda o: (o.degree,
                               o.coefficient_map[p0].trace(),
                               o.field.minpoly.coeffs,
                               o.coefficient_map[p0].coeffs))
    return orbits


def auto_decompose(space, limit=25):
    """decompose() with automatic prime escalation.

    Starts from the smallest prime coprime to the level and, on every
    undecided split, adds the suggested next prime; once ``limit``
    primes have been tried the error propagates.
    """
    p = 2
    while space.N % p == 0:
        p = next_prime(p)
    ps = [p]
    while True:
        try:
            return decompose(space, ps)
        except UndecidedSplitError as err:
            if len(ps) >= limit or err.next_prime is None:
                raise
            ps.append(err.next_prime)


def plus_basis_matrix(space):
    """Columns: basis of the +1 star eigenspace, in cuspidal coordinates."""
    return space.plus_span()[0]


def plus_hecke_matrix(space, p):
    """Hecke operator at p restricted to the +1 star eigenspace."""
    return cuspidal_hecke_matrix(space, p).restrict(*space.plus_span())


# -- internals ------------------------------------------------------------------


def _orbit_from_block(space, block, free, tplus, ps):
    dim = block.cols
    mats = {}
    charfac = {}
    defining = None
    for p in ps:
        mat = tplus[p].restrict(block, free)
        factors = factor_poly(QPolynomial(mat.charpoly()))
        if len(factors) != 1:
            raise InternalInvariantError("refined block must be primary")
        mats[p] = mat
        charfac[p] = factors[0][0]
        if defining is None and charfac[p].degree == dim:
            defining = p
    if defining is not None:
        field = NumberField(charfac[defining])
        local = rescale_eigenvector(mats[defining], field.gen())
        return _orbit(space, block, mats, ps, defining, local, 1)
    if is_prime(space.N):
        raise UndecidedSplitError(
            "a %d-dimensional block is not generated by any supplied "
            "eigenvalue; distinct orbits share all supplied primes -- "
            "try adding prime %d" % (dim, _next_split_prime(ps, space.N)),
            next_prime=_next_split_prime(ps, space.N))
    best = max(q.degree for q in charfac.values())
    p_star = min(p for p in ps if charfac[p].degree == best)
    field = NumberField(charfac[p_star])
    lam = field.gen()
    mult, rem = divmod(dim, field.degree)
    if rem != 0:
        raise InternalInvariantError("block dimension not a degree multiple")
    m = mats[p_star]
    rows = [[m[i, j] - lam if i == j else m[i, j] for j in range(dim)]
            for i in range(dim)]
    kernel = nf_kernel(field, rows)
    if not kernel:
        raise InternalInvariantError("field generator is not an eigenvalue")
    lead = next(x for x in kernel[0] if not x.is_zero())
    inv = lead.inverse()
    return _orbit(space, block, mats, ps, p_star, [x * inv for x in kernel[0]],
                  mult)


def _orbit(space, block, mats, ps, p_star, local, multiplicity):
    """The orbit of ``local``, an eigenvector of mats[p_star] in block
    coordinates with first nonzero entry 1, for the field generator.

    A block of multiplicity 1 was certified by p_star, so an operator that
    is not scalar on ``local`` is a bug; a larger block is possibly old, and
    there it means the supplied primes do not split its eigensystems.
    """
    field = local[0].field
    lam = field.gen()
    lead = next(i for i, x in enumerate(local) if not x.is_zero())
    coeffs = {}
    for p in ps:
        c = _scalar_action(mats[p], local, lead, field)
        if c is None and multiplicity == 1:
            raise InternalInvariantError("commuting operator is not scalar")
        if c is None:
            raise UndecidedSplitError(
                "block mixes eigensystems that agree at all supplied primes; "
                "try adding prime %d" % _next_split_prime(ps, space.N),
                next_prime=_next_split_prime(ps, space.N))
        coeffs[p] = c
    if coeffs[p_star] != lam:
        raise InternalInvariantError("defining operator lost its eigenvalue")
    vec = _lift_through(block, local, field)
    return EigenformOrbit(space.N, field, p_star, lam, vec, coeffs,
                          multiplicity=multiplicity,
                          possibly_old=multiplicity > 1)


def _scalar_action(mat, vec, lead, field):
    """The scalar c with mat*vec = c*vec, or None if vec is not eigen.

    ``vec`` must have vec[lead] = 1; entries of ``mat`` are rational.
    """
    image = [_row_dot(mat, i, vec, field) for i in range(mat.rows)]
    c = image[lead]
    for img, x in zip(image, vec):
        if img != c * x:
            return None
    return c


def _row_dot(mat, i, vec, field):
    total = field.zero()
    for j, x in enumerate(vec):
        a = mat[i, j]
        if a:
            total = total + a * x
    return total


def _lift_through(block, local, field):
    """Map block coordinates to ambient ones, renormalised to lead with 1.

    ``local`` is divided by the first nonzero entry of its lift, so the
    lift itself takes rational-by-field products only.
    """
    lifted = (_row_dot(block, i, local, field) for i in range(block.rows))
    inv = next(x for x in lifted if not x.is_zero()).inverse()
    local = [x * inv for x in local]
    return tuple(_row_dot(block, i, local, field) for i in range(block.rows))


def _poly_at_matrix(poly, mat):
    """poly(mat) by Horner."""
    out = QMatrix.zeros(mat.rows, mat.rows)
    ident = QMatrix.identity(mat.rows)
    for c in reversed(poly.coeffs):
        out = out * mat + ident.scale(c)
    return out


def _next_split_prime(ps, N):
    q = next_prime(ps[-1])
    while N % q == 0:
        q = next_prime(q)
    return q
