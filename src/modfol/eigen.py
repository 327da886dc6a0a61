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

At a prime level the split starts from the two eigenspaces of the
Atkin-Lehner involution W_N on the +1 half, not from one identity block.
W_N commutes with the star involution and every T_p, so each eigenspace
is a union of orbits (Atkin & Lehner, Math. Ann. 185, 1970), and every
charpoly and factorization after it is smaller.  W_N parts some orbits
that the supplied primes do not, so blocks that share their factor at
every supplied prime count as one block of their summed dimension: that
is the identity start's block, and the primes, the escalation and the
undecided error are the identity start's.  Composite levels keep the
identity start: W_N is not scalar on an old block, where the eigenspaces
would change the multiplicity.

Composite levels can carry eigensystems repeated across copies coming
from lower levels; such systems cannot be separated by operators at
primes coprime to the level.  Blocks whose dimension exceeds the field
degree are therefore reported as one orbit with ``possibly_old=True``
and a multiplicity, after verifying that every supplied operator really
does act as a scalar on the chosen eigenvector.

All rational linear algebra is QMatrix arithmetic on integers over a
common denominator.  A block whose operator has primary parts f_i^m_i
is cut into the last part and the rest, and only the side of lower
degree g is evaluated, by Paterson-Stockmeyer in about 2 sqrt(deg g)
products: ker g(T) is its block and the column span of g(T) the
other's, each an echelon basis with its free rows, so an operator's
matrix on a block is one checked product (QMatrix.restrict) and no
system is solved.  The primes are taken in turn: each one's operator is
built once, restricted to every block and factored there, and the parts
of a block inherit its operators, restricted to them, and its factors.
So when no prime decides a block, decompose can add the prime the error
names and resume on the blocks it has, which gives what a run with the
longer prime list would.  A block hands its operators and irreducible
factors on to its orbit, and every eigenvector over K, the orbit's and
its dual (dual_eigenvector, on transposes), is column 0 of adj(a*I - T)
by one Horner recurrence on integer vectors with no arithmetic in K.

A vector over K is held as an n x d QMatrix whose rows are power-basis
coordinates: a rational operator acts by one product on the left and a
scalar c of K by one product on the right with c.matrix().  An orbit's
eigenvector is normalised on its block, at its first nonzero entry on
the +1 half, certified there and lifted once, and it becomes a tuple of
NFElements only in the result.
"""

from itertools import groupby
from math import isqrt, prod

from .arith import _as_int, is_prime, next_prime
from .errors import (
    DimensionError,
    DomainError,
    InternalInvariantError,
    MultiplicityError,
    UndecidedSplitError,
)
from .hecke import hecke_matrix
from .linalg import QMatrix
from .numfield import NumberField, leading_entry
from .polys import QPolynomial, factor_poly

# primes decompose picks before an undecided split propagates
PRIME_LIMIT = 25


class EigenformOrbit:
    """One Galois orbit of eigenforms at level N: the record of decompose.

    Fields: the eigenvalue field ``field`` (of degree ``degree``), the
    ``defining_prime`` p* whose eigenvalue generates the field, that
    ``eigenvalue`` as the field generator, an ``eigenvector`` in the +1
    star eigenspace (length genus, first nonzero coordinate 1), and a
    ``coefficient_map`` of exactly verified eigenvalues per prime.
    ``multiplicity`` counts how often the eigensystem repeats inside its
    block (1 unless the level is composite and the system may come from
    a lower level, in which case ``possibly_old`` is set).  periods keeps
    its own data per orbit, under a weak reference, and changes no field.
    """

    __slots__ = ("N", "field", "degree", "defining_prime", "eigenvalue",
                 "eigenvector", "coefficient_map", "multiplicity",
                 "possibly_old", "__weakref__")

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

    def __repr__(self):
        return ("EigenformOrbit(N=%d, degree=%d, defining_prime=%d%s)"
                % (self.N, self.degree, self.defining_prime,
                   ", possibly_old" if self.possibly_old else ""))


def rescale_eigenvector(T, lam):
    """The eigenvector of T for lam, normalised at its first nonzero entry.

    T is a square rational matrix; lam, an element of a number field K,
    must be an eigenvalue whose eigenspace over K is one-dimensional
    (equivalently rank(T - lam*I) = n - 1).  Returns the unique
    eigenvector x in K^n whose first nonzero coordinate equals 1, so the
    result is invariant under rescaling and canonical for the K-line.

    With f the minimal polynomial of lam, the vector comes from T on its
    block ker f(T) by _adjugate_column, over Q(a) for a root a of f, and
    a -> lam maps it into K, which lam need not generate.  It is held as
    its n x d coordinate matrix X, so T*x is T*X and lam*x is
    X*lam.matrix(); it is divided by its leading entry once and checked
    exactly before it is returned as elements.
    """
    if T.rows != T.cols:
        raise DimensionError("rescale_eigenvector needs a square matrix")
    field = lam.field
    ((f, _),) = factor_poly(QPolynomial(lam.matrix().charpoly()))
    block, free = _poly_at_matrix(f, T).echelon_kernel()
    if block.cols == 0:
        raise DomainError("value is not an eigenvalue of the matrix")
    if block.cols > f.degree:
        raise MultiplicityError("the eigenspace has dimension above 1")
    powers = QMatrix.from_rows([(lam ** k).coeffs for k in range(f.degree)])
    X = block * _adjugate_column(T.restrict(block, free), f.coeffs) * powers
    X = X * leading_entry(X, field)[1].inverse().matrix()
    if T * X != X * lam.matrix():
        raise InternalInvariantError("rescaled vector is not an eigenvector")
    return _elements(X, field)


def decompose(space, primes=None):
    """Split the cuspidal space of ``space`` into eigenform orbits.

    ``primes`` is a nonempty collection of primes not dividing the
    level.  Orbits come back sorted by field degree, then by the trace
    of the eigenvalue at the smallest prime.  If two orbits agree at
    every supplied prime, an UndecidedSplitError names the next prime
    worth adding, also where W_N parts them.  With primes=None the split
    starts at the smallest prime coprime to the level and, up to
    PRIME_LIMIT primes, adds that next prime and resumes on the blocks it
    has.  At a prime level the +1 half starts as the eigenspaces of W_N,
    which is checked to square to 1 on every call.
    """
    N = space.N
    ps = ([_next_split_prime([1], N)] if primes is None
          else sorted({_as_int(p, "primes") for p in primes}))
    if not ps:
        raise DomainError("at least one prime is required")
    for p in ps:
        if not is_prime(p):
            raise DomainError("%d is not prime" % p)
        if N % p == 0:
            raise DomainError(
                "prime %d divides the level %d; orbit separation needs "
                "primes coprime to the level" % (p, N))
    g = space.genus
    if g == 0:
        return []

    prime = is_prime(N)
    blocks = (_atkin_lehner_blocks(space) if prime
              else [(QMatrix.identity(g), list(range(g)), {}, {})])
    while True:
        # every block has factors at the same leading primes of ps
        for p in ps[len(blocks[0][3]):]:
            blocks = _primary_blocks(blocks, p, _plus_hecke_matrix(space, p))
        try:
            if prime:
                blocks = _decided_in_identity_order(N, ps, blocks)
            orbits = [_orbit_from_block(space, ps, block, mats, factors)
                      for block, _, mats, factors in blocks]
            break
        except UndecidedSplitError as err:
            if primes is not None or len(ps) >= PRIME_LIMIT:
                raise
            ps.append(err.next_prime)
    if sum(b.cols for b, _, _, _ in blocks) != g:
        raise InternalInvariantError("primary blocks do not fill the +1 half")
    p0 = ps[0]
    orbits.sort(key=lambda o: (o.degree,
                               o.coefficient_map[p0].trace(),
                               o.field.minpoly.coeffs,
                               o.coefficient_map[p0].coeffs))
    return orbits


def _plus_hecke_matrix(space, p):
    """Hecke operator at p restricted to the +1 star eigenspace."""
    return hecke_matrix(space, p).restrict(*space.plus_span())


def dual_eigenvector(space, orbit):
    """w+: the n x d coordinate matrix W over K, on the full symbol
    quotient, with T_p^T W = W c_p at every verified prime and S^T W = W,
    of a certainly-new orbit.  The +1 part of S^T holds each new dual
    block once; B, its part where f(T_p*^T) = 0 for f the minimal
    polynomial of K (no Eisenstein system's: |a_p| <= 2 sqrt(p) < p + 1),
    is cut while above dimension d by the next verified prime q, to its
    part where T_q^T has the characteristic polynomial of c_q.  Then w+ is
    _adjugate_column of T_p*^T on B."""
    K, p_star = orbit.field, orbit.defining_prime
    f, d = K.minpoly, K.degree
    star = space.star_matrix().transpose()
    basis, free = (star - QMatrix.identity(star.rows)).echelon_kernel()
    T = hecke_matrix(space, p_star).transpose()
    basis, free = _kernel_part(basis, free, T, f)
    for q in sorted(orbit.coefficient_map.keys() - {p_star}):
        if basis.cols <= d:
            break
        c = QPolynomial(orbit.coefficient_map[q].matrix().charpoly())
        basis, free = _kernel_part(basis, free,
                                   hecke_matrix(space, q).transpose(), c)
    if basis.cols != d:
        raise InternalInvariantError("dual block of dimension %d at degree %d"
                                     % (basis.cols, d))
    return basis * _adjugate_column(T.restrict(basis, free), f.coeffs)


# -- internals ------------------------------------------------------------------


def _atkin_lehner_blocks(space):
    """The +1 half at a prime level as the nonzero eigenspaces of W_N.

    They are the kernel and the column span of W - 1, as _split takes
    them, once W*W = 1 is checked, one g x g product.  W_N's commutation
    with each T_p needs no check of its own: _primary_blocks restricts T_p
    to every block, and QMatrix.restrict raises unless the block is
    invariant, which both eigenspaces are exactly when T_p commutes with W.
    """
    W = space.plus_atkin_lehner()
    ident = QMatrix.identity(W.rows)
    if W * W != ident:
        raise InternalInvariantError(
            "W_N does not square to 1 at level %d" % space.N)
    image = W - ident
    return [(basis, free, {}, {})
            for basis, free in (image.echelon_kernel(), image.echelon_span())
            if basis.cols]


def _decided_in_identity_order(N, ps, blocks):
    """The blocks at a prime level N in the order the identity start gives
    them, once each is certified to be an orbit.

    The identity start cuts the +1 half at each prime of ps in turn into
    parts in factor_poly's order, so its blocks come in the order of their
    factors at ps, and its block for a tuple of factors is the sum of the
    W_N blocks that have them.  Each eigensystem appears once in the +1
    half, so a block of that sum is an orbit when some supplied eigenvalue
    has its dimension as degree; the first that is not raises the
    UndecidedSplitError the identity start would, with the same message.
    """
    def factors_at_ps(block):
        return [(block[3][p].degree, block[3][p].coeffs) for p in ps]

    blocks = sorted(blocks, key=factors_at_ps)
    for key, group in groupby(blocks, factors_at_ps):
        dim = sum(block.cols for block, _, _, _ in group)
        if all(degree != dim for degree, _ in key):
            q = _next_split_prime(ps, N)
            raise UndecidedSplitError(
                "a %d-dimensional block is not generated by any supplied "
                "eigenvalue; distinct orbits share all supplied primes -- "
                "try adding prime %d" % (dim, q), next_prime=q)
    return blocks


def _primary_blocks(blocks, p, T):
    """Each (block, free, mats, factors) of ``blocks`` cut, in order, into
    the primary blocks of T, the operator at p on the +1 half.

    ``block`` is an echelon basis, the identity at the last rows ``free``
    onto which its span projects isomorphically: if B is that at rows F and
    K at rows G, so is B*K at rows F[G], and a part split off in steps has
    the basis it would have in one.  ``mats`` holds the operators on the
    block and ``factors`` the irreducible factors of their characteristic
    polynomials.  T is restricted to each block and factored there, and
    each part inherits the operators, restricted to it, and the factors.
    """
    out = []
    for block, free, mats, factors in blocks:
        mats = {**mats, p: T.restrict(block, free)}
        found = factor_poly(QPolynomial(mats[p].charpoly()))
        out.extend(_split(mats, p, block, free, factors, found))
    return out


def _split(mats, p, block, free, factors, parts):
    """The blocks of the primary parts (f, m) of the operator at p, in
    order, split as the module docstring says, with no new factoring."""
    if len(parts) == 1:
        yield block, free, mats, {**factors, p: parts[0][0]}
        return
    sides = (parts[:-1], parts[-1:])
    degrees = [sum(m * f.degree for f, m in side) for side in sides]
    low = int(degrees[1] < degrees[0])
    image = _poly_at_matrix(prod(f ** m for f, m in sides[low]), mats[p])
    bases = image.echelon_kernel(), image.echelon_span()
    for side, (sub, rows) in zip(sides, bases[low:] + bases[:low]):
        yield from _split({q: m.restrict(sub, rows) for q, m in mats.items()},
                          p, block * sub, [free[i] for i in rows], factors,
                          side)


def _orbit_from_block(space, ps, block, mats, factors):
    """The orbit of one primary block, from its operators and factors.

    The eigenvector is _adjugate_column of the operator and factor f at
    p_star, the least prime of largest factor degree; on a possibly-old
    block T_p is semisimple (p does not divide the level), so f(T) = 0 and
    it is one K-eigenvector of the block.  It is normalised in block
    coordinates, divided by its first nonzero ambient entry, which
    block.row(lead) * local gives for the first row ``lead`` where that
    is nonzero, and lifted once, to block * local, at the end.  Each
    operator is certified on the block, mats[p] * local == local *
    c.matrix(), with c read off block.row(lead) times mats[p] * local:
    block has full column rank, so that is the check on the +1 half.  A
    block of multiplicity 1 is certified by p_star, so an operator that is
    not scalar there is a bug; on a larger block the supplied primes do
    not split its eigensystems.  At a prime level
    _decided_in_identity_order has found p_star for every block.
    """
    best = max(q.degree for q in factors.values())
    p_star = min(p for p in ps if factors[p].degree == best)
    # factor_poly has just returned every factor as irreducible, so the
    # field skips NumberField's own irreducibility check
    field = NumberField(factors[p_star], check=False)
    local = _adjugate_column(mats[p_star], factors[p_star].coeffs)
    mult, rem = divmod(block.cols, field.degree)
    if rem != 0:
        raise InternalInvariantError("block dimension not a degree multiple")

    lam = field.gen()
    at_lead = _leading_row(block, local)
    x = _elements(at_lead * local, field)[0]
    local = local * x.inverse().matrix()
    coeffs = {}
    for p in ps:
        image = mats[p] * local
        c = _elements(at_lead * image, field)[0]
        if image != local * c.matrix():
            if mult == 1:
                raise InternalInvariantError("commuting operator is not scalar")
            q = _next_split_prime(ps, space.N)
            raise UndecidedSplitError(
                "block mixes eigensystems that agree at all supplied primes; "
                "try adding prime %d" % q, next_prime=q)
        coeffs[p] = c
    if coeffs[p_star] != lam:
        raise InternalInvariantError("defining operator lost its eigenvalue")
    return EigenformOrbit(space.N, field, p_star, lam,
                          _elements(block * local, field), coeffs,
                          multiplicity=mult, possibly_old=mult > 1)


def _leading_row(block, local):
    """R, row i of block as a 1 x k matrix, for the first nonzero row i of
    block * local, tried a row at a time: R * M is row i of block * M."""
    den, rows = block.integer_rows()
    for row in rows:
        lead = QMatrix.from_integer_rows(den, [row])
        if not (lead * local).is_zero():
            return lead
    raise InternalInvariantError("the eigenvector lifts to zero")


def _adjugate_column(T, f):
    """Column 0 of adj(a*I - T), as its n x d coordinate matrix over Q(a).

    f (ascending, degree d) is irreducible with root a and f(T) = 0: T's
    characteristic polynomial, or its minimal one.  With h_(d-1) = 1 and
    h_i = x*h_(i+1) + f_(i+1), sum_i a^i h_i(x) = (f(x) - f(a))/(x - a):
    coordinate i of the column is h_i(T) e_0, one Horner recurrence on
    integer vectors over one denominator (QMatrix.horner_columns), with
    no arithmetic in Q(a).  (T - a) times it is f(T) e_0 = 0, and it is
    never zero: its coordinate d - 1 is e_0.
    """
    X = T.horner_columns(f)
    if X.is_zero():
        raise InternalInvariantError("adj(a*I - T) has a zero first column")
    return X


def _kernel_part(basis, free, T, poly):
    """The part of an echelon basis's span where poly(T) = 0, as _split."""
    sub, rows = _poly_at_matrix(poly, T.restrict(basis, free)).echelon_kernel()
    return basis * sub, [free[i] for i in rows]


def _elements(X, field):
    den, rows = X.integer_rows()
    return tuple(field.from_integers(den, row) for row in rows)


def _poly_at_matrix(poly, mat):
    """poly(mat) by Paterson-Stockmeyer: Horner in mat^s, s the root of
    the degree, on chunks of s coefficients, each a combination of the
    powers mat^i, i < s: about 2 s products, where Horner takes s^2."""
    coeffs, out = poly.coeffs, QMatrix.zeros(mat.rows, mat.rows)
    powers = [QMatrix.identity(mat.rows)]
    for _ in range(isqrt(len(coeffs) - 1) or 1):
        powers.append(powers[-1] * mat)
    s = len(powers) - 1
    for j in reversed(range(0, len(coeffs), s)):
        out = out * powers[s] + sum(
            (x.scale(c) for x, c in zip(powers, coeffs[j:j + s])),
            QMatrix.zeros(mat.rows, mat.rows))
    return out


def _next_split_prime(ps, N):
    q = next_prime(ps[-1])
    while N % q == 0:
        q = next_prime(q)
    return q
