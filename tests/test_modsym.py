import random
from fractions import Fraction
from math import gcd

import pytest

from modfol.arith import is_prime
from modfol.congruence import P1Space, curve_data
from modfol.eigen import _plus_hecke_matrix
from modfol.errors import DimensionError, DomainError, InternalInvariantError
from modfol.linalg import QMatrix
from modfol import modsym
from modfol.modsym import ModularSymbolSpace, _lift_canonical

from oracles import (boundary_walk_failures, cuspidal_basis,
                     greedy_homology_generators, mat_mul, moebius_apply,
                     random_gamma0_element, relation_quotient,
                     span_coordinates)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


@pytest.fixture(scope="module")
def spaces():
    return {N: ModularSymbolSpace(N) for N in (2, 11, 23, 37)}


class TestDimensions:
    def test_dimension_formula_sweep(self):
        for N in range(1, 41):
            space = ModularSymbolSpace(N)
            data = curve_data(N)
            assert space.dim == 2 * data["genus"] + data["nu_inf"] - 1, N
            assert space.cuspidal_dim == 2 * data["genus"], N

    def test_golden_dimensions(self, spaces):
        assert spaces[2].dim == 1 and spaces[2].cuspidal_dim == 0
        assert spaces[11].dim == 3 and spaces[11].cuspidal_dim == 2
        assert spaces[23].dim == 5 and spaces[23].cuspidal_dim == 4
        assert spaces[37].dim == 5 and spaces[37].cuspidal_dim == 4


class TestPaths:
    def rand_point(self, rng):
        if rng.random() < 0.15:
            return None
        return Fraction(rng.randint(-12, 12), rng.randint(1, 12))

    def test_antisymmetry_and_concatenation(self, spaces):
        rng = random.Random(50)
        for N, space in spaces.items():
            for _ in range(12):
                x, y, z = (self.rand_point(rng) for _ in range(3))
                assert space.path(x, y) == vec_neg(space.path(y, x))
                assert vec_add(space.path(x, y), space.path(y, z)) == \
                    space.path(x, z)
                assert space.path(x, x) == (0,) * space.dim

    def test_group_invariance(self, spaces):
        rng = random.Random(51)
        for N, space in spaces.items():
            for _ in range(12):
                x, y = self.rand_point(rng), self.rand_point(rng)
                gamma = random_gamma0_element(rng, N)
                gx = moebius_apply(gamma, x)
                gy = moebius_apply(gamma, y)
                assert space.path(gx, gy) == space.path(x, y), (N, gamma, x, y)

    def test_boundary_of_paths(self, spaces):
        from modfol.congruence import cusp_class_key
        rng = random.Random(52)
        for N, space in spaces.items():
            pos = {k: i for i, k in enumerate(space.cusp_keys)}
            for _ in range(12):
                x, y = self.rand_point(rng), self.rand_point(rng)
                b = space.boundary_of(space.path(x, y))
                expected = [Fraction(0)] * len(space.cusp_keys)

                def key_of(pt):
                    if pt is None:
                        return cusp_class_key((1, 0), N)
                    return cusp_class_key((pt.numerator, pt.denominator), N)

                expected[pos[key_of(y)]] += 1
                expected[pos[key_of(x)]] -= 1
                assert list(b) == expected

    def test_unreduced_endpoint_pairs(self, spaces):
        # the pair entry point accepts p/q with a common factor
        rng = random.Random(56)
        for space in spaces.values():
            for _ in range(12):
                x, y = self.rand_point(rng), self.rand_point(rng)
                k, m = rng.randint(1, 9), rng.randint(1, 9)
                px = None if x is None else (k * x.numerator, k * x.denominator)
                py = None if y is None else (m * y.numerator, m * y.denominator)
                assert space._path(px, py) == space.path(x, y)

    @pytest.mark.parametrize("endpoint", [
        0.1, float("inf"), float("nan"), "1/2"])
    def test_inexact_endpoints_are_refused(self, spaces, endpoint):
        for ends in ((endpoint, None), (Fraction(1, 3), endpoint)):
            with pytest.raises(DomainError, match="path endpoint"):
                spaces[11].path(*ends)

    def test_zero_to_infinity_nonzero(self, spaces):
        # the path 0 -> oo crosses distinct cusp classes at these levels
        for N in (2, 11, 23, 37):
            v = spaces[N].path(Fraction(0), None)
            assert any(x != 0 for x in v)
            assert not spaces[N].is_cuspidal(v)


class TestBoundaryCheck:
    @staticmethod
    def relations(N):
        """(sigma, tau): the s and t permutations of P^1(Z/N)."""
        p1 = P1Space(N)
        return ([p1.index(d, -c) for c, d in p1.reps],
                [p1.index(d, -c - d) for c, d in p1.reps])

    @staticmethod
    def verdicts(monkeypatch, N, lifts):
        """For each moved lift table: the relation certificate's error
        message (None when it passes, even if a later certificate such as
        the cuspidal dimension fails) and the per-symbol walk's failures,
        with modsym's lift replaced by one that reads the table first."""
        free, coords = relation_quotient(N)
        lift = modsym._lift_canonical
        out = []
        for moved in lifts:
            def patched(c, d):
                return moved.get((c, d)) or lift(c, d)

            monkeypatch.setattr(modsym, "_lift_canonical", patched)
            try:
                ModularSymbolSpace(N)
                message = None
            except InternalInvariantError as exc:
                message = str(exc)
                if not message.startswith("boundary map fails"):
                    message = None
            out.append((message, boundary_walk_failures(N, free, coords,
                                                        patched)))
        monkeypatch.undo()
        return out

    @pytest.mark.parametrize("N", [11, 37, 60, 97])
    def test_lift_from_another_coset_is_named(self, monkeypatch, N):
        # give one symbol at a time the lift of (c, c + d), from another
        # coset unless c = 0: it moves the end g.0 to g.1, so the certificate
        # rejects it at its two-term pair exactly when the walk does
        reps = P1Space(N).reps
        sigma, _ = self.relations(N)
        lifts = [{(c, d): _lift_canonical(c, c + d)} for c, d in reps]
        rejected = 0
        for bad, (message, walk) in enumerate(
                self.verdicts(monkeypatch, N, lifts)):
            assert (message is None) == (walk == []), (N, bad)
            if message is not None:
                rejected += 1
                assert message == (
                    "boundary map fails the two-term relation of symbol %d "
                    "at level %d" % (min(bad, sigma[bad]), N))
        assert 0 < rejected < len(reps)

    @pytest.mark.parametrize("N", [11, 37, 60, 97])
    def test_pair_moved_together_is_named(self, monkeypatch, N):
        # move a symbol and its two-term partner together, to g.T and
        # g.T.s with T = (1 1; 0 1): the pair's ends stay swapped, so only a
        # triangle of the three-term relations sees it, exactly when the
        # walk does
        reps = P1Space(N).reps
        sigma, tau = self.relations(N)
        pairs = [i for i in range(len(reps)) if sigma[i] != i]
        lifts = []
        for i in pairs:
            a, b, c, d = _lift_canonical(*reps[i])
            lifts.append({reps[i]: (a, a + b, c, c + d),
                          reps[sigma[i]]: (a + b, -a, c + d, -c)})
        rejected = 0
        for i, (message, walk) in zip(pairs, self.verdicts(monkeypatch, N,
                                                            lifts)):
            assert (message is None) == (walk == []), (N, i)
            if message is not None:
                rejected += 1
                first = min(min(x, tau[x], tau[tau[x]]) for x in (i, sigma[i]))
                assert message == (
                    "boundary map fails the three-term relation of symbol %d "
                    "at level %d" % (first, N))
        assert 0 < rejected < len(pairs)


class TestSpanningForest:
    @pytest.mark.parametrize("levels", [
        range(1, 121),
        pytest.param(range(121, 401), marks=pytest.mark.slow),
        pytest.param((997, 1000, 1999, 2000), marks=pytest.mark.slow)])
    def test_forest_matches_relation_elimination(self, levels):
        # the free symbols and every symbol's coordinates are those of the
        # echelon kernel of the dense three-term relation matrix
        for N in levels:
            space = ModularSymbolSpace(N)
            free, coords = relation_quotient(N)
            assert space.free_symbols == free, N
            assert space.symbol_matrix() == QMatrix.from_rows(coords), N
            # the certificate accepted; so does the per-symbol walk
            assert boundary_walk_failures(N, free, coords,
                                          _lift_canonical) == [], N

    @staticmethod
    def corrupt(monkeypatch, change):
        """Build through a _cycle_space whose rows ``change`` edits; returns
        the edited edge indices."""
        cycle_space = modsym._cycle_space
        edited = []

        def corrupted(n, edges):
            free, rows = cycle_space(n, edges)
            edited.append(change(edges, free, rows))
            return free, rows

        monkeypatch.setattr(modsym, "_cycle_space", corrupted)
        return edited

    @staticmethod
    def first_orbit_member(space, k):
        """The symbol that names the first three-term relation on edge k:
        the smallest member of the t-orbit of representative k or of its
        s-partner, whichever orbit comes first."""
        index, reps = space.p1.index, space.p1.reps
        sigma = [index(d, -c) for c, d in reps]
        tau = [index(d, -c - d) for c, d in reps]
        rep = [i for i in range(len(reps)) if sigma[i] > i][k]
        return min(min(x, tau[x], tau[tau[x]]) for x in (rep, sigma[rep]))

    @pytest.mark.parametrize("N", [11, 37, 60])
    def test_flipped_tree_edge_sign_is_named(self, monkeypatch, N):
        def flip(edges, free, rows):
            k, j = next((k, j) for k, row in enumerate(rows) if k not in free
                        for j, x in enumerate(row) if x)
            rows[k][j] = -rows[k][j]
            return k

        edited = self.corrupt(monkeypatch, flip)
        with pytest.raises(InternalInvariantError) as exc:
            ModularSymbolSpace(N)
        monkeypatch.undo()
        named = self.first_orbit_member(ModularSymbolSpace(N), edited[0])
        assert str(exc.value) == (
            "three-term relation of symbol %d fails at level %d" % (named, N))

    @pytest.mark.parametrize("N", [11, 37, 60])
    def test_changed_coordinate_is_named(self, monkeypatch, N):
        def bump(edges, free, rows):
            k = next(k for k in range(len(rows)) if k not in free)
            rows[k][-1] += 1
            return k

        edited = self.corrupt(monkeypatch, bump)
        with pytest.raises(InternalInvariantError) as exc:
            ModularSymbolSpace(N)
        monkeypatch.undo()
        named = self.first_orbit_member(ModularSymbolSpace(N), edited[0])
        assert str(exc.value) == (
            "three-term relation of symbol %d fails at level %d" % (named, N))

    def test_free_symbol_off_its_unit_vector_is_named(self, monkeypatch):
        # a loop edge's row enters no relation: only the unit-vector
        # certificate sees it change
        def bump(edges, free, rows):
            f = next(f for f in free if edges[f][0] == edges[f][1])
            rows[f][1] += 1
            return f

        edited = self.corrupt(monkeypatch, bump)
        with pytest.raises(InternalInvariantError) as exc:
            ModularSymbolSpace(37)
        monkeypatch.undo()
        p1 = ModularSymbolSpace(37).p1
        symbol = [i for i, (c, d) in enumerate(p1.reps)
                  if p1.index(d, -c) > i][edited[0]]
        assert str(exc.value) == (
            "free symbol %d is not a basis vector at level 37" % symbol)

    def test_missing_cycle_is_a_dimension_error(self, monkeypatch):
        # dropping the last fundamental cycle leaves coordinates that kill
        # every relation; only the dimension certificate sees it
        cycle_space = modsym._cycle_space

        def short(n, edges):
            free, rows = cycle_space(n, edges)
            return free[:-1], [row[:-1] for row in rows]

        monkeypatch.setattr(modsym, "_cycle_space", short)
        with pytest.raises(InternalInvariantError,
                           match="quotient dimension 4 != 2\\*genus "
                                 "\\+ cusps - 1 at level 37"):
            ModularSymbolSpace(37)


class TestIntegerCoordinates:
    @pytest.mark.parametrize("N", [11, 37, 97])
    def test_symbol_and_path_coordinates_are_ints(self, N):
        space = ModularSymbolSpace(N)
        vecs = [space.symbol_sum([i]) for i in range(len(space.p1))]
        assert space.symbol_matrix() == QMatrix.from_rows(vecs)
        for vec in vecs:
            assert len(vec) == space.dim
            assert all(type(x) is int for x in vec)
        # repeats count, and the empty sum is the zero vector
        assert space.symbol_sum([1, 2, 1]) == [
            2 * x + y for x, y in zip(vecs[1], vecs[2])]
        assert space.symbol_sum([]) == [0] * space.dim
        for x, y in ((Fraction(0), None), (Fraction(-3, 7), Fraction(5, 11)),
                     (None, Fraction(2 * N + 1, N))):
            assert all(type(v) is int for v in space.path(x, y))


class TestLift:
    def test_lift_is_sl2_over_the_canonical_row(self):
        for N in range(1, 61):
            for c, d in ModularSymbolSpace(N).p1.reps:
                a, b, cc, dd = _lift_canonical(c, d)
                assert a * dd - b * cc == 1, (N, c, d)
                assert (cc - c) % N == 0 and (dd - d) % N == 0, (N, c, d)


class TestLoops:
    def test_loop_class_is_homomorphism(self, spaces):
        rng = random.Random(53)
        for N, space in spaces.items():
            if space.cuspidal_dim == 0:
                continue
            for _ in range(10):
                g1 = random_gamma0_element(rng, N)
                g2 = random_gamma0_element(rng, N)
                lhs = space.loop_class(mat_mul(g1, g2))
                rhs = vec_add(space.loop_class(g1), space.loop_class(g2))
                assert lhs == rhs, (N, g1, g2)

    def test_parabolic_and_central_are_trivial(self, spaces):
        for N, space in spaces.items():
            zero = tuple([Fraction(0)] * space.cuspidal_dim)
            assert space.loop_class((1, 1, 0, 1)) == zero
            assert space.loop_class((-1, 0, 0, -1)) == zero
            assert space.loop_class((1, 0, N, 1)) is not None

    def test_rejects_outsiders(self, spaces):
        with pytest.raises(DomainError):
            spaces[11].loop_class((0, -1, 1, 0))

    def test_homology_generators(self):
        for N in (11, 14, 23, 37):
            space = ModularSymbolSpace(N)
            gens = space.homology_generators()
            assert len(gens) == space.cuspidal_dim
            rows = [list(coords) for _, coords in gens]
            if rows:
                assert QMatrix.from_rows(rows).rank() == space.cuspidal_dim
            for gamma, coords in gens:
                from modfol.congruence import gamma0_contains
                assert gamma0_contains(gamma, N)
                assert space.loop_class(gamma) == coords

    def test_genus_zero_generators_empty(self):
        assert ModularSymbolSpace(2).homology_generators() == []

    def test_loop_coordinates_are_integers(self, spaces):
        for space in spaces.values():
            for _, coords in space.homology_generators():
                assert {type(x) for x in coords} == {int}

    @pytest.mark.parametrize("levels", [
        range(1, 81),
        pytest.param(range(81, 201), marks=pytest.mark.slow),
        pytest.param((389,), marks=pytest.mark.slow)])
    def test_generators_match_per_candidate_sweep(self, levels):
        for N in levels:
            space = ModularSymbolSpace(N)
            assert (space.homology_generators()
                    == greedy_homology_generators(space)), N


class TestCuspidal:
    def test_express_roundtrip(self, spaces):
        rng = random.Random(54)
        for N, space in spaces.items():
            basis = cuspidal_basis(space)
            if not basis:
                continue
            for _ in range(8):
                coeffs = [Fraction(rng.randint(-4, 4)) for _ in basis]
                vec = tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                            for i in range(space.dim))
                assert list(space.express_cuspidal(vec)) == coeffs

    def test_express_rejects_noncuspidal(self, spaces):
        space = spaces[11]
        v = space.path(Fraction(0), None)
        with pytest.raises(DomainError):
            space.express_cuspidal(v)

    def test_express_rejects_wrong_length(self, spaces):
        for space in spaces.values():
            for length in (space.dim - 1, space.dim + 1):
                if length >= 0:
                    with pytest.raises(DimensionError):
                        space.express_cuspidal((0,) * length)

    def test_express_matches_exact_solve_for_every_level(self):
        rng = random.Random(55)
        for N in range(1, 61):
            space = ModularSymbolSpace(N)
            basis = cuspidal_basis(space)
            for _ in range(3):
                coeffs = [rng.randint(-5, 5) for _ in basis]
                vec = tuple(sum(c * b[i] for c, b in zip(coeffs, basis))
                            for i in range(space.dim))
                got = space.express_cuspidal(vec)
                assert list(got) == span_coordinates(basis, vec) == coeffs, N
            if N == 1:
                continue            # one cusp: every symbol is cuspidal
            # {0, oo} joins two inequivalent cusps, so it is not cuspidal
            noncuspidal = space.path(Fraction(0), None)
            assert span_coordinates(basis, noncuspidal) is None, N
            with pytest.raises(DomainError):
                space.express_cuspidal(noncuspidal)

    def test_restrict_rejects_operator_leaving_cuspidal(self, spaces):
        # op = I + v e_f^T, v = {0, oo} not cuspidal and f the first free
        # index, sends the first cuspidal basis vector b to b + v
        for N in (11, 23, 37):
            space = spaces[N]
            n = space.dim
            assert space.restrict_to_cuspidal(QMatrix.identity(n)) == \
                QMatrix.identity(space.cuspidal_dim)
            v = space.path(Fraction(0), None)
            basis = cuspidal_basis(space)
            unit = [1] + [0] * (len(basis) - 1)
            f = next(i for i in range(n) if [b[i] for b in basis] == unit)
            op = QMatrix.identity(n) + QMatrix(
                n, n, [v[i] if j == f else 0 for i in range(n) for j in range(n)])
            with pytest.raises(DomainError):
                space.restrict_to_cuspidal(op)


class TestAtkinLehner:
    @pytest.mark.parametrize("N, dims", [
        (11, (0, 1)), (37, (1, 1)), (389, (11, 21)),
        pytest.param(997, (38, 44), marks=pytest.mark.slow)])
    def test_eigenspace_dimensions(self, N, dims):
        W = ModularSymbolSpace(N).plus_atkin_lehner()
        plus = (W - QMatrix.identity(W.rows)).echelon_kernel()[0].cols
        assert (plus, W.rows - plus) == dims

    @pytest.mark.parametrize("levels", [
        range(11, 101),
        pytest.param(range(11, 398), marks=pytest.mark.slow)])
    def test_involution_commuting_with_t2_and_t3(self, levels):
        for N in filter(is_prime, levels):
            space = ModularSymbolSpace(N)
            W = space.plus_atkin_lehner()
            assert W * W == QMatrix.identity(space.genus), N
            for p in (2, 3):
                T = _plus_hecke_matrix(space, p)
                assert W * T == T * W, (N, p)
