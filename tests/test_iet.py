"""Exact interval exchanges: application, periodicity, Keane probe, Rauzy."""

import contextlib
import io
import itertools
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from modfol.cli import main
from modfol.errors import DegenerateStepError, DomainError, WrongCaseError
from modfol.foliation import JacobianModule, module_rank
from modfol.iet import (
    IET,
    iet_apply,
    minimality_probe,
    periodicity_report,
    rauzy_step,
)
from modfol.numfield import NumberField, RealEmbedding
from modfol.polys import QPolynomial, parse_poly

from oracles import enclosure_keane_probe, fraction_keane_probe

GOLDEN = NumberField(QPolynomial([-1, -1, 1]))    # x^2 - x - 1
PHI = GOLDEN.gen()


def golden_iet():
    return IET([GOLDEN.from_rational(1), PHI], [2, 1])


def irreducible_permutations(k):
    out = []
    for perm in itertools.permutations(range(1, k + 1)):
        if all(max(perm[:j]) > j for j in range(1, k)):
            out.append(perm)
    return out


def random_rational_iet(rng, max_parts=4, max_den=12):
    k = rng.randrange(2, max_parts + 1)
    den = rng.randrange(2, max_den + 1)
    counts = [rng.randrange(1, 4) for _ in range(k)]
    lengths = [Fraction(c, den) for c in counts]
    perm = rng.choice(irreducible_permutations(k))
    return IET(lengths, perm)


# -- construction and application -------------------------------------------------------


def test_apply_golden_examples():
    assert iet_apply(IET([Fraction(1, 2), Fraction(1, 2)], [2, 1]),
                     Fraction(1, 4)) == Fraction(3, 4)
    assert iet_apply(IET([Fraction(1, 3), Fraction(2, 3)], [2, 1]),
                     0) == Fraction(2, 3)
    assert iet_apply(golden_iet(), 0) == PHI


def test_apply_domain_checks():
    T = IET([Fraction(1, 2), Fraction(1, 2)], [2, 1])
    with pytest.raises(DomainError):
        iet_apply(T, Fraction(-1, 10))
    with pytest.raises(DomainError):
        iet_apply(T, 1)     # right endpoint excluded
    # floats are not exact, and the message names the point
    point = r"^a point must be exact \(Fraction, int, or number field " \
            r"element\), not float$"
    with pytest.raises(DomainError, match=point):
        iet_apply(T, 0.25)
    with pytest.raises(DomainError, match=point):
        golden_iet().coerce(0.25)
    with pytest.raises(DomainError):
        iet_apply(T, PHI)   # point from a field, exchange is rational


def test_constructor_validation():
    with pytest.raises(DomainError):
        IET([Fraction(1, 2), Fraction(1, 2)], [1, 2])      # reducible
    with pytest.raises(DomainError):
        IET([Fraction(1, 3)] * 3, [3, 2, 1][:2] + [4])     # not a bijection
    with pytest.raises(DomainError):
        IET([Fraction(1, 2)], [2, 1])                      # count mismatch
    with pytest.raises(DomainError):
        IET([Fraction(0), Fraction(1)], [2, 1])            # zero length
    for lengths in ([Fraction(1, 2), 0.5], [PHI, 0.5]):    # float length
        with pytest.raises(DomainError, match=r"^lengths must be exact \("):
            IET(lengths, [2, 1])
    with pytest.raises(DomainError):
        IET([Fraction(1), Fraction(2)], [2, 1],
            embedding=GOLDEN.real_embeddings()[0])         # needless embedding
    other = NumberField(QPolynomial([-2, 0, 1]))           # x^2 - 2
    with pytest.raises(DomainError):
        IET([PHI, other.gen()], [2, 1])                    # mixed fields
    with pytest.raises(DomainError):
        IET([PHI, GOLDEN.from_rational(1)], [2, 1],
            embedding=other.real_embeddings()[0])          # foreign embedding
    with pytest.raises(DomainError):
        IET([], [])


@pytest.mark.parametrize("perm", [[2.5, 1], ["2", 1], [2, True]])
def test_permutation_entries_must_be_ints(perm):
    # int() read each of these as the exchange (2, 1)
    with pytest.raises(DomainError, match="permutation entries must be int"):
        IET([1, 2], perm)


def test_reducible_prefix_is_named():
    # the smallest invariant prefix {1..j}, as max(perm[:j]) == j finds it
    for perm in itertools.permutations(range(1, 6)):
        js = [j for j in range(1, 5) if max(perm[:j]) == j]
        if js:
            with pytest.raises(DomainError, match=r"\{1\.\.%d\}" % js[0]):
                IET([1] * 5, perm)
        else:
            IET([1] * 5, perm)


def test_construction_is_linear_in_the_interval_count():
    # the faster of two builds: the machine's speed drifts between runs,
    # and a quadratic build of 100,000 intervals takes minutes
    k, times = 100000, []
    for _ in range(2):
        start = time.process_time()
        T = IET([1] * k, range(k, 0, -1))
        times.append(time.process_time() - start)
    assert min(times) < 2.0
    assert T._shifts[:3] == (k - 1, k - 3, k - 5) and T._shifts[-1] == 1 - k


def test_cuts_and_shifts_are_the_sums_of_lengths():
    # the integer columns store what sums of the lengths give: the cuts,
    # the total, and each piece's image start minus its cut
    rng = random.Random(3605)
    cubic = NumberField(parse_poly("x^3 - x - 1"))
    for _ in range(60):
        k = rng.randint(1, 5)
        perm = rng.choice(irreducible_permutations(k))
        if rng.random() < 0.5:
            lengths = [Fraction(rng.randint(1, 40), rng.randint(1, 12))
                       for _ in range(k)]
            zero = Fraction(0)
        else:
            K = rng.choice((GOLDEN, cubic))
            place = K.real_embeddings()[-1]
            lengths = []
            while len(lengths) < k:
                x = K.element([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(K.degree)])
                if place.sign(x) > 0:
                    lengths.append(x)
            zero = K.from_rational(0)
        T = IET(lengths, perm)
        cuts = list(itertools.accumulate(lengths, initial=zero))
        assert T.total == cuts.pop()
        assert T._cuts == tuple(cuts)
        slots = sorted(range(k), key=lambda i: perm[i])
        starts = dict(zip(slots, itertools.accumulate(
            (lengths[i] for i in slots), initial=zero)))
        assert T._shifts == tuple(starts[i] - c for i, c in enumerate(cuts))
        assert all(type(x) is type(zero) for x in T._cuts + T._shifts)


def test_equal_fields_are_one_field():
    # two separately built copies of Q(phi) are one field; Q(sqrt 2) is not
    K1, K2 = (NumberField(QPolynomial([-1, -1, 1])) for _ in range(2))
    assert K1 is not K2
    T = IET([K1.one(), K2.gen()], [2, 1])
    assert T.coerce(K2.gen()) == K1.gen()
    assert iet_apply(T, K2.from_rational(0)) == K1.gen()
    assert IET([K1.one(), K1.gen()], [2, 1],
               embedding=K2.real_embeddings()[-1]).total == K2.gen() + 1
    other = NumberField(QPolynomial([-2, 0, 1]))
    with pytest.raises(DomainError, match="distinct number fields"):
        IET([K1.one(), other.gen()], [2, 1])
    with pytest.raises(DomainError, match="different field"):
        T.coerce(other.gen())


def test_negative_field_length_rejected():
    # under the default (largest) embedding the generator is positive, but
    # its Galois mate is negative: selecting the small root must fail
    small = GOLDEN.real_embeddings()[0]
    with pytest.raises(DomainError):
        IET([GOLDEN.from_rational(1), PHI], [2, 1], embedding=small)


def test_single_interval_is_identity():
    T = IET([Fraction(3, 4)], [1])
    assert iet_apply(T, Fraction(1, 5)) == Fraction(1, 5)
    assert periodicity_report(T) == {"periodic": True, "period_lcm": 1}


def test_repr_mentions_shape():
    assert "k=2" in repr(golden_iet())


def test_images_tile_interval():
    rng = random.Random(5)
    for _ in range(30):
        T = random_rational_iet(rng)
        pieces = sorted((T._cuts[i] + T._shifts[i], T.lengths[i])
                        for i in range(len(T.lengths)))
        at = Fraction(0)
        for start, length in pieces:
            assert start == at
            at += length
        assert at == T.total


# -- rational periodicity ---------------------------------------------------------------


def test_periodicity_golden_examples():
    assert periodicity_report(
        IET([Fraction(1, 2), Fraction(1, 2)], [2, 1]))["period_lcm"] == 2
    assert periodicity_report(
        IET([Fraction(1, 3), Fraction(2, 3)], [2, 1]))["period_lcm"] == 3
    six = IET([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)], [3, 1, 2])
    report = periodicity_report(six)
    assert report == {"periodic": True, "period_lcm": 2}
    # the certified period really is a period of the whole map
    for x in (Fraction(0), Fraction(1, 4), Fraction(5, 6), Fraction(17, 36)):
        y = x
        for _ in range(report["period_lcm"]):
            y = iet_apply(six, y)
        assert y == x


def test_periodicity_wrong_case():
    with pytest.raises(WrongCaseError):
        periodicity_report(golden_iet())


def test_periodicity_is_sharp_on_random_exchanges():
    rng = random.Random(13)
    for _ in range(25):
        T = random_rational_iet(rng)
        report = periodicity_report(T)
        assert report["periodic"] is True
        period = report["period_lcm"]
        den = 1
        for x in T.lengths:
            den = den * x.denominator // __import__("math").gcd(
                den, x.denominator)
        points = [Fraction(2 * j + 1, 2 * den)
                  for j in range(int(T.total * den))]
        for x in points:
            y = x
            for _ in range(period):
                y = iet_apply(T, y)
            assert y == x
        for p in {f for f in (2, 3, 5, 7, 11) if period % f == 0}:
            shorter = period // p
            moved = False
            for x in points:
                y = x
                for _ in range(shorter):
                    y = iet_apply(T, y)
                if y != x:
                    moved = True
                    break
            assert moved, "certified period was not minimal"


# -- Keane connection probe ---------------------------------------------------------------


def test_minimality_golden_exchange():
    report = minimality_probe(golden_iet(), 10 ** 5)
    assert report == {"no_periodic_orbit_found": True, "keane_violations": []}


def test_minimality_three_intervals():
    T = IET([GOLDEN.from_rational(1), PHI, PHI * PHI], [3, 1, 2])
    report = minimality_probe(T, 10 ** 4)
    assert report["no_periodic_orbit_found"] is True
    assert report["keane_violations"] == []


def test_minimality_detects_connections():
    T = IET([PHI, GOLDEN.from_rational(1), PHI], [3, 2, 1])
    report = minimality_probe(T, 50)
    assert report["no_periodic_orbit_found"] is False
    assert report["keane_violations"] == [
        {"discontinuity": 1, "after_steps": 1, "hits": 1},
        {"discontinuity": 2, "after_steps": 2, "hits": 2},
    ]


def _field_iet(field, coords, perm):
    """The exchange with permutation perm whose lengths have the given
    power-basis coordinates, each made positive under the largest real
    place (a zero becomes 1)."""
    emb = field.real_embeddings()[-1]
    lengths = []
    for c in coords:
        x = field.element(c)
        s = emb.sign(x)
        lengths.append(x if s > 0 else -x if s < 0 else field.one())
    return IET(lengths, perm)


def test_minimality_matches_fraction_oracle():
    cubic = NumberField(QPolynomial([-1, -1, 0, 1]))
    rng = random.Random(2009)
    cases = [(IET([PHI, GOLDEN.from_rational(1), PHI], [3, 2, 1]), 50)]
    while len(cases) < 13:
        K, k = rng.choice([GOLDEN, cubic]), rng.randint(2, 4)
        T = _field_iet(K, [[rng.randint(-2, 2) for _ in range(K.degree)]
                           for _ in range(k)],
                       rng.choice(irreducible_permutations(k)))
        if module_rank(JacobianModule(T.field, T.lengths)) >= 2:
            cases.append((T, 60))
    connected = 0
    for T, steps in cases:
        report = minimality_probe(T, steps)
        assert report == fraction_keane_probe(T, steps)
        connected += not report["no_periodic_orbit_found"]
    # both verdicts occur, so both branches of the loop are compared
    assert 0 < connected < len(cases)


def _count_exact_signs(monkeypatch, log=None):
    """A one-element list that counts RealEmbedding.integer_sign calls.
    With a list `log`, each call also appends (start, step, cut, ints):
    the orbit, step and cut index of the probe loop that asked, read off
    its frame, and the coordinates whose sign was asked."""
    calls = [0]
    integer_sign = RealEmbedding.integer_sign

    def counted(self, ints):
        calls[0] += 1
        if log is not None:
            where = sys._getframe(1).f_locals
            log.append((where["start"], where["step"], where["j"],
                        tuple(ints)))
        return integer_sign(self, ints)

    monkeypatch.setattr(RealEmbedding, "integer_sign", counted)
    return calls


def _planted_iet(rng, K, k):
    """(T, planted violation): an exchange over K with a connection after
    more than one step.  Every orbit of a rational exchange is periodic, so
    some cut's orbit first meets a cut after n steps.  That meeting is one
    integer relation a . lengths = 0, which survives adding eps * w * u to
    the lengths for an integer u with a . u = 0 (w the generator of K),
    with eps so small that no other comparison on the way changes side."""
    while True:
        perm = rng.choice(irreducible_permutations(k))
        den = rng.randint(5, 12)
        R = IET([Fraction(rng.randint(1, 6), den) for _ in range(k)], perm)
        start = rng.randrange(1, k)
        # x = vec . lengths, followed until it is a cut again
        x, vec, n = R._cuts[start], [int(i < start) for i in range(k)], 0
        while n == 0 or x not in R._cuts[1:]:
            i = R.interval_index(x)
            x += R._shifts[i]
            vec = [v + int(perm[l] < perm[i]) - int(l < i)
                   for l, v in enumerate(vec)]
            n += 1
        hit = R._cuts.index(x)
        a = [v - int(l < hit) for l, v in enumerate(vec)]
        if n < 2 or not any(a):
            continue
        u = [rng.randint(-3, 3) for _ in range(k)]
        aa, au = sum(c * c for c in a), sum(c * d for c, d in zip(a, u))
        u = [aa * d - au * c for c, d in zip(a, u)]
        if not any(u):
            continue
        w_bound = 1 + max(abs(c) for c in K.minpoly.coeffs)
        eps = Fraction(1, 4 * den * k * (n + 2) * max(map(abs, u)) * w_bound)
        lengths = [K.from_rational(r) + K.gen() * (eps * d)
                   for r, d in zip(R.lengths, u)]
        if module_rank(JacobianModule(K, lengths)) < 2:
            continue
        return IET(lengths, perm), {"discontinuity": start,
                                    "after_steps": n, "hits": hit}


def _sweep_cases(seed, cases):
    """(T, steps, planted violation or None): random and planted exchanges
    of 2-4 intervals over quadratic and cubic fields, of rank at least 2."""
    cubic = NumberField(QPolynomial([-1, -1, 0, 1]))
    rng = random.Random(seed)
    for case in range(cases):
        K, k = rng.choice([GOLDEN, cubic]), rng.randint(2, 4)
        steps = rng.randint(500, 1500)
        if case % 2 and k > 2:
            T, violation = _planted_iet(rng, K, k)
        else:
            T, violation = _field_iet(
                K, [[rng.randint(-3, 3) for _ in range(K.degree)]
                    for _ in range(k)],
                rng.choice(irreducible_permutations(k))), None
            if module_rank(JacobianModule(K, T.lengths)) < 2:
                continue
        yield T, steps, violation


def _probe_sweep(seed, cases, monkeypatch):
    """Compare minimality_probe with the Fraction oracle on the sweep
    cases, counting the exact signs the probe asks for."""
    exact = _count_exact_signs(monkeypatch)
    planted = 0
    for T, steps, violation in _sweep_cases(seed, cases):
        expected = fraction_keane_probe(T, steps)
        exact[0] = 0
        report = minimality_probe(T, steps)
        assert report == expected
        if violation is not None:
            assert violation in report["keane_violations"]
            planted += 1
        elif report["no_periodic_orbit_found"]:
            # the enclosures decided all but a handful of the
            # (k - 1)^2 (steps + 1) comparisons
            assert exact[0] <= 10
    assert planted > 0


def test_minimality_sweep_matches_fraction_oracle(monkeypatch):
    _probe_sweep(19, 8, monkeypatch)


@pytest.mark.slow
def test_minimality_long_sweep_matches_fraction_oracle(monkeypatch):
    _probe_sweep(20, 60, monkeypatch)


def _fresh_copy(T):
    """T over its own copy of T's embedding: a probe refines the embedding
    it runs on, and a finer one could spare later probes an exact sign."""
    emb = T.embedding
    return IET(T.lengths, T.permutation,
               embedding=RealEmbedding(T.field, emb.lo, emb.hi))


def test_probe_matches_the_enclosure_oracle_sign_for_sign(monkeypatch):
    # the step loop on flat enclosure lists against the loop it replaced:
    # equal reports, and integer_sign asked about the same (orbit, step,
    # cut) with the same coordinates in the same order
    cubic = NumberField(QPolynomial([-1, -1, 0, 1]))
    rng = random.Random(35)
    cases = [(T, steps) for T, steps, _ in _sweep_cases(19, 8)]
    cases.append((IET([PHI, GOLDEN.from_rational(1), PHI], [3, 2, 1]), 50))
    # pieces far shorter than the enclosures are wide: cuts whose
    # enclosures overlap, so one step asks several exact signs
    tiny, small = (PHI - 1) ** 40, (cubic.gen() - 1) ** 20
    one, unit = GOLDEN.one(), cubic.one()
    cases += [(IET([one, tiny, one], [3, 2, 1]), 50),
              (IET([one, tiny, tiny, tiny, one], [5, 4, 3, 2, 1]), 50),
              (IET([unit, small, small, unit], [4, 3, 2, 1]), 200)]
    for K in (GOLDEN, cubic):
        for k in (3, 4, 5):
            T, violation = _planted_iet(rng, K, k)
            cases.append((T, violation["after_steps"] + rng.randint(0, 50)))
    while len(cases) < 33:
        k = rng.randint(4, 5)
        T = _field_iet(cubic, [[rng.randint(-3, 3) for _ in range(3)]
                               for _ in range(k)],
                       rng.choice(irreducible_permutations(k)))
        if module_rank(JacobianModule(cubic, T.lengths)) >= 2:
            cases.append((T, rng.randint(200, 600)))
    runs = [(_fresh_copy(T), _fresh_copy(T), steps) for T, steps in cases]
    log = []
    _count_exact_signs(monkeypatch, log)
    several = 0
    for new_T, old_T, steps in runs:
        log.clear()
        report = minimality_probe(new_T, steps)
        new_log = list(log)
        log.clear()
        assert report == enclosure_keane_probe(old_T, steps)
        assert new_log == log
        steps_asked = [(start, step) for start, step, _, _ in log]
        several += len(steps_asked) > len(set(steps_asked))
    assert several > 0


def test_long_probe_asks_few_exact_signs(monkeypatch):
    # two orbits of 100,000 steps, each step against two cuts: 400,004
    # comparisons, all but a handful decided by the enclosures
    cubic = NumberField(QPolynomial([-1, -1, 0, 1]))
    w = cubic.gen()
    T = IET([cubic.one(), w, w * w], [3, 1, 2])
    calls = _count_exact_signs(monkeypatch)
    report = minimality_probe(T, 10 ** 5)
    assert report == {"no_periodic_orbit_found": True, "keane_violations": []}
    assert calls[0] <= 10


def test_huge_coordinates_match_fraction_oracle(monkeypatch):
    # w^1000 = F(1000) w + F(999) over x^2 - x - 1: coordinates of 209
    # digits, so the generator is sharpened in proportion
    lengths = [GOLDEN.from_poly(parse_poly(tok, var="w"))
               for tok in ("1", "w^1000")]
    expected = fraction_keane_probe(IET(lengths, [2, 1]), 10000)
    calls = _count_exact_signs(monkeypatch)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["iet", "--lengths", "1,w^1000", "--perm", "2,1",
                     "--poly=-1,-1,1"]) == 0
    assert json.loads(out.getvalue()) == expected
    assert calls[0] <= 10


def test_minimality_wrong_cases():
    with pytest.raises(WrongCaseError):
        minimality_probe(IET([Fraction(1, 2), Fraction(1, 2)], [2, 1]), 10)
    with pytest.raises(WrongCaseError):
        minimality_probe(IET([PHI, PHI], [2, 1]), 10)      # rank 1 over Q
    with pytest.raises(DomainError):
        minimality_probe(golden_iet(), 0)


@pytest.mark.parametrize("steps", [2.7, "5", True])
def test_step_count_must_be_an_int(steps):
    # int() read these as 2, 5 and 1 steps
    with pytest.raises(DomainError, match="max_steps must be int"):
        minimality_probe(golden_iet(), steps)


# -- Rauzy induction ----------------------------------------------------------------------


def test_rauzy_golden_step():
    T = rauzy_step(golden_iet())
    assert T.permutation == (2, 1)
    assert T.lengths[0] == GOLDEN.from_rational(1)
    assert T.lengths[1] == PHI - 1
    # the mirrored exchange takes the other branch of the induction
    S = rauzy_step(IET([PHI, GOLDEN.from_rational(1)], [2, 1]))
    assert S.permutation == (2, 1)
    assert S.lengths[0] == PHI - 1
    assert S.lengths[1] == GOLDEN.from_rational(1)


def test_rauzy_rational_step_then_tie():
    T = rauzy_step(IET([Fraction(1, 3), Fraction(2, 3)], [2, 1]))
    assert T.lengths == (Fraction(1, 3), Fraction(1, 3))
    assert T.permutation == (2, 1)
    with pytest.raises(DegenerateStepError):
        rauzy_step(T)


def test_rauzy_tie_and_small_cases():
    with pytest.raises(DegenerateStepError):
        rauzy_step(IET([Fraction(1, 2), Fraction(1, 2)], [2, 1]))
    with pytest.raises(DegenerateStepError):
        rauzy_step(IET([PHI, PHI], [2, 1]))
    with pytest.raises(DegenerateStepError):
        rauzy_step(IET([Fraction(1)], [1]))


def test_rauzy_preserves_rank_and_shrinks_measure():
    T = golden_iet()
    emb = T.embedding
    for _ in range(25):
        S = rauzy_step(T)
        assert emb.sign(T.total - S.total) > 0
        assert module_rank(JacobianModule(GOLDEN, S.lengths)) == 2
        T = S
    U = IET([GOLDEN.from_rational(1), PHI, PHI * PHI], [3, 1, 2])
    assert module_rank(JacobianModule(GOLDEN, U.lengths)) == 2
    for _ in range(15):
        U = rauzy_step(U)
        assert module_rank(JacobianModule(GOLDEN, U.lengths)) == 2
        assert len(U.lengths) == 3
        assert sorted(U.permutation) == [1, 2, 3]


# -- properties over number fields ---------------------------------------------------------

_PROPERTY_FIELDS = [NumberField(QPolynomial(c)) for c in (
    [-1, -1, 1], [-2, 0, 1], [-1, -1, 0, 1], [1, -2, -1, 1])]


@st.composite
def _field_iets(draw):
    """(T, x): an exchange of 2-4 intervals over a quadratic or cubic field
    and a point x = sum r_i lambda_i of [0, total), 0 <= r_i < 1."""
    K = draw(st.sampled_from(_PROPERTY_FIELDS))
    k = draw(st.integers(2, 4))
    coords = st.lists(st.integers(-2, 2), min_size=K.degree,
                      max_size=K.degree)
    T = _field_iet(K, [draw(coords) for _ in range(k)],
                   draw(st.sampled_from(irreducible_permutations(k))))
    x = K.from_rational(0)
    for length in T.lengths:
        den = draw(st.integers(1, 12))
        x = x + length * Fraction(draw(st.integers(0, den - 1)), den)
    return T, x


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_field_iets())
def test_rauzy_step_removes_the_shorter_rightmost_length(case):
    T, _ = case
    k = len(T.lengths)
    alpha = T.lengths[-1]                              # rightmost in the domain
    beta = T.lengths[T.permutation.index(k)]           # rightmost in the image
    assume(alpha != beta)
    shorter = alpha if T.embedding.sign(alpha - beta) < 0 else beta
    assert rauzy_step(T).total == T.total - shorter
