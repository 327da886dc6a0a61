"""Level-record construction and orbit reconstruction tests."""

import hashlib
import json

import pytest

from modfol import cache, eigen
from modfol.eigen import decompose
from modfol.errors import DomainError
from modfol.modsym import ModularSymbolSpace
from modfol.periods import ensure_series
from modfol.pipeline import analyze_level, is_level_record, orbit_from_record

from oracles import record_with_hecke


@pytest.fixture(scope="module")
def record_23():
    return analyze_level(23)


def test_record_shape(record_23):
    assert set(record_23) == {"schema", "level", "curve", "primes",
                              "orbits", "classification"}
    assert record_23["level"] == 23
    assert record_23["curve"]["genus"] == 2
    assert record_23["primes"] == [2]


def test_record_is_json_native(record_23):
    assert json.loads(cache._canonical_bytes(record_23)) == record_23


@pytest.mark.parametrize("N", [1, 11, 13, 23, 37, 40, 63])
def test_analyze_level_records_are_level_records(N):
    # the cross-checks hold on what analyze_level writes, genus 0, several
    # orbits and possibly-old blocks included
    assert is_level_record(analyze_level(N))


@pytest.mark.parametrize("N", [11.5, 11.0, True, "11"])
def test_analyze_level_refuses_a_non_int_level(N):
    # int() read 11.5 as 11 and returned level 11's record
    with pytest.raises(DomainError, match="level must be int"):
        analyze_level(N)


def test_genus_zero_record():
    record = analyze_level(13)
    assert record["orbits"] == [] and record["classification"] == []
    assert record["primes"] == []


def test_orbit_round_trip(record_23):
    fresh = decompose(ModularSymbolSpace(23))[0]
    rebuilt = orbit_from_record(record_23, 0)
    assert rebuilt.field == fresh.field
    assert rebuilt.degree == fresh.degree == 2
    assert rebuilt.defining_prime == fresh.defining_prime
    assert rebuilt.eigenvalue == fresh.eigenvalue
    assert rebuilt.eigenvector == fresh.eigenvector
    assert rebuilt.coefficient_map == fresh.coefficient_map
    assert rebuilt.multiplicity == 1 and rebuilt.possibly_old is False


def test_orbit_index_out_of_range(record_23):
    with pytest.raises(DomainError):
        orbit_from_record(record_23, 1)


def test_rebuilt_orbit_feeds_series():
    space = ModularSymbolSpace(11)
    fresh = decompose(space)[0]
    rebuilt = orbit_from_record(analyze_level(11), 0)
    assert ensure_series(space, rebuilt, 20)[1:] \
        == ensure_series(space, fresh, 20)[1:]


def test_explicit_primes_recorded():
    record = analyze_level(23, primes=[2, 3])
    assert record["primes"] == [2, 3]
    assert record["orbits"][0]["coefficient_map"].keys() == {"2", "3"}


def test_degenerate_classification_at_67():
    record = analyze_level(67)
    classes = [(e["class"], e.get("separatrix_excess"))
               for e in record["classification"]]
    degrees = [o["degree"] for o in record["orbits"]]
    assert record["curve"]["genus"] == 5
    assert degrees == [1, 2, 2]
    assert classes == [("strebel", None),
                       ("degenerate_pseudo_anosov", 3),
                       ("degenerate_pseudo_anosov", 3)]


# sha256 of the canonical record bytes, taken from the Fraction-elimination
# implementation; a faster cuspidal layer must reproduce them exactly.  They
# were taken of records that also held each cuspidal T_p under "hecke", so
# the test adds that field back and the Hecke matrices stay pinned too.
# Levels 33 and 56 hold possibly-old orbits of multiplicity 2 and 3, whose
# eigenvectors depend on the basis of their primary block; their digests
# were taken before the blocks were split by one evaluation per side.
RECORD_DIGESTS = {
    11: "ceaa6411adea7284e4d343c354218fc473c45db7d36fd89004a551447ed9bf10",
    33: "b3d82c3e8044503b192f721f660d545f9e251b83425f3a83b3bd3b3e59cea00b",
    37: "32e4895e9485c0ff973d6baa62ea628c0ca0bc6dfa0177aeb7c55317a8b86bf8",
    56: "ea7f667d0d546c4563679f06624278605f9c847faecf956fd8259cbb49fa5698",
    60: "fb9c0ae4cb3ae62a1720a17131d13d7d9bdddf0819b29b09449c9bc462332202",
    97: "06db153516b4d226d3da5754ac7633a383de90e1bd1667a586e8feede9131384",
}


@pytest.mark.parametrize("N, multiplicity", [(33, 2), (56, 3)])
def test_pinned_levels_hold_possibly_old_blocks(N, multiplicity):
    orbits = analyze_level(N)["orbits"]
    assert max(o["multiplicity"] for o in orbits) == multiplicity
    assert any(o["possibly_old"] for o in orbits)


@pytest.mark.parametrize("N", sorted(RECORD_DIGESTS))
def test_record_bytes_pinned(N):
    record = record_with_hecke(analyze_level(N))
    digest = hashlib.sha256(cache._canonical_bytes(record))
    assert digest.hexdigest() == RECORD_DIGESTS[N]


@pytest.mark.parametrize("N", [37, 60])
def test_one_hecke_matrix_per_prime(N, monkeypatch):
    calls = []
    build = eigen.hecke_matrix

    def counting(space, p):
        calls.append(p)
        return build(space, p)

    monkeypatch.setattr(eigen, "hecke_matrix", counting)
    record = analyze_level(N)
    assert record["primes"]
    assert sorted(calls) == record["primes"]
