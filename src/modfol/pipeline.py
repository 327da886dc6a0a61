"""Whole-level analysis records.

analyze_level runs the full chain (symbol space, orbit decomposition,
foliation classification) for one level and flattens everything into a
plain JSON-ready dict: curve invariants, the primes used, one record per
orbit, and one classification entry per orbit.  Records round-trip
through the cache byte-exactly, and orbit_from_record rebuilds a working
EigenformOrbit from its record, so downstream consumers (period
integrals, the CLI) behave identically on fresh and cached data.

Rationals are serialized as JSON ints when integral and as exact "p/q"
strings otherwise; no floats appear in records.  A possibly-old orbit's
eigenvector is one K-eigenvector of its block, which nothing prints or
reads, so records of earlier versions, which chose another, stay valid.
"""

import re
from fractions import Fraction

from .arith import _as_int
from .cache import SCHEMA_VERSION
from .congruence import curve_data
from .eigen import EigenformOrbit, decompose
from .errors import DomainError
from .foliation import classify, foliation_class
from .modsym import ModularSymbolSpace
from .numfield import NumberField
from .polys import QPolynomial


def rat_to_json(x):
    """Fraction -> int (when integral) or exact "p/q" string."""
    if x.denominator == 1:
        return x.numerator
    return "%d/%d" % (x.numerator, x.denominator)


def _element_coeffs(x):
    return [rat_to_json(c) for c in x.coeffs]


def _orbit_record(index, orbit):
    return {
        "orbit": index,
        "degree": orbit.degree,
        "minpoly": [rat_to_json(c) for c in orbit.field.minpoly.coeffs],
        "defining_prime": orbit.defining_prime,
        "eigenvalue": _element_coeffs(orbit.eigenvalue),
        "eigenvector": [_element_coeffs(x) for x in orbit.eigenvector],
        "coefficient_map": {str(p): _element_coeffs(c)
                            for p, c in sorted(orbit.coefficient_map.items())},
        "multiplicity": orbit.multiplicity,
        "possibly_old": orbit.possibly_old,
    }


def _classification_entry(level, index, fc):
    entry = {
        "level": level,
        "orbit": index,
        "degree": fc.degree,
        "genus": fc.genus,
        "class": fc.kind.value,
    }
    if fc.separatrix_excess is not None:
        entry["separatrix_excess"] = fc.separatrix_excess
    return entry


def analyze_level(N, primes=None):
    """Full analysis record for one level.

    With primes=None decompose picks the primes and escalates them on
    an undecided split; an explicit prime list is used as-is (and may
    raise the undecided split error).  Genus-0 levels yield empty orbit
    and classification lists.
    """
    N = _as_int(N, "level")
    space = ModularSymbolSpace(N)
    curve = curve_data(N)
    orbits = decompose(space, primes)
    used = sorted({p for o in orbits for p in o.coefficient_map})
    return {
        "schema": SCHEMA_VERSION,
        "level": N,
        "curve": curve,
        "primes": used,
        "orbits": [_orbit_record(i, o) for i, o in enumerate(orbits)],
        "classification": [_classification_entry(N, i, classify(o, curve))
                           for i, o in enumerate(orbits)],
    }


def is_level_record(record):
    """Whether ``record`` has every key analyze_level writes, each with its
    JSON type, and agrees with itself (see _consistent); keys no reader
    uses (the "hecke" of earlier records) may be extra.  A cache file's
    digest proves only that the file is intact."""
    return _fits(record, _RECORD) and _consistent(record)


def _consistent(record):
    """The cross-checks every analyze_level record passes.  Each orbit's
    degree d >= 1 is len(minpoly) - 1 and the length of its eigenvalue, of
    every eigenvector entry and of every coefficient_map entry; its
    eigenvector has genus entries, its coefficient_map keys are among the
    record's primes, its index is its position, d is at most the genus,
    and it is possibly old exactly when its multiplicity exceeds 1.  The
    classification has one entry per orbit, the one analyze_level writes
    for the level, the orbit's index, d and the genus, by classify's rule
    (foliation_class), so a planted class or separatrix excess is caught."""
    level, genus = record["level"], record["curve"]["genus"]
    orbits, entries = record["orbits"], record["classification"]
    primes = set(map(str, record["primes"]))
    if len(entries) != len(orbits):
        return False
    for i, (orbit, entry) in enumerate(zip(orbits, entries)):
        d = orbit["degree"]
        lengths = {len(orbit["minpoly"]) - 1, len(orbit["eigenvalue"])}
        lengths.update(map(len, orbit["eigenvector"]))
        lengths.update(map(len, orbit["coefficient_map"].values()))
        if (not 1 <= d <= genus or lengths != {d} or orbit["orbit"] != i
                or not primes.issuperset(orbit["coefficient_map"])
                or len(orbit["eigenvector"]) != genus
                or orbit["possibly_old"] != (orbit["multiplicity"] > 1)
                or entry != _classification_entry(
                    level, i, foliation_class(d, genus))):
            return False
    return True


def _fits(value, shape):
    """shape: a tuple of exact types (bool is not int), a predicate, [item]
    for a list, {str: item} for an object of any keys, or {key: shape} for
    an object with those keys, of which only "separatrix_excess" may be
    absent."""
    if isinstance(shape, tuple):
        return type(value) in shape
    if callable(shape):
        return shape(value)
    if isinstance(shape, list):
        return type(value) is list and all(_fits(v, shape[0]) for v in value)
    if type(value) is not dict:
        return False
    if str in shape:
        return all(_fits(v, shape[str]) for v in value.values())
    return all(_fits(value[k], item) if k in value else k == "separatrix_excess"
               for k, item in shape.items())


def _rational(value):
    """rat_to_json's form: an int, or a "p/q" string with q > 0."""
    return type(value) is int or (type(value) is str and re.fullmatch(
        "-?[0-9]+/[1-9][0-9]*", value) is not None)


_INT, _RATIONALS = (int,), [_rational]
_RECORD = {
    "schema": _INT, "level": _INT, "primes": [_INT],
    "curve": dict.fromkeys(("N", "mu", "nu2", "nu3", "nu_inf", "genus"), _INT),
    "orbits": [dict(orbit=_INT, degree=_INT, minpoly=_RATIONALS,
                    defining_prime=_INT, eigenvalue=_RATIONALS,
                    eigenvector=[_RATIONALS], coefficient_map={str: _RATIONALS},
                    multiplicity=_INT, possibly_old=(bool,))],
    "classification": [dict.fromkeys(("level", "orbit", "degree", "genus",
                                      "separatrix_excess"), _INT)
                       | {"class": (str,)}],
}


def orbit_from_record(record, index):
    """Rebuild the index-th EigenformOrbit of a level record."""
    orbits = record["orbits"]
    index = _as_int(index, "orbit index")
    if not 0 <= index < len(orbits):
        raise DomainError("level %d has %d orbits; index %d is out of range"
                          % (record["level"], len(orbits), index))
    rec = orbits[index]
    primes = {str(p): p for p in record["primes"]}
    field = NumberField(QPolynomial([Fraction(c) for c in rec["minpoly"]]))
    return EigenformOrbit(
        record["level"],
        field,
        rec["defining_prime"],
        field.element([Fraction(c) for c in rec["eigenvalue"]]),
        [field.element([Fraction(c) for c in coeffs])
         for coeffs in rec["eigenvector"]],
        {primes[p]: field.element([Fraction(c) for c in coeffs])
         for p, coeffs in rec["coefficient_map"].items()},
        multiplicity=rec["multiplicity"],
        possibly_old=rec["possibly_old"],
    )
