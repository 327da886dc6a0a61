"""Container-format and miss-behavior tests for the level cache."""

import os
import struct
from pathlib import Path

import pytest

from modfol import cache
from modfol.errors import DomainError


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    monkeypatch.setenv("MODFOL_CACHE", str(tmp_path))
    return tmp_path


def sample_record(level=7):
    return {
        "schema": cache.SCHEMA_VERSION,
        "level": level,
        "curve": {"N": level, "genus": 0},
        "primes": [2, 3],
        "orbits": [],
        "classification": [],
    }


def test_round_trip(cache_root):
    rec = sample_record()
    path = cache.store(rec)
    assert os.path.dirname(path) == str(cache_root)
    assert cache.load(7) == rec


def test_missing_file_is_a_miss(cache_root):
    assert cache.load(99) is None


def test_store_is_deterministic(cache_root):
    rec = sample_record()
    path = cache.store(rec)
    first = Path(path).read_bytes()
    cache.store(rec)
    assert Path(path).read_bytes() == first


def test_no_temp_files_left_behind(cache_root):
    cache.store(sample_record())
    assert sorted(os.listdir(cache_root)) == ["level-7.bin"]


def test_version_mismatch_is_a_miss(cache_root):
    path = cache.store(sample_record())
    blob = bytearray(Path(path).read_bytes())
    blob[0:4] = struct.pack(">I", cache.SCHEMA_VERSION + 1)
    Path(path).write_bytes(bytes(blob))
    assert cache.load(7) is None


def test_flipped_payload_byte_is_a_miss(cache_root):
    path = cache.store(sample_record())
    blob = bytearray(Path(path).read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    Path(path).write_bytes(bytes(blob))
    assert cache.load(7) is None


def test_truncated_file_is_a_miss(cache_root):
    path = cache.store(sample_record())
    blob = Path(path).read_bytes()
    for cut in (0, 3, len(blob) // 2, len(blob) - 1):
        Path(path).write_bytes(blob[:cut])
        assert cache.load(7) is None


def test_trailing_garbage_is_a_miss(cache_root):
    path = cache.store(sample_record())
    blob = Path(path).read_bytes()
    Path(path).write_bytes(blob + b"x")
    assert cache.load(7) is None


def test_level_mismatch_is_a_miss(cache_root):
    src = cache.store(sample_record(level=7))
    os.replace(src, cache._record_path(8))
    assert cache.load(8) is None


def test_env_var_selects_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("MODFOL_CACHE", str(tmp_path / "boxed"))
    rec = sample_record(11)
    cache.store(rec)
    assert (tmp_path / "boxed" / "level-11.bin").exists()
    assert cache.load(11) == rec


def test_default_directory_name(monkeypatch):
    monkeypatch.delenv("MODFOL_CACHE", raising=False)
    assert cache._cache_dir() == ".modfol-cache"
    assert cache._record_path(3).endswith(os.path.join(".modfol-cache",
                                                      "level-3.bin"))


@pytest.mark.parametrize("level", [11.5, 11.0, True, "11"])
def test_level_is_not_truncated(cache_root, level):
    # int() read 11.5 as 11 and True as 1, so a load returned that level's
    # record, and a record of level 11.0 was filed as level-11.bin
    cache.store(sample_record(11))
    cache.store(sample_record(1))
    with pytest.raises(DomainError, match="level must be int"):
        cache.load(level)
    with pytest.raises(DomainError, match="level must be int"):
        cache.store(sample_record(level))
    assert sorted(os.listdir(cache_root)) == ["level-1.bin", "level-11.bin"]
