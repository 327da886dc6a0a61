"""Container-format and miss-behavior tests for the level cache."""

import os
import struct

import pytest

from modfol import cache


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
    first = open(path, "rb").read()
    cache.store(rec)
    assert open(path, "rb").read() == first


def test_no_temp_files_left_behind(cache_root):
    cache.store(sample_record())
    assert sorted(os.listdir(cache_root)) == ["level-7.bin"]


def test_version_mismatch_is_a_miss(cache_root):
    path = cache.store(sample_record())
    blob = bytearray(open(path, "rb").read())
    blob[0:4] = struct.pack(">I", cache.SCHEMA_VERSION + 1)
    open(path, "wb").write(bytes(blob))
    assert cache.load(7) is None


def test_flipped_payload_byte_is_a_miss(cache_root):
    path = cache.store(sample_record())
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    assert cache.load(7) is None


def test_truncated_file_is_a_miss(cache_root):
    path = cache.store(sample_record())
    blob = open(path, "rb").read()
    for cut in (0, 3, len(blob) // 2, len(blob) - 1):
        open(path, "wb").write(blob[:cut])
        assert cache.load(7) is None


def test_trailing_garbage_is_a_miss(cache_root):
    path = cache.store(sample_record())
    blob = open(path, "rb").read()
    open(path, "wb").write(blob + b"x")
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
