"""On-disk cache of per-level analysis records.

One file per level, named level-<N>.bin, in the directory given by the
MODFOL_CACHE environment variable (default: ./.modfol-cache).  The file
layout is a 4-byte big-endian schema version, an 8-byte big-endian
payload length, the canonical-JSON payload, and a trailing sha256 digest
of header plus payload.  A load is a hit only when the version, the
declared length, the digest, and the record's level all match; any
mismatch, short read, or parse failure is a silent miss, so a corrupted
file is never partially used.  Writes are atomic: the blob goes to a
temporary file in the same directory, then os.replace swaps it in.
"""

import hashlib
import json
import os
import struct
import tempfile

SCHEMA_VERSION = 1

_HEADER = struct.Struct(">IQ")  # schema version, payload byte length
_DIGEST_BYTES = 32


def _canonical_bytes(obj):
    """Canonical JSON encoding: sorted keys, compact, ASCII, one newline."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":"),
                       ensure_ascii=True) + "\n").encode("ascii")


def _cache_dir():
    """The cache directory: $MODFOL_CACHE, else .modfol-cache."""
    return os.environ.get("MODFOL_CACHE", ".modfol-cache")


def _record_path(level):
    return os.path.join(_cache_dir(), "level-%d.bin" % int(level))


def store(record):
    """Write a level record atomically; returns the path written."""
    level = int(record["level"])
    payload = _canonical_bytes(record)
    header = _HEADER.pack(SCHEMA_VERSION, len(payload))
    blob = header + payload + hashlib.sha256(header + payload).digest()
    path = _record_path(level)
    folder = os.path.dirname(path) or "."
    os.makedirs(folder, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".level-%d." % level, dir=folder)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load(level):
    """Return the cached record for a level, or None on any mismatch."""
    path = _record_path(level)
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    body_start = _HEADER.size
    if len(blob) < body_start + _DIGEST_BYTES:
        return None
    version, length = _HEADER.unpack_from(blob)
    if version != SCHEMA_VERSION:
        return None
    if len(blob) != body_start + length + _DIGEST_BYTES:
        return None
    payload = blob[body_start:body_start + length]
    digest = blob[body_start + length:]
    if hashlib.sha256(blob[:body_start] + payload).digest() != digest:
        return None
    try:
        record = json.loads(payload.decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(record, dict) or record.get("level") != int(level):
        return None
    if record.get("schema") != SCHEMA_VERSION:
        return None
    return record
