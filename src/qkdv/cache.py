"""On-disk cache for computed Hamiltonian densities, and where it lives.

This module alone decides the directory: the ``--cache-dir`` of the running
command (:func:`choose_dir`, set by the CLI for the length of one command),
else a non-empty ``$QKDV_CACHE``, else ``./.qkdv-cache``.  The choice is read
on every memo miss, so API callers pick the directory with ``$QKDV_CACHE``.

Everything stored here is derived data: deleting the cache directory changes
nothing but runtime.  Entries are keyed by the index d and the engine
version; a version bump invalidates them.  Each entry carries the CRC-32 of
its compact terms JSON, so an entry edited after it was written, or written
without it, is rebuilt (hashlib's sha256 would load OpenSSL: 3.7 MB more
peak memory per process).  Writes go through a temp file and an atomic
rename so a partially written entry is never observed, and a failed write
removes its temp file.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from pathlib import Path

from ._version import ENGINE_VERSION
from .diffpoly import DiffPoly, from_json_dict, to_json_dict

ENV_VAR = "QKDV_CACHE"
DEFAULT_DIR = ".qkdv-cache"
_chosen = None  # the running command's --cache-dir, when it gave one


def choose_dir(explicit: str | os.PathLike | None) -> str | os.PathLike | None:
    """Make ``explicit`` (None: no ``--cache-dir``) the choice; return the old one."""
    global _chosen
    previous, _chosen = _chosen, explicit
    return previous


def density_path(d: int) -> Path:
    """The cache entry of H_d in the chosen directory."""
    if _chosen is None:
        return Path(os.environ.get(ENV_VAR) or DEFAULT_DIR, "wang", f"H_{d}.json")
    return Path(_chosen, "wang", f"H_{d}.json")


def _checksum(terms) -> str:
    compact = json.dumps(terms, separators=(",", ":"))
    return f"{zlib.crc32(compact.encode()):08x}"


def load_density(path: Path, d: int) -> DiffPoly | None:
    """Parse a cached density; None on corruption or a wrong shape, key or checksum."""
    try:
        payload = json.loads(path.read_text())
        if payload.get("d") != d or payload.get("engine") != ENGINE_VERSION:
            return None
        if payload.get("crc32") != _checksum(payload["terms"]):
            return None
        return from_json_dict(payload)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            ZeroDivisionError):
        return None


def store_density(path: Path, d: int, density: DiffPoly) -> None:
    payload = {"d": d, "engine": ENGINE_VERSION}
    payload.update(to_json_dict(density))
    payload["crc32"] = _checksum(payload["terms"])
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}.{threading.get_ident()}")
    try:
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
