"""Content-addressed on-disk result cache for simulation cells.

Each cached entry is one cell result, stored as JSON under a two-level
fan-out directory keyed by the cell's content digest (spec + cell key +
seed + :func:`~repro.runner.spec.code_version`).  Properties:

* **Correct by construction** — the digest covers every input including
  the library source, so a hit is always equivalent to re-running the
  cell; editing any ``repro`` source file invalidates everything.
* **Concurrency-safe** — writes go to a temp file and ``os.replace``
  into place, so parallel workers (or parallel CI jobs sharing a cache
  volume) never observe torn entries.
* **Corruption-tolerant** — an unreadable entry is treated as a miss
  and overwritten, never an error; unlike an absent one it is counted
  (``ResultCache.corrupt``, ``RunnerStats.cache_corrupt``).
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Optional, Tuple

_MISS = object()


def default_cache_dir() -> str:
    """The cache root: ``$REPRO_CACHE_DIR`` or ``.repro-cache`` in cwd."""
    return os.environ.get("REPRO_CACHE_DIR", os.path.join(os.getcwd(), ".repro-cache"))


class ResultCache:
    """Get/put JSON values by content digest (see module docstring)."""

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + ".json")

    def get(self, digest: str) -> Tuple[bool, object]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss."""
        try:
            with open(self._path(digest), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            value = entry["value"]
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except (OSError, ValueError, KeyError, TypeError):
            # The entry exists but cannot be used: still a miss (the
            # cell re-executes and its put overwrites it), but a counted
            # one, so a damaged cache volume does not pass for a cold one.
            self.misses += 1
            self.corrupt += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, digest: str, value: object, meta: Optional[dict] = None) -> None:
        """Store ``value`` (must be JSON data) under ``digest`` atomically."""
        path = self._path(digest)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        payload = json.dumps({"value": value, "meta": meta or {}})
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except OSError:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        """Number of entries on disk (walks the fan-out directories)."""
        count = 0
        if not os.path.isdir(self.root):
            return 0
        for dirpath, _, filenames in os.walk(self.root):
            count += sum(1 for f in filenames if f.endswith(".json"))
        return count
