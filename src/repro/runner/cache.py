"""Content-addressed on-disk result cache for simulation cells.

One SQLite database per cache root (``<root>/cells.sqlite3``), one row per
cell: its content digest (spec + cell key + seed +
:func:`~repro.runner.spec.code_version`) and its entry as JSON text.  Filing
a cell is one ``INSERT``, not a file (docs/PERFORMANCE.md § Campaign cold
path).  Guarantees, and where each comes from:

* **Correct by construction** — the digest covers every input including
  the library source, so a hit is always equivalent to re-running the
  cell; editing any ``repro`` source file invalidates everything.
* **Atomic** — autocommit on a write-ahead log: every ``put`` is its own
  committed transaction, so a reader sees a whole entry or none and a
  killed campaign keeps every cell it had filed.
* **Concurrency-safe** — processes sharing a root on a local filesystem
  serialise on SQLite's file locks and wait (``BUSY_TIMEOUT_S``) rather
  than fail.
* **Corruption-tolerant** — at two levels, both counted
  (``ResultCache.corrupt``, ``RunnerStats.cache_corrupt``) so a damaged
  volume does not pass for a cold one.  A *row* that is not usable JSON is
  a miss the re-executed cell's put replaces.  A database *file* SQLite
  refuses (not a database, malformed, truncated) is renamed aside to
  ``cells.sqlite3.corrupt-<n>``, never deleted, and a fresh one started.
* **Fork-safe** — the connection opens lazily and belongs to the pid that
  opened it: a cache used after ``fork`` reconnects, and ``Runner.run``
  closes it before creating its pool, so no worker inherits one.

Not promised: SQLite locking over NFS; durability against power loss
beyond ``synchronous=NORMAL`` (a lost entry is a cell that runs again).
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Dict, Optional, Tuple

DB_NAME = "cells.sqlite3"
BUSY_TIMEOUT_S = 30.0
# cache_size is in KiB: lookups are by key, a big page cache buys nothing.
_SETUP = """
PRAGMA journal_mode=WAL; PRAGMA synchronous=NORMAL; PRAGMA cache_size=-512;
CREATE TABLE IF NOT EXISTS cells(digest TEXT PRIMARY KEY, entry TEXT) WITHOUT ROWID;
"""


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
        self._db = os.path.join(self.root, DB_NAME)
        # By opener's pid: one inherited through fork() stays under its
        # parent's, so the child neither uses nor closes it (SQLite's rule).
        self._conns: Dict[int, sqlite3.Connection] = {}

    def _connection(self) -> sqlite3.Connection:
        """This process's connection, opened (and the store created) on first use."""
        conn = self._conns.get(os.getpid())
        if conn is None:
            os.makedirs(self.root, exist_ok=True)
            conn = sqlite3.connect(self._db, timeout=BUSY_TIMEOUT_S, isolation_level=None)
            try:
                conn.executescript(_SETUP)
            except sqlite3.Error:
                conn.close()
                raise
            self._conns[os.getpid()] = conn
        return conn

    def _execute(self, sql: str, args: tuple = ()) -> Optional[tuple]:
        """Run one statement; quarantine a database file SQLite refuses and retry."""
        try:
            return self._connection().execute(sql, args).fetchone()
        except sqlite3.DatabaseError as exc:
            # Exactly DatabaseError is SQLITE_CORRUPT / SQLITE_NOTADB; its
            # subclasses (locked, full, read-only...) are not corruption.
            if type(exc) is not sqlite3.DatabaseError:
                raise
        self.close()
        self.corrupt += 1
        n = 0
        while os.path.exists(f"{self._db}.corrupt-{n}"):
            n += 1
        for suffix in ("", "-wal", "-shm"):  # a stale log must not meet the fresh file
            if os.path.exists(self._db + suffix):
                os.replace(self._db + suffix, f"{self._db}.corrupt-{n}{suffix}")
        return self._connection().execute(sql, args).fetchone()

    def close(self) -> None:
        """Close this process's connection, if any; the next use reopens it."""
        conn = self._conns.pop(os.getpid(), None)
        if conn is not None:
            conn.close()

    def get(self, digest: str) -> Tuple[bool, object]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss."""
        try:
            row = self._execute("SELECT entry FROM cells WHERE digest = ?", (digest,))
        except (OSError, sqlite3.Error):
            row = None  # a store that cannot be opened holds nothing
        if row is not None:
            try:
                value = json.loads(row[0])["value"]
            except (ValueError, KeyError, TypeError):
                # The row exists but cannot be used: still a miss (the cell
                # re-executes and its put replaces it), but a counted one.
                self.corrupt += 1
            else:
                self.hits += 1
                return True, value
        self.misses += 1
        return False, None

    def put(self, digest: str, value: object, meta: Optional[dict] = None) -> None:
        """Store ``value`` (must be JSON data) under ``digest``, committed on return."""
        payload = json.dumps({"value": value, "meta": meta or {}})
        self._execute("INSERT OR REPLACE INTO cells VALUES (?, ?)", (digest, payload))

    def __len__(self) -> int:
        """Number of entries in the store (0, and nothing created, if there is none)."""
        if not os.path.exists(self._db):
            return 0
        return self._execute("SELECT COUNT(*) FROM cells")[0]
