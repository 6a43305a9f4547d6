#!/usr/bin/env python
"""Say what a result cache holds, from the artifact alone.

    PYTHONPATH=src python scripts/cache_check.py .repro-cache
    PYTHONPATH=src python scripts/cache_check.py .repro-cache --expect-entries 2

Prints the entry count, the bytes on disk, entries per scenario (from the
``meta`` each put records) and any quarantined database files; exits 1
when ``--expect-entries`` is given and not met.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import glob
import json
import os
import sqlite3
import sys

from repro.runner import ResultCache
from repro.runner.cache import DB_NAME


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", help="cache root (the directory given as --cache-dir)")
    parser.add_argument("--expect-entries", type=int, metavar="N")
    args = parser.parse_args(argv)

    db = os.path.join(args.root, DB_NAME)
    # Sized before this process adds a -wal/-shm of its own.
    size = sum(map(os.path.getsize, glob.glob(db + "*")))
    entries = len(ResultCache(args.root))
    scenarios = collections.Counter()
    if entries:
        with contextlib.closing(sqlite3.connect(db)) as conn:
            for (entry,) in conn.execute("SELECT entry FROM cells"):
                try:
                    scenarios[json.loads(entry)["meta"].get("scenario", "?")] += 1
                except (ValueError, KeyError, TypeError, AttributeError):
                    scenarios["<unreadable row>"] += 1
    print(f"{db}: {entries} entries, {size} bytes")
    for name, count in sorted(scenarios.items()):
        print(f"  {name}: {count}")
    for path in sorted(glob.glob(db + ".corrupt-*")):
        print(f"  quarantined: {path}")
    if args.expect_entries is not None and entries != args.expect_entries:
        print(f"expected {args.expect_entries} entries", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
