"""Every public function earns a product caller.

``scripts/reach_census.py`` runs the product (the non-pytest steps of
ci.yml and one pass of each benchmark workload) under ``sys.monitoring``
and records, in ``tests/data/reach.json``, which public functions under
``src/repro`` it enters.  A public function the product never enters is
code only tests keep alive: it is deleted with its tests, or it sits in
the file's ``kept`` map with a one-line reason.  This check reads the
file and the source only, so it runs on every supported Python.
"""

from __future__ import annotations

import json
import pathlib

import reach_census

RECORD = "run: python3.12 scripts/reach_census.py --record"


def _state():
    data = json.loads(reach_census.REACH.read_text())
    public = reach_census.public_functions()
    product = {f"{m}:{n}" for m, names in data["product"].items() for n in names}
    return public, product, data["kept"]


def test_every_public_function_is_reached_or_kept():
    public, product, kept = _state()
    orphans = [
        f"{module}:{name}"
        for module, names in public.items()
        for name, stub in names.items()
        if not stub and f"{module}:{name}" not in product
        and not any(reach_census.kept_matches(key, module, name) for key in kept)
    ]
    assert not orphans, (
        f"public functions no product path runs: {orphans}; give them a caller, "
        f"delete them, or keep them in tests/data/reach.json with a reason ({RECORD})"
    )


def test_reach_file_names_only_live_functions():
    public, product, kept = _state()
    names = {f"{m}:{n}" for m, found in public.items() for n in found}
    stale = sorted(product - names)
    assert not stale, f"reach.json names functions that no longer exist: {stale} ({RECORD})"
    for key, reason in kept.items():
        covered = [n for n in names if n == key or n.startswith(key + ".")]
        assert covered, f"kept entry {key} names no public function"
        assert reason.strip(), f"kept entry {key} gives no reason"
        assert not set(covered) <= product, f"kept entry {key} is product-reached ({RECORD})"


def test_the_census_reads_its_commands_from_ci():
    runs = dict(reach_census.product_runs())
    assert "experiments-md" in runs and "benchmark:packet_swarm" in runs
    every = [argv for steps in runs.values() for _, argv in steps]
    assert all("pytest" not in argv for argv in every)
    assert all(argv[argv.index("--jobs") + 1] == "1" for argv in every if "--jobs" in argv)
