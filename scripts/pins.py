#!/usr/bin/env python
"""Every value pin of the repository: one store, one record rule, one re-bless.

"Same results" is pinned as rows, one JSON file per tier under
``tests/data/pins/`` (``{"rows": {name: value}}``), written only here:

* ``packet`` — per cell of ``packet_golden.cases()``: result hash,
  kernel events dispatched and queue pushes;
* ``fluid`` — per ``fluid_golden.cases()`` integration: result hash;
* ``grammar`` — per scenario: default cells (and first seeds on a
  seed-free backend), one tiny run's values and the hash of
  ``assemble()`` over them; ``check`` re-assembles the recorded values
  and runs no simulation;
* ``axes`` — cell digests and spec hashes of non-default axis settings,
  and the default digest, still the body hashed before axes existed;
* ``perfbench`` — the benchmark's pass digests at seed 3 (~35 s); a
  failed op fails the check.

``check [SEL…]`` compares (a selector is ``tier`` or ``tier/row``; none
means every tier; a row only one side has is drift).  ``record [SEL…]``
appends the rows a file lacks and never rewrites one: on any drift it
exits 1 and writes nothing.  ``accept --cause TEXT tier/row…``
rewrites exactly the named rows, which must have drifted, and logs them
in ``tests/data/MOVED.md`` (docs/ARCHITECTURE.md § Changing results).
``git diff REF -- tests/data/pins`` lists what moved since REF.

Usage::

    PYTHONPATH=src python scripts/pins.py check packet fluid/arrivals_churn
    PYTHONPATH=src python scripts/pins.py record grammar
    PYTHONPATH=src python scripts/pins.py accept --cause "…" packet/fig4_handoff
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Set

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = ROOT / "tests" / "data" / "pins"
MOVED = ROOT / "tests" / "data" / "MOVED.md"

Rows = Dict[str, object]
#: A tier: its pinned rows -> row name -> thunk computing the row's value.
Tier = Callable[[Rows], Dict[str, Callable[[], object]]]


def _sha256(value: object) -> str:
    from repro.runner import canonical_json

    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# The tiers
# ----------------------------------------------------------------------
def _packet(pinned: Rows):
    import packet_golden

    return {
        name: functools.partial(packet_golden.measure, case)
        for name, case in packet_golden.cases().items()
    }


def _fluid(pinned: Rows):
    import fluid_golden

    return {
        name: lambda case=case: _sha256(case())
        for name, case in fluid_golden.cases().items()
    }


#: One tiny run per scenario: few points, two seeds where the scenario
#: has ``runs``, short horizons.
TINY: Dict[str, Dict[str, object]] = {
    "fig2a": {"bers": [0.0, 1e-5], "runs": 2, "duration": 3.0},
    "fig2bc": {"duration": 4.0},
    "fig3a": {"fractions": [0.2, 0.6], "runs": 2, "duration": 5.0},
    "fig3b": {"fractions": [0.2, 0.6], "runs": 2, "duration": 5.0},
    "fig3c": {"duration": 40.0, "runs": 2, "file_mb": 1.0},
    "fig4a": {"intervals": [None, 30.0], "runs": 2, "duration": 30.0},
    "fig4bc": {"num_pieces": 8, "runs": 2},
    "fig8a": {"bers": [1e-6, 1e-5], "runs": 2, "duration": 5.0},
    "fig8b": {"duration": 40.0, "runs": 2},
    "fig8c": {"bandwidths": [50_000.0, 100_000.0], "runs": 2, "duration": 5.0},
    "fig9ab": {"num_pieces": 8, "runs": 2},
    "fig9c": {"intervals": [60.0, 30.0], "runs": 2, "duration": 40.0},
    "figx_arena": {
        "mixes": ["clean", "freeriders", "tyrants", "robust-tyrants"],
        "runs": 1, "leechers": 4, "file_size_kib": 512, "duration": 60.0,
    },
    "figx_cdn": {"mobile_fractions": [0.0, 0.8], "runs": 2, "peers": 4,
                 "duration": 60.0},
    "figx_chaos": {"intensities": [0.0, 1.0], "runs": 2, "duration": 60.0,
                   "file_size_kib": 256},
    "figx_erasure": {"intensities": [0.0, 8.0], "runs": 2, "duration": 60.0,
                     "source_kib": 192},
    "figx_hybrid": {"background_sizes": [1000], "focal_mobile_fractions": [0.0, 1.0],
                    "focal_hosts": 2, "file_size_kib": 256, "max_time": 300.0},
    "figx_scale": {"swarm_sizes": [100, 1000], "runs": 2, "dt": 2.0},
    "figx_xval": {"runs": 1},
    "ablation_am_gamma": {"gammas": [2920, 8760], "runs": 2, "duration": 5.0},
    "ablation_lihd": {"runs": 2, "duration": 5.0},
    "ablation_mf_schedule": {"runs": 2, "num_pieces": 8},
    "ablation_rr_vs_tracker": {"tracker_intervals": [30.0, 60.0], "runs": 2,
                               "duration": 20.0},
    "ablation_sack": {"bers": [1e-6, 1e-5], "runs": 2, "duration": 5.0},
}


def _grammar_row(name: str, pinned: Optional[dict]) -> dict:
    """A scenario's grammar row; its cell values are the recorded ones
    unless the row is new or its overrides changed (then it runs them)."""
    from repro.runner import Runner, canonical_json, get_scenario

    scn = get_scenario(name)
    if pinned is not None and pinned["overrides"] == TINY[name]:
        values = pinned["values"]
    else:
        run = Runner(jobs=2).run(name, TINY[name])
        if run.failures:
            raise SystemExit(f"grammar/{name}: {[f.summary() for f in run.failures]}")
        values = sorted(
            ([list(key), seed, value] for (key, seed), value in run.values.items()),
            key=lambda row: canonical_json(row[:2]),
        )
    cells = list(scn.cells(scn.params()))
    assembled = scn.assemble(
        scn.params(TINY[name]),
        {(tuple(key), seed): value for key, seed, value in values}, [],
    )
    row = {
        "cells": sorted(([list(key), seed] for key, seed in cells), key=canonical_json),
        "overrides": TINY[name],
        "values": values,
        "assembled": _sha256(asdict(assembled)),
    }
    if "fluid" in scn.backends:  # fluid results are shared across seeds by key
        first: Dict[str, int] = {}
        for key, seed in cells:
            first.setdefault(canonical_json(list(key)), seed)
        row["first_seed"] = first
    return row


def _grammar(pinned: Rows):
    import repro.experiments  # noqa: F401  (registers the scenarios)
    from repro.runner import get_scenario, scenario_names

    return {
        name: functools.partial(_grammar_row, name, pinned.get(name))
        for name in scenario_names()
        if type(get_scenario(name)).__module__.startswith("repro.experiments")
    }


#: One non-default setting per axis, and all five at once: rows
#: ``cell_<name>`` and, for the single axes recorded before chaos joined
#: the spec hash, ``spec_<name>``.
AXIS_SETTINGS: Dict[str, Dict[str, object]] = {
    "backend": {"backend": "fluid"},
    "strategies": {"strategies": {"freerider": 0.25}},
    "content": {"content": "group:4/6"},
    "workload": {"workload": {"demand": "zipf:1.1@0.2"}},
    "chaos": {"chaos": {"preset": "mixed", "intensity": 1.0, "horizon": 300.0}},
    "all_five": {"backend": "fluid", "strategies": {"freerider": 0.25},
                 "content": "group:4/6", "workload": {"demand": "zipf:1.1@0.2"},
                 "chaos": "mixed"},
}


def _axes(pinned: Rows):
    from repro.runner import ScenarioSpec
    from repro.runner.spec import cell_digest

    def spec(**axes):
        return ScenarioSpec.create("figx", {"runs": 2}, seeds=[7], **axes)

    def digest(pinned_spec):
        return lambda: cell_digest(pinned_spec, ("k", 10), 7, code="pinned")

    rows = {f"cell_{name}": digest(spec(**axes)) for name, axes in AXIS_SETTINGS.items()}
    rows.update(
        (f"spec_{name}", spec(**AXIS_SETTINGS[name]).spec_hash)
        for name in ("backend", "strategies", "content", "workload")
    )
    # Default axes add nothing to a digest: cached results from before
    # each axis existed keep their addresses.
    rows["default"] = digest(spec())
    rows["backend_packet"] = digest(spec(backend="packet"))
    return rows


def _perfbench(pinned: Rows):
    @functools.lru_cache(maxsize=None)
    def workloads() -> dict:
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "summary.json")
            subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--passes", "1", "--seed", "3", "--summary-to", out],
                stdout=subprocess.DEVNULL, check=False,
            )
            with open(out, encoding="utf-8") as handle:
                found = json.load(handle)["workloads"]
        failed = {name: w["failed_checks"] for name, w in found.items() if w["failed"]}
        if failed:
            raise SystemExit(f"perfbench: failed ops {failed}")
        return found

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        w["name"]: lambda name=w["name"]: workloads()[name]["digest"]
        for w in spec["workloads"]
    }


TIERS: Dict[str, Tier] = {
    "packet": _packet, "fluid": _fluid, "grammar": _grammar,
    "axes": _axes, "perfbench": _perfbench,
}


# ----------------------------------------------------------------------
# The store and its one rule
# ----------------------------------------------------------------------
def load(tier: str) -> Rows:
    """The pinned rows of ``tier`` (none when it has no file yet)."""
    path = PINS / f"{tier}.json"
    return json.loads(path.read_text(encoding="utf-8"))["rows"] if path.exists() else {}


def _write(tier: str, rows: Rows) -> None:
    PINS.mkdir(parents=True, exist_ok=True)
    (PINS / f"{tier}.json").write_text(
        json.dumps({"rows": rows}, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


def _show(rows: Rows, name: str) -> str:
    """A row's value on one line: its JSON, or the start of that JSON's
    sha256 when it is long; ``(absent)`` when there is no such row."""
    if name not in rows:
        return "(absent)"
    text = json.dumps(rows[name], sort_keys=True)
    return text if len(text) <= 100 else "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:16]


def _compare(selectors: List[str]) -> list:
    """Per selected tier: its pinned rows, the current values of the
    selected rows, and the selected names that drifted (a row only one
    side has drifted).  A selector is ``tier`` or ``tier/row``."""
    chosen: Dict[str, Optional[Set[str]]] = {}
    for selector in selectors or TIERS:
        tier, _, row = selector.partition("/")
        if tier not in TIERS:
            raise SystemExit(f"unknown tier {tier!r} (tiers: {', '.join(TIERS)})")
        if not row:
            chosen[tier] = None
        elif chosen.setdefault(tier, set()) is not None:
            chosen[tier].add(row)
    compared = []
    for tier, names in chosen.items():
        pinned = load(tier)
        thunks = TIERS[tier](pinned)
        names = sorted(set(pinned) | set(thunks) if names is None else names)
        unknown = [name for name in names if name not in pinned and name not in thunks]
        if unknown:
            raise SystemExit(f"{tier} has no row {', '.join(unknown)}")
        current = {name: thunks[name]() for name in names if name in thunks}
        drifted = [
            name for name in names
            if name not in pinned or name not in current
            or json.dumps(pinned[name], sort_keys=True) != json.dumps(current[name], sort_keys=True)
        ]
        compared.append((tier, pinned, current, names, drifted))
    return compared


def check(selectors: List[str], record: bool = False) -> int:
    """Compare the selected rows with their pins; with ``record``, append
    the rows a file lacks — unless a pinned row drifted, and then write
    nothing at all."""
    compared = _compare(selectors)
    status = 0
    for tier, pinned, current, names, drifted in compared:
        for name in drifted:
            if name in pinned or not record:
                status = 1
                print(f"DRIFT {tier}/{name}: pinned {_show(pinned, name)} "
                      f"!= current {_show(current, name)}", file=sys.stderr)
        print(f"{tier}: {len(names) - len(drifted)}/{len(names)} rows match")
    for tier, pinned, current, names, drifted in compared:
        if record and drifted and not status:
            _write(tier, {**pinned, **{name: current[name] for name in drifted}})
            print(f"{tier}: {len(drifted)} rows appended")
    return status


def accept(cause: str, selectors: List[str]) -> int:
    """Re-bless exactly the named rows, each of which must have drifted."""
    if not cause.strip() or any("/" not in s for s in selectors):
        raise SystemExit("accept needs a --cause and names rows: tier/row")
    compared = _compare(selectors)
    for tier, pinned, current, names, drifted in compared:
        steady = sorted(set(names) - set(drifted))
        if steady:
            raise SystemExit(f"{tier}: {', '.join(steady)} did not drift; nothing written")
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    with open(MOVED, "a", encoding="utf-8") as moved:
        for tier, pinned, current, names, drifted in compared:
            rows = {name: v for name, v in pinned.items() if name not in names}
            _write(tier, {**rows, **{name: current[name] for name in names if name in current}})
            moved.writelines(
                f"- `{tier}/{name}` @ {commit}: {_show(pinned, name)} → "
                f"{_show(current, name)}. Cause: {cause.strip()}\n"
                for name in names
            )
    print(f"re-blessed {' '.join(selectors)}; see {MOVED.name}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for command in ("check", "record"):
        commands.add_parser(command).add_argument("selectors", nargs="*", metavar="SEL")
    moved = commands.add_parser("accept")
    moved.add_argument("--cause", required=True)
    moved.add_argument("selectors", nargs="+", metavar="TIER/ROW")
    args = parser.parse_args(argv)
    if args.command == "accept":
        return accept(args.cause, args.selectors)
    return check(args.selectors, record=args.command == "record")


if __name__ == "__main__":
    sys.exit(main())
