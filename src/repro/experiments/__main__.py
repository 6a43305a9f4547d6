"""Command-line runner for the figure reproductions.

Usage (the scenario registry + parallel runner)::

    python -m repro.experiments list                 # what can I run?
    python -m repro.experiments list --json
    python -m repro.experiments run fig2a --jobs 4   # parallel, cached
    python -m repro.experiments run fig4bc --set num_pieces=400 --json
    python -m repro.experiments run all --jobs 8 --no-cache
    python -m repro.experiments run fig3a --set runs=2 --set duration=10
    python -m repro.experiments run fig8c --check    # PASS/FAIL per claim

``run`` caches each simulated cell on disk keyed by (scenario, params,
seed, scenario axes, code version); a re-run with nothing changed
executes zero simulations.  The axis flags (``--backend``, ``--chaos*``,
``--strategy``/``--strategy-mix``, ``--content``, ``--catalog``/
``--demand``) map onto :data:`repro.runner.axes.AXES`.  ``--trace``
puts a JSONL trace sink in the run context, which forces serial
execution (the sink lives in this process).  ``--check`` evaluates each
scenario's claims (``Scenario.check``): one PASS/FAIL line per verdict,
``verdicts`` in the ``--json`` payload, and exit status 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from typing import Dict, List, Optional

from ..runner import (
    AXES,
    BACKENDS,
    Runner,
    ResultCache,
    UnknownScenarioError,
    default_cache_dir,
    get_scenario,
    print_progress,
    scenario_names,
)
from ..summation import left_sum

# `run all` order (the simple figures first, then the piecewise ones);
# kept stable so logs remain comparable.
ALL_ORDER: List[str] = [
    "fig2a", "fig2bc", "fig3a", "fig3b", "fig3c", "fig4a",
    "fig8a", "fig8b", "fig8c", "fig9c", "fig4bc", "fig9ab",
    "figx_chaos", "figx_scale", "figx_hybrid", "figx_arena", "figx_erasure",
    "figx_cdn", "figx_xval",
]


def _axes_from_flags(args, sets: Dict[str, object]) -> Dict[str, object]:
    """One raw value per scenario axis, from the flags its Axis declares.

    A flag that stands for a scenario parameter (``--catalog``) and a
    ``--set`` spelling of the same key is a contradiction — the axis
    beats the parameter, so one of the two values would be silently
    discarded — and an error.
    """
    axes: Dict[str, object] = {}
    for axis in AXES.values():
        if not axis.flags:
            continue
        values = []
        for flag in axis.flags:
            dest = flag[2:].replace("-", "_")
            value = getattr(args, dest)
            if value is not None and dest in sets:
                raise SystemExit(
                    f"error: {flag} conflicts with --set {dest}=...; "
                    f"pass one or the other"
                )
            values.append(value)
        axes[axis.name] = axis.from_flags(*values)
    return axes


def _json_or_text(text: str) -> object:
    """A JSON value, else the text itself (CLI-string forms like 'zipf:1.1')."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_set(pairs: List[str]) -> Dict[str, object]:
    """``key=value`` pairs; values are parsed as JSON, else kept as strings."""
    out: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        out[key] = _json_or_text(raw)
    return out


def _parse_strategy_mix(text: Optional[str]) -> Optional[Dict[str, object]]:
    """``--strategy-mix``: JSON, or ``[pop:]name=frac`` comma pairs.

    ``freerider=0.25`` targets the whole population;
    ``mobile:freerider=0.5,wired:tyrant=0.2`` targets populations.
    Validation of names/fractions happens in the Runner (repro.strategy).
    """
    if text is None:
        return None
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        parsed = {}
        for part in text.split(","):
            key, sep, raw = part.strip().partition("=")
            if not sep or not key:
                raise SystemExit(
                    f"--strategy-mix expects JSON or name=frac pairs, got {part!r}"
                )
            try:
                fraction = float(raw)
            except ValueError:
                raise SystemExit(
                    f"--strategy-mix fraction must be a number, got {raw!r}"
                ) from None
            population, colon, name = key.partition(":")
            if colon:
                parsed.setdefault(population.strip(), {})[name.strip()] = fraction
            else:
                parsed[key.strip()] = fraction
    if not isinstance(parsed, dict):
        raise SystemExit("--strategy-mix must be a JSON object or name=frac pairs")
    return parsed


def _resolve_names(figure: str) -> List[str]:
    if figure == "all":
        known = scenario_names()
        return [n for n in ALL_ORDER if n in known] + [
            n for n in known if n not in ALL_ORDER
        ]
    try:
        get_scenario(figure)
    except UnknownScenarioError as exc:
        # The CLI turns the registry error into a clean exit; library
        # callers of get_scenario/Runner.run get the exception itself.
        raise SystemExit(f"error: {exc.args[0]}") from None
    return [figure]


def _result_payload(run) -> Dict[str, object]:
    payload = asdict(run.result)
    payload["scenario"] = run.spec.name
    payload["spec_hash"] = run.spec.spec_hash()
    payload["backend"] = run.spec.backend
    payload["stats"] = {
        "total_cells": run.stats.total_cells,
        "executed": run.stats.executed,
        "shared": run.stats.shared,
        "cache_hits": run.stats.cache_hits,
        "failed": run.stats.failed,
        "elapsed_s": run.stats.elapsed_s,
    }
    payload["failures"] = [
        {"key": list(f.key), "seed": f.seed, "error": f.error}
        for f in run.failures
    ]
    return payload


def _cmd_list(args) -> None:
    names = scenario_names()
    if args.json:
        print(json.dumps(
            [
                {
                    "name": n,
                    "description": get_scenario(n).description,
                    "defaults": get_scenario(n).params(),
                }
                for n in names
            ],
            indent=2, sort_keys=True,
        ))
        return
    width = max(len(n) for n in names)
    for n in names:
        print(f"{n.ljust(width)}  {get_scenario(n).description}")


def _cmd_run(args) -> None:
    if args.chart and args.json:
        raise SystemExit("error: --chart and --json cannot be combined")
    names = []
    for figure in args.figures:
        for name in _resolve_names(figure):
            if name not in names:
                names.append(name)
    sets = _parse_set(args.set or [])
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    progress = None if args.quiet else print_progress
    try:
        runner = Runner(
            jobs=args.jobs, cache=cache, progress=progress, audit=args.audit,
            cell_timeout=args.cell_timeout, **_axes_from_flags(args, sets),
        )
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        raise SystemExit(f"error: {message}") from None
    failed_cells = failed_verdicts = 0

    def run_all() -> None:
        nonlocal failed_cells, failed_verdicts
        payloads = []
        for name in names:
            start = time.time()
            try:
                run = runner.run(name, sets)
            except ValueError as exc:
                raise SystemExit(f"error: {exc}") from None
            failed_cells += len(run.failures)
            verdicts = get_scenario(name).check(run) if args.check else []
            failed_verdicts += left_sum(not v.ok for v in verdicts)
            if args.json:
                payload = _result_payload(run)
                if args.check:
                    payload["verdicts"] = [asdict(v) for v in verdicts]
                payloads.append(payload)
            else:
                print(run.result.table())
                if args.chart:
                    from ..analysis import ascii_chart

                    print()
                    print(ascii_chart(run.result))
                for failure in run.failures:
                    print(f"warning: {failure.summary()}", file=sys.stderr)
                print(f"[{run.stats.summary()} | {time.time() - start:.1f}s]")
            for verdict in verdicts:
                print(f"[{name}] {verdict.line()}",
                      file=sys.stderr if args.json else sys.stdout)
            if not args.json:
                print()
        if args.json:
            out = payloads[0] if len(payloads) == 1 else payloads
            print(json.dumps(out, indent=2, sort_keys=True))

    if args.trace is not None:
        from ..obs import tracing

        try:
            open(args.trace, "w", encoding="utf-8").close()
        except OSError as exc:
            raise SystemExit(f"cannot write trace log {args.trace}: {exc}")
        with tracing.capture(path=args.trace):
            run_all()
        print(f"[trace written to {args.trace}]", file=sys.stderr)
    else:
        run_all()

    if (args.audit and failed_cells) or failed_verdicts:
        # Under --audit a failed cell is (almost always) an invariant
        # violation; make the run's exit status reflect it for CI, as a
        # failed claim does under --check.
        raise SystemExit(1)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="worker processes for independent cells (default 1)")
    parser.add_argument("--json", action="store_true",
                        help="emit the result as JSON instead of a table")
    parser.add_argument("--no-cache", action="store_true",
                        help="always simulate; do not read or write the cache")
    parser.add_argument("--cache-dir", default=default_cache_dir(), metavar="DIR",
                        help="result cache location (default: $REPRO_CACHE_DIR "
                             "or ./.repro-cache)")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a scenario parameter (JSON value); "
                             "repeatable")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="suppress per-cell progress lines on stderr")
    parser.add_argument("--backend", choices=list(BACKENDS), default=None,
                        help="simulation tier: 'packet' (event-level ground "
                             "truth), 'fluid' (repro.scale mean-field "
                             "engine for very large swarms), or 'hybrid' "
                             "(packet-level focal hosts inside a fluid "
                             "background); default: the scenario's "
                             "preferred backend")
    parser.add_argument("--chart", action="store_true",
                        help="also render an ASCII chart of the series "
                             "(not with --json)")
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write the structured cross-layer event log of "
                             "the run as JSONL to PATH (forces --jobs 1; "
                             "render it with scripts/run_report.py)")
    parser.add_argument("--audit", action="store_true",
                        help="check cross-layer invariants (repro.audit) in "
                             "every simulated cell; violations fail the cell "
                             "and the run exits non-zero (disables the cache; "
                             "refused on the fluid backend)")
    parser.add_argument("--check", action="store_true",
                        help="evaluate each scenario's claims: print one "
                             "PASS/FAIL line per verdict, add 'verdicts' to "
                             "--json, and exit 1 if any verdict fails")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell wall-clock budget; a cell exceeding it "
                             "becomes a failed cell instead of hanging the run")
    parser.add_argument("--chaos", metavar="PRESET", default=None,
                        help="inject a deterministic fault schedule "
                             "(repro.chaos preset: "
                             "churn|blackout|degrade|handoff-storm|"
                             "corruption|mixed) into every simulated cell")
    parser.add_argument("--chaos-intensity", type=float, default=1.0,
                        metavar="X",
                        help="scale the chaos preset's fault pressure "
                             "(0 disables; default 1.0)")
    parser.add_argument("--chaos-horizon", type=float, default=300.0,
                        metavar="SECONDS",
                        help="simulated window the chaos preset lays its "
                             "faults over (default 300)")
    parser.add_argument("--strategy", metavar="NAME", default=None,
                        help="run the whole peer population under one "
                             "repro.strategy client strategy "
                             "(reference|freerider|tyrant|propshare)")
    parser.add_argument("--strategy-mix", metavar="MIX", default=None,
                        type=_parse_strategy_mix,
                        help="strategy mix for the peer population: JSON "
                             "('{\"freerider\": 0.25}') or comma pairs "
                             "('freerider=0.25' / 'mobile:tyrant=0.5'); "
                             "unlisted fraction runs reference")
    parser.add_argument("--content", metavar="MODE", default=None,
                        help="content mode (repro.coding): 'replication' "
                             "(default pipeline), 'group:K/N' k-of-n erasure "
                             "coding (e.g. group:4/6), or a JSON object")
    parser.add_argument("--catalog", metavar="SPEC", default=None,
                        type=_json_or_text,
                        help="CDN catalog (repro.cdn) every CDN scenario "
                             "serves: an asset count, "
                             "'assets:N,size_kib:S,piece_kib:P', or a JSON "
                             "object (figx_cdn)")
    parser.add_argument("--demand", metavar="SPEC", default=None,
                        type=_json_or_text,
                        help="CDN request process (repro.cdn): "
                             "'zipf:ALPHA[@RATE]' (e.g. zipf:1.1@0.2) or a "
                             "JSON object with optional flash_crowd/"
                             "daily_cycle axes (figx_cdn)")


def main(argv=None) -> None:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the paper's figures via the scenario registry.",
    )
    sub = parser.add_subparsers(dest="command")

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--json", action="store_true",
                        help="emit names, descriptions and defaults as JSON")
    p_list.set_defaults(func=_cmd_list)

    p_run = sub.add_parser(
        "run", help="run one or more scenarios (or 'all') through the runner"
    )
    p_run.add_argument("figures", nargs="+", metavar="figure",
                       help="|".join(scenario_names()) + "|all")
    _add_run_arguments(p_run)
    p_run.set_defaults(func=_cmd_run)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.error("choose a command: list | run")
    args.func(args)


if __name__ == "__main__":
    main(sys.argv[1:])
