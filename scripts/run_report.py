#!/usr/bin/env python
"""Render a structured trace log (JSONL) into a Markdown run report.

Produce a log with either::

    PYTHONPATH=src python -m repro.experiments run fig8a --trace run.jsonl

or programmatically::

    from repro.obs import tracing
    with tracing.capture(path="run.jsonl"):
        ...   # any code that creates Simulators

then render it::

    PYTHONPATH=src python scripts/run_report.py run.jsonl -o run.md
    PYTHONPATH=src python scripts/run_report.py run.jsonl          # stdout

The report contains per-layer event tables (sim / net / tcp / bittorrent
/ wp2p), the run's time span, and head/tail timeline excerpts per layer.
See docs/ARCHITECTURE.md ("Observability") for the full story.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.analysis.runreport import report_from_jsonl  # noqa: E402


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description="Render a JSONL trace log into a Markdown run report."
    )
    parser.add_argument("log", help="path to the JSONL event log")
    parser.add_argument(
        "-o", "--output", default=None,
        help="write the Markdown report here (default: stdout)",
    )
    parser.add_argument(
        "--title", default=None, help="report title (default: derived from path)"
    )
    parser.add_argument(
        "--excerpt", type=int, default=12,
        help="events shown at the head/tail of each layer's timeline (default 12)",
    )
    args = parser.parse_args(argv)

    try:
        markdown = report_from_jsonl(
            args.log, title=args.title, excerpt=args.excerpt
        )
    except FileNotFoundError:
        parser.error(f"no such trace log: {args.log}")
    except ValueError as exc:
        parser.error(f"{args.log} is not a JSONL trace log: {exc}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"report written to {args.output}")
    else:
        print(markdown)


if __name__ == "__main__":
    main()
