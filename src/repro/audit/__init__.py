"""repro.audit — runtime cross-layer invariant auditing.

The correctness analogue of :mod:`repro.obs`: where tracing *records*
what a simulation did, auditing *asserts* what must always hold while it
does it — byte conservation through every queue and link, token buckets
within ``[0, burst]``, a time-monotonic event queue, mutually consistent
piece/bitfield/ledger state, and legal wP2P state-machine transitions.
See :mod:`repro.audit.checkers` for the full catalogue of laws.

Two ways to use it:

Explicitly, on one simulator (attach **before** building the topology,
because components register themselves at construction)::

    from repro.audit import Auditor

    sim = Simulator(seed=1)
    auditor = Auditor().attach(sim)
    ...build and run...
    auditor.sweep()          # also runs automatically during run()

Ambiently, for code that builds its simulators internally — the run
context's ``audit`` flag, which ``Runner(audit=True)`` and the CLI's
``--audit`` flag enter around every cell::

    from repro import audit

    with audit.audited() as auditors:   # every new Simulator gets one
        run_transfer(seed=3, ber=1e-5, bidirectional=True)

Auditing is **off by default** and costs one ``is None`` check per
event / per instrumented constructor when off.  When on, a failed
invariant raises :class:`AuditViolation` at the exact simulated moment
the inconsistency is observed.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Optional

from .. import context
from .auditor import AuditViolation, Auditor, Violation

__all__ = [
    "AuditViolation",
    "Auditor",
    "Violation",
    "apply_defaults",
    "audited",
]


def apply_defaults(sim) -> Optional[Auditor]:
    """Kernel hook: attach a fresh auditor to ``sim`` when the run context
    audits.  Invariants are per-run, so each simulator gets its own."""
    raising = context.get("audit")
    if raising is None:
        return None
    auditor = Auditor(raise_on_violation=bool(raising)).attach(sim)
    made = context.get("auditors")
    if made is not None:
        made.append(auditor)  # type: ignore[attr-defined]
    return auditor


@contextmanager
def audited(raise_on_violation: bool = True) -> Iterator[List[Auditor]]:
    """Audit every simulator created inside the block.

    ``raise_on_violation`` is passed to each :class:`Auditor`.  Yields
    the (live) list of created auditors, so callers running in collect
    mode (``raise_on_violation=False``) can inspect
    ``auditor.violations`` afterwards.
    """
    made: List[Auditor] = []
    with context.scope(audit=raise_on_violation, auditors=made):
        yield made
