"""repro.coding — erasure-coded content as a selectable protocol variant.

The paper's answer to piece starvation under mobile churn is MA
fetching, a piece-*selection* tweak.  This package adds the modern
availability answer instead: k-of-n erasure-coded piece groups
(PeerDAS-style), custody-style subset seeding, and sampling-based
availability estimation — selectable next to rarest-first/sequential/MA
through the ``content`` scenario axis (:mod:`repro.runner.axes`).

Two ways to use it, mirroring :mod:`repro.chaos`:

Explicitly, on one scenario::

    swarm = SwarmScenario(seed=7, content={"mode": "group", "k": 4, "n": 6})

Ambiently, for code that builds scenarios internally — the run
context's ``content`` value, which ``Runner(content=...)`` and the CLI's
``--content`` flag enter around every cell (an explicit ``content=``
beats it)::

    from repro import context

    with context.scope(content="group:4/6"):
        swarm = SwarmScenario(seed=7)   # codes its content

Content is **replication by default** — the default codec keeps the
piece pipeline on its historical fast path and cell digests
byte-identical to the pre-codec era.
"""

from __future__ import annotations

from .codec import (
    DEFAULT_K,
    DEFAULT_N,
    MODES,
    ContentSpec,
    GroupCodec,
    ReplicationCodec,
    coded_file_size,
    content_is_default,
    custody_column,
    make_codec,
    normalize_content,
)
from .sampling import AvailabilitySampler

__all__ = [
    "AvailabilitySampler",
    "ContentSpec",
    "DEFAULT_K",
    "DEFAULT_N",
    "GroupCodec",
    "MODES",
    "ReplicationCodec",
    "coded_file_size",
    "content_is_default",
    "custody_column",
    "make_codec",
    "normalize_content",
]

