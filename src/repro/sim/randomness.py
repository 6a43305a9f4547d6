"""Deterministic, named random streams.

Every stochastic component (wireless loss, choker tie-breaks, piece
selection, mobility jitter, ...) draws from its *own* named stream derived
from the simulation master seed.  This gives two properties experiments rely
on:

* **Reproducibility** — a run is a pure function of its seed.
* **Variance isolation** — changing how one component consumes randomness
  does not perturb every other component's draws, so A/B comparisons
  (default client vs wP2P) see the same environment noise.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable substream seed from a master seed and a label."""
    return (master_seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8"))) & 0xFFFFFFFF


class RngRegistry:
    """A factory of named :class:`random.Random` streams under one seed."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The same name always maps to the same stream object, so components
        can call ``registry.stream("wireless.loss")`` repeatedly.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng
