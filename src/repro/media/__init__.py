"""Media playability model (in-order-prefix playback)."""

from .playability import (
    average_curves,
    downloaded_fraction,
    playability_curve,
    playable_bytes,
    playable_fraction,
    playable_percentage_at,
    playable_prefix_pieces,
)

__all__ = [
    "average_curves",
    "downloaded_fraction",
    "playability_curve",
    "playable_bytes",
    "playable_fraction",
    "playable_percentage_at",
    "playable_prefix_pieces",
]
