"""IPv4-style addressing and address allocation.

Addresses are plain dotted-quad strings; :class:`AddressAllocator` hands out
fresh ones.  Mobility is modelled exactly as the paper describes ("the IP
addresses of the clients are changed ... using ifup/ifdown"): a host releases
its address and acquires a new one, so any state keyed by the old address —
routes, TCP 4-tuples, tracker entries — goes stale.
"""

from __future__ import annotations

from typing import Set


class AddressAllocator:
    """Hands out unique addresses and tracks live assignments.

    A released address is never re-issued within a run; that mirrors DHCP
    pools large enough that a handing-off host practically never gets its
    old address back (which is what breaks peer identity in the paper).
    """

    def __init__(self) -> None:
        self._counter = 0
        self._live: Set[str] = set()

    def allocate(self) -> str:
        """Return a fresh, never-before-issued address."""
        self._counter += 1
        third = (self._counter >> 8) & 0xFF
        fourth = self._counter & 0xFF
        if self._counter > 0xFFFF:
            raise RuntimeError("address pool exhausted")
        addr = f"10.0.{third}.{fourth}"
        self._live.add(addr)
        return addr

    def release(self, address: str) -> None:
        """Mark ``address`` as no longer live (idempotent)."""
        self._live.discard(address)

    def reclaim(self, address: str) -> None:
        """Re-mark a previously issued address as live (idempotent).

        For hosts restored at a pinned address — e.g. a tracker coming
        back at its published IP — as opposed to a handing-off client,
        which must go through :meth:`allocate`.
        """
        self._live.add(address)

    def is_live(self, address: str) -> bool:
        return address in self._live

    @property
    def live_addresses(self) -> Set[str]:
        return set(self._live)
