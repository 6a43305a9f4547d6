"""Piece bitfields."""

from __future__ import annotations

from typing import Iterable, Iterator


class Bitfield:
    """A fixed-size set of piece indices with protocol wire sizing.

    A set-bit counter is maintained incrementally by :meth:`set` /
    :meth:`clear`, so :meth:`count` — and therefore :attr:`complete`,
    which sits on the availability/interest hot path — is O(1) instead
    of a per-byte popcount over the whole field.
    """

    __slots__ = ("size", "_bits", "_num_set")

    def __init__(self, size: int, have: Iterable[int] = ()) -> None:
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self._bits = bytearray((size + 7) // 8)
        self._num_set = 0
        for index in have:
            self.set(index)

    @classmethod
    def full(cls, size: int) -> "Bitfield":
        bf = cls(size)
        bf._bits[:-1] = b"\xff" * (len(bf._bits) - 1)
        tail = size & 7
        bf._bits[-1] = 0xFF if tail == 0 else (0xFF00 >> tail) & 0xFF
        bf._num_set = size
        return bf

    # ------------------------------------------------------------------
    # set/has/clear sit on the piece-selection hot path (hundreds of
    # thousands of calls per packet-level run), so the bounds check is
    # inlined rather than delegated to _check().
    def set(self, index: int) -> None:
        if index < 0 or index >= self.size:
            raise IndexError(f"piece index {index} out of range (size {self.size})")
        mask = 0x80 >> (index & 7)
        if not self._bits[index >> 3] & mask:
            self._bits[index >> 3] |= mask
            self._num_set += 1

    def clear(self, index: int) -> None:
        if index < 0 or index >= self.size:
            raise IndexError(f"piece index {index} out of range (size {self.size})")
        mask = 0x80 >> (index & 7)
        if self._bits[index >> 3] & mask:
            self._bits[index >> 3] &= ~mask & 0xFF
            self._num_set -= 1

    def has(self, index: int) -> bool:
        if index < 0 or index >= self.size:
            raise IndexError(f"piece index {index} out of range (size {self.size})")
        return (self._bits[index >> 3] & (0x80 >> (index & 7))) != 0

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.size and self.has(index)

    def count(self) -> int:
        return self._num_set

    @property
    def complete(self) -> bool:
        return self._num_set == self.size

    @property
    def empty(self) -> bool:
        return self._num_set == 0

    def indices(self) -> Iterator[int]:
        bits = self._bits
        for i in range(self.size):
            if bits[i >> 3] & (0x80 >> (i & 7)):
                yield i

    def missing(self) -> Iterator[int]:
        bits = self._bits
        for i in range(self.size):
            if not bits[i >> 3] & (0x80 >> (i & 7)):
                yield i

    def copy(self) -> "Bitfield":
        bf = Bitfield(self.size)
        bf._bits[:] = self._bits
        bf._num_set = self._num_set
        return bf

    def has_piece_other_is_missing(self, other: "Bitfield") -> bool:
        """True if we hold any piece ``other`` lacks (interest test)."""
        if other.size != self.size:
            raise ValueError("bitfield size mismatch")
        a = int.from_bytes(self._bits, "big")
        b = int.from_bytes(other._bits, "big")
        return bool(a & ~b)

    @property
    def wire_bytes(self) -> int:
        """Payload bytes of the BITFIELD message body."""
        return len(self._bits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitfield):
            return NotImplemented
        return self.size == other.size and self._bits == other._bits
