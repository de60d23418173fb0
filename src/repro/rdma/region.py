"""Registered memory regions.

A real RDMA application registers a memory area with the NIC and receives
a local key (lkey) and a remote key (rkey); remote peers may only access
the region when they present the right rkey.  We model a region as a
sparse slot map from byte offset to a ``(payload, nbytes)`` pair: the
payload is the Python object the engines exchange, the byte count is what
timing and bounds checks operate on.

Delivery atomicity mirrors the paper's footer-polling argument (Sec. 6.3):
a slot becomes visible *only* when the simulated transfer has fully
completed, so polling a slot is equivalent to polling the final footer
byte of a real buffer — a reader can never observe a half-written buffer.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Optional

from repro.common.errors import ProtocolError

_rkey_counter = itertools.count(0x1000)


class MemoryRegion:
    """An rkey-protected, byte-addressed slot map owned by one node.

    ``on_store`` (if set) is invoked with the offset after every store.
    The channel layer uses it to wake a blocked poller the instant a
    footer byte would flip in real memory; it is a simulation-efficiency
    device, not extra information — the payload is identical to what a
    poll at that instant would observe.
    """

    def __init__(self, node_index: int, nbytes: int, name: str = ""):
        if nbytes <= 0:
            raise ProtocolError(f"region {name!r}: size must be positive")
        self.node_index = node_index
        self.nbytes = nbytes
        self.name = name
        self.rkey = next(_rkey_counter)
        self.on_store: Optional[Callable[[int], None]] = None
        self._slots: dict[int, tuple[Any, int]] = {}

    # -- local access -----------------------------------------------------
    def store(self, offset: int, payload: Any, nbytes: int) -> None:
        """Place ``payload`` (occupying ``nbytes``) at ``offset``."""
        self._check_range(offset, nbytes)
        self._slots[offset] = (payload, nbytes)
        if self.on_store is not None:
            self.on_store(offset)

    def load(self, offset: int) -> tuple[Any, int]:
        """Return the ``(payload, nbytes)`` stored at ``offset``."""
        try:
            return self._slots[offset]
        except KeyError:
            raise ProtocolError(
                f"region {self.name!r}: load from empty offset {offset}"
            ) from None

    def poll(self, offset: int) -> bool:
        """Return whether a fully-delivered payload sits at ``offset``.

        This is the simulation analogue of polling a buffer's footer byte.
        """
        return offset in self._slots

    def clear(self, offset: int) -> None:
        """Mark the slot at ``offset`` writable again (consume its payload)."""
        if offset not in self._slots:
            raise ProtocolError(
                f"region {self.name!r}: clear of empty offset {offset}"
            )
        del self._slots[offset]

    # -- remote access ------------------------------------------------------
    def remote_store(self, rkey: int, offset: int, payload: Any, nbytes: int) -> None:
        """A remote NIC writes into this region; the rkey must match."""
        if rkey != self.rkey:
            raise ProtocolError(
                f"region {self.name!r}: remote access with bad rkey "
                f"{rkey:#x} (expected {self.rkey:#x})"
            )
        if offset in self._slots:
            raise ProtocolError(
                f"region {self.name!r}: remote write would overwrite an "
                f"unconsumed buffer at offset {offset} — flow control violated"
            )
        self.store(offset, payload, nbytes)

    # -- helpers -------------------------------------------------------------
    def occupied_offsets(self) -> list[int]:
        """Offsets currently holding a payload, in ascending order."""
        return sorted(self._slots)

    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.nbytes:
            raise ProtocolError(
                f"region {self.name!r}: access [{offset}, {offset + nbytes}) "
                f"out of bounds for size {self.nbytes}"
            )

    def __repr__(self) -> str:
        return (
            f"MemoryRegion({self.name!r}, node={self.node_index}, "
            f"size={self.nbytes}, occupied={len(self._slots)})"
        )
