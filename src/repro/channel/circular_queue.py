"""The RDMA-capable circular queue backing a channel (paper Sec. 6.3).

The queue is a single flat memory region of ``credits x buffer_bytes``
bytes on the consumer node: slot ``i`` occupies offsets
``[i * buffer_bytes, (i+1) * buffer_bytes)``.  The flat layout is what
lets the real system transfer payload and metadata in one RDMA WRITE and
poll the footer byte of a slot; in the simulation, a slot's payload
becomes visible atomically when its transfer completes (see
:mod:`repro.rdma.region`), which preserves the footer-polling guarantee
that a reader never observes a partially-written buffer.

Producer and consumer both walk the ring in the same order, so FIFO
delivery follows from the in-order QP plus the credit protocol.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import ProtocolError
from repro.rdma.region import MemoryRegion

# Bytes of per-buffer metadata (sequence number + length + footer flag).
FOOTER_BYTES = 16


class CircularQueue:
    """Slot arithmetic and occupancy over one registered region."""

    def __init__(self, region: MemoryRegion, credits: int, buffer_bytes: int):
        if credits <= 0 or buffer_bytes <= FOOTER_BYTES:
            raise ProtocolError(
                f"invalid queue geometry: credits={credits}, "
                f"buffer_bytes={buffer_bytes} (footer needs {FOOTER_BYTES})"
            )
        if region.nbytes < credits * buffer_bytes:
            raise ProtocolError(
                f"region of {region.nbytes} B too small for "
                f"{credits} x {buffer_bytes} B slots"
            )
        self.region = region
        self.credits = credits
        self.buffer_bytes = buffer_bytes

    @property
    def payload_capacity(self) -> int:
        """Usable payload bytes per slot (slot size minus the footer)."""
        return self.buffer_bytes - FOOTER_BYTES

    def offset_of(self, slot: int) -> int:
        """Byte offset of ring slot ``slot`` (wraps modulo the ring)."""
        return (slot % self.credits) * self.buffer_bytes

    def check_payload(self, nbytes: int) -> None:
        """Reject payloads that do not fit a slot."""
        if nbytes < 0:
            raise ProtocolError(f"negative payload size {nbytes}")
        if nbytes > self.payload_capacity:
            raise ProtocolError(
                f"payload of {nbytes} B exceeds slot capacity "
                f"{self.payload_capacity} B"
            )

    def poll_slot(self, slot: int) -> bool:
        """Footer poll: is a fully-delivered buffer present in ``slot``?"""
        return self.region.poll(self.offset_of(slot))

    def read_slot(self, slot: int) -> tuple[Any, int]:
        """Return the ``(payload, nbytes)`` occupying ``slot``."""
        return self.region.load(self.offset_of(slot))

    def release_slot(self, slot: int) -> None:
        """Mark ``slot`` writable again after processing."""
        self.region.clear(self.offset_of(slot))
