"""Slash RDMA channels (paper Sec. 6).

An RDMA channel is a point-to-point, FIFO, credit-flow-controlled stream
of fixed-size buffers:

* the **circular queue** (:mod:`repro.channel.circular_queue`) is a flat
  RDMA-registered memory area of ``credits x buffer_bytes`` bytes on the
  consumer; buffers are written by one-sided RDMA WRITEs and detected by
  footer polling;
* the **protocol** (:mod:`repro.channel.protocol`) enforces the three
  invariants of Sec. 6.2: a write consumes a credit, processing a buffer
  returns a credit, and a producer without credit must wait;
* the **channel** (:mod:`repro.channel.channel`) exposes producer /
  consumer endpoints used by Slash (data ingestion, SSB delta shipping)
  and by RDMA UpPar (hash re-partitioning), plus a same-node
  :class:`~repro.channel.channel.LocalChannel` with identical semantics
  but memcpy-over-DRAM timing.
"""

from repro.channel.circular_queue import CircularQueue
from repro.channel.protocol import FlowControl, ChannelStats
from repro.channel.channel import (
    RdmaChannel,
    LocalChannel,
    ProducerEndpoint,
    ConsumerEndpoint,
    CHANNEL_EOS,
)

__all__ = [
    "CircularQueue",
    "FlowControl",
    "ChannelStats",
    "RdmaChannel",
    "LocalChannel",
    "ProducerEndpoint",
    "ConsumerEndpoint",
    "CHANNEL_EOS",
]
