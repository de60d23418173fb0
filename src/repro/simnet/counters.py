"""Hardware-performance-counter emulation.

The paper analyses its systems with Intel's Top-Down method (Yasin,
ISPASS'14): every CPU cycle is attributed to one of five categories —
*retiring* (useful work), *front-end bound*, *bad speculation*,
*memory bound*, and *core bound*.  Real runs read these from PMU counters;
our simulation *accounts* them instead: every operation an engine executes
charges a cycle vector, and waiting on an empty RDMA channel charges
core-bound cycles (the ``pause``-instruction spinning the paper describes
in Sec. 8.3.3).

:class:`HwCounters` is the per-thread accumulator; it also tracks
instructions, per-level cache misses, DRAM traffic, and processed records,
from which every metric of Table 1 (IPC, instructions/record,
cycles/record, misses/record, aggregate memory bandwidth) is derived.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class CycleCategory(str, Enum):
    """Top-down cycle categories (Yasin, ISPASS'14)."""

    RETIRING = "retiring"
    FRONTEND = "frontend"
    BAD_SPEC = "bad_spec"
    MEMORY = "memory"
    CORE = "core"


_CATEGORIES = tuple(CycleCategory)
_RETIRING, _FRONTEND, _BAD_SPEC, _MEMORY, _CORE = _CATEGORIES


@dataclass
class HwCounters:
    """Accumulated counters for one hardware thread (or an aggregate)."""

    instructions: float = 0.0
    cycles: dict[CycleCategory, float] = field(
        default_factory=lambda: {c: 0.0 for c in _CATEGORIES}
    )
    l1_misses: float = 0.0
    l2_misses: float = 0.0
    llc_misses: float = 0.0
    mem_bytes: float = 0.0
    records: int = 0
    network_bytes: float = 0.0
    busy_seconds: float = 0.0
    # Spin-wait (pause) cycles; also included in cycles[CORE].
    wait_cycles: float = 0.0
    # RNR-NAK-style retry accounting (fault-injected runs): transfers
    # re-posted after a timeout, the bytes they re-sent (included in
    # network_bytes), and receiver-not-ready NAK events observed.
    retransmits: int = 0
    retransmitted_bytes: float = 0.0
    rnr_nacks: int = 0

    # -- accumulation -----------------------------------------------------
    def charge(self, cost: "OpCostLike", count: float = 1.0) -> None:
        """Accumulate ``count`` repetitions of an operation's cost."""
        self.instructions += cost.instructions * count
        cycles = self.cycles
        cycles[_RETIRING] += cost.retiring * count
        cycles[_FRONTEND] += cost.frontend * count
        cycles[_BAD_SPEC] += cost.bad_spec * count
        cycles[_MEMORY] += cost.memory * count
        cycles[_CORE] += cost.core * count
        self.l1_misses += cost.l1_misses * count
        self.l2_misses += cost.l2_misses * count
        self.llc_misses += cost.llc_misses * count
        self.mem_bytes += cost.mem_bytes * count

    def charge_wait(self, cycles: float) -> None:
        """Charge spin-wait (``pause``) cycles; they are core-bound."""
        self.cycles[_CORE] += cycles
        self.wait_cycles += cycles

    def count_records(self, n: int) -> None:
        """Record that ``n`` stream records were fully processed here."""
        self.records += n

    def count_network(self, nbytes: float) -> None:
        """Record bytes this thread pushed onto (or pulled off) the NIC."""
        self.network_bytes += nbytes

    def count_retransmit(self, nbytes: float) -> None:
        """Record one RNR-NAK-style retry: a transfer re-posted after a
        timeout, re-sending ``nbytes`` over the wire."""
        self.retransmits += 1
        self.retransmitted_bytes += nbytes
        self.rnr_nacks += 1

    def merge(self, other: "HwCounters") -> None:
        """Fold another counter set into this one (for aggregation)."""
        self.instructions += other.instructions
        for category in _CATEGORIES:
            self.cycles[category] += other.cycles[category]
        self.l1_misses += other.l1_misses
        self.l2_misses += other.l2_misses
        self.llc_misses += other.llc_misses
        self.mem_bytes += other.mem_bytes
        self.records += other.records
        self.network_bytes += other.network_bytes
        self.busy_seconds += other.busy_seconds
        self.wait_cycles += other.wait_cycles
        self.retransmits += other.retransmits
        self.retransmitted_bytes += other.retransmitted_bytes
        self.rnr_nacks += other.rnr_nacks

    def copy(self) -> "HwCounters":
        """Return an independent copy of this counter set."""
        clone = HwCounters()
        clone.merge(self)
        return clone

    # -- derived metrics ----------------------------------------------------
    @property
    def total_cycles(self) -> float:
        """All accounted cycles across the five top-down categories."""
        return sum(self.cycles.values())

    @property
    def ipc(self) -> float:
        """Instructions per cycle (0 if nothing ran)."""
        total = self.total_cycles
        return self.instructions / total if total else 0.0

    def per_record(self, value: float) -> float:
        """Normalise ``value`` by the number of processed records."""
        return value / self.records if self.records else 0.0

    @property
    def instructions_per_record(self) -> float:
        return self.per_record(self.instructions)

    @property
    def cycles_per_record(self) -> float:
        return self.per_record(self.total_cycles)

    @property
    def l1_misses_per_record(self) -> float:
        return self.per_record(self.l1_misses)

    @property
    def l2_misses_per_record(self) -> float:
        return self.per_record(self.l2_misses)

    @property
    def llc_misses_per_record(self) -> float:
        return self.per_record(self.llc_misses)

    @property
    def busy_cycles(self) -> float:
        """Cycles excluding spin-wait (``pause``) time — CPU doing work."""
        return self.total_cycles - self.wait_cycles

    @property
    def busy_ipc(self) -> float:
        """IPC over busy cycles only (what a sampling profiler on a
        non-idle thread would report)."""
        busy = self.busy_cycles
        return self.instructions / busy if busy else 0.0

    @property
    def busy_cycles_per_record(self) -> float:
        return self.per_record(self.busy_cycles)

    def breakdown(self, exclude_wait: bool = False) -> dict[CycleCategory, float]:
        """Return each category's share of total cycles (sums to 1).

        ``exclude_wait=True`` removes spin-wait cycles from the core
        category first, giving the busy-only breakdown.
        """
        cycles = dict(self.cycles)
        if exclude_wait:
            cycles[_CORE] = max(0.0, cycles[_CORE] - self.wait_cycles)
        total = sum(cycles.values())
        if total == 0:
            return {category: 0.0 for category in _CATEGORIES}
        return {category: cycles[category] / total for category in _CATEGORIES}

    def memory_bandwidth(self, elapsed_s: float) -> float:
        """Average DRAM traffic rate over ``elapsed_s`` seconds."""
        return self.mem_bytes / elapsed_s if elapsed_s > 0 else 0.0


class OpCostLike:
    """Structural protocol for anything :meth:`HwCounters.charge` accepts."""

    instructions: float
    retiring: float
    frontend: float
    bad_spec: float
    memory: float
    core: float
    l1_misses: float
    l2_misses: float
    llc_misses: float
    mem_bytes: float
