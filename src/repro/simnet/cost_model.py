"""Analytical CPU micro-architecture cost model.

Real hardware charges a stream engine per record through instruction
execution, branch (mis)prediction, and the cache hierarchy.  This module
substitutes an *analytical* model for the PMU: every engine operation is
priced as an :class:`OpCost` — an instruction count, a cycle vector over
the top-down categories, per-level cache misses, and DRAM traffic.

Two ingredients:

* :class:`CostProfile` — the *compute* part of an operation: instructions
  and non-memory cycles.  Retiring cycles are ``instructions / retire_width``
  (Skylake retires up to 4 uops/cycle, Sec. 8.3.4 of the paper); the
  front-end, bad-speculation, and core components are per-operation
  constants calibrated against the paper's measurements (Table 1,
  Figs. 9-10) and documented at each profile definition site.

* :class:`CacheModel` — the *memory* part: an inclusive three-level model
  where the probability that a random access into a working set of ``W``
  bytes hits a cache of ``S`` bytes is ``min(1, S / W)``.  Each miss level
  charges its load-to-use latency divided by the operation's memory-level
  parallelism (out-of-order cores overlap independent misses; streaming
  RMW batches reach high MLP, pointer-chasing appends do not).  LLC misses
  additionally move a cache line from DRAM (and a dirty write-back for
  stores), which feeds the aggregate-memory-bandwidth column of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.config import CpuConfig
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class OpCost:
    """The full price of one operation instance (typically one record)."""

    instructions: float = 0.0
    retiring: float = 0.0
    frontend: float = 0.0
    bad_spec: float = 0.0
    memory: float = 0.0
    core: float = 0.0
    l1_misses: float = 0.0
    l2_misses: float = 0.0
    llc_misses: float = 0.0
    mem_bytes: float = 0.0

    @property
    def total_cycles(self) -> float:
        """Sum of all cycle categories."""
        return self.retiring + self.frontend + self.bad_spec + self.memory + self.core

    def plus(self, other: "OpCost") -> "OpCost":
        """Return the component-wise sum of two costs."""
        return OpCost(
            instructions=self.instructions + other.instructions,
            retiring=self.retiring + other.retiring,
            frontend=self.frontend + other.frontend,
            bad_spec=self.bad_spec + other.bad_spec,
            memory=self.memory + other.memory,
            core=self.core + other.core,
            l1_misses=self.l1_misses + other.l1_misses,
            l2_misses=self.l2_misses + other.l2_misses,
            llc_misses=self.llc_misses + other.llc_misses,
            mem_bytes=self.mem_bytes + other.mem_bytes,
        )

    def scaled(self, factor: float) -> "OpCost":
        """Return this cost multiplied by ``factor`` in every component."""
        return OpCost(
            instructions=self.instructions * factor,
            retiring=self.retiring * factor,
            frontend=self.frontend * factor,
            bad_spec=self.bad_spec * factor,
            memory=self.memory * factor,
            core=self.core * factor,
            l1_misses=self.l1_misses * factor,
            l2_misses=self.l2_misses * factor,
            llc_misses=self.llc_misses * factor,
            mem_bytes=self.mem_bytes * factor,
        )


@dataclass(frozen=True)
class CostProfile:
    """The compute (non-cache) price of an operation.

    ``frontend``/``bad_spec``/``core`` are cycles per operation; retiring
    cycles are derived from ``instructions``.  ``mlp`` is the memory-level
    parallelism the operation achieves when its cache accesses miss.
    """

    name: str
    instructions: float
    frontend: float = 0.0
    bad_spec: float = 0.0
    core: float = 0.0
    mlp: float = 8.0

    def __post_init__(self) -> None:
        if self.instructions < 0:
            raise ConfigError(f"profile {self.name!r}: negative instructions")
        if self.mlp <= 0:
            raise ConfigError(f"profile {self.name!r}: mlp must be positive")

    def scaled(self, factor: float) -> "CostProfile":
        """Uniformly scale the compute price (used for runtime multipliers)."""
        return replace(
            self,
            instructions=self.instructions * factor,
            frontend=self.frontend * factor,
            bad_spec=self.bad_spec * factor,
            core=self.core * factor,
        )


class CacheModel:
    """Inclusive three-level cache model over working-set sizes."""

    def __init__(self, cpu: CpuConfig):
        self.cpu = cpu
        self._miss_memo: dict[float, tuple[float, float, float]] = {}

    def miss_rates(self, working_set_bytes: float) -> tuple[float, float, float]:
        """Per-access miss probability at L1, L2, LLC for a random access.

        A random access into a uniformly-hot working set of ``W`` bytes hits
        a cache of ``S`` bytes with probability ``min(1, S / W)``; the three
        returned values are the per-access *miss* probabilities, which are
        non-increasing in cache size (inclusive hierarchy).  Memoized: the
        same working-set size recurs for every record of a batch.
        """
        if working_set_bytes <= 0:
            return 0.0, 0.0, 0.0
        cached = self._miss_memo.get(working_set_bytes)
        if cached is not None:
            return cached
        cpu = self.cpu
        l1_miss = max(0.0, 1.0 - cpu.l1d_bytes / working_set_bytes)
        l2_miss = max(0.0, 1.0 - cpu.l2_bytes / working_set_bytes)
        llc_miss = max(0.0, 1.0 - cpu.llc_bytes / working_set_bytes)
        # Inclusive hierarchy: a level cannot miss more often than the one
        # above it hits, so clamp to non-increasing.
        l2_miss = min(l2_miss, l1_miss)
        llc_miss = min(llc_miss, l2_miss)
        rates = (l1_miss, l2_miss, llc_miss)
        if len(self._miss_memo) < 65536:
            self._miss_memo[working_set_bytes] = rates
        return rates

    def access_cost(
        self,
        working_set_bytes: float,
        lines_touched: float,
        mlp: float,
        dirty_fraction: float = 1.0,
    ) -> OpCost:
        """Price ``lines_touched`` random cache-line accesses into a set.

        Returns an :class:`OpCost` carrying only the memory category, the
        per-level miss counts, and the DRAM traffic (line fill plus a
        write-back for the ``dirty_fraction`` of evicted lines).
        """
        cpu = self.cpu
        l1_miss, l2_miss, llc_miss = self.miss_rates(working_set_bytes)
        l1 = lines_touched * l1_miss
        l2 = lines_touched * l2_miss
        llc = lines_touched * llc_miss
        hits_l1 = lines_touched - l1
        hits_l2 = l1 - l2
        hits_llc = l2 - llc
        stall = (
            hits_l1 * cpu.l1_latency_cycles
            + hits_l2 * cpu.l2_latency_cycles
            + hits_llc * cpu.llc_latency_cycles
            + llc * cpu.dram_latency_cycles
        ) / mlp
        traffic = llc * cpu.cacheline_bytes * (1.0 + dirty_fraction)
        return OpCost(memory=stall, l1_misses=l1, l2_misses=l2, llc_misses=llc, mem_bytes=traffic)

    def streaming_cost(self, nbytes: float, mlp: float = 16.0) -> OpCost:
        """Price a sequential streaming read/write of ``nbytes``.

        Sequential access misses once per cache line at every level
        (compulsory misses) but prefetchers hide most latency, hence the
        high default MLP.
        """
        cpu = self.cpu
        lines = nbytes / cpu.cacheline_bytes
        stall = lines * cpu.dram_latency_cycles / mlp
        return OpCost(
            memory=stall,
            l1_misses=lines,
            l2_misses=lines,
            llc_misses=lines,
            mem_bytes=nbytes,
        )


class CostModel:
    """Combines a :class:`CostProfile` with the :class:`CacheModel`.

    Engines hold one instance per node and call :meth:`op` to price each
    operation kind; results are cached because the same (profile, working
    set) pair recurs for every batch.
    """

    RETIRE_WIDTH = 4.0  # Skylake retires up to 4 uops per cycle.

    def __init__(self, cpu: CpuConfig):
        self.cpu = cpu
        self.cache = CacheModel(cpu)
        self._memo: dict[tuple, OpCost] = {}
        self._compute_memo: dict[CostProfile, OpCost] = {}
        # Wall-clock multiplier applied in :meth:`seconds` — the
        # slow-node gray-fault lever.  Kept out of the memo tables on
        # purpose: they cache cycle counts, and pricing happens at
        # :meth:`seconds` time, so a mid-run change applies immediately.
        self._slowdown = 1.0

    def slow_down(self, factor: float) -> None:
        """Run this node at ``factor`` of nominal speed (slow-node fault).

        ``factor`` is the fraction of nominal throughput that survives
        (0.25 = the node runs at quarter speed).  Only one slowdown can
        be active at a time — plans with overlapping windows are
        rejected by :meth:`FaultPlan.validate`.
        """
        if not 0.0 < factor < 1.0:
            raise ConfigError(
                f"slow_down factor must be in (0, 1), got {factor}"
            )
        self._slowdown = 1.0 / factor

    def restore_speed(self) -> None:
        """Undo :meth:`slow_down`: return to nominal speed."""
        self._slowdown = 1.0

    def compute_cost(self, profile: CostProfile) -> OpCost:
        """Price only the compute portion of ``profile`` (no cache access).

        Memoized on the (frozen) profile: engines price the same handful
        of profiles for every record of a run.
        """
        cached = self._compute_memo.get(profile)
        if cached is not None:
            return cached
        cost = OpCost(
            instructions=profile.instructions,
            retiring=profile.instructions / self.RETIRE_WIDTH,
            frontend=profile.frontend,
            bad_spec=profile.bad_spec,
            core=profile.core,
        )
        self._compute_memo[profile] = cost
        return cost

    def op(
        self,
        profile: CostProfile,
        working_set_bytes: float = 0.0,
        lines_touched: float = 0.0,
        dirty_fraction: float = 1.0,
    ) -> OpCost:
        """Price one operation: compute portion + random cache accesses."""
        key = (profile.name, profile.instructions, working_set_bytes, lines_touched, dirty_fraction)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        cost = self.compute_cost(profile)
        if lines_touched > 0:
            cost = cost.plus(
                self.cache.access_cost(
                    working_set_bytes, lines_touched, profile.mlp, dirty_fraction
                )
            )
        self._memo[key] = cost
        return cost

    def seconds(self, cost: OpCost, count: float = 1.0) -> float:
        """Wall-clock (simulated) seconds for ``count`` instances of ``cost``."""
        return cost.total_cycles * count * self._slowdown / self.cpu.frequency_hz
