"""The Slash engine facade: deploy a query on a simulated cluster.

:class:`SlashEngine` is the library's top-level entry point for the
native-RDMA engine.  Given a query and a set of physical data flows
(one per worker thread per node, as produced by the workload generators
in :mod:`repro.workloads`), it builds the simulated rack, wires the
``n^2`` SSB channels, runs every executor to completion, and returns a
:class:`RunResult` carrying the query output, the simulated throughput,
and the full hardware-counter picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.config import (
    ClusterConfig,
    DEFAULT_BUFFER_BYTES,
    DEFAULT_CREDITS,
    paper_cluster,
)
from repro.common.errors import ConfigError, QueryError
from repro.core.costs import DEFAULT_SLASH_COSTS, SlashCosts
from repro.core.executor import Flow, SlashExecutor
from repro.core.pipeline import compile_query
from repro.core.query import Query
from repro.core.system import (
    CAP_JOINS,
    CAP_SANITIZE,
    CAP_SCALE_OUT,
    CAP_SESSION_WINDOWS,
    MIGRATION_STRATEGIES,
    SHED_POLICIES,
    STRATEGY_ASYNC_SNAPSHOT,
    STRATEGY_EPOCH_BUDDY,
    SystemHooks,
    install_sanitizer,
)
from repro.rdma.connection import ConnectionManager
from repro.simnet.cluster import Cluster
from repro.simnet.counters import HwCounters
from repro.simnet.kernel import Simulator
from repro.state.partition import PartitionDirectory

# Library default epoch length for simulation-scale inputs.  The paper
# uses 64 MB per 1 GB/thread; we keep the same ~1/16-of-input proportion
# at the scaled-down volumes the harness generates.
SIM_EPOCH_BYTES = 1 * 1024 * 1024


@dataclass
class RunResult:
    """Everything a run produced: answers and performance observables."""

    system: str
    query_name: str
    nodes: int
    threads_per_node: int
    input_records: int
    sim_seconds: float
    aggregates: dict = field(default_factory=dict)
    join_pairs: list = field(default_factory=list)
    emitted: int = 0
    counters: HwCounters = field(default_factory=HwCounters)
    per_node_counters: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    @property
    def throughput_records_per_s(self) -> float:
        """Source records processed per simulated second."""
        if self.sim_seconds <= 0:
            return 0.0
        return self.input_records / self.sim_seconds

    def sorted_join_pairs(self) -> list:
        """Join output in a canonical order for P2 comparisons."""
        return sorted(self.join_pairs)

    def counter_roles(self) -> dict[str, HwCounters]:
        """Hardware counters keyed by pipeline role.

        Split-pipeline engines (UpPar/Flink) report ``sender`` and
        ``receiver`` counters; single-pipeline engines report one
        ``whole`` entry.  Breakdown figures iterate this instead of
        branching per system.
        """
        extra = self.extra
        if "sender_counters" in extra and "receiver_counters" in extra:
            return {
                "sender": extra["sender_counters"],
                "receiver": extra["receiver_counters"],
            }
        return {"whole": self.counters}


class SlashEngine(SystemHooks):
    """The native RDMA-accelerated engine (the paper's Slash)."""

    name = "slash"
    capabilities = frozenset(
        {CAP_SCALE_OUT, CAP_JOINS, CAP_SESSION_WINDOWS, CAP_SANITIZE}
    )
    # Slash's channel, scheduler, and recovery layers absorb every
    # modelled fault kind (values of repro.faults.plan.FaultKind).
    supported_fault_kinds = frozenset(
        {
            "node-crash",
            "nic-flap",
            "drop-chunk",
            "duplicate-delta",
            "stall",
            "credit-starvation",
            "net-partition",
            "asym-partition",
            "slow-node",
            "jitter",
        }
    )
    # Epoch-buddy (first in RECOVERY_STRATEGIES, so the default) is the
    # paper's native recovery path; the aligned Chandy–Lamport
    # coordinator (faults/snapshots.py) is opt-in.
    supported_recovery_strategies = frozenset(
        {STRATEGY_EPOCH_BUDDY, STRATEGY_ASYNC_SNAPSHOT}
    )
    # Both live-migration strategies: stop-the-world bulk transfer and
    # Megaphone-style fluid per-range sub-moves (repro.elastic).
    supported_migration_strategies = frozenset(MIGRATION_STRATEGIES)
    # Every shed policy of the overload plane (repro.overload).
    supported_shed_policies = frozenset(SHED_POLICIES)

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        credits: int = DEFAULT_CREDITS,
        buffer_bytes: int = DEFAULT_BUFFER_BYTES,
        epoch_bytes: int = SIM_EPOCH_BYTES,
        costs: SlashCosts = DEFAULT_SLASH_COSTS,
        leaders: Optional[list[int]] = None,
    ):
        self.cluster_config = cluster_config or paper_cluster()
        self.credits = credits
        self.buffer_bytes = buffer_bytes
        self.epoch_bytes = epoch_bytes
        self.costs = costs
        # Optional non-identity partition leadership (see
        # PartitionDirectory): e.g. leaders=[0]*n turns node 0 into a
        # dedicated state node and every other node into pure compute —
        # the decoupled layout of the paper's challenge C1.
        self.leaders = leaders

    def run(self, query: Query, flows: dict[tuple[int, int], Flow]) -> RunResult:
        """Execute ``query`` over ``flows`` and return the results.

        ``flows`` maps ``(node, thread)`` to that worker's event-time-
        ordered list of ``(stream_name, batch)`` items.
        """
        query.validate()
        nodes = self._node_count(flows)
        if nodes > self.cluster_config.nodes:
            raise ConfigError(
                f"flows span {nodes} nodes but the cluster has "
                f"{self.cluster_config.nodes}"
            )
        # A join-rescale provisions spare executors up front: flow-less
        # nodes that start as pure helpers (leading nothing) until the
        # migration coordinator re-points partitions onto them.
        spares = self.elastic_plan.spare_nodes if self.elastic_plan else 0
        total = nodes + spares
        sim = Simulator()
        if self.sanitize:
            install_sanitizer(sim)
        cluster = Cluster(sim, self.cluster_config.with_nodes(total))
        cm = ConnectionManager(cluster)
        leaders = self.leaders
        if spares and leaders is None:
            # One partition per executor as usual, but the spares' own
            # partitions start out led by the original members.
            leaders = [p if p < nodes else p % nodes for p in range(total)]
        directory = PartitionDirectory(total, leaders=leaders)
        plan = compile_query(query)

        elastic = None
        if self.elastic_plan is not None:
            from repro.elastic.migration import SlashElasticCoordinator

            elastic = SlashElasticCoordinator(
                sim, cluster, directory, self.elastic_plan, self.buffer_bytes
            )
            # Attaching before executor construction arms the executors'
            # merge/trigger/finalize hook points.
            sim.elastic = elastic

        overload = None
        if self.overload_config is not None:
            from repro.overload.coordinator import OverloadCoordinator

            overload = OverloadCoordinator(sim, self.overload_config)
            # Attaching before executor construction arms the workers'
            # per-batch admission hook.
            sim.overload = overload

        injector = None
        if self.fault_plan is not None and len(self.fault_plan):
            from repro.faults.injector import FaultInjector

            kwargs = dict(self.fault_overrides)
            kwargs.setdefault("strategy", self.recovery_strategy)
            injector = FaultInjector(sim, self.fault_plan, **kwargs)
            # Attaching the injector before executor construction flips
            # every layer onto its fault-tolerant code path.
            sim.faults = injector

        executors = []
        for node_index in range(total):
            if node_index < nodes:
                node_flows = [
                    flows[(node_index, thread)]
                    for thread in range(self._threads_on(flows, node_index))
                ]
            else:
                node_flows = []  # spare: no input, helper-only until join
            executors.append(
                SlashExecutor(
                    cluster,
                    cm,
                    directory,
                    cluster.node(node_index),
                    executor_id=node_index,
                    plan=plan,
                    flows=node_flows,
                    costs=self.costs,
                    credits=self.credits,
                    buffer_bytes=self.buffer_bytes,
                    epoch_bytes=self.epoch_bytes,
                )
            )
        for executor in executors:
            executor.connect(executors)
        if injector is not None:
            injector.register(cluster, directory, executors)
        if elastic is not None:
            elastic.register(executors)
        if overload is not None:
            overload.register(executors)
        for executor in executors:
            executor.start()
        if injector is not None:
            injector.arm()
        if elastic is not None:
            elastic.arm()
        if overload is not None:
            overload.arm()
        sim.run()

        if elastic is not None:
            elastic.check_complete()
        if overload is not None:
            # Exact shed accounting: offered = admitted + shed per
            # source, and every admitted record reached the pipeline.
            overload.finalize(
                executors,
                frozenset(injector.crashed) if injector is not None
                else frozenset(),
            )

        crashed = injector.crashed if injector is not None else set()
        for executor in executors:
            if executor.executor_id in crashed:
                continue
            if not executor.finished.fired:
                raise QueryError(
                    f"executor {executor.executor_id} never finished "
                    "(simulation drained early — protocol deadlock?)"
                )

        result = RunResult(
            system=self.name,
            query_name=query.name,
            nodes=nodes,
            threads_per_node=max(
                self._threads_on(flows, n) for n in range(nodes)
            ),
            input_records=sum(e.records_processed for e in executors),
            sim_seconds=sim.now,
        )
        for executor in executors:
            if executor.executor_id in crashed:
                # A crashed executor's output is its last committed
                # checkpoint: post-checkpoint emissions were discarded and
                # re-fired (for its led partitions) by the promoted leader.
                checkpoint = injector.committed_results(executor.executor_id)
                result.aggregates.update(checkpoint.aggregates)
                result.join_pairs.extend(checkpoint.join_pairs)
                result.emitted += checkpoint.emitted
            else:
                result.aggregates.update(executor.results.aggregates)
                result.join_pairs.extend(executor.results.join_pairs)
                result.emitted += executor.results.emitted
            node_counters = executor.node.counters()
            result.per_node_counters.append(node_counters)
            result.counters.merge(node_counters)
        lags = [
            lag for e in executors for lag in e.results.trigger_lag_s
        ]
        result.extra["trigger_lag_mean_s"] = sum(lags) / len(lags) if lags else 0.0
        result.extra["trigger_lag_max_s"] = max(lags) if lags else 0.0
        # Timestamped fires, cluster-wide: the elastic harness slices
        # these into migration-window vs steady-state latency.
        result.extra["trigger_events"] = sorted(
            event for e in executors for event in e.results.trigger_events
        )
        result.extra["connections"] = cm.connection_count
        result.extra["state_bytes"] = sum(
            e.backend.total_state_bytes() for e in executors
        )
        if injector is not None:
            result.extra["faults"] = injector.report()
            # Kernel queue health under chaos: RTO/credit races must not
            # leave dead timers accumulating (FirstOf losers are cancelled,
            # not fired into no-ops).
            result.extra["kernel_queue"] = {
                "scheduled_events": sim.scheduled_events,
                "cancelled_events": sim.cancelled_events,
                "pending_timers_at_drain": sim.pending_timers,
            }
        if elastic is not None:
            result.extra["elastic"] = elastic.report()
        if overload is not None:
            result.extra["overload"] = overload.report()
            if self.overload_config.record_masks:
                # Per-batch keep masks for the harness's differential
                # oracle: rebuild the admitted-only flows and prove the
                # run lost nothing *besides* what it logged as shed.
                result.extra["overload_keep_masks"] = dict(overload.keep_masks)
        if sim.sanitize is not None:
            result.extra["sanitizer_checks"] = sim.sanitize.check_counts()
        return result

    @staticmethod
    def _node_count(flows: dict[tuple[int, int], Flow]) -> int:
        if not flows:
            raise ConfigError("no flows supplied")
        return max(node for node, _thread in flows) + 1

    @staticmethod
    def _threads_on(flows: dict[tuple[int, int], Flow], node: int) -> int:
        threads = [thread for n, thread in flows if n == node]
        if not threads:
            raise ConfigError(f"node {node} has no flows")
        if sorted(threads) != list(range(len(threads))):
            raise ConfigError(f"node {node} thread ids must be dense from 0")
        return len(threads)
