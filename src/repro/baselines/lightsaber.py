"""A LightSaber-shaped scale-up SPE (single node, late merge).

LightSaber (Theodorakis et al., SIGMOD'20) is the paper's scale-up
representative: task-based parallelism on one multi-core node, workers
eagerly computing thread-local partial window aggregates that are merged
lazily when a window completes.  Each worker folds its batches' group
columns into its own :class:`~repro.state.lss.LogStructuredStore`; a
window fires through :func:`repro.core.fire.fire_aggregate` over all of
them, which merges each key's partials across the threads and charges
one merge per folded partial before the emits.  Two fidelity points from
the paper:

* LightSaber shares a **single task queue** among workers (Sec. 5.3), so
  every task dispatch pays a synchronisation cost that grows with the
  worker count;
* it **does not support joins** (Sec. 8.2.4) — join queries are rejected.

Because it runs on one node, there is no network; the engine's ceiling
is the socket's cores and DRAM bandwidth, which is exactly the COST
argument of Fig. 7.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Generator, Optional

import numpy as np

from repro.baselines.costs import LIGHTSABER_COSTS, ScaleUpCosts
from repro.common.config import ClusterConfig, paper_cluster
from repro.common.errors import ConfigError, QueryError
from repro.core.engine import RunResult
from repro.core.fire import ExecutorResults, fire_aggregate
from repro.core.pipeline import compile_query
from repro.core.progress import WindowTriggerState
from repro.core.query import Query
from repro.core.system import CAP_SANITIZE, SystemHooks, install_sanitizer
from repro.core.windows import SessionWindows
from repro.simnet.cluster import Cluster
from repro.simnet.kernel import AllOf, Simulator
from repro.state.lss import LogStructuredStore
from repro.state.ssb import state_keys
from repro.workloads.base import Flow


class LightSaberEngine(SystemHooks):
    """Scale-up, single-node, late-merge window aggregation engine."""

    name = "lightsaber"
    # Single node, no network, no joins/sessions, no recovery plane —
    # the capability-gating poster child (fault injection fails fast).
    capabilities = frozenset({CAP_SANITIZE})

    def __init__(
        self,
        cluster_config: Optional[ClusterConfig] = None,
        costs: ScaleUpCosts = LIGHTSABER_COSTS,
    ):
        self.cluster_config = cluster_config or paper_cluster(1)
        self.costs = costs

    def run(self, query: Query, flows: dict[tuple[int, int], Flow]) -> RunResult:
        query.validate()
        if query.is_join:
            raise QueryError("LightSaber does not support join queries (paper Sec. 8.2.4)")
        nodes = {node for node, _thread in flows}
        if nodes != {0}:
            raise ConfigError(
                f"LightSaber is single-node; flows reference nodes {sorted(nodes)}"
            )
        threads = max(thread for _node, thread in flows) + 1
        plan = compile_query(query)
        sim = Simulator()
        if self.sanitize:
            install_sanitizer(sim)
        cluster = Cluster(sim, self.cluster_config.with_nodes(1))
        node = cluster.node(0)
        if threads > len(node.cores):
            raise ConfigError(f"{threads} threads exceed {len(node.cores)} cores")

        window = plan.window
        if isinstance(window, SessionWindows):
            raise QueryError("LightSaber supports bucket/slice windows only")
        # Thread-local partial states (the eager half of late merge).
        stores = [
            LogStructuredStore(plan.crdt, name=f"ls.t{thread}") for thread in range(threads)
        ]
        local_bytes = [0.0] * threads
        flow_maxes = [float("-inf")] * threads
        flow_done = [False] * threads
        trigger = WindowTriggerState(window)
        results = ExecutorResults()
        records = [0]
        # Task-queue contention grows with the number of contenders.
        queue_cost_profile = self.costs.task_queue_sync.scaled(
            1.0 + 0.15 * max(0, threads - 1)
        )

        disorder = max(stream.disorder_ms for stream in query.streams)

        def frontier() -> float:
            live = [
                m - disorder if m != float("-inf") else m
                for m, done in zip(flow_maxes, flow_done)
                if not done
            ]
            return min(live) if live else float("inf")

        def merge_due(core) -> Generator[Any, Any, None]:
            for window_id in trigger.due_windows(frontier()):
                # No ingest times are kept: LightSaber reports no trigger lag.
                yield from fire_aggregate(
                    stores, plan, window_id, sim.now, results, {},
                    partial(late_merge, core),
                )

        def late_merge(core, count: int, folded: int) -> Generator[Any, Any, None]:
            cost_model = node.cost_model
            merge_cost = cost_model.op(
                self.costs.merge_pair, 4096.0, self.costs.merge_lines
            )
            yield from core.execute(merge_cost, float(folded))
            yield from core.execute(cost_model.compute_cost(self.costs.emit), float(count))

        def worker(thread: int) -> Generator[Any, Any, None]:
            core = node.core(thread)
            cost_model = node.cost_model
            store = stores[thread]
            for stream_name, batch in flows[(0, thread)]:
                records[0] += len(batch)
                # Fetch a task from the single shared queue.
                yield from core.execute(
                    cost_model.compute_cost(queue_cost_profile), 1.0
                )
                yield from core.execute(
                    cost_model.cache.streaming_cost(batch.wire_bytes), 1.0
                )
                yield from core.execute(
                    cost_model.compute_cost(self.costs.pipeline), float(len(batch))
                )
                result = plan.pipeline_for(stream_name).process_batch(batch)
                if result.survivors:
                    working_set = max(4096.0, local_bytes[thread])
                    update_cost = cost_model.op(
                        self.costs.update, working_set, self.costs.update_lines
                    )
                    yield from core.execute(update_cost, float(result.survivors))
                    core.counters.count_records(result.survivors)
                    windows = result.group_windows
                    store.absorb_columns(
                        state_keys(windows, result.group_keys), windows, result.group_partials
                    )
                    local_bytes[thread] += result.state_bytes
                    trigger.note_slices(np.unique(windows).tolist())
                flow_maxes[thread] = max(flow_maxes[thread], result.max_timestamp)
                if thread == 0:
                    yield from merge_due(core)
            flow_done[thread] = True

        def finalizer(worker_procs) -> Generator[Any, Any, None]:
            yield AllOf(worker_procs)
            yield from merge_due(node.core(0))
            if trigger.pending:
                raise ConfigError(
                    f"LightSaber finished with pending windows "
                    f"{sorted(trigger.pending)[:5]}"
                )

        worker_procs = [
            sim.process(worker(thread), name=f"ls.worker{thread}")
            for thread in range(threads)
        ]
        sim.process(finalizer(worker_procs), name="ls.finalizer")
        sim.run()

        run_result = RunResult(
            system=self.name,
            query_name=query.name,
            nodes=1,
            threads_per_node=threads,
            input_records=records[0],
            sim_seconds=sim.now,
            aggregates=results.aggregates,
            emitted=results.emitted,
        )
        node_counters = node.counters()
        run_result.per_node_counters.append(node_counters)
        run_result.counters.merge(node_counters)
        if sim.sanitize is not None:
            run_result.extra["sanitizer_checks"] = sim.sanitize.check_counts()
        sim.close()
        return run_result
