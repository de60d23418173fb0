"""Sequential reference executor — the ground truth for property P2.

The paper's consistency property P2 states that a distributed Slash
computation over a stream D must, after lazy merging, produce the same
output a *sequential* computation over D would.  This module is that
sequential computation: no cluster, no time, no partitioning — just the
compiled pipelines folded into one dictionary and triggered at
end-of-stream.  Every engine's output is tested against it.
"""

from __future__ import annotations

from typing import Any

from repro.core.aggregations import partials_dict
from repro.core.engine import RunResult
from repro.core.join import probe_sessions, probe_window
from repro.core.pipeline import PhysicalPlan, compile_query
from repro.core.query import Query
from repro.core.system import CAP_JOINS, CAP_SESSION_WINDOWS, SystemHooks
from repro.core.windows import SessionWindows, SlidingWindow
from repro.workloads.base import Flow


class SequentialReference(SystemHooks):
    """Run a query single-threaded and return the canonical output."""

    name = "reference"
    # No cluster, no simulated time: nothing to sanitize or fault.
    capabilities = frozenset({CAP_JOINS, CAP_SESSION_WINDOWS})

    def run(self, query: Query, flows: dict[tuple[int, int], Flow]) -> "ReferenceOutput":
        plan = compile_query(query)
        state: dict[Any, Any] = {}
        crdt = plan.crdt
        records = 0
        for _worker, flow in sorted(flows.items()):
            for stream_name, batch in flow:
                records += len(batch)
                pipeline = plan.pipeline_for(stream_name)
                result = pipeline.process_batch(batch)
                if not result.survivors:
                    continue
                for key, partial in partials_dict(
                    result.group_windows, result.group_keys, result.group_partials
                ).items():
                    if key in state:
                        state[key] = crdt.merge(state[key], partial)
                    else:
                        state[key] = partial
        nodes = {node for node, _thread in flows}
        threads = {thread for _node, thread in flows}
        output = ReferenceOutput(
            records=records,
            query_name=query.name,
            nodes=len(nodes),
            threads_per_node=len(threads),
        )
        if plan.aggregation is not None:
            self._finish_aggregation(plan, state, output)
        else:
            self._finish_join(plan, state, output)
        return output

    def _finish_aggregation(self, plan: PhysicalPlan, state: dict, output: "ReferenceOutput") -> None:
        assert plan.aggregation is not None
        crdt = plan.aggregation.crdt
        window = plan.window
        if isinstance(window, SlidingWindow):
            # One pass buckets the fold by slice, in fold order; a window
            # then merges its slices' buckets in ascending slice order.
            slices: dict[int, list[tuple[Any, Any]]] = {}
            for (slice_id, key), payload in state.items():
                slices.setdefault(slice_id, []).append((key, payload))
            windows_seen: set[int] = set()
            for slice_id in slices:
                windows_seen.update(window.windows_of_slice(slice_id))
            for window_id in sorted(windows_seen):
                merged: dict[Any, Any] = {}
                for slice_id in window.slices_of_window(window_id):
                    for key, payload in slices.get(slice_id, ()):
                        if key in merged:
                            merged[key] = crdt.merge(merged[key], payload)
                        else:
                            merged[key] = payload
                for key, payload in merged.items():
                    output.aggregates[(window_id, key)] = crdt.finish(payload)
        else:
            # The fold is the output: finishing replaces values under
            # existing keys, so its order is the output's order.
            if not crdt.plain_finish:
                finish = crdt.finish
                for group, payload in state.items():
                    state[group] = finish(payload)
            output.aggregates = state

    def _finish_join(self, plan: PhysicalPlan, state: dict, output: "ReferenceOutput") -> None:
        window = plan.window
        if isinstance(window, SessionWindows):
            for key, payload in state.items():
                emitted, remaining, _due = probe_sessions(window, payload, float("inf"))
                assert not remaining
                for left_row, right_row in emitted:
                    output.join_pairs.append((key, left_row, right_row))
        else:
            for (window_id, key), payload in state.items():
                for left_row, right_row in probe_window(payload):
                    output.join_pairs.append((window_id, key, left_row, right_row))
        output.join_pairs.sort()


class ReferenceOutput(RunResult):
    """The canonical result set of one query over one input.

    A :class:`~repro.core.engine.RunResult` like every other engine's,
    so the runtime oracle can diff it directly; ``sim_seconds`` is zero
    (the reference computes outside simulated time) and ``records``
    aliases ``input_records`` for the established call sites.
    """

    def __init__(
        self,
        records: int = 0,
        query_name: str = "",
        nodes: int = 0,
        threads_per_node: int = 0,
    ):
        super().__init__(
            system="reference",
            query_name=query_name,
            nodes=nodes,
            threads_per_node=threads_per_node,
            input_records=records,
            sim_seconds=0.0,
        )

    @property
    def records(self) -> int:
        return self.input_records
