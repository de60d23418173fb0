"""The overload coordinator: admission control at every worker's source.

Attached at ``sim.overload`` (mirroring ``sim.faults`` / ``sim.elastic``),
the coordinator sits between each worker thread and its input flow:

* **pacing** — with an ingest rate configured, each batch carries a
  scheduled arrival instant (rate x burst envelope); a worker that gets
  ahead of the schedule parks until the source has produced the batch;
* **queueing-delay estimation** — a worker running *behind* schedule
  reads the gap as the batch's queueing delay, and folds in the recent
  credit-stall pressure of its outbound channels (the end-to-end
  backpressure path: a starved downstream consumer stalls the producer's
  credits, the producer's admission sees it and sheds at the source);
* **SLO-aware shedding** — a pluggable policy drops records when the
  delay estimate breaches the declared SLO thresholds, every drop
  counted per source and per tenant (``admitted = offered - shed``
  exactly, never silently);
* **straggler mitigation** — per-executor service-time EWMAs feed a
  :class:`StragglerDetector`; flagged executors shed at tightened
  thresholds, which redirects work away from the slow node (its queue,
  and the cluster watermark it gates, stay short).
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from repro.common.errors import StateError
from repro.common.rng import RngTree
from repro.core.scheduler import Park
from repro.metrics.slo import weighted_percentile
from repro.overload.config import OverloadConfig
from repro.overload.shedding import Shedder, make_shedder
from repro.overload.straggler import StragglerDetector
from repro.simnet.kernel import Simulator, Timeout

#: Bounded ingress queue: once more than this many *due* records wait,
#: an active shed policy drops whole batches on overflow.
INGRESS_QUEUE_RECORDS = 50_000

#: Queueing-delay thresholds as fractions of the SLO: shedding engages
#: at ``ENGAGE_FRAC`` and saturates (sheds everything) at ``SHED_FRAC``,
#: so every admitted record sits below the SLO with margin.
ENGAGE_FRAC = 0.4
SHED_FRAC = 0.7

#: Smoothing of the service-time EWMAs and of the credit-stall pressure.
EWMA_ALPHA = 0.2

#: An executor is a straggler once its service-time EWMA exceeds this
#: multiple of the cluster median; flagged executors shed at
#: ``STRAGGLER_SHED_FACTOR`` x the normal thresholds.
STRAGGLER_RATIO = 2.0
STRAGGLER_SHED_FACTOR = 0.5


class OverloadCoordinator:
    """Cluster-global admission control, shedding, and gray-fault watch."""

    def __init__(self, sim: Simulator, config: OverloadConfig):
        config.validate()
        self.sim = sim
        self.config = config
        self.detector = StragglerDetector(
            alpha=EWMA_ALPHA,
            ratio=STRAGGLER_RATIO,
            min_samples=config.straggler_min_samples,
        )
        self._rng_tree = RngTree(config.seed)
        self._shedders: dict[int, Shedder] = {}
        self._paced = config.ingest_rate_records_per_s is not None
        # Per-source ((executor, thread)) schedule and accounting.
        self._batch_arrivals: dict[tuple[int, int], np.ndarray] = {}
        self._cum_records: dict[tuple[int, int], np.ndarray] = {}
        self._pos: dict[tuple[int, int], int] = {}
        self._offered: dict[tuple[int, int], int] = {}
        self._admitted: dict[tuple[int, int], int] = {}
        self._shed: dict[tuple[int, int], int] = {}
        self._last_exit: dict[tuple[int, int], float] = {}
        self._last_admitted_count: dict[tuple[int, int], int] = {}
        # Backpressure fold-in: cumulative credit-stall seconds seen per
        # executor at the last admission, and its decayed pressure.
        self._last_stall_s: dict[int, float] = {}
        self._stall_pressure_s: dict[int, float] = {}
        # Cluster-wide tenant accounting.
        self._tenant_offered = np.zeros(config.tenants, dtype=np.int64)
        self._tenant_shed = np.zeros(config.tenants, dtype=np.int64)
        # Admitted-record delay samples: (delay_s, record_count).
        self._delay_samples: list[tuple[float, int]] = []
        self.max_backlog_records = 0
        self.overflow_sheds = 0
        #: (executor, thread, batch_index) -> boolean keep mask, recorded
        #: only for batches that shed (config.record_masks).
        self.keep_masks: dict[tuple[int, int, int], np.ndarray] = {}
        self._executors: list[Any] = []

    # -- wiring ----------------------------------------------------------
    def register(self, executors: list[Any]) -> None:
        """Bind to the deployment and precompute arrival schedules."""
        from repro.workloads.distributions import arrival_times, burst_envelope

        self._executors = list(executors)
        config = self.config
        for executor in executors:
            if config.shed_policy is not None:
                self._shedders[executor.executor_id] = make_shedder(
                    config.shed_policy,
                    self._rng_tree.generator(
                        "overload", "shed", executor.executor_id
                    ),
                    config.tenants,
                )
            if not self._paced:
                continue
            for thread, flow in enumerate(executor.flows):
                counts = np.array(
                    [len(batch) for _stream, batch in flow], dtype=np.int64
                )
                cum = np.cumsum(counts)
                total = int(cum[-1]) if len(cum) else 0
                if total == 0:
                    continue
                envelope = burst_envelope(
                    total,
                    flash_at_frac=config.flash_at_frac,
                    flash_magnitude=config.flash_magnitude,
                )
                arrivals = arrival_times(
                    total, config.ingest_rate_records_per_s, envelope
                )
                key = (executor.executor_id, thread)
                # A batch arrives when its *last* record has (offered
                # load is per record; admission is per batch).
                self._batch_arrivals[key] = arrivals[
                    np.maximum(cum - 1, 0)
                ]
                self._cum_records[key] = cum

    def arm(self) -> None:
        """Nothing to launch: admission is driven by the worker loops."""

    # -- the admission hook ----------------------------------------------
    def admit(
        self, executor: Any, thread: int, stream_name: str, batch: Any
    ) -> Generator[Any, Any, tuple[Any, float]]:
        """Admit (possibly shedding from) one ingress batch.

        Called from the worker hot loop before any cost is charged for
        the batch.  Returns ``(admitted_batch, event_time_cover)`` where
        the cover is the original batch's max timestamp: shed records
        still advance the flow watermark (they are *gone*, not *late*),
        which is also what keeps a shedding straggler from stalling the
        cluster's trigger frontier.
        """
        exec_id = executor.executor_id
        key = (exec_id, thread)
        index = self._pos.get(key, 0)
        self._pos[key] = index + 1
        offered = len(batch)
        now = self.sim.now
        # Service-time feedback: the gap since this thread's previous
        # admission is the wall time its previous batch took end-to-end.
        prev_exit = self._last_exit.get(key)
        prev_records = self._last_admitted_count.get(key, 0)
        if prev_exit is not None and prev_records > 0:
            self.detector.note(exec_id, now - prev_exit, prev_records)

        delay = 0.0
        backlog = 0
        arrivals = self._batch_arrivals.get(key)
        if self._paced and arrivals is not None and offered:
            scheduled = float(arrivals[index])
            if now < scheduled:
                # Ahead of the offered load: park until the source has
                # produced the batch (merges and shippers keep running).
                yield Park(Timeout(scheduled - now))
                now = self.sim.now
            delay = max(0.0, now - scheduled)
            cum = self._cum_records[key]
            due_batches = int(np.searchsorted(arrivals, now, side="right"))
            due_records = int(cum[due_batches - 1]) if due_batches else 0
            done_records = int(cum[index - 1]) if index else 0
            backlog = max(0, due_records - done_records)
            if backlog > self.max_backlog_records:
                self.max_backlog_records = backlog

        # End-to-end backpressure: fold the executor's recent outbound
        # credit stalls into the delay estimate, decayed per admission.
        stall_total = sum(
            producer.stats.credit_stall_s
            for producer in getattr(executor, "_out_channels", {}).values()
        )
        stall_delta = stall_total - self._last_stall_s.get(exec_id, 0.0)
        self._last_stall_s[exec_id] = stall_total
        pressure_s = (
            EWMA_ALPHA * stall_delta
            + (1.0 - EWMA_ALPHA) * self._stall_pressure_s.get(exec_id, 0.0)
        )
        self._stall_pressure_s[exec_id] = pressure_s
        effective = delay + pressure_s

        self._offered[key] = self._offered.get(key, 0) + offered
        admitted_batch = batch
        shed = 0
        shedder = self._shedders.get(exec_id)
        tenant_counts = None
        if offered:
            tenant_counts = np.bincount(
                np.asarray(batch.keys, dtype=np.int64) % self.config.tenants,
                minlength=self.config.tenants,
            )
            self._tenant_offered += tenant_counts
        if shedder is not None and offered:
            slo = self.config.slo_s
            scale = 1.0
            if self.config.mitigation and self.detector.is_straggler(exec_id):
                scale = STRAGGLER_SHED_FACTOR
            engage = ENGAGE_FRAC * slo * scale
            saturate = SHED_FRAC * slo * scale
            if backlog > INGRESS_QUEUE_RECORDS:
                # Bounded ingress queue: overflow drops the whole batch
                # no matter how the delay estimate looks.
                pressure = 1.0
                self.overflow_sheds += 1
            elif effective <= engage:
                pressure = 0.0
            elif effective >= saturate:
                pressure = 1.0
            else:
                pressure = (effective - engage) / (saturate - engage)
            if pressure > 0.0:
                mask = shedder.keep_mask(batch.keys, pressure)
                if mask is not None:
                    admitted_batch = batch.select(mask)
                    shed = offered - len(admitted_batch)
                    if shed and self.config.record_masks:
                        self.keep_masks[(exec_id, thread, index)] = mask
                    if shed:
                        self._tenant_shed += tenant_counts - np.bincount(
                            np.asarray(admitted_batch.keys, dtype=np.int64)
                            % self.config.tenants,
                            minlength=self.config.tenants,
                        )

        admitted = offered - shed
        self._admitted[key] = self._admitted.get(key, 0) + admitted
        self._shed[key] = self._shed.get(key, 0) + shed
        if admitted:
            self._delay_samples.append((delay, admitted))
        self._last_exit[key] = self.sim.now
        self._last_admitted_count[key] = admitted

        san = self.sim.sanitize
        if san is not None:
            san.note_overload_admission(
                f"exec{exec_id}.t{thread}",
                offered=self._offered[key],
                admitted=self._admitted[key],
                shed=self._shed[key],
                batch_offered=offered,
                batch_admitted=admitted,
                batch_shed=shed,
                policy_active=shedder is not None,
                queue_depth=backlog,
            )
        return admitted_batch, batch.max_timestamp

    # -- accounting --------------------------------------------------------
    def totals(self) -> dict:
        """Cluster-wide offered/admitted/shed record counts."""
        return {
            "offered": sum(self._offered.values()),
            "admitted": sum(self._admitted.values()),
            "shed": sum(self._shed.values()),
        }

    def finalize(
        self, executors: list[Any], crashed: frozenset = frozenset()
    ) -> None:
        """End-of-run accounting: every offered record is accounted for.

        ``offered = admitted + shed`` per source, and every admitted
        record was actually processed by its worker (no silent drop
        between admission and the pipeline).  Raises
        :class:`StateError` on any mismatch; with the sanitizer attached
        the check is also recorded as the ``no-silent-drop`` invariant.
        Crashed executors keep the conservation check but skip the
        processed comparison — recovery replay re-processes their input.
        """
        san = self.sim.sanitize
        for executor in executors:
            exec_id = executor.executor_id
            offered = sum(
                count for (eid, _t), count in self._offered.items()
                if eid == exec_id
            )
            admitted = sum(
                count for (eid, _t), count in self._admitted.items()
                if eid == exec_id
            )
            shed = sum(
                count for (eid, _t), count in self._shed.items()
                if eid == exec_id
            )
            processed = executor.records_processed
            if san is not None and exec_id not in crashed:
                san.check_no_silent_drop(
                    f"exec{exec_id}", offered, admitted, shed, processed
                )
            if offered != admitted + shed:
                raise StateError(
                    f"overload accounting broken on executor {exec_id}: "
                    f"offered {offered} != admitted {admitted} + shed {shed}"
                )
            if exec_id not in crashed and processed != admitted:
                raise StateError(
                    f"silent drop on executor {exec_id}: admitted "
                    f"{admitted} records but the pipeline processed "
                    f"{processed}"
                )

    def report(self) -> dict:
        """Snapshot for ``RunResult.extra['overload']``."""
        totals = self.totals()
        p50 = weighted_percentile(self._delay_samples, 50.0)
        p99 = weighted_percentile(self._delay_samples, 99.0)
        p999 = weighted_percentile(self._delay_samples, 99.9)
        return {
            "policy": self.config.shed_policy or "none",
            "paced": self._paced,
            "slo_p99_ms": self.config.slo_p99_ms,
            "offered": totals["offered"],
            "admitted": totals["admitted"],
            "shed": totals["shed"],
            "delay_p50_ms": p50 * 1e3,
            "delay_p99_ms": p99 * 1e3,
            "delay_p999_ms": p999 * 1e3,
            "slo_met": p99 * 1e3 <= self.config.slo_p99_ms,
            "max_backlog_records": self.max_backlog_records,
            "overflow_sheds": self.overflow_sheds,
            "tenant_offered": self._tenant_offered.tolist(),
            "tenant_shed": self._tenant_shed.tolist(),
            "straggler": self.detector.report(),
            "mitigation": self.config.mitigation,
        }
