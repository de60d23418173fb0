"""Epoch-boundary checkpoints of a leader's recoverable state.

Epoch boundaries are the natural synchronisation points of the Slash
protocol (paper Sec. 7.2.2): right after ``collect_deltas`` every helper
fragment has just been drained, so a snapshot of the partitions an
executor *leads* — together with the epoch ledger's admission frontier —
is a consistent cut of the operator's distributed state.

A :class:`Checkpoint` additionally freezes the executor's *output* (the
windows it has fired so far) and the per-flow input positions of the
boundary.  Output "commits" at checkpoint boundaries: after a crash, the
executor's post-checkpoint emissions are discarded and the promoted
leader re-fires those windows from restored + replayed state, so the
merged cluster output is exactly the fail-free output.

Checkpoints replicate asynchronously to a buddy node (the transfer is
charged to the simulated network); only a fully replicated checkpoint is
eligible for restore.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.common.errors import RecoveryError

# Serialized overhead of a checkpoint message beyond its state payload
# (header, ledger frontier, positions, pending-window ids).
CHECKPOINT_HEADER_BYTES = 256


@dataclass
class Checkpoint:
    """One epoch-boundary cut of an executor's recoverable state."""

    executor_id: int
    #: Index of the epoch-ship call this checkpoint was taken at (-1 for
    #: the implicit empty checkpoint installed at deployment time).  The
    #: executor has shipped epochs ``0 .. boundary`` when the cut is
    #: taken, so recovery replays input from this boundary's positions
    #: and continues the per-partition epoch sequence at ``boundary+1``.
    boundary: int
    #: Per-flow batch positions at the cut (``positions[thread]`` batches
    #: of flow ``thread`` are reflected in the checkpointed state).
    positions: list[int] = field(default_factory=list)
    #: ``{partition: [(key, payload), ...]}`` for every partition the
    #: executor led at the cut (payloads are immutable, so they are shared
    #: with the live stores and later folds cannot leak in).
    partitions: dict[int, list[tuple[Any, Any]]] = field(default_factory=dict)
    #: Epoch-ledger admission frontier (:meth:`EpochLedger.snapshot`).
    ledger: dict[tuple[str, int, int], int] = field(default_factory=dict)
    #: Window ids noted but not yet fired at the cut.
    pending: set[int] = field(default_factory=set)
    #: Per-window last local ingest time (trigger-lag reference).
    last_contribution: dict[Any, float] = field(default_factory=dict)
    #: Committed output: everything fired before the cut.
    aggregates: dict = field(default_factory=dict)
    join_pairs: list = field(default_factory=list)
    emitted: int = 0
    #: Estimated wire size of the replication transfer.
    nbytes: int = 0
    #: Simulated time the cut was taken (None for the implicit initial
    #: checkpoint).  Recovery durability is decided against this: a
    #: recovered victim's state only becomes durable once its new leader
    #: commits a checkpoint *captured after* the recovery completed.
    captured_at: Optional[float] = None
    #: Simulated time replication finished (None while in flight).
    committed_at: Optional[float] = None

    @classmethod
    def initial(cls, executor_id: int, flow_count: int) -> "Checkpoint":
        """The empty checkpoint every executor implicitly starts from."""
        return cls(
            executor_id=executor_id,
            boundary=-1,
            positions=[0] * flow_count,
            committed_at=0.0,
        )

    @classmethod
    def capture(cls, executor: Any, boundary: int) -> "Checkpoint":
        """Freeze ``executor``'s recoverable state at an epoch boundary.

        Must be called synchronously inside the epoch-ship step (no
        simulated time may pass between the delta collection and this
        capture), so the snapshot, the ledger frontier, and the flow
        positions describe the same instant.
        """
        directory = executor.directory
        led = directory.partitions_led_by(executor.executor_id)
        partitions: dict[int, list] = {}
        state_bytes = 0
        for partition in led:
            store = executor.handle.store_for(partition)
            partitions[partition] = list(store.scan())
            state_bytes += store.size_bytes
        results = executor.results
        return cls(
            executor_id=executor.executor_id,
            boundary=boundary,
            positions=list(executor._flow_pos),
            partitions=partitions,
            ledger=executor.backend.ledger.snapshot(),
            pending=(
                set(executor.trigger.pending) if executor.trigger is not None else set()
            ),
            last_contribution=dict(executor._last_contribution),
            # Finished results are write-once: a shallow copy freezes them.
            aggregates=dict(results.aggregates),
            join_pairs=list(results.join_pairs),
            emitted=results.emitted,
            nbytes=state_bytes
            + CHECKPOINT_HEADER_BYTES
            + 32 * len(results.aggregates),
        )


class CheckpointStore:
    """All executors' checkpoint histories, ordered by boundary."""

    def __init__(self):
        self._by_executor: dict[int, list[Checkpoint]] = {}

    def install_initial(self, executor_id: int, flow_count: int) -> Checkpoint:
        """Seed an executor's history with the empty deployment checkpoint."""
        checkpoint = Checkpoint.initial(executor_id, flow_count)
        self._by_executor[executor_id] = [checkpoint]
        return checkpoint

    def add(self, checkpoint: Checkpoint) -> None:
        """Record a freshly captured (not yet replicated) checkpoint."""
        self._by_executor.setdefault(checkpoint.executor_id, []).append(checkpoint)

    def latest_committed(self, executor_id: int) -> Checkpoint:
        """The newest fully replicated checkpoint of ``executor_id``."""
        history = self._by_executor.get(executor_id, [])
        for checkpoint in reversed(history):
            if checkpoint.committed_at is not None:
                return checkpoint
        raise RecoveryError(
            f"executor {executor_id} has no committed checkpoint to restore"
        )

    def initial_for(self, executor_id: int) -> Checkpoint:
        """The implicit empty deployment checkpoint of ``executor_id``.

        The restore of last resort: when an executor's buddy node (the
        only holder of its replicated checkpoints) is itself dead,
        recovery falls back to this and replays the full input.
        """
        history = self._by_executor.get(executor_id, [])
        if not history or history[0].boundary != -1:
            raise RecoveryError(
                f"executor {executor_id} has no initial checkpoint installed"
            )
        return history[0]

    def counts(self) -> tuple[int, int]:
        """``(taken, committed)`` across all executors, excluding initials."""
        taken = committed = 0
        for history in self._by_executor.values():
            for checkpoint in history:
                if checkpoint.boundary < 0:
                    continue
                taken += 1
                if checkpoint.committed_at is not None:
                    committed += 1
        return taken, committed
