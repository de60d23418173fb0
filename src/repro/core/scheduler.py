"""The coroutine-based event-driven worker scheduler (paper Sec. 5.3, Fig. 3).

Each Slash worker thread owns one :class:`CoroScheduler` holding a queue
of cooperative *tasks* (Python generators).  Tasks are of two kinds, per
the paper: RDMA coroutines (poll channels, ship/receive deltas) and
compute coroutines (run pipelines on polled buffers).  A task may yield:

* any :class:`~repro.simnet.kernel.Waitable` — forwarded to the
  simulation kernel (time passes; typically from ``core.execute``);
* :data:`SCHED_YIELD` — cooperative yield: requeue me, run someone else
  (free except for the modelled context-switch cost);
* :class:`Park` — park me until the given waitable fires, but *keep
  running other tasks meanwhile*.  This is the crucial behaviour from
  the paper: an empty RDMA channel parks its coroutine instead of
  stalling the worker.

When every task is parked, the scheduler spin-waits for the first wakeup
(charged as core-bound cycles — the worker really would be spinning on
``pause``).  A context switch between coroutines costs 10-20 ns
(Sec. 5.3); we charge the modelled cost per task switch.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Generator, Optional

from repro.common.errors import SimulationError
from repro.simnet.cluster import Core
from repro.simnet.cost_model import OpCost
from repro.simnet.kernel import Signal, Timeout, Waitable


class _SchedYield:
    def __repr__(self) -> str:
        return "SCHED_YIELD"


SCHED_YIELD = _SchedYield()


class Park:
    """Yield this to park the current task until ``waitable`` fires."""

    __slots__ = ("waitable",)

    def __init__(self, waitable: Waitable):
        self.waitable = waitable


def park(waitable: Waitable) -> Generator[Any, Any, Any]:
    """Park the calling task until ``waitable`` fires; returns its value.

    The ``wait`` of channels driven by scheduler tasks: a blocked send or
    receive parks instead of spinning the worker's core.
    """
    return (yield Park(waitable))


# ~36 cycles at 2.4 GHz = 15 ns, the coroutine switch cost the paper cites.
_SWITCH_COST = OpCost(instructions=12, retiring=3.0, core=33.0)


class _Task:
    __slots__ = ("gen", "name", "inbox")

    def __init__(self, gen: Generator, name: str):
        self.gen = gen
        self.name = name
        self.inbox: Any = None


class CoroScheduler:
    """Cooperative task scheduler for one worker thread."""

    def __init__(self, core: Core, name: str = "sched"):
        self.core = core
        self.name = name
        self._ready: deque[_Task] = deque()
        self._parked: dict[_Task, Signal] = {}
        self.switches = 0
        # Fault hooks: a halted scheduler (node crash) abandons its tasks
        # forever; a paused one (stall fault) resumes at ``_resume_at``.
        self._halted = False
        self._resume_at = float("-inf")

    def add(self, gen: Generator, name: str = "task") -> None:
        """Register a coroutine; it starts on the next scheduling round."""
        if not hasattr(gen, "send"):
            raise SimulationError(f"task {name!r} must be a generator")
        self.core.sim.track(gen)
        self._ready.append(_Task(gen, name))

    def halt(self) -> None:
        """Kill the scheduler: never run another task (crashed node)."""
        self._halted = True

    def pause_until(self, resume_at: float) -> None:
        """Suspend task execution until simulated time ``resume_at``."""
        if resume_at > self._resume_at:
            self._resume_at = resume_at

    def run(self) -> Generator[Any, Any, None]:
        """Drive all tasks to completion; run as (part of) a sim process."""
        while self._ready or self._parked:
            if self._halted:
                return
            if self._resume_at > self.core.sim.now:
                yield Timeout(self._resume_at - self.core.sim.now)
                continue
            if not self._ready:
                # Everything is parked: spin until the first wakeup.
                yield from self.core.spin_wait(self._any_wakeup())
                continue
            task = self._ready.popleft()
            self.switches += 1
            self.core.counters.charge(_SWITCH_COST, 1.0)
            yield from self._step(task)

    def _step(self, task: _Task) -> Generator[Any, Any, None]:
        """Advance one task until it parks, yields, or waits on sim time."""
        send_value = task.inbox
        task.inbox = None
        while True:
            try:
                item = task.gen.send(send_value)
            except StopIteration:
                self.core.sim.untrack(task.gen)
                return
            if item is SCHED_YIELD:
                self._ready.append(task)
                return
            if isinstance(item, Park):
                self._park(task, item.waitable)
                return
            if isinstance(item, Waitable):
                # Sim time passes inside the task (compute, channel ops).
                send_value = yield item
                if self._halted:
                    return
                if self._resume_at > self.core.sim.now:
                    yield Timeout(self._resume_at - self.core.sim.now)
                continue
            raise SimulationError(
                f"task {task.name!r} yielded {item!r}; expected a Waitable, "
                "SCHED_YIELD, or Park"
            )

    def _park(self, task: _Task, waitable: Waitable) -> None:
        wakeup = Signal(name=f"{self.name}.{task.name}.wakeup")
        self._parked[task] = wakeup

        def on_fire(value: Any, exc: Optional[BaseException]) -> None:
            if exc is not None:
                raise exc
            if task in self._parked:
                del self._parked[task]
                task.inbox = value
                self._ready.append(task)
            if not wakeup.fired:
                wakeup.fire(value)

        waitable._subscribe(self.core.sim, on_fire)

    def _any_wakeup(self) -> Waitable:
        """A signal firing when the first parked task becomes ready."""
        first = Signal(name=f"{self.name}.first-wakeup")

        def watch(wakeup: Signal) -> None:
            def on_fire(value: Any, exc: Optional[BaseException]) -> None:
                if not first.fired:
                    first.fire(value)

            wakeup._subscribe(self.core.sim, on_fire)

        for wakeup in list(self._parked.values()):
            watch(wakeup)
        if not self._parked:
            raise SimulationError(f"{self.name}: deadlock — no tasks to wake")
        return first
