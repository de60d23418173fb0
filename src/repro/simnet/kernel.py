"""A deterministic discrete-event simulation kernel.

Processes are Python generators that ``yield`` *waitables*:

* :class:`Timeout` — resume after a simulated delay;
* :class:`Signal` — resume when the signal fires (carries a value);
* :class:`Process` — resume when another process finishes (receives its
  return value, or re-raises its exception);
* :class:`AllOf` — resume when every child waitable has fired.

Stores (:class:`Store`) are unbounded FIFO queues with blocking ``get``.

Determinism: events scheduled for the same timestamp fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a run is
a pure function of the initial state.

Scheduling is one binary heap of timed events next to a FIFO deque of
zero-delay events, merged by ``(when, seq)`` and dispatched one event at a
time by a single loop.  See :class:`Simulator` for the structure, and
``docs/performance.md`` for the measured traffic that chose it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.common.errors import SimulationError

ProcessGen = Generator[Any, Any, Any]

# A scheduled event is a 5-slot entry ``[when, seq, proc, value_or_cb,
# exc_or_args]``:
#
# * process resumptions carry the Process in slot 2 (value in 3, pending
#   exception in 4) and are dispatched by stepping the generator directly;
# * plain callbacks carry None in slot 2, the callable in 3 and its args
#   tuple in 4.
#
# Zero-delay events go on the ready deque as immutable tuples; timed
# events go on the heap as *lists* so a cancellation token can mark the
# entry dead in place.  ``(when, seq)`` is unique, so heap comparisons
# never reach slot 2.  A callback entry whose slot 3 is None is dead: it
# already fired, or it was cancelled and is dropped when it surfaces.


class Waitable:
    """Anything a process can yield.  Subclasses implement ``_subscribe``."""

    __slots__ = ()

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        raise NotImplementedError

    def _subscribe_cancellable(
        self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]
    ) -> Optional["_CancelHandle"]:
        """Subscribe and return a cancellation handle, or None.

        Racers (:class:`FirstOf`) use this so losing children can be
        dropped from the queue instead of lingering until they fire into
        a no-op.  The default is a plain subscription with no handle —
        cancellation is an optimisation, never a semantic requirement.
        """
        self._subscribe(sim, callback)
        return None


class _CancelHandle:
    """Base for cancellation tokens.  ``cancel()`` returns True iff the
    subscription was still live and has now been dropped."""

    __slots__ = ()

    def cancel(self) -> bool:
        raise NotImplementedError


class _TimerHandle(_CancelHandle):
    """Cancellation token for a timed callback entry on the event heap.

    Cancelling marks the entry dead in place: a dead timer (an RTO that
    lost its race to the ACK) never fires, never advances the clock, and
    is dropped from the heap when it surfaces.  Any timer that has not
    fired yet can be cancelled; cancelling one that already fired (or was
    already cancelled) is a no-op returning False.
    """

    __slots__ = ("_sim", "_entry")

    def __init__(self, sim: "Simulator", entry: list):
        self._sim = sim
        self._entry = entry

    def cancel(self) -> bool:
        entry = self._entry
        if entry[3] is None:
            return False
        entry[3] = None
        entry[4] = None  # release the arguments now, not at the deadline
        sim = self._sim
        sim.cancelled_events += 1
        sim._dead_timers += 1
        return True


class _WaiterHandle(_CancelHandle):
    """Cancellation token for a signal subscription: drops the callback
    from the waiter list so a lost race stops holding a reference."""

    __slots__ = ("_waiters", "_callback")

    def __init__(self, waiters: list, callback: Callable):
        self._waiters = waiters
        self._callback = callback

    def cancel(self) -> bool:
        waiters = self._waiters
        if waiters is None:
            return False
        self._waiters = None
        callback = self._callback
        self._callback = None
        for i, cb in enumerate(waiters):
            if cb is callback:
                del waiters[i]
                return True
        return False


class Timeout(Waitable):
    """Resume the process after ``delay`` simulated seconds."""

    __slots__ = ("delay", "value")

    def __init__(self, delay: float, value: Any = None):
        if not delay >= 0:  # also rejects NaN, which compares false
            raise SimulationError(f"cannot wait a NaN or negative delay: {delay}")
        self.delay = float(delay)
        self.value = value

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        sim.call_in(self.delay, callback, self.value, None)

    def _subscribe_cancellable(
        self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]
    ) -> Optional[_CancelHandle]:
        if self.delay == 0.0:
            # Ready-deque entries are immutable tuples and fire within the
            # current instant anyway; not worth a token.
            sim.call_in(0.0, callback, self.value, None)
            return None
        seq = sim._seq = sim._seq + 1
        entry = [sim._now + self.delay, seq, None, callback, (self.value, None)]
        heapq.heappush(sim._timers, entry)
        return _TimerHandle(sim, entry)

    def __repr__(self) -> str:
        return f"Timeout({self.delay!r})"


class Signal(Waitable):
    """A one-shot event.  ``fire(value)`` wakes every waiter with ``value``.

    Firing twice raises; waiting on an already-fired signal resumes
    immediately with the stored value.  ``fail(exc)`` wakes waiters with an
    exception instead.
    """

    __slots__ = ("_fired", "_value", "_exc", "_waiters", "name")

    def __init__(self, name: str = ""):
        self.name = name
        self._fired = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._waiters: list[Callable[[Any, Optional[BaseException]], None]] = []

    @property
    def fired(self) -> bool:
        """Whether the signal has already fired (or failed)."""
        return self._fired

    def fire(self, value: Any = None) -> None:
        """Fire the signal, waking all current and future waiters."""
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(value, None)

    def fail(self, exc: BaseException) -> None:
        """Fail the signal: waiters receive ``exc`` instead of a value."""
        if self._fired:
            raise SimulationError(f"signal {self.name!r} fired twice")
        self._fired = True
        self._exc = exc
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(None, exc)

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        if self._fired:
            sim.call_in(0.0, callback, self._value, self._exc)
        else:
            self._waiters.append(callback)

    def _subscribe_cancellable(
        self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]
    ) -> Optional[_CancelHandle]:
        if self._fired:
            sim.call_in(0.0, callback, self._value, self._exc)
            return None
        self._waiters.append(callback)
        return _WaiterHandle(self._waiters, callback)

    def __repr__(self) -> str:
        state = "fired" if self._fired else "pending"
        return f"Signal({self.name!r}, {state})"


class AllOf(Waitable):
    """Fires when all child waitables have fired; value is their value list."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Waitable]):
        self.children = list(children)

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        pending = len(self.children)
        results: list[Any] = [None] * pending
        if pending == 0:
            sim.call_in(0.0, callback, [], None)
            return
        done = {"count": 0, "failed": False}

        # The callbacks capture the count, not ``self``: a pending child
        # holding a callback that reaches the children back is a cycle.
        def make_child_callback(index: int) -> Callable[[Any, Optional[BaseException]], None]:
            def child_done(value: Any, exc: Optional[BaseException]) -> None:
                if done["failed"]:
                    return
                if exc is not None:
                    done["failed"] = True
                    callback(None, exc)
                    return
                results[index] = value
                done["count"] += 1
                if done["count"] == pending:
                    callback(results, None)

            return child_done

        for i, child in enumerate(self.children):
            child._subscribe(sim, make_child_callback(i))


class FirstOf(Waitable):
    """Fires when the *first* child waitable fires; later children are ignored.

    The value is ``(index, value)`` of the winning child.  A child that
    *fails* first propagates its exception instead.  This is the race
    primitive behind every timeout-guarded wait (e.g. "completion ACK or
    retransmission timer, whichever comes first").  When the winner fires,
    the losers' subscriptions are *cancelled*: a losing timer is removed
    from the event queue instead of surviving to its deadline as dead
    weight, and a losing signal subscription is dropped from the waiter
    list — so one-shot signals remain usable by other waiters, and
    RTO-heavy runs stop accumulating doomed timers.
    """

    __slots__ = ("children",)

    def __init__(self, children: Iterable[Waitable]):
        self.children = list(children)
        if not self.children:
            raise SimulationError("FirstOf needs at least one child")

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        # The children's cancel handles reach the callbacks, which reach
        # the handles: a cycle until the race is decided.  The open race
        # is registered with the simulator, and deciding it (or
        # ``Simulator.close``) empties the list.
        handles: list[Optional[_CancelHandle]] = [None] * len(self.children)
        races = sim._races
        races[id(handles)] = handles

        def make_child_callback(index: int) -> Callable[[Any, Optional[BaseException]], None]:
            def child_done(value: Any, exc: Optional[BaseException]) -> None:
                if races.pop(id(handles), None) is None:
                    return
                for i, handle in enumerate(handles):
                    if handle is not None and i != index:
                        handle.cancel()
                handles.clear()
                if exc is not None:
                    callback(None, exc)
                else:
                    callback((index, value), None)

            return child_done

        for i, child in enumerate(self.children):
            handles[i] = child._subscribe_cancellable(sim, make_child_callback(i))


class Process(Waitable):
    """A running simulation process wrapping a generator.

    The generator's ``return`` value becomes :attr:`value`; an uncaught
    exception is stored and re-raised in any process that waits on this one
    (and by :meth:`Simulator.run` if nobody does).
    """

    __slots__ = ("sim", "gen", "name", "_done", "_failure_observed")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str = ""):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(gen).__name__}; "
                "did you forget a yield?"
            )
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self._done = Signal(name=f"{self.name}.done")
        self._failure_observed = False
        sim._live[gen] = None
        seq = sim._seq = sim._seq + 1
        sim._ready.append((sim._now, seq, self, None, None))

    # -- public ----------------------------------------------------------
    @property
    def finished(self) -> bool:
        """Whether the process has run to completion (or raised)."""
        return self._done.fired

    @property
    def value(self) -> Any:
        """Return value of the process; raises if it failed or is running."""
        if not self._done.fired:
            raise SimulationError(f"process {self.name!r} still running")
        if self._done._exc is not None:
            raise self._done._exc
        return self._done._value

    def _subscribe(self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]) -> None:
        self._failure_observed = True
        self._done._subscribe(sim, callback)

    def _subscribe_cancellable(
        self, sim: "Simulator", callback: Callable[[Any, Optional[BaseException]], None]
    ) -> Optional[_CancelHandle]:
        self._failure_observed = True
        return self._done._subscribe_cancellable(sim, callback)

    # -- stepping ----------------------------------------------------------
    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        """Advance the generator by one yield — the only place it is advanced."""
        try:
            if exc is not None:
                item = self.gen.throw(exc)
            else:
                item = self.gen.send(value)
        except StopIteration as stop:
            del self.sim._live[self.gen]
            self._done.fire(stop.value)
            return
        except BaseException as failure:  # noqa: BLE001 - deliberate capture
            del self.sim._live[self.gen]
            self.sim._note_failure(self, failure)
            self._done.fail(failure)
            return
        if type(item) is Timeout:
            # The overwhelmingly common yield: schedule the resumption as a
            # process entry directly, skipping the generic subscribe path.
            sim = self.sim
            seq = sim._seq = sim._seq + 1
            delay = item.delay
            if delay == 0.0:
                sim._ready.append((sim._now, seq, self, item.value, None))
            else:
                heapq.heappush(sim._timers, [sim._now + delay, seq, self, item.value, None])
            return
        if not isinstance(item, Waitable):
            self._step(None, SimulationError(
                f"process {self.name!r} yielded {item!r}, expected a Waitable"
            ))
            return
        item._subscribe(self.sim, self._step)

    def __repr__(self) -> str:
        state = "finished" if self.finished else "running"
        return f"Process({self.name!r}, {state})"


class Store:
    """An unbounded FIFO queue with blocking ``get`` and immediate ``put``."""

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Signal] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``; hands it straight to a blocked getter if any."""
        if self._getters:
            getter = self._getters.popleft()
            getter.fire(item)
        else:
            self._items.append(item)

    def get(self) -> Signal:
        """Return a signal that fires with the next item (FIFO)."""
        ticket = Signal(name=f"{self.name}.get")
        if self._items:
            ticket.fire(self._items.popleft())
        else:
            self._getters.append(ticket)
        return ticket

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get: ``(True, item)`` or ``(False, None)``."""
        if self._items:
            return True, self._items.popleft()
        return False, None


class Simulator:
    """The event loop: a heap of timed events plus a ready deque.

    Two scheduling structures back the loop:

    * a FIFO **ready deque** for zero-delay events (signal wake-ups,
      process launches, store hand-offs).  Since simulated time never goes
      backwards and sequence numbers grow monotonically, the deque is
      always sorted by ``(when, seq)``;
    * a **timer heap** (``heapq``) of every event with a positive delay,
      ordered by ``(when, seq)``.

    One private loop, :meth:`_dispatch`, merges the two by ``(when, seq)``
    and fires one event at a time; :meth:`run` and
    :meth:`run_until_process` differ only in the horizon and stop
    condition they hand it and in how they report its outcome.  A
    cancelled timer stays on the heap, marked dead, until it surfaces and
    is dropped; it never fires and never advances the clock.
    """

    def __init__(self):
        self._now = 0.0
        self._seq = 0
        self._ready: deque = deque()
        self._timers: list[list] = []
        #: Cancelled entries still resident on the heap.
        self._dead_timers = 0
        self._unobserved_failures: list[tuple[Process, BaseException]] = []
        #: Timers dropped early by cancellation (FirstOf losers).
        self.cancelled_events = 0
        #: Everything the run drives that has not finished: process
        #: bodies, coroutine-scheduler tasks and callback chains parked on
        #: a signal (:meth:`track`), in launch order.  :meth:`close`
        #: closes what is left.
        self._live: dict = {}
        #: Open FirstOf races (their cancel-handle lists), by id.
        self._races: dict[int, list] = {}
        self._closed = False
        #: Optional repro.simnet.trace.Tracer; instrumented components
        #: emit events here when attached.
        self.tracer = None
        #: Optional repro.faults.injector.FaultInjector; when attached,
        #: the RDMA/channel/executor layers consult it for deterministic
        #: fault decisions and switch to their fault-tolerant code paths.
        self.faults = None
        #: Optional repro.sanitizer.invariants.Sanitizer; when attached,
        #: instrumented components report protocol events for runtime
        #: invariant checking.  Off (None) by default: every hook site
        #: pays a single attribute test.
        self.sanitize = None
        #: Optional repro.elastic migration coordinator; when attached,
        #: executors consult it at their merge/trigger/finalize hook
        #: points so live partition migration can intercept in-flight
        #: deltas and gate window firing during a handoff.
        self.elastic = None
        #: Optional repro.overload coordinator; when attached, executor
        #: worker loops consult it before each batch for source-level
        #: admission control (pacing, queueing-delay estimation, load
        #: shedding) and feed it per-batch service times for straggler
        #: detection.
        self.overload = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def scheduled_events(self) -> int:
        """Total events scheduled so far (the ledger's ``sim_events`` count)."""
        return self._seq

    @property
    def pending_timers(self) -> int:
        """Live (not yet fired, not cancelled) timed entries on the heap."""
        return len(self._timers) - self._dead_timers

    # -- scheduling --------------------------------------------------------
    def call_in(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN, which compares false
            raise SimulationError(f"cannot schedule a NaN or past delay: delay={delay}")
        seq = self._seq = self._seq + 1
        if delay == 0.0:
            self._ready.append((self._now, seq, None, callback, args))
        else:
            heapq.heappush(self._timers, [self._now + delay, seq, None, callback, args])

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Launch a generator as a simulation process."""
        return Process(self, gen, name=name)

    def signal(self, name: str = "") -> Signal:
        """Create a fresh one-shot signal."""
        return Signal(name=name)

    def store(self, name: str = "") -> Store:
        """Create a FIFO store bound to this simulator."""
        return Store(self, name=name)

    def track(self, gen: Any) -> None:
        """Have :meth:`close` close ``gen`` unless :meth:`untrack` came first.

        For generators stepped outside a :class:`Process` (the tasks of a
        coroutine scheduler) and for anything else with a ``close()``
        that a signal holds (a message parked at a cut); process bodies
        are tracked already.
        """
        self._live[gen] = None

    def untrack(self, gen: ProcessGen) -> None:
        """``gen`` has finished: :meth:`close` has nothing left to close."""
        del self._live[gen]

    # -- dispatch ----------------------------------------------------------
    def _dispatch(self, horizon: Optional[float], stop: Optional[Signal]) -> bool:
        """The one event loop: fire events one at a time in ``(when, seq)`` order.

        Returns False once both queues have drained or ``stop`` has fired,
        and True if the next live event lies beyond ``horizon`` (that event
        stays queued and the clock stays at the last fired event).
        """
        ready = self._ready
        timers = self._timers
        heappop = heapq.heappop
        failures = self._unobserved_failures
        san = self.sanitize
        while stop is None or not stop._fired:
            timer = timers[0] if timers else None
            entry = ready[0] if ready else None
            if entry is not None and (
                timer is None
                or entry[0] < timer[0]
                or (entry[0] == timer[0] and entry[1] < timer[1])
            ):
                if horizon is not None and entry[0] > horizon:
                    return True
                ready.popleft()
                payload = entry[3]
            elif timer is not None:
                entry = timer
                payload = entry[3]
                if payload is None and entry[2] is None:
                    # Cancelled: drop it without firing or moving the
                    # clock, and before the horizon and drain checks, so
                    # a dead timer is never mistaken for pending work.
                    heappop(timers)
                    self._dead_timers -= 1
                    continue
                if horizon is not None and entry[0] > horizon:
                    return True
                heappop(timers)
                if entry[2] is None:
                    entry[3] = None  # fired: a late cancel() is a no-op
            else:
                return False
            when = entry[0]
            if san is not None:
                san.note_event(when, self._now)
            self._now = when
            proc = entry[2]
            if proc is None:
                payload(*entry[4])
            else:
                proc._step(payload, entry[4])
            if failures:
                self._raise_unobserved()
        return False

    # -- running -----------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run events until the queues drain or simulated time passes ``until``.

        Returns the final simulated time.  Re-raises the first exception of
        any process that failed without being waited on, so errors never
        pass silently.  ``until`` earlier than :attr:`now` raises: simulated
        time never goes backwards.
        """
        self._check_open()
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until}: simulated time is already {self._now}"
            )
        if self._dispatch(until, None):
            self._now = until
        if self._unobserved_failures:
            self._raise_unobserved()
        return self._now

    def run_until_process(self, proc: Process, limit: Optional[float] = None) -> Any:
        """Run until ``proc`` finishes; return its value (or re-raise).

        Like :meth:`run`, re-raises the first exception of any *other*
        process that failed without being waited on — the awaited process
        itself is observed here (its failure surfaces through ``value``).
        """
        self._check_open()
        proc._failure_observed = True
        if self._dispatch(limit, proc._done):
            raise SimulationError(f"process {proc.name!r} exceeded time limit {limit}")
        if not proc._done._fired:
            raise SimulationError(
                f"deadlock: no pending events but process {proc.name!r} unfinished"
            )
        return proc.value

    def close(self) -> None:
        """Tear the run down once its results are built.

        A simulated rack is a web of parents and children; the only
        reference cycles left in it are the frames of generators still
        suspended at the end (a process parked on a signal that can no
        longer fire, a scheduler task abandoned by a crash), the callback
        chains parked the same way, and the open FirstOf races.  Closing
        raises ``GeneratorExit`` at each parked ``yield``, so no body code
        past it runs, and drops each parked chain; then both queues and
        every plane slot are emptied.  Afterwards the rack is freed by
        reference counting the moment its last user lets go, and running
        this simulator again raises :class:`SimulationError`.
        """
        self._closed = True
        live = self._live
        while live:
            gen = next(iter(live))
            del live[gen]
            gen.close()
        for handles in self._races.values():
            handles.clear()
        self._races.clear()
        self._ready.clear()
        self._timers.clear()
        self._dead_timers = 0
        self.tracer = self.faults = self.sanitize = None
        self.elastic = self.overload = None

    def _check_open(self) -> None:
        if self._closed:
            raise SimulationError("the simulator was closed: its run is over")

    def _note_failure(self, proc: Process, exc: BaseException) -> None:
        if not proc._failure_observed:
            self._unobserved_failures.append((proc, exc))

    def _raise_unobserved(self) -> None:
        # Cleared in place: the dispatch loop holds a direct reference to
        # this list.
        failures = self._unobserved_failures
        for proc, exc in failures:
            if proc._failure_observed:
                continue
            del failures[:]
            raise exc
        del failures[:]
