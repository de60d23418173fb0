"""Property test: the kernel's event queue pops identically to a plain heap.

A reference discrete-event scheduler — one ``heapq`` of ``(when, seq)``
entries with set-based cancellation — replays the exact same randomized
script as the production :class:`Simulator`: timers scheduled up front
with heavy same-timestamp ties, timers spawned from inside callbacks
(landing on existing timestamps, new ones, and the current instant), and
cancellations fired mid-run against later *and same-timestamp* timers.
The fire order must match event for event.

Any timer that has not fired yet can be cancelled, including one due at
the very instant being dispatched; cancelling one that already fired is
a no-op on both sides.
"""

import heapq

from repro.simnet.kernel import Simulator, Timeout

#: Few distinct delays across many timers → most timestamps hold ties.
DELAY_CHOICES = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0)
SPAWN_DELAYS = (0.0, 0.25, 0.5, 1.25)
N_INITIAL = 150
TRIALS = 5


def _build_script(rng):
    """A schedule the reference and the real kernel both replay.

    Returns ``(delays, actions)`` where ``actions[i]`` runs when initial
    timer ``i`` fires: ``("cancel", j)`` cancels initial timer ``j``
    (``delays[j] >= delays[i]``: a later timer, or a same-timestamp one
    that may or may not have fired already) and ``("spawn", d)`` schedules
    a fresh timer ``d`` seconds out.
    """
    delays = [float(d) for d in rng.choice(DELAY_CHOICES, size=N_INITIAL)]
    actions = {}
    for i in range(N_INITIAL):
        acts = []
        if rng.random() < 0.35:
            targets = [j for j in range(N_INITIAL) if j != i and delays[j] >= delays[i]]
            if targets:
                acts.append(("cancel", int(rng.choice(targets))))
        if rng.random() < 0.3:
            acts.append(("spawn", float(rng.choice(SPAWN_DELAYS))))
        if acts:
            actions[i] = acts
    return delays, actions


def _run_reference(delays, actions):
    """Plain-heap oracle: lazy cancellation, (when, seq) tie-break."""
    heap = []
    seq = 0
    for i, delay in enumerate(delays):
        heapq.heappush(heap, (delay, seq, i))
        seq += 1
    cancelled = set()
    fired = set()
    order = []
    next_label = len(delays)
    cancels_applied = 0
    while heap:
        when, _seq, label = heapq.heappop(heap)
        if label in cancelled:
            continue
        order.append(label)
        fired.add(label)
        for act in actions.get(label, ()):
            if act[0] == "cancel":
                if act[1] not in cancelled and act[1] not in fired:
                    cancelled.add(act[1])
                    cancels_applied += 1
            else:
                seq += 1
                heapq.heappush(heap, (when + act[1], seq, next_label))
                next_label += 1
    return order, cancels_applied


def _run_kernel(delays, actions):
    """The same script against the production kernel."""
    sim = Simulator()
    handles = {}
    order = []
    spawn_label = [len(delays)]

    def fired(label):
        def callback(value, exc):
            order.append(label)
            for act in actions.get(label, ()):
                if act[0] == "cancel":
                    handles[act[1]].cancel()
                else:
                    new = spawn_label[0]
                    spawn_label[0] += 1
                    Timeout(act[1])._subscribe_cancellable(sim, fired(new))
        return callback

    for i, delay in enumerate(delays):
        handles[i] = Timeout(delay)._subscribe_cancellable(sim, fired(i))
    sim.run()
    assert sim.pending_timers == 0
    return order, sim.cancelled_events


def test_event_queue_matches_heap_reference(rng):
    for trial in range(TRIALS):
        delays, actions = _build_script(rng)
        expected, expected_cancels = _run_reference(delays, actions)
        actual, actual_cancels = _run_kernel(delays, actions)
        assert actual == expected, f"trial {trial}: pop order diverged"
        assert actual_cancels == expected_cancels, f"trial {trial}"


def test_event_queue_matches_heap_under_pure_ties(rng):
    """Degenerate mix: every timer lands on one of two timestamps."""
    sim = Simulator()
    order = []
    n = 200
    delays = [float(d) for d in rng.choice((1.0, 2.0), size=n)]
    for i, delay in enumerate(delays):
        Timeout(delay)._subscribe_cancellable(
            sim, lambda v, e, i=i: order.append(i)
        )
    sim.run()
    expected = sorted(range(n), key=lambda i: (delays[i], i))
    assert order == expected


def test_event_queue_matches_heap_under_sparse_times(rng):
    """Opposite mix: every timestamp distinct."""
    sim = Simulator()
    order = []
    delays = sorted(
        float(d) for d in rng.uniform(0.001, 10.0, size=120)
    )
    rng.shuffle(delays)
    for i, delay in enumerate(delays):
        Timeout(delay)._subscribe_cancellable(
            sim, lambda v, e, i=i: order.append(i)
        )
    sim.run()
    expected = sorted(range(len(delays)), key=lambda i: (delays[i], i))
    assert order == expected
