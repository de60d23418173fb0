"""Tests for the window/session join probe functions."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import join
from repro.core.join import (
    SessionTrigger,
    classify_sessions,
    probe_sessions,
    probe_window,
    two_sided,
)
from repro.core.pipeline import LEFT, RIGHT, JoinBuildPipeline
from repro.core.windows import SessionWindows
from repro.runtime import Scenario, diff_results, run_scenario
from repro.state.crdt import AppendLogCrdt


class TestProbeWindow:
    def test_cartesian_per_key(self):
        payload = ((LEFT, ("l1",)), (RIGHT, ("r1",)), (LEFT, ("l2",)), (RIGHT, ("r2",)))
        pairs = probe_window(payload)
        assert len(pairs) == 4
        assert (("l1",), ("r1",)) in pairs

    def test_no_match_sides(self):
        assert probe_window(((LEFT, ("l",)),)) == []
        assert probe_window(((RIGHT, ("r",)),)) == []
        assert probe_window(()) == []

    def test_output_sorted(self):
        payload = ((LEFT, ("b",)), (LEFT, ("a",)), (RIGHT, ("r",)))
        pairs = probe_window(payload)
        assert pairs == sorted(pairs)

    @given(st.integers(0, 5), st.integers(0, 5))
    def test_property_output_size(self, lefts, rights):
        payload = tuple((LEFT, (f"l{i}",)) for i in range(lefts))
        payload += tuple((RIGHT, (f"r{i}",)) for i in range(rights))
        assert len(probe_window(payload)) == lefts * rights


class TestProbeSessions:
    def test_closed_session_emitted(self):
        window = SessionWindows(10)
        payload = ((0.0, LEFT, ("l",)), (5.0, RIGHT, ("r",)))
        emitted, remaining, _due = probe_sessions(window, payload, frontier=15.0)
        assert emitted == [(("l",), ("r",))]
        assert remaining == ()

    def test_open_session_retained(self):
        window = SessionWindows(10)
        payload = ((0.0, LEFT, ("l",)), (5.0, RIGHT, ("r",)))
        emitted, remaining, _due = probe_sessions(window, payload, frontier=14.9)
        assert emitted == []
        assert remaining == payload and type(remaining) is tuple

    def test_mixed_sessions(self):
        window = SessionWindows(10)
        payload = (
            (0.0, LEFT, ("l1",)),
            (5.0, RIGHT, ("r1",)),
            (100.0, LEFT, ("l2",)),
            (105.0, RIGHT, ("r2",)),
        )
        emitted, remaining, _due = probe_sessions(window, payload, frontier=50.0)
        assert emitted == [(("l1",), ("r1",))]
        assert sorted(entry[0] for entry in remaining) == [100.0, 105.0]

    def test_empty_payload(self):
        assert probe_sessions(SessionWindows(10), (), 100.0) == ([], (), float("inf"))

    def test_infinite_frontier_drains_everything(self):
        window = SessionWindows(10)
        payload = tuple((float(t), LEFT if t % 2 else RIGHT, (t,)) for t in range(5))
        emitted, remaining, _due = probe_sessions(window, payload, float("inf"))
        assert remaining == ()
        assert len(emitted) == 2 * 3  # 2 lefts x 3 rights in one session

    def test_due_one_sided_key_is_never(self):
        window = SessionWindows(10)
        payload = ((0.0, LEFT, ("l1",)), (50.0, LEFT, ("l2",)))
        assert probe_sessions(window, payload, frontier=5.0)[2] == float("inf")

    def test_due_is_end_of_earliest_open_two_sided_session(self):
        window = SessionWindows(10)
        payload = (
            (0.0, LEFT, ("closed-l",)), (1.0, RIGHT, ("closed-r",)),  # ends 11
            (40.0, LEFT, ("one-sided",)),                             # ends 50
            (70.0, LEFT, ("l",)), (75.0, RIGHT, ("r",)),              # ends 85
            (100.0, RIGHT, ("r2",)), (101.0, LEFT, ("l2",)),          # ends 111
        )
        emitted, remaining, due = probe_sessions(window, payload, frontier=20.0)
        assert emitted == [(("closed-l",), ("closed-r",))]
        assert len(remaining) == 5
        assert due == 85.0
        # A closed two-sided session is emitted, never "due".
        assert probe_sessions(window, payload, frontier=85.0)[2] == 111.0


def probe_every_key(window, state, frontier):
    """The trigger SessionTrigger replaced: probe all keys, every time."""
    fired = []
    if frontier == float("-inf"):
        return fired
    for key, payload in list(state.items()):
        emitted, remaining, _due = probe_sessions(window, payload, frontier)
        if emitted:
            fired.append((key, emitted, remaining))
    return fired


def fire(trigger, state, frontier):
    """``trigger.fire`` over a snapshot of ``state``'s columns."""
    return trigger.fire(list(state), list(state.values()), frontier)


def apply_rewrites(state, fired):
    pairs = []
    for key, emitted, remaining in fired:
        pairs.extend((key, left, right) for left, right in emitted)
        if remaining:
            state[key] = remaining
        else:
            del state[key]
    return pairs


class CountingProbe:
    """Wraps ``join.probe_sessions`` (calls, and calls that emitted) and
    ``join.classify_sessions`` (keys classified)."""

    def __init__(self, monkeypatch):
        self.calls = self.emitting = self.classified = 0
        self._probe = join.probe_sessions
        self._classify = join.classify_sessions
        monkeypatch.setattr(join, "probe_sessions", self)
        monkeypatch.setattr(join, "classify_sessions", self.classify)

    def __call__(self, window, payload, frontier):
        self.calls += 1
        result = self._probe(window, payload, frontier)
        self.emitting += bool(result[0])
        return result

    def classify(self, window, payloads, frontier):
        self.classified += len(payloads)
        return self._classify(window, payloads, frontier)


class TestSessionTrigger:
    def test_matches_probing_every_key_on_random_interleavings(self, rng):
        """Merges (a new tuple), updates (a new tuple, one record longer),
        merges of the empty partial (the same tuple) and triggers in random
        order; frontiers rise, step back once, and end at +inf twice.  Same
        pairs in the same order, same state."""
        window = SessionWindows(10)
        crdt = AppendLogCrdt()
        trigger = SessionTrigger(window)
        memoised: dict = {}
        exhaustive: dict = {}
        now = 0.0
        frontier = float("-inf")
        steps = 600
        stepped_back = False
        for step in range(steps):
            now += float(rng.integers(0, 4))
            roll = rng.random()
            key = int(rng.integers(0, 12))
            entries = tuple(
                (now - float(rng.integers(0, 15)), int(rng.integers(0, 2)), (step, i))
                for i in range(int(rng.integers(1, 4)))
            )
            if roll < 0.35:
                for state in (memoised, exhaustive):
                    state[key] = crdt.merge(state.get(key, crdt.zero()), entries)
            elif roll < 0.55:
                for state in (memoised, exhaustive):
                    if key in state:
                        state[key] = crdt.update(state[key], entries[0])
            elif roll < 0.6:
                for state in (memoised, exhaustive):
                    if key in state:
                        state[key] = crdt.merge(state[key], crdt.zero())
            else:
                if not stepped_back and step >= steps // 2:
                    frontier -= 25.0
                    stepped_back = True
                else:
                    frontier = max(frontier, now - float(rng.integers(5, 40)))
                self.fire_both(trigger, window, memoised, exhaustive, frontier)
        for _ in range(2):
            self.fire_both(trigger, window, memoised, exhaustive, float("inf"))
        assert stepped_back
        # Only closed one-sided sessions are left, and they never emit.
        assert memoised and probe_every_key(window, memoised, float("inf")) == []

    @staticmethod
    def fire_both(trigger, window, memoised, exhaustive, frontier):
        got = apply_rewrites(memoised, list(fire(trigger, memoised, frontier)))
        want = apply_rewrites(exhaustive, probe_every_key(window, exhaustive, frontier))
        assert got == want
        assert memoised == exhaustive

    def test_final_infinite_frontier_does_not_reprobe_settled_keys(self, monkeypatch):
        window = SessionWindows(10)
        trigger = SessionTrigger(window)
        state = {
            "one-sided": ((0.0, LEFT, ("l",)),),
            "open": ((0.0, LEFT, ("l",)), (1.0, RIGHT, ("r",))),
        }
        probe = CountingProbe(monkeypatch)
        assert apply_rewrites(state, fire(trigger, state, 5.0)) == []
        assert (probe.classified, probe.calls) == (2, 0)
        # Unchanged payloads below their due time: nothing to classify.
        assert apply_rewrites(state, fire(trigger, state, 10.9)) == []
        assert (probe.classified, probe.calls) == (2, 0)
        # "open" falls due and is the one key probed; the one-sided key is
        # settled for good.
        fired = apply_rewrites(state, fire(trigger, state, float("inf")))
        assert fired == [("open", ("l",), ("r",))]
        assert (probe.classified, probe.calls, probe.emitting) == (3, 1, 1)
        assert apply_rewrites(state, fire(trigger, state, float("inf"))) == []
        assert (probe.classified, probe.calls) == (3, 1)
        # Merging the empty partial keeps the very payload: still settled.
        state["one-sided"] = AppendLogCrdt().merge(state["one-sided"], ())
        assert apply_rewrites(state, fire(trigger, state, float("inf"))) == []
        assert (probe.classified, probe.calls) == (3, 1)
        # An update is a new payload: the key is looked at again.
        state["one-sided"] = AppendLogCrdt().update(state["one-sided"], (2.0, RIGHT, ("r",)))
        fired = apply_rewrites(state, fire(trigger, state, float("inf")))
        assert fired == [("one-sided", ("l",), ("r",))]
        assert (probe.classified, probe.calls, probe.emitting) == (4, 2, 2)
        assert state == {}

    @pytest.mark.parametrize("engine", ["slash", "uppar"])
    def test_nb11_probes_only_what_changed(self, engine, monkeypatch):
        """On the engines: the reference's result; every probe emits, and
        at most one key is classified per payload change plus one per
        emission.  Every led payload change is the (possibly merged,
        possibly shipped) arrival of at least one batch partial, or the
        rewrite after an emitting probe."""
        probe = CountingProbe(monkeypatch)
        partials = visits = 0
        reduce = JoinBuildPipeline.reduce
        trigger_fire = SessionTrigger.fire

        def counting_reduce(self, filtered, max_timestamp):
            nonlocal partials
            result = reduce(self, filtered, max_timestamp)
            partials += 0 if result.group_keys is None else len(result.group_keys)
            return result

        def counting_fire(self, keys, payloads, frontier):
            nonlocal visits
            if frontier != float("-inf"):
                visits += len(keys)
            return trigger_fire(self, keys, payloads, frontier)

        monkeypatch.setattr(JoinBuildPipeline, "reduce", counting_reduce)
        monkeypatch.setattr(SessionTrigger, "fire", counting_fire)
        overrides = {"records_per_thread": 900}
        result = run_scenario(Scenario(engine, "nb11", 2, 2, dict(overrides), seed=7))
        engine_probes, engine_emitting = probe.calls, probe.emitting
        engine_classified = probe.classified
        oracle = run_scenario(Scenario("reference", "nb11", 2, 2, dict(overrides), seed=7))
        assert diff_results(oracle, result).ok
        assert result.join_pairs
        # Only keys that emit are probed.
        assert engine_probes == engine_emitting > 0
        # The reference compiles the same pipelines: halve its share out.
        partials //= 2
        assert engine_classified <= partials + 2 * engine_emitting
        # ... which is what makes it cheaper than classifying every visit.
        assert engine_classified < visits / 2


def random_session_payloads(rng, count):
    """``count`` session payloads on a coarse grid of timestamps, so that
    equal timestamps and gaps of exactly the session gap are common.
    Some payloads are empty, some one-sided; the timestamps are all ints
    or all floats (with fractional steps whose differences round)."""
    integral = bool(rng.integers(0, 2))
    payloads = []
    for p in range(count):
        length = int(rng.integers(0, 7))
        one_side = int(rng.integers(0, 2)) if rng.random() < 0.3 else None
        ts = np.cumsum(rng.integers(0, 4, size=length) * 5)
        entries = []
        for i, step in enumerate(ts.tolist()):
            stamp = int(step) if integral else step * 0.7 + 0.1
            side = one_side if one_side is not None else int(rng.integers(0, 2))
            entries.append((stamp, side, (p, i)))
        order = rng.permutation(length).tolist()
        payloads.append(tuple(entries[i] for i in order))
    return payloads


def frontiers_of(rng, window, payloads):
    """Both infinities, a random value, and exact session ends."""
    frontiers = [float("-inf"), float("inf"), float(rng.integers(-5, 60))]
    for payload in payloads:
        for _start, end, _members in window.split_sessions([e[0] for e in payload]):
            if rng.random() < 0.3:
                frontiers.append(end)
    return frontiers


class TestClassifiers:
    def test_classify_sessions_matches_probe_sessions(self, rng):
        for _ in range(300):
            window = SessionWindows(int(rng.choice([1, 5, 10])))
            payloads = random_session_payloads(rng, int(rng.integers(0, 9)))
            for frontier in frontiers_of(rng, window, payloads):
                emits, due = classify_sessions(window, payloads, frontier)
                assert emits.shape == due.shape == (len(payloads),)
                for payload, emitting, key_due in zip(payloads, emits, due):
                    emitted, _remaining, want_due = probe_sessions(window, payload, frontier)
                    assert bool(emitting) == bool(emitted)
                    assert key_due == want_due

    def test_classify_sessions_edges(self):
        window = SessionWindows(10)
        payloads = [
            (),
            ((0, LEFT, ("l",)), (10, RIGHT, ("r",))),           # gap of exactly 10
            ((0, LEFT, ("l",)), (11, RIGHT, ("r",))),           # gap of 11: split
            ((5.0, LEFT, ("l",)), (5.0, RIGHT, ("r",))),        # equal timestamps
            ((0.0, RIGHT, ("r",)), (3.0, RIGHT, ("r2",))),      # one-sided
        ]
        # A frontier exactly at a session end closes it.
        emits, due = classify_sessions(window, payloads, frontier=20.0)
        assert emits.tolist() == [False, True, False, True, False]
        assert due.tolist() == [float("inf")] * 5
        emits, due = classify_sessions(window, payloads, frontier=15.0)
        assert emits.tolist() == [False, False, False, True, False]
        assert due.tolist() == [float("inf"), 20.0, float("inf"), float("inf"), float("inf")]

    def test_two_sided_matches_probe_window(self, rng):
        """Empty, one-sided and mixed payloads of up to four entries."""
        for _ in range(300):
            payloads = []
            for p in range(int(rng.integers(0, 9))):
                length = int(rng.integers(0, 5))
                if rng.random() < 0.3:
                    sides = [int(rng.integers(0, 2))] * length
                else:
                    sides = rng.integers(0, 2, size=length).tolist()
                payloads.append(tuple((side, (p, i)) for i, side in enumerate(sides)))
            want = [bool(probe_window(payload)) for payload in payloads]
            assert two_sided(payloads).tolist() == want

    def test_two_sided_edges(self):
        payloads = [(), ((LEFT, ("l",)),), ((RIGHT, ("r",)),), ((RIGHT, ("r",)), (LEFT, ("l",)))]
        assert two_sided(payloads).tolist() == [False, False, False, True]
        assert two_sided([]).tolist() == []
