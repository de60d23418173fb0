"""Tests for the window/session join probe functions."""

import pytest
from hypothesis import given, strategies as st

from repro.core import join
from repro.core.join import SessionTrigger, probe_sessions, probe_window
from repro.core.pipeline import LEFT, RIGHT, JoinBuildPipeline
from repro.core.windows import SessionWindows
from repro.runtime import Scenario, diff_results, run_scenario
from repro.state.crdt import AppendLogCrdt


class TestProbeWindow:
    def test_cartesian_per_key(self):
        payload = [(LEFT, ("l1",)), (RIGHT, ("r1",)), (LEFT, ("l2",)), (RIGHT, ("r2",))]
        pairs = probe_window(payload)
        assert len(pairs) == 4
        assert (("l1",), ("r1",)) in pairs

    def test_no_match_sides(self):
        assert probe_window([(LEFT, ("l",))]) == []
        assert probe_window([(RIGHT, ("r",))]) == []
        assert probe_window([]) == []

    def test_output_sorted(self):
        payload = [(LEFT, ("b",)), (LEFT, ("a",)), (RIGHT, ("r",))]
        pairs = probe_window(payload)
        assert pairs == sorted(pairs)

    @given(st.integers(0, 5), st.integers(0, 5))
    def test_property_output_size(self, lefts, rights):
        payload = [(LEFT, (f"l{i}",)) for i in range(lefts)]
        payload += [(RIGHT, (f"r{i}",)) for i in range(rights)]
        assert len(probe_window(payload)) == lefts * rights


class TestProbeSessions:
    def test_closed_session_emitted(self):
        window = SessionWindows(10)
        payload = [(0.0, LEFT, ("l",)), (5.0, RIGHT, ("r",))]
        emitted, remaining, _due = probe_sessions(window, payload, frontier=15.0)
        assert emitted == [(("l",), ("r",))]
        assert remaining == []

    def test_open_session_retained(self):
        window = SessionWindows(10)
        payload = [(0.0, LEFT, ("l",)), (5.0, RIGHT, ("r",))]
        emitted, remaining, _due = probe_sessions(window, payload, frontier=14.9)
        assert emitted == []
        assert len(remaining) == 2

    def test_mixed_sessions(self):
        window = SessionWindows(10)
        payload = [
            (0.0, LEFT, ("l1",)),
            (5.0, RIGHT, ("r1",)),
            (100.0, LEFT, ("l2",)),
            (105.0, RIGHT, ("r2",)),
        ]
        emitted, remaining, _due = probe_sessions(window, payload, frontier=50.0)
        assert emitted == [(("l1",), ("r1",))]
        assert sorted(entry[0] for entry in remaining) == [100.0, 105.0]

    def test_empty_payload(self):
        assert probe_sessions(SessionWindows(10), [], 100.0) == ([], [], float("inf"))

    def test_infinite_frontier_drains_everything(self):
        window = SessionWindows(10)
        payload = [(float(t), LEFT if t % 2 else RIGHT, (t,)) for t in range(5)]
        emitted, remaining, _due = probe_sessions(window, payload, float("inf"))
        assert remaining == []
        assert len(emitted) == 2 * 3  # 2 lefts x 3 rights in one session

    def test_due_one_sided_key_is_never(self):
        window = SessionWindows(10)
        payload = [(0.0, LEFT, ("l1",)), (50.0, LEFT, ("l2",))]
        assert probe_sessions(window, payload, frontier=5.0)[2] == float("inf")

    def test_due_is_end_of_earliest_open_two_sided_session(self):
        window = SessionWindows(10)
        payload = [
            (0.0, LEFT, ("closed-l",)), (1.0, RIGHT, ("closed-r",)),  # ends 11
            (40.0, LEFT, ("one-sided",)),                             # ends 50
            (70.0, LEFT, ("l",)), (75.0, RIGHT, ("r",)),              # ends 85
            (100.0, RIGHT, ("r2",)), (101.0, LEFT, ("l2",)),          # ends 111
        ]
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
    """Wraps ``join.probe_sessions``: calls, and calls that emitted."""

    def __init__(self, monkeypatch):
        self.calls = self.emitting = 0
        self._inner = join.probe_sessions
        monkeypatch.setattr(join, "probe_sessions", self)

    def __call__(self, window, payload, frontier):
        self.calls += 1
        result = self._inner(window, payload, frontier)
        self.emitting += bool(result[0])
        return result


class TestSessionTrigger:
    def test_matches_probing_every_key_on_random_interleavings(self, rng):
        """Merges (new list), in-place updates (same list, longer) and
        triggers in random order; frontiers rise, step back once, and end
        at +inf twice.  Same pairs in the same order, same state."""
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
            entries = [
                (now - float(rng.integers(0, 15)), int(rng.integers(0, 2)), (step, i))
                for i in range(int(rng.integers(1, 4)))
            ]
            if roll < 0.35:
                for state in (memoised, exhaustive):
                    state[key] = crdt.merge(state.get(key, crdt.zero()), list(entries))
            elif roll < 0.6:
                for state in (memoised, exhaustive):
                    if key in state:
                        crdt.update(state[key], list(entries))
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
        got = apply_rewrites(
            memoised, list(trigger.fire(list(memoised.items()), frontier))
        )
        want = apply_rewrites(exhaustive, probe_every_key(window, exhaustive, frontier))
        assert got == want
        assert memoised == exhaustive

    def test_final_infinite_frontier_does_not_reprobe_settled_keys(self, monkeypatch):
        window = SessionWindows(10)
        trigger = SessionTrigger(window)
        state = {
            "one-sided": [(0.0, LEFT, ("l",))],
            "open": [(0.0, LEFT, ("l",)), (1.0, RIGHT, ("r",))],
        }
        probe = CountingProbe(monkeypatch)
        assert apply_rewrites(state, trigger.fire(list(state.items()), 5.0)) == []
        assert probe.calls == 2
        # Unchanged payloads below their due time: nothing to probe.
        assert apply_rewrites(state, trigger.fire(list(state.items()), 10.9)) == []
        assert probe.calls == 2
        # "open" falls due; the one-sided key is settled for good.
        fired = apply_rewrites(state, trigger.fire(list(state.items()), float("inf")))
        assert fired == [("open", ("l",), ("r",))]
        assert (probe.calls, probe.emitting) == (3, 1)
        assert apply_rewrites(state, trigger.fire(list(state.items()), float("inf"))) == []
        assert probe.calls == 3
        # An in-place update is a change: the key is probed again.
        state["one-sided"].append((2.0, RIGHT, ("r",)))
        fired = apply_rewrites(state, trigger.fire(list(state.items()), float("inf")))
        assert fired == [("one-sided", ("l",), ("r",))]
        assert state == {}

    @pytest.mark.parametrize("engine", ["slash", "uppar"])
    def test_nb11_probes_only_what_changed(self, engine, monkeypatch):
        """On the engines: the reference's result, from at most one probe
        per payload change plus one per emission.  Every led payload
        change is the (possibly merged, possibly shipped) arrival of at
        least one batch partial, or the rewrite after an emitting probe."""
        probe = CountingProbe(monkeypatch)
        partials = visits = 0
        process_batch = JoinBuildPipeline.process_batch
        fire = SessionTrigger.fire

        def counting_process_batch(self, batch):
            nonlocal partials
            result = process_batch(self, batch)
            partials += len(result.partials)
            return result

        def counting_fire(self, items, frontier):
            nonlocal visits
            if frontier != float("-inf"):
                visits += len(items)
            return fire(self, items, frontier)

        monkeypatch.setattr(JoinBuildPipeline, "process_batch", counting_process_batch)
        monkeypatch.setattr(SessionTrigger, "fire", counting_fire)
        overrides = {"records_per_thread": 900}
        result = run_scenario(Scenario(engine, "nb11", 2, 2, dict(overrides), seed=7))
        engine_probes, engine_emitting = probe.calls, probe.emitting
        oracle = run_scenario(Scenario("reference", "nb11", 2, 2, dict(overrides), seed=7))
        assert diff_results(oracle, result).ok
        assert result.join_pairs
        # The reference compiles the same pipelines: halve its share out.
        partials //= 2
        assert engine_probes <= partials + 2 * engine_emitting
        # ... which is what makes it cheaper than probing every visit.
        assert engine_probes < visits / 2
