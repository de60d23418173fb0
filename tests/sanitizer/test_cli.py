"""The ``python -m repro sanitize`` surface: harness driver and CLI.

Fast paths use an injected fake runner; one real end-to-end replay goes
through ``main()`` against a tiny scenario to prove the wiring.
"""

import json

import pytest

from repro.common.errors import ConfigError
from repro.harness.cli import main
from repro.runtime import Scenario
from repro.sanitizer.harness import report_failed, run_sanitize
from repro.sanitizer.scenarios import CheckOutcome, generate_scenario

TINY = Scenario(
    "slash", "ysb", nodes=2, threads=2,
    workload_overrides={
        "records_per_thread": 80, "batch_records": 32, "key_range": 16,
    },
    engine_overrides={"credits": 4, "epoch_bytes": 32768},
    seed=5, sanitize=True,
)


def _records(scenario):
    return scenario.workload_overrides["records_per_thread"]


def _ok_runner(scenario, placement=None, placed_on=None):
    return CheckOutcome(scenario, checks={"event-time": 1}, horizon_s=1.0)


def _fail_above(threshold):
    def runner(scenario, placement=None, placed_on=None):
        outcome = CheckOutcome(scenario, horizon_s=1.0)
        if _records(scenario) >= threshold:
            outcome.failures.append(f"synthetic failure at {_records(scenario)}")
        return outcome
    return runner


class TestRunSanitize:
    def test_clean_sweep_reports_zero_failures(self):
        lines = []
        report = run_sanitize(
            scenarios=4, seed=3, progress=lines.append, runner=_ok_runner
        )
        assert not report_failed(report)
        assert len(report.rows) == 4
        assert sum("PASS" in line for line in lines) == 4
        assert any("0 failures" in note for note in report.notes)
        # Rows carry the replay line of the exact generator stream for seed 3.
        drawn, _placement = generate_scenario(3, 2)
        assert Scenario.from_json(report.rows[2]["scenario"]) == drawn

    def test_failure_is_shrunk_and_gets_a_repro_command(self):
        lines = []
        report = run_sanitize(
            replay=TINY.to_json().replace(
                '"records_per_thread": 80', '"records_per_thread": 320'
            ),
            progress=lines.append, runner=_fail_above(100),
        )
        assert report_failed(report)
        (note,) = [n for n in report.notes if n.startswith("repro (minimized):")]
        payload = note.split("--replay '")[1].rstrip("'")
        minimized = Scenario.from_json(payload)
        assert _records(minimized) <= 320 // 2
        assert any("shrunk to ysb x" in line for line in lines)

    def test_no_shrink_keeps_the_original_repro(self):
        report = run_sanitize(
            replay=TINY.to_json(), shrink_failures=False,
            progress=None, runner=_fail_above(0),
        )
        assert report_failed(report)
        (note,) = [n for n in report.notes if n.startswith("repro:")]
        assert Scenario.from_json(note.split("--replay '")[1].rstrip("'")) == TINY

    def test_replay_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown scenario field 'bogus'"):
            run_sanitize(replay='{"bogus": 1}', progress=None, runner=_ok_runner)


class TestCli:
    def test_replay_end_to_end_exits_zero(self, capsys, tmp_path):
        """A real tiny scenario through the real runner and CLI."""
        code = main([
            "sanitize", "--replay", TINY.to_json(), "--out", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "PASS" in out and "0 failures" in out
        assert (tmp_path / "sanitize.txt").exists()
        rows = json.loads((tmp_path / "sanitize.json").read_text())
        assert rows[0]["ok"] is True
        assert Scenario.from_json(rows[0]["scenario"]) == TINY

    def test_failing_sweep_exits_nonzero(self, capsys, monkeypatch):
        import repro.sanitizer.harness as harness_mod

        real_run_sanitize = harness_mod.run_sanitize

        def fake_run_sanitize(**kwargs):
            return real_run_sanitize(
                replay=TINY.to_json(), progress=None,
                shrink_failures=False, runner=_fail_above(0),
            )

        monkeypatch.setattr(harness_mod, "run_sanitize", fake_run_sanitize)
        code = main(["sanitize", "--scenarios", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "SANITIZE FAILED" in captured.err

    @pytest.mark.parametrize(
        "line, complaint",
        [
            ("not json", "not valid JSON"),
            ("[1, 2]", "must be a JSON object"),
            ("{}", "names no 'engine'"),
            ('{"engine": "slash"}', "names no 'workload'"),
            ('{"engine": "slash", "workload": "zzz"}', "unknown workload 'zzz'"),
            ('{"engine": "slsh", "workload": "ysb"}', "did you mean 'slash'"),
            ('{"engine": "slash", "workload": "ysb", "nodez": 2}',
             "did you mean 'nodes'"),
            ('{"engine": "slash", "workload": "ysb", "nodes": 2, "fault_plan": '
             '{"seed": 0, "events": [{"kind": "node-crash", "at_s": -1.0, '
             '"target": 1}]}}', "malformed fault plan"),
            ('{"engine": "slash", "workload": "ysb", "nodes": 2, "fault_plan": '
             '{"seed": 0, "events": [{"kind": "node-crash", "at_s": 1.0, '
             '"target": 7}]}}', "malformed fault plan"),
        ],
        ids=["malformed-json", "non-object", "no-engine", "no-workload",
             "unknown-workload", "unknown-engine", "unknown-field",
             "bad-fault-event", "fault-target-outside-deployment"],
    )
    def test_replay_of_outside_input_is_one_line_and_exit_2(
        self, capsys, line, complaint
    ):
        """Each of these died in a raw traceback (TypeError, JSONDecodeError,
        KeyError) before ``Scenario.from_json`` validated the line."""
        code = main(["sanitize", "--replay", line])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("SANITIZE FAILED: ")
        assert complaint in captured.err
        assert len(captured.err.strip().splitlines()) == 1
