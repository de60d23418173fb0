"""Tests for the ``elastic`` CLI subcommand."""

import json

from repro.harness.cli import main


def test_quick_run_prints_the_latency_table(capsys):
    code = main([
        "elastic", "--quick", "--records", "1200", "--strategy", "both",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "migration-window latency" in out
    assert "all-at-once" in out and "fluid" in out
    assert "PASS" in out and "FAIL" not in out


def test_out_dir_gets_text_and_json(tmp_path, capsys):
    code = main([
        "elastic", "--quick", "--records", "1200",
        "--strategy", "all-at-once", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "elastic.txt").exists()
    rows = json.loads((tmp_path / "elastic.json").read_text())
    assert rows
    for row in rows:
        assert row["oracle_ok"] is True
        assert row["ownership_checks"] > 0
        assert row["strategy"] == "all-at-once"


def test_unknown_strategy_suggests_a_fix(capsys):
    assert main(["elastic", "--strategy", "fluda"]) == 1
    err = capsys.readouterr().err
    assert "ELASTIC FAILED" in err
    assert "fluid" in err


def test_non_elastic_engine_fails_with_the_capable_set(capsys):
    code = main([
        "elastic", "--system", "flink", "--quick", "--records", "600",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "ELASTIC FAILED" in err
    assert "engine 'flink' lacks required capability ['elastic']" in err
    assert "has: ['fault_injectable', 'joins', 'sanitize'," in err


def test_rescale_past_horizon_fails_cleanly(capsys):
    code = main([
        "elastic", "--quick", "--records", "600",
        "--strategy", "fluid", "--rescale-frac", "0.999999",
    ])
    # Either the run squeaks in before the horizon (exit 0) or the
    # coordinator reports the miss as a clean config failure (exit 1) —
    # never a traceback.
    captured = capsys.readouterr()
    if code == 1:
        assert "ELASTIC FAILED" in captured.err
    else:
        assert "migration-window latency" in captured.out


def test_chaos_cli_accepts_the_elastic_flag(capsys):
    code = main([
        "chaos", "--fault", "leader-crash", "--elastic", "fluid",
        "--records", "800", "--no-determinism-check",
        "--strategy", "epoch-buddy",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "fluid rescale" in out
