"""Tests for the experiment CLI."""

import json
import pathlib

import pytest

from repro.grid import GRIDS, Claim, expand_grid, resolve_grid
from repro.harness import cli
from repro.harness.cli import EXPERIMENTS, build_parser, main
from repro.metrics.reporting import Report


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out


def test_run_quick_experiment_writes_outputs(tmp_path, capsys):
    code = main(
        ["run", "abl-epoch", "--quick", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "epoch" in out
    assert (tmp_path / "abl-epoch.txt").exists()
    rows = json.loads((tmp_path / "abl-epoch.json").read_text())
    assert rows and all("epoch_bytes" in row for row in rows)


def test_run_fig7_quick(capsys):
    assert main(["run", "fig7", "--quick", "--records", "800"]) == 0
    out = capsys.readouterr().out
    assert "LightSaber" in out
    assert "slash x2" in out


def _sized(threads, records, batch):
    return {"threads": threads,
            "workload_overrides": {"records_per_thread": records,
                                   "batch_records": batch}}


#: The argv tails every figure is checked under and, written out by hand
#: as the reference, the grid ``(axis overrides, fixed overrides)`` that
#: ``run <figure> <flags>`` means under each of them, in that order.  With
#: no size flag nothing is overridden: the grid's own declaration is the
#: paper's figure.
FLAGS = ([], ["--quick"], ["--nodes", "2", "--threads", "16", "--records", "777"])
_PAPER_SIZE = ({}, {})
_THREADS_CAPPED_AND_RECORDS = (
    _PAPER_SIZE,
    ({}, {"threads": 4, "records_per_thread": 1200}),
    ({}, {"threads": 10, "records_per_thread": 777}),
)
_RECORDS_ONLY = (
    _PAPER_SIZE, ({}, {"records_per_thread": 1200}), ({}, {"records_per_thread": 777}),
)
_NO_FLAGS = (_PAPER_SIZE,) * 3
DOCUMENTED_OVERRIDES = {
    "fig6a-c": (_PAPER_SIZE,
                ({"nodes": (2, 4)}, _sized(4, 1200, 240)),
                ({"nodes": (2,)}, _sized(16, 777, 155))),
    "fig6d-e": (_PAPER_SIZE,
                ({"nodes": (2, 4)}, _sized(4, 1200, 240)),
                ({"nodes": (2,)}, _sized(16, 777, 155))),
    "fig7": (_PAPER_SIZE,
             ({"nodes": ("L", 2, 4)}, _sized(4, 1200, 240)),
             ({"nodes": ("L", 2)}, _sized(16, 777, 155))),
    "fig8ab": _THREADS_CAPPED_AND_RECORDS,
    "fig8c": _RECORDS_ONLY,
    "fig8d": _THREADS_CAPPED_AND_RECORDS,
    "fig9": _RECORDS_ONLY,
    "fig10": _THREADS_CAPPED_AND_RECORDS,
    "table1": _THREADS_CAPPED_AND_RECORDS,
    "abl-credits": _RECORDS_ONLY,
    "abl-epoch": _NO_FLAGS,
    "abl-exec": _NO_FLAGS,
    "extra-latency": _THREADS_CAPPED_AND_RECORDS,
    "abl-signal": _RECORDS_ONLY,
}
RUN_CASES = [
    (figure, flags, *overrides)
    for figure, rows in DOCUMENTED_OVERRIDES.items()
    for flags, overrides in zip(FLAGS, rows)
] + [
    # --quick fills only the flags the user left unset.
    ("fig6a", ["--quick", "--nodes", "2", "--threads", "2", "--records", "100"],
     {"nodes": (2,)}, _sized(2, 100, 64)),
]


def test_experiments_are_the_paper_figures_of_the_grid_registry():
    assert list(EXPERIMENTS) == list(DOCUMENTED_OVERRIDES)
    for name, description in EXPERIMENTS.items():
        assert description and description == GRIDS[name].description


@pytest.mark.parametrize("figure,flags,axes,fixed", RUN_CASES)
def test_run_expands_to_the_documented_grid_cells(
    figure, flags, axes, fixed, monkeypatch, capsys
):
    seen = []

    def expand_only(grid, axis_overrides, fixed_overrides, runner=None):
        seen.append((grid, expand_grid(grid, axis_overrides, fixed_overrides)))
        return Report("not run")

    monkeypatch.setattr(cli, "run_grid", expand_only)
    # Nothing ran, so there are no rows for the no-flag rows' claims.
    monkeypatch.setattr(cli, "check_claims", lambda grid, rows: ("", []))
    assert main(["run", figure, *flags]) == 0
    capsys.readouterr()
    ((grid, run),) = seen
    assert grid is resolve_grid(figure)
    assert run.cells == expand_grid(grid, axes, fixed).cells


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_any_size_flag_means_no_claim_section(tmp_path, capsys):
    """abl-epoch listens to no size flag, so ``--quick`` runs the very
    cells of the paper-size figure — and still evaluates nothing: what it
    prints and writes is what it did before claims existed (goldens
    captured from the parent commit)."""
    assert main(["run", "abl-epoch", "--quick", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Claim (paper)" not in out
    for suffix in (".txt", ".json"):
        assert (tmp_path / f"abl-epoch{suffix}").read_bytes() == (
            GOLDEN / f"abl-epoch_quick{suffix}"
        ).read_bytes()


def _toy_figure(monkeypatch, first, second):
    """abl-exec with two hand-built rows and two claims over them."""
    def claim(paper, better, worse, documented="✔"):
        def check(rows):
            value = {row["who"]: row["value"] for row in rows}
            holds = value[better] > value[worse]
            return ("✔" if holds else "✘"), f"{value[better]} vs {value[worse]}"
        return Claim(paper, check, documented, "a reason")

    monkeypatch.setattr(resolve_grid("abl-exec"), "claims", (
        claim("a beats b", "a", "b"), claim("b beats a", "b", "a", "✘"),
    ))
    rows = [{"who": "a", "value": first}, {"who": "b", "value": second}]
    monkeypatch.setattr(
        cli, "run_grid",
        lambda grid, axes, fixed, runner=None: Report("toy", rows=rows),
    )


def test_run_at_paper_size_prints_the_claim_table(monkeypatch, tmp_path, capsys):
    _toy_figure(monkeypatch, 2, 1)
    assert main(["run", "abl-exec", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    table = (
        "| Claim (paper) | Measured | Verdict |\n|---|---|---|\n"
        "| a beats b | 2 vs 1 | ✔ (a reason) |\n"
        "| b beats a | 1 vs 2 | ✘ (a reason) |\n"
    )
    assert table in captured.out
    assert (tmp_path / "abl-exec.txt").read_text() == (
        "#### Experiment toy ####\n\n" + table
    )


@pytest.mark.parametrize("command", ["run", "grid"])
def test_unexpected_verdicts_fail_the_command(command, monkeypatch, capsys):
    """Both claims flip: a regression and an improvement, one line each."""
    _toy_figure(monkeypatch, 1, 2)
    assert main([command, "abl-exec"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "CLAIMS FAILED: abl-exec: a beats b computed ✘, documented ✔",
        "CLAIMS FAILED: abl-exec: b beats a computed ✔, documented ✘",
    ]


@pytest.mark.parametrize("argv", [
    ["run", "abl-exec", "--quick"],
    ["run", "abl-exec", "--threads", "2"],
    ["grid", "abl-exec", "--set", "threads=2"],
    ["grid", "abl-exec", "--axis", "strategy=compiled"],
])
def test_an_override_checks_no_claim(argv, monkeypatch, capsys):
    _toy_figure(monkeypatch, 1, 2)
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "Claim (paper)" not in captured.out and captured.err == ""


def test_chaos_command_writes_outputs(tmp_path, capsys):
    code = main(
        ["chaos", "--fault", "leader-crash", "--seed", "7",
         "--records", "600", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "recovery outcome" in out
    assert "zero-lost-results" in out and "FAIL" not in out
    assert (tmp_path / "chaos.txt").exists()
    rows = json.loads((tmp_path / "chaos.json").read_text())
    assert rows[0]["zero_lost"] is True
    assert rows[0]["deterministic"] is True


def test_chaos_unknown_preset_suggests_closest(capsys):
    assert main(["chaos", "--fault", "leader-crsh"]) == 1
    err = capsys.readouterr().err
    assert "unknown fault preset" in err
    assert "did you mean 'leader-crash'?" in err


def test_chaos_unknown_preset_lists_known(capsys):
    assert main(["chaos", "--fault", "xyzzy"]) == 1
    err = capsys.readouterr().err
    assert "known:" in err
    assert "net-partition" in err and "cascade" in err


def test_chaos_cascade_preset_reports_mttr_columns(tmp_path, capsys):
    code = main(
        ["chaos", "--fault", "cascade", "--seed", "7",
         "--records", "600", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "zero-lost-results" in out and "FAIL" not in out
    for column in ("detection", "promotion", "mttr"):
        assert column in out
    rows = json.loads((tmp_path / "chaos.json").read_text())
    assert rows[0]["zero_lost"] is True
    assert rows[0]["deterministic"] is True


def test_chaos_parser_defaults():
    args = build_parser().parse_args(["chaos"])
    assert args.fault == "leader-crash"
    assert args.seed == 7
    assert args.nodes == 3
    assert args.system == "slash"
    assert not args.no_determinism_check


def test_chaos_unknown_system_suggests_closest(capsys):
    assert main(["chaos", "--system", "slsh"]) == 1
    err = capsys.readouterr().err
    assert "CHAOS FAILED" in err
    assert "unknown system 'slsh'" in err
    assert "did you mean 'slash'?" in err


def test_chaos_system_without_fault_plane_fails_fast(capsys):
    assert main(["chaos", "--system", "lightsaber"]) == 1
    err = capsys.readouterr().err
    assert "CHAOS FAILED" in err
    assert "lacks required capability" in err
    assert "fault_injectable" in err


def test_chaos_unsupported_kind_names_supported_ones(capsys):
    """Flink has a fault plane but no crash recovery: leader-crash is a
    capability error naming the kinds it *can* absorb."""
    assert main(["chaos", "--system", "flink", "--fault", "leader-crash",
                 "--records", "400"]) == 1
    err = capsys.readouterr().err
    assert "CHAOS FAILED" in err
    assert "node-crash" in err
    assert "drop-chunk" in err


def test_chaos_strategy_parser_default():
    args = build_parser().parse_args(["chaos"])
    assert args.strategy == "both"


def test_chaos_unknown_strategy_suggests_closest(capsys):
    assert main(["chaos", "--strategy", "asyn-snapshot"]) == 1
    err = capsys.readouterr().err
    assert "unknown recovery strategy" in err
    assert "did you mean 'async-snapshot'?" in err


def test_chaos_help_lists_strategies(capsys):
    with pytest.raises(SystemExit):
        main(["chaos", "--help"])
    out = capsys.readouterr().out
    assert "epoch-buddy" in out
    assert "async-snapshot" in out


def test_chaos_uppar_crash_recovers_via_async_snapshot(tmp_path, capsys):
    """The headline: UpPar survives a leader crash with zero lost results
    through aligned snapshots + global restart."""
    code = main(
        ["chaos", "--system", "uppar", "--fault", "leader-crash",
         "--strategy", "async-snapshot", "--seed", "7",
         "--records", "400", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "async-snapshot" in out
    assert "zero-lost-results" in out and "FAIL" not in out
    rows = json.loads((tmp_path / "chaos.json").read_text())
    assert rows[0]["recovery_strategy"] == "async-snapshot"
    assert rows[0]["zero_lost"] is True
    assert rows[0]["recovered_records"] > 0


def test_chaos_both_strategies_render_comparison(tmp_path, capsys):
    code = main(
        ["chaos", "--fault", "leader-crash", "--seed", "7",
         "--records", "400", "--no-determinism-check",
         "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "recovery strategy comparison" in out
    for column in ("snapshot overhead", "recovered records"):
        assert column in out
    rows = json.loads((tmp_path / "chaos.json").read_text())
    strategies = [row["recovery_strategy"] for row in rows]
    assert strategies == ["epoch-buddy", "async-snapshot"]
    assert all(row["zero_lost"] for row in rows)


def test_chaos_on_uppar_through_generic_hooks(tmp_path, capsys):
    code = main(
        ["chaos", "--system", "uppar", "--fault", "nic-flap", "--seed", "7",
         "--nodes", "2", "--records", "600", "--out", str(tmp_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "zero-lost-results" in out and "FAIL" not in out
    rows = json.loads((tmp_path / "chaos.json").read_text())
    assert rows[0]["system"] == "uppar"
    assert rows[0]["zero_lost"] is True
    assert rows[0]["deterministic"] is True
