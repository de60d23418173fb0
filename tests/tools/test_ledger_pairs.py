"""tools/ledger_pairs.py: alternation, seeds and the §8 verdict, driven
with a stubbed runner (no ledger run, no git)."""

import importlib.util
import io
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "ledger_pairs", REPO_ROOT / "tools" / "ledger_pairs.py"
)
ledger_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ledger_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "records_per_wall_s", "unit": "rec/s", "better": "higher", "bound": 0.25}


def line(wall_s, failed=0):
    return {
        "correct": failed == 0, "attempted": 3, "failed": failed,
        "metrics": {
            "wall_s": {"value": wall_s, "unit": "s"},
            "records_per_wall_s": {"value": 1000.0 / wall_s, "unit": "rec/s"},
        },
    }


class StubRunner:
    def __init__(self, walls, failing=()):
        self.walls, self.failing, self.calls = walls, set(failing), []

    def __call__(self, side, workload, seed):
        self.calls.append((side, workload, seed))
        return line(self.walls[side], failed=int((side, seed) in self.failing))


def test_pairs_alternate_which_side_runs_first_and_share_a_seed():
    runner = StubRunner({"parent": 4.0, "change": 2.0})
    done = ledger_pairs.run_pairs(runner, "join_probe", 4)
    assert runner.calls == [
        ("parent", "join_probe", 1), ("change", "join_probe", 1),
        ("change", "join_probe", 2), ("parent", "join_probe", 2),
        ("parent", "join_probe", 3), ("change", "join_probe", 3),
        ("change", "join_probe", 4), ("parent", "join_probe", 4),
    ]
    assert len(done) == 4 and all(set(pair) == {"parent", "change"} for pair in done)


def test_first_seed_offsets_every_pair_and_the_reported_range(capsys):
    """Held-out seeds: pair i runs seed S + i - 1, and the table names them."""
    runner = StubRunner({"parent": 4.0, "change": 2.0})
    done = ledger_pairs.run_pairs(runner, "transfer_channel", 3, first_seed=101)
    assert runner.calls == [
        ("parent", "transfer_channel", 101), ("change", "transfer_channel", 101),
        ("change", "transfer_channel", 102), ("parent", "transfer_channel", 102),
        ("parent", "transfer_channel", 103), ("change", "transfer_channel", 103),
    ]
    out = io.StringIO()
    ledger_pairs.report("transfer_channel", done, [WALL], out=out, first_seed=101)
    assert out.getvalue().splitlines()[0] == "== transfer_channel: 3 pairs, seeds 101..103 =="
    runner.calls.clear()
    ledger_pairs.compare(runner, ["agg_state"], 2, [WALL], first_seed=101)
    assert [seed for _side, _workload, seed in runner.calls] == [101, 101, 102, 102]
    assert "== agg_state: 2 pairs, seeds 101..102 ==" in capsys.readouterr().out


PARENT = [4.0, 4.1, 4.2, 4.3, 4.4, 4.5, 4.6, 4.7, 4.8, 4.9]  # IQR 0.45


@pytest.mark.parametrize(
    "change, better, expected",
    [
        # Ten wins, medians 4.45 -> 2.45: far beyond the parent's IQR.
        ([p - 2.0 for p in PARENT], "lower", ("gain", 10)),
        # Same numbers read as a rate: lower is worse, beyond the 25 % bound.
        ([p - 2.0 for p in PARENT], "higher", ("worse", 0)),
        # Ten wins but by less than the parent's own spread: not a gain.
        ([p - 0.3 for p in PARENT], "lower", ("unchanged", 10)),
        # A big median shift, but only eight pairs won: not claimable.
        ([2.0] * 8 + [9.0, 9.0], "lower", ("unchanged", 8)),
        # Nine wins and one tie: ties count for neither, 9/10 is enough.
        ([p - 2.0 for p in PARENT[:9]] + [PARENT[9]], "lower", ("gain", 9)),
        # Median worse than the bound allows.
        ([p * 1.3 for p in PARENT], "lower", ("worse", 0)),
        # Worse, but inside the bound and a tight spread.
        ([p * 1.05 for p in PARENT], "lower", ("unchanged", 0)),
    ],
)
def test_verdict(change, better, expected):
    assert ledger_pairs.verdict(PARENT, change, better, 0.25) == expected


def test_wide_spread_is_unresolved_unless_the_sides_separate():
    noisy = [1.0, 5.0, 1.0, 5.0, 1.0, 5.0, 1.0, 5.0, 1.0, 5.0]
    assert ledger_pairs.verdict(noisy, noisy[::-1], "lower", 0.25)[0] == "unresolved"
    # Every change run beats every parent run, so "no worse" is settled —
    # but 3.0 -> 0.5 is inside the parent's own IQR of 4: still not a gain.
    assert ledger_pairs.verdict(noisy, [0.5] * 10, "lower", 0.25) == ("unchanged", 10)


def test_single_pair_has_no_spread_to_clear():
    assert ledger_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert ledger_pairs.verdict([4.0], [2.0], "lower", 0.25) == ("gain", 1)


def test_report_prints_every_run_and_counts_failures():
    runner = StubRunner({"parent": 4.0, "change": 2.0}, failing={("change", 2)})
    out = io.StringIO()
    done = ledger_pairs.run_pairs(runner, "join_probe", 3)
    failed = ledger_pairs.report("join_probe", done, [WALL, RATE], out=out)
    text = out.getvalue()
    assert failed == 1
    runs = [row.split()[2] for row in text.splitlines() if row.startswith("  pair")]
    assert runs == ["parent", "change", "change", "parent", "parent", "change"]
    assert "failed 1/3" in text
    wall_row = next(row for row in text.splitlines() if row.lstrip().startswith("wall_s"))
    assert "0.500 of 4" in wall_row and "3/3" in wall_row and wall_row.endswith("gain")
    rate_row = next(row for row in text.splitlines()
                    if row.lstrip().startswith("records_per_wall_s"))
    assert rate_row.endswith("gain")


@pytest.mark.parametrize("pairs, cautioned", [(1, True), (5, True), (6, False), (10, False)])
def test_few_pairs_print_one_caution_line_under_the_table(pairs, cautioned):
    runner = StubRunner({"parent": 4.0, "change": 2.0})
    out = io.StringIO()
    done = ledger_pairs.run_pairs(runner, "join_probe", pairs)
    ledger_pairs.report("join_probe", done, [WALL, RATE], out=out)
    rows = out.getvalue().splitlines()
    cautions = [row for row in rows if "caution" in row]
    assert len(cautions) == int(cautioned)
    if cautioned:
        # The last line, under the table, naming the pair count.
        assert rows[-1] == cautions[0]
        assert f"only {pairs} pairs" in cautions[0] and "advisory" in cautions[0]
    # The verdict rule does not change with the pair count.
    wall_row = next(row for row in rows if row.lstrip().startswith("wall_s"))
    assert wall_row.endswith("gain")


def test_compare_sums_failures_over_workloads(capsys):
    runner = StubRunner({"parent": 4.0, "change": 4.0},
                        failing={("parent", 1), ("change", 1)})
    assert ledger_pairs.compare(runner, ["agg_state", "join_probe"], 2, [WALL]) == 4
    assert "== agg_state: 2 pairs" in capsys.readouterr().out
