#!/usr/bin/env python3
"""Alternating parent/change ledger pairs, with the verdict a claim needs.

    python tools/ledger_pairs.py --parent-rev HEAD~1 --workload join_probe
    python tools/ledger_pairs.py --workload agg_state --workload join_probe --pairs 4
    python tools/ledger_pairs.py --workload transfer_channel --pairs 4 --first-seed 101

The *change* is the checkout this file lives in (uncommitted edits
included); the *parent* is ``--parent-rev``, checked out with
``git worktree add --detach`` into a temporary directory and removed
afterwards.  Pair *i* runs seed *S + i − 1* on both sides (*S* is
``--first-seed``, 1 by default; 101 on are the held-out seeds a claim is
also checked at), each side run as ``BENCHMARK.json``'s command runs it —

    benchmarks/ledger/run.py --workload W --seed S+i-1 --seconds 10 --trace 0

— and the side that goes first alternates from pair to pair, so a machine
that speeds up or slows down over the minutes a comparison takes favours
neither.  Seed 7 is the ledger's pinned seed: with the default ten pairs
from seed 1, one pair on each side is also held to ``pins.json``.

For every end-to-end metric of ``BENCHMARK.json`` it prints both sides'
median and quartiles, how many pairs the change won, and a verdict by the
rule of the choosing-metrics guide (§8, §6.5):

* ``gain`` — the change won at least nine tenths of the pairs (ties count
  for neither side) *and* the medians differ, in the better direction, by
  more than the parent's own interquartile range;
* ``worse`` — the change's median is worse than the parent's by more than
  the metric's ``bound``;
* ``unresolved`` — neither, but either side's interquartile range is wider
  than the bound, so "no worse" cannot be told from noise (unless every run
  of the change beats every run of the parent);
* ``unchanged`` — none of the above.

Under a table of fewer than six pairs it prints one caution line: runs of
the same code can fall into two modes of ``wall_s`` (seen on a 2-core VM:
``agg_state`` at about 1.7 s and 2.2 s), and three pairs have read
``worse`` where six more of the same two trees read 1.01 ×, so a verdict
from so few pairs is advisory.  The verdict rule is the same either way.

Every run made is printed.  Exits 1 if any run reported a failed operation,
2 if a run could not be made.  Standard library only; reads the ledger's
one JSON line and nothing else of it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Callable, Iterator

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUN_SECONDS = 10
SIDES = ("parent", "change")
#: Below this many pairs a table carries the bimodal-runs caution.
FEW_PAIRS = 6

#: ``runner(side, workload, seed)`` returns the ledger's driver line, parsed.
Runner = Callable[[str, str, int], dict]


def run_pairs(
    runner: Runner, workload: str, pairs: int, first_seed: int = 1
) -> list[dict[str, dict]]:
    """Run ``pairs`` parent/change pairs, pair *i* at seed ``first_seed + i - 1``;
    odd pairs start with the parent."""
    done = []
    for pair in range(1, pairs + 1):
        order = SIDES if pair % 2 else SIDES[::-1]
        seed = first_seed + pair - 1
        done.append({side: runner(side, workload, seed) for side in order})
    return done


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, int]:
    """``(verdict, pairs the change won)`` for one metric on one workload."""
    # Oriented so that a positive number is an improvement.
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    improvement = sign * (p_median - c_median)
    allowed = bound * abs(p_median)
    if wins >= 0.9 * len(parent) and improvement > p_q3 - p_q1:
        return "gain", wins
    if -improvement > allowed:
        return "worse", wins
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    if max(p_q3 - p_q1, c_q3 - c_q1) > allowed and not separated:
        return "unresolved", wins
    return "unchanged", wins


def report(
    workload: str,
    done: list[dict[str, dict]],
    metrics: list[dict],
    out=None,
    first_seed: int = 1,
) -> int:
    """Print one workload's table (to stdout by default); return how many
    operations failed."""
    failed = 0
    last_seed = first_seed + len(done) - 1
    print(f"== {workload}: {len(done)} pairs, seeds {first_seed}..{last_seed} ==",
          file=out)
    for pair, lines in enumerate(done, start=1):
        for side in lines:  # in the order they ran
            line = lines[side]
            failed += line["failed"]
            values = "  ".join(
                f"{m['name']} {line['metrics'][m['name']]['value']:.6g}" for m in metrics
            )
            print(f"  pair {pair:>2} {side:<6} failed {line['failed']}/"
                  f"{line['attempted']}  {values}", file=out)
    print(f"  {'metric':<20} {'unit':<6} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'change/parent':<20} wins   verdict", file=out)
    for metric in metrics:
        name = metric["name"]
        sides = {
            side: [lines[side]["metrics"][name]["value"] for lines in done]
            for side in SIDES
        }
        word, wins = verdict(sides["parent"], sides["change"], metric["better"],
                             metric["bound"])
        shown, medians = {}, {}
        for side in SIDES:
            q1, medians[side], q3 = quartiles(sides[side])
            shown[side] = f"{medians[side]:.6g} [{q1:.6g}, {q3:.6g}]"
        base = medians["parent"]
        ratio = f"{medians['change'] / base:.3f} of {base:.4g}" if base else "n/a"
        print(f"  {name:<20} {metric['unit']:<6} {shown['parent']:<32} "
              f"{shown['change']:<32} {ratio:<20} {wins:>2}/{len(done):<3} {word}",
              file=out)
    if len(done) < FEW_PAIRS:
        print(f"  caution: only {len(done)} pairs; runs of the same code can be bimodal, "
              f"so a verdict from fewer than {FEW_PAIRS} pairs is advisory", file=out)
    return failed


def subprocess_runner(checkouts: dict[str, pathlib.Path]) -> Runner:
    """Run each side's own ``run.py``, from its own checkout."""

    def runner(side: str, workload: str, seed: int) -> dict:
        checkout = checkouts[side]
        print(f"[{workload}] seed {seed} {side} ...", file=sys.stderr, flush=True)
        done = subprocess.run(
            [sys.executable, str(checkout / "benchmarks" / "ledger" / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(RUN_SECONDS), "--trace", "0"],
            cwd=checkout, stdout=subprocess.PIPE, text=True,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(
                f"{side} run of {workload} at seed {seed} exited {done.returncode}"
            )
        return json.loads(lines[-1])

    return runner


@contextlib.contextmanager
def parent_checkout(rev: str) -> Iterator[pathlib.Path]:
    """``rev`` in a detached worktree that is removed on exit."""
    scratch = pathlib.Path(tempfile.mkdtemp(prefix="ledger-pairs-"))
    path = scratch / "parent"
    git = ["git", "-C", str(ROOT), "worktree"]
    subprocess.run([*git, "add", "--detach", str(path), rev],
                   check=True, stdout=subprocess.DEVNULL)
    try:
        yield path
    finally:
        subprocess.run([*git, "remove", "--force", str(path)],
                       check=False, stdout=subprocess.DEVNULL)
        shutil.rmtree(scratch, ignore_errors=True)


def compare(
    runner: Runner,
    workloads: list[str],
    pairs: int,
    metrics: list[dict],
    first_seed: int = 1,
) -> int:
    """All workloads, one after another; the number of failed operations."""
    failed = 0
    for workload in workloads:
        done = run_pairs(runner, workload, pairs, first_seed)
        failed += report(workload, done, metrics, first_seed=first_seed)
    return failed


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent-rev", default="HEAD",
                        help="git revision to compare this checkout against")
    parser.add_argument("--workload", action="append", choices=names, required=True,
                        help="ledger workload to pair (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first pair; pair i runs seed S + i - 1")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    try:
        with parent_checkout(args.parent_rev) as parent:
            runner = subprocess_runner({"parent": parent, "change": ROOT})
            failed = compare(runner, args.workload, args.pairs,
                             contract["end_to_end"], args.first_seed)
    except (RuntimeError, subprocess.CalledProcessError) as error:
        print(f"ledger_pairs: {error}", file=sys.stderr)
        return 2
    if failed:
        print(f"ledger_pairs: {failed} failed operations", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
