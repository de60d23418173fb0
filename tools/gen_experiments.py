#!/usr/bin/env python
"""Generate EXPERIMENTS.md from the figure grids' claims.

``EXPERIMENTS.md`` is *output*: every paper figure is one registered grid
(``repro.grid.figures``) carrying its paper size and its claims, and this
tool runs the 14 of them at that size through the same ``run_grid`` +
``check_claims`` path as ``python -m repro run <figure>``, then prints
the static preface and one claim table per figure.  The simulator is
deterministic, so the committed file is reproducible to the byte — the
CI ``paper-claims`` job diffs it — and the tool exits non-zero, naming
the claims, when a computed verdict is not the documented one.

Usage::

    python tools/gen_experiments.py -j 2 > EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import pathlib
import sys

# Runs from a bare checkout, worker processes of ``-j N`` included.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

PREFACE = """\
# EXPERIMENTS — paper vs. measured, for every table and figure

This file is generated: `python tools/gen_experiments.py > EXPERIMENTS.md`
runs every figure below at its declared size and evaluates its claims.
Each section is one registered grid of `src/repro/grid/figures.py` — its
sweep, its paper-size knobs and its claims in one declaration — and the
command in the section header reproduces that section's report and claim
table.  **Measured rates are simulated-clock rates** on the modelled
16-node / 100 Gb/s rack; input volumes are scaled down from the paper's
1 GB/thread (simulated rates are volume-independent once a run reaches
steady state — volumes are chosen so the measured span is dominated by
steady state, and a larger tail remains visible at 16 nodes, noted
below).  The reproduction targets *shape*: orderings, scaling behaviour,
crossovers, and bound-by verdicts.

Legend: ✔ = shape reproduced, and the paper's number where it gives one
(a factor within 1.5x, a share within 5 points); ~ = same direction,
smaller/larger magnitude; ✘ = deviation, explained.  The verdict is
computed from the run's rows; a run whose computed verdict differs from
the one documented here fails (`CLAIMS FAILED`, exit 1), so a change that
moves a verdict has to move this file with it (docs/testing.md, "Paper
claims").

## Reproduction notes

* **Waits are observable.**  The simulator distinguishes busy cycles from
  spin-wait (`pause`) cycles; breakdown figures include waits as
  core-bound (as a PMU would), Table 1's per-record cycle counts use busy
  cycles, and the wait share is reported explicitly.
* **Scaled volumes.**  Declared volumes are a few thousand records per
  thread; the 16-node Slash points carry a visible final-epoch merge
  tail (~30 % per-node efficiency loss) that shrinks with volume.
* **Calibration trade-offs.**  The paper's Table 1 (YSB partitioning at
  274 cyc/rec) and Fig. 8c (UpPar at 91 % of a 100 Gb/s link on 16 B RO
  records, i.e. ~36 cyc/rec) cannot both hold under one linear cost
  model; we calibrated between them (record-size-dependent copy cost)
  and note where each figure lands.
* **The window-trigger-lag figure** (`extra-latency`) is not in the
  paper; it is here because it quantifies the one cost of Slash's design
  that the paper's evaluation leaves implicit.
* Determinism: every experiment is a pure function of its seed; rerunning
  any command below reproduces its numbers bit for bit.
"""


def main(argv: list[str] | None = None) -> int:
    from repro.grid import check_claims, resolve_grid
    from repro.harness.cli import EXPERIMENTS, claims_exit_code, run_requests

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-j", "--jobs", type=int, default=1,
                        help="fan sweep cells over N worker processes "
                             "(output stays byte-identical to -j 1)")
    args = parser.parse_args(argv)
    requests = [(resolve_grid(name), {}, {}) for name in EXPERIMENTS]
    failed = []
    print(PREFACE, end="")
    for grid, report, _elapsed in run_requests(requests, max(1, args.jobs)):
        table, unexpected = check_claims(grid, report.rows)
        failed.extend(unexpected)
        print(f"\n## {grid.name} — {grid.description} "
              f"(`python -m repro run {grid.name}`)\n\n{table}")
    return claims_exit_code(failed)


if __name__ == "__main__":
    sys.exit(main())
