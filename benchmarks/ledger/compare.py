#!/usr/bin/env python3
"""Apply the ledger's bounds to two result files of ``run.py --json``.

    python benchmarks/ledger/compare.py base.json new.json

Prints one row per (metric, workload): *better*, *worse*, *unchanged*, or
*unresolved* — the run-to-run spread (interquartile range over median, the
wider of the two sides) exceeds the bound, so the pair cannot be told
apart.  Every ratio is new / base, printed with its base.  Exits 1 if any
row is worse, or if an operation failed on the new side.
"""

from __future__ import annotations

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from metrics import BY_NAME, END_TO_END, SETUP_FLOOR_S, SHARE_TOLERANCE  # noqa: E402


def verdict(metric, base: dict, new: dict) -> str:
    """better / worse / unchanged / unresolved for one (metric, workload)."""
    a, b = base["value"], new["value"]
    if a == b:
        return "unchanged"
    # The share by which the new side is worse than the base.
    worse_by = (b - a) / abs(a) if a else float("inf")
    if metric.better == "higher":
        worse_by = -worse_by
    if metric.kind != "host":  # exact for a seed: any difference counts
        return "worse" if worse_by > 0 else "better"
    spread = max(
        (side["q3"] - side["q1"]) / side["value"] if "q1" in side else 0.0
        for side in (base, new)
    )
    if spread > metric.bound:
        return "unresolved"
    if metric.name == "setup_s" and abs(b - a) < SETUP_FLOOR_S:
        return "unchanged"
    if worse_by > metric.bound:
        return "worse"
    return "better" if worse_by < -metric.bound else "unchanged"


def report(base: dict, new: dict, same_code: bool = False) -> int:
    """Print the rows; return 1 if the new side regressed.

    ``same_code`` adds what two sets of runs of one commit must also
    satisfy: identical digests and exact counts, and every layer's share
    of host time within ``SHARE_TOLERANCE``.
    """
    bad = 0
    print(f"{'metric':<24} {'workload':<17} {'base':>12} {'new':>12} {'new/base':>9}  verdict")
    for name, theirs in base["workloads"].items():
        ours = new["workloads"].get(name)
        if ours is None:
            continue
        for metric in END_TO_END:
            a, b = theirs["end_to_end"].get(metric.name), ours["end_to_end"].get(metric.name)
            if a is None or b is None:
                continue
            word = verdict(metric, a, b)
            ratio = f"{b['value'] / a['value']:.4f}" if a["value"] else "-"
            print(f"{metric.name:<24} {name:<17} {a['value']:>12.6g} {b['value']:>12.6g}"
                  f" {ratio:>9}  {word}")
            bad |= word == "worse" or (same_code and word == "better" and metric.kind != "host")
        if ours["ops_failed"]:
            print(f"{'ops_failed':<24} {name:<17} {theirs['ops_failed']:>12} "
                  f"{ours['ops_failed']:>12}            worse")
            bad = 1
        if same_code:
            bad |= _same_code_rows(name, theirs, ours)
    return int(bad)


def _same_code_rows(name: str, theirs: dict, ours: dict) -> int:
    bad = 0
    if theirs["digests"] != ours["digests"]:
        print(f"{'digests':<24} {name:<17} differ between two sets of the same code")
        bad = 1
    a, b = theirs.get("per_layer", {}), ours.get("per_layer", {})
    for key in sorted(a.keys() & b.keys()):
        metric = BY_NAME[key]
        delta = b[key]["value"] - a[key]["value"]
        if metric.kind != "host" and delta:
            print(f"{key:<24} {name:<17} {a[key]['value']:>12} {b[key]['value']:>12}"
                  "            not exact")
            bad = 1
        elif key.endswith(".self_share") and abs(delta) > SHARE_TOLERANCE:
            print(f"{key:<24} {name:<17} {a[key]['value']:>12.4f} {b[key]['value']:>12.4f}"
                  f"            moved {delta:+.3f}")
            bad = 1
    return bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    return report(base, new)


if __name__ == "__main__":
    raise SystemExit(main())
