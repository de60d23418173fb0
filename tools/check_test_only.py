#!/usr/bin/env python3
"""Flag ``src/`` definitions that only tests use.

Every function, class and method defined under ``src/repro`` must be used
at least once in ``src/``, ``tools/``, ``benchmarks/`` or ``examples/``
outside its own definition.  A use is the name as a variable, an
attribute, an imported name or an identifier-shaped string (an
``__all__`` entry, a quoted annotation, a ``getattr`` name); dunder
methods belong to the interpreter.  Names are matched, not resolved, so
the check misses a dead method that shares its name with a live one.

A definition only tests reach is weight the program carries for nothing:
delete it, and port any test that checks real behaviour through it.  The
few that stay are in :data:`ALLOWED`, each with its reason; an entry that
no longer names a test-only definition is flagged too, so the list cannot
go stale.

Exit status: 0 when clean, 1 with one ``file:line`` diagnostic per
finding otherwise.  Run as ``python tools/check_test_only.py`` from the
repo root (or pass the repo root as argv[1]).
"""

from __future__ import annotations

import ast
import pathlib
import sys

#: Directories whose code counts as a use.
SEARCHED = ("src", "tools", "benchmarks", "examples")

#: ``path under src:qualname`` -> why the definition stays.
ALLOWED: dict[str, str] = {
    "repro/core/aggregations.py:sequential_aggregate":
        "the sequential reference the aggregation tests compare against",
    "repro/core/aggregations.py:partial_aggregate":
        "the per-batch reference the transfer-bench merge tests compare against",
    "repro/state/crdt.py:fold":
        "the sequential fold the CRDT law tests compare merges against",
    "repro/state/lss.py:LogStructuredStore.mark_readonly":
        "the store tests check copy-on-write below the boundary through it",
    "repro/state/lss.py:LogStructuredStore.delta_pairs":
        "the store tests check delta semantics through it",
    "repro/simnet/kernel.py:Simulator.run_until_process":
        "how the kernel and channel tests drive one process to completion",
    "repro/channel/channel.py:ConsumerEndpoint.eos":
        "the channel tests observe end-of-stream through it",
    "repro/channel/channel.py:LocalChannel.eos":
        "the channel tests observe end-of-stream through it",
    "repro/baselines/ipoib.py:IpoibChannel.eos":
        "the IPoIB tests observe end-of-stream through it",
    "repro/channel/protocol.py:FlowControl.available":
        "the credit-conservation tests read the producer's credits through it",
    "repro/rdma/region.py:MemoryRegion.occupied_offsets":
        "the verbs tests watch one-sided writes land through it",
    "repro/core/query.py:StreamBuilder.map_value":
        "the query builder's value step; the pipeline tests build sum queries with it",
}


def _definitions(tree: ast.Module):
    """Yield ``(qualname, node)`` for every function and class, nested too."""
    stack = [(node, "") for node in reversed(tree.body)]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield qualname, node
            stack.extend((child, qualname + ".") for child in reversed(node.body))
        else:
            stack.extend(
                (child, prefix) for child in reversed(list(ast.iter_child_nodes(node)))
                if isinstance(child, ast.stmt)
            )


def _uses(tree: ast.Module):
    """Every name the module uses; definition names are not uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def check(repo_root: pathlib.Path, allowed: dict[str, str] = ALLOWED) -> list[str]:
    used: set[str] = set()
    defined: list[tuple[str, str, int]] = []
    package_root = repo_root / "src"
    for directory in SEARCHED:
        for path in sorted((repo_root / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            used.update(_uses(tree))
            if directory != "src":
                continue
            relative = path.relative_to(package_root).as_posix()
            for qualname, node in _definitions(tree):
                defined.append((relative, qualname, node.lineno))

    findings = []
    test_only = set()
    for relative, qualname, lineno in defined:
        name = qualname.rsplit(".", 1)[-1]
        if name in used or (name.startswith("__") and name.endswith("__")):
            continue
        key = f"{relative}:{qualname}"
        test_only.add(key)
        if key not in allowed:
            findings.append(
                f"src/{relative}:{lineno}: {qualname} is used by no code "
                "outside its definition (delete it, or add it to ALLOWED "
                "with a reason)"
            )
    for key in sorted(set(allowed) - test_only):
        findings.append(
            f"tools/check_test_only.py: ALLOWED entry {key} names no "
            "test-only definition (remove the entry)"
        )
    return findings


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path(".")
    if not (root / "src" / "repro").is_dir():
        print(f"no src/repro under {root}", file=sys.stderr)
        return 2
    findings = check(root)
    for line in findings:
        print(line, file=sys.stderr)
    if findings:
        print(f"{len(findings)} test-only definition finding(s)", file=sys.stderr)
        return 1
    print("no test-only definitions OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
