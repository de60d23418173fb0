#!/usr/bin/env python3
"""Enforce the repo's import layering: no upward imports between layers.

The refactored layering (see docs/architecture.md) is a strict DAG::

    common -> simnet -> rdma/channel/state -> membership/metrics
           -> core -> elastic/faults/overload/workloads -> baselines
           -> runtime -> grid/sanitizer -> harness

A module may import from its own layer or any layer below it; importing
from a layer above is an error (it is how the pre-refactor tangles crept
in, e.g. the sanitizer reaching into the harness for ``Report``).

A few files also have **per-file bans** (:data:`FORBIDDEN`), checked at
any depth: ``faults/injector.py`` applies faults and fences for every
engine, so it may not import a recovery protocol — the engines hand it
one.

From ``core`` up, only **module-level** imports are checked: a lazy
import inside a function is the sanctioned escape hatch for genuinely
late bindings (pool workers, optional plane attachments).  The layers
below ``core`` have no late bindings, so their imports inside functions
and classes are checked too.  ``if TYPE_CHECKING:`` blocks are skipped
everywhere because they never execute.

Exit status: 0 when clean, 1 with one ``file:line`` diagnostic per
violation otherwise.  Run as ``python tools/check_layering.py`` from the
repo root (or pass the package root as argv[1]).
"""

from __future__ import annotations

import ast
import pathlib
import sys

#: repro.<subpackage> -> layer rank.  Equal ranks may import each other.
LAYERS: dict[str, int] = {
    "common": 0,
    "simnet": 1,
    "rdma": 2,
    "channel": 2,
    "state": 2,
    "membership": 3,
    "metrics": 3,
    "core": 4,
    "elastic": 5,
    "faults": 5,
    "overload": 5,
    "workloads": 5,
    "baselines": 6,
    "runtime": 7,
    "grid": 8,
    "sanitizer": 8,
    "harness": 9,
}

#: Layers ranked below this one get their function-level imports checked.
LAZY_CHECKED_BELOW = LAYERS["core"]

#: Files whose whole point is to stitch layers together for end users.
EXEMPT = {"repro/__init__.py", "repro/__main__.py"}

#: file -> modules it may not import, lazy imports included.
FORBIDDEN: dict[str, frozenset] = {
    "repro/faults/injector.py": frozenset(
        {"repro.faults.recovery", "repro.faults.snapshots"}
    ),
}


def _layer_of(module: str) -> str | None:
    """The repro subpackage a dotted module path belongs to, if any."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def _type_checking_guard(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    name = getattr(test, "id", None) or getattr(test, "attr", None)
    return isinstance(node, ast.If) and name == "TYPE_CHECKING"


def _imports(tree: ast.Module, lazy: bool):
    """Yield (node, dotted-module) for every import that runs at import
    time: direct module-body statements plus ``try:`` fallbacks, but not
    ``if`` blocks (TYPE_CHECKING guards) or function/class bodies.  With
    ``lazy``, every import outside a TYPE_CHECKING guard, at any depth."""
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is not None and node.level == 0:
                yield node, node.module
        elif lazy:
            if not _type_checking_guard(node):
                stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.Try):
            stack.extend(node.body)
            stack.extend(node.orelse)
            stack.extend(node.finalbody)
            for handler in node.handlers:
                stack.extend(handler.body)


def check(package_root: pathlib.Path) -> list[str]:
    violations = []
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root.parent).as_posix()
        if relative in EXEMPT or "__pycache__" in relative:
            continue
        importer = _layer_of(relative.removesuffix(".py").replace("/", "."))
        if importer is None:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        banned = FORBIDDEN.get(relative, frozenset())
        for node, module in _imports(tree, lazy=True):
            # ``from repro.faults import recovery`` names a module too.
            names = {module}
            if isinstance(node, ast.ImportFrom):
                names.update(f"{module}.{alias.name}" for alias in node.names)
            for name in sorted(names & banned):
                violations.append(
                    f"{relative}:{node.lineno}: may not import {name} "
                    "(the engines register the recovery object)"
                )
        lazy = LAYERS[importer] < LAZY_CHECKED_BELOW
        for node, module in _imports(tree, lazy):
            imported = _layer_of(module)
            if imported is None:
                continue
            if LAYERS[imported] > LAYERS[importer]:
                violations.append(
                    f"{relative}:{node.lineno}: layer "
                    f"'{importer}' (rank {LAYERS[importer]}) imports upward "
                    f"from '{imported}' (rank {LAYERS[imported]}): {module}"
                )
    return violations


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[1]) if len(argv) > 1 else pathlib.Path("src/repro")
    if not root.is_dir():
        print(f"package root {root} not found", file=sys.stderr)
        return 2
    violations = check(root)
    for line in violations:
        print(line, file=sys.stderr)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("import layering OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
