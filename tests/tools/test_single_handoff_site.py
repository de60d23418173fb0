"""One ownership handoff: exactly one function re-points a partition.

Failover and live migration both build a ``Handoff`` and let
``SlashExecutor.install`` apply it; that is the only caller of
``PartitionDirectory.reassign``, and ``reassign`` is the only writer of a
partition's leader and term.  This test parses ``src/repro`` and fails if
a second site appears — a hand-written install beside the primitive, or a
private term registry beside the directory's.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: The one function allowed to call ``<directory>.reassign(...)``.
INSTALL = "core/executor.py:SlashExecutor.install"
#: The one function allowed to write a leader slot or a term.
REASSIGN = "state/partition.py:PartitionDirectory.reassign"
#: Attributes whose items are a partition's leader or term.
OWNERSHIP_MAPS = {"_leader_of", "terms", "_terms"}


class _Sites(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.sites: list[tuple[str, str, int]] = []

    def _where(self) -> str:
        return f"{self.module}:{'.'.join(self.scope)}"

    def _nested(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _nested

    def visit_Call(self, node: ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("reassign", "bump"):
            self.sites.append((func.attr, self._where(), node.lineno))
        self.generic_visit(node)

    def _targets(self, targets, lineno):
        for target in targets:
            for sub in ast.walk(target):
                if (
                    isinstance(sub, ast.Subscript)
                    and isinstance(sub.value, ast.Attribute)
                    and sub.value.attr in OWNERSHIP_MAPS
                ):
                    self.sites.append(("write", self._where(), lineno))

    def visit_Assign(self, node: ast.Assign):
        self._targets(node.targets, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign):
        self._targets([node.target], node.lineno)
        self.generic_visit(node)


def ownership_sites() -> list[tuple[str, str, int]]:
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        visitor = _Sites(path.relative_to(SRC).as_posix())
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        sites.extend(visitor.sites)
    return sites


def test_only_the_install_primitive_reassigns_a_partition():
    sites = ownership_sites()
    reassigns = [(where, line) for kind, where, line in sites if kind == "reassign"]
    assert [where for where, _line in reassigns] == [INSTALL], reassigns


def test_only_reassign_writes_a_leader_or_a_term():
    sites = ownership_sites()
    bumps = [site for site in sites if site[0] == "bump"]
    assert bumps == []
    writers = {where for kind, where, _line in sites if kind == "write"}
    assert writers == {REASSIGN}, sorted(writers)
