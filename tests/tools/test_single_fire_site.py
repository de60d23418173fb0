"""One fire site: only the core fire module takes a window out of a store.

Slash, the partitioned engines and LightSaber fire aggregate, join and
session windows through ``core/fire.py``; the state layer's own stores
and the handle over them are the only other code that pops a window.  A
fire is atomic: it writes every result of the state it popped before it
yields, so a checkpoint or snapshot captured while the fire's cost passes
holds each popped key in the store or in the results.

This test parses ``src/repro`` and fails if a second fire site appears
(outside ``state/``, a module other than the fire module pops a window)
or if a function that pops window state — through a store, or key by key
from a dict, whatever it is called — has a ``yield`` between its first
pop and its last write of a result.
"""

import ast
import pathlib
import textwrap

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: The one module outside ``state/`` allowed to pop a window.
FIRE_MODULE = "core/fire.py"
#: Store calls that take a window's state out (current and former names).
WINDOW_POPS = {"pop_window_columns", "pop_window", "extract_window"}


def _names(node: ast.AST) -> list[str]:
    """The names along an attribute / subscript / call chain."""
    names = []
    while True:
        if isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        else:
            if isinstance(node, ast.Name):
                names.append(node.id)
            return names


def _is_result(node: ast.AST) -> bool:
    return any(
        name.startswith("results") or name == "emitted" for name in _names(node)
    )


def _pops_state(call: ast.Call) -> bool:
    func = call.func
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr in WINDOW_POPS:
        return True
    # Window state kept as a dict, popped key by key.
    return func.attr == "pop" and bool(call.args)


class _Fires(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module = module
        self.scope: list[str] = []
        self.frames: list[dict[str, list[int]]] = []
        #: (where, line) of every window pop.
        self.pop_sites: list[tuple[str, int]] = []
        #: where -> the pop, yield and result-write lines of a popping function.
        self.fires: dict[str, dict[str, list[int]]] = {}

    def _where(self) -> str:
        return f"{self.module}:{'.'.join(self.scope)}"

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def _function(self, node):
        self.scope.append(node.name)
        self.frames.append({"pops": [], "yields": [], "writes": []})
        self.generic_visit(node)
        frame = self.frames.pop()
        if frame["pops"]:
            self.fires[self._where()] = frame
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def _note(self, kind: str, lineno: int) -> None:
        if self.frames:
            self.frames[-1][kind].append(lineno)

    def visit_Call(self, node: ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in WINDOW_POPS:
            self.pop_sites.append((self._where(), node.lineno))
        if _pops_state(node):
            self._note("pops", node.lineno)
        elif isinstance(func, ast.Attribute) and _is_result(func.value):
            self._note("writes", node.lineno)
        self.generic_visit(node)

    def _yield(self, node):
        self._note("yields", node.lineno)
        self.generic_visit(node)

    visit_Yield = visit_YieldFrom = visit_Await = _yield

    def _assign(self, node, targets):
        if any(_is_result(target) for target in targets):
            self._note("writes", node.lineno)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign):
        self._assign(node, node.targets)

    def visit_AugAssign(self, node: ast.AugAssign):
        self._assign(node, [node.target])


def fire_sites() -> tuple[list[tuple[str, int]], dict[str, dict[str, list[int]]]]:
    pop_sites: list[tuple[str, int]] = []
    fires: dict[str, dict[str, list[int]]] = {}
    for path in sorted(SRC.rglob("*.py")):
        visitor = _Fires(path.relative_to(SRC).as_posix())
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        pop_sites.extend(visitor.pop_sites)
        fires.update(visitor.fires)
    return pop_sites, fires


def torn_fires(fires: dict[str, dict[str, list[int]]]) -> dict[str, dict]:
    """The fires with a ``yield`` between their first pop and last write."""
    torn = {}
    for where, frame in fires.items():
        first_pop = min(frame["pops"])
        last_write = max(frame["writes"], default=first_pop)
        yields = [line for line in frame["yields"] if first_pop < line < last_write]
        if yields:
            torn[where] = {"pop": first_pop, "yields": yields, "last_write": last_write}
    return torn


def test_only_the_fire_module_pops_a_window_outside_the_state_layer():
    pop_sites, _fires = fire_sites()
    outside = [(where, line) for where, line in pop_sites if not where.startswith("state/")]
    assert outside, "the fire module pops no window: is the lint still looking?"
    assert {where.split(":")[0] for where, _line in outside} == {FIRE_MODULE}, outside


def test_a_fire_writes_its_results_before_it_yields():
    _pop_sites, fires = fire_sites()
    assert torn_fires(fires) == {}
    assert {f"{FIRE_MODULE}:fire_aggregate", f"{FIRE_MODULE}:fire_join"} <= set(fires)


def test_a_dict_popped_under_any_name_is_a_fire():
    """A late merge that pops thread-local dicts (not named ``state``),
    charges, and only then writes its results is a torn fire."""
    source = textwrap.dedent(
        """
        def fire(core, window_id):
            merged = {}
            for local in locals_:
                for state_key in [k for k in local if k[0] == window_id]:
                    merged[state_key[1]] = local.pop(state_key)
            yield from core.execute(merge_cost, float(len(merged)))
            for key, payload in merged.items():
                results[(window_id, key)] = payload
            emitted[0] += len(merged)
        """
    )
    visitor = _Fires("engine.py")
    visitor.visit(ast.parse(source))
    assert set(torn_fires(visitor.fires)) == {"engine.py:fire"}
