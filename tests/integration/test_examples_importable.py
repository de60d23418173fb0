"""Smoke checks on the example scripts.

Every example runs end to end in the CI ``examples`` job (each takes
about a second); here we guarantee each script parses, imports against
the current API, and exposes a ``main`` entry point, and run the state
backend tour, the one that drives the state API without an engine.
"""

import ast
import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


def test_expected_examples_present():
    names = {path.stem for path in EXAMPLES}
    assert {
        "quickstart",
        "nexmark_auctions",
        "drilldown_channels",
        "skew_robustness",
        "sliding_windows",
        "state_backend_tour",
    } <= names


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_parses_and_has_main(path):
    tree = ast.parse(path.read_text())
    function_names = {
        node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
    }
    assert "main" in function_names
    # Every example must carry a module docstring with a Run: line.
    docstring = ast.get_docstring(tree)
    assert docstring and "Run:" in docstring


def load(path):
    """The example module at ``path`` (its ``__main__`` guard keeps
    ``main`` from running)."""
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_cleanly(path):
    """Importing must resolve every symbol against the current API."""
    assert callable(load(path).main)


def test_state_backend_tour_runs(capsys):
    """The tour's three partials meet at the key's leader: two helpers
    ship one key each, and the leader's window fire emits their sum."""
    (tour,) = (path for path in EXAMPLES if path.stem == "state_backend_tour")
    load(tour).main()
    out = capsys.readouterr().out
    assert out.count(": 1 keys, 64 B") == 2
    assert "sees (0, 42) = 42.0" in out
    assert "emitted: {42: 42.0}" in out
