"""The import-layering lint: clean on the real tree, loud on violations."""

import importlib.util
import pathlib
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_layering", REPO_ROOT / "tools" / "check_layering.py"
)
check_layering = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_layering)


@pytest.fixture
def fake_tree(tmp_path):
    """Write files under a synthetic ``repro`` package and lint them."""

    def build(files: dict[str, str]):
        for relative, body in files.items():
            path = tmp_path / "repro" / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(body))
        return check_layering.check(tmp_path / "repro")

    return build


def test_real_tree_is_clean():
    assert check_layering.check(REPO_ROOT / "src" / "repro") == []


def test_upward_import_is_flagged(fake_tree):
    violations = fake_tree(
        {"common/bad.py": "from repro.harness.cli import main\n"}
    )
    assert len(violations) == 1
    assert "'common'" in violations[0] and "'harness'" in violations[0]


def test_plain_import_form_is_flagged(fake_tree):
    violations = fake_tree({"simnet/bad.py": "import repro.runtime.registry\n"})
    assert len(violations) == 1
    assert "'runtime'" in violations[0]


def test_lazy_and_guarded_imports_are_exempt(fake_tree):
    violations = fake_tree({
        "core/ok.py": """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.harness.cli import main  # annotation-only

            def late():
                from repro.sanitizer.harness import run_sanitize  # lazy
                return run_sanitize
        """
    })
    assert violations == []


def test_lazy_upward_import_below_core_is_flagged(fake_tree):
    violations = fake_tree({
        "channel/bad.py": """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.core.scheduler import CoroScheduler  # still exempt

            def wait(waitable):
                from repro.core.scheduler import Park  # lazy, but below core
                return (yield Park(waitable))
        """
    })
    assert len(violations) == 1
    assert "channel/bad.py:8:" in violations[0] and "'core'" in violations[0]


def test_same_layer_and_downward_imports_pass(fake_tree):
    violations = fake_tree({
        "harness/ok.py": """
            from repro.common.errors import ConfigError
            from repro.harness.suites import run_chaos
            from repro.runtime import REGISTRY
        """
    })
    assert violations == []


def test_cli_entry_point_exits_zero_on_real_tree():
    code = check_layering.main(["check_layering", str(REPO_ROOT / "src" / "repro")])
    assert code == 0


@pytest.mark.parametrize("statement", [
    "from repro.faults.snapshots import SnapshotCoordinator",
    "from repro.faults import recovery",
    "import repro.faults.recovery",
])
def test_injector_may_not_import_a_recovery_protocol(fake_tree, statement):
    violations = fake_tree({
        "faults/injector.py": f"""
            def register(recovery):
                {statement}  # lazy, but banned in this file
        """
    })
    assert len(violations) == 1
    assert "faults/injector.py:3:" in violations[0]
    assert "may not import repro.faults." in violations[0]
