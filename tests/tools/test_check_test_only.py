"""The test-only definition lint: clean on the real tree, loud on a plant."""

import importlib.util
import pathlib
import textwrap

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_test_only", REPO_ROOT / "tools" / "check_test_only.py"
)
check_test_only = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_test_only)

LIVE = """
    __all__ = ["main"]

    def helper():
        return 1

    class Engine:
        def run(self):
            return helper()

    def main():
        return Engine().run()
"""


@pytest.fixture
def fake_repo(tmp_path):
    """Write files under a synthetic repo root and lint it."""

    def build(files: dict[str, str], allowed=None):
        for relative, body in {"src/repro/pkg/live.py": LIVE, **files}.items():
            path = tmp_path / relative
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(body))
        for directory in check_test_only.SEARCHED:
            (tmp_path / directory).mkdir(exist_ok=True)
        return check_test_only.check(tmp_path, allowed or {})

    return build


def test_real_tree_is_clean():
    assert check_test_only.check(REPO_ROOT) == []


def test_live_code_passes(fake_repo):
    assert fake_repo({}) == []


def test_planted_test_only_definition_is_flagged(fake_repo):
    findings = fake_repo({
        "src/repro/pkg/extra.py": """
            __all__ = ["store"]

            class Store:
                def size(self):
                    return 0

                def log_length(self):
                    return 0

            def store():
                return Store().size()
        """,
        "tests/test_extra.py": """
            from repro.pkg.extra import store

            def test_log_length():
                assert store().log_length() == 0
        """,
    })
    assert len(findings) == 1
    assert "src/repro/pkg/extra.py:8: Store.log_length" in findings[0]


def test_uses_in_tools_examples_and_all_count(fake_repo):
    findings = fake_repo({
        "src/repro/pkg/api.py": """
            __all__ = ["exported"]

            def exported():
                pass

            def for_tools():
                pass

            def for_examples():
                pass
        """,
        "tools/tool.py": "from repro.pkg.api import for_tools\n",
        "examples/demo.py": "import repro.pkg.api as api\napi.for_examples()\n",
    })
    assert findings == []


def test_allowlist_exempts_and_cannot_go_stale(fake_repo):
    files = {"src/repro/pkg/ref.py": "def reference():\n    pass\n"}
    assert fake_repo(files, {"repro/pkg/ref.py:reference": "the oracle"}) == []
    findings = fake_repo(files, {
        "repro/pkg/ref.py:reference": "the oracle",
        "repro/pkg/live.py:helper": "used after all",
    })
    assert len(findings) == 1
    assert "ALLOWED entry repro/pkg/live.py:helper" in findings[0]


def test_cli_entry_point_exits_zero_on_real_tree():
    assert check_test_only.main(["check_test_only", str(REPO_ROOT)]) == 0
