"""The chaos-matrix generator: derived from the registry, not hand-kept."""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "gen_chaos_matrix", REPO_ROOT / "tools" / "gen_chaos_matrix.py"
)
gen_chaos_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_chaos_matrix)


def test_every_cell_is_runnable_shape():
    cells = gen_chaos_matrix.build_matrix()
    assert cells
    for cell in cells:
        assert set(cell) == {"system", "fault", "strategy", "elastic"}
        assert cell["system"]
        assert cell["fault"]


def test_matrix_covers_each_fault_injectable_engine():
    from repro.runtime import REGISTRY

    cells = gen_chaos_matrix.build_matrix()
    systems = {cell["system"] for cell in cells}
    expected = {
        name for name in REGISTRY.names()
        if REGISTRY.create(name, 3).supported_fault_kinds
    }
    assert systems == expected
    assert {"slash", "uppar", "flink"} <= systems


def test_recovery_presets_cross_strategies():
    cells = gen_chaos_matrix.build_matrix()
    slash_crash = {
        cell["strategy"] for cell in cells
        if cell["system"] == "slash" and cell["fault"] == "leader-crash"
    }
    assert slash_crash == {"epoch-buddy", "async-snapshot"}
    uppar_crash = {
        cell["strategy"] for cell in cells
        if cell["system"] == "uppar" and cell["fault"] == "leader-crash"
    }
    assert uppar_crash == {"async-snapshot"}


def test_data_plane_presets_run_once_per_engine():
    cells = gen_chaos_matrix.build_matrix()
    for system in ("slash", "uppar", "flink"):
        flaps = [c for c in cells
                 if c["system"] == system and c["fault"] == "nic-flap"]
        assert len(flaps) == 1
    (flink_flap,) = [c for c in cells
                     if c["system"] == "flink" and c["fault"] == "nic-flap"]
    assert flink_flap["strategy"] == ""  # no recovery plane: no flag


def test_flink_gets_no_crash_cells():
    cells = gen_chaos_matrix.build_matrix()
    flink_faults = {c["fault"] for c in cells if c["system"] == "flink"}
    assert flink_faults == {
        "nic-flap", "drop-chunk", "credit-starvation", "slow-node", "jitter",
    }


def test_gray_fault_cells_cover_every_engine():
    """slow-node/jitter are pure data-plane kinds: one cell per engine,
    generated from supported_fault_kinds, no recovery strategy fan-out."""
    cells = gen_chaos_matrix.build_matrix()
    for kind in ("slow-node", "jitter"):
        by_system = [c for c in cells if c["fault"] == kind]
        assert {c["system"] for c in by_system} == {"slash", "uppar", "flink"}
        assert len(by_system) == 3  # data-plane: default strategy only
        for cell in by_system:
            assert not cell["elastic"]


def test_elastic_engines_get_migration_cells():
    """leader-crash x every supported migration strategy the engine
    accepts together with that crash plan."""
    cells = gen_chaos_matrix.build_matrix()
    migration = {
        system: {c["elastic"] for c in cells
                 if c["system"] == system and c["elastic"]}
        for system in ("slash", "uppar", "flink")
    }
    assert migration == {
        "slash": {"all-at-once", "fluid"},
        # UpPar rescales and recovers, but refuses both at once: a global
        # restart would rebuild the generation under the route table.
        "uppar": set(),
        "flink": set(),
    }
    for cell in cells:
        if cell["elastic"]:
            assert cell["fault"] == gen_chaos_matrix.MIGRATION_PRESET


def test_every_emitted_cell_attaches():
    """No cell CI runs may be refused before its simulation starts."""
    for cell in gen_chaos_matrix.build_matrix():
        assert gen_chaos_matrix.attaches(cell), cell


def test_cli_emits_compact_json(capsys):
    assert gen_chaos_matrix.main([]) == 0
    out = capsys.readouterr().out
    cells = json.loads(out)
    assert cells == gen_chaos_matrix.build_matrix()
