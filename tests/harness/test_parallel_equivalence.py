"""Tier-1 guarantee: ``-j N`` output is byte-identical to ``-j 1``.

Runs two real experiments end to end through the CLI at tiny sizes,
once serially and once over a 4-worker process pool, and compares the
written report files byte for byte — the determinism contract of the
grid runners (docs/performance.md).
"""

import pathlib

import pytest

from repro.grid import (
    PoolRunner,
    SerialRunner,
    make_pool,
    run_cell,
    transfer_cell,
)
from repro.harness.cli import main

#: Two experiments with different cell kinds (transfer + end-to-end).
TARGETS = ["fig8ab", "table1"]
SIZE_ARGS = ["--quick", "--records", "300"]


@pytest.mark.parametrize("name", TARGETS)
def test_j4_output_byte_identical_to_j1(name, tmp_path, capsys):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    assert main(["run", name, *SIZE_ARGS, "-j", "1", "--out", str(serial_dir)]) == 0
    assert main(["run", name, *SIZE_ARGS, "-j", "4", "--out", str(parallel_dir)]) == 0
    capsys.readouterr()
    for suffix in (".txt", ".json"):
        serial = (serial_dir / f"{name}{suffix}").read_bytes()
        parallel = (parallel_dir / f"{name}{suffix}").read_bytes()
        assert serial == parallel, f"{name}{suffix} differs between -j 1 and -j 4"


def test_pool_runner_preserves_cell_order():
    """Results must come back positionally, never by completion order."""
    cells = [
        transfer_cell(
            "slash",
            workload_overrides={"records_per_thread": 200 * (i + 1)},
            threads=2, buffer_bytes=16384,
        )
        for i in range(4)
    ]
    serial = SerialRunner().map(cells)
    with make_pool(2) as pool:
        pooled = PoolRunner(pool, 2).map(cells)
    assert [r.records for r in pooled] == [r.records for r in serial]
    assert [r.throughput_bytes_per_s for r in pooled] == [
        r.throughput_bytes_per_s for r in serial
    ]


def test_unknown_cell_kind_raises():
    from repro.common.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown cell kind"):
        run_cell(("bogus", {}))


def test_per_panel_aliases_resolve(tmp_path, capsys):
    out = tmp_path / "alias"
    assert main(["run", "fig8a", *SIZE_ARGS, "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "fig8ab.txt").exists()


def test_unknown_experiment_suggests_closest(capsys):
    assert main(["run", "fig8x"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "did you mean" in err
