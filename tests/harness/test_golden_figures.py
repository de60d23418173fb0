"""Byte-identity of figure renders against committed goldens, through
the CLI.

No refactor of the construction path (registry, scenarios, grids, the
CLI front door) may move a single simulated cycle: the goldens were
rendered from the original hand-rolled experiment loops at pinned sizes.
``tests/grid/test_golden_pins.py`` pins them through ``run_grid``
(serial and pooled); this pins the file ``python -m repro grid`` writes.
"""

import pathlib

from repro.harness.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_fig8a_file_written_by_the_cli_matches_golden(tmp_path, capsys):
    assert main(["grid", "fig8a", "--axis", "buffer=4096,65536",
                 "--set", "threads=2", "--set", "records_per_thread=8000",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "fig8ab.txt").read_text() == (
        GOLDEN / "fig8a_smoke.txt"
    ).read_text()
