"""The command-line harness over the grid registry.

:mod:`repro.harness.cli` is the one front door (``python -m repro``):
``run`` and ``grid`` both resolve a registered
:class:`~repro.grid.SweepGrid` and execute it through
:func:`repro.grid.run_grid`; :mod:`repro.harness.suites` holds the
sequential acceptance protocols (``chaos``, ``elastic``, ``overload``)
whose later runs depend on what a baseline run measured.
"""
