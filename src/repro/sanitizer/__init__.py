"""Runtime invariant checkers and the differential oracle harness.

The sanitizer turns the protocol contracts the paper states in prose —
credit conservation (Sec. 6.2), buffer lifecycle under footer polling
(Sec. 6.3), vector-clock monotonicity and watermark-safe triggering
(property P1, Sec. 5.1), and exactly-once epoch admission (Sec. 7.2.2)
— into machine-checked assertions that run *inside* a simulation.

Three layers:

* :mod:`repro.sanitizer.invariants` — the :class:`Sanitizer` attached at
  ``sim.sanitize`` plus the structured :class:`InvariantViolation` it
  raises (off by default; every hook is a single attribute check when
  disabled);
* :mod:`repro.sanitizer.scenarios` — the sampler that draws
  seed-reproducible :class:`repro.runtime.Scenario` fuzz cases (workload
  x cluster shape x fault plan x recovery strategy x live rescale x
  overload) and the check that runs one, sanitizers on, against the
  sequential reference oracle and the partitioned baseline;
* :mod:`repro.sanitizer.shrinker` — greedy minimization of a failing
  case down to the smallest input that still fails, so the repro
  command the harness prints is as small as the bug allows.
"""

from repro.sanitizer.invariants import InvariantViolation, Sanitizer

__all__ = ["InvariantViolation", "Sanitizer"]
