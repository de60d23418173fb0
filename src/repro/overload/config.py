"""Declarative configuration for the overload plane.

An :class:`OverloadConfig` is plain, picklable data describing how a run
admits, paces, and sheds its input: the declared latency SLO, the
offered ingest rate and flash crowd, the shed policy, and whether
stragglers are mitigated; the thresholds they act through are constants
of :mod:`repro.overload.coordinator`.  ``None`` for
``ingest_rate_records_per_s`` selects *unpaced* mode — no arrival
schedule, zero queueing delay, no shedding — which is how the sanitizer
scenarios exercise the accounting invariants without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigError


@dataclass(frozen=True)
class OverloadConfig:
    """Everything the overload coordinator needs, as plain data."""

    #: Declared p99 latency SLO over *admitted* records, milliseconds.
    slo_p99_ms: float = 50.0
    #: Shed policy (a SHED_POLICIES value) or ``None`` for admission
    #: accounting only — the no-shed baseline.
    shed_policy: Optional[str] = None
    #: Offered load per worker thread, records/second.  ``None`` =
    #: unpaced (sanitize mode): no schedule, no delay, no shedding.
    ingest_rate_records_per_s: Optional[float] = None
    #: Tenant count; a record's tenant is ``key % tenants``.
    tenants: int = 4
    #: Flash crowd of the burst envelope (see
    #: workloads.distributions.burst_envelope).
    flash_at_frac: Optional[float] = None
    flash_magnitude: float = 2.0
    #: Straggler mitigation: when on, executors the detector flags shed
    #: at tightened thresholds, keeping the slow node's queue (and the
    #: cluster watermark it gates) short.
    mitigation: bool = True
    #: Service-time samples an executor needs before it can be flagged.
    straggler_min_samples: int = 5
    #: Seed for the shedders' record-sampling streams.
    seed: int = 0
    #: Record per-batch keep masks so the harness can rebuild the
    #: shed-filtered input and run the differential oracle on it.
    record_masks: bool = False

    def validate(self) -> None:
        """Reject configurations that cannot mean anything sensible."""
        if self.slo_p99_ms <= 0:
            raise ConfigError(
                f"slo_p99_ms must be positive, got {self.slo_p99_ms}"
            )
        if (
            self.ingest_rate_records_per_s is not None
            and self.ingest_rate_records_per_s <= 0
        ):
            raise ConfigError(
                "ingest_rate_records_per_s must be positive, got "
                f"{self.ingest_rate_records_per_s}"
            )
        if self.tenants <= 0:
            raise ConfigError(f"tenants must be positive, got {self.tenants}")
        if self.straggler_min_samples <= 0:
            raise ConfigError(
                "straggler_min_samples must be positive, got "
                f"{self.straggler_min_samples}"
            )
        # Envelope parameters share the distributions-module contract;
        # building a tiny envelope validates them without duplication.
        from repro.workloads.distributions import burst_envelope

        burst_envelope(
            1,
            flash_at_frac=self.flash_at_frac,
            flash_magnitude=self.flash_magnitude,
        )

    @property
    def slo_s(self) -> float:
        """The SLO in seconds (the coordinator's working unit)."""
        return self.slo_p99_ms / 1e3
