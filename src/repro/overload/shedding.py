"""Pluggable load shedders: which records to drop when the SLO is at risk.

A shedder answers one question per ingress batch: given the current
queueing-delay estimate relative to the declared SLO, which records (if
any) should be dropped *before* they cost a single cycle downstream?
Every decision returns an explicit keep mask — nothing disappears
silently; the coordinator logs the shed count per source and per tenant
so the oracle can verify ``admitted = emitted + shed`` exactly.

Policies:

``drop-oldest``
    Batch-granular: once the delay estimate crosses the saturation
    threshold, the whole (oldest, i.e. current) batch is shed.  Cheapest
    possible decision, coarsest fairness.
``probabilistic``
    Record-granular seeded sampling: the drop probability ramps linearly
    from 0 at the engage threshold to 1 at saturation, so degradation is
    gradual and every tenant is sampled in proportion to its traffic
    *in expectation*.
``fair``
    Tenant-aware: the same shed *fraction* is applied within each
    tenant's records (stochastic rounding per tenant), so per-tenant
    shed share tracks traffic share even in small batches — a hot
    tenant cannot push a cold tenant's records out.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.errors import ConfigError
from repro.core.system import (
    SHED_POLICIES,
    SHED_POLICY_DROP_OLDEST,
    SHED_POLICY_FAIR,
    SHED_POLICY_PROBABILISTIC,
)


class Shedder:
    """Base policy: maps (delay pressure, batch) to a keep decision."""

    name = "none"

    def __init__(self, rng: np.random.Generator, tenants: int):
        self.rng = rng
        self.tenants = tenants

    def keep_mask(
        self, keys: np.ndarray, pressure: float
    ) -> Optional[np.ndarray]:
        """Boolean keep mask for a batch, or ``None`` for keep-all.

        ``pressure <= 0`` always keeps everything; ``pressure >= 1``
        always sheds everything.  Subclasses decide the in-between.
        """
        raise NotImplementedError


class DropOldestShedder(Shedder):
    """Shed whole batches once saturated: the queue head is the oldest
    data, and by the time saturation is reached it is also the most
    stale — dropping it frees capacity fastest."""

    name = SHED_POLICY_DROP_OLDEST

    def keep_mask(self, keys, pressure):
        if pressure >= 1.0:
            return np.zeros(len(keys), dtype=bool)
        return None


class ProbabilisticShedder(Shedder):
    """Seeded per-record sampling with a linear drop-probability ramp."""

    name = SHED_POLICY_PROBABILISTIC

    def keep_mask(self, keys, pressure):
        if pressure <= 0.0:
            return None
        if pressure >= 1.0:
            return np.zeros(len(keys), dtype=bool)
        return self.rng.random(len(keys)) >= pressure


class FairShedder(Shedder):
    """Equal shed *fraction* within every tenant present in the batch.

    The drop count per tenant is ``fraction * tenant_records`` with
    stochastic rounding, and the dropped rows are a seeded choice within
    the tenant — so over a run each tenant's shed share converges to its
    traffic share regardless of how skewed the traffic is.
    """

    name = SHED_POLICY_FAIR

    def keep_mask(self, keys, pressure):
        if pressure <= 0.0:
            return None
        if pressure >= 1.0:
            return np.zeros(len(keys), dtype=bool)
        tenants = np.asarray(keys, dtype=np.int64) % self.tenants
        keep = np.ones(len(keys), dtype=bool)
        for tenant in np.unique(tenants):
            rows = np.flatnonzero(tenants == tenant)
            exact = pressure * len(rows)
            drop = int(exact) + (1 if self.rng.random() < exact - int(exact) else 0)
            if drop <= 0:
                continue
            drop = min(drop, len(rows))
            keep[self.rng.choice(rows, size=drop, replace=False)] = False
        return keep


_POLICIES = {
    SHED_POLICY_DROP_OLDEST: DropOldestShedder,
    SHED_POLICY_PROBABILISTIC: ProbabilisticShedder,
    SHED_POLICY_FAIR: FairShedder,
}


def make_shedder(
    policy: str, rng: np.random.Generator, tenants: int
) -> Shedder:
    """Instantiate the shedder for ``policy`` (a SHED_POLICIES value)."""
    cls = _POLICIES.get(policy)
    if cls is None:
        raise ConfigError(
            f"unknown shed policy {policy!r}; known: {sorted(SHED_POLICIES)}"
        )
    return cls(rng, tenants)
