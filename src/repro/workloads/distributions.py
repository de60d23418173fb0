"""Key distributions and timestamp synthesis for workload generators.

The paper's workloads draw partitioning keys from three families:
uniform (YSB, RO), Zipf with tunable skew ``z`` (the Fig. 8d skew sweep),
and Pareto with a heavy tail (the NB7 bid stream).  Timestamps are
strictly monotonically increasing per flow, per the paper's data model
(Sec. 2.2), which is what makes per-flow maxima valid low watermarks.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.errors import ConfigError


def monotone_timestamps(count: int, span_ms: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` strictly increasing int64 timestamps covering ``span_ms``.

    Random positive inter-arrival gaps are drawn and rescaled so the flow
    spans exactly ``[0, span_ms)``; strict monotonicity requires
    ``span_ms >= count``.
    """
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if span_ms < count:
        raise ConfigError(
            f"span of {span_ms} ms cannot hold {count} strictly increasing "
            "millisecond timestamps"
        )
    gaps = rng.exponential(1.0, size=count)
    positions = np.cumsum(gaps)
    scaled = (positions - positions[0]) / (positions[-1] - positions[0] + 1e-12)
    timestamps = np.floor(scaled * (span_ms - count)).astype(np.int64)
    # Adding the index guarantees strictness even after flooring.
    return timestamps + np.arange(count, dtype=np.int64)


def uniform_keys(count: int, key_range: int, rng: np.random.Generator) -> np.ndarray:
    """Keys drawn uniformly from ``[0, key_range)``."""
    if key_range <= 0:
        raise ConfigError(f"key_range must be positive, got {key_range}")
    return rng.integers(0, key_range, size=count, dtype=np.int64)


def check_zipf_exponent(z: float) -> None:
    """Reject a negative Zipf exponent (``z = 0`` is uniform, not an error)."""
    if z < 0:
        raise ConfigError(f"zipf exponent must be >= 0, got {z}")


class ZipfTable:
    """Inverse-CDF sampler for Zipf(z) keys over ``[0, key_range)``.

    ``z = 0`` degenerates to uniform and holds no arrays; larger ``z``
    concentrates mass on few hot keys (the Fig. 8d sweep uses
    z = 0.2 ... 2.0).  For ``z > 0`` the table is the CDF of the truncated
    Zipf probability vector plus a rank-to-key ``mapping`` that shuffles
    the ranks so hot keys do not cluster at 0 (and therefore do not all
    hash to one partition by accident) — up to 16 MB at the 1 M-rank
    support, and tens of milliseconds to build.  It is a pure function of
    ``(min(key_range, 1 M), z, mapping_rng)``, so one table serves every
    draw of a workload: skew is a global property — all producers share
    the same hot keys, which is exactly what overloads one
    hash-partitioned consumer (Fig. 8d).  Whoever builds it owns its
    lifetime; nothing in this module retains one.

    ``mapping_rng`` derives the rank-to-key shuffle and defaults to a
    fixed-seed generator.
    """

    __slots__ = ("key_range", "cdf", "mapping")

    def __init__(
        self,
        key_range: int,
        z: float,
        mapping_rng: Optional[np.random.Generator] = None,
    ):
        if key_range <= 0:
            raise ConfigError(f"key_range must be positive, got {key_range}")
        check_zipf_exponent(z)
        self.key_range = key_range
        self.cdf = self.mapping = None
        if z == 0:
            return
        # Truncate the support: beyond ~1M ranks the tail mass is negligible
        # and the probability vector would dominate memory.
        support = min(key_range, 1_000_000)
        ranks = np.arange(1, support + 1, dtype=np.float64)
        weights = ranks ** -z
        self.cdf = np.cumsum(weights)
        self.cdf /= self.cdf[-1]
        # Permute ranks onto the key space deterministically and globally.
        if mapping_rng is None:
            mapping_rng = np.random.default_rng(0x5EED)
        self.mapping = mapping_rng.permutation(support)

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` keys; ``rng`` is the drawing flow's own stream."""
        if self.cdf is None:
            return uniform_keys(count, self.key_range, rng)
        sampled_ranks = np.searchsorted(self.cdf, rng.random(count), side="left")
        return self.mapping[sampled_ranks].astype(np.int64)


def zipf_keys(
    count: int,
    key_range: int,
    z: float,
    rng: np.random.Generator,
    mapping_rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Keys from a Zipf(z) distribution over ``[0, key_range)``.

    The one-shot spelling of :class:`ZipfTable`: build the table, draw
    once, drop it.  Anything that draws more than once from the same
    ``(key_range, z, mapping_rng)`` should build the table itself.
    """
    return ZipfTable(key_range, z, mapping_rng).draw(count, rng)


def pareto_keys(
    count: int,
    key_range: int,
    rng: np.random.Generator,
    shape: float = 1.16,
) -> np.ndarray:
    """Heavy-tailed keys (Pareto), as the NB7 bid stream specifies.

    ``shape ~ 1.16`` is the classic 80/20 Pareto; smaller values are more
    skewed.  Values are folded into ``[0, key_range)``.
    """
    if key_range <= 0:
        raise ConfigError(f"key_range must be positive, got {key_range}")
    if shape <= 0:
        raise ConfigError(f"pareto shape must be positive, got {shape}")
    raw = rng.pareto(shape, size=count)
    scaled = np.floor(raw / (raw.max() + 1e-12) * (key_range - 1)).astype(np.int64)
    return scaled


def burst_envelope(
    count: int,
    *,
    diurnal_amplitude: float = 0.0,
    flash_at_frac: Optional[float] = None,
    flash_duration_frac: float = 0.1,
    flash_magnitude: float = 2.0,
) -> np.ndarray:
    """Per-record rate multipliers: diurnal sinusoid + flash-crowd step.

    Models the production traffic shape of the ROADMAP's million-user
    suite: a slow diurnal swing (``1 + amplitude * sin``) with an
    optional flash crowd — a contiguous window of ``flash_duration_frac``
    of the stream, starting at ``flash_at_frac``, where the offered rate
    jumps by ``flash_magnitude``x.  The envelope is normalised to mean
    1.0 so the *average* offered rate stays the nominal rate and only
    the shape changes; feed it to :func:`arrival_times`.
    """
    if count < 0:
        raise ConfigError(f"count must be non-negative, got {count}")
    if not 0.0 <= diurnal_amplitude < 1.0:
        raise ConfigError(
            f"diurnal_amplitude must be in [0, 1), got {diurnal_amplitude} "
            "(>= 1 would imply a negative offered rate at the trough)"
        )
    if flash_magnitude < 1.0:
        raise ConfigError(
            f"flash_magnitude must be >= 1, got {flash_magnitude} "
            "(a flash crowd raises the rate; use diurnal_amplitude for dips)"
        )
    if not 0.0 < flash_duration_frac <= 1.0:
        raise ConfigError(
            f"flash_duration_frac must be in (0, 1], got {flash_duration_frac}"
        )
    if flash_at_frac is not None and not 0.0 <= flash_at_frac < 1.0:
        raise ConfigError(
            f"flash_at_frac must be in [0, 1), got {flash_at_frac}"
        )
    if count == 0:
        return np.empty(0, dtype=np.float64)
    phase = np.arange(count, dtype=np.float64) / count
    envelope = 1.0 + diurnal_amplitude * np.sin(2.0 * np.pi * phase)
    if flash_at_frac is not None and flash_magnitude > 1.0:
        in_flash = (phase >= flash_at_frac) & (
            phase < flash_at_frac + flash_duration_frac
        )
        envelope = np.where(in_flash, envelope * flash_magnitude, envelope)
    return envelope / envelope.mean()


def arrival_times(
    count: int,
    rate_records_per_s: float,
    envelope: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Offered-load arrival instants (seconds) for ``count`` records.

    Record ``i`` arrives ``1 / (rate * envelope[i])`` after record
    ``i - 1``; with no envelope the stream is a constant-rate drip.
    This is the *offered* schedule the admission controller compares
    against: a record whose scheduled arrival is long past when the
    worker finally reaches it has been queue-delayed by the difference.
    """
    if count < 0:
        raise ConfigError(f"count must be non-negative, got {count}")
    if rate_records_per_s <= 0:
        raise ConfigError(
            f"rate_records_per_s must be positive, got {rate_records_per_s}"
        )
    if count == 0:
        return np.empty(0, dtype=np.float64)
    if envelope is None:
        gaps = np.full(count, 1.0 / rate_records_per_s, dtype=np.float64)
    else:
        if len(envelope) != count:
            raise ConfigError(
                f"envelope has {len(envelope)} entries for {count} records"
            )
        if np.any(envelope <= 0):
            raise ConfigError("envelope entries must all be positive")
        gaps = 1.0 / (rate_records_per_s * np.asarray(envelope, dtype=np.float64))
    return np.cumsum(gaps)


def tenant_ids(keys: np.ndarray, tenants: int) -> np.ndarray:
    """Map keys onto a tenant id in ``[0, tenants)``.

    Tenancy is a deterministic function of the key (key-space striping),
    so every component — shedder, oracle, fairness report — attributes a
    record to the same tenant without carrying extra per-record columns.
    """
    if tenants <= 0:
        raise ConfigError(f"tenants must be positive, got {tenants}")
    return np.asarray(keys, dtype=np.int64) % tenants
