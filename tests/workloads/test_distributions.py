"""Tests for key distributions and timestamp synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.common.rng import RngTree
from repro.workloads.distributions import (
    ZipfTable,
    arrival_times,
    burst_envelope,
    monotone_timestamps,
    pareto_keys,
    tenant_ids,
    uniform_keys,
    zipf_keys,
)


def rng():
    return RngTree(11).generator("test")


class TestMonotoneTimestamps:
    def test_strictly_increasing(self):
        ts = monotone_timestamps(1000, 100_000, rng())
        assert np.all(np.diff(ts) > 0)

    def test_span_respected(self):
        ts = monotone_timestamps(1000, 100_000, rng())
        assert ts.min() >= 0
        assert ts.max() < 100_000

    def test_empty(self):
        assert len(monotone_timestamps(0, 100, rng())) == 0

    def test_span_too_small(self):
        with pytest.raises(ConfigError):
            monotone_timestamps(100, 50, rng())

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 500), st.integers(0, 10))
    def test_property_strict_even_at_tight_span(self, count, slack):
        ts = monotone_timestamps(count, count + slack, rng())
        assert np.all(np.diff(ts) > 0)
        assert ts.max() < count + slack


class TestKeyDistributions:
    def test_uniform_range(self):
        keys = uniform_keys(10_000, 100, rng())
        assert keys.min() >= 0
        assert keys.max() < 100
        assert len(np.unique(keys)) == 100

    def test_zipf_zero_is_uniform(self):
        a = zipf_keys(100, 50, 0.0, rng())
        assert a.min() >= 0 and a.max() < 50

    def test_zipf_concentration_grows_with_z(self):
        low = zipf_keys(20_000, 10_000, 0.2, rng())
        high = zipf_keys(20_000, 10_000, 1.8, rng())
        assert len(np.unique(high)) < len(np.unique(low))

    def test_zipf_range(self):
        keys = zipf_keys(1000, 100, 1.0, rng())
        assert keys.min() >= 0 and keys.max() < 100

    def test_zipf_negative_z_rejected(self):
        with pytest.raises(ConfigError):
            zipf_keys(10, 10, -0.5, rng())

    def test_pareto_heavy_tail(self):
        keys = pareto_keys(50_000, 1_000_000, rng())
        assert keys.min() >= 0 and keys.max() < 1_000_000
        # Heavy hitters: top-10% of keys carry most of the mass.
        counts = np.sort(np.unique(keys, return_counts=True)[1])[::-1]
        hot = int(np.searchsorted(np.cumsum(counts), 0.8 * len(keys))) + 1
        assert hot < len(counts) / 2

    def test_pareto_bad_args(self):
        with pytest.raises(ConfigError):
            pareto_keys(10, 0, rng())
        with pytest.raises(ConfigError):
            pareto_keys(10, 10, rng(), shape=0)

    def test_bad_key_range(self):
        with pytest.raises(ConfigError):
            uniform_keys(10, 0, rng())


def _zipf_keys_before_the_table(count, key_range, z, rng, mapping_rng=None):
    """The oracle: ``zipf_keys`` as it was when every call rebuilt the CDF
    and the permutation (frozen here; validation left out)."""
    if z == 0:
        return uniform_keys(count, key_range, rng)
    support = min(key_range, 1_000_000)
    ranks = np.arange(1, support + 1, dtype=np.float64)
    weights = ranks ** -z
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(count)
    sampled_ranks = np.searchsorted(cdf, draws, side="left")
    if mapping_rng is None:
        mapping_rng = np.random.default_rng(0x5EED)
    mapping = mapping_rng.permutation(support)
    return mapping[sampled_ranks].astype(np.int64)


class TestZipfTable:
    """One table, many draws == one rebuilt table per draw."""

    @pytest.mark.parametrize("key_range", [1, 7, 50_000, 1_000_000, 3_000_000])
    def test_draws_equal_the_per_call_oracle(self, key_range, rng_tree):
        tree = rng_tree.child("zipf-table", key_range)
        params = tree.generator("params")
        for case in range(3):
            z = float(params.choice([0.0, 0.2, 1.0, 1.4, 2.0, params.uniform(0.05, 2.5)]))
            mapping_seed = None if params.random() < 0.34 else int(params.integers(1 << 30))

            def mapping_rng():
                return None if mapping_seed is None else tree.generator("map", mapping_seed)

            table = ZipfTable(key_range, z, mapping_rng())
            counts = [0, 1, int(params.integers(2, 4000))]
            for flow, count in enumerate(counts):
                drawn = table.draw(count, tree.generator("flow", case, flow))
                expected = _zipf_keys_before_the_table(
                    count, key_range, z, tree.generator("flow", case, flow), mapping_rng()
                )
                assert drawn.dtype == expected.dtype == np.int64
                assert drawn.tobytes() == expected.tobytes(), (key_range, z, count)
                one_shot = zipf_keys(
                    count, key_range, z, tree.generator("flow", case, flow), mapping_rng()
                )
                assert one_shot.tobytes() == expected.tobytes()

    def test_uniform_table_holds_no_arrays(self):
        table = ZipfTable(1_000_000, 0.0)
        assert table.cdf is None and table.mapping is None

    def test_validates_like_zipf_keys(self):
        with pytest.raises(ConfigError, match="zipf exponent must be >= 0"):
            ZipfTable(10, -0.5)
        with pytest.raises(ConfigError, match="key_range must be positive"):
            ZipfTable(0, 1.0)


class TestBurstEnvelope:
    def test_mean_is_normalised_to_one(self):
        envelope = burst_envelope(
            10_000, diurnal_amplitude=0.4, flash_at_frac=0.5,
            flash_magnitude=4.0,
        )
        assert envelope.mean() == pytest.approx(1.0)
        assert (envelope > 0).all()

    def test_flash_window_is_elevated(self):
        count = 1000
        envelope = burst_envelope(
            count, flash_at_frac=0.5, flash_duration_frac=0.1,
            flash_magnitude=3.0,
        )
        inside = envelope[500:600]
        outside = np.concatenate([envelope[:500], envelope[600:]])
        assert inside.mean() == pytest.approx(3.0 * outside.mean(), rel=0.01)

    def test_flat_envelope_without_knobs(self):
        np.testing.assert_allclose(burst_envelope(100), np.ones(100))

    def test_diurnal_swings_around_the_mean(self):
        envelope = burst_envelope(1000, diurnal_amplitude=0.5)
        assert envelope.max() == pytest.approx(1.5, rel=0.01)
        assert envelope.min() == pytest.approx(0.5, rel=0.01)

    def test_zero_count_is_empty(self):
        assert len(burst_envelope(0, flash_at_frac=0.5)) == 0

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"count": -1}, "count"),
            ({"count": 10, "diurnal_amplitude": 1.0}, "diurnal_amplitude"),
            ({"count": 10, "diurnal_amplitude": -0.1}, "diurnal_amplitude"),
            ({"count": 10, "flash_magnitude": 0.9}, "flash_magnitude"),
            ({"count": 10, "flash_duration_frac": 0.0}, "flash_duration_frac"),
            ({"count": 10, "flash_duration_frac": 1.1}, "flash_duration_frac"),
            ({"count": 10, "flash_at_frac": 1.0}, "flash_at_frac"),
            ({"count": 10, "flash_at_frac": -0.2}, "flash_at_frac"),
        ],
    )
    def test_nonsense_rejected(self, kwargs, match):
        count = kwargs.pop("count")
        with pytest.raises(ConfigError, match=match):
            burst_envelope(count, **kwargs)


class TestArrivalTimes:
    def test_constant_rate_is_a_uniform_drip(self):
        arrivals = arrival_times(5, 10.0)
        np.testing.assert_allclose(arrivals, [0.1, 0.2, 0.3, 0.4, 0.5])

    def test_arrivals_are_strictly_increasing(self):
        envelope = burst_envelope(
            2000, diurnal_amplitude=0.3, flash_at_frac=0.25,
            flash_magnitude=5.0,
        )
        arrivals = arrival_times(2000, 1e4, envelope)
        assert (np.diff(arrivals) > 0).all()

    def test_flash_window_arrives_denser(self):
        count = 1000
        envelope = burst_envelope(
            count, flash_at_frac=0.5, flash_duration_frac=0.1,
            flash_magnitude=3.0,
        )
        arrivals = arrival_times(count, 1e3, envelope)
        gaps = np.diff(arrivals)
        inside = gaps[500:599].mean()
        outside = gaps[:499].mean()
        assert inside == pytest.approx(outside / 3.0, rel=0.01)

    def test_mean_rate_is_preserved_by_the_envelope(self):
        # Normalised envelope: the last arrival ~= count / rate either way.
        count, rate = 5000, 2e4
        flat = arrival_times(count, rate)
        shaped = arrival_times(count, rate, burst_envelope(
            count, diurnal_amplitude=0.3,
        ))
        assert shaped[-1] == pytest.approx(flat[-1], rel=0.05)

    def test_zero_count_is_empty(self):
        assert len(arrival_times(0, 100.0)) == 0

    def test_nonsense_rejected(self):
        with pytest.raises(ConfigError, match="rate"):
            arrival_times(10, 0.0)
        with pytest.raises(ConfigError, match="count"):
            arrival_times(-1, 10.0)
        with pytest.raises(ConfigError, match="entries"):
            arrival_times(10, 10.0, np.ones(5))
        with pytest.raises(ConfigError, match="positive"):
            arrival_times(3, 10.0, np.array([1.0, 0.0, 1.0]))


class TestTenantIds:
    def test_key_space_striping(self):
        keys = np.array([0, 1, 2, 3, 4, 9], dtype=np.int64)
        np.testing.assert_array_equal(
            tenant_ids(keys, 4), [0, 1, 2, 3, 0, 1]
        )

    def test_every_tenant_in_range(self):
        keys = uniform_keys(1000, 512, rng())
        ids = tenant_ids(keys, 7)
        assert ids.min() >= 0 and ids.max() < 7

    def test_nonpositive_tenants_rejected(self):
        with pytest.raises(ConfigError, match="tenants"):
            tenant_ids(np.arange(4), 0)
