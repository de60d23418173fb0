"""OverloadConfig: plain data, but only *sensible* plain data."""

import pytest

from repro.common.errors import ConfigError
from repro.overload.config import OverloadConfig


def test_defaults_validate():
    OverloadConfig().validate()


def test_paced_flash_crowd_validates():
    OverloadConfig(
        ingest_rate_records_per_s=1e6,
        flash_at_frac=0.5,
        flash_magnitude=3.0,
        shed_policy="fair",
    ).validate()


def test_slo_s_converts_milliseconds():
    assert OverloadConfig(slo_p99_ms=50.0).slo_s == pytest.approx(0.05)


@pytest.mark.parametrize(
    ("fields", "match"),
    [
        ({"slo_p99_ms": 0.0}, "slo_p99_ms"),
        ({"slo_p99_ms": -1.0}, "slo_p99_ms"),
        ({"ingest_rate_records_per_s": 0.0}, "ingest_rate"),
        ({"ingest_rate_records_per_s": -5.0}, "ingest_rate"),
        ({"tenants": 0}, "tenants"),
        ({"straggler_min_samples": 0}, "straggler_min_samples"),
        # Envelope fields share the distributions-module contract.
        ({"flash_magnitude": 0.5}, "flash_magnitude"),
        ({"flash_at_frac": 1.0}, "flash_at_frac"),
    ],
)
def test_nonsense_rejected(fields, match):
    with pytest.raises(ConfigError, match=match):
        OverloadConfig(**fields).validate()


def test_unpaced_is_the_sanitize_mode_default():
    # None rate = no schedule, no delay, no shedding — must validate.
    config = OverloadConfig(ingest_rate_records_per_s=None)
    config.validate()
    assert config.shed_policy is None
