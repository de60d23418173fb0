"""Tests for the Workload base-class contract."""

import gc

import numpy as np
import pytest

from repro.common.errors import ConfigError
from repro.core.records import Schema
from repro.runtime import WORKLOADS, make_workload
from repro.workloads.base import Workload
from repro.workloads.distributions import ZipfTable
from repro.workloads.ysb import YsbWorkload


class _Toy(Workload):
    name = "toy"
    schema = Schema("toy", (("ts", "i8"), ("key", "i8")), record_bytes=16)

    @property
    def default_span_ms(self):
        return 100_000

    def _flow(self, node, thread):
        rng = self._generator("flow", node, thread)
        n = self.records_per_thread
        ts = np.sort(rng.choice(self.span_ms, size=n, replace=False)).astype(np.int64)
        key = rng.integers(0, 10, size=n, dtype=np.int64)
        return list(self._batches(self.schema, "toy", ts=ts, key=key))


def test_span_override():
    assert _Toy(span_ms=5000).span_ms == 5000
    assert _Toy().span_ms == 100_000


def test_batches_cut_to_batch_records():
    workload = _Toy(records_per_thread=1000, batch_records=300)
    flow = workload.flows(1, 1)[(0, 0)]
    lengths = [len(batch) for _s, batch in flow]
    assert lengths == [300, 300, 300, 100]


def test_total_records():
    flows = _Toy(records_per_thread=100).flows(3, 4)
    assert sum(len(b) for flow in flows.values() for _s, b in flow) == 1200


def test_rng_isolated_per_workload_name():
    class _Other(_Toy):
        name = "other-toy"

    a = _Toy(seed=5).flows(1, 1)[(0, 0)]
    b = _Other(seed=5).flows(1, 1)[(0, 0)]
    assert not np.array_equal(a[0][1].keys, b[0][1].keys)


def test_validation():
    with pytest.raises(ConfigError):
        _Toy(records_per_thread=-1)
    with pytest.raises(ConfigError):
        _Toy().flows(1, 0)


def test_abstract_methods_required():
    workload = Workload()
    with pytest.raises(NotImplementedError):
        workload.build_query()
    with pytest.raises(NotImplementedError):
        _ = workload.span_ms
    with pytest.raises(NotImplementedError):
        workload._flow(0, 0)


# -- shared, read-only, order-independent inputs -----------------------------

#: Small sizes, and skew switched on wherever a workload has the knob
#: (``cm`` is skewed by default), so the Zipf table path is the one tested.
SHARED = {
    "ysb": {"records_per_thread": 600, "zipf_z": 1.2},
    "cm": {"records_per_thread": 600},
    "nb7": {"records_per_thread": 600},
    "nb8": {"records_per_thread": 600},
    "nb11": {"records_per_thread": 600},
    "ro": {"records_per_thread": 2000, "zipf_z": 0.9},
    "sessions": {"records_per_thread": 600, "zipf_z": 1.1, "dup_frac": 0.05},
}


def _flow_bytes(flow):
    return [(stream, batch.schema.name, batch.data.tobytes()) for stream, batch in flow]


def _live_tables():
    gc.collect()
    return [obj for obj in gc.get_objects() if isinstance(obj, ZipfTable)]


def test_live_table_probe_sees_a_held_table():
    held = ZipfTable(10, 1.0)
    assert any(table is held for table in _live_tables())


def test_every_registered_workload_is_covered():
    assert set(SHARED) == set(WORKLOADS)


@pytest.mark.parametrize("name", sorted(SHARED))
def test_flows_same_bytes_fresh_memoised_and_in_any_request_order(name):
    overrides = SHARED[name]
    shared = make_workload(name, **overrides)
    assert make_workload(name, **overrides) is shared
    # An odd request order on the shared instance ...
    lone = shared._generate([(3, 1)])[3, 1]
    small = shared.flows(2, 2)
    large = make_workload(name, **overrides).flows(4, 2)
    assert large[3, 1] is lone
    assert all(large[worker] is flow for worker, flow in small.items())
    # ... against one plain flows() call on an instance nobody shares.
    cls, presets = WORKLOADS[name]
    fresh = cls(**{**presets, **overrides}).flows(4, 2)
    assert list(large) == list(fresh)
    for worker in fresh:
        assert _flow_bytes(large[worker]) == _flow_bytes(fresh[worker]), worker


@pytest.mark.parametrize("name", sorted(SHARED))
def test_generated_batches_are_read_only(name):
    flow = make_workload(name, **SHARED[name]).flows(1, 1)[0, 0]
    assert flow
    for _stream, batch in flow:
        with pytest.raises(ValueError, match="read-only"):
            batch.data["key"][0] = 1
        with pytest.raises(ValueError, match="read-only"):
            batch.col("ts")[:] = 0
        with pytest.raises(ValueError, match="read-only"):
            batch.keys.sort()


@pytest.mark.parametrize("name", ["ysb", "cm", "ro", "sessions"])
def test_no_zipf_table_outlives_the_call_that_built_it(name, monkeypatch):
    before = _live_tables()
    built = []
    init = ZipfTable.__init__

    def recording_init(self, key_range, z, mapping_rng=None):
        built.append((key_range, z))
        init(self, key_range, z, mapping_rng)

    monkeypatch.setattr(ZipfTable, "__init__", recording_init)
    cls, presets = WORKLOADS[name]
    workload = cls(**{**presets, **SHARED[name]})
    workload.flows(2, 2)
    workload.flows(6, 1)  # four new workers: one more table
    workload.flows(2, 2)  # served from the flow cache: builds nothing
    assert len(built) == 2 and len(set(built)) == 1
    assert workload._zipf_tables == {}
    assert all(any(t is b for b in before) for t in _live_tables())


def test_no_zipf_table_survives_a_failing_flow():
    class _Failing(YsbWorkload):
        def _flow(self, node, thread):
            flow = super()._flow(node, thread)
            if thread == 1:
                raise RuntimeError("generator broke")
            return flow

    before = _live_tables()
    workload = _Failing(records_per_thread=300, key_range=5000, zipf_z=1.3)
    with pytest.raises(RuntimeError, match="generator broke"):
        workload.flows(1, 2)
    assert workload._zipf_tables == {}
    assert all(any(t is b for b in before) for t in _live_tables())
    # What was generated before the failure is kept and still right.
    plain = YsbWorkload(records_per_thread=300, key_range=5000, zipf_z=1.3)
    assert _flow_bytes(workload.flows(1, 1)[0, 0]) == _flow_bytes(plain.flows(1, 1)[0, 0])


@pytest.mark.parametrize("build", [
    lambda z: make_workload("ysb", zipf_z=z),
    lambda z: make_workload("ro", zipf_z=z),
    lambda z: make_workload("cm", job_skew=z),
    lambda z: make_workload("sessions", zipf_z=z),
], ids=["ysb", "ro", "cm", "sessions"])
def test_negative_skew_rejected_at_construction(build):
    with pytest.raises(ConfigError, match=r"zipf exponent must be >= 0, got -1\.0"):
        build(-1.0)
    assert build(0.0).flows(1, 1)[0, 0]  # zero stays the uniform spelling
