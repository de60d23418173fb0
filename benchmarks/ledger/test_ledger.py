"""Tests of the ledger itself.  Run explicitly (``testpaths`` keeps them out
of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

LEDGER = pathlib.Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
sys.path[:0] = [str(LEDGER), str(ROOT / "src")]

import child  # noqa: E402
import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_ledger(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(LEDGER / "run.py"), *argv],
                          capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = run_ledger("--smoke", "--json", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_every_source_file_maps_to_one_layer_of_the_dag():
    spec = importlib.util.spec_from_file_location(
        "check_layering", ROOT / "tools" / "check_layering.py")
    layering = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layering)
    seen = set()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        layer = metrics.layer_of(path.as_posix())
        assert layer in metrics.LAYERS, f"{path} maps to no layer"
        seen.add(layer)
    assert seen == set(metrics.LAYERS)
    assert {layer.split(".")[0] for layer in metrics.LAYERS} == set(layering.LAYERS)
    assert metrics.layer_of("/usr/lib/python3/json/decoder.py") is None
    assert metrics.layer_of(str(LEDGER / "run.py")) is None


def test_names_and_counts_fit_the_contract():
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
    every = metrics.END_TO_END + metrics.PER_LAYER
    assert len({m.name for m in every}) == len(every)
    for metric in every:
        assert name.match(metric.name) and unit.match(metric.unit), metric
        assert metric.better in ("higher", "lower")
    for workload in metrics.WORKLOADS:
        assert name.match(workload.name)
        assert len(workload.why) <= 200 and "\n" not in workload.why
    assert 2 <= len(metrics.WORKLOADS) <= 8
    assert len(metrics.CONTRACT_END_TO_END) <= 16
    assert len(metrics.CONTRACT_PER_LAYER) <= 128


def test_benchmark_json_is_the_metrics_table():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["benchmarks/ledger"]
    assert CONTRACT["workloads"] == [
        {"name": w.name, "why": w.why} for w in metrics.WORKLOADS]
    assert CONTRACT["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound}
        for m in metrics.CONTRACT_END_TO_END]
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert CONTRACT["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in metrics.CONTRACT_PER_LAYER]


def test_smoke_run_emits_every_name(smoke):
    assert list(smoke["workloads"]) == [w["name"] for w in CONTRACT["workloads"]]
    emitted = set()
    for result in smoke["workloads"].values():
        assert result["ops_failed"] == 0, result["failures"]
        emitted |= set(result["end_to_end"]) | set(result["per_layer"])
    listed = {m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    assert listed <= emitted, sorted(listed - emitted)
    assert {m.name for m in metrics.END_TO_END} <= emitted
    # The driver's line carries exactly the contract's names, on any workload.
    for result in smoke["workloads"].values():
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            line = json.loads(run.driver_line(result, trace))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == [m["name"] for m in CONTRACT[key]]


def test_layer_shares_sum_to_one(smoke):
    for name, result in smoke["workloads"].items():
        table = result["per_layer"]
        shares = sum(table[f"{layer}.self_share"]["value"] for layer in metrics.LAYERS)
        assert abs(shares + table["other.self_share"]["value"] - 1.0) <= 0.01, name


def test_planes_run_only_where_attached(smoke):
    for name, result in smoke["workloads"].items():
        for plane in metrics.PLANES:
            calls = result["per_layer"][f"{plane}.calls"]["value"]
            if name == "planes_attached":
                assert calls > 0, plane
            elif name != "quick_suite":  # its traffic grids shed load
                assert calls == 0, (name, plane)


def test_traced_pass_restores_every_wrapped_callable():
    spans = child.boundary_spans()
    wrapped = spans.wrapped()
    assert len(wrapped) >= 6
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is not original
    spans.restore()
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original
    assert spans.wrapped() == []


def test_wrong_aggregate_fails_exactly_one_operation(tmp_path):
    from workloads import BUILDERS

    cells = BUILDERS["transfer_channel"](metrics.DEFAULT_SEED, 10, tmp_path)
    pass_, results = child.run_body(cells, "plain")
    key = next(iter(results[1].state))
    results[1].state[key] += 1
    ops, _facts = child.judge(cells, results)
    child.settle(cells, [pass_], ops, None, True, frozenset())
    assert [op["op"] for op in ops if op["error"]] == ["uppar-4k"]


def test_corrupted_pin_fails_exactly_one_operation(tmp_path):
    pins = json.loads((LEDGER / "pins.json").read_text())
    pins["transfer_channel"]["slash-64k"] = "0" * 64
    forged = tmp_path / "pins.json"
    forged.write_text(json.dumps(pins))
    out = tmp_path / "out.json"
    done = run_ledger("--workload", "transfer_channel", "--no-trace", "--repeats", "1",
                      "--pins", str(forged), "--json", str(out))
    assert done.returncode == 1, done.stdout + done.stderr
    result = json.loads(out.read_text())["workloads"]["transfer_channel"]
    assert result["ops_failed"] == 1
    assert [f["op"] for f in result["failures"]] == ["slash-64k"]


def test_compare_verdicts():
    wall = metrics.BY_NAME["wall_s"]
    sim = metrics.BY_NAME["sim_throughput_mrec_s"]

    def host(value, spread=0.01):
        return {"value": value, "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2)}

    assert compare.verdict(wall, host(4.0), host(4.2)) == "unchanged"
    assert compare.verdict(wall, host(4.0), host(5.2)) == "worse"
    assert compare.verdict(wall, host(4.0), host(2.8)) == "better"
    assert compare.verdict(wall, host(4.0, spread=0.3), host(5.2)) == "unresolved"
    assert compare.verdict(sim, {"value": 5.0}, {"value": 5.0}) == "unchanged"
    assert compare.verdict(sim, {"value": 5.0}, {"value": 4.999}) == "worse"


def test_tail_quantile_needs_ten_samples_beyond_it():
    assert metrics.tail_quantile(range(50)) is None
    assert metrics.tail_quantile(range(512))[0] == "p95"
    assert metrics.tail_quantile(range(20_000))[0] == "p999"


def test_without_a_checkout_the_benchmark_exits_non_zero(tmp_path):
    bare = tmp_path / "benchmarks" / "ledger"
    bare.mkdir(parents=True)
    for path in LEDGER.glob("*.py"):
        (bare / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "agg_state", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
