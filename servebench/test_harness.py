"""Smoke test of the serving benchmark itself (about a minute):

    PYTHONPATH=src python -m pytest servebench/test_harness.py

Every workload runs in the ``--smoke`` preset, untraced and traced, in a
subprocess, the way BENCHMARK.json's command runs it.  The planted-error
case runs in process, so that its monkeypatch reaches the workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spec

HERE = Path(__file__).resolve().parent


def _units(block: dict) -> dict[str, str]:
    return {name: entry["unit"] for name, entry in block.items()}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict[tuple[str, int], tuple[dict, dict]]:
    """(workload, trace) -> (last-line JSON, full result record)."""
    out = tmp_path_factory.mktemp("smoke")
    results = {}
    for name in spec.WORKLOADS:
        for trace in (0, 1):
            record_path = out / f"{name}-{trace}.json"
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--smoke", "--seed", "0", "--trace", str(trace),
                 "--out", str(record_path)],
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            last = json.loads(done.stdout.splitlines()[-1])
            record = json.loads(record_path.read_text())["workloads"][name]
            results[(name, trace)] = (last, record)
    return results


def test_each_workload_emits_exactly_the_listed_metrics(smoke):
    end_to_end = {m["name"]: m["unit"] for m in spec.bench()["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec.bench()["per_layer"]}
    # the layer map covers exactly the listed layer metrics
    assert set(spec.LAYER_METRICS) == set(per_layer)
    for name in spec.WORKLOADS:
        untraced, record = smoke[(name, 0)]
        traced, _ = smoke[(name, 1)]
        assert set(untraced) == {"correct", "attempted", "failed", "metrics"}
        assert untraced["correct"] is True and untraced["failed"] == 0
        assert untraced["attempted"] >= 1
        assert _units(untraced["metrics"]) == end_to_end, name
        assert _units(traced["metrics"]) == per_layer, name
        assert _units(record["details"]) == {
            k: spec.DETAILS[k][0] for k in spec.WORKLOAD_DETAILS[name]
        }, name
        assert all(entry["value"] > 0 for entry in untraced["metrics"].values()), name


def test_trace_yields_spans_for_every_listed_layer(smoke):
    seen_anywhere = set()
    for name in spec.WORKLOADS:
        _, record = smoke[(name, 1)]
        spans = Path(record["spans"]["file"]).read_text().splitlines()
        layers = {json.loads(line)["layer"] for line in spans}
        assert set(spec.WORKLOAD_LAYERS[name]) <= layers, name
        assert set(spec.WORKLOAD_LAYERS[name]) <= set(record["layers_seen"]), name
        seen_anywhere |= layers
    assert seen_anywhere == set(spec.LAYERS)


def test_planted_wrong_distance_fails_the_run(monkeypatch, tmp_path, capsys):
    assert run._bootstrap() is None
    from repro.labeling.hierarchy import HierarchyIndex

    original = HierarchyIndex.distance
    monkeypatch.setattr(
        HierarchyIndex, "distance", lambda self, u, v: original(self, u, v) + 1.0
    )
    # only an intra-shard lookup whose shortest path stays inside its shard
    # reads HierarchyIndex.distance, about one distance answer in fifteen,
    # so check every answer rather than every 25th
    monkeypatch.setattr(spec, "SAMPLE_EVERY", 1)
    out = tmp_path / "planted.json"
    code = run.main([
        "--workload", "commute_open", "--smoke",
        "--seed", "0", "--trace", "0", "--out", str(out),
    ])
    assert code != 0
    record = json.loads(out.read_text())["workloads"]["commute_open"]
    assert record["details"]["mismatches"]["value"] > 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False
