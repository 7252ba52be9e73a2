"""What the serving benchmark runs, and how its numbers are judged.

``BENCHMARK.json`` at the repository root is the one catalogue of the
workload names and reasons, the gated end-to-end metrics with their units
and bounds, and the per-layer metric names and units; :func:`bench`
returns it.  This module holds only what the file's schema has no room
for:

* the seeds, and the four workloads' parameters and shared engine settings;
* the *detail* metrics: wall-clock latency and throughput, which the
  host's speed moves too much to gate, and those only some workloads
  produce (distance latency, update acks, failures, mismatches,
  load-generator health), with the bounds ``compare.py`` applies to them;
* for each per-layer metric, its layer and which end-to-end or detail
  metric it is expected to move on which workload;
* which layers each workload's traced run must reach.

Where each request-mix number comes from is in ``README.md``.  Print the
layer map joined with the units from ``BENCHMARK.json``::

    python3 servebench/spec.py
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

CATALOGUE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@functools.cache
def bench() -> dict:
    """BENCHMARK.json, the catalogue this module adds to."""
    return json.loads(CATALOGUE.read_text(encoding="utf-8"))


@functools.cache
def units() -> dict[str, str]:
    """The unit of every metric the benchmark prints, by name."""
    listed = bench()["end_to_end"] + bench()["per_layer"]
    return {
        **{m["name"]: m["unit"] for m in listed},
        **{name: rule[0] for name, rule in DETAILS.items()},
    }


#: develop on the dev seed; confirm a claim on the holdout seed
DEV_SEED = 0
HOLDOUT_SEED = 1

DATASET = "NYC"
DATASET_SEED = 0
ALPHA = 0.5
ETA_U = 3.0
PRUNING = "lemma4"          # FAHL-W
UPDATE_MODE = "overlay"
MAX_RETRIES = 0
NUM_SHARDS = 4

#: cold builds per run; setup_s is their median
SETUP_BUILDS = 3
#: warm-up of the open and closed loops before the measured window, for
#: the lazily built flat kernels and label arenas; fleet_batch warms up
#: with one short batch instead.  Kept short so that the window can be long
WARMUP_SECONDS = 1.0
WARMUP_BATCH = 32
#: CPU seconds of work between two speed probes (see speed.py)
PROBE_CPU = 0.1
#: a 99th percentile is taken per slice of the window and reported as the
#: median over slices.  A tail slice must hold the event the tail is
#: about, so live_traffic's slices are its burst cycles; fleet_batch's
#: slices are its batches.
SLICE_SECONDS = 1.0
#: the closed loop answers in bursts of one window, so its completion rate
#: needs slices long enough to hold a dozen of them
RATE_SLICE_SECONDS = 3.0

#: open-loop request mix: (s, t, timestep) triples drawn Zipf from a pool
POOL_SIZE = 1000
ZIPF_EXPONENT = 1.1
COMMUTE_TIMESTEPS = (7, 8, 9)
DISTANCE_SHARE = 0.5

#: live_traffic update bursts.  Each weight update holds the loop for a
#: ~0.5 s boundary rebuild; with two per burst a third of the reads
#: waited behind them and the median sat on the edge between the waiting
#: and the rest, spreading 0.21-0.23 over ten seeds
BURST_WEIGHT_UPDATES = 1
BURST_FLOW_UPDATES = 2
UPDATE_FACTOR = (0.65, 1.5)

#: exactness gate: every SAMPLE_EVERY-th answer, at most SAMPLE_CAP per run
SAMPLE_EVERY = 25
SAMPLE_CAP = 200

#: --smoke preset
SMOKE_SCALE = 0.1
SMOKE_SECONDS = 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix through one stack; its reason is in BENCHMARK.json.

    ``stack`` is ``"sharded"`` (AsyncGateway -> ShardedGateway),
    ``"monolithic"`` (AsyncGateway -> ResilientEngine) or ``"batch"``
    (ResilientEngine.batch called directly).  ``load`` is ``"open"``
    (scheduled arrivals), ``"closed"`` (virtual clients) or ``"batch"``
    (back-to-back batches).
    """

    name: str
    stack: str
    scale: float
    load: str
    rate: float = 0.0
    clients: int = 0
    batch_size: int = 0
    workers: int = 1
    burst_every: float = 0.0
    tick_every: float = 0.0
    smoke_burst_every: float = 0.0


#: the parameters of each workload BENCHMARK.json lists, in its order
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("commute_open", stack="sharded", scale=1.0, load="open",
                 rate=150.0),
        Workload("citywide_closed", stack="monolithic", scale=2.0, load="closed",
                 clients=32),
        Workload("live_traffic", stack="sharded", scale=1.0, load="open",
                 rate=20.0, burst_every=5.0, tick_every=0.1,
                 smoke_burst_every=0.5),
        Workload("fleet_batch", stack="batch", scale=4.0, load="batch",
                 batch_size=256, workers=2),
    )
}

#: (unit, better, bound, absolute) for the metrics outside BENCHMARK.json.
#: ``bound`` is a share of the parent's median unless ``absolute``; ``None``
#: marks a diagnostic that compare.py reports but never judges.  Wall-clock
#: latency and throughput follow the host's speed, and open-loop latency
#: also its queueing, so they spread up to 1.4 over ten seeds on a slow,
#: noisy host: compare.py judges them with these bounds and calls a pair
#: whose parent spreads wider *unresolved*.
DETAILS: dict[str, tuple[str, str, float | None, bool]] = {
    "request_p50_ms": ("ms", "lower", 0.25, False),
    "throughput_rps": ("req/s", "higher", 0.25, False),
    "request_p99_ms": ("ms", "lower", 0.5, False),
    "route_p50_ms": ("ms", "lower", None, False),
    "route_p99_ms": ("ms", "lower", 0.5, False),
    "distance_p50_ms": ("ms", "lower", 0.25, False),
    "distance_p99_ms": ("ms", "lower", 0.5, False),
    "weight_ack_p50_ms": ("ms", "lower", 0.5, False),
    "failed_share": ("ratio", "lower", 0.001, True),
    "mismatches": ("count", "lower", 0.0, True),
    "request_samples": ("count", "higher", None, False),
    "host.speed": ("ratio", "higher", None, False),
    "loadgen.lag_p99_ms": ("ms", "lower", None, False),
    "loadgen.backlog_ratio": ("ratio", "lower", None, False),
}

_ALL_DETAILS = (
    "request_p50_ms", "throughput_rps", "request_p99_ms", "failed_share",
    "mismatches", "request_samples", "host.speed",
)
_OPEN_DETAILS = _ALL_DETAILS + (
    "route_p50_ms", "route_p99_ms", "distance_p50_ms", "distance_p99_ms",
    "loadgen.lag_p99_ms", "loadgen.backlog_ratio",
)

#: detail metrics each workload reports; the closed-loop and batch
#: workloads send FSPQ requests only, so their route percentiles are the
#: request percentiles
WORKLOAD_DETAILS: dict[str, tuple[str, ...]] = {
    "commute_open": _OPEN_DETAILS,
    "citywide_closed": _ALL_DETAILS,
    "live_traffic": _OPEN_DETAILS + ("weight_ack_p50_ms",),
    "fleet_batch": _ALL_DETAILS,
}

LAYERS = (
    "serving.async_gateway",
    "scale.gateway",
    "scale.cache",
    "scale.boundary",
    "serving.engine",
    "core.overlay",
    "core.batch",
    "core.fpsps",
    "core.flatq",
    "paths.yen",
    "labeling.hierarchy",
)

#: layers whose spans each workload's traced run must contain.  Under
#: ``workers=2`` the fork-pool children's spans are invisible to the
#: parent, so fleet_batch's waterfall stops at core.batch.
WORKLOAD_LAYERS: dict[str, tuple[str, ...]] = {
    "commute_open": LAYERS,
    "citywide_closed": (
        "serving.async_gateway", "serving.engine", "core.batch",
        "core.fpsps", "core.flatq", "labeling.hierarchy",
    ),
    "live_traffic": LAYERS,
    "fleet_batch": ("serving.engine", "core.batch"),
}

_OPEN = ("commute_open", "live_traffic")
_UNCACHED = ("citywide_closed", "fleet_batch")

#: per-layer metric -> (layer, the end-to-end or detail metric it should
#: move, the workloads it should move it on).  BENCHMARK.json's
#: ``per_layer`` lists the same names, with their units.
LAYER_METRICS: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "async.queue_wait_p50_ms": ("serving.async_gateway", "request_p99_ms", _OPEN),
    "async.queue_wait_p99_ms": ("serving.async_gateway", "request_p99_ms", _OPEN),
    "async.window_size_mean": (
        "serving.async_gateway", "request_cpu_ms", ("citywide_closed",)),
    "async.busy_share": ("serving.async_gateway", "request_p99_ms", ("commute_open",)),
    "gateway.self_ms_per_req": ("scale.gateway", "request_cpu_ms", ("commute_open",)),
    "gateway.route_share.cache": (
        "scale.gateway", "request_cpu_ms", ("commute_open",)),
    "gateway.route_share.shard": (
        "scale.gateway", "request_cpu_ms", ("commute_open",)),
    "gateway.route_share.boundary": (
        "scale.gateway", "request_cpu_ms", ("commute_open",)),
    "gateway.weight_submit_ms_p50": (
        "scale.gateway", "weight_ack_p50_ms", ("live_traffic",)),
    "cache.hit_rate": ("scale.cache", "request_cpu_ms", ("commute_open",)),
    "cache.stale_drops_per_update": (
        "scale.cache", "request_p99_ms", ("live_traffic",)),
    "boundary.combine_calls_per_req": (
        "scale.boundary", "request_cpu_ms", ("commute_open",)),
    "boundary.combine_us_p50": ("scale.boundary", "request_cpu_ms", ("commute_open",)),
    "boundary.global_rebuild_ms_p50": (
        "scale.boundary", "weight_ack_p50_ms", ("live_traffic",)),
    "boundary.shard_rebuild_ms_p50": (
        "scale.boundary", "weight_ack_p50_ms", ("live_traffic",)),
    "boundary.rebuilds_per_update": (
        "scale.boundary", "weight_ack_p50_ms", ("live_traffic",)),
    "engine.weight_submit_ms_p50": (
        "serving.engine", "weight_ack_p50_ms", ("live_traffic",)),
    "engine.tick_ms_p99": ("serving.engine", "request_p99_ms", ("live_traffic",)),
    "engine.consolidations": ("serving.engine", "request_p99_ms", ("live_traffic",)),
    "overlay.absorb_ms_p50": ("core.overlay", "weight_ack_p50_ms", ("live_traffic",)),
    "overlay.table_to_ms_p50": ("core.overlay", "request_p99_ms", ("live_traffic",)),
    "overlay.table_to_per_req": ("core.overlay", "request_p99_ms", ("live_traffic",)),
    "overlay.step_ms_p99": ("core.overlay", "request_p99_ms", ("live_traffic",)),
    "batch.self_ms_per_query": ("core.batch", "request_cpu_ms", _UNCACHED),
    "batch.parallel_share": ("core.batch", "throughput_rps", ("fleet_batch",)),
    "fpsps.query_ms_p50": ("core.fpsps", "request_cpu_ms", ("citywide_closed",)),
    "fpsps.query_ms_p99": ("core.fpsps", "request_p99_ms", ("citywide_closed",)),
    "fpsps.score_ms_per_query": (
        "core.fpsps", "request_cpu_ms", ("citywide_closed",)),
    "fpsps.scalar_share": ("core.fpsps", "request_cpu_ms", ("commute_open",)),
    "fpsps.candidates_mean": ("core.fpsps", "request_cpu_ms", _UNCACHED),
    "fpsps.pruned_share": ("core.fpsps", "request_cpu_ms", _UNCACHED),
    "fpsps.early_stop_share": ("core.fpsps", "request_cpu_ms", _UNCACHED),
    "flatq.h_table_ms_p50": ("core.flatq", "request_cpu_ms", _UNCACHED),
    "flatq.h_table_builds_per_query": ("core.flatq", "request_cpu_ms", _UNCACHED),
    "flatq.collect_ms_p50": ("core.flatq", "request_cpu_ms", _UNCACHED),
    "flatq.spur_searches_per_query": ("core.flatq", "request_cpu_ms", _UNCACHED),
    "flatq.spur_memo_hit_share": ("core.flatq", "request_cpu_ms", _UNCACHED),
    "flatq.spur_skip_share": ("core.flatq", "request_cpu_ms", _UNCACHED),
    "flatq.kernel_builds": ("core.flatq", "request_p99_ms", ("live_traffic",)),
    "flatq.kernel_build_ms": ("core.flatq", "request_p99_ms", ("live_traffic",)),
    "yen.collect_ms_p50": ("paths.yen", "request_cpu_ms", ("commute_open",)),
    "yen.paths_per_query": ("paths.yen", "request_cpu_ms", ("commute_open",)),
    "labels.distance_us_p50": (
        "labeling.hierarchy", "distance_p50_ms", ("commute_open",)),
    "labels.distance_calls_per_req": (
        "labeling.hierarchy", "distance_p50_ms", ("commute_open",)),
    "labels.distances_to_ms_p50": (
        "labeling.hierarchy", "request_cpu_ms", ("citywide_closed",)),
    **{
        f"{layer}.self_share": (layer, "request_p50_ms", tuple(WORKLOADS))
        for layer in LAYERS
    },
}


if __name__ == "__main__":
    print("| layer | metric | unit | should move | on |")
    print("|---|---|---|---|---|")
    for metric, (layer, moves, on) in LAYER_METRICS.items():
        print(f"| `{layer}` | `{metric}` | {units()[metric]} | `{moves}` | "
              f"{', '.join(on)} |")
