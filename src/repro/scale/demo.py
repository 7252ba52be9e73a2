"""A small instrumented sharded-gateway workload (`fahl-repro serve-sharded`).

Mirrors :mod:`repro.obs.demo` one tier up: build a grid FRN, front it with
a :class:`~repro.scale.gateway.ShardedGateway`, push a repeated query
workload through the cache, stream a few updates (good and bad) through
shard maintenance, and return a summary the CLI prints next to the
metrics report.  CI runs this and lints the Prometheus export.
"""

from __future__ import annotations

import math
import random

from repro.core.fspq import FSPQuery
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.scale.gateway import ShardedGateway
from repro.serving.updates import FlowUpdate, WeightUpdate

__all__ = ["run_sharded_demo"]


def run_sharded_demo(
    side: int = 8,
    shards: int = 4,
    queries: int = 60,
    repeat: int = 3,
    updates: int = 6,
    workers: int = 1,
    seed: int = 0,
) -> dict:
    """Run the demo and return a summary dict (gateway status + workload)."""
    rng = random.Random(seed)
    graph = grid_network(side, side, seed=seed)
    frn = FlowAwareRoadNetwork(graph, generate_flow_series(graph, days=1, seed=seed))
    gateway = ShardedGateway(frn, num_shards=shards, max_retries=1)

    n, steps = frn.num_vertices, frn.num_timesteps
    unique = []
    while len(unique) < queries:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            unique.append(FSPQuery(u, v, rng.randrange(steps)))
    # a repeated workload: the same query mix arrives in `repeat` rounds,
    # so every round after the first is served from the result cache
    results = []
    for _ in range(repeat):
        workload = list(unique)
        rng.shuffle(workload)
        results.extend(gateway.batch(workload, workers=workers))

    applied = 0
    for i in range(updates):
        vertex = rng.randrange(n)
        if i % 3 == 2:
            update = FlowUpdate(vertex, math.nan, timestamp=float(i))
        elif i % 3 == 1:
            u, v, w = gateway.plan.cut_edges[i % len(gateway.plan.cut_edges)]
            update = WeightUpdate(u, v, w + 1.0, timestamp=float(i))
        else:
            update = FlowUpdate(vertex, 40.0 + i, timestamp=float(i))
        if gateway.submit(update).applied:
            applied += 1
    # re-ask the same workload: entries for updated shards die lazily
    gateway.batch(unique, workers=workers)

    status = gateway.status()
    return {
        "vertices": n,
        "shards": status.num_shards,
        "boundary_vertices": status.boundary_vertices,
        "queries": len(unique) * (repeat + 1),
        "results": len(results),
        "accepted_updates": applied,
        "degraded_shards": list(status.degraded_shards),
        "cache_hit_rate": status.cache.hit_rate,
        "cache_stale_drops": status.cache.stale_drops,
        "dead_letters": status.metrics.get("updates_rejected", 0),
    }
