"""One SLO sample per request, whichever front door the request enters.

Every serving entry point times its request, but a request that crosses
several layers (async window → gateway → shard engine) must still burn
error budget exactly once: only the outermost front door open on the
thread writes the SLO sample.  Each test sends N requests through one front
door and checks the installed :class:`~repro.obs.SLOMonitor` saw N.
Batch entry points write no SLO samples.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import pytest

from repro import FSPQuery, ShardedGateway, obs
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.obs import slo as obs_slo
from repro.serving.async_gateway import AsyncGateway
from repro.serving.engine import ResilientEngine


@pytest.fixture(scope="module")
def frn():
    graph = grid_network(8, 8, seed=3)
    return FlowAwareRoadNetwork(graph, generate_flow_series(graph, days=1, seed=4))


@pytest.fixture()
def monitor():
    fresh = obs.SLOMonitor(objective_seconds=10.0)
    previous = obs_slo.set_slo_monitor(fresh)
    try:
        yield fresh
    finally:
        obs_slo.set_slo_monitor(previous)


def _count(monitor: obs.SLOMonitor) -> int:
    return monitor.summary()["count"]


def _routed_queries(gateway: ShardedGateway) -> list[FSPQuery]:
    """Four queries: a shard route, a boundary route, a cache hit, one more."""
    n = gateway.frn.num_vertices
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    routes = {}
    for u, v in pairs:
        route, _, _ = gateway._route_class(FSPQuery(u, v, 0))
        routes.setdefault(route, FSPQuery(u, v, 0))
        if "shard" in routes and "boundary" in routes:
            break
    shard, boundary = routes["shard"], routes["boundary"]
    return [shard, boundary, shard, FSPQuery(boundary.target, boundary.source, 0)]


def _poisoned_window(front_engine, queries: list[FSPQuery]) -> list:
    """Send ``queries`` plus one bad request through one async window."""
    bad = FSPQuery(queries[0].source, queries[0].target, 10_000)

    async def run():
        async with AsyncGateway(front_engine) as gateway:
            tasks = [
                asyncio.ensure_future(gateway.aquery(query))
                for query in [*queries[:1], bad, *queries[1:]]
            ]
            answers = await asyncio.gather(*tasks, return_exceptions=True)
            return gateway, answers

    return asyncio.run(run())


def test_resilient_engine_query_writes_one_sample_per_request(frn, monitor):
    serving = ResilientEngine(frn, max_retries=0)
    queries = [FSPQuery(0, 63, 0), FSPQuery(5, 40, 1), FSPQuery(9, 17, 2),
               FSPQuery(0, 63, 0)]
    for query in queries:
        serving.query(query)
    assert _count(monitor) == len(queries)


def test_sharded_gateway_query_writes_one_sample_per_request(frn, monitor):
    gateway = ShardedGateway(frn, num_shards=4, max_retries=0)
    queries = _routed_queries(gateway)
    for query in queries:
        gateway.query(query)
    assert gateway.metrics["queries_shard"] >= 1
    assert gateway.metrics["queries_boundary"] >= 1
    assert gateway.metrics["cache_hit"] >= 1
    assert _count(monitor) == len(queries)


def test_async_over_resilient_engine_writes_one_sample_per_request(frn, monitor):
    serving = ResilientEngine(frn, max_retries=0)
    queries = [FSPQuery(0, 63, 0), FSPQuery(5, 40, 1), FSPQuery(9, 17, 2)]
    gateway, answers = _poisoned_window(serving, queries)
    # the poisoned request failed the window's batch: it was re-evaluated
    # request by request, and only the bad one errored
    assert gateway.stats.errors == 1
    assert sum(isinstance(a, Exception) for a in answers) == 1
    assert _count(monitor) == len(answers)


def test_async_over_sharded_gateway_writes_one_sample_per_request(frn, monitor):
    sharded = ShardedGateway(frn, num_shards=4, max_retries=0)
    queries = _routed_queries(sharded)[:3]
    gateway, answers = _poisoned_window(sharded, queries)
    assert gateway.stats.errors == 1
    assert sharded.metrics["queries_shard"] >= 1
    assert sharded.metrics["queries_boundary"] >= 1
    assert _count(monitor) == len(answers)


def test_batch_entry_points_write_no_samples(frn, monitor):
    serving = ResilientEngine(frn, max_retries=0)
    sharded = ShardedGateway(frn, num_shards=4, max_retries=0)
    queries = [FSPQuery(0, 63, 0), FSPQuery(5, 40, 1)]
    serving.batch(queries)
    sharded.batch(queries)
    assert _count(monitor) == 0


def test_nesting_is_tracked_per_thread(monitor):
    """Threads each open an outer door around an inner one: one sample per
    outer door, so no thread sees another thread's open door."""
    threads_n, rounds = 8, 200

    def worker():
        for _ in range(rounds):
            with obs.front_door("serving.query", request=True):
                with obs.front_door("serving.query", request=True):
                    pass

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert _count(monitor) == threads_n * rounds


def test_monitor_installed_mid_request_gets_one_sample():
    fresh = obs.SLOMonitor(objective_seconds=10.0)
    with obs.front_door("gateway.query", request=True):
        previous = obs_slo.set_slo_monitor(fresh)
        try:
            with obs.front_door("serving.query", request=True):
                pass
        finally:
            obs_slo.set_slo_monitor(previous)
    assert _count(fresh) == 1
