"""AsyncGateway: coalescing bit-identity, admission, backpressure, metrics.

The micro-batching front door must be invisible in the answers: whatever
``engine.query()`` returns per request, the coalesced window returns bit
for bit (property-tested across kernels, with maintenance interleaved
mid-window), and the failure modes are typed — ``AdmissionError`` for
over-rate clients, ``BackpressureError`` for a full queue — never hangs.

The gateway has no timer, so the tests hold a window open the way load
does: requests enqueued within one loop tick (tasks created without
yielding) share a window, and requests that arrive while a window is
evaluated form the next one.
"""

from __future__ import annotations

import asyncio
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import (
    AdmissionError,
    AsyncGateway,
    BackpressureError,
    FSPQuery,
    ResilientEngine,
    ShardedGateway,
    as_distance,
    as_result,
    build_fahl,
    obs,
)
from repro.core.fpsps import FlowAwareEngine
from repro.errors import QueryError
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.serving.admission import ClientAdmission, TokenBucket
from repro.serving.updates import FlowUpdate


@pytest.fixture(scope="module")
def frn():
    graph = grid_network(5, 5, seed=11)
    return FlowAwareRoadNetwork(
        graph, generate_flow_series(graph, days=1, seed=4)
    )


@pytest.fixture(scope="module")
def flow_engine(frn):
    return FlowAwareEngine(frn, oracle=build_fahl(frn))


@pytest.fixture()
def registry():
    fresh = obs.MetricsRegistry(enabled=True)
    previous = obs.set_registry(fresh)
    try:
        yield fresh
    finally:
        obs.set_registry(previous)


# ----------------------------------------------------------------------
# bit-identity: the window is invisible in the answers
# ----------------------------------------------------------------------
class TestCoalescedBitIdentity:
    @given(data=st.data())
    def test_window_equals_per_request_query(self, flow_engine, frn, data):
        """Coalesced answers == engine.query(), flat and scalar kernels,
        with a cache invalidation interleaved mid-window."""
        n = frn.num_vertices
        t = frn.num_timesteps
        kernel = data.draw(st.sampled_from(["flat", "scalar"]))
        triples = data.draw(st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.integers(0, t - 1),
            ),
            min_size=1,
            max_size=10,
        ))
        queries = [FSPQuery(u, v, ts) for u, v, ts in triples]
        with flow_engine.kernel_override(kernel):
            expected = [flow_engine.query(q) for q in queries]

        async def run():
            async with AsyncGateway(flow_engine, kernel=kernel) as gateway:
                tasks = [
                    asyncio.ensure_future(gateway.aquery(q)) for q in queries
                ]
                await asyncio.sleep(0)  # let every task join the open window
                gateway.invalidate()    # maintenance hook mid-window
                return await asyncio.gather(*tasks)

        assert asyncio.run(run()) == expected

    def test_flow_update_mid_window_is_coalescing_safe(self, frn):
        """A real maintenance op lands mid-window; the whole window answers
        from the post-update index, same as per-request calls would."""
        serving = ResilientEngine(frn, max_retries=0)
        queries = [FSPQuery(0, i, 0) for i in range(1, 9)]
        gateway = AsyncGateway(serving)

        async def run():
            async with gateway:
                first = [
                    asyncio.ensure_future(gateway.aquery(q))
                    for q in queries[:4]
                ]
                # one tick: the first four enqueue, the window is still open
                await asyncio.sleep(0)
                outcome = serving.submit(FlowUpdate(0, 55.0))
                assert outcome.applied
                second = [
                    asyncio.ensure_future(gateway.aquery(q))
                    for q in queries[4:]
                ]
                return await asyncio.gather(*first, *second)

        got = asyncio.run(run())
        assert gateway.stats.windows == 1  # the update landed mid-window
        expected = [serving.query(q) for q in queries]
        assert [as_result(g) for g in got] == [as_result(e) for e in expected]

    def test_adistance_matches_sync_distance(self, flow_engine, frn):
        pairs = [(0, i) for i in range(frn.num_vertices)]

        async def run():
            async with AsyncGateway(flow_engine) as gw:
                return await asyncio.gather(
                    *(gw.adistance(u, v) for u, v in pairs)
                )

        got = asyncio.run(run())
        for (u, v), value in zip(pairs, got):
            assert value == flow_engine.distance(u, v)

    def test_envelopes_survive_the_window(self, frn):
        """Serving tiers answer with their envelopes, not unwrapped values."""
        gateway = ShardedGateway(frn, num_shards=2, max_retries=0)
        query = FSPQuery(0, frn.num_vertices - 1, 0)

        async def run():
            async with AsyncGateway(gateway) as agw:
                return await agw.aquery(query), await agw.adistance(0, 5)

        result, distance = asyncio.run(run())
        assert type(result) is type(gateway.query(query))
        assert as_result(result) == as_result(gateway.query(query))
        assert as_distance(distance) == as_distance(gateway.distance(0, 5))

    def test_abatch_preserves_order(self, flow_engine, frn):
        queries = [FSPQuery(i, frn.num_vertices - 1 - i, 0) for i in range(6)]

        async def run():
            async with AsyncGateway(flow_engine) as gw:
                return await gw.abatch(queries)

        got = asyncio.run(run())
        assert got == [flow_engine.query(q) for q in queries]

    def test_poisoned_request_does_not_fail_window_neighbours(self, flow_engine, frn):
        good = FSPQuery(0, 5, 0)
        bad = FSPQuery(0, 5, 10_000)  # timestep out of range

        async def run():
            async with AsyncGateway(flow_engine) as gw:
                tasks = [
                    asyncio.ensure_future(gw.aquery(good)),
                    asyncio.ensure_future(gw.aquery(bad)),
                    asyncio.ensure_future(gw.aquery(good)),
                ]
                return await asyncio.gather(*tasks, return_exceptions=True)

        first, second, third = asyncio.run(run())
        assert first == flow_engine.query(good) == third
        assert isinstance(second, QueryError)


# ----------------------------------------------------------------------
# coalescing actually happens
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_concurrent_requests_share_windows(self, flow_engine, frn):
        queries = [FSPQuery(0, i % frn.num_vertices, 0) for i in range(24)]

        async def run(gateway):
            async with gateway:
                return await asyncio.gather(
                    *(gateway.aquery(q) for q in queries)
                )

        # gather starts every request in one tick: they share one window
        gateway = AsyncGateway(flow_engine)
        asyncio.run(run(gateway))
        assert gateway.stats.requests == len(queries)
        assert gateway.stats.windows == 1
        assert gateway.stats.coalescing_ratio() == len(queries)
        assert gateway.stats.largest_window == len(queries)

    def test_max_window_splits_but_never_drops(self, flow_engine, frn):
        queries = [FSPQuery(0, i % frn.num_vertices, 0) for i in range(10)]

        async def run(gateway):
            async with gateway:
                return await asyncio.gather(
                    *(gateway.aquery(q) for q in queries)
                )

        gateway = AsyncGateway(flow_engine, max_window=3)
        got = asyncio.run(run(gateway))
        assert got == [flow_engine.query(q) for q in queries]
        assert gateway.stats.largest_window <= 3
        assert gateway.stats.windows >= 4

    def test_requests_arriving_during_a_dispatch_form_the_next_window(
        self, flow_engine
    ):
        """Natural batching under load: while one window is evaluated,
        requests submitted from another thread queue up, and the next
        window takes all of them at once."""

        class SlowBatch:
            """Records each window; the first blocks until released."""

            def __init__(self, engine):
                self.engine = engine
                self.windows = []
                self.dispatching = threading.Event()
                self.release = threading.Event()

            def batch(self, queries, **kwargs):
                self.windows.append(list(queries))
                self.dispatching.set()
                self.release.wait(10.0)
                return self.engine.batch(queries, **kwargs)

        slow = SlowBatch(flow_engine)
        queries = [FSPQuery(0, v, 0) for v in range(1, 9)]
        gateway = AsyncGateway(slow).start()
        try:
            first = gateway.submit(FSPQuery(0, 9, 0))
            assert slow.dispatching.wait(10.0)
            futures = [gateway.submit(q) for q in queries]
            slow.release.set()
            answers = [future.result(timeout=10.0) for future in futures]
            first.result(timeout=10.0)
        finally:
            slow.release.set()
            gateway.close()
        assert slow.windows == [[FSPQuery(0, 9, 0)], queries]
        assert answers == [flow_engine.query(q) for q in queries]


# ----------------------------------------------------------------------
# typed rejections: admission + backpressure
# ----------------------------------------------------------------------
class TestRejections:
    def test_backpressure_is_typed(self, flow_engine):
        query = FSPQuery(0, 5, 0)

        async def run():
            async with AsyncGateway(flow_engine, max_queue=2) as gateway:
                # three requests in one tick: two fill the queue before
                # the window is dispatched, the third is turned away
                tasks = [
                    asyncio.ensure_future(gateway.aquery(query))
                    for _ in range(3)
                ]
                answers = await asyncio.gather(*tasks, return_exceptions=True)
                assert answers[:2] == [flow_engine.query(query)] * 2
                assert isinstance(answers[2], BackpressureError)
                assert answers[2].depth == 2
                assert gateway.stats.rejected_backpressure == 1

        asyncio.run(run())

    def test_admission_is_typed_and_per_client(self, flow_engine):
        query = FSPQuery(0, 5, 0)

        async def run():
            async with AsyncGateway(
                flow_engine,
                admission_rate=0.001,
                admission_burst=1.0,
            ) as gateway:
                await gateway.aquery(query, client="a")  # burns a's token
                with pytest.raises(AdmissionError) as excinfo:
                    await gateway.aquery(query, client="a")
                assert excinfo.value.client == "a"
                assert excinfo.value.retry_after > 0
                # an independent client still gets through
                await gateway.aquery(query, client="b")
                assert gateway.stats.rejected_admission == 1

        asyncio.run(run())

    def test_rejections_move_the_metrics(self, registry, flow_engine):
        query = FSPQuery(0, 5, 0)

        async def run():
            async with AsyncGateway(flow_engine, max_queue=1) as gateway:
                accepted, rejected = [
                    asyncio.ensure_future(gateway.aquery(query))
                    for _ in range(2)
                ]
                await accepted
                with pytest.raises(BackpressureError):
                    await rejected

        asyncio.run(run())
        rejected = registry.get("repro_async_rejected_total")
        assert rejected.value(reason="backpressure") == 1
        assert registry.get("repro_async_requests_total").value(kind="query") == 1
        assert registry.get("repro_async_windows_total").total() == 1
        assert registry.get("repro_async_resolved_total").value(
            kind="query", outcome="resolved"
        ) == 1
        assert registry.get("repro_async_window_size").value() == 1
        assert registry.get("repro_async_queue_depth").value() == 0

    def test_request_span_runs_from_enqueue_to_resolve(self, flow_engine):
        """The request span parents under the submitter's span and is
        emitted like every other span when the window resolves it."""
        tracer = obs.Tracer()
        previous = obs.set_tracer(tracer)

        async def run():
            async with AsyncGateway(flow_engine) as gateway:
                with obs.trace("client.call") as client:
                    await gateway.aquery(FSPQuery(0, 5, 0))
                return client

        try:
            client = asyncio.run(run())
        finally:
            obs.set_tracer(previous)
        (request,) = [e for e in tracer.events if e["name"] == "async.request"]
        (window,) = [e for e in tracer.events if e["name"] == "async.window"]
        assert request["parent"] == client.span_id
        assert request["attrs"] == {
            "kind": "query", "client": "default", "window": 1,
            "outcome": "resolved",
        }
        assert request["start"] <= window["start"]
        assert request["trace"] and request["request"]
        assert request["pid"] == window["pid"]


# ----------------------------------------------------------------------
# the sync escape hatch
# ----------------------------------------------------------------------
class TestSyncSubmit:
    def test_submit_round_trips_through_background_loop(self, flow_engine):
        query = FSPQuery(0, 7, 0)
        gateway = AsyncGateway(flow_engine).start()
        try:
            futures = [gateway.submit(query) for _ in range(5)]
            expected = flow_engine.query(query)
            for future in futures:
                assert future.result(timeout=10.0) == expected
        finally:
            gateway.close()

    def test_submit_rejects_non_queries(self, flow_engine):
        gateway = AsyncGateway(flow_engine).start()
        try:
            with pytest.raises(QueryError):
                gateway.submit((0, 7, 0))
        finally:
            gateway.close()

    def test_submit_without_loop_raises(self, flow_engine):
        gateway = AsyncGateway(flow_engine)
        with pytest.raises(QueryError):
            gateway.submit(FSPQuery(0, 7, 0))

    def test_submit_after_close_is_rejected(self, flow_engine):
        gateway = AsyncGateway(flow_engine).start()
        gateway.close()
        with pytest.raises(QueryError):
            gateway.submit(FSPQuery(0, 7, 0))

    def test_rejections_surface_on_the_future(self, flow_engine):
        gateway = AsyncGateway(
            flow_engine,
            admission_rate=0.001,
            admission_burst=1.0,
        ).start()
        try:
            first = gateway.submit(FSPQuery(0, 7, 0))
            first.result(timeout=10.0)
            second = gateway.submit(FSPQuery(0, 7, 0))
            with pytest.raises(AdmissionError):
                second.result(timeout=10.0)
        finally:
            gateway.close()


# ----------------------------------------------------------------------
# construction guards + admission primitives
# ----------------------------------------------------------------------
class TestConstruction:
    def test_rejects_bad_parameters(self, flow_engine):
        with pytest.raises(QueryError):
            AsyncGateway(flow_engine, max_window=0)
        with pytest.raises(QueryError):
            AsyncGateway(flow_engine, max_queue=0)
        with pytest.raises(QueryError):
            AsyncGateway(flow_engine, workers=0)

    def test_window_seconds_is_rejected(self, flow_engine):
        with pytest.raises(TypeError, match="window_seconds"):
            AsyncGateway(flow_engine, window_seconds=0.002)

    def test_one_gateway_per_loop(self, flow_engine):
        gateway = AsyncGateway(flow_engine)

        async def first():
            async with gateway:
                await gateway.aquery(FSPQuery(0, 5, 0))

        async def second():
            await gateway.aquery(FSPQuery(0, 5, 0))

        asyncio.run(first())
        with pytest.raises(QueryError):
            asyncio.run(second())


class TestAdmissionPrimitives:
    def test_token_bucket_refills(self):
        now = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
        assert bucket.try_admit()
        assert bucket.try_admit()
        assert not bucket.try_admit()
        assert bucket.retry_after() == pytest.approx(0.5)
        now[0] += 0.5
        assert bucket.try_admit()

    def test_client_admission_is_per_client_and_bounded(self):
        now = [0.0]
        admission = ClientAdmission(
            rate=1.0, burst=1.0, max_clients=2, clock=lambda: now[0]
        )
        assert admission.admit("a") is None
        assert admission.admit("b") is None
        assert admission.admit("a") is not None  # a's bucket is empty
        # a third client evicts the least-recently-used bucket
        assert admission.admit("c") is None
        assert len(admission._buckets) == 2
