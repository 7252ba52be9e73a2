"""The stable public surface: Engine protocol, front doors, snapshot."""

from __future__ import annotations

import asyncio
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro import (
    AsyncEngine,
    AsyncGateway,
    Engine,
    FSPQuery,
    QueryConstraints,
    ResilientEngine,
    ShardedGateway,
    as_distance,
    as_result,
    build_fahl,
    constrained,
    knn,
    skyline,
    to_async,
)
from repro.core.fpsps import FlowAwareEngine
from repro.core.knn import flow_aware_knn
from repro.core.skyline import skyline_paths
from repro.errors import QueryError
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network

API_DOC = Path(__file__).resolve().parent.parent / "docs" / "API.md"


@pytest.fixture(scope="module")
def frn():
    graph = grid_network(6, 6, seed=9)
    return FlowAwareRoadNetwork(graph, generate_flow_series(graph, days=1, seed=2))


@pytest.fixture(scope="module")
def engines(frn):
    index = build_fahl(frn)
    return {
        "flow": FlowAwareEngine(frn, oracle=index),
        "resilient": ResilientEngine(frn, index=index, max_retries=0),
        "sharded": ShardedGateway(frn, num_shards=2, max_retries=0),
    }


class TestEngineProtocol:
    def test_all_serving_classes_satisfy_engine(self, engines):
        for engine in engines.values():
            assert isinstance(engine, Engine)

    def test_bare_index_is_not_an_engine(self, frn):
        assert not isinstance(build_fahl(frn), Engine)

    def test_engines_are_drop_in_interchangeable(self, engines):
        query = FSPQuery(0, 35, 1)
        distances = {
            name: as_distance(engine.distance(0, 35))
            for name, engine in engines.items()
        }
        assert len(set(distances.values())) == 1
        spdis = {
            name: as_result(engine.query(query)).shortest_distance
            for name, engine in engines.items()
        }
        assert len(set(spdis.values())) == 1

    def test_batch_is_uniform(self, engines):
        queries = [FSPQuery(0, 20, 0), FSPQuery(3, 30, 1)]
        for engine in engines.values():
            results = engine.batch(queries)
            assert len(results) == 2
            assert all(
                as_result(r).shortest_distance > 0 for r in results
            )

    def test_batch_signature_is_uniform(self, engines):
        """Every tier exposes batch(queries, workers, timeout, kernel, report)."""
        for name, engine in engines.items():
            params = inspect.signature(engine.batch).parameters
            for keyword, default in (
                ("workers", 1),
                ("timeout", None),
                ("kernel", None),
                ("report", None),
            ):
                assert keyword in params, f"{name}.batch lacks {keyword}="
                assert params[keyword].default == default, (
                    f"{name}.batch {keyword}= default drifted"
                )

    def test_batch_kernel_and_timeout_accepted_everywhere(self, engines):
        queries = [FSPQuery(0, 20, 0), FSPQuery(3, 30, 1)]
        for engine in engines.values():
            flat = engine.batch(queries, kernel="flat", timeout=30.0)
            scalar = engine.batch(queries, kernel="scalar", timeout=30.0)
            assert [as_result(a).shortest_distance for a in flat] == \
                [as_result(b).shortest_distance for b in scalar]
            with pytest.raises(QueryError):
                engine.batch(queries, kernel="vectorised-wrong")

    def test_normalisers_reject_garbage(self):
        with pytest.raises(QueryError):
            as_result("nope")
        with pytest.raises(QueryError):
            as_distance(object())


class TestHarmonisedFrontDoors:
    def test_knn_matches_legacy_call(self, engines):
        pois = [5, 11, 22, 30, 34]
        query = FSPQuery(0, 1, 2)  # target ignored by knn
        legacy = flow_aware_knn(engines["flow"], 0, pois, 2, 2)
        for engine in engines.values():
            got = knn(engine, query, pois, 2)
            assert [m.poi for m in got] == [m.poi for m in legacy]

    def test_knn_positional_source_removed(self, engines):
        pois = [5, 11, 22]
        # the legacy positional spelling completed its deprecation cycle
        with pytest.raises(QueryError, match="removed"):
            knn(engines["flow"], 0, pois, 1)
        with pytest.raises(TypeError):
            knn(engines["flow"], 0, pois, 1, timestep=2)  # kwarg is gone too

    def test_constrained_trivial_equals_plain_query(self, engines):
        query = FSPQuery(2, 33, 0)
        for engine in engines.values():
            plain = as_result(engine.query(query))
            got = constrained(engine, query, QueryConstraints())
            assert got.shortest_distance == plain.shortest_distance

    def test_constrained_forbidden_vertex_respected(self, engines):
        query = FSPQuery(0, 35, 0)
        baseline = constrained(engines["flow"], query, QueryConstraints())
        banned = baseline.path[len(baseline.path) // 2]
        for engine in engines.values():
            got = constrained(
                engine, query,
                QueryConstraints(forbidden_vertices=frozenset({banned})),
            )
            assert banned not in got.path

    def test_skyline_accepts_frn_or_engine(self, frn, engines):
        query = FSPQuery(0, 35, 1)
        want = skyline_paths(frn, 0, 35, 1)
        assert skyline(frn, query).paths == want.paths
        for engine in engines.values():
            assert skyline(engine, query).paths == want.paths

    def test_skyline_positional_removed(self, frn):
        with pytest.raises(QueryError, match="removed"):
            skyline(frn, 0)
        with pytest.raises(TypeError):
            skyline(frn, 0, target=35, timestep=1)  # kwargs are gone too


class TestAsyncEngineProtocol:
    def test_gateway_satisfies_async_engine(self, engines):
        gateway = AsyncGateway(engines["flow"])
        assert isinstance(gateway, AsyncEngine)
        assert not isinstance(engines["flow"], AsyncEngine)
        # ResilientEngine has submit() (for updates) but no coroutines
        assert not isinstance(engines["resilient"], AsyncEngine)
        assert not isinstance(engines["sharded"], AsyncEngine)

    def test_to_async_adapts_every_tier(self, engines):
        for name, engine in engines.items():
            adapted = to_async(engine)
            assert isinstance(adapted, AsyncEngine), name
            assert adapted.engine is engine

    def test_to_async_rejects_window_seconds(self, engines):
        with pytest.raises(TypeError, match="window_seconds"):
            to_async(engines["flow"], window_seconds=0.002)

    def test_to_async_passes_through_async_engines(self, engines):
        gateway = to_async(engines["flow"])
        assert to_async(gateway) is gateway
        with pytest.raises(QueryError):
            to_async(gateway, max_window=8)  # options need a wrap

    def test_to_async_rejects_non_engines(self, frn):
        with pytest.raises(QueryError):
            to_async(build_fahl(frn))

    def test_async_answers_match_sync_and_normalise_identically(self, engines):
        query = FSPQuery(0, 35, 1)

        async def round_trip(engine):
            async with to_async(engine) as gateway:
                return await gateway.aquery(query), await gateway.adistance(0, 35)

        for name, engine in engines.items():
            got_result, got_distance = asyncio.run(round_trip(engine))
            want_result = engine.query(query)
            assert type(got_result) is type(want_result), name
            assert (
                as_result(got_result).shortest_distance
                == as_result(want_result).shortest_distance
            )
            assert as_distance(got_distance) == as_distance(engine.distance(0, 35))


class TestApiSnapshot:
    def test_docs_table_matches_public_all(self):
        text = API_DOC.read_text()
        section = text.split("## Public surface", 1)[1]
        documented = set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))
        exported = set(repro.__all__)
        assert documented == exported, (
            "docs/API.md public-surface table and repro.__all__ disagree; "
            f"only in docs: {sorted(documented - exported)}, "
            f"only in __all__: {sorted(exported - documented)}"
        )

    def test_all_names_are_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
