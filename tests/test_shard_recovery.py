"""Per-shard degraded repair and crash recovery on the sharded gateway.

One shard failing must never take the gateway down: while a shard is
degraded its queries fall back to direct Dijkstra (correct, slower) and
the *other* shards keep answering from their indexes; ``repair(shard=)``
heals exactly the asked-for shard; ``recover_shard`` restarts a crashed
shard from its own checkpoint + WAL (or rebuilds it cold when the
durability directory is beyond saving) while the rest of the fleet keeps
serving bit-identical answers.
"""

from __future__ import annotations

import pytest

from repro import ShardedGateway, obs
from repro.durability import RecoveryReport
from repro.errors import QueryError
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.serving import FlowUpdate, WeightUpdate

from .boundary_oracle import assert_boundary_exact


def make_frn(seed: int = 3) -> FlowAwareRoadNetwork:
    graph = grid_network(8, 8, seed=seed)
    return FlowAwareRoadNetwork(graph, generate_flow_series(graph, days=1, seed=4))


@pytest.fixture()
def durable_gateway(tmp_path):
    gateway = ShardedGateway(
        make_frn(), num_shards=4, max_retries=0,
        durability_dir=tmp_path, durability_kwargs={"fsync": "never"},
    )
    yield gateway
    for engine in gateway.shards:
        if engine.durability is not None:
            engine.durability.close()


def sample_pairs(n, count=80):
    return [((5 * i) % n, (11 * i + 3) % n) for i in range(count)]


def snapshot(gateway):
    n = gateway.frn.num_vertices
    return {
        (u, v): gateway.distance(u, v).value for u, v in sample_pairs(n)
    }


def degrade_shard(gateway, shard: int) -> FlowUpdate:
    """Queue a flow update on ``shard``, then fail its audit: it alone degrades."""
    vertex = gateway._to_global[shard][0]
    update = FlowUpdate(vertex, 9.0, timestamp=500.0)
    assert gateway.submit(update).applied
    engine = gateway.shards[shard]
    engine.index.labels[0][-1] = 1.0  # corrupt a self entry
    assert not engine.audit().ok
    assert gateway.degraded_shards == (shard,)
    return update


class TestShardRepair:
    def test_repair_single_shard_heals_only_it(self, durable_gateway):
        gateway = durable_gateway
        degrade_shard(gateway, 2)
        verdicts = gateway.repair(shard=2)
        assert verdicts == {2: True}
        assert gateway.degraded_shards == ()
        # the queued flow update was folded in by the shard's rebuild
        local = gateway._to_local[2][gateway._to_global[2][0]]
        assert gateway.shards[2].index.flows[local] == 9.0

    def test_degraded_shard_falls_back_while_others_serve(
        self, durable_gateway
    ):
        gateway = durable_gateway
        healthy = snapshot(gateway)
        degrade_shard(gateway, 1)
        inside = gateway._to_global[1][:2]
        answer = gateway.distance(inside[0], inside[1])
        assert answer.degraded and answer.source == "fallback"
        # a query that never touches the degraded shard stays indexed
        other = gateway._to_global[3][:2]
        answer = gateway.distance(other[0], other[1])
        assert not answer.degraded
        assert answer.source in ("shard", "boundary")
        # fallback or not, every answer stays exact
        assert snapshot(gateway) == healthy

    def test_repair_out_of_range_shard_rejected(self, durable_gateway):
        with pytest.raises(QueryError):
            durable_gateway.recover_shard(99)


def intra_edges(gateway, shard: int):
    members = set(gateway._to_global[shard])
    return [
        (u, v, w)
        for u, v, w in gateway.frn.graph.edges()
        if u in members and v in members
    ]


class TestBoundaryTableAfterRecovery:
    """The global boundary table stays equal to the Dijkstra oracle."""

    def test_exact_after_repair_with_deferred_weights(self, durable_gateway):
        # the weight is absorbed and mirrored at submit, so the repair
        # changes no weight: it rebuilds no boundary table, and the table
        # stays exact
        gateway = durable_gateway
        u, v, w = intra_edges(gateway, 2)[0]
        outcome = gateway.submit(
            WeightUpdate(u, v, float(w) * 0.65, timestamp=500.0)
        )
        assert outcome.applied and outcome.strategy == "overlay"
        degrade_shard(gateway, 2)
        registry = obs.MetricsRegistry(enabled=True)
        previous = obs.set_registry(registry)
        try:
            assert gateway.repair(shard=2) == {2: True}
        finally:
            obs.set_registry(previous)
        assert registry.get("repro_gateway_boundary_rebuilds_total") is None
        assert gateway.frn.graph.weight(u, v) == float(w) * 0.65
        assert_boundary_exact(gateway)

    def test_exact_after_recover_shard(self, durable_gateway):
        gateway = durable_gateway
        updates = intra_edges(gateway, 1)[:6] + list(gateway.plan.cut_edges[:4])
        for i, (u, v, w) in enumerate(updates):
            factor = 0.65 if i % 2 == 0 else 1.5
            assert gateway.submit(
                WeightUpdate(u, v, float(w) * factor, timestamp=float(i))
            ).applied
        report = gateway.recover_shard(1)
        assert isinstance(report, RecoveryReport)
        assert_boundary_exact(gateway)

    def test_exact_after_cold_rebuild(self, durable_gateway):
        gateway = durable_gateway
        for i, (u, v, w) in enumerate(intra_edges(gateway, 3)[:4]):
            assert gateway.submit(
                WeightUpdate(u, v, float(w) * 0.65, timestamp=float(i))
            ).applied
        # the same debris as the hopeless-directory test below
        root = gateway.shard_durability_dir(3)
        gateway.shards[3].durability.close()
        for wal in root.glob("wal-*.log"):
            wal.unlink()
        fake = root / "ckpt-00000005"
        fake.mkdir()
        (fake / "MANIFEST.json").write_text("{broken")
        assert gateway.recover_shard(3) is None
        assert_boundary_exact(gateway)


class TestShardRecovery:
    def test_recover_shard_replays_wal_bit_identically(self, durable_gateway):
        gateway = durable_gateway
        edges = list(gateway.frn.graph.edges())[:12]
        for i, (u, v, w) in enumerate(edges):
            assert gateway.submit(
                WeightUpdate(u, v, float(w) * 1.7, timestamp=float(i))
            ).applied
        before = snapshot(gateway)
        shard_metrics = dict(gateway.shards[1].metrics)

        report = gateway.recover_shard(1)
        assert isinstance(report, RecoveryReport)
        assert gateway.metrics["shard_recoveries"] == 1
        assert gateway.metrics.get("shard_rebuilds", 0) == 0
        assert snapshot(gateway) == before
        # lifetime counters survive the restart
        recovered = gateway.shards[1].metrics
        for key, value in shard_metrics.items():
            assert recovered[key] == value, key

    def test_others_keep_serving_during_recovery(self, durable_gateway):
        gateway = durable_gateway
        before = snapshot(gateway)
        probes = [
            (u, v)
            for u, v in sample_pairs(gateway.frn.num_vertices)
            if gateway.plan.shard(u) != 0 and gateway.plan.shard(v) != 0
        ]
        gateway.recover_shard(0)
        for u, v in probes[:20]:
            answer = gateway.distance(u, v)
            assert answer.source != "fallback"
            assert answer.value == before[(u, v)]

    def test_recovered_shard_keeps_accepting_updates(self, durable_gateway):
        gateway = durable_gateway
        gateway.recover_shard(2)
        # an intra-shard edge of the recovered shard
        members = set(gateway._to_global[2])
        u, v, w = next(
            (u, v, w)
            for u, v, w in gateway.frn.graph.edges()
            if u in members and v in members
        )
        assert gateway.submit(
            WeightUpdate(u, v, float(w) * 2.0, timestamp=600.0)
        ).applied
        # and the change is durable: a second restart replays it
        before = snapshot(gateway)
        gateway.recover_shard(2)
        assert snapshot(gateway) == before

    def test_hopeless_directory_falls_back_to_cold_rebuild(
        self, durable_gateway
    ):
        gateway = durable_gateway
        before = snapshot(gateway)
        # fabricate debris recovery cannot use: a checkpoint directory
        # whose manifest is garbage, with the WAL history gone
        root = gateway.shard_durability_dir(3)
        gateway.shards[3].durability.close()
        for wal in root.glob("wal-*.log"):
            wal.unlink()
        fake = root / "ckpt-00000005"
        fake.mkdir()
        (fake / "MANIFEST.json").write_text("{broken")

        report = gateway.recover_shard(3)
        assert report is None
        assert gateway.metrics["shard_rebuilds"] == 1
        assert snapshot(gateway) == before
        # the rebuild checkpointed immediately: the next restart recovers
        # from that fresh generation instead of rebuilding again
        second = gateway.recover_shard(3)
        assert isinstance(second, RecoveryReport)
        assert not second.cold_rebuild
        assert gateway.metrics["shard_rebuilds"] == 1
        assert snapshot(gateway) == before

    def test_gateway_without_durability_dir_rejects_recover(self):
        gateway = ShardedGateway(make_frn(), num_shards=2, max_retries=0)
        with pytest.raises(QueryError, match="durability_dir"):
            gateway.recover_shard(0)

    def test_each_shard_gets_its_own_directory(self, durable_gateway):
        gateway = durable_gateway
        dirs = {
            gateway.shard_durability_dir(k)
            for k in range(gateway.plan.num_shards)
        }
        assert len(dirs) == gateway.plan.num_shards
        for k in range(gateway.plan.num_shards):
            assert gateway.shards[k].durability is not None
            assert gateway.shard_durability_dir(k).exists()
