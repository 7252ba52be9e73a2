"""Durability layer: WAL framing, checkpoint generations, recovery replay.

The crash *matrix* (a kill at every instrumented point) lives in
``test_crash_matrix.py`` under the ``crash`` marker; this file covers the
deterministic mechanics — torn-tail repair, fsync policy validation,
generation fallback, state restoration — plus the serializer integrity
fuzz (truncation / bit flips must never load silently).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.baselines.dijkstra import dijkstra_distance
from repro.core.fahl import FAHLIndex
from repro.durability import (
    Durability,
    RecoveryReport,
    WriteAheadLog,
    recover,
    scan_and_repair,
)
from repro.errors import IndexIntegrityError, RecoveryError
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.graph.road_network import RoadNetwork
from repro.labeling.serialize import load_index, save_index
from repro.serving.engine import ResilientEngine
from repro.serving.updates import FlowUpdate, WeightUpdate


def make_frn(side: int = 5) -> FlowAwareRoadNetwork:
    graph = grid_network(side, side, seed=42)
    flow = generate_flow_series(graph, days=1, seed=3)
    return FlowAwareRoadNetwork(graph, flow)


def weight_updates(frn: FlowAwareRoadNetwork, count: int, factor: float = 1.5):
    edges = list(frn.graph.edges())[:count]
    return [
        WeightUpdate(u, v, float(w) * factor, timestamp=float(i))
        for i, (u, v, w) in enumerate(edges)
    ]


def all_pairs(engine, n: int) -> dict[tuple[int, int], float]:
    return {
        (s, t): engine.distance(s, t).value
        for s in range(n)
        for t in range(n)
    }


# ----------------------------------------------------------------------
# write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="always")
        for i in range(5):
            seq = wal.append({"type": "update", "i": i})
            assert seq == i
        wal.close()
        records, torn = scan_and_repair(path)
        assert torn == 0
        assert [r["i"] for r in records] == list(range(5))
        assert [r["seq"] for r in records] == list(range(5))

    def test_reopen_continues_sequence(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.append({"type": "update"})
        wal.append({"type": "update"})
        wal.close()
        reopened = WriteAheadLog(path)
        assert len(reopened.recovered_records) == 2
        assert reopened.append({"type": "update"}) == 2
        reopened.close()

    def test_torn_tail_truncated(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="never")
        for i in range(3):
            wal.append({"type": "update", "i": i})
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x40\x00\x00\x00\x99\x99")  # header + no payload
        size_before = path.stat().st_size
        reopened = WriteAheadLog(path)
        assert len(reopened.recovered_records) == 3
        assert reopened.torn_bytes == 6
        assert path.stat().st_size == size_before - 6
        # appending after the repair produces a clean log again
        reopened.append({"type": "update", "i": 3})
        reopened.close()
        records, torn = scan_and_repair(path)
        assert torn == 0
        assert [r["i"] for r in records] == [0, 1, 2, 3]

    def test_bitflip_cuts_log_at_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync="never")
        offsets = []
        for i in range(4):
            offsets.append(path.stat().st_size if path.exists() else 0)
            wal.append({"type": "update", "i": i})
            wal._handle.flush()
            offsets[-1] = path.stat().st_size
        wal.close()
        # flip one payload byte inside the third record
        data = bytearray(path.read_bytes())
        data[offsets[1] + 12] ^= 0xFF
        path.write_bytes(bytes(data))
        records, torn = scan_and_repair(path)
        assert [r["i"] for r in records] == [0, 1]
        assert torn > 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL!" + b"\x00" * 16)
        with pytest.raises(RecoveryError, match="bad magic"):
            scan_and_repair(path)

    def test_missing_file_created_empty(self, tmp_path):
        records, torn = scan_and_repair(tmp_path / "fresh.log")
        assert records == [] and torn == 0
        assert (tmp_path / "fresh.log").exists()

    def test_fsync_policy_validation(self, tmp_path):
        with pytest.raises(RecoveryError, match="fsync policy"):
            WriteAheadLog(tmp_path / "w.log", fsync="sometimes")
        with pytest.raises(RecoveryError, match="fsync_every"):
            WriteAheadLog(tmp_path / "w.log", fsync="interval", fsync_every=0)
        with pytest.raises(RecoveryError, match="fsync policy"):
            Durability(tmp_path, fsync="bogus")
        with pytest.raises(RecoveryError, match="auto_checkpoint"):
            Durability(tmp_path, auto_checkpoint=0)
        with pytest.raises(RecoveryError, match="retain"):
            Durability(tmp_path, retain=0)

    @pytest.mark.parametrize("policy", ["always", "interval", "never"])
    def test_every_fsync_policy_roundtrips(self, tmp_path, policy):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync=policy, fsync_every=2)
        for i in range(5):
            wal.append({"type": "update", "i": i})
        wal.sync()
        wal.close()
        records, _ = scan_and_repair(path)
        assert len(records) == 5


# ----------------------------------------------------------------------
# checkpoint generations
# ----------------------------------------------------------------------
class TestCheckpoints:
    def test_checkpoint_writes_generation_and_rotates(self, tmp_path):
        frn = make_frn()
        durability = Durability(tmp_path)
        engine = ResilientEngine(frn, durability=durability)
        for update in weight_updates(frn, 3):
            assert engine.submit(update).applied
        assert durability.updates_since_checkpoint == 3
        generation = durability.checkpoint(engine)
        assert generation == 1
        directory = durability.checkpoint_dir(1)
        for name in ("index.npz", "state.json", "MANIFEST.json"):
            assert (directory / name).exists()
        assert durability.wal_path(1).exists()
        assert durability.updates_since_checkpoint == 0
        assert durability.list_checkpoints() == [1]
        durability.close()
        # a fresh manager discovers the rotated generation
        assert Durability(tmp_path).generation == 1

    def test_auto_checkpoint_cadence(self, tmp_path):
        frn = make_frn()
        durability = Durability(tmp_path, auto_checkpoint=2)
        engine = ResilientEngine(frn, durability=durability)
        updates = weight_updates(frn, 5)
        for update in updates[:2]:
            engine.submit(update)
        assert durability.generation == 1  # cadence hit at 2 updates
        for update in updates[2:4]:
            engine.submit(update)
        assert durability.generation == 2
        durability.close()

    def test_prune_keeps_retain_window(self, tmp_path):
        frn = make_frn()
        durability = Durability(tmp_path, retain=2)
        engine = ResilientEngine(frn, durability=durability)
        updates = weight_updates(frn, 4)
        for update in updates:
            engine.submit(update)
            durability.checkpoint(engine)
        assert durability.generation == 4
        assert durability.list_checkpoints() == [4, 3]
        assert not durability.checkpoint_dir(2).exists()
        assert not durability.wal_path(2).exists()
        durability.close()


# ----------------------------------------------------------------------
# recovery
# ----------------------------------------------------------------------
class TestRecover:
    @pytest.mark.parametrize("mode", ["overlay"])
    def test_recover_is_bit_identical(self, tmp_path, mode):
        frn = make_frn()
        n = frn.num_vertices
        durability = Durability(tmp_path)
        engine = ResilientEngine(
            frn, update_mode=mode, durability=durability, overlay_capacity=4
        )
        for update in weight_updates(frn, 6):
            assert engine.submit(update).applied
        engine.submit(FlowUpdate(0, 7.5, timestamp=99.0))
        engine.submit(WeightUpdate(0, 1, -4.0, timestamp=100.0))  # reject
        expected = all_pairs(engine, n)
        dlq_reasons = dict(engine.dead_letters.by_reason)
        metrics = dict(engine.metrics)
        durability.close()

        recovered = recover(tmp_path, make_frn())
        report = recovered.last_recovery
        assert isinstance(report, RecoveryReport)
        assert report.torn_bytes == 0
        assert all_pairs(recovered, n) == expected
        assert dict(recovered.dead_letters.by_reason) == dlq_reasons
        assert recovered.state == engine.state
        assert recovered.status().update_mode == mode
        for key, value in metrics.items():
            assert recovered.metrics[key] == value, key

    def test_recover_falls_back_to_previous_generation(self, tmp_path):
        frn = make_frn()
        n = frn.num_vertices
        durability = Durability(tmp_path, retain=2)
        engine = ResilientEngine(frn, durability=durability)
        updates = weight_updates(frn, 6)
        for update in updates[:2]:
            engine.submit(update)
        durability.checkpoint(engine)
        for update in updates[2:4]:
            engine.submit(update)
        durability.checkpoint(engine)
        for update in updates[4:]:
            engine.submit(update)
        expected = all_pairs(engine, n)
        durability.close()
        # corrupt the newest checkpoint's index payload
        newest = durability.checkpoint_dir(2) / "index.npz"
        blob = bytearray(newest.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        newest.write_bytes(bytes(blob))

        recovered = recover(tmp_path, make_frn())
        report = recovered.last_recovery
        assert report.generation == 1
        assert report.fallback_generations == 1
        assert not report.cold_rebuild
        # generation-1 tail AND generation-2 tail both replayed
        assert report.replayed_updates == 4
        assert all_pairs(recovered, n) == expected

    def test_recover_refuses_lossy_world(self, tmp_path):
        frn = make_frn()
        durability = Durability(tmp_path, retain=1)
        engine = ResilientEngine(frn, durability=durability)
        updates = weight_updates(frn, 4)
        for update in updates[:2]:
            engine.submit(update)
        durability.checkpoint(engine)
        for update in updates[2:]:
            engine.submit(update)
        durability.checkpoint(engine)  # retain=1 pruned generation-0 logs
        durability.close()
        manifest = durability.checkpoint_dir(2) / "MANIFEST.json"
        manifest.write_text("{definitely not json")
        with pytest.raises(RecoveryError, match="acknowledged updates"):
            recover(tmp_path, make_frn())

    def test_recover_rejects_missing_directory(self, tmp_path):
        with pytest.raises(RecoveryError, match="no durability directory"):
            recover(tmp_path / "typo", make_frn())

    def test_recover_cold_when_no_checkpoint_ever_written(self, tmp_path):
        frn = make_frn()
        n = frn.num_vertices
        durability = Durability(tmp_path)
        engine = ResilientEngine(frn, durability=durability)
        for update in weight_updates(frn, 4):
            engine.submit(update)
        expected = all_pairs(engine, n)
        durability.close()
        recovered = recover(tmp_path, make_frn())
        assert recovered.last_recovery.cold_rebuild
        assert all_pairs(recovered, n) == expected

    def test_recovered_engine_keeps_logging(self, tmp_path):
        frn = make_frn()
        n = frn.num_vertices
        durability = Durability(tmp_path)
        engine = ResilientEngine(frn, durability=durability)
        updates = weight_updates(frn, 6)
        for update in updates[:3]:
            engine.submit(update)
        durability.close()
        middle = recover(tmp_path, make_frn())
        for update in updates[3:]:
            assert middle.submit(update).applied
        expected = all_pairs(middle, n)
        middle.durability.close()
        final = recover(tmp_path, make_frn())
        assert all_pairs(final, n) == expected


# ----------------------------------------------------------------------
# directories written by an inline-mode engine (tests/data/inline_engine)
# ----------------------------------------------------------------------
INLINE_FIXTURE = Path(__file__).parent / "data" / "inline_engine"


class TestInlineModeDirectory:
    """A checkpoint + WAL from the retired inline path loses no ack.

    The fixture's checkpoint carries ``update_mode="inline"`` and two
    deferred updates; its log tail holds ILU/ISU outcomes and one more
    deferred (``applied: false``) update.  See ``generate.py`` there.
    """

    @pytest.fixture()
    def fixture(self, tmp_path):
        expected = json.loads((INLINE_FIXTURE / "expected.json").read_text())
        root = tmp_path / "wal"
        # recovery repairs torn tails and checkpoints: work on a copy
        shutil.copytree(INLINE_FIXTURE / "wal", root)
        recipe = expected["recipe"]
        assert recipe["rows"] == recipe["cols"]
        assert (recipe["graph_seed"], recipe["flow_days"], recipe["flow_seed"]) == (
            42, 1, 3
        )
        final = RoadNetwork(
            recipe["rows"] * recipe["cols"],
            edges=[(u, v, float(w)) for u, v, w in expected["final_weights"]],
        )
        flows = {int(k): v for k, v in expected["final_flows"].items()}
        return root, make_frn(recipe["rows"]), final, flows

    @staticmethod
    def assert_final_world(engine, final, flows) -> None:
        n = final.num_vertices
        for u, v, w in final.edges():
            assert engine.frn.graph.weight(u, v) == w, (u, v)
        for s in range(n):
            for t in range(n):
                assert engine.distance(s, t).value == pytest.approx(
                    dijkstra_distance(final, s, t), abs=1e-9
                ), (s, t)
        engine.consolidate()
        for vertex, value in flows.items():
            assert engine.index.flows[vertex] == value, vertex

    def test_checkpoint_and_tail_keep_every_ack(self, fixture):
        root, frn, final, flows = fixture
        recovered = recover(root, frn)
        report = recovered.last_recovery
        assert report.generation == 1 and not report.cold_rebuild
        assert report.replayed_updates == 4
        assert recovered.status().deferred_updates == 0
        # checkpointed degraded by the deferrals: answers stay exact while
        # degraded, and repair heals
        assert recovered.degraded
        self.assert_final_world(recovered, final, flows)
        assert recovered.repair().ok
        assert not recovered.degraded
        assert recovered.distance(0, final.num_vertices - 1).source == "index"
        self.assert_final_world(recovered, final, flows)

    def test_cold_rebuild_replays_the_whole_log(self, fixture):
        root, frn, final, flows = fixture
        shutil.rmtree(root / "ckpt-00000001")
        recovered = recover(root, frn)
        report = recovered.last_recovery
        assert report.cold_rebuild
        assert report.replayed_updates == 8
        assert not recovered.degraded
        assert recovered.status().update_mode == "overlay"
        self.assert_final_world(recovered, final, flows)


# ----------------------------------------------------------------------
# serializer integrity fuzz (IndexIntegrityError forensics)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def saved_index(tmp_path_factory):
    frn = make_frn(4)
    index = FAHLIndex.from_frn(frn)
    path = tmp_path_factory.mktemp("idx") / "index.npz"
    save_index(index, path)
    return path, index.checksum(), path.read_bytes()


class TestIndexIntegrity:
    def test_error_carries_forensics(self, tmp_path, saved_index):
        source, _, blob = saved_index
        target = tmp_path / "index.npz"
        target.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IndexIntegrityError) as excinfo:
            load_index(target)
        error = excinfo.value
        assert error.path == target
        assert "integrity check" in str(error)

    def test_checksum_mismatch_reports_both_digests(
        self, tmp_path, saved_index
    ):
        import numpy as np

        source, _, _ = saved_index
        with np.load(source) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["weights"] = arrays["weights"] + 1.0  # content no longer matches
        target = tmp_path / "tampered.npz"
        np.savez_compressed(target, **arrays)
        with pytest.raises(IndexIntegrityError) as excinfo:
            load_index(target)
        error = excinfo.value
        assert error.expected_checksum is not None
        assert error.actual_checksum is not None
        assert error.expected_checksum != error.actual_checksum
        assert error.version == 2

    @given(fraction=st.floats(min_value=0.02, max_value=0.98))
    def test_truncation_never_loads(self, saved_index, fraction, tmp_path_factory):
        _, _, blob = saved_index
        target = tmp_path_factory.mktemp("fuzz") / "t.npz"
        target.write_bytes(blob[: max(1, int(len(blob) * fraction))])
        with pytest.raises(IndexIntegrityError):
            load_index(target)

    @given(data=st.data())
    def test_bitflip_detected_or_harmless(self, saved_index, data, tmp_path_factory):
        _, checksum, blob = saved_index
        position = data.draw(st.integers(0, len(blob) - 1))
        flip = data.draw(st.integers(1, 255))
        corrupted = bytearray(blob)
        corrupted[position] ^= flip
        target = tmp_path_factory.mktemp("fuzz") / "b.npz"
        target.write_bytes(bytes(corrupted))
        try:
            loaded = load_index(target)
        except IndexIntegrityError:
            return  # detected — the desired outcome
        # the flip landed in bytes no reader consumes: content must be intact
        assert loaded.checksum() == checksum
