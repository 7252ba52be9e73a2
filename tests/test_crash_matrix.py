"""Crash matrix: kill the process at every durability boundary, recover.

Each case runs a scripted update stream against a durable engine with a
:class:`~repro.testing.CrashInjector` armed at ONE instrumented point
(mid WAL append, before the fsync, between checkpoint files, at the
rotation), then recovers the directory exactly as the "kill -9" left it
and checks:

* every acknowledged update survives — the recovered all-pairs distances
  equal a reference engine fed the acked prefix, or that prefix plus the
  single in-flight update (which a crash may legitimately land on either
  side of the ack boundary, never anywhere else);
* quarantined dead letters survive with their reasons;
* the recovered engine audits clean and keeps serving.

``recover:mid-replay`` gets its own case (crash *during* recovery, then
recover again).  Marked ``crash`` so CI can run the matrix in a separate
timeout-bounded job.
"""

from __future__ import annotations

import pytest

from repro.durability import CRASH_POINTS, Durability, SimulatedCrash, recover
from repro.flow.synthetic import generate_flow_series
from repro.graph.frn import FlowAwareRoadNetwork
from repro.graph.generators import grid_network
from repro.serving.engine import ResilientEngine
from repro.serving.updates import FlowUpdate, WeightUpdate
from repro.testing import CrashInjector

pytestmark = pytest.mark.crash

#: the one update path; the axis stays so every case keeps its ``overlay`` id
MODES = ("overlay",)
MATRIX_POINTS = tuple(p for p in CRASH_POINTS if p != "recover:mid-replay")


def make_frn() -> FlowAwareRoadNetwork:
    graph = grid_network(5, 5, seed=42)
    flow = generate_flow_series(graph, days=1, seed=3)
    return FlowAwareRoadNetwork(graph, flow)


def scripted_updates(frn: FlowAwareRoadNetwork):
    """A stream long enough to cross every instrumented boundary.

    With ``auto_checkpoint=3`` the checkpoint points are crossed mid-stream
    and with ``overlay_capacity=4`` the engine also consolidates;
    one invalid weight exercises the quarantine path.
    """
    edges = list(frn.graph.edges())[:8]
    updates: list[FlowUpdate | WeightUpdate] = [
        WeightUpdate(u, v, float(w) * 1.5, timestamp=float(i))
        for i, (u, v, w) in enumerate(edges)
    ]
    updates.insert(5, WeightUpdate(0, 1, -3.0, timestamp=50.0))  # reject
    updates.insert(7, FlowUpdate(2, 6.5, timestamp=51.0))
    return updates


def build_engine(root, frn) -> ResilientEngine:
    durability = Durability(root, fsync="always", auto_checkpoint=3)
    return ResilientEngine(frn, durability=durability, overlay_capacity=4)


def reference_distances(updates, n) -> dict[tuple[int, int], float]:
    engine = ResilientEngine(make_frn(), overlay_capacity=4)
    for update in updates:
        engine.submit(update)
    return {
        (s, t): engine.distance(s, t).value
        for s in range(n)
        for t in range(n)
    }


def is_reject(update) -> bool:
    return isinstance(update, WeightUpdate) and update.value <= 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("point", MATRIX_POINTS)
def test_kill_and_recover(tmp_path, point, mode):
    frn = make_frn()
    n = frn.num_vertices
    updates = scripted_updates(frn)

    engine = build_engine(tmp_path, frn)
    acked: list = []
    inflight = None
    with CrashInjector() as injector:
        injector.crash_at(point)
        try:
            for update in updates:
                inflight = update
                engine.submit(update)
                acked.append(update)
                inflight = None
        except SimulatedCrash:
            pass
    assert point in injector.trace, f"script never crossed {point}"
    assert inflight is not None, f"crash at {point} never fired"
    # the injector is disarmed; closing stands in for the OS reclaiming
    # the file handle — it cannot unwrite anything a real kill would keep
    engine.durability.close()

    recovered = recover(tmp_path, make_frn())
    report = recovered.last_recovery

    got = {
        (s, t): recovered.distance(s, t).value
        for s in range(n)
        for t in range(n)
    }
    # the in-flight update was either durably acked or never happened —
    # recovery must land on one of those two worlds, bit-for-bit
    without = reference_distances(acked, n)
    with_inflight = reference_distances(acked + [inflight], n)
    assert got == without or got == with_inflight, (
        f"recovered distances match neither world (point={point}, "
        f"mode={mode}, report={report})"
    )

    rejected = sum(1 for u in acked if is_reject(u))
    survivors = recovered.dead_letters.by_reason.get("non-positive-weight", 0)
    assert survivors in (
        rejected,
        rejected + (1 if is_reject(inflight) else 0),
    )

    assert not recovered.degraded
    assert recovered.audit().ok
    # the recovered engine stays durable: it keeps accepting updates
    follow_up = WeightUpdate(
        *next(iter(frn.graph.edges()))[:2], 99.0, timestamp=1000.0
    )
    assert recovered.submit(follow_up).applied
    recovered.durability.close()


@pytest.mark.parametrize("mode", MODES)
def test_crash_during_recovery_then_recover_again(tmp_path, mode):
    frn = make_frn()
    n = frn.num_vertices
    updates = scripted_updates(frn)

    # no auto-checkpoint and a roomy overlay: the whole stream stays in
    # the WAL tail, so recovery has plenty of records to die in the middle of
    durability = Durability(tmp_path, fsync="always")
    engine = ResilientEngine(frn, durability=durability, overlay_capacity=64)
    for update in updates:
        engine.submit(update)
    expected = {
        (s, t): engine.distance(s, t).value
        for s in range(n)
        for t in range(n)
    }
    engine.durability.close()

    # first recovery attempt dies mid WAL replay ...
    with CrashInjector() as injector:
        injector.crash_at("recover:mid-replay", after=2)
        with pytest.raises(SimulatedCrash):
            recover(tmp_path, make_frn())
    assert injector.trace.count("recover:mid-replay") == 3

    # ... and the second attempt still lands on the exact pre-crash state
    recovered = recover(tmp_path, make_frn())
    got = {
        (s, t): recovered.distance(s, t).value
        for s in range(n)
        for t in range(n)
    }
    assert got == expected
    assert recovered.dead_letters.by_reason.get(
        "non-positive-weight", 0
    ) == 1
    assert recovered.audit().ok
    recovered.durability.close()
