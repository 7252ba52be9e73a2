"""Exactness gate: sampled answers against Dijkstra and the scalar reference.

Runs outside the timed region.  Every sample is checked against the graph
state its answer saw: the benchmark logs each weight update it applied, so
a fresh copy of the starting graph replayed up to the sample's position in
that log is the ground truth.  A sample submitted before an update and
answered after it saw one of two states and is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.api import as_distance, as_result
from repro.baselines.dijkstra import dijkstra_distance
from repro.core.fspq import FSPQuery

__all__ = ["CheckReport", "Sample", "verify"]


def _close(a: float, b: float) -> bool:
    # labels and Dijkstra add the same weights in different orders
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@dataclass
class Sample:
    """One answer kept for checking.

    ``applied_before``/``applied_after`` count the weight updates applied
    when the request was sent and when it was answered.
    """

    kind: str  # "route" | "distance"
    source: int
    target: int
    timestep: int
    answer: object
    applied_before: int = 0
    applied_after: int = 0


@dataclass
class CheckReport:
    checked: int = 0
    skipped: int = 0
    mismatches: int = 0
    notes: list[str] = field(default_factory=list)

    def _fail(self, note: str) -> None:
        self.mismatches += 1
        if len(self.notes) < 5:
            self.notes.append(note)


def verify(
    samples: list[Sample],
    base_graph,
    update_log: list[tuple[int, int, float]],
    eta_u: float,
    reference=None,
) -> CheckReport:
    """Check every sample; ``reference`` is a scalar-kernel engine whose
    full :class:`FSPResult` route answers must equal (monolithic stacks)."""
    report = CheckReport()
    graph = base_graph.copy()
    applied = 0
    spdis: dict[tuple[int, int], float] = {}
    for sample in sorted(samples, key=lambda x: x.applied_before):
        if sample.applied_before != sample.applied_after:
            report.skipped += 1
            continue
        while applied < sample.applied_before:
            u, v, value = update_log[applied]
            graph.set_weight(u, v, value)
            applied += 1
            spdis.clear()
        s, t = sample.source, sample.target
        key = (s, t)
        if key not in spdis:
            spdis[key] = dijkstra_distance(graph, s, t)
        truth = spdis[key]
        report.checked += 1
        label = f"{sample.kind} {s}->{t}@{sample.timestep}"
        if sample.kind == "distance":
            got = as_distance(sample.answer)
            if not _close(got, truth):
                report._fail(f"{label}: distance {got!r} != dijkstra {truth!r}")
            continue
        result = as_result(sample.answer)
        if not _close(result.shortest_distance, truth):
            report._fail(
                f"{label}: SPDis {result.shortest_distance!r} != dijkstra {truth!r}"
            )
            continue
        path = result.path
        if not path or path[0] != s or path[-1] != t:
            report._fail(f"{label}: path does not join the endpoints")
            continue
        if any(not graph.has_edge(a, b) for a, b in zip(path, path[1:])):
            report._fail(f"{label}: path uses a missing edge")
            continue
        weight = sum(graph.weight(a, b) for a, b in zip(path, path[1:]))
        if not _close(weight, result.distance):
            report._fail(f"{label}: path weighs {weight!r}, answer says {result.distance!r}")
            continue
        if result.distance > eta_u * truth and not _close(result.distance, eta_u * truth):
            report._fail(f"{label}: distance {result.distance!r} exceeds eta_u * SPDis")
            continue
        if reference is not None:
            expected = reference.query(FSPQuery(s, t, sample.timestep))
            if expected != result:
                report._fail(f"{label}: differs from the scalar reference")
    return report
