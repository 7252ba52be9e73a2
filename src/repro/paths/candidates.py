"""Candidate path collection for FSPQ (the ``Path_c`` of Alg. 5).

The paper generates candidates "by the LCA node and Eq. 5"; concretely, a
candidate set must hold every simple path whose spatial distance does not
exceed ``MCPDis = η_u · SPDis`` (longer paths can never be the flow-aware
optimum — Def. 5).  A *path source* yields those paths in non-decreasing
distance — bounded Yen deviations (:mod:`repro.paths.yen`) guided by the
querying method's own distance oracle, the flat kernel's restructured Yen,
or the exhaustive DFS reference — and :func:`collect_candidates` is the one
consumer every engine uses: it holds the candidate cap, the ``truncated``
report and FAHL-W's score-dominance stop, each written once.

:func:`enumerate_all_paths_within` is an exponential exhaustive reference
for property tests on small graphs.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.graph.road_network import RoadNetwork
from repro.paths.astar_search import (
    AdmissibleHeuristic,
    EuclideanHeuristic,
    OracleHeuristic,
    ZeroHeuristic,
)
from repro.paths.scoring import path_flow
from repro.paths.yen import CandidateSet

__all__ = [
    "Candidates",
    "DominanceStop",
    "collect_candidates",
    "enumerate_all_paths_within",
    "heuristic_for",
]


@dataclass(frozen=True)
class Candidates:
    """One query's collected candidate set, in non-decreasing distance.

    ``truncated`` says the cap (or the pull budget) fired before the
    path source ran dry; ``early_stopped`` says the score-dominance stop
    ended the collection; ``rejected`` counts paths refused by ``admit``.
    """

    paths: list[list[int]]
    distances: list[float]
    flows: list[float]
    truncated: bool = False
    early_stopped: bool = False
    rejected: int = 0


@dataclass(frozen=True)
class DominanceStop:
    """FAHL-W's lazy score-dominance stop.

    Candidates arrive in non-decreasing distance, so once the next one's
    ``α·PDis'`` term alone exceeds the best Eq.-1 score over the
    already-collected set (under the collected flow anchors), no farther
    candidate can win.  The stop never fires before ``min_candidates``
    paths are in, and it excludes the triggering candidate.
    """

    spdis: float
    max_distance: float
    alpha: float
    min_candidates: int

    def best_score(self, distances: list[float], flows: list[float]) -> float:
        """The minimal Eq.-1 score over the collected candidates."""
        dist_range = self.max_distance - self.spdis
        flow_min = min(flows)
        flow_max = max(flows)
        flow_range = flow_max - flow_min
        best = math.inf
        for dist, flow in zip(distances, flows):
            d_term = (dist - self.spdis) / dist_range if dist_range > 0 else 0.0
            f_term = (flow - flow_min) / flow_range if flow_range > 0 else 0.0
            score = self.alpha * d_term + (1.0 - self.alpha) * f_term
            if score < best:
                best = score
        return best

    def fires(self, dist: float, distances: list[float],
              flows: list[float]) -> bool:
        """Whether a candidate at ``dist`` (and all after it) can be cut."""
        if len(distances) < self.min_candidates:
            return False
        dist_range = self.max_distance - self.spdis
        d_term = (dist - self.spdis) / dist_range if dist_range > 0 else 0.0
        return self.alpha * d_term > self.best_score(distances, flows)


def collect_candidates(
    source: Iterable[tuple[list[int], float]],
    flow_vector: np.ndarray,
    max_candidates: int | None = None,
    stop: DominanceStop | None = None,
    admit: Callable[[list[int]], bool] | None = None,
    max_pulls: int | None = None,
) -> Candidates:
    """Consume a path source into the candidate set of one query.

    Parameters
    ----------
    source:
        ``(path, distance)`` pairs in non-decreasing distance, all within
        MCPDis.
    flow_vector:
        Per-vertex flow at the query slice; each kept path's flow is
        :func:`~repro.paths.scoring.path_flow` over it.
    max_candidates:
        Cap on kept paths (``None`` = uncapped, the exhaustive reference).
        When the source yields one more path past the cap, ``truncated``
        is set.
    stop:
        The lazy score-dominance stop (FAHL-W), or ``None`` to collect
        eagerly.
    admit:
        Optional path filter (constrained FSPQ); refused paths are counted
        in ``rejected`` and do not enter the set.
    max_pulls:
        Budget on paths pulled from the source, kept or refused; hitting
        it also sets ``truncated``.
    """
    paths: list[list[int]] = []
    distances: list[float] = []
    flows: list[float] = []
    truncated = False
    early_stopped = False
    rejected = 0
    pulls = 0
    for path, dist in source:
        if len(paths) == max_candidates or pulls == max_pulls:
            # the source produced one more path within the bound: the cap
            # fired before the distance bound did.
            truncated = True
            break
        pulls += 1
        if stop is not None and stop.fires(dist, distances, flows):
            early_stopped = True
            break
        if admit is not None and not admit(path):
            rejected += 1
            continue
        paths.append(path)
        distances.append(dist)
        flows.append(path_flow(flow_vector, path))
    return Candidates(paths, distances, flows, truncated, early_stopped, rejected)


def heuristic_for(graph: RoadNetwork, oracle, target: int) -> AdmissibleHeuristic:
    """Pick the best admissible heuristic available for ``oracle``.

    Oracles exposing their own ``heuristic(target)`` factory (e.g. the ALT
    landmark oracle, whose per-vertex bound is a table lookup rather than a
    search) provide it directly; other index-backed oracles wrap their
    exact ``distance``; the index-free baselines fall back to euclidean
    coordinates or to Dijkstra (zero heuristic).
    """
    if oracle is not None:
        factory = getattr(oracle, "heuristic", None)
        if callable(factory):
            return factory(target)
        return OracleHeuristic(oracle, target)
    if target in graph.coordinates:
        return EuclideanHeuristic(graph, target)
    return ZeroHeuristic()


def enumerate_all_paths_within(
    graph: RoadNetwork,
    source: int,
    target: int,
    max_distance: float,
) -> CandidateSet:
    """Exhaustive DFS over simple paths within the bound (tests only).

    Exponential — only call on small graphs.
    """
    paths: list[list[int]] = []
    distances: list[float] = []
    on_path = [False] * graph.num_vertices
    trail = [source]
    on_path[source] = True

    def visit(vertex: int, cost: float) -> None:
        if vertex == target:
            paths.append(list(trail))
            distances.append(cost)
            return
        for nbr, w in graph.neighbor_items(vertex):
            if on_path[nbr] or cost + w > max_distance:
                continue
            on_path[nbr] = True
            trail.append(nbr)
            visit(nbr, cost + w)
            trail.pop()
            on_path[nbr] = False

    if source == target:
        return CandidateSet(paths=[[source]], distances=[0.0], truncated=False)
    visit(source, 0.0)
    order = sorted(range(len(paths)), key=lambda i: (distances[i], paths[i]))
    return CandidateSet(
        paths=[paths[i] for i in order],
        distances=[distances[i] for i in order],
        truncated=False,
    )


def path_distance(graph: RoadNetwork, path: list[int]) -> float:
    """Sum of edge weights along ``path`` (inf for an empty path)."""
    if not path:
        return math.inf
    return sum(graph.weight(u, v) for u, v in zip(path, path[1:]))
