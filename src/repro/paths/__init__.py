"""Path sources, candidate collection and path flow."""

from repro.paths.astar_search import (
    AdmissibleHeuristic,
    EuclideanHeuristic,
    OracleHeuristic,
    ZeroHeuristic,
    astar_path,
)
from repro.paths.candidates import (
    Candidates,
    DominanceStop,
    collect_candidates,
    enumerate_all_paths_within,
    heuristic_for,
    path_distance,
)
from repro.paths.scoring import path_flow
from repro.paths.yen import CandidateSet, k_shortest_paths

__all__ = [
    "AdmissibleHeuristic",
    "CandidateSet",
    "Candidates",
    "DominanceStop",
    "EuclideanHeuristic",
    "OracleHeuristic",
    "ZeroHeuristic",
    "astar_path",
    "collect_candidates",
    "enumerate_all_paths_within",
    "heuristic_for",
    "k_shortest_paths",
    "path_distance",
    "path_flow",
]
