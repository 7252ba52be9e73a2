"""FAHL core: index, maintenance, pruning bounds, and the FPSPS engine."""

from repro.core.batch import BatchReport, batch_query
from repro.core.bounds import FlowBounds, adaptive_upper_bound, lemma4_bounds
from repro.core.constrained import (
    ConstrainedFlowAwareEngine,
    ConstraintError,
    QueryConstraints,
)
from repro.core.departure import DeparturePlan, best_departure
from repro.core.fahl import FAHLIndex, build_fahl
from repro.core.knn import KNNMatch, flow_aware_knn
from repro.core.navigation import (
    NavigationLog,
    NavigationSession,
    compare_static_vs_live,
)
from repro.core.skyline import SkylinePath, SkylineResult, skyline_paths
from repro.core.fpsps import PRUNING_MODES, FlowAwareEngine
from repro.core.fspq import FSPQuery, FSPResult
from repro.core.stats import IndexStatistics, compare_indexes, index_statistics
from repro.core.maintenance import (
    FAULT_POINTS,
    IndexSnapshot,
    LabelUpdateStats,
    StructureUpdateStats,
    apply_flow_update,
    apply_flow_updates,
    apply_weight_update,
    apply_weight_updates,
)

__all__ = [
    "BatchReport",
    "ConstrainedFlowAwareEngine",
    "ConstraintError",
    "FAHLIndex",
    "FAULT_POINTS",
    "IndexSnapshot",
    "FSPQuery",
    "FSPResult",
    "FlowAwareEngine",
    "DeparturePlan",
    "FlowBounds",
    "KNNMatch",
    "NavigationLog",
    "NavigationSession",
    "IndexStatistics",
    "LabelUpdateStats",
    "PRUNING_MODES",
    "QueryConstraints",
    "SkylinePath",
    "SkylineResult",
    "StructureUpdateStats",
    "adaptive_upper_bound",
    "compare_indexes",
    "compare_static_vs_live",
    "index_statistics",
    "apply_flow_update",
    "apply_flow_updates",
    "apply_weight_update",
    "apply_weight_updates",
    "batch_query",
    "best_departure",
    "build_fahl",
    "flow_aware_knn",
    "skyline_paths",
    "lemma4_bounds",
]
