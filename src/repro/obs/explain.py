"""Structured query EXPLAIN: what one FSPQ evaluation actually did.

:class:`QueryExplain` is the per-query breakdown production tuning needs
(PLL/road-network engineering folklore: most wins come from per-query
label/pruning profiles, not aggregates): which kernel answered, how many
hub-label entries were touched, how the Lemma-4/Eq.-1 bounds behaved,
whether the answer came from the stable index or the delta overlay, and
— through the serving layers — route, cache, and boundary provenance.

Engines produce it (``FlowAwareEngine.explain``, ``ResilientEngine
.explain``, ``ShardedGateway.explain``); the ``fahl-repro explain`` CLI
renders it for humans or as JSON.  The contract tested by the property
suite: ``explain(u, v).distance`` is **bit-identical** to
``query(u, v).distance`` — EXPLAIN runs the real evaluation path under a
private capture registry, it never re-implements it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

__all__ = ["QueryExplain"]


@dataclass(frozen=True)
class QueryExplain:
    """Structured breakdown of one FSPQ evaluation."""

    # the query and its answer (bit-identical to ``query()``)
    source: int
    target: int
    timestep: int
    distance: float
    flow: float
    score: float
    shortest_distance: float
    path: tuple[int, ...]

    # evaluation shape
    engine: str  # "flow" | "resilient" | "gateway"
    kernel: str  # "flat" | "scalar"
    pruning: str
    num_candidates: int
    num_pruned: int
    bound_evals: int  # Lemma-4/Eq.-1 bound evaluations (0 when pruning off)
    bound_prunes: int
    truncated: bool
    early_stopped: bool

    # label work (hierarchy oracles only; 0/None otherwise)
    hub_cutset_size: int | None = None
    label_entries_source: int | None = None
    label_entries_target: int | None = None
    labels_scanned: int = 0  # label entries read (scalar probes + arena gathers)

    # flat-kernel work counters (0 on the scalar path)
    spur_searches: int = 0
    spur_memo_hits: int = 0  # deprecated: always 0 (the spur memo is gone)
    spur_skips: int = 0
    spur_certified: int = 0
    heuristic_builds: int = 0

    # provenance
    provenance: str = "stable"  # "stable" | "overlay"
    overlay_edges: int = 0
    degraded: bool = False
    answer_source: str = "index"  # index | fallback | shard | boundary

    # gateway provenance (None outside a sharded deployment)
    route: str | None = None  # shard | boundary | fallback
    shards: tuple[int, int] | None = None
    cache_hit: bool | None = None
    cache_epochs: tuple[int, ...] | None = None
    boundary_vertices: int | None = None  # boundary-table crossing width

    # timings and trace identity
    stage_seconds: dict = field(default_factory=dict)
    trace_id: str | None = None
    request_id: str | None = None

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-able dict (tuples become lists; reversed by from_dict)."""
        out = asdict(self)
        out["path"] = list(self.path)
        if self.shards is not None:
            out["shards"] = list(self.shards)
        if self.cache_epochs is not None:
            out["cache_epochs"] = list(self.cache_epochs)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "QueryExplain":
        """Inverse of :meth:`to_dict` (accepts ``json.loads`` output)."""
        data = dict(data)
        data["path"] = tuple(data["path"])
        if data.get("shards") is not None:
            data["shards"] = tuple(data["shards"])
        if data.get("cache_epochs") is not None:
            data["cache_epochs"] = tuple(data["cache_epochs"])
        return cls(**data)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable multi-line rendering for the CLI."""
        lines = [
            f"EXPLAIN query ({self.source} -> {self.target}) @ t={self.timestep}",
            f"  engine: {self.engine}  kernel: {self.kernel}  "
            f"pruning: {self.pruning}",
            f"  answer: distance={self.distance:.6g} flow={self.flow:.6g} "
            f"score={self.score:.6g}",
            f"  spdis: {self.shortest_distance:.6g}  "
            f"path: {len(self.path)} vertices",
        ]
        lines.append(
            f"  candidates: {self.num_candidates} enumerated, "
            f"{self.num_pruned} pruned"
            + (" (truncated)" if self.truncated else "")
            + (" (early stop)" if self.early_stopped else "")
        )
        if self.bound_evals:
            lines.append(
                f"  bounds: {self.bound_evals} evaluations, "
                f"{self.bound_prunes} prunes"
            )
        if self.hub_cutset_size is not None:
            lines.append(
                f"  labels: hub cut-set {self.hub_cutset_size}, "
                f"|L(s)|={self.label_entries_source} "
                f"|L(t)|={self.label_entries_target}, "
                f"{self.labels_scanned} entries scanned"
            )
        if self.kernel == "flat":
            lines.append(
                f"  flat kernel: {self.spur_searches} spur searches "
                f"({self.spur_skips} skipped, {self.spur_certified} certified), "
                f"{self.heuristic_builds} heuristic builds"
            )
        provenance = self.provenance
        if self.overlay_edges:
            provenance += f" (+{self.overlay_edges} overlay edges)"
        lines.append(f"  provenance: {provenance}  source: {self.answer_source}")
        if self.degraded:
            lines.append("  DEGRADED: answered by the fallback engine")
        if self.route is not None:
            gateway = f"  gateway: route={self.route}"
            if self.shards is not None:
                gateway += f" shards={self.shards[0]}->{self.shards[1]}"
            if self.cache_hit is not None:
                gateway += f" cache={'hit' if self.cache_hit else 'miss'}"
            if self.cache_epochs is not None:
                gateway += f" epochs={tuple(self.cache_epochs)}"
            lines.append(gateway)
            if self.boundary_vertices is not None:
                lines.append(
                    f"  boundary: {self.boundary_vertices} boundary "
                    "vertices crossed"
                )
        if self.stage_seconds:
            stages = "  ".join(
                f"{name}={seconds * 1000.0:.3f}ms"
                for name, seconds in self.stage_seconds.items()
            )
            lines.append(f"  stages: {stages}")
        if self.trace_id is not None:
            lines.append(
                f"  trace: {self.trace_id}  request: {self.request_id}"
            )
        return "\n".join(lines)
