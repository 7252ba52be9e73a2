"""Experiment infrastructure: method suites, timing, result tables.

Every figure/table module builds a *method suite* — one engine per compared
method, each with a **private graph copy** (maintenance experiments mutate
weights, and sharing a graph across indexes would silently desynchronise
them) — runs a workload, and returns an :class:`ExperimentTable` that the
CLI prints in the paper's row/series layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro import obs
from repro.baselines.astar import AStarOracle
from repro.baselines.ch import CHIndex
from repro.baselines.gtree import TDGTree
from repro.core.batch import batch_query
from repro.core.fahl import FAHLIndex
from repro.core.fpsps import FlowAwareEngine
from repro.core.fspq import FSPQuery
from repro.errors import QueryError
from repro.graph.frn import FlowAwareRoadNetwork
from repro.labeling.h2h import H2HIndex
from repro.workloads.datasets import DATASET_NAMES, Dataset

__all__ = [
    "ALL_METHODS",
    "BuiltMethod",
    "ExperimentConfig",
    "ExperimentTable",
    "build_method",
    "build_method_suite",
    "format_table",
    "time_batch_queries",
    "time_queries",
]

#: Methods in the paper's comparison order.
ALL_METHODS = ("A*", "CH", "TD-G-tree", "H2H", "FAHL-O", "FAHL-W")


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all experiments (scaled-down paper defaults)."""

    datasets: tuple[str, ...] = DATASET_NAMES
    scale: float = 0.35
    days: int = 7
    interval_minutes: int = 60
    epochs: int = 200
    num_groups: int = 12
    queries_per_group: int = 5
    alpha: float = 0.5
    beta: float = 0.5
    eta_u: float = 3.0
    max_candidates: int = 12
    seed: int = 0

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        return replace(self, **kwargs)


@dataclass
class BuiltMethod:
    """One compared method, ready to answer FSPQ queries."""

    name: str
    engine: FlowAwareEngine
    frn: FlowAwareRoadNetwork  # private graph copy inside
    index: object | None
    build_seconds: float
    index_entries: int


@dataclass
class ExperimentTable:
    """A printable experiment result (title + aligned columns)."""

    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values: object) -> None:
        self.rows.append(list(values))

    def render(self) -> str:
        return format_table(self.title, self.headers, self.rows, self.notes)

    def render_markdown(self) -> str:
        """GitHub-flavoured Markdown rendering (for generated reports)."""

        def fmt(value: object) -> str:
            if isinstance(value, float):
                if value == 0:
                    return "0"
                if abs(value) < 0.01 or abs(value) >= 1e6:
                    return f"{value:.3e}"
                return f"{value:,.3f}"
            return str(value)

        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)


def format_table(
    title: str,
    headers: list[str],
    rows: list[list[object]],
    notes: list[str] | None = None,
) -> str:
    """Plain-text aligned table, matching the harness output style."""

    def fmt(value: object) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) < 0.01 or abs(value) >= 1e6:
                return f"{value:.3e}"
            return f"{value:,.3f}"
        return str(value)

    cells = [[fmt(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    for note in notes or []:
        lines.append(f"# {note}")
    return "\n".join(lines)


def _private_frn(dataset: Dataset) -> FlowAwareRoadNetwork:
    """FRN over a private copy of the dataset's graph (flows shared)."""
    frn = dataset.frn
    return FlowAwareRoadNetwork(
        frn.graph.copy(),
        frn.flow,
        predicted_flow=frn.predicted_flow,
        lanes=frn.lanes,
    )


def build_method(
    name: str,
    dataset: Dataset,
    config: ExperimentConfig,
    use_capacity: bool = False,
    w_c: float = 0.5,
) -> BuiltMethod:
    """Build one method (index + engine) on a private graph copy.

    ``use_capacity`` selects the ``+`` variants of Fig. 11: FAHL orders and
    scores by the capacity-based flow Ĉ_f; the flow-blind baselines merely
    score with it (their indexes cannot perceive it, as the paper notes).
    """
    frn = _private_frn(dataset)
    index: object | None = None
    oracle = None
    pruning = "none"
    with obs.stopwatch(
        metric="repro_experiment_phase_seconds",
        span="experiment.build",
        phase="build",
        method=name,
    ) as sw:
        if name == "A*":
            oracle = AStarOracle(frn.graph)
        elif name == "Dijkstra":
            oracle = None
        elif name == "CH":
            index = CHIndex(frn.graph)
            oracle = index
        elif name == "TD-G-tree":
            index = TDGTree(frn.graph)
            oracle = index
        elif name == "H2H":
            index = H2HIndex(frn.graph)
            oracle = index
        elif name in ("FAHL-O", "FAHL-W"):
            index = FAHLIndex.from_frn(
                frn, beta=config.beta, use_capacity=use_capacity, w_c=w_c
            )
            oracle = index
            pruning = "lemma4" if name == "FAHL-W" else "none"
        else:
            raise QueryError(f"unknown method {name!r}")
    build_seconds = sw.seconds

    engine = FlowAwareEngine(
        frn,
        oracle=oracle,
        alpha=config.alpha,
        eta_u=config.eta_u,
        pruning=pruning,
        max_candidates=config.max_candidates,
        use_capacity=use_capacity,
        w_c=w_c,
    )
    entries = index.index_size_entries() if hasattr(index, "index_size_entries") else 0
    return BuiltMethod(
        name=name,
        engine=engine,
        frn=frn,
        index=index,
        build_seconds=build_seconds,
        index_entries=entries,
    )


def build_method_suite(
    dataset: Dataset,
    config: ExperimentConfig,
    methods: tuple[str, ...] = ALL_METHODS,
    use_capacity: bool = False,
    w_c: float = 0.5,
) -> dict[str, BuiltMethod]:
    """Build every requested method over the dataset.

    FAHL-O and FAHL-W intentionally *share* one index build (they are the
    same index with and without pruning), matching the paper.
    """
    suite: dict[str, BuiltMethod] = {}
    for name in methods:
        if name == "FAHL-W" and "FAHL-O" in suite:
            base = suite["FAHL-O"]
            engine = FlowAwareEngine(
                base.frn,
                oracle=base.index,
                alpha=config.alpha,
                eta_u=config.eta_u,
                pruning="lemma4",
                max_candidates=config.max_candidates,
                use_capacity=use_capacity,
                w_c=w_c,
            )
            suite[name] = BuiltMethod(
                name=name,
                engine=engine,
                frn=base.frn,
                index=base.index,
                build_seconds=base.build_seconds,
                index_entries=base.index_entries,
            )
            continue
        suite[name] = build_method(
            name, dataset, config, use_capacity=use_capacity, w_c=w_c
        )
    return suite


def time_queries(
    method: BuiltMethod,
    queries: list[FSPQuery],
) -> float:
    """Average wall-clock seconds per FSPQ query (0 if no queries)."""
    if not queries:
        return 0.0
    with obs.stopwatch(
        metric="repro_experiment_phase_seconds",
        span="experiment.queries",
        phase="queries",
        method=getattr(method, "name", "?"),  # probes may be anonymous
    ) as sw:
        for query in queries:
            method.engine.query(query)
    return sw.seconds / len(queries)


def time_batch_queries(
    method: BuiltMethod,
    queries: list[FSPQuery],
    workers: int = 1,
) -> float:
    """Average seconds per query through :func:`repro.core.batch.batch_query`.

    The batch path evaluates the workload in target-grouped order and can
    fan out to a process pool; its results are identical to
    :func:`time_queries`' per-query evaluation, so figures may use either.
    """
    if not queries:
        return 0.0
    with obs.stopwatch(
        metric="repro_experiment_phase_seconds",
        span="experiment.batch_queries",
        phase="batch-queries",
        method=getattr(method, "name", "?"),
    ) as sw:
        batch_query(method.engine, list(queries), workers=workers)
    return sw.seconds / len(queries)
