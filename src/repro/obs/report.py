"""Human-readable report over a captured telemetry run.

``render_report(registry)`` turns the raw metric families into the
per-phase tables an operator (or the paper's Section VI reader) actually
wants: query latency quantiles and the Lemma-4 pruning rate computed from
the real bound-evaluation counters, per-strategy maintenance cost, serving
admission/quarantine/degradation counts, batch-pool health, and index
build phase timings.  This is the single source the ``fahl-repro obs
report`` CLI prints — the experiment figures and the serving status read
the very same registry.
"""

from __future__ import annotations

from repro.obs import slo as _slo
from repro.obs.latency import latency_summary
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["render_report"]

_LATENCY_HEADERS = ["runs", "total ms", "mean ms", "p50 ms", "p95 ms", "p99 ms"]


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if isinstance(value, float) and not value.is_integer():
        if abs(value) < 0.01 or abs(value) >= 1e6:
            return f"{value:.3e}"
        return f"{value:,.3f}"
    return f"{int(value):,}"


def _table(title: str, headers: list[str], rows: list[list[object]]) -> str:
    cells = [[_fmt(v) if isinstance(v, (int, float)) else str(v) for v in row]
             for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells))
        if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [f"-- {title} --"]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _counter_rows(family: Counter | None, label: str) -> list[list[object]]:
    if family is None:
        return []
    return [
        [dict(key).get(label, "(all)") if key else "(all)", value]
        for key, value in sorted(family.samples().items())
    ]


def _hist_rows(family: Histogram | None, label: str) -> list[list[object]]:
    """count / total / mean / p50 / p95 / p99 per label value of a family."""
    if family is None:
        return []
    rows = []
    for key in sorted(family.label_sets()):
        labels = dict(key)
        name = labels.get(label, "(all)") if labels else "(all)"
        summary = latency_summary(family, **labels)
        if summary["empty"]:
            continue
        rows.append([
            name,
            summary["count"],
            family.sum(**labels) * 1000.0,
            summary["mean"] * 1000.0,
            summary["p50"] * 1000.0,
            summary["p95"] * 1000.0,
            summary["p99"] * 1000.0,
        ])
    return rows


def render_report(registry: MetricsRegistry) -> str:
    """Render every populated telemetry section as aligned plain text."""
    get = registry.get
    sections: list[str] = ["== repro obs report =="]

    # ------------------------------------------------------------- build
    build = get("repro_build_phase_seconds")
    if isinstance(build, Histogram) and build.label_sets():
        sections.append(_table(
            "index build (per phase)",
            ["phase", *_LATENCY_HEADERS],
            _hist_rows(build, "phase"),
        ))

    # ------------------------------------------------------------- query
    query_seconds = get("repro_query_seconds")
    if isinstance(query_seconds, Histogram) and query_seconds.label_sets():
        sections.append(_table(
            "FSPQ queries (per pruning mode)",
            ["pruning", *_LATENCY_HEADERS],
            _hist_rows(query_seconds, "pruning"),
        ))
        evals = get("repro_query_bound_evals_total")
        pruned = get("repro_query_pruned_total")
        candidates = get("repro_query_candidates_total")
        scanned = get("repro_label_entries_scanned_total")
        early = get("repro_query_early_stops_total")
        truncated = get("repro_query_truncated_total")
        n_evals = evals.total() if isinstance(evals, Counter) else 0.0
        n_pruned = pruned.total() if isinstance(pruned, Counter) else 0.0
        rows: list[list[object]] = [
            ["candidates enumerated",
             candidates.total() if isinstance(candidates, Counter) else 0.0],
            ["Lemma-4 bound evaluations", n_evals],
            ["Lemma-4 prunes", n_pruned],
            ["Lemma-4 pruning rate",
             (n_pruned / n_evals) if n_evals else 0.0],
            ["label entries scanned",
             scanned.total() if isinstance(scanned, Counter) else 0.0],
            ["early stops",
             early.total() if isinstance(early, Counter) else 0.0],
            ["truncated enumerations",
             truncated.total() if isinstance(truncated, Counter) else 0.0],
        ]
        sections.append(_table("FSPQ pruning effectiveness", ["counter", "value"], rows))

    # ------------------------------------------------------- maintenance
    maint = get("repro_maintenance_seconds")
    if isinstance(maint, Histogram) and maint.label_sets():
        sections.append(_table(
            "maintenance (per strategy)",
            ["op", *_LATENCY_HEADERS],
            _hist_rows(maint, "op"),
        ))
        rows = []
        for counter_name, title in (
            ("repro_maintenance_affected_labels_total", "affected labels"),
            ("repro_maintenance_bags_rebuilt_total", "bags rebuilt"),
            ("repro_maintenance_shortcuts_changed_total", "shortcuts changed"),
            ("repro_maintenance_rollbacks_total", "rollbacks"),
            ("repro_maintenance_isu_fallbacks_total", "ISU->GSU fallbacks"),
        ):
            family = get(counter_name)
            if isinstance(family, Counter) and family.samples():
                for key, value in sorted(family.samples().items()):
                    op = dict(key).get("op", "")
                    rows.append([f"{title} [{op}]" if op else title, value])
        if rows:
            sections.append(_table("maintenance work", ["counter", "value"], rows))

    # ------------------------------------------------------------ serving
    serving_rows: list[list[object]] = []
    updates = get("repro_serving_updates_total")
    if isinstance(updates, Counter):
        for key, value in sorted(updates.samples().items()):
            serving_rows.append(
                [f"updates {dict(key).get('outcome', '(all)')}", value]
            )
    quarantined = get("repro_serving_quarantined_total")
    if isinstance(quarantined, Counter):
        for key, value in sorted(quarantined.samples().items()):
            serving_rows.append(
                [f"quarantined [{dict(key).get('reason', '')}]", value]
            )
    for name, title in (
        ("repro_serving_consolidations_total", "consolidations"),
        ("repro_serving_consolidation_failures_total", "consolidation failures"),
        ("repro_serving_repairs_total", "repairs"),
        ("repro_serving_degraded_transitions_total", "degraded transitions"),
    ):
        family = get(name)
        if isinstance(family, Counter) and family.samples():
            serving_rows.append([title, family.total()])
    queries = get("repro_serving_queries_total")
    if isinstance(queries, Counter):
        for key, value in sorted(queries.samples().items()):
            serving_rows.append(
                [f"queries via {dict(key).get('source', '(all)')}", value]
            )
    audits = get("repro_serving_audits_total")
    if isinstance(audits, Counter):
        for key, value in sorted(audits.samples().items()):
            serving_rows.append([f"audits ok={dict(key).get('ok', '?')}", value])
    dlq = get("repro_serving_dead_letter_depth")
    if isinstance(dlq, Gauge) and dlq.samples():
        serving_rows.append(["dead-letter depth (gauge)", dlq.value()])
    if serving_rows:
        sections.append(_table("serving engine", ["counter", "value"], serving_rows))
    serving_latency = get("repro_serving_query_seconds")
    if isinstance(serving_latency, Histogram) and serving_latency.label_sets():
        sections.append(_table(
            "serving queries (per answer source)",
            ["source", *_LATENCY_HEADERS],
            _hist_rows(serving_latency, "source"),
        ))

    # -------------------------------------------------------------- batch
    batch_rows: list[list[object]] = []
    for name, title in (
        ("repro_batch_runs_total", "batch runs"),
        ("repro_batch_queries_total", "batch queries"),
        ("repro_batch_worker_recoveries_total", "worker recoveries"),
    ):
        family = get(name)
        if isinstance(family, Counter) and family.samples():
            batch_rows.append([title, family.total()])
    fallbacks = get("repro_batch_fallbacks_total")
    if isinstance(fallbacks, Counter):
        for key, value in sorted(fallbacks.samples().items()):
            batch_rows.append(
                [f"fallback [{dict(key).get('reason', '')}]", value]
            )
    chunk = get("repro_batch_chunk_seconds")
    if isinstance(chunk, Histogram) and chunk.label_sets():
        if batch_rows:
            sections.append(_table("batch pool", ["counter", "value"], batch_rows))
            batch_rows = []
        sections.append(_table(
            "batch chunks (per mode)",
            ["mode", *_LATENCY_HEADERS],
            _hist_rows(chunk, "mode"),
        ))
    if batch_rows:
        sections.append(_table("batch pool", ["counter", "value"], batch_rows))

    # ------------------------------------------------------------ gateway
    gateway_rows: list[list[object]] = []
    routes = get("repro_gateway_queries_total")
    if isinstance(routes, Counter):
        for key, value in sorted(routes.samples().items()):
            labels = dict(key)
            route = labels.get("route", "(all)")
            shard = labels.get("shard", "-")
            gateway_rows.append([f"queries [{route}] shard={shard}", value])
    cache = get("repro_gateway_cache_total")
    if isinstance(cache, Counter):
        for key, value in sorted(cache.samples().items()):
            labels = dict(key)
            event = labels.get("event", "(all)")
            shard = labels.get("shard", "-")
            gateway_rows.append([f"cache {event} shard={shard}", value])
    for name, title in (
        ("repro_gateway_repairs_total", "repairs"),
        ("repro_gateway_shard_recoveries_total", "shard recoveries"),
    ):
        family = get(name)
        if isinstance(family, Counter) and family.samples():
            gateway_rows.append([title, family.total()])
    if gateway_rows:
        sections.append(_table(
            "gateway (per route/shard)", ["counter", "value"], gateway_rows
        ))
    gateway_latency = get("repro_gateway_query_seconds")
    if isinstance(gateway_latency, Histogram) and gateway_latency.label_sets():
        rows = []
        for key in sorted(gateway_latency.label_sets()):
            labels = dict(key)
            summary = latency_summary(gateway_latency, **labels)
            if summary["empty"]:
                continue
            rows.append([
                f"{labels.get('route', '(all)')}/{labels.get('shard', '-')}",
                summary["count"],
                gateway_latency.sum(**labels) * 1000.0,
                summary["mean"] * 1000.0,
                summary["p50"] * 1000.0,
                summary["p95"] * 1000.0,
                summary["p99"] * 1000.0,
            ])
        if rows:
            sections.append(_table(
                "gateway queries (route/shard)",
                ["route/shard", *_LATENCY_HEADERS],
                rows,
            ))

    # ------------------------------------------------------ async gateway
    async_rows: list[list[object]] = []
    async_requests = get("repro_async_requests_total")
    if isinstance(async_requests, Counter):
        for key, value in sorted(async_requests.samples().items()):
            async_rows.append(
                [f"requests [{dict(key).get('kind', '(all)')}]", value]
            )
    async_rejected = get("repro_async_rejected_total")
    if isinstance(async_rejected, Counter):
        for key, value in sorted(async_rejected.samples().items()):
            async_rows.append(
                [f"rejected [{dict(key).get('reason', '(all)')}]", value]
            )
    async_resolved = get("repro_async_resolved_total")
    if isinstance(async_resolved, Counter):
        for key, value in sorted(async_resolved.samples().items()):
            labels = dict(key)
            async_rows.append([
                f"resolved [{labels.get('kind', '(all)')}] "
                f"outcome={labels.get('outcome', '?')}",
                value,
            ])
    windows = get("repro_async_windows_total")
    if isinstance(windows, Counter) and windows.samples():
        async_rows.append(["windows dispatched", windows.total()])
    window_size = get("repro_async_window_size")
    if isinstance(window_size, Gauge) and window_size.samples():
        async_rows.append(["last window size (gauge)", window_size.value()])
    queue_depth = get("repro_async_queue_depth")
    if isinstance(queue_depth, Gauge) and queue_depth.samples():
        async_rows.append(["queue depth (gauge)", queue_depth.value()])
    if async_rows:
        sections.append(_table(
            "async gateway", ["counter", "value"], async_rows
        ))
    window_seconds = get("repro_async_window_seconds")
    if isinstance(window_seconds, Histogram) and window_seconds.label_sets():
        sections.append(_table(
            "async windows",
            ["window", *_LATENCY_HEADERS],
            _hist_rows(window_seconds, "window"),
        ))
    request_seconds = get("repro_async_request_seconds")
    if isinstance(request_seconds, Histogram) and request_seconds.label_sets():
        sections.append(_table(
            "async requests (per kind, submit-to-resolve)",
            ["kind", *_LATENCY_HEADERS],
            _hist_rows(request_seconds, "kind"),
        ))

    # ---------------------------------------------------------------- SLO
    monitor = _slo.get_slo_monitor()
    if monitor is not None:
        summary = monitor.summary()
        if not summary["empty"]:
            sections.append(_table(
                "SLO (rolling window)",
                ["indicator", "value"],
                [
                    ["window seconds", summary["window_seconds"]],
                    ["objective ms", summary["objective_ms"]],
                    ["target good fraction", summary["target"]],
                    ["samples", summary["count"]],
                    ["good fraction", summary["good_fraction"]],
                    ["violations", summary["violations"]],
                    ["error-budget burn rate", summary["burn_rate"]],
                    ["error budget remaining", summary["budget_remaining"]],
                    ["p50 ms", summary["p50_ms"]],
                    ["p95 ms", summary["p95_ms"]],
                    ["p99 ms", summary["p99_ms"]],
                ],
            ))

    if len(sections) == 1:
        sections.append("(no telemetry captured — is the registry enabled?)")
    return "\n\n".join(sections)
