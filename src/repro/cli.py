"""Command-line entry point: regenerate the paper's tables and figures.

Examples
--------
List experiments::

    fahl-repro list

Run one experiment at the default (scaled) configuration::

    fahl-repro run fig6

Run everything smaller/faster::

    fahl-repro run all --scale 0.15 --queries 3
"""

from __future__ import annotations

import argparse
import sys

from repro import obs
from repro.experiments import EXPERIMENTS, ExperimentConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fahl-repro",
        description="FAHL (ICDE 2025) reproduction experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help=f"experiment id: one of {', '.join(EXPERIMENTS)} or 'all'",
    )
    run.add_argument("--scale", type=float, default=0.35,
                     help="dataset scale factor (default 0.35)")
    run.add_argument("--queries", type=int, default=5,
                     help="queries per FQ group (default 5; paper uses 1000)")
    run.add_argument("--groups", type=int, default=12,
                     help="number of FQ groups (default 12)")
    run.add_argument("--alpha", type=float, default=0.5,
                     help="distance/flow blend alpha (default 0.5)")
    run.add_argument("--beta", type=float, default=0.5,
                     help="degree/flow ordering beta (default 0.5)")
    run.add_argument("--eta", type=float, default=3.0,
                     help="user distance constraint eta_u (default 3)")
    run.add_argument("--candidates", type=int, default=12,
                     help="candidate-path cap per query (default 12)")
    run.add_argument("--datasets", default="BRN,NYC,BAY,COL",
                     help="comma-separated dataset names")
    run.add_argument("--dimacs", metavar="PATH", action="append", default=None,
                     help="run on a real DIMACS .gr file instead of the "
                          "synthetic datasets (repeatable; a sibling .co "
                          "file is picked up automatically)")
    run.add_argument("--seed", type=int, default=0, help="workload seed")

    stats = sub.add_parser(
        "stats", help="index statistics (H2H vs FAHL) for one dataset"
    )
    stats.add_argument("dataset", help="dataset name (BRN/NYC/BAY/COL)")
    stats.add_argument("--scale", type=float, default=0.35)
    stats.add_argument("--beta", type=float, default=0.5)
    stats.add_argument("--seed", type=int, default=0)

    export = sub.add_parser(
        "export-dataset",
        help="write a dataset to disk (DIMACS .gr/.co + flows .npz)",
    )
    export.add_argument("dataset", help="dataset name (BRN/NYC/BAY/COL)")
    export.add_argument("directory", help="output directory (created)")
    export.add_argument("--scale", type=float, default=0.35)
    export.add_argument("--days", type=int, default=7)
    export.add_argument("--seed", type=int, default=0)

    report = sub.add_parser(
        "report",
        help="run every experiment and write one Markdown report",
    )
    report.add_argument("output", help="Markdown file to write")
    report.add_argument("--scale", type=float, default=0.35)
    report.add_argument("--queries", type=int, default=5)
    report.add_argument("--groups", type=int, default=12)
    report.add_argument("--alpha", type=float, default=0.5)
    report.add_argument("--beta", type=float, default=0.5)
    report.add_argument("--eta", type=float, default=3.0)
    report.add_argument("--candidates", type=int, default=12)
    report.add_argument("--datasets", default="BRN,NYC,BAY,COL")
    report.add_argument("--dimacs", metavar="PATH", action="append",
                        default=None,
                        help="run on a real DIMACS .gr file instead of the "
                             "synthetic datasets (repeatable)")
    report.add_argument("--seed", type=int, default=0)

    obs_cmd = sub.add_parser(
        "obs", help="telemetry: run the instrumented demo or lint an export"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="run a small instrumented workload and print the metrics report",
    )
    obs_report.add_argument("--side", type=int, default=6,
                            help="demo grid side length (default 6)")
    obs_report.add_argument("--queries", type=int, default=12,
                            help="demo query count (default 12)")
    obs_report.add_argument("--updates", type=int, default=6,
                            help="demo update count (default 6)")
    obs_report.add_argument("--workers", type=int, default=1,
                            help="batch_query worker count (default 1)")
    obs_report.add_argument("--seed", type=int, default=0)
    obs_report.add_argument("--prom", metavar="FILE",
                            help="also write the Prometheus text export here")
    obs_report.add_argument("--trace", metavar="FILE",
                            help="also write JSONL span events here")
    obs_report.add_argument("--json", metavar="FILE", dest="json_file",
                            help="also write the registry snapshot as JSON "
                                 "here ('-' for stdout)")
    obs_lint = obs_sub.add_parser(
        "lint",
        help="lint a Prometheus text export and/or a JSONL span trace",
    )
    obs_lint.add_argument("file", nargs="?", default=None,
                          help="Prometheus text file to lint")
    obs_lint.add_argument("--trace", metavar="FILE",
                          help="JSONL span-event file to lint against the "
                               "span-name taxonomy (docs/OBSERVABILITY.md)")
    obs_flight = obs_sub.add_parser(
        "flight",
        help="run the instrumented demo and dump the flight-recorder tail",
    )
    obs_flight.add_argument("--side", type=int, default=6)
    obs_flight.add_argument("--queries", type=int, default=12)
    obs_flight.add_argument("--updates", type=int, default=6)
    obs_flight.add_argument("--workers", type=int, default=1)
    obs_flight.add_argument("--seed", type=int, default=0)
    obs_flight.add_argument("--last", type=int, default=32,
                            help="events to show from the tail (default 32)")
    obs_flight.add_argument("--seconds", type=float, default=None,
                            help="only events from the last N seconds")
    obs_flight.add_argument("--json", action="store_true",
                            help="print the events as one JSON array")
    obs_top = obs_sub.add_parser(
        "top",
        help="run the instrumented demo under a rolling SLO monitor and "
             "print the burn-rate snapshot plus the slowest queries",
    )
    obs_top.add_argument("--side", type=int, default=6)
    obs_top.add_argument("--queries", type=int, default=12)
    obs_top.add_argument("--updates", type=int, default=6)
    obs_top.add_argument("--workers", type=int, default=1)
    obs_top.add_argument("--seed", type=int, default=0)
    obs_top.add_argument("--objective-ms", type=float, default=100.0,
                         help="latency objective in ms (default 100)")
    obs_top.add_argument("--target", type=float, default=0.99,
                         help="good-fraction target (default 0.99)")
    obs_top.add_argument("--slowest", type=int, default=10,
                         help="slow-query digests to show (default 10)")
    obs_top.add_argument("--json", action="store_true",
                         help="print the snapshot as JSON")

    explain_cmd = sub.add_parser(
        "explain",
        help="EXPLAIN one FSPQ query: kernel, cut-set, Lemma-4 pruning, "
             "label scans and per-stage timings (answer bit-identical to "
             "query())",
    )
    explain_cmd.add_argument("source", type=int, help="source vertex id")
    explain_cmd.add_argument("target", type=int, help="target vertex id")
    explain_cmd.add_argument("--timestep", type=int, default=0)
    explain_cmd.add_argument("--dataset", default="BRN",
                             help="dataset name (default BRN)")
    explain_cmd.add_argument("--scale", type=float, default=0.15,
                             help="dataset scale factor (default 0.15)")
    explain_cmd.add_argument("--seed", type=int, default=0)
    explain_cmd.add_argument("--alpha", type=float, default=0.5)
    explain_cmd.add_argument("--beta", type=float, default=0.5)
    explain_cmd.add_argument("--eta", type=float, default=3.0)
    explain_cmd.add_argument("--pruning", default="lemma4",
                             choices=("none", "lemma4"))
    explain_cmd.add_argument("--kernel", default="flat",
                             choices=("flat", "scalar"))
    explain_cmd.add_argument("--json", action="store_true",
                             help="machine-readable QueryExplain JSON")

    sharded = sub.add_parser(
        "serve-sharded",
        help="run the instrumented sharded-gateway demo workload (docs/API.md)",
    )
    sharded.add_argument("--side", type=int, default=8,
                         help="demo grid side length (default 8)")
    sharded.add_argument("--shards", type=int, default=4,
                         help="number of shards (default 4)")
    sharded.add_argument("--queries", type=int, default=60,
                         help="unique queries in the workload (default 60)")
    sharded.add_argument("--repeat", type=int, default=3,
                         help="times each query repeats (default 3)")
    sharded.add_argument("--updates", type=int, default=6,
                         help="maintenance updates to stream (default 6)")
    sharded.add_argument("--workers", type=int, default=1,
                         help="batch worker count (default 1)")
    sharded.add_argument("--seed", type=int, default=0)
    sharded.add_argument("--prom", metavar="FILE",
                         help="also write the Prometheus text export here")

    serve_async = sub.add_parser(
        "serve-async",
        help="drive closed/open-loop load through the async micro-batching "
             "gateway (docs/API.md, 'Async serving')",
    )
    serve_async.add_argument("--side", type=int, default=8,
                             help="demo grid side length (default 8)")
    serve_async.add_argument("--requests", type=int, default=400,
                             help="requests per load loop (default 400)")
    serve_async.add_argument("--concurrency", type=int, default=64,
                             help="closed-loop virtual clients (default 64)")
    serve_async.add_argument("--rate", type=float, default=4000.0,
                             help="open-loop arrival rate per second "
                                  "(default 4000)")
    serve_async.add_argument("--admission-rate", type=float, default=None,
                             help="per-client token-bucket rate "
                                  "(default: admission off)")
    serve_async.add_argument("--seed", type=int, default=0)
    serve_async.add_argument("--prom", metavar="FILE",
                             help="also write the Prometheus text export here")

    recover_cmd = sub.add_parser(
        "recover",
        help="restore a serving engine from a durability directory "
             "(newest valid checkpoint + write-ahead-log replay)",
    )
    recover_cmd.add_argument(
        "directory", help="durability directory (wal-*.log + ckpt-*/)"
    )
    recover_cmd.add_argument("--dataset", default="NYC",
                             help="dataset the engine was built from "
                                  "(default NYC)")
    recover_cmd.add_argument("--scale", type=float, default=0.35,
                             help="dataset scale factor (default 0.35; must "
                                  "match the crashed engine's)")
    recover_cmd.add_argument("--seed", type=int, default=0,
                             help="dataset seed (must match)")
    recover_cmd.add_argument("--fsync", default="interval",
                             choices=("always", "interval", "never"),
                             help="fsync policy for the post-recovery log")
    recover_cmd.add_argument("--no-checkpoint", action="store_true",
                             help="skip the post-recovery checkpoint "
                                  "(faster, but the next crash replays the "
                                  "same tail again)")
    recover_cmd.add_argument("--audit", action="store_true",
                             help="run the sampled Dijkstra self-audit on "
                                  "the recovered engine (exit 1 on failure)")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    from repro.workloads.datasets import DIMACS_PREFIX

    if getattr(args, "dimacs", None):
        datasets = tuple(f"{DIMACS_PREFIX}{path}" for path in args.dimacs)
    else:
        datasets = tuple(
            name.strip().upper() for name in args.datasets.split(",")
        )
    return ExperimentConfig(
        datasets=datasets,
        scale=args.scale,
        num_groups=args.groups,
        queries_per_group=args.queries,
        alpha=args.alpha,
        beta=args.beta,
        eta_u=args.eta,
        max_candidates=args.candidates,
        seed=args.seed,
    )


def _run_stats(args: argparse.Namespace) -> int:
    from repro.core.fahl import FAHLIndex
    from repro.core.stats import compare_indexes, index_statistics
    from repro.experiments.runner import format_table
    from repro.labeling.h2h import H2HIndex
    from repro.workloads.datasets import load_dataset

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    h2h = H2HIndex(dataset.frn.graph.copy())
    fahl = FAHLIndex(
        dataset.frn.graph.copy(),
        dataset.frn.total_predicted_flow(),
        beta=args.beta,
    )
    rows = [
        [name] + [value for _, value in index_statistics(index).as_rows()]
        for name, index in (("H2H", h2h), (f"FAHL(b={args.beta})", fahl))
    ]
    headers = ["index"] + [name for name, _ in index_statistics(h2h).as_rows()]
    print(format_table(
        f"Index statistics — {dataset.name} "
        f"({dataset.num_vertices} vertices)",
        headers,
        rows,
        notes=[
            f"FAHL/H2H ratios: "
            + ", ".join(
                f"{key}={value:.3f}"
                for key, value in compare_indexes(h2h, fahl).items()
            )
        ],
    ))
    return 0


def _run_export(args: argparse.Namespace) -> int:
    from pathlib import Path

    import numpy as np

    from repro.graph.dimacs import write_gr
    from repro.workloads.datasets import load_dataset

    dataset = load_dataset(
        args.dataset, scale=args.scale, days=args.days, seed=args.seed
    )
    directory = Path(args.directory)
    directory.mkdir(parents=True, exist_ok=True)
    stem = dataset.name.lower()
    graph = dataset.frn.graph
    write_gr(graph, directory / f"{stem}.gr",
             comment=f"{dataset.description} (scale={args.scale})")
    with open(directory / f"{stem}.co", "w", encoding="ascii") as handle:
        for vertex in sorted(graph.coordinates):
            x, y = graph.coordinates[vertex]
            handle.write(f"v {vertex + 1} {x} {y}\n")
    np.savez_compressed(
        directory / f"{stem}.flows.npz",
        truth=dataset.frn.flow.matrix,
        predicted=dataset.frn.predicted_flow.matrix,
        lanes=dataset.frn.lanes,
        interval_minutes=dataset.frn.flow.interval_minutes,
    )
    print(f"wrote {stem}.gr / {stem}.co / {stem}.flows.npz to {directory} "
          f"({dataset.num_vertices} vertices, {dataset.num_records:,} records)")
    return 0


def _run_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro

    config = _config_from_args(args)
    sections = [
        "# FAHL reproduction report",
        "",
        f"Generated by `fahl-repro report` (repro v{repro.__version__}), "
        f"scale={config.scale}, queries/group={config.queries_per_group}, "
        f"alpha={config.alpha}, beta={config.beta}, eta_u={config.eta_u}, "
        f"seed={config.seed}.",
        "",
    ]
    for name, module in EXPERIMENTS.items():
        with obs.stopwatch(span="cli.experiment", experiment=name) as sw:
            table = module.run(config)
        print(f"[{name}] done in {sw.seconds:.1f}s")
        sections.append(table.render_markdown())
        sections.append("")
        sections.append(f"*(`fahl-repro run {name}` — {sw.seconds:.1f}s)*")
        sections.append("")
    Path(args.output).write_text("\n".join(sections), encoding="utf-8")
    print(f"wrote {args.output}")
    return 0


def _format_flight_event(event: dict) -> str:
    import json

    kind = event.get("event")
    if kind == "span":
        extra = f" err={event['error']}" if "error" in event else ""
        return (
            f"[span]  {event.get('name', '?'):28s} "
            f"{event.get('dur_s', 0.0) * 1000.0:9.3f} ms  "
            f"pid={event.get('pid', '?')}{extra}"
        )
    if kind == "slow_query":
        attrs = event.get("attrs", {})
        rendered = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        return (
            f"[slow]  {event.get('name', '?'):28s} "
            f"{event.get('dur_s', 0.0) * 1000.0:9.3f} ms  {rendered}"
        )
    if kind == "note":
        attrs = event.get("attrs", {})
        rendered = " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        return f"[note]  {event.get('name', '?'):28s}            {rendered}"
    return f"[?]     {json.dumps(event, sort_keys=True)}"


def _run_obs_lint(args: argparse.Namespace) -> int:
    from repro.obs.export import lint_prometheus, lint_spans

    if args.file is None and args.trace is None:
        print(
            "obs lint: nothing to lint — pass a Prometheus file and/or "
            "--trace FILE",
            file=sys.stderr,
        )
        return 2
    problems: list[str] = []
    if args.file is not None:
        with open(args.file, encoding="utf-8") as handle:
            problems += [
                f"{args.file}: {p}" for p in lint_prometheus(handle.read())
            ]
    if args.trace is not None:
        with open(args.trace, encoding="utf-8") as handle:
            problems += [
                f"{args.trace}: {p}" for p in lint_spans(handle)
            ]
    for problem in problems:
        print(f"lint: {problem}", file=sys.stderr)
    if problems:
        return 1
    checked = [f for f in (args.file, args.trace) if f is not None]
    print(f"{', '.join(checked)}: ok")
    return 0


def _run_obs_flight(args: argparse.Namespace) -> int:
    import json

    from repro.obs import flight as obs_flight
    from repro.obs.demo import run_demo

    registry = obs.MetricsRegistry(enabled=True)
    previous_registry = obs.set_registry(registry)
    # an in-memory tracer: span events mirror into the flight ring
    previous_tracer = obs.set_tracer(obs.Tracer())
    try:
        run_demo(
            side=args.side,
            queries=args.queries,
            updates=args.updates,
            seed=args.seed,
            workers=args.workers,
        )
        events = obs_flight.dump(last=args.last, seconds=args.seconds)
    finally:
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)
    if args.json:
        print(json.dumps(list(events), sort_keys=True))
        return 0
    recorder = obs_flight.get_flight()
    capacity = recorder.capacity if recorder is not None else 0
    print(
        f"== flight recorder: last {len(events)} of ring capacity "
        f"{capacity} =="
    )
    for event in events:
        print(_format_flight_event(event))
    return 0


def _run_obs_top(args: argparse.Namespace) -> int:
    import json

    from repro.obs import flight as obs_flight
    from repro.obs import slo as obs_slo
    from repro.obs.demo import run_demo

    registry = obs.MetricsRegistry(enabled=True)
    previous_registry = obs.set_registry(registry)
    monitor = obs.SLOMonitor(
        objective_seconds=args.objective_ms / 1000.0, target=args.target
    )
    previous_monitor = obs_slo.set_slo_monitor(monitor)
    try:
        run_demo(
            side=args.side,
            queries=args.queries,
            updates=args.updates,
            seed=args.seed,
            workers=args.workers,
        )
        summary = monitor.summary()
        slow = [
            event for event in obs_flight.dump()
            if event.get("event") == "slow_query"
        ]
    finally:
        obs.set_registry(previous_registry)
        obs_slo.set_slo_monitor(previous_monitor)
    slow.sort(key=lambda e: e.get("dur_s", 0.0), reverse=True)
    slow = slow[: max(0, args.slowest)]
    if args.json:
        print(json.dumps({"slo": summary, "slowest": slow}, sort_keys=True))
        return 0
    print("== SLO (rolling window) ==")
    if summary["empty"]:
        print("(no samples recorded)")
    else:
        print(f"objective:        {summary['objective_ms']:.1f} ms "
              f"at target {summary['target']:.4f}")
        print(f"samples:          {summary['count']}")
        print(f"good fraction:    {summary['good_fraction']:.4f} "
              f"({summary['violations']} violations)")
        print(f"burn rate:        {summary['burn_rate']:.3f}")
        print(f"budget remaining: {summary['budget_remaining']:.1%}")
        print(f"latency ms:       p50={summary['p50_ms']:.3f} "
              f"p95={summary['p95_ms']:.3f} p99={summary['p99_ms']:.3f}")
    print(f"\n== slowest queries (flight recorder, top {len(slow)}) ==")
    for event in slow:
        print(_format_flight_event(event))
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    import json

    from repro.core.fahl import FAHLIndex
    from repro.core.fpsps import FlowAwareEngine
    from repro.errors import ReproError
    from repro.workloads.datasets import load_dataset

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    index = FAHLIndex.from_frn(dataset.frn, beta=args.beta)
    engine = FlowAwareEngine(
        dataset.frn,
        oracle=index,
        alpha=args.alpha,
        eta_u=args.eta,
        pruning=args.pruning,
        kernel=args.kernel,
    )
    try:
        with obs.stopwatch(
            span="cli.explain", src=args.source, dst=args.target
        ):
            explain = engine.explain(
                args.source, args.target, timestep=args.timestep
            )
    except ReproError as exc:
        print(f"explain failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(explain.to_dict(), sort_keys=True))
    else:
        print(explain.render())
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    import json

    from repro.obs.demo import run_demo
    from repro.obs.export import render_prometheus
    from repro.obs.report import render_report

    if args.obs_command == "lint":
        return _run_obs_lint(args)
    if args.obs_command == "flight":
        return _run_obs_flight(args)
    if args.obs_command == "top":
        return _run_obs_top(args)

    registry = obs.MetricsRegistry(enabled=True)
    previous_registry = obs.set_registry(registry)
    trace_handle = open(args.trace, "w", encoding="utf-8") if args.trace else None
    previous_tracer = obs.set_tracer(obs.Tracer(trace_handle) if args.trace else None)
    try:
        summary = run_demo(
            side=args.side,
            queries=args.queries,
            updates=args.updates,
            seed=args.seed,
            workers=args.workers,
        )
        print(render_report(registry))
        print(
            f"# demo: {summary['vertices']} vertices, "
            f"{summary['queries']} queries (batch mode: {summary['batch_mode']}), "
            f"{summary['accepted_updates']} updates applied, "
            f"{summary['dead_letters']} quarantined, "
            f"final state: {summary['state']}"
        )
        if args.prom:
            text = render_prometheus(registry)
            with open(args.prom, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"# wrote Prometheus export to {args.prom}")
        if args.trace:
            print(f"# wrote span trace to {args.trace}")
        if args.json_file:
            payload = json.dumps(registry.snapshot(), sort_keys=True)
            if args.json_file == "-":
                print(payload)
            else:
                with open(args.json_file, "w", encoding="utf-8") as handle:
                    handle.write(payload + "\n")
                print(f"# wrote registry snapshot JSON to {args.json_file}")
    finally:
        obs.set_registry(previous_registry)
        obs.set_tracer(previous_tracer)
        if trace_handle is not None:
            trace_handle.close()
    return 0


def _run_serve_sharded(args: argparse.Namespace) -> int:
    from repro.obs.export import render_prometheus
    from repro.obs.report import render_report
    from repro.scale.demo import run_sharded_demo

    registry = obs.MetricsRegistry(enabled=True)
    previous_registry = obs.set_registry(registry)
    try:
        summary = run_sharded_demo(
            side=args.side,
            shards=args.shards,
            queries=args.queries,
            repeat=args.repeat,
            updates=args.updates,
            workers=args.workers,
            seed=args.seed,
        )
        print(render_report(registry))
        print(
            f"# sharded demo: {summary['vertices']} vertices over "
            f"{summary['shards']} shards ({summary['boundary_vertices']} "
            f"boundary), {summary['queries']} queries, "
            f"cache hit rate {summary['cache_hit_rate']:.1%} "
            f"({summary['cache_stale_drops']} stale drops), "
            f"{summary['accepted_updates']} updates applied, "
            f"{summary['dead_letters']} quarantined, "
            f"degraded shards: {summary['degraded_shards'] or 'none'}"
        )
        if args.prom:
            with open(args.prom, "w", encoding="utf-8") as handle:
                handle.write(render_prometheus(registry))
            print(f"# wrote Prometheus export to {args.prom}")
    finally:
        obs.set_registry(previous_registry)
    return 0


def _run_serve_async(args: argparse.Namespace) -> int:
    from repro.obs.export import render_prometheus
    from repro.obs.report import render_report
    from repro.serving.async_demo import run_async_demo

    registry = obs.MetricsRegistry(enabled=True)
    previous_registry = obs.set_registry(registry)
    try:
        summary = run_async_demo(
            side=args.side,
            requests=args.requests,
            concurrency=args.concurrency,
            rate=args.rate,
            admission_rate=args.admission_rate,
            seed=args.seed,
        )
        print(render_report(registry))
        for loop in ("closed", "open"):
            numbers = summary[loop]
            print(
                f"# {loop}-loop: {numbers['requests']} requests in "
                f"{numbers['wall_seconds']:.3f}s -> "
                f"{numbers['throughput_rps']:,.0f} req/s, "
                f"p50 {numbers['p50_ms']:.2f}ms / "
                f"p99 {numbers['p99_ms']:.2f}ms, "
                f"{numbers['errors']} errors"
            )
        print(
            f"# coalescing: {summary['windows']} windows for "
            f"{2 * summary['requests_per_loop']} requests "
            f"(ratio {summary['coalescing_ratio']:.1f}, largest window "
            f"{summary['largest_window']}); rejected "
            f"{summary['rejected_admission']} admission / "
            f"{summary['rejected_backpressure']} backpressure"
        )
        if args.prom:
            with open(args.prom, "w", encoding="utf-8") as handle:
                handle.write(render_prometheus(registry))
            print(f"# wrote Prometheus export to {args.prom}")
    finally:
        obs.set_registry(previous_registry)
    return 0


def _run_recover(args: argparse.Namespace) -> int:
    from repro.durability import recover
    from repro.errors import RecoveryError
    from repro.workloads.datasets import load_dataset

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    try:
        with obs.stopwatch(span="cli.recover", directory=args.directory):
            engine = recover(
                args.directory,
                dataset.frn,
                fsync=args.fsync,
                checkpoint_on_recover=not args.no_checkpoint,
            )
    except RecoveryError as exc:
        print(f"recovery failed: {exc}", file=sys.stderr)
        return 1
    report = engine.last_recovery
    source = (
        "cold rebuild (no checkpoint)" if report.cold_rebuild
        else f"checkpoint generation {report.generation}"
    )
    print(f"recovered {args.dataset} engine from {args.directory}")
    print(f"  restore source:    {source}")
    if report.fallback_generations:
        print(f"  generations skipped (corrupt): {report.fallback_generations}")
    print(f"  WAL records read:  {report.wal_records}")
    print(f"  replayed updates:  {report.replayed_updates} "
          f"(+{report.resubmitted_updates} in-flight resubmitted)")
    print(f"  dead letters:      {report.replayed_dead_letters} replayed, "
          f"{len(engine.dead_letters)} queued")
    if report.torn_bytes:
        print(f"  torn tail repaired: {report.torn_bytes} bytes truncated")
    print(f"  engine state:      {engine.state}")
    print(f"  recovery time:     {report.duration_seconds:.3f}s")
    if args.audit:
        verdict = engine.audit()
        print(f"  post-recovery audit: {'ok' if verdict.ok else 'FAILED'} "
              f"({verdict.checked} samples)")
        if not verdict.ok:
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "explain":
        return _run_explain(args)
    if args.command == "serve-sharded":
        return _run_serve_sharded(args)
    if args.command == "serve-async":
        return _run_serve_async(args)
    if args.command == "recover":
        return _run_recover(args)
    if args.command == "list":
        for key, module in EXPERIMENTS.items():
            summary = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{key:16s} {summary}")
        return 0
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "export-dataset":
        return _run_export(args)
    if args.command == "report":
        return _run_report(args)

    config = _config_from_args(args)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"choose from {', '.join(EXPERIMENTS)} or 'all'",
            file=sys.stderr,
        )
        return 2
    for name in names:
        with obs.stopwatch(span="cli.experiment", experiment=name) as sw:
            table = EXPERIMENTS[name].run(config)
        print(table.render())
        print(f"# completed in {sw.seconds:.1f}s\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
