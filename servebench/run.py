"""One serving benchmark: four workloads through the real stack.

Run every workload, each in a fresh subprocess, and print every metric by
name and unit (``--trace`` adds a second, traced pass per workload that
gives the per-layer numbers)::

    PYTHONPATH=src python3 servebench/run.py --seed 0 [--trace] [--smoke]

Run one workload in this process::

    python3 servebench/run.py --workload commute_open --seed 0 --seconds 18 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  For one workload,
``--trace 0`` gives BENCHMARK.json's end-to-end metrics and ``--trace 1``
its per-layer metrics, measured with the span tracer installed.  A sampled
answer that fails the exactness check makes the exit code non-zero.  The
workload is built from the ``src/`` tree next to this directory; without
one the run stops with exit code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

import spec  # noqa: E402 - HERE is on sys.path when run as a script


def _bootstrap() -> str | None:
    """Make ``repro`` importable from this checkout's ``src/`` only."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return f"no repro package under {src}"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        return f"repro imported from {repro.__file__}, not from {src}"
    return None


def _print_metrics(name: str, block: dict) -> None:
    for metric, entry in block.items():
        print(f"{name:16s} {metric:36s} {entry['value']:14.6g} {entry['unit']}")


def _write(path: Path, workloads: dict) -> None:
    from env import env_block

    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {"schema": "servebench/1", "env": env_block(ROOT), "workloads": workloads}
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def run_one(args) -> int:
    import workloads

    trace = bool(args.trace)
    spans = None
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    record = workloads.run(
        args.workload, args.seed, args.seconds, trace, args.smoke, spans
    )
    metrics = record["layers"] if trace else record["metrics"]
    listed = {m["name"] for m in spec.bench()["per_layer" if trace else "end_to_end"]}
    if set(metrics) != listed:
        print(
            f"metrics {sorted(set(metrics) ^ listed)} disagree with BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    _print_metrics(args.workload, record["metrics"])
    _print_metrics(args.workload, record["details"])
    if trace:
        _print_metrics(args.workload, record["layers"])
    if args.out:
        _write(Path(args.out), {args.workload: record})
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["correct"] else 1


def _spawn(args, name: str, trace: int) -> tuple[int, dict | None]:
    OUT.mkdir(parents=True, exist_ok=True)
    part = OUT / f"{name}-seed{args.seed}-trace{trace}.json"
    part.unlink(missing_ok=True)
    command = [
        sys.executable, str(Path(__file__)), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(part),
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=900)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    print("\n".join(lines[:-1]))
    if not part.is_file():
        return done.returncode or 1, None
    return done.returncode, json.loads(part.read_text(encoding="utf-8"))["workloads"][name]


def run_all(args) -> int:
    records: dict[str, dict] = {}
    status = 0
    for name in spec.WORKLOADS:
        code, record = _spawn(args, name, 0)
        status = status or code
        if record is not None:
            records[name] = record
    if args.trace:
        for name in spec.WORKLOADS:
            code, traced = _spawn(args, name, 1)
            status = status or code
            if traced is None or name not in records:
                continue
            untraced = records[name]["details"]["request_p50_ms"]["value"]
            overhead = traced["details"]["request_p50_ms"]["value"] / untraced
            records[name]["layers"] = traced["layers"]
            records[name]["layers_seen"] = traced["layers_seen"]
            records[name]["details"]["trace.overhead"] = {
                "value": overhead, "unit": "ratio",
            }
            print(f"{name:16s} {'trace.overhead':36s} {overhead:14.6g} ratio")
    out = Path(args.out) if args.out else OUT / (
        f"run-seed{args.seed}{'-smoke' if args.smoke else ''}.json"
    )
    _write(out, records)
    print(f"wrote {out}", file=sys.stderr)
    print(json.dumps({
        "correct": len(records) == len(spec.WORKLOADS)
        and all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, record in records.items()
            for metric, entry in record["metrics"].items()
        },
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="run this one workload in this process")
    parser.add_argument("--seed", type=int, default=spec.DEV_SEED,
                        help=f"request-stream seed: develop on {spec.DEV_SEED}, "
                        f"confirm a claim on {spec.HOLDOUT_SEED}")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="measure the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help=f"NYC x{spec.SMOKE_SCALE}, {spec.SMOKE_SECONDS} s")
    parser.add_argument("--out", help="write the result records as JSON here")
    args = parser.parse_args(argv)

    problem = _bootstrap()
    if problem is not None:
        print(f"servebench: {problem}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec.SMOKE_SECONDS if args.smoke else spec.bench()["run_seconds"]
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
