"""Compare the result files of a parent commit and a change, pair by pair.

    python3 servebench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is one written by ``run.py`` (``--out``, or the all-workload
default under ``servebench/out/``).  Runs pair up in the order given, so
alternate which side runs first.  For every (metric, workload) pair the
tool prints each side's median and quartiles, the share of pairs the
change wins (ties count for neither) and a verdict:

* ``improved``: over at least ten pairs, the change wins at least 9 in
  10 and its median is better by more than the parent's own
  interquartile distance;
* ``unresolved``: the parent's runs spread wider than the bound, and
  neither side reads better than the other in every run;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound; where the parent's runs spread wider than the
  bound, every change run must also be worse than every parent run;
* ``unchanged``: otherwise.

Bounds come from BENCHMARK.json for the end-to-end metrics and from
``spec.DETAILS`` for the detail metrics.  A bound is a share of the
parent's median, except for ``failed_share`` and ``mismatches`` where it
is absolute.  Diagnostics with no bound are shown as ``reported``.  The
exit code is 1 on any regression or when the change's median
``failed_share`` is higher than the parent's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import spec

#: fewer pairs cannot support a gain: three runs a side win every pair by
#: chance one time in eight
MIN_PAIRS_FOR_GAIN = 10


def _rules() -> dict[str, tuple[str, float | None, bool]]:
    """metric -> (better, bound, absolute)."""
    rules = {
        m["name"]: (m["better"], m["bound"], False) for m in spec.bench()["end_to_end"]
    }
    for name, (_, better, bound, absolute) in spec.DETAILS.items():
        rules[name] = (better, bound, absolute)
    return rules


def _load(paths: list[str]) -> dict[tuple[str, str], list[float]]:
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    for path in paths:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        for workload, record in payload["workloads"].items():
            for block in ("metrics", "details"):
                for metric, entry in record.get(block, {}).items():
                    values[(metric, workload)].append(float(entry["value"]))
    return values


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float | None,
    absolute: bool,
) -> tuple[str, float]:
    """The verdict for one (metric, workload) pair and the change's win share."""
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    if bound is None:
        return "reported", win_share
    p1, pm, p3 = _quartiles(parent)
    _, cm, _ = _quartiles(change)
    spread = p3 - p1
    gain = sign * (pm - cm)  # > 0: the change is better
    allowed = bound if absolute else bound * abs(pm)
    if len(pairs) >= MIN_PAIRS_FOR_GAIN and win_share >= 0.9 and gain > spread:
        return "improved", win_share
    if spread > allowed:
        # the parent's own runs disagree by more than the bound, so a
        # difference of medians means nothing unless one side reads
        # better in every run
        if -gain > allowed and all(sign * (c - p) > 0 for p in parent for c in change):
            return "regressed", win_share
        if all(sign * (c - p) < 0 for p in parent for c in change):
            return "unchanged", win_share
        return "unresolved", win_share
    if -gain > allowed:
        return "regressed", win_share
    return "unchanged", win_share


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent runs")
    parser.add_argument("--change", nargs="+", required=True, help="change runs")
    args = parser.parse_args(argv)

    rules = _rules()
    parent, change = _load(args.parent), _load(args.change)
    status = 0
    print(f"{'metric':24s} {'workload':16s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'delta':>8s} {'wins':>5s}  verdict")
    for key in sorted(set(parent) & set(change)):
        metric, workload = key
        if metric not in rules:
            continue
        better, bound, absolute = rules[metric]
        result, win_share = verdict(parent[key], change[key], better, bound, absolute)
        p1, pm, p3 = _quartiles(parent[key])
        c1, cm, c3 = _quartiles(change[key])
        delta = (cm - pm) / abs(pm) if pm else 0.0
        print(f"{metric:24s} {workload:16s} {pm:12.5g} [{p1:9.4g}, {p3:9.4g}] "
              f"{cm:12.5g} [{c1:9.4g}, {c3:9.4g}] {delta:+8.1%} {win_share:5.2f}  "
              f"{result}")
        if result == "regressed" or (metric == "failed_share" and cm > pm):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
