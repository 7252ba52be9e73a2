"""Guard: the obs span is the one timing source of ``src/repro``.

Every timed block goes through :mod:`repro.obs` (``obs.trace``,
``obs.stopwatch``, ``obs.front_door``), which measures, traces and
records in one place.  This test walks the package with :mod:`ast` and
lists every ``perf_counter`` call outside ``repro/obs/``; each must be on
the explicit allowlist below.

Intervals that cross a call boundary — the async gateway's enqueue →
resolve request span, a consolidation's start → swap commit — use
:meth:`repro.obs.Span.begin` / :meth:`~repro.obs.Span.end`, so they need
no entry here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent

#: the one package allowed to read the clock directly
TIMING_PACKAGE = "obs"

#: (module, enclosing top-level function) -> why it may read the clock
ALLOWLIST = {
    ("serving/async_demo.py", "closed_loop"): "client-side load generator",
    ("serving/async_demo.py", "open_loop"): "client-side load generator",
}


def _is_perf_counter(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr == "perf_counter"
    return isinstance(func, ast.Name) and func.id == "perf_counter"


def _perf_counter_sites() -> list[tuple[str, str, int]]:
    """``(module, top-level function or "<module>", line)`` per call."""
    sites = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()
        if module.split("/")[0] == TIMING_PACKAGE:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _is_perf_counter(node):
                    sites.append((module, owner, node.lineno))
    return sites


def test_perf_counter_only_at_allowlisted_sites():
    stray = [
        f"{module}:{line} (in {owner})"
        for module, owner, line in _perf_counter_sites()
        if (module, owner) not in ALLOWLIST
    ]
    assert not stray, (
        "time a block with obs.trace/obs.stopwatch/obs.front_door instead "
        f"of an inline perf_counter pair: {stray}"
    )


def test_allowlist_has_no_dead_entries():
    used = {(module, owner) for module, owner, _ in _perf_counter_sites()}
    assert set(ALLOWLIST) <= used


def test_no_perf_counter_import_aliases():
    """``from time import perf_counter as clock`` would dodge the walk."""
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                names = {alias.name for alias in node.names}
                assert "perf_counter" not in names, path
