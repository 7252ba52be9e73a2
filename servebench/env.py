"""The environment block every result file carries under its ``env`` key.

It extends the repository's shared ``benchmarks/_env.py`` block (CPU
count and the parallel-paths note).  Throughput on the fork-pool workload
means nothing without the CPUs the process could use, so this adds the
affinity set, the interpreter and numpy versions, the commit measured and
the load average when the run started.
"""

from __future__ import annotations

import importlib.util
import os
import platform
from pathlib import Path

__all__ = ["env_block"]


def _shared_env(root: Path) -> dict:
    """``env_info()`` of ``benchmarks/_env.py``, loaded by path."""
    location = importlib.util.spec_from_file_location(
        "benchmarks_env", root / "benchmarks" / "_env.py"
    )
    module = importlib.util.module_from_spec(location)
    location.loader.exec_module(module)
    return module.env_info()


def _commit(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text(encoding="utf-8")
    except OSError:
        return None
    for line in packed.splitlines():
        sha, _, name = line.partition(" ")
        if name == ref:
            return sha
    return None


def env_block(root: Path) -> dict:
    import numpy

    return {
        **_shared_env(root),
        "affinity": (
            sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(root),
        "loadavg": list(os.getloadavg()),
    }
