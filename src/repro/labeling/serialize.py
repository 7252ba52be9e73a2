"""Persist hierarchical labeling indexes to disk (single ``.npz`` file).

A production deployment builds the index offline and ships it to query
servers; this module packs a :class:`HierarchyIndex` (H2H or FAHL) into one
compressed numpy archive and restores it without re-running elimination or
the label DP.  The graph itself is stored alongside (edges + weights +
coordinates) so a loaded index is self-contained and immediately queryable.

Format (npz keys)
-----------------
``meta``              [version, kind, n, beta*]            (kind: 0=H2H, 1=FAHL)
``edges``             int64[m, 2], ``weights`` float64[m]
``coords_ids/xy``     optional vertex coordinates
``order``             int64[n] elimination order
``phi``               float64[n]
``bag_offsets/keys/weights/middles``  flattened bags (-1 middle = original)
``label_offsets/values``              flattened distance labels (float64)
``via_values``                         flattened via indices
``flows`` / ``anchors``                FAHL only
``checksum``                           uint8[16] blake2b over all other arrays

Integrity: :func:`save_index` stores a content digest covering every other
array in the archive; :func:`load_index` recomputes and compares it before
touching any data, raising :class:`~repro.errors.IndexIntegrityError`
(carrying expected vs actual digest and the declared format version) on
mismatch — a bit-flipped or truncated index file fails loudly instead of
serving silently wrong labels.  Unreadable archives (truncated zip,
missing arrays) raise the same error, so recovery code has a single
"this generation is bad" signal.  Version-1 archives (pre-checksum)
still load.
"""

from __future__ import annotations

import hashlib
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.errors import DatasetFormatError, IndexIntegrityError
from repro.graph.road_network import RoadNetwork
from repro.labeling.h2h import H2HIndex
from repro.labeling.hierarchy import HierarchyIndex
from repro.treedec.elimination import EliminationResult

__all__ = ["save_index", "load_index"]

_FORMAT_VERSION = 2
_KIND_H2H = 0
_KIND_FAHL = 1
_CHECKSUM_KEY = "checksum"


def _payload_digest(arrays: dict[str, np.ndarray]) -> np.ndarray:
    """Order-independent blake2b digest over every non-checksum array.

    Key name, dtype, shape and raw bytes all feed the hash, so a renamed,
    retyped, reshaped or bit-flipped array each produce a distinct digest.
    """
    h = hashlib.blake2b(digest_size=16)
    for key in sorted(arrays):
        if key == _CHECKSUM_KEY:
            continue
        arr = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(str(arr.dtype).encode())
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return np.frombuffer(h.digest(), dtype=np.uint8)


def save_index(index: HierarchyIndex, path: str | Path) -> None:
    """Write ``index`` (H2H or FAHL) to ``path`` as a compressed ``.npz``."""
    # imported here to avoid a package-level cycle (core.fahl subclasses
    # labeling.hierarchy, whose package re-exports this module)
    from repro.core.fahl import FAHLIndex

    graph = index.graph
    n = graph.num_vertices
    edges = np.asarray(
        [(u, v) for u, v, _ in graph.edges()], dtype=np.int64
    ).reshape(-1, 2)
    weights = np.asarray([w for _, _, w in graph.edges()], dtype=np.float64)

    bag_offsets = np.zeros(n + 1, dtype=np.int64)
    bag_keys: list[int] = []
    bag_weights: list[float] = []
    bag_middles: list[int] = []
    for v in range(n):
        bag = index.elim.bags[v]
        mid = index.elim.middles[v]
        bag_offsets[v + 1] = bag_offsets[v] + len(bag)
        for x, w in bag.items():
            bag_keys.append(x)
            bag_weights.append(w)
            middle = mid.get(x)
            bag_middles.append(-1 if middle is None else middle)


    kind = _KIND_FAHL if isinstance(index, FAHLIndex) else _KIND_H2H
    beta = index.beta if isinstance(index, FAHLIndex) else 0.0
    payload: dict[str, np.ndarray] = {
        "meta": np.asarray([_FORMAT_VERSION, kind, n, beta], dtype=np.float64),
        "edges": edges,
        "weights": weights,
        "order": np.asarray(index.elim.order, dtype=np.int64),
        "phi": np.asarray(index.elim.phi_at_elim, dtype=np.float64),
        "bag_offsets": bag_offsets,
        "bag_keys": np.asarray(bag_keys, dtype=np.int64),
        "bag_weights": np.asarray(bag_weights, dtype=np.float64),
        "bag_middles": np.asarray(bag_middles, dtype=np.int64),
        # the label store as is, but always float64 on disk
        "label_offsets": index.label_offsets,
        "label_values": index.label_values.astype(np.float64),
        "via_values": index.via_values,
    }
    if graph.coordinates:
        ids = sorted(graph.coordinates)
        payload["coords_ids"] = np.asarray(ids, dtype=np.int64)
        payload["coords_xy"] = np.asarray(
            [graph.coordinates[i] for i in ids], dtype=np.float64
        )
    if isinstance(index, FAHLIndex):
        payload["flows"] = index.flows
        payload["anchors"] = np.asarray(index.flow_anchors, dtype=np.float64)
    payload[_CHECKSUM_KEY] = _payload_digest(payload)
    np.savez_compressed(path, **payload)


def _restore_graph(data) -> RoadNetwork:
    n = int(data["meta"][2])
    graph = RoadNetwork(n)
    for (u, v), w in zip(data["edges"], data["weights"]):
        graph.add_edge(int(u), int(v), float(w))
    if "coords_ids" in data:
        for vid, (x, y) in zip(data["coords_ids"], data["coords_xy"]):
            graph.coordinates[int(vid)] = (float(x), float(y))
    return graph


def _restore_elimination(data, n: int) -> EliminationResult:
    order = [int(v) for v in data["order"]]
    rank = np.full(n, -1, dtype=np.int64)
    for r, v in enumerate(order):
        rank[v] = r
    offsets = data["bag_offsets"]
    keys = data["bag_keys"]
    weights = data["bag_weights"]
    middles_flat = data["bag_middles"]
    bags: list[dict[int, float]] = [{} for _ in range(n)]
    middles: list[dict[int, int | None]] = [{} for _ in range(n)]
    for v in range(n):
        lo, hi = int(offsets[v]), int(offsets[v + 1])
        for i in range(lo, hi):
            x = int(keys[i])
            bags[v][x] = float(weights[i])
            middle = int(middles_flat[i])
            middles[v][x] = None if middle < 0 else middle
    return EliminationResult(
        order=order,
        rank=rank,
        bags=bags,
        middles=middles,
        phi_at_elim=np.asarray(data["phi"], dtype=np.float64),
    )


def load_index(path: str | Path) -> HierarchyIndex:
    """Load an index saved by :func:`save_index`.

    Rebuilds the derived structures (tree, LCA, position arrays) from the
    stored elimination and restores the label arrays verbatim — no label DP
    is re-run — as one packed store, narrowed to int32 exactly when a
    build would narrow it.  Returns an :class:`H2HIndex` or :class:`FAHLIndex` matching
    what was saved.
    """
    from repro.core.fahl import FAHLIndex

    try:
        with np.load(path) as data:
            return _restore_index(data, path, FAHLIndex)
    except DatasetFormatError:
        raise  # includes IndexIntegrityError — already forensic
    except (
        OSError, KeyError, ValueError, EOFError, NotImplementedError,
        RuntimeError, zipfile.BadZipFile, zlib.error,
    ) as exc:
        # truncated zip central directory, missing arrays, short reads,
        # a corrupted compression-method field (zipfile's
        # NotImplementedError), a flipped "encrypted" flag bit (zipfile's
        # RuntimeError: password required) — numpy/zipfile surface them all
        # differently; recovery needs one "this file is bad" signal
        raise IndexIntegrityError(
            path, f"unreadable archive ({type(exc).__name__}: {exc})"
        ) from exc


def _restore_index(data, path, fahl_cls) -> HierarchyIndex:
    meta = data["meta"]
    version, kind, n = int(meta[0]), int(meta[1]), int(meta[2])
    if not 1 <= version <= _FORMAT_VERSION:
        raise IndexIntegrityError(
            path, f"unsupported format version {version}", version=version
        )
    if version >= 2:
        # verify content integrity before restoring anything
        if _CHECKSUM_KEY not in data:
            raise IndexIntegrityError(
                path, "missing its checksum", version=version
            )
        arrays = {key: data[key] for key in data.files}
        stored = np.asarray(arrays[_CHECKSUM_KEY], dtype=np.uint8)
        expected = _payload_digest(arrays)
        if stored.shape != expected.shape or not np.array_equal(stored, expected):
            raise IndexIntegrityError(
                path,
                "checksum mismatch (corrupted or tampered file)",
                expected_checksum=bytes(stored.tobytes()).hex(),
                actual_checksum=bytes(expected.tobytes()).hex(),
                version=version,
            )
    graph = _restore_graph(data)
    elimination = _restore_elimination(data, n)

    if kind == _KIND_FAHL:
        index = fahl_cls.__new__(fahl_cls)
        index.beta = float(meta[3])
        index.flows = np.asarray(data["flows"], dtype=np.float64)
        index.flow_anchors = (
            float(data["anchors"][0]),
            float(data["anchors"][1]),
        )
    elif kind == _KIND_H2H:
        index = H2HIndex.__new__(H2HIndex)
    else:
        raise IndexIntegrityError(
            path, f"unknown index kind {kind}", version=version
        )

    # bypass __init__ (which would rebuild): restore state directly
    index.graph = graph
    index.elim = elimination
    index.rebuild_structure()
    # the store's layout is the rebuilt tree's: one label entry per
    # ancestor, one via entry fewer per vertex
    if not np.array_equal(data["label_offsets"], index.anc_offsets):
        raise IndexIntegrityError(
            path, "label lengths disagree with the tree depths", version=version
        )
    index._set_store(
        np.asarray(data["label_values"], dtype=np.float64),
        np.asarray(data["via_values"], dtype=np.int32),
    )
    return index
