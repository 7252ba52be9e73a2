"""Path traffic-flow (paper Def. 3).

The flow-aware distance of a candidate path (Def. 5, Eq. 1-3) blends its
min-max normalised spatial distance and this traffic-flow:

.. math::

    FSD = \\alpha \\cdot PDis' + (1 - \\alpha) \\cdot TF'

Eq. 1 itself, with its normalisation anchors and the pruning bounds, is
evaluated in one place: :func:`repro.core.fpsps.score_candidates`.
"""

from __future__ import annotations

import numpy as np

__all__ = ["path_flow"]


def path_flow(flow_vector: np.ndarray, path: list[int]) -> float:
    """Path traffic-flow: sum of vertex flows along ``path`` (Def. 3)."""
    return float(np.take(flow_vector, path).sum())
