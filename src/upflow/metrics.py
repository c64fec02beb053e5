"""Displacement evaluation: end-point error and flow accuracy.

Predicted and reference clouds rarely share particle counts, so each
reference particle is matched to its nearest predicted particle before the
displacement vectors are compared. An empty reference or predicted set
raises ValueError: a mean over no particle has no value. Reference positions
and displacements of different lengths raise LengthMismatch.
"""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatch
from .particles import nearest_points


def match_nearest(pred_positions: np.ndarray, ref_positions: np.ndarray) -> np.ndarray:
    """For each reference particle, the index of the nearest predicted one
    (the lowest such index on ties)."""
    pred_positions = np.asarray(pred_positions, dtype=np.float64).reshape(-1, 3)
    ref_positions = np.asarray(ref_positions, dtype=np.float64).reshape(-1, 3)
    if len(pred_positions) == 0:
        raise ValueError("cannot match against an empty predicted set")
    return nearest_points(pred_positions, ref_positions)


def _reference(ref_positions, ref_displacements) -> np.ndarray:
    """The reference displacements as (n, 3), one per reference position; a
    mean over no reference particle has no value, so an empty set raises."""
    ref = np.asarray(ref_displacements, dtype=np.float64).reshape(-1, 3)
    if len(ref) == 0:
        raise ValueError("cannot score against an empty reference set")
    if len(ref) != len(np.asarray(ref_positions).reshape(-1, 3)):
        raise LengthMismatch("reference positions and displacements differ in length")
    return ref


def epe(pred_positions, pred_displacements, ref_positions, ref_displacements) -> float:
    """Mean L2 distance between matched displacement vectors."""
    pred_displacements = np.asarray(pred_displacements, dtype=np.float64).reshape(-1, 3)
    ref_displacements = _reference(ref_positions, ref_displacements)
    m = match_nearest(pred_positions, ref_positions)
    err = np.linalg.norm(pred_displacements[m] - ref_displacements, axis=1)
    return float(err.mean())


def flow_accuracy(pred_positions, pred_displacements, ref_positions,
                  ref_displacements, threshold: float = 0.1,
                  eps: float = 0.001) -> float:
    """Fraction of matched displacements with error within threshold + eps."""
    pred_displacements = np.asarray(pred_displacements, dtype=np.float64).reshape(-1, 3)
    ref_displacements = _reference(ref_positions, ref_displacements)
    m = match_nearest(pred_positions, ref_positions)
    err = np.linalg.norm(pred_displacements[m] - ref_displacements, axis=1)
    return float(np.mean(err <= threshold + eps))
