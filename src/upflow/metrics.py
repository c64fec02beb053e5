"""Displacement evaluation: end-point error and flow accuracy.

Predicted and reference clouds rarely share particle counts, so each
reference particle is matched to its nearest predicted particle before the
displacement vectors are compared. An empty reference or predicted set
raises ValueError: a mean over no particle has no value. Positions and
displacements of different lengths, on either side, raise LengthMismatch.
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


def _paired(positions, displacements, side: str) -> np.ndarray:
    """The displacements as (n, 3), one per position; raises LengthMismatch
    when the two differ in length."""
    disp = np.asarray(displacements, dtype=np.float64).reshape(-1, 3)
    if len(disp) != len(np.asarray(positions).reshape(-1, 3)):
        raise LengthMismatch(f"{side} positions and displacements differ in length")
    return disp


def _matched_errors(pred_positions, pred_displacements, ref_positions,
                    ref_displacements) -> np.ndarray:
    """L2 error of each reference displacement against the displacement of
    its nearest predicted particle. A mean over no reference particle has no
    value, so an empty reference set raises ValueError."""
    ref = _paired(ref_positions, ref_displacements, "reference")
    if len(ref) == 0:
        raise ValueError("cannot score against an empty reference set")
    pred = _paired(pred_positions, pred_displacements, "predicted")
    m = match_nearest(pred_positions, ref_positions)
    return np.linalg.norm(pred[m] - ref, axis=1)


def epe(pred_positions, pred_displacements, ref_positions, ref_displacements) -> float:
    """Mean L2 distance between matched displacement vectors."""
    return float(_matched_errors(pred_positions, pred_displacements, ref_positions,
                                 ref_displacements).mean())


def flow_accuracy(pred_positions, pred_displacements, ref_positions,
                  ref_displacements, threshold: float = 0.1,
                  eps: float = 0.001) -> float:
    """Fraction of matched displacements with error within threshold + eps.
    Raises ValueError unless `threshold` and `eps` are finite and >= 0."""
    if not (0.0 <= threshold < np.inf and 0.0 <= eps < np.inf):
        raise ValueError("threshold and eps must be finite and >= 0, got "
                         f"{threshold} and {eps}")
    err = _matched_errors(pred_positions, pred_displacements, ref_positions,
                          ref_displacements)
    return float(np.mean(err <= threshold + eps))
