"""Correctness checks of the benchmark's operations.

Each check returns None when the output is right, or a one-line reason.
Every check compares against a computation made here, apart from the
program, or against a property the method must have; none compares
against a stored copy of an earlier output.
"""

from __future__ import annotations

import filecmp
import hashlib
import os

import numpy as np
from scipy.spatial import cKDTree


def digest(arrays) -> str:
    """SHA-256 over the bytes, dtype and shape of a sequence of arrays."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def same_as_before(now: str, before: str | None, what: str):
    """Fixed-seed determinism: a unit's outputs equal the previous unit's."""
    if before is not None and now != before:
        return f"{what} differs from the previous unit with the same inputs"
    return None


def counts_never_fall(counts, what: str):
    """Particle counts of consecutive frames never decrease."""
    for t in range(1, len(counts)):
        if counts[t] < counts[t - 1]:
            return f"{what}: particle count fell from {counts[t - 1]} to {counts[t]} at frame {t}"
    return None


def inside_box(positions, lower, upper, what: str):
    """Every particle lies inside the closed box [lower, upper]."""
    p = np.asarray(positions)
    bad = np.any((p < np.asarray(lower)) | (p > np.asarray(upper)), axis=1)
    if bad.any():
        return f"{what}: {int(bad.sum())} particles outside the container"
    return None


def augmented_shape(n_in: int, n_alphas: int, out_pairs, source_counts):
    """Augmentation yields n * (1 + |alphas|) pairs, and every morphed frame
    keeps the particle count of the frame it was morphed from.

    ``source_counts[i]`` holds the (low, high) per-frame counts of pair i.
    """
    if len(out_pairs) != n_in * (1 + n_alphas):
        return f"augment gave {len(out_pairs)} pairs, expected {n_in * (1 + n_alphas)}"
    for pair in out_pairs[n_in:]:
        src = source_counts[pair.source_pair_ids[0]]
        got = ([f.particles.count for f in pair.low_frames],
               [f.particles.count for f in pair.high_frames])
        if got != src:
            return f"morphed pair of source {pair.source_pair_ids[0]} has counts {got}, source {src}"
    return None


def same_tree(dir_a: str, dir_b: str):
    """Both directories hold the same relative files with identical bytes."""
    def files(root):
        out = []
        for base, _, names in os.walk(root):
            out += [os.path.relpath(os.path.join(base, n), root) for n in names]
        return sorted(out)
    fa, fb = files(dir_a), files(dir_b)
    if fa != fb:
        return f"manifest round trip wrote {len(fb)} files, original has {len(fa)}"
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, fa, shallow=False)
    if mismatch or errors:
        return f"manifest round trip changed {len(mismatch) + len(errors)} files, e.g. {(mismatch + errors)[0]}"
    return None


def label_follows_shift(labels, shift):
    """Labels of a pair whose high track is its low track shifted by
    ``shift`` must point along the shift on average (cosine >= 0.99) and
    must not be longer than it."""
    mean = np.asarray(labels).reshape(-1, 3).mean(axis=0)
    shift = np.asarray(shift, dtype=np.float64)
    norm = float(np.linalg.norm(mean))
    if norm == 0.0:
        return "labels of the shifted pair are all zero"
    cosine = float(mean @ shift) / (norm * float(np.linalg.norm(shift)))
    if cosine < 0.99:
        return f"mean label of the shifted pair is off the shift (cosine {cosine:.4f})"
    if norm > float(np.linalg.norm(shift)):
        return f"mean label {norm:.4g} is longer than the shift {np.linalg.norm(shift):.4g}"
    return None


def csr_matvec(a_mat, x):
    """y = A x from the raw CSR arrays, without scipy's product."""
    n = a_mat.shape[0]
    rows = np.repeat(np.arange(n), np.diff(a_mat.indptr))
    return np.bincount(rows, weights=a_mat.data * x[a_mat.indices], minlength=n)


def flow_residual(a_mat, b, u, tol: float):
    """Relative residual ||b - A u|| / ||b|| of a flow solve is within tol."""
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return None if not np.any(u) else "nonzero flow for a zero right-hand side"
    res = float(np.linalg.norm(b - csr_matvec(a_mat, u))) / b_norm
    if not res <= tol:
        return f"flow solve residual {res:.3e} exceeds cg_tol {tol:.1e}"
    return None


def loss_fell(history):
    """The last epoch's mean training loss is below the first epoch's."""
    losses = history["train"]
    if not losses[-1] < losses[0]:
        return f"training loss did not fall: {losses[0]:.5f} -> {losses[-1]:.5f}"
    return None


def beats_zero(pred, target):
    """Mean ||w - w*|| of a trained model is below that of the zero network,
    which predicts w = 0 everywhere."""
    target = np.asarray(target).reshape(-1, 3)
    trained = float(np.linalg.norm(np.asarray(pred).reshape(-1, 3) - target, axis=1).mean())
    zero = float(np.linalg.norm(target, axis=1).mean())
    if not trained < zero:
        return f"held-out error {trained:.5f} does not beat the zero network's {zero:.5f}"
    return None


def moved_by(out_positions, start_positions, velocity, dt):
    """A zero network in a constant velocity field transports the band
    particles by exactly velocity * dt, up to rounding."""
    out = np.asarray(out_positions)
    expect = np.asarray(start_positions) + np.asarray(velocity) * dt
    if out.shape != expect.shape:
        return f"zero-network up-res returned {len(out)} particles, the band has {len(expect)}"
    err = float(np.abs(out - expect).max()) if len(out) else 0.0
    if not err <= 1e-12:
        return f"zero-network up-res is off passive transport by {err:.3e}"
    return None


def all_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            return "up-res output holds non-finite values"
    return None


def metrics_match(epe_value, accuracy, pred_pos, pred_disp, ref_pos, ref_disp,
                  threshold: float, eps: float):
    """End-point error and flow accuracy equal a cKDTree nearest-match oracle."""
    _, m = cKDTree(np.asarray(pred_pos)).query(np.asarray(ref_pos))
    err = np.linalg.norm(np.asarray(pred_disp)[m] - np.asarray(ref_disp), axis=1)
    want_epe = float(err.mean())
    want_acc = float(np.mean(err <= threshold + eps))
    if not np.isclose(epe_value, want_epe, rtol=1e-12, atol=0.0):
        return f"epe {epe_value!r} != oracle {want_epe!r}"
    if accuracy != want_acc:
        return f"flow accuracy {accuracy!r} != oracle {want_acc!r}"
    return None
