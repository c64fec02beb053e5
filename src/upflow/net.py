"""Scene-flow network for particle displacements.

Architecture: three neighborhood set-convolution downsampling levels applied
to both resolutions against shared query centers, a correspondence embedding
at the deepest level (plus a couple of same-resolution smoothing
convolutions), three upsampling levels with skip connections back to the
input particles, and a linear regression head to 3 displacement components,
in units of half the first level's radius.

Every geometric quantity (sampled centers, neighbor lists, kernel weights,
offsets) is computed in a canonical order derived from point coordinates, so
the forward pass is bit-exact equivariant under input permutations.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, as_tensor, custom, parameter
from .errors import CenterMismatch, LengthMismatch, NonFiniteLoss, check_positive
from .kernels import kernel_k
from .particles import ParticleSet, nearest_points, radius_pairs

_BN_EPS = 1e-5
_LR_DECAY = 0.1     # the learning rate anneals to this fraction of its start


# -- configuration -------------------------------------------------------------

@dataclass(frozen=True)
class LevelConfig:
    count: int
    radius: float
    widths: tuple[int, ...]
    max_neighbors: int = 32


def _check_widths(name: str, widths):
    """Every MLP has at least one layer, and every layer a feature."""
    if len(widths) == 0 or any(w < 1 for w in widths):
        raise ValueError(f"{name} must be a non-empty list of widths >= 1, "
                         f"got {tuple(widths)}")


@dataclass
class NetworkConfig:
    """Layer counts, radii, and MLP widths of the displacement network."""

    levels: tuple[LevelConfig, ...]
    embedding_widths: tuple[int, ...] = (128,)
    embedding_radius: float = 0.5
    smoothing_convs: int = 2
    upconv_widths: tuple[tuple[int, ...], ...] = ((128,), (64,), (32,))
    seed: int = 0

    def __post_init__(self):
        if not self.levels:
            raise ValueError("at least one downsampling level is required")
        for i, lv in enumerate(self.levels):
            _check_widths(f"levels[{i}].widths", lv.widths)
            check_positive(f"levels[{i}].radius", lv.radius)
            for name in ("count", "max_neighbors"):
                if getattr(lv, name) < 1:
                    raise ValueError(f"levels[{i}].{name} must be >= 1, "
                                     f"got {getattr(lv, name)}")
        for a, b in zip(self.levels[:-1], self.levels[1:]):
            if not (2 * b.count <= a.count or a.count == b.count == 1):
                raise ValueError(
                    f"level counts must at least halve: {a.count} -> {b.count}")
        _check_widths("embedding_widths", self.embedding_widths)
        check_positive("embedding_radius", self.embedding_radius)
        if self.smoothing_convs < 0:
            raise ValueError(f"smoothing_convs must be >= 0, got {self.smoothing_convs}")
        if len(self.upconv_widths) != len(self.levels):
            raise ValueError("need one upconv width tuple per level")
        for j, widths in enumerate(self.upconv_widths):
            _check_widths(f"upconv_widths[{j}]", widths)

    @classmethod
    def default(cls, n_particles: int, particle_spacing: float,
                seed: int = 0) -> "NetworkConfig":
        """Desk-scale layout: counts N/4, N/16, N/64; radii 2, 4, 8 spacings;
        feature widths 32/64/128. Counts are floored at 8/4/2 so no level
        degenerates to a single neighborhood (whose batch statistics would
        carry zero variance)."""
        ps = particle_spacing
        c1 = max(n_particles // 4, 8)
        c2 = max(min(n_particles // 16, c1 // 2), 4)
        c3 = max(min(n_particles // 64, c2 // 2), 2)
        levels = (LevelConfig(c1, 2.0 * ps, (32,)),
                  LevelConfig(c2, 4.0 * ps, (64,)),
                  LevelConfig(c3, 8.0 * ps, (128,)))
        return cls(levels=levels, embedding_widths=(128,),
                   embedding_radius=16.0 * ps,
                   upconv_widths=((128,), (64,), (32,)), seed=seed)

    def to_json(self) -> str:
        return json.dumps({
            "levels": [[lv.count, lv.radius, list(lv.widths), lv.max_neighbors]
                       for lv in self.levels],
            "embedding_widths": list(self.embedding_widths),
            "embedding_radius": self.embedding_radius,
            "smoothing_convs": self.smoothing_convs,
            "upconv_widths": [list(w) for w in self.upconv_widths],
            "seed": self.seed,
        })

    @classmethod
    def from_json(cls, text: str) -> "NetworkConfig":
        d = json.loads(text)
        levels = tuple(LevelConfig(int(c), float(r), tuple(int(x) for x in w), int(mk))
                       for c, r, w, mk in d["levels"])
        return cls(levels=levels,
                   embedding_widths=tuple(d["embedding_widths"]),
                   embedding_radius=float(d["embedding_radius"]),
                   smoothing_convs=int(d["smoothing_convs"]),
                   upconv_widths=tuple(tuple(w) for w in d["upconv_widths"]),
                   seed=int(d["seed"]))


@dataclass
class FeatureSet:
    """Points plus their per-point features; downsampled sets also remember
    the query centers they were grouped against."""

    points: np.ndarray
    features: Tensor
    centers: np.ndarray | None = None

    def __post_init__(self):
        if len(self.points) != len(self.features.value):
            raise LengthMismatch("points and features differ in length")


@dataclass
class TrainingSample:
    """One supervised pair: particles at both resolutions, the ground-truth
    displacement of every low particle, and the per-particle deformation
    weight (normalized |u| in [0, 1]) that feeds the adaptive loss term."""

    x_l: ParticleSet
    x_h: ParticleSet
    gt_displacement: np.ndarray
    lambda_weights: np.ndarray

    def __post_init__(self):
        self.gt_displacement = np.asarray(self.gt_displacement, dtype=np.float64).reshape(-1, 3)
        self.lambda_weights = np.asarray(self.lambda_weights, dtype=np.float64).reshape(-1)
        if len(self.gt_displacement) != self.x_l.count:
            raise LengthMismatch("ground truth length != low particle count")
        if len(self.lambda_weights) != self.x_l.count:
            raise LengthMismatch("lambda length != low particle count")
        if np.any(self.lambda_weights < 0.0):
            raise ValueError("lambda weights must be non-negative")


# -- canonical geometry --------------------------------------------------------

def lexical_order(points: np.ndarray) -> np.ndarray:
    """Permutation sorting points lexicographically by (x, y, z)."""
    return np.lexsort((points[:, 2], points[:, 1], points[:, 0]))


def farthest_point_indices(points: np.ndarray, n: int) -> np.ndarray:
    """Canonical farthest-point sampling: the sequence of sampled positions
    depends only on the point set, never on its order.

    The sampling runs over the points in lexical order, so it starts at the
    lexicographically smallest point and the first of several equal maxima,
    the one `argmax` picks, is the lexicographically smallest (the lowest
    index among equal points, as the sort is stable). Distances are
    sqrt((dx*dx + dy*dy) + dz*dz), the bits `np.linalg.norm` gives."""
    m = len(points)
    order = lexical_order(points)
    x, y, z = np.ascontiguousarray(points[order].T)
    chosen = [0]
    d, near, sq = np.empty(m), np.empty(m), np.empty(m)

    def dist_to(i, out):
        np.subtract(x, x[i], out=out)
        np.multiply(out, out, out=out)
        for c in (y, z):
            np.subtract(c, c[i], out=sq)
            np.multiply(sq, sq, out=sq)
            np.add(out, sq, out=out)
        np.sqrt(out, out=out)

    dist_to(0, d)
    for _ in range(1, min(n, m)):
        nxt = int(d.argmax())
        chosen.append(nxt)
        dist_to(nxt, near)
        np.minimum(d, near, out=d)
    return order[chosen]


def ball_gather(points: np.ndarray, queries: np.ndarray, radius: float,
                max_neighbors: int):
    """Neighbor table (idx, valid) of shape (n_query, max_neighbors).

    Membership is sum((p - q)**2) <= radius**2; when more than
    `max_neighbors` qualify the closest ones win (ties toward
    lexicographically smaller points, then lower indices). Rows are stored
    in canonical lexicographic point order (then index) so all downstream
    reductions are permutation-stable.

    Each row's valid slots form a prefix: slot j is valid exactly when the
    row has more than j neighbors, and the unused slots hold index 0. The
    geometry relies on this to compute only the columns up to the widest
    occupied one.
    """
    n = len(points)
    idx = np.zeros((len(queries), max_neighbors), dtype=np.int64)
    valid = np.zeros((len(queries), max_neighbors), dtype=bool)
    rows, cols, d2 = radius_pairs(points, queries, radius)
    rank = np.empty(n, dtype=np.int64)             # canonical order: (x, y, z, index)
    rank[lexical_order(points)] = np.arange(n)
    if len(rows) and np.bincount(rows).max() > max_neighbors:
        # the K nearest of each row, ties toward the canonically smaller point
        order = np.lexsort((rank[cols], np.sqrt(d2), rows))
        rows, cols = rows[order], cols[order]
        keep = np.arange(len(rows)) - np.searchsorted(rows, rows) < max_neighbors
        rows, cols = rows[keep], cols[keep]
    order = np.argsort(rows * n + rank[cols])       # unique keys: any sort agrees
    rows, cols = rows[order], cols[order]
    slot = np.arange(len(rows)) - np.searchsorted(rows, rows)
    idx[rows, slot] = cols
    valid[rows, slot] = True
    return idx, valid


def nearest_indices(points: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Index of the nearest point for every query (lowest index on ties)."""
    return nearest_points(points, queries)


# -- parameterized pieces -------------------------------------------------------

def _init_mlp(rng, params, prefix: str, in_dim: int, widths):
    d = in_dim
    for ell, w in enumerate(widths):
        scale = np.sqrt(2.0 / d)
        params[f"{prefix}.l{ell}.W"] = parameter(rng.normal(0.0, scale, size=(d, w)))
        params[f"{prefix}.l{ell}.gamma"] = parameter(np.ones(w))
        params[f"{prefix}.l{ell}.beta"] = parameter(np.zeros(w))
        d = w
    return d


# -- layer geometry: tape-free, from positions alone -----------------------------

@dataclass
class Grouping:
    """Neighbor table (idx, valid) of one set convolution and each neighbor's
    offset from its row's point; a downsampling level adds its query
    `centers`, its output points `xbar` and feature scales |center - xbar|."""

    idx: np.ndarray
    valid: np.ndarray
    offsets: np.ndarray
    centers: np.ndarray | None = None
    xbar: np.ndarray | None = None
    scale: np.ndarray | None = None


def _slot_weights(points: np.ndarray, idx: np.ndarray, centers: np.ndarray,
                  valid: np.ndarray, radius: float) -> np.ndarray:
    """kernel_k(|points[idx] - center| / radius) at the valid slots, in a
    zero (n, K) array. Distances and kernels are computed only up to the
    widest occupied column (`_gather_width`); the array keeps all K columns,
    so its row sums add as many terms, and round as, the padded ones did."""
    k = _gather_width(valid, 3)
    w = np.zeros(valid.shape)
    dist = np.linalg.norm(points[idx[:, :k]] - centers[:, None, :], axis=2)
    w[:, :k] = kernel_k(dist / radius) * valid[:, :k]
    return w


def down_geometry(points: np.ndarray, centers: np.ndarray, level: LevelConfig) -> Grouping:
    idx, valid = ball_gather(points, centers, level.radius, level.max_neighbors)
    npos = points[idx]                                      # (n, K, 3)
    w = _slot_weights(points, idx, centers, valid, level.radius)
    wsum = w.sum(axis=1)
    has = wsum > 0.0
    wn = np.where(has[:, None], w / np.maximum(wsum, 1e-300)[:, None], 0.0)
    xbar = np.einsum("nk,nkc->nc", wn, npos)
    xbar = np.where(has[:, None], xbar, centers)
    scale = np.linalg.norm(centers - xbar, axis=1)          # per-neighborhood |x - xbar|
    return Grouping(idx, valid, npos - centers[:, None, :], centers, xbar, scale)


def embedding_geometry(low: np.ndarray, high: np.ndarray, radius: float,
                       max_neighbors: int):
    """Groupings within `radius` of the embedding (high points around each
    low point) and of the smoothing convolutions after it (low around low)."""
    idx, valid = ball_gather(high, low, radius, max_neighbors)
    sidx, svalid = ball_gather(low, low, radius, max_neighbors)
    return (Grouping(idx, valid, low[:, None, :] - high[idx]),
            Grouping(sidx, svalid, low[:, None, :] - low[sidx]))


def up_geometry(coarse: np.ndarray, fine: np.ndarray, radius: float, max_neighbors: int):
    """An upsampling blend: coarse neighbors of every fine point, their
    normalized weights, and the canonical order of the fine points."""
    idx, valid = ball_gather(coarse, fine, radius, max_neighbors)
    w = _slot_weights(coarse, idx, fine, valid, radius)
    wsum = w.sum(axis=1)
    dead = wsum <= 0.0
    if dead.any():
        idx[dead, 0] = nearest_indices(coarse, fine[dead])
        w[dead] = 0.0
        w[dead, 0] = 1.0
        wsum = w.sum(axis=1)
    w /= wsum[:, None]
    return idx, w, lexical_order(fine)


def _scatter_rows(idx: np.ndarray, vals: np.ndarray, n: int) -> np.ndarray:
    """Sum the rows of `vals` (m, C) into rows `idx` (m,) of an (n, C) array,
    in row order (as `np.add.at` would), through one `np.bincount`."""
    c = vals.shape[1]
    flat = (idx[:, None] * c + np.arange(c)).ravel()
    return np.bincount(flat, weights=vals.ravel(), minlength=n * c).reshape(n, c)


def _layers(params: dict, prefix: str):
    """(W, gamma, beta) of each MLP layer of `prefix` in `params`."""
    out = []
    while f"{prefix}.l{len(out)}.W" in params:
        out.append(tuple(params[f"{prefix}.l{len(out)}.{k}"]
                         for k in ("W", "gamma", "beta")))
    return out


def _mlp_forward(x: np.ndarray, layers, stat_order: np.ndarray | None,
                 record: bool = True, pad: tuple | None = None):
    """Shared nonlinear map h on the rows of x: (Linear -> BatchNorm -> ReLU)
    per layer. The Linear has no bias, as the batch norm's mean subtraction
    would cancel it.

    Batch-norm statistics are column sums over the rows, taken in the
    canonical `stat_order` (None: the rows' own order), so they never depend
    on input permutation. The "batch" is the processed particle cloud
    itself, at inference too: running averages taken across training clouds
    diverged from the per-cloud normalization the network learns.

    Rows may be the valid slots of a zero-padded layout: `pad` = (positions,
    size) says where they sit among its `size` rows. Two or more channels
    give the padded layout's bits from the rows alone: the product is row
    by row, and the column sums add row after row, so the padding's zeros
    change no bit. A layer of one channel does not: BLAS takes a
    matrix-vector path whose rounding depends on a row's position, and
    numpy sums a single column pairwise. Such a layer runs its product and
    sums in the padded layout.

    With `record`, keeps for `_mlp_backward` each layer's input, centred
    values and ReLU mask and the per-channel std; without it, keeps nothing
    and returns `saved` as None.

    The ReLU is pre * (pre > 0) + 0.0, where the + 0.0 turns -0.0 into 0.0:
    on finite inputs these are the bits of np.where(pre > 0, pre, 0.0).
    Inputs must be finite (`ParticleSet` admits no other positions or
    velocities, and `train` stops at a non-finite loss); an inf or NaN
    pre-activation would give NaN where np.where gives 0.0."""
    inv_count = 1.0 / max(len(x), 1)

    def padded(a):
        out = np.zeros((pad[1], a.shape[1]))
        out[pad[0]] = a
        return out

    def column_mean(a, one):
        if stat_order is not None:
            a = a[stat_order]
        elif one:
            a = padded(a)
        return a.sum(axis=0) * inv_count

    saved = [] if record else None
    for w, gamma, beta in layers:
        one = pad is not None and w.value.shape[1] == 1
        h = (padded(x) @ w.value)[pad[0]] if one else x @ w.value
        mean = column_mean(h, one)
        cen = h - mean
        var = column_mean(cen * cen, one)
        std = np.sqrt(var + _BN_EPS)
        pre = cen / std
        pre *= gamma.value
        pre += beta.value
        relu = pre > 0.0
        if record:
            saved.append((x, cen, relu, std))
        np.multiply(pre, relu, out=pre)
        pre += 0.0
        x = pre
    return x, saved


def _mlp_backward(dy: np.ndarray, layers, saved):
    """Backward of `_mlp_forward` from the gradient `dy` (rows, C) of its
    output: the gradient of its input rows and, per layer, those of
    (W, gamma, beta). Batch statistics are over all the rows."""
    grads = []
    for (w, gamma, _), (x, cen, relu, std) in reversed(list(zip(layers, saved))):
        dpre = dy * relu
        dgamma = (dpre * cen).sum(axis=0) / std
        count = len(cen)
        if count:
            # pre = cen / std * gamma + beta, where cen = h - mean and
            # std = sqrt(var + eps) both depend on every kept row of h
            dvar = -0.5 * gamma.value * dgamma / std ** 2
            dcen = dpre * (gamma.value / std) + cen * ((2.0 / count) * dvar)
            dh = dcen - dcen.sum(axis=0) * (1.0 / count)
        else:
            dh = dpre
        grads[:0] = [x.T @ dh, dgamma, dpre.sum(axis=0)]
        dy = dh @ w.value.T
    return dy, grads


def _gather_width(mask: np.ndarray, channels: int) -> int:
    """How many leading slot columns of `mask` (n, K) `_up` gathers (and
    the geometry computes distances and kernel weights over): up to
    the last column holding a True anywhere (at least 1), since the ones
    after it are padding. A sum over the slots of an (n, k, channels)
    array adds slot after slot, so trailing zero slots change no bit,
    except with one channel: numpy then sums the n * k values pairwise,
    the padding's zeros take part in the grouping, and all K are kept."""
    if channels < 2:
        return mask.shape[1]
    cols = np.flatnonzero(mask.any(axis=0))
    return int(cols[-1]) + 1 if len(cols) else 1


def _set_conv(parts, group: Grouping, params: dict, prefix: str) -> Tensor:
    """Masked max over each row's neighbors of h(parts..., offset), as one
    tape node. Each part is (source tensor, idx, row scale or None) and
    contributes source[idx] (times scale per row).

    The layer reads the valid slots alone, as compact rows in row-major
    (row, slot) order: the MLP and its batch statistics (a width-1 layer
    keeps the padded layout, see `_mlp_forward`), the max over each row's
    segment and the backward. A row with no valid slot gives the zero
    feature."""
    layers = _layers(params, prefix)
    parents = [src for src, _, _ in parts] + [t for layer in layers for t in layer]
    record = any(t.requires_grad for t in parents)
    flat = np.flatnonzero(group.valid)
    rows = flat // group.valid.shape[1]
    parts = [(src, idx.ravel()[flat], scale) for src, idx, scale in parts]
    cols = []
    for src, idx, scale in parts:
        v = src.value[idx]
        cols.append(v if scale is None else v * scale[rows, None])
    cols.append(group.offsets.reshape(-1, 3)[flat])
    out, saved = _mlp_forward(np.concatenate(cols, axis=1), layers, None, record,
                              (flat, group.valid.size))
    count = group.valid.sum(axis=1)
    full = np.flatnonzero(count)
    starts = (np.cumsum(count) - count)[full]         # each non-empty row's first slot
    value = np.zeros((len(count), out.shape[1]))
    value[full] = np.maximum.reduceat(out, starts, axis=0)
    if not record:
        return Tensor(value)
    # the first max of each (row, channel): the max reads one slot there,
    # so its gradient is a plain assignment
    first = np.where(out == value[rows], np.arange(len(out))[:, None], len(out))
    hit_slots = np.minimum.reduceat(first, starts, axis=0)
    chans = np.arange(out.shape[1])

    def backward(g):
        dy = np.zeros((len(rows), len(chans)))
        dy[hit_slots, chans] = g[full]
        dx, grads = _mlp_backward(dy, layers, saved)
        grad, a = [], 0
        for src, idx, scale in parts:
            b = a + src.value.shape[1]
            d = dx[:, a:b] if scale is None else dx[:, a:b] * scale[rows, None]
            grad.append(_scatter_rows(idx, d, len(src.value)) if src.requires_grad else None)
            a = b
        return grad + grads
    return custom(value, parents, backward)


def _down(g: Grouping, feats: Tensor, params: dict, prefix: str) -> Tensor:
    return _set_conv([(feats, g.idx, g.scale)], g, params, prefix)


def _embed(group: Grouping, smooth: Grouping, low: Tensor, high: Tensor,
           params: dict, prefix: str, smoothing_convs: int) -> Tensor:
    n, k = group.idx.shape
    self_idx = np.repeat(np.arange(n)[:, None], k, axis=1)
    emb = _set_conv([(low, self_idx, None), (high, group.idx, None)], group, params, prefix)
    for s in range(smoothing_convs):
        emb = _set_conv([(emb, smooth.idx, None)], smooth, params, f"{prefix}.smooth{s}")
    return emb


def _up(blend, coarse: Tensor, skip: Tensor, params: dict, prefix: str) -> Tensor:
    """Blend of the coarse neighbors' features, concatenated with the skip
    feature and passed through the MLP, as one tape node. Only the columns
    up to the widest one with a nonzero weight are gathered; the rest add
    zeros."""
    idx, weights, order = blend
    hit = weights != 0.0
    k = _gather_width(hit, coarse.value.shape[1])
    idx, weights, hit = idx[:, :k], weights[:, :k], hit[:, :k]
    layers = _layers(params, prefix)
    parents = [coarse, skip] + [t for layer in layers for t in layer]
    record = any(t.requires_grad for t in parents)
    cc = coarse.value.shape[1]
    inp = np.concatenate([np.einsum("ik,ikc->ic", weights, coarse.value[idx]),
                          skip.value], axis=-1)
    value, saved = _mlp_forward(inp, layers, order, record)
    if not record:
        return Tensor(value)
    hit_rows = np.nonzero(hit)[0]

    def backward(g):
        dx, grads = _mlp_backward(g, layers, saved)
        dc = None
        if coarse.requires_grad:
            dc = _scatter_rows(idx[hit], weights[hit][:, None] * dx[hit_rows, :cc],
                               len(coarse.value))
        return [dc, dx[:, cc:]] + grads
    return custom(value, parents, backward)


def downsample_conv(points: np.ndarray, feats: Tensor, level: LevelConfig,
                    params: dict, prefix: str,
                    query_centers: np.ndarray | None = None) -> FeatureSet:
    """One set-convolution downsampling level.

    Neighborhood centers come from canonical farthest-point sampling unless
    `query_centers` is given (the high-resolution cloud of a pair reuses the
    centers selected on the low one). Output points are the kernel-weighted
    coordinate averages of each neighborhood; output features are the masked
    max over neighbors of h(scaled feature, offset). Empty neighborhoods
    produce the zero feature at the query center.
    """
    if query_centers is None:
        query_centers = points[farthest_point_indices(points, level.count)]
    g = down_geometry(points, query_centers, level)
    return FeatureSet(points=g.xbar, centers=query_centers,
                      features=_down(g, feats, params, prefix))


def flow_embedding(low: FeatureSet, high: FeatureSet, radius: float,
                   max_neighbors: int, params: dict, prefix: str,
                   smoothing_convs: int) -> FeatureSet:
    """Correspondence features between the two resolutions.

    Both inputs must have been grouped against the same query centers. Each
    low entry is paired with the high entries within `radius`; the MLP sees
    the concatenated features plus the low-minus-high positional offset, and
    the pairs are max-pooled. A few same-resolution convolutions over the
    same radius then smooth the embedded features spatially.
    """
    if low.centers is None or high.centers is None \
            or not np.array_equal(low.centers, high.centers):
        raise CenterMismatch("flow embedding requires matching neighborhood centers")
    embed, smooth = embedding_geometry(low.points, high.points, radius, max_neighbors)
    emb = _embed(embed, smooth, low.features, high.features, params, prefix,
                 smoothing_convs)
    return FeatureSet(points=low.points, features=emb, centers=low.centers)


def upsample_conv(coarse: FeatureSet, fine_points: np.ndarray, skip: FeatureSet,
                  radius: float, params: dict, prefix: str,
                  max_neighbors: int = 32) -> FeatureSet:
    """Propagate coarse features to fine points.

    Coarse features within `radius` of each fine point are blended with
    normalized kernel weights (a fine point seeing no coarse point falls
    back to its single nearest one), concatenated with the skip feature at
    that fine point, and passed through the MLP.
    """
    g = up_geometry(coarse.points, fine_points, radius, max_neighbors)
    return FeatureSet(points=fine_points,
                      features=_up(g, coarse.features, skip.features, params, prefix))


def geometry_plan(x_l: np.ndarray, x_h: np.ndarray, config: NetworkConfig):
    """The tape-free half of a forward pass, from the low and high positions:
    the low and the high downsampling per level, the embedding and smoothing
    groupings, and the upsampling blends (coarsest first)."""
    if len(x_l) == 0 or len(x_h) == 0:
        raise ValueError("forward requires non-empty particle sets")
    down_l, down_h = [], []
    cur_l, cur_h = x_l, x_h
    for lv in config.levels:
        qc = cur_l[farthest_point_indices(cur_l, lv.count)]
        down_l.append(down_geometry(cur_l, qc, lv))
        down_h.append(down_geometry(cur_h, qc, lv))
        cur_l, cur_h = down_l[-1].xbar, down_h[-1].xbar
    embed, smooth = embedding_geometry(cur_l, cur_h, config.embedding_radius,
                                       config.levels[-1].max_neighbors)
    points = [x_l] + [g.xbar for g in down_l]               # fine to coarse
    up = [up_geometry(points[i + 1], points[i], lv.radius, lv.max_neighbors)
          for i, lv in reversed(list(enumerate(config.levels)))]
    return down_l, down_h, embed, smooth, up


# -- the assembled model --------------------------------------------------------

def _apply(params: dict, config: NetworkConfig, plan, v_l: np.ndarray,
           v_h: np.ndarray) -> Tensor:
    """`DisplacementNet.apply` with the parameters given as tensors; a layer
    keeps state for a backward pass only when one of its inputs requires
    gradients."""
    down_l, down_h, embed, smooth, up = plan
    f_l, f_h = as_tensor(v_l), as_tensor(v_h)
    skips = [f_l]
    for i, (g_l, g_h) in enumerate(zip(down_l, down_h)):
        f_l = _down(g_l, f_l, params, f"down{i}")
        f_h = _down(g_h, f_h, params, f"down{i}")
        skips.append(f_l)
    feat = _embed(embed, smooth, f_l, f_h, params, "embed", config.smoothing_convs)
    for j, blend in enumerate(up):
        feat = _up(blend, feat, skips[-2 - j], params, f"up{j}")
    # the head predicts in one length unit, half the first level's radius:
    # one particle spacing in the default layout
    return (feat @ params["reg.W"] + params["reg.b"]) * (0.5 * config.levels[0].radius)


class DisplacementNet:
    """Config + parameters, with forward/predict/checkpoint."""

    def __init__(self, config: NetworkConfig, params: dict):
        self.config = config
        self.params = params

    @classmethod
    def create(cls, config: NetworkConfig) -> "DisplacementNet":
        rng = np.random.default_rng(config.seed)
        params: dict = {}
        feat_dim = 3  # per-particle input feature: velocity
        dims = []
        d = feat_dim
        for i, lv in enumerate(config.levels):
            d = _init_mlp(rng, params, f"down{i}", d + 3, lv.widths)
            dims.append(d)
        emb_in = 2 * d + 3
        d = _init_mlp(rng, params, "embed", emb_in, config.embedding_widths)
        for s in range(config.smoothing_convs):
            d = _init_mlp(rng, params, f"embed.smooth{s}", d + 3,
                          (config.embedding_widths[-1],))
        skip_dims = [feat_dim] + dims[:-1]
        for j in range(len(config.levels)):
            skip = skip_dims[len(config.levels) - 1 - j]
            d = _init_mlp(rng, params, f"up{j}", d + skip, config.upconv_widths[j])
        params["reg.W"] = parameter(rng.normal(0.0, np.sqrt(1.0 / d), size=(d, 3)))
        params["reg.b"] = parameter(np.zeros(3))
        return cls(config, params)

    @classmethod
    def zeros(cls, config: NetworkConfig) -> "DisplacementNet":
        """All-zero weights; forward output is the (zero) regression bias
        times the head's unit."""
        model = cls.create(config)
        for t in model.params.values():
            t.value[...] = 0.0
        return model

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def forward(self, x_l: ParticleSet, x_h: ParticleSet) -> Tensor:
        """Per-low-particle displacement (count_l, 3) as a tape tensor."""
        return self.apply(geometry_plan(x_l.positions, x_h.positions, self.config),
                          x_l.velocities, x_h.velocities)

    def apply(self, plan, v_l: np.ndarray, v_h: np.ndarray) -> Tensor:
        """The numeric half of a forward pass: displacements from a
        `geometry_plan` and the velocities of its low and high particles."""
        return _apply(self.params, self.config, plan, v_l, v_h)

    def predict(self, x_l: ParticleSet, x_h: ParticleSet) -> np.ndarray:
        """Displacements as a plain array: the values of `forward`, bit for
        bit, from a pass over constant views of the parameters that records
        nothing for a backward pass."""
        params = {k: Tensor(t.value) for k, t in self.params.items()}
        return _apply(params, self.config,
                      geometry_plan(x_l.positions, x_h.positions, self.config),
                      x_l.velocities, x_h.velocities).value

    # -- checkpointing ---------------------------------------------------

    MAGIC = b"FFN1"
    VERSION = 2

    def save(self, path: str):
        with open(path, "wb") as f:
            f.write(self._serialize())

    def _serialize(self) -> bytes:
        buf = io.BytesIO()
        buf.write(self.MAGIC)
        buf.write(struct.pack("<I", self.VERSION))
        cfg = self.config.to_json().encode("utf-8")
        buf.write(struct.pack("<I", len(cfg)))
        buf.write(cfg)
        buf.write(struct.pack("<I", len(self.params)))
        for name in sorted(self.params):
            data = np.ascontiguousarray(self.params[name].value, dtype="<f4")
            nm = name.encode("utf-8")
            buf.write(struct.pack("<H", len(nm)))
            buf.write(nm)
            buf.write(struct.pack("<B", data.ndim))
            buf.write(struct.pack(f"<{data.ndim}I", *data.shape))
            buf.write(data.tobytes())
        return buf.getvalue()

    @classmethod
    def load(cls, path: str) -> "DisplacementNet":
        with open(path, "rb") as f:
            raw = f.read()
        return cls._deserialize(raw, path)

    @classmethod
    def _deserialize(cls, raw: bytes, path: str) -> "DisplacementNet":
        from .io import _read_exact  # io imports this module at load time

        buf = io.BytesIO(raw)

        def read(n):
            return _read_exact(buf, n, path)

        if read(4) != cls.MAGIC:
            raise ValueError(f"{path} is not a displacement-net checkpoint")
        (version,) = struct.unpack("<I", read(4))
        if version == 1:
            raise ValueError(f"{path}: checkpoint version 1 predicts in world units, "
                             "which this network does not read; retrain it")
        if version != cls.VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (clen,) = struct.unpack("<I", read(4))
        text = read(clen)
        try:
            config = NetworkConfig.from_json(text.decode("utf-8"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

        (n,) = struct.unpack("<I", read(4))
        params = {}
        for _ in range(n):
            (nlen,) = struct.unpack("<H", read(2))
            name = read(nlen).decode("utf-8")
            (ndim,) = struct.unpack("<B", read(1))
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim))
            count = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(read(4 * count), dtype="<f4").reshape(shape)
            params[name] = arr.astype(np.float64)
        want = cls.create(config).params
        for name in sorted(set(want) | set(params)):
            if name not in params:
                raise ValueError(f"{path}: parameter {name} is missing")
            if name not in want:
                raise ValueError(f"{path}: parameter {name} is not in the network")
            if params[name].shape != want[name].shape:
                raise ValueError(f"{path}: parameter {name} has shape "
                                 f"{params[name].shape}, the network needs {want[name].shape}")
        return cls(config, {k: parameter(v) for k, v in params.items()})


def neighborhood_assignment(positions: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Map each particle to its nearest first-level neighborhood center."""
    return nearest_indices(centers, positions)


# -- loss and training ----------------------------------------------------------

def loss_up(omega, omega_star, omega_back, lam: np.ndarray,
            assignment: np.ndarray):
    """Deformation-aware loss: mean over particles of
    ||w - w*||_1 + lambda_[assignment] * ||w_back - w||_1."""
    omega = as_tensor(omega)
    omega_back = as_tensor(omega_back)
    omega_star = np.asarray(omega_star, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    assignment = np.asarray(assignment)
    n = omega.value.shape[0]
    if omega_star.shape[0] != n or omega_back.value.shape[0] != n \
            or assignment.shape[0] != n:
        raise LengthMismatch("loss inputs must share the particle count")
    if np.any(lam < 0.0):
        raise ValueError("lambda weights must be non-negative")
    lam_p = lam[assignment]
    flow_term = (omega - omega_star).abs().sum(axis=1)
    cycle_term = (omega_back - omega).abs().sum(axis=1) * lam_p
    return (flow_term + cycle_term).mean()


def sample_plan(sample: TrainingSample, config: NetworkConfig):
    """The geometry of one sample's loss: plans of the forward pass on
    (x_l, x_h) and of the cycle pass on (x_l + ground truth, x_l), each low
    particle's first-level neighborhood, and every neighborhood's mean
    lambda weight. The neighborhoods are those of the forward plan's first
    low downsampling, so each point set is sampled once."""
    x_l = sample.x_l.positions
    forward = geometry_plan(x_l, sample.x_h.positions, config)
    displaced = ParticleSet(x_l + sample.gt_displacement, sample.x_l.velocities)
    cycle = geometry_plan(displaced.positions, x_l, config)
    centers = forward[0][0].centers
    assign = neighborhood_assignment(x_l, centers)
    lam = np.bincount(assign, weights=sample.lambda_weights, minlength=len(centers))
    counts = np.bincount(assign, minlength=len(centers))
    lam = np.where(counts > 0, lam / np.maximum(counts, 1.0), 0.0)
    return forward, cycle, assign, lam


def _plan_loss(model: DisplacementNet, sample: TrainingSample, plan):
    forward, cycle, assign, lam = plan
    v = sample.x_l.velocities
    omega = model.apply(forward, v, sample.x_h.velocities)
    omega_back = model.apply(cycle, v, v)
    return loss_up(omega, sample.gt_displacement, omega_back, lam, assign), omega


def sample_loss(model: DisplacementNet, sample: TrainingSample):
    """Full loss of one sample, including the cycle pass re-predicted from the
    ground-truth-displaced coordinates. Returns (loss tensor, omega tensor)."""
    return _plan_loss(model, sample, sample_plan(sample, model.config))


def _plan_gradients(model: DisplacementNet, sample: TrainingSample, plan):
    model.zero_grad()
    loss, _ = _plan_loss(model, sample, plan)
    loss.backward()
    grads = {k: (t.grad if t.grad is not None else np.zeros_like(t.value))
             for k, t in model.params.items()}
    return float(loss.value), grads


def loss_gradients(model: DisplacementNet, sample: TrainingSample):
    """Loss value and exact parameter gradients for one sample."""
    return _plan_gradients(model, sample, sample_plan(sample, model.config))


class AdamState:
    """Adaptive-moment update, bias-corrected, with the usual moment decays
    0.9 and 0.999 and denominator guard 1e-8."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, model: DisplacementNet, lr: float):
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.value) for k, p in model.params.items()}
        self.v = {k: np.zeros_like(p.value) for k, p in model.params.items()}

    def step(self, model: DisplacementNet, grads: dict):
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        b1t = 1.0 - b1 ** self.t
        b2t = 1.0 - b2 ** self.t
        for k in sorted(model.params):
            g = grads[k]
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            update = (self.m[k] / b1t) / (np.sqrt(self.v[k] / b2t) + self.EPS)
            model.params[k].value -= self.lr * update


def evaluate_loss(model: DisplacementNet, samples: list[TrainingSample], plans) -> float:
    """Mean loss over samples, given their `sample_plan`s."""
    vals = [float(_plan_loss(model, s, p)[0].value) for s, p in zip(samples, plans)]
    return float(np.mean(vals)) if vals else float("nan")


def train(dataset: list[TrainingSample], config: NetworkConfig, epochs: int,
          val: list[TrainingSample] | None = None, lr: float = 1e-3):
    """Adam training loop; deterministic for a fixed config seed.

    The learning rate anneals on a cosine from `lr` to a tenth of it.
    Returns (model, history) with per-epoch mean train loss and, when a
    validation list is given, per-epoch validation loss. The geometry of
    every sample is built once, before the first epoch. Raises ValueError
    for an empty dataset, `epochs` below 1, or an `lr` that is not positive
    and finite.
    """
    if not dataset:
        raise ValueError("training needs a non-empty dataset")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    check_positive("lr", lr)
    plans = [sample_plan(s, config) for s in dataset]
    val_plans = [sample_plan(s, config) for s in val or ()]
    model = DisplacementNet.create(config)
    opt = AdamState(model, lr=lr)
    rng = np.random.default_rng(config.seed)
    history = {"train": [], "val": []}
    for epoch in range(epochs):
        if epochs > 1:
            frac = epoch / (epochs - 1)
            opt.lr = lr * (_LR_DECAY + (1 - _LR_DECAY)
                           * 0.5 * (1 + np.cos(np.pi * frac)))
        order = rng.permutation(len(dataset))
        losses = []
        for si in order:
            loss_val, grads = _plan_gradients(model, dataset[si], plans[si])
            if not np.isfinite(loss_val):
                raise NonFiniteLoss(
                    f"non-finite loss {loss_val} at epoch {epoch}, sample {si}")
            opt.step(model, grads)
            losses.append(loss_val)
        history["train"].append(float(np.mean(losses)))
        if val:
            history["val"].append(evaluate_loss(model, val, val_plans))
    return model, history
