"""Dataset generation, interpolation-based augmentation, and sample assembly.

A dataset is a list of simulation pairs: the same scene simulated at two
resolutions with the same seed. Augmentation morphs each pair toward a
randomly chosen partner pair (low track and high track separately) with the
inter-resolution flow solver at the requested blend weights; training
samples are built by solving the low-to-high flow of each pair once over its
whole frame stack and sampling the resulting field at the low particles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import SolverDiverged
from .flip import SceneSpec, SimFrame, SimParams, simulate
from .grids import GridDesc, sample_trilinear
from .net import TrainingSample
from .optflow import FlowParams, SpaceTimeSDF, blend_weight, displace_particles, stack_flow
from .sdf import sdf_from_particles


@dataclass
class ParamMatrix:
    """Cross-product enumeration of initial-condition values."""

    shapes: list[str]
    obstacle_positions: list[tuple[float, float, float]]
    emitter_positions: list[tuple[float, float, float]]
    container_dims: list[tuple[float, float, float]]

    def __post_init__(self):
        if not (self.shapes and self.obstacle_positions
                and self.emitter_positions and self.container_dims):
            raise ValueError("every parameter axis needs at least one value")

    def __len__(self) -> int:
        return (len(self.shapes) * len(self.obstacle_positions)
                * len(self.emitter_positions) * len(self.container_dims))

    def scenes(self, defaults: SceneSpec | None = None) -> list[SceneSpec]:
        base = defaults if defaults is not None else SceneSpec()
        out = []
        for shape, xo, xem, cd in itertools.product(
                self.shapes, self.obstacle_positions,
                self.emitter_positions, self.container_dims):
            out.append(replace(base, obstacle_shape=shape, obstacle_position=tuple(xo),
                               emitter_position=tuple(xem), container_dims=tuple(cd)))
        return out


@dataclass
class PairRecord:
    """One low/high simulation pair plus its provenance."""

    scene: SceneSpec
    low_frames: list[SimFrame]
    high_frames: list[SimFrame]
    seed: int
    augmented: bool = False
    source_pair_ids: tuple[int, ...] = ()


@dataclass
class DatasetManifest:
    name: str
    sim_low: SimParams
    sim_high: SimParams
    pairs: list[PairRecord] = field(default_factory=list)


def gen_dataset(theta: ParamMatrix, sim_low: SimParams, sim_high: SimParams,
                frames: int, name: str = "Colliding", seed: int = 0,
                scene_defaults: SceneSpec | None = None) -> DatasetManifest:
    """Simulate one low/high pair per parameter combination.

    Both tracks of a pair run with the same scene and the same seed; a
    diverging pressure solve is re-raised with the offending combination.
    """
    manifest = DatasetManifest(name=name, sim_low=sim_low, sim_high=sim_high)
    for i, scene in enumerate(theta.scenes(scene_defaults)):
        pair_seed = seed + i
        try:
            low = simulate(scene, sim_low, frames, seed=pair_seed)
            high = simulate(scene, sim_high, frames, seed=pair_seed)
        except SolverDiverged as exc:
            raise SolverDiverged(f"parameter set {i} ({scene}) diverged: {exc}") from exc
        manifest.pairs.append(PairRecord(scene, low, high, pair_seed))
    return manifest


def _require_particles(pairs: list[PairRecord]):
    """Raise ValueError naming the pair, track and frame of the first frame
    without particles: it has no surface to solve a flow on."""
    for i, pair in enumerate(pairs):
        for track in ("low", "high"):
            for fi, f in enumerate(getattr(pair, f"{track}_frames")):
                if f.particles.count == 0:
                    raise ValueError(f"pair {i}, {track} track, frame {fi} has no "
                                     "particles to surface")


def _track_stack(frames: list[SimFrame], desc: GridDesc, dt: float) -> SpaceTimeSDF:
    return SpaceTimeSDF([sdf_from_particles(f.particles, desc) for f in frames], dt=dt)


def augment(manifest: DatasetManifest, alphas: list[float], seed: int = 0,
            flow_params: FlowParams | None = None) -> DatasetManifest:
    """Grow the dataset by |alphas| morphed pairs per original pair.

    Every original pair is matched with one random partner (seeded); the
    low and high tracks are morphed separately toward the partner's tracks
    at each blend weight. Output size = input * (1 + len(alphas)).
    Raises ValueError, before any surfacing or solve, for a weight outside
    [0, 1] or a frame without particles; CGNotConverged, naming the pair and
    track, when a flow solve runs out of iterations.
    """
    alphas = [blend_weight(a) for a in alphas]
    if len(manifest.pairs) < 2:
        raise ValueError("augmentation needs at least two pairs")
    _require_particles(manifest.pairs)
    if flow_params is None:
        flow_params = FlowParams()
    rng = np.random.default_rng(seed)
    out = DatasetManifest(name=manifest.name, sim_low=manifest.sim_low,
                          sim_high=manifest.sim_high, pairs=list(manifest.pairs))
    originals = list(manifest.pairs)
    n = len(originals)
    if not alphas:
        return out
    partners = []
    for i in range(n):
        j = int(rng.integers(0, n - 1))
        partners.append(j + (j >= i))
    # a pair's SDF stacks serve once as source and once per pair that picks
    # it as partner: build them on first use, drop them after the last
    uses = (1 + np.bincount(partners, minlength=n)).tolist()
    stacks = {}
    for i, pair in enumerate(originals):
        j = partners[i]
        morphed_tracks = {}
        for track, params in (("low", manifest.sim_low), ("high", manifest.sim_high)):
            for k in (i, j):
                if (k, track) not in stacks:
                    stacks[k, track] = _track_stack(getattr(originals[k], f"{track}_frames"),
                                                    params.domain, params.dt)
            fields, info = stack_flow(stacks[i, track], stacks[j, track], flow_params)
            info.require_converged(f"pair {i} -> pair {j}, {track} track")
            morphed_tracks[track] = (getattr(pair, f"{track}_frames"), fields)
        for k in (i, j):
            uses[k] -= 1
            if not uses[k]:
                del stacks[k, "low"], stacks[k, "high"]
        for alpha in alphas:
            new_tracks = {}
            for track in ("low", "high"):
                src_frames, fields = morphed_tracks[track]
                new_tracks[track] = [
                    SimFrame(displace_particles(f.particles, fld, alpha), f.velocity.copy())
                    for f, fld in zip(src_frames, fields)]
            out.pairs.append(PairRecord(pair.scene, new_tracks["low"],
                                        new_tracks["high"], pair.seed,
                                        augmented=True, source_pair_ids=(i, j)))
    return out


def make_training_samples(manifest: DatasetManifest,
                          flow_params: FlowParams | None = None) -> list[TrainingSample]:
    """Low-to-high flow targets for every frame of every pair.

    Both SDF stacks are built on the low track's grid; the flow field is
    solved once per pair over the whole stack, sampled at the low particles
    as the ground-truth displacement, and its per-particle normalized
    magnitude becomes the adaptive loss weight (zero field -> all-zero
    weights). Raises ValueError, naming the pair, track and frame, for a
    frame without particles, and CGNotConverged, naming the pair, when a
    flow solve runs out of iterations.
    """
    if flow_params is None:
        flow_params = FlowParams()
    _require_particles(manifest.pairs)
    desc, dt = manifest.sim_low.domain, manifest.sim_low.dt
    samples = []
    for i, pair in enumerate(manifest.pairs):
        fields, info = stack_flow(_track_stack(pair.low_frames, desc, dt),
                                  _track_stack(pair.high_frames, desc, dt), flow_params)
        info.require_converged(f"pair {i}, low -> high track")
        for fi, (f, fld) in enumerate(zip(pair.low_frames, fields)):
            gt = sample_trilinear(fld, f.particles.positions)
            mag = np.linalg.norm(gt, axis=1)
            peak = mag.max()
            lam = mag / peak if peak > 0 else np.zeros_like(mag)
            samples.append(TrainingSample(f.particles.copy(),
                                          pair.high_frames[fi].particles.copy(),
                                          gt, lam))
    return samples
