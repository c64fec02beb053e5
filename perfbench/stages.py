"""The three stages the benchmark times, each as inputs plus one round.

A stage builds its inputs from the seed once, then runs rounds. A round
calls the same library functions the matching ``upflow`` CLI verbs call,
times them, and then checks their outputs:

- DatasetStage: ``gen-dataset`` (twice), ``augment`` and the labelling
  half of ``train`` (gen_pair_s, augment_pair_s, label_pair_s; each unit
  is one call divided by the number of pairs);
- TrainStage: ``train`` (train_step_s; one call divided by epochs x
  samples);
- UpresStage: ``infer`` and ``eval`` (upres_frame_s, eval_frame_s; one
  unit per frame).

Each stage comes in two sizes. "full" is the size of the workload named
after the stage; "small" is the size at which the other workloads run it,
so every workload reports every metric while its own stage does nearly all
of its work. Checks of a stage's own outputs run at both sizes; the three
probe checks that make library calls of their own (shifted-pair labels,
zero-network transport, held-out error) run at full size only, where their
cost does not crowd out the units of the small stages.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np

import upflow as uf
from upflow import io as uio
from upflow.dataset import DatasetManifest, PairRecord, ParamMatrix

import checks

# One grid scale for every track: cell = 2 * particle separation * 2.
GRID_SCALE = 2.0

DATASET_SIZES = {
    # low 10^3 / high 12^3 cells, ~540 / ~1800 particles per pair at frame 0
    "full": dict(low_ps=0.0125, high_ps=0.0104, frames=2),
    "small": dict(low_ps=0.0167, high_ps=0.0125, frames=2),
}
TRAIN_SIZES = {
    # A ball of radius 0.075 holds ~200 particles at separation 0.02; the
    # held-out check needs ~20 steps to hold on every seed.
    "full": dict(radius=0.075, samples=4, epochs=5),
    "small": dict(radius=0.05, samples=2, epochs=3),
}
UPRES_SIZES = {
    # low 10^3 / reference 12^3 cells
    "full": dict(low_ps=0.0125, high_ps=0.0104, frames=2, band_per_cell=8, net_n=600),
    "small": dict(low_ps=0.0167, high_ps=0.0125, frames=2, band_per_cell=4, net_n=96),
}

EXTENT = 0.5
ALPHAS = [0.25, 0.75]
# gen is short; two units a round give its median more samples
GEN_REPEATS = 2
TRAIN_SEPARATION = 0.02
TRAIN_LR = 5e-2
EVAL_THRESHOLD = 0.1
EVAL_EPS = 0.001
HEAD_SCALE = 0.01


def _sim(ps: float) -> uf.SimParams:
    return uf.SimParams.for_domain(ps, GRID_SCALE, (0, 0, 0), (EXTENT,) * 3)


def _blob(rng, center, radius, spacing):
    """A jittered lattice of liquid particles filling a ball."""
    g = np.arange(-radius, radius + 1e-9, spacing)
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = pts[np.linalg.norm(pts, axis=1) <= radius]
    return center + pts + rng.uniform(-0.3 * spacing, 0.3 * spacing, size=pts.shape)


class Stage:
    """Shared bookkeeping of the timed operations of a round.

    ``_op(metric, call, check)`` runs ``call()``, which times its library
    calls and returns (seconds, units, outputs), then ``check(outputs)``,
    which returns a list of reasons (None for a passed check). The unit
    value is seconds / units. An operation that raises or fails a check
    counts as failed. With ``tracer`` set, the layer times and counts of
    each call (checks excluded) are kept per unit in ``layers[metric]``.
    """

    metrics: tuple[str, ...] = ()

    def __init__(self, size: str):
        self.probes = size == "full"
        self.tracer = None
        self.layers = {}
        self.results = []
        self.solves = []          # flow solves captured by the tracer

    def on_call(self, layer, args, kwargs, result):
        if layer == "optflow.cg_s":
            self.solves.append((args[0], args[1], args[2], result[0]))

    def _snapshot(self):
        return {**self.tracer.times, **self.tracer.counts}

    def _op(self, metric, call, check):
        self.solves.clear()
        try:
            before = self._snapshot() if self.tracer else None
            seconds, units, out = call()
            if self.tracer:
                after = self._snapshot()
                self.layers.setdefault(metric, []).append(
                    {k: (v - before.get(k, 0.0)) / units for k, v in after.items()})
            reasons = [r for r in check(out) if r]
        except Exception as exc:  # an operation that raises counts as failed
            self.results.append((metric, None, [f"{type(exc).__name__}: {exc}"]))
            return
        self.results.append((metric, seconds / units, reasons))

    def _residuals(self):
        return [checks.flow_residual(a, b, u, params.cg_tol)
                for a, b, params, u in self.solves]

    def run_round(self):
        self.results = []
        self.round()
        return self.results


class DatasetStage(Stage):
    metrics = ("gen_pair_s", "augment_pair_s", "label_pair_s")

    def __init__(self, size: str, seed: int, workdir: str):
        super().__init__(size)
        p = DATASET_SIZES[size]
        self.seed = seed
        self.frames = p["frames"]
        self.sim_low, self.sim_high = _sim(p["low_ps"]), _sim(p["high_ps"])
        self.theta = ParamMatrix(shapes=["sphere", "cube"],
                                 obstacle_positions=[(0.25, 0.15, 0.25)],
                                 emitter_positions=[(0.25, 0.4, 0.25)],
                                 container_dims=[(EXTENT,) * 3])
        self.defaults = uf.SceneSpec(container_dims=(EXTENT,) * 3, obstacle_size=0.06,
                                     pool_depth=0.25, emit_rate=10, emit_radius=0.03)
        self.pairs = len(self.theta)
        self.gen_dir = os.path.join(workdir, "dataset")
        self.aug_dir = os.path.join(workdir, "augmented")
        self.rt_dir = os.path.join(workdir, "roundtrip")
        self.digests = {}
        if self.probes:
            self._build_shift_probe(seed)

    def _build_shift_probe(self, seed):
        """Two frames of a free ball of liquid on a 10^3 grid and the same
        frames moved up by one cell. Away from walls the labels of such a
        pair must follow the shift; see checks.label_follows_shift."""
        sim = _sim(0.0125)
        rng = np.random.default_rng([seed, 5])
        center = 0.25 + rng.uniform(-0.01, 0.01, size=3)
        self.shift = np.array([0.0, sim.domain.cell_size, 0.0])
        low, high = [], []
        for k in range(2):
            x = _blob(rng, center + np.array([0.01 * k, 0.0, 0.0]), 0.1, 0.025)
            still = uf.MACGrid.zeros(sim.domain)
            low.append(uf.SimFrame(uf.ParticleSet(x, np.zeros_like(x)), still))
            high.append(uf.SimFrame(uf.ParticleSet(x + self.shift, np.zeros_like(x)), still))
        self.shifted = DatasetManifest("shifted", sim, sim,
                                       [PairRecord(uf.SceneSpec(), low, high, seed)])

    def _same(self, key, arrays):
        now = checks.digest(arrays)
        before = self.digests.get(key)
        self.digests[key] = now
        return checks.same_as_before(now, before, key)

    def _gen(self):
        for d in (self.gen_dir, self.aug_dir, self.rt_dir):
            shutil.rmtree(d, ignore_errors=True)
        start = time.perf_counter()
        m = uf.gen_dataset(self.theta, self.sim_low, self.sim_high, self.frames,
                           name="bench", seed=self.seed, scene_defaults=self.defaults)
        uio.write_manifest(m, self.gen_dir)
        return time.perf_counter() - start, self.pairs, m

    def _check_gen(self, m):
        reasons, arrays = [], []
        for i, pair in enumerate(m.pairs):
            upper = np.asarray(pair.scene.container_dims)
            for track in ("low", "high"):
                frames = getattr(pair, f"{track}_frames")
                what = f"pair {i} {track}"
                reasons.append(checks.counts_never_fall(
                    [f.particles.count for f in frames], what))
                for f in frames:
                    reasons.append(checks.inside_box(f.particles.positions, 0.0, upper, what))
                    arrays += [f.particles.positions, f.particles.velocities,
                               f.velocity.u, f.velocity.v, f.velocity.w]
        reasons.append(self._same("generated dataset", arrays))
        return reasons

    def _augment(self):
        start = time.perf_counter()
        m = uio.read_manifest(self.gen_dir)
        grown = uf.augment(m, ALPHAS, seed=self.seed)
        uio.write_manifest(grown, self.aug_dir)
        return time.perf_counter() - start, self.pairs, (m, grown)

    def _check_augment(self, out):
        m, grown = out
        counts = [([f.particles.count for f in p.low_frames],
                   [f.particles.count for f in p.high_frames]) for p in m.pairs]
        reasons = [checks.augmented_shape(len(m.pairs), len(ALPHAS), grown.pairs, counts)]
        reasons += self._residuals()
        uio.write_manifest(m, self.rt_dir)
        reasons.append(checks.same_tree(self.gen_dir, self.rt_dir))
        reasons.append(self._same("augmented dataset", [
            f.particles.positions for p in grown.pairs[len(m.pairs):]
            for f in p.low_frames + p.high_frames]))
        return reasons

    def _label(self):
        start = time.perf_counter()
        m = uio.read_manifest(self.gen_dir)
        samples = uf.make_training_samples(m)
        return time.perf_counter() - start, self.pairs, samples

    def _check_label(self, samples):
        reasons = self._residuals()
        reasons.append(self._same("labels", [a for s in samples
                                             for a in (s.gt_displacement, s.lambda_weights)]))
        if self.probes:
            labels = np.concatenate([s.gt_displacement
                                     for s in uf.make_training_samples(self.shifted)])
            reasons.append(checks.label_follows_shift(labels, self.shift))
        return reasons

    def round(self):
        for _ in range(GEN_REPEATS):
            self._op("gen_pair_s", self._gen, self._check_gen)
        self._op("augment_pair_s", self._augment, self._check_augment)
        self._op("label_pair_s", self._label, self._check_label)


class TrainStage(Stage):
    """Synthetic samples with the smooth analytic displacement
    w*(x) = t + s x (x - c): a translation plus a small rotation."""

    metrics = ("train_step_s",)
    TRANSLATION = np.array([0.1, 0.0, 0.0])
    SPIN = np.array([0.0, 0.5, 0.0])

    def __init__(self, size: str, seed: int, workdir: str):
        super().__init__(size)
        p = TRAIN_SIZES[size]
        rng = np.random.default_rng([seed, 2])
        self.samples = [self._sample(rng, p["radius"]) for _ in range(p["samples"])]
        self.held_out = self._sample(rng, p["radius"])
        self.epochs = p["epochs"]
        n = max(s.x_l.count for s in self.samples)
        ps = TRAIN_SEPARATION
        self.config = uf.NetworkConfig(
            levels=(uf.LevelConfig(n // 2, 2 * ps, (16,)),
                    uf.LevelConfig(n // 8, 4 * ps, (32,)),
                    uf.LevelConfig(n // 32, 8 * ps, (64,))),
            embedding_widths=(64,), embedding_radius=16 * ps, smoothing_convs=2,
            upconv_widths=((64,), (32,), (16,)), seed=seed)

    def _sample(self, rng, radius):
        center = 0.5 + rng.uniform(-0.05, 0.05, size=3)
        x = _blob(rng, center, radius, TRAIN_SEPARATION)
        w = self.TRANSLATION + np.cross(self.SPIN, x - center)
        v = w / 0.1
        mag = np.linalg.norm(w, axis=1)
        return uf.TrainingSample(uf.ParticleSet(x, v), uf.ParticleSet(x + w, v),
                                 w, mag / mag.max())

    def _train(self):
        start = time.perf_counter()
        out = uf.train(self.samples, self.config, self.epochs, lr=TRAIN_LR)
        return time.perf_counter() - start, self.epochs * len(self.samples), out

    def _check_train(self, out):
        model, history = out
        reasons = [checks.loss_fell(history)]
        if self.probes:
            held = self.held_out
            pred = model.predict(held.x_l, held.x_h)
            reasons.append(checks.beats_zero(pred, held.gt_displacement))
        return reasons

    def round(self):
        self._op("train_step_s", self._train, self._check_train)


class UpresStage(Stage):
    """Coarse FLIP frames up-res'd by a seeded (untrained) network, then
    scored against the high-res frames of the same scene."""

    metrics = ("upres_frame_s", "eval_frame_s")
    PROBE_VELOCITY = np.array([0.3, 0.0, 0.0])
    PROBE_DT = 0.05

    def __init__(self, size: str, seed: int, workdir: str):
        super().__init__(size)
        p = UPRES_SIZES[size]
        sim_low, sim_high = _sim(p["low_ps"]), _sim(p["high_ps"])
        scene = uf.SceneSpec(
            obstacle_shape="sphere", obstacle_position=(0.25, 0.15, 0.25),
            emitter_position=(0.25, 0.4, 0.25), container_dims=(EXTENT,) * 3,
            obstacle_size=0.06, pool_depth=0.25, emit_rate=10, emit_radius=0.03,
            liquid_shape="sphere", liquid_position=(0.3, 0.35, 0.3), liquid_size=0.08)
        n = p["frames"]
        self.low = uf.simulate(scene, sim_low, n + 1, seed=seed)[1:]
        self.high = uf.simulate(scene, sim_high, n + 1, seed=seed)[1:]
        self.dt = sim_low.dt
        self.model = uf.DisplacementNet.create(
            uf.NetworkConfig.default(p["net_n"], p["low_ps"], seed=seed))
        # Freshly initialised, the head predicts displacements near 1, twice
        # the container; scaled down they are a fraction of a cell, as a
        # trained network's are, so the up-res'd liquid stays in place.
        self.model.params["reg.W"].value *= HEAD_SCALE
        self.config = uf.InferenceConfig(band_target_per_cell=p["band_per_cell"], seed=seed)
        if self.probes:
            self._build_probe(seed)

    def _build_probe(self, seed):
        """A ball of liquid on a 10^3 grid for the zero-network check."""
        rng = np.random.default_rng([seed, 4])
        self.probe_desc = uf.GridDesc((0, 0, 0), 0.1, (10, 10, 10))
        c = np.array([0.5, 0.5, 0.5])
        pts = c + 0.16 * rng.uniform(-1, 1, size=(400, 3))
        pts = pts[np.linalg.norm(pts - c, axis=1) <= 0.16]
        self.probe = uf.ParticleSet(pts, np.zeros_like(pts))
        self.probe_net = uf.DisplacementNet.zeros(uf.NetworkConfig(
            levels=(uf.LevelConfig(16, 0.12, (6,)), uf.LevelConfig(8, 0.24, (8,)),
                    uf.LevelConfig(4, 0.45, (10,))),
            embedding_widths=(12,), embedding_radius=0.45, smoothing_convs=1,
            upconv_widths=((10,), (8,), (6,)), seed=seed))
        self.probe_config = uf.InferenceConfig(passes=2, band_target_per_cell=8, seed=seed)

    def _zero_net_transport(self):
        cfg = self.probe_config
        phi = uf.sdf_from_particles(self.probe, self.probe_desc, 0.75 * self.probe_desc.cell_size)
        band = uf.resample_narrow_band(self.probe, phi, cfg.d_b, cfg.band_target_per_cell,
                                       seed=cfg.seed, frame=0)
        out = uf.infer_frame(self.probe, uf.MACGrid.constant(self.probe_desc, self.PROBE_VELOCITY),
                             self.probe_net, cfg, dt=self.PROBE_DT)
        return checks.moved_by(out.positions, band.positions, self.PROBE_VELOCITY, self.PROBE_DT)

    def round(self):
        for i, (lo, hi) in enumerate(zip(self.low, self.high)):
            out = []

            def upres():
                start = time.perf_counter()
                x = uf.infer_frame(lo.particles, lo.velocity, self.model, self.config, self.dt)
                out.append(x)
                return time.perf_counter() - start, 1, x

            def check_upres(x):
                reasons = [checks.all_finite(x.positions, x.velocities)]
                if i == 0 and self.probes:
                    reasons.append(self._zero_net_transport())
                return reasons

            def evaluate():
                x, ref = out[0], hi.particles
                start = time.perf_counter()
                e = uf.epe(x.positions, x.velocities, ref.positions, ref.velocities)
                a = uf.flow_accuracy(x.positions, x.velocities, ref.positions,
                                     ref.velocities, threshold=EVAL_THRESHOLD, eps=EVAL_EPS)
                return time.perf_counter() - start, 1, (e, a, x, ref)

            def check_eval(res):
                e, a, x, ref = res
                return [checks.metrics_match(e, a, x.positions, x.velocities, ref.positions,
                                             ref.velocities, EVAL_THRESHOLD, EVAL_EPS)]

            self._op("upres_frame_s", upres, check_upres)
            self._op("eval_frame_s", evaluate, check_eval)


STAGES = {"dataset": DatasetStage, "train": TrainStage, "upres": UpresStage}
