"""Command-line interface.

Subcommands:
  gen-dataset --config <file> --out <dir>
  augment     --manifest <file> --alphas 0.25,0.5,0.75 --seed N
  solve-flow  --low <frames> --high <frames> --out <field> [--no-align]
  train       --manifest <file> --config <file> --epochs N --ckpt <file>
  infer       --input <frames> --ckpt <file> --passes N --out <frames>
  eval        --pred <frames> --ref <frames> [--threshold 0.1]
  export-obj  --frames <dir> --out <dir>

Frame arguments name directories of UPF1 files (plus UGR1 velocity grids for
inference inputs). The `eval` command compares the stored per-particle
velocity vectors as displacements.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io as uio
from .dataset import augment as augment_pairs
from .dataset import gen_dataset, make_training_samples
from .grids import GridDesc
from .inference import InferenceConfig, infer_frame
from .metrics import epe, flow_accuracy
from .net import DisplacementNet, NetworkConfig, train as train_net
from .optflow import FlowParams, SpaceTimeSDF, blend_weight, stack_flow
from .sdf import sdf_from_particles


def _frame_names(path: str) -> list[str]:
    """The sorted .upf file names in `path`; exits naming `path` when there are none."""
    names = sorted(n for n in os.listdir(path) if n.endswith(".upf"))
    if not names:
        raise SystemExit(f"no .upf frames found in {path}")
    return names


def _paired_frame_dirs(path_a: str, path_b: str, verb: str):
    """The frames of two directories and their file names, cut to the
    shorter; a line names the frames left out."""
    names_a, names_b = _frame_names(path_a), _frame_names(path_b)
    a, b = ([uio.load_particles(os.path.join(path, n)) for n in names]
            for path, names in ((path_a, names_a), (path_b, names_b)))
    t = min(len(a), len(b))
    if len(a) != len(b):
        print(f"{path_a} holds {len(a)} frames and {path_b} {len(b)}; {verb} the "
              f"first {t}, leaving out {', '.join(names_a[t:] + names_b[t:])}")
    return (a[:t], names_a[:t]), (b[:t], names_b[:t])


def _cmd_gen_dataset(args):
    name, frames, seed, theta, defaults, sim_low, sim_high = \
        uio.parse_dataset_config(args.config)
    manifest = gen_dataset(theta, sim_low, sim_high, frames, name=name, seed=seed,
                           scene_defaults=defaults)
    path = uio.write_manifest(manifest, args.out)
    print(f"wrote {len(manifest.pairs)} pairs x {frames} frames to {path}")


def _cmd_augment(args):
    manifest = uio.read_manifest(args.manifest)
    grown = augment_pairs(manifest, args.alphas, seed=args.seed)
    base = args.manifest if os.path.isdir(args.manifest) \
        else os.path.dirname(args.manifest)
    path = uio.write_manifest(grown, base)
    print(f"augmented {len(manifest.pairs)} -> {len(grown.pairs)} pairs ({path})")


def _blend_weights(text: str) -> list[float]:
    """argparse type of --alphas: comma-separated weights, each in [0, 1]."""
    try:
        return [blend_weight(a) for a in text.split(",") if a.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _frames_bounds(frames):
    lo = np.min([f.positions.min(axis=0) for f in frames], axis=0)
    hi = np.max([f.positions.max(axis=0) for f in frames], axis=0)
    return lo, hi


def _cmd_solve_flow(args):
    (low, names_low), (high, names_high) = _paired_frame_dirs(args.low, args.high, "solving")
    for path, frames, names in ((args.low, low, names_low), (args.high, high, names_high)):
        for f, name in zip(frames, names):
            if not f.count:
                raise SystemExit(f"{os.path.join(path, name)} holds no particles to surface")
    lo1, hi1 = _frames_bounds(low)
    lo2, hi2 = _frames_bounds(high)
    lo = np.minimum(lo1, lo2)
    hi = np.maximum(hi1, hi2)
    # two cells of margin on each side of the frames along every axis
    cell = float(np.max((hi - lo) / (np.asarray(args.dims) - 4)))
    origin = lo - 2 * cell
    desc = GridDesc(tuple(origin), cell, args.dims)
    src = SpaceTimeSDF([sdf_from_particles(p, desc) for p in low], dt=1.0)
    dst = SpaceTimeSDF([sdf_from_particles(p, desc) for p in high], dt=1.0)
    fields, info = stack_flow(src, dst, FlowParams(), align=not args.no_align)
    if len(fields) == 1:
        uio.save_grid(args.out, fields[0])
        written = [args.out]
    else:
        stem, ext = os.path.splitext(args.out)
        written = []
        for i, f in enumerate(fields):
            p = f"{stem}_{i:03d}{ext or '.ugr'}"
            uio.save_grid(p, f)
            written.append(p)
    status = "converged" if info.converged else "NOT converged"
    print(f"flow solve {status} after {info.iterations} iterations "
          f"(residual {info.residual:.2e}); wrote {', '.join(written)}")
    return 0 if info.converged else 1


def _grid_dims(text: str) -> tuple[int, int, int]:
    """argparse type of --dims: three integers, each at least 5."""
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError:
        dims = ()
    if len(dims) != 3 or min(dims) < 5:
        raise argparse.ArgumentTypeError(
            f"expected three comma-separated integers >= 5, got {text!r}")
    return dims


def _positive_int(text: str) -> int:
    """argparse type of --epochs and --passes: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _cmd_train(args):
    net_cfg, opts = uio.parse_net_config(args.config)
    manifest = uio.read_manifest(args.manifest)
    samples = make_training_samples(manifest)
    if not samples:
        raise SystemExit("manifest produced no training samples")
    if net_cfg is None:
        n = max(s.x_l.count for s in samples)
        net_cfg = NetworkConfig.default(n, manifest.sim_low.particle_spacing)
    n_val = int(len(samples) * opts.pop("val_fraction", 0.0))
    val = samples[:n_val]
    tr = samples[n_val:]
    model, history = train_net(tr, net_cfg, args.epochs, val=val or None, **opts)
    model.save(args.ckpt)
    last_val = f", val {history['val'][-1]:.5f}" if history["val"] else ""
    print(f"trained {args.epochs} epochs on {len(tr)} samples: "
          f"loss {history['train'][0]:.5f} -> {history['train'][-1]:.5f}{last_val}; "
          f"checkpoint {args.ckpt}")


def _time_step(text: str) -> float:
    """argparse type of --dt: a finite number > 0."""
    dt = float(text)
    if not 0.0 < dt < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a time step > 0, got {text!r}")
    return dt


def _threshold(text: str) -> float:
    """argparse type of --threshold: a finite number >= 0."""
    value = float(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"expected a finite threshold >= 0, got {text!r}")
    return value


def _cmd_infer(args):
    names = _frame_names(args.input)
    # each <stem>.upf moves through vel_<stem>.ugr, as write_manifest lays out
    vels = [f"vel_{n[:-4]}.ugr" for n in names]
    for fn, vn in zip(names, vels):
        if not os.path.isfile(os.path.join(args.input, vn)):
            raise SystemExit(f"{fn} has no velocity grid {vn} in {args.input}")
    model = DisplacementNet.load(args.ckpt)
    os.makedirs(args.out, exist_ok=True)
    cfg = InferenceConfig(passes=args.passes)
    for i, (fn, vn) in enumerate(zip(names, vels)):
        x = uio.load_particles(os.path.join(args.input, fn))
        u = uio.load_grid(os.path.join(args.input, vn))
        out = infer_frame(x, u, model, cfg, dt=args.dt)
        dst = os.path.join(args.out, f"frame_{i:03d}.upf")
        uio.save_particles(dst, out)
        # up-res'd particles that left the input velocity grid's box
        outside = np.any((out.positions < u.desc.origin) | (out.positions > u.desc.upper),
                         axis=1).sum()
        print(f"{fn}: {x.count} -> {out.count} particles, {outside} outside the grid "
              f"({dst})")


def _cmd_eval(args):
    (pred, names_p), (ref, names_r) = _paired_frame_dirs(args.pred, args.ref, "comparing")
    errs, accs = [], []
    for p, r, name_p, name_r in zip(pred, ref, names_p, names_r):
        try:
            errs.append(epe(p.positions, p.velocities, r.positions, r.velocities))
            accs.append(flow_accuracy(p.positions, p.velocities, r.positions,
                                      r.velocities, threshold=args.threshold))
        except ValueError as exc:
            raise SystemExit(f"{os.path.join(args.pred, name_p)} against "
                             f"{os.path.join(args.ref, name_r)}: {exc}") from exc
    for i, (e, a) in enumerate(zip(errs, accs)):
        print(f"frame {i:03d}: epe {e:.6f}  flow-accuracy {a:.4f}")
    print(f"mean: epe {np.mean(errs):.6f}  flow-accuracy {np.mean(accs):.4f}")


def _cmd_export_obj(args):
    written = uio.export_obj(args.frames, args.out)
    print(f"wrote {len(written)} obj files to {args.out}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="upflow",
                                 description="particle-liquid up-resing toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-dataset", help="simulate a paired dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_dataset)

    p = sub.add_parser("augment", help="grow a dataset by flow interpolation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--alphas", type=_blend_weights, default="0.5")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_augment)

    p = sub.add_parser("solve-flow", help="solve the inter-resolution flow field")
    p.add_argument("--low", required=True)
    p.add_argument("--high", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-align", action="store_true")
    p.add_argument("--dims", type=_grid_dims, default="32,32,32")
    p.set_defaults(fn=_cmd_solve_flow)

    p = sub.add_parser("train", help="train the displacement network")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--epochs", type=_positive_int, required=True)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("infer", help="up-res frames with a trained checkpoint")
    p.add_argument("--input", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--passes", type=_positive_int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--dt", type=_time_step, required=True)
    p.set_defaults(fn=_cmd_infer)

    p = sub.add_parser("eval", help="end-point error and flow accuracy")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--threshold", type=_threshold, default=0.1)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("export-obj", help="dump particle frames as OBJ points")
    p.add_argument("--frames", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_export_obj)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args) or 0


if __name__ == "__main__":
    sys.exit(main())
