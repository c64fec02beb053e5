"""On-disk formats: particle frames, grids, dataset manifests, and configs.

Binary layouts (all little-endian):

``UPF1`` particle frame
    magic ``UPF1`` | u32 version | u64 count | f32 positions (count*3)
    | f32 velocities (count*3)

``UGR1`` grid
    magic ``UGR1`` | u32 version | u8 kind (0 scalar, 1 vector3, 2 MAC)
    | f64 origin*3 | f64 cell_size | u32 dims*3 | f32 payload
    (scalar: nx*ny*nz; vector: *3; MAC: the three face arrays u, v, w)

Manifests and configs are plain key=value section files (configparser
syntax); floats are written with repr so a write/read/write cycle is
byte-identical.
"""

from __future__ import annotations

import configparser
import os
import struct
from dataclasses import asdict

import numpy as np

from .dataset import DatasetManifest, PairRecord, ParamMatrix
from .errors import check_positive
from .flip import SceneSpec, SimFrame, SimParams
from .grids import DeformationField, GridDesc, MACGrid, ScalarGrid, face_shape
from .net import LevelConfig, NetworkConfig
from .particles import ParticleSet

UPF_MAGIC = b"UPF1"
UGR_MAGIC = b"UGR1"


def _read_exact(f, n: int, path: str) -> bytes:
    """Read exactly `n` bytes of `f`, or raise ValueError naming `path`.

    Checks the bytes left before reading, so a corrupt count asking for
    more than the file holds never allocates its buffer.
    """
    here = f.tell()
    left = f.seek(0, os.SEEK_END) - here
    f.seek(here)
    if n > left:
        raise ValueError(f"{path} is truncated: needs {n} more bytes at offset "
                         f"{here}, has {left}")
    return f.read(n)


# -- particles ------------------------------------------------------------------

def save_particles(path: str, p: ParticleSet):
    with open(path, "wb") as f:
        f.write(UPF_MAGIC)
        f.write(struct.pack("<I", 1))
        f.write(struct.pack("<Q", p.count))
        f.write(np.ascontiguousarray(p.positions, dtype="<f4").tobytes())
        f.write(np.ascontiguousarray(p.velocities, dtype="<f4").tobytes())


def load_particles(path: str) -> ParticleSet:
    with open(path, "rb") as f:
        def read(n):
            return _read_exact(f, n, path)
        if read(4) != UPF_MAGIC:
            raise ValueError(f"{path} is not a particle frame")
        (version,) = struct.unpack("<I", read(4))
        if version != 1:
            raise ValueError(f"{path}: unsupported particle frame version {version}")
        (count,) = struct.unpack("<Q", read(8))
        pos = np.frombuffer(read(12 * count), dtype="<f4").reshape(count, 3)
        vel = np.frombuffer(read(12 * count), dtype="<f4").reshape(count, 3)
    return ParticleSet(pos.astype(np.float64), vel.astype(np.float64))


# -- grids ----------------------------------------------------------------------

_GRID_KINDS = {"scalar": 0, "vector": 1, "mac": 2}


def _write_grid_header(f, kind: int, desc: GridDesc):
    f.write(UGR_MAGIC)
    f.write(struct.pack("<I", 1))
    f.write(struct.pack("<B", kind))
    f.write(struct.pack("<3d", *desc.origin))
    f.write(struct.pack("<d", desc.cell_size))
    f.write(struct.pack("<3I", *desc.dims))


def save_grid(path: str, grid):
    with open(path, "wb") as f:
        if isinstance(grid, ScalarGrid):
            _write_grid_header(f, _GRID_KINDS["scalar"], grid.desc)
            f.write(np.ascontiguousarray(grid.values, dtype="<f4").tobytes())
        elif isinstance(grid, DeformationField):
            _write_grid_header(f, _GRID_KINDS["vector"], grid.desc)
            f.write(np.ascontiguousarray(grid.vectors, dtype="<f4").tobytes())
        elif isinstance(grid, MACGrid):
            _write_grid_header(f, _GRID_KINDS["mac"], grid.desc)
            for comp in grid.components():
                f.write(np.ascontiguousarray(comp, dtype="<f4").tobytes())
        else:
            raise TypeError(f"cannot save grid of type {type(grid)!r}")


def load_grid(path: str):
    with open(path, "rb") as f:
        def read(n):
            return _read_exact(f, n, path)
        if read(4) != UGR_MAGIC:
            raise ValueError(f"{path} is not a grid file")
        (version,) = struct.unpack("<I", read(4))
        if version != 1:
            raise ValueError(f"{path}: unsupported grid version {version}")
        (kind,) = struct.unpack("<B", read(1))
        origin = struct.unpack("<3d", read(24))
        (cell,) = struct.unpack("<d", read(8))
        dims = struct.unpack("<3I", read(12))
        desc = GridDesc(origin, cell, dims)
        if kind == _GRID_KINDS["scalar"]:
            vals = np.frombuffer(read(4 * desc.num_cells), dtype="<f4")
            return ScalarGrid(desc, vals.astype(np.float64).reshape(dims))
        if kind == _GRID_KINDS["vector"]:
            vals = np.frombuffer(read(4 * desc.num_cells * 3), dtype="<f4")
            return DeformationField(desc, vals.astype(np.float64).reshape(dims + (3,)))
        if kind == _GRID_KINDS["mac"]:
            comps = []
            for axis in range(3):
                s = face_shape(dims, axis)
                comps.append(np.frombuffer(read(4 * s[0] * s[1] * s[2]), dtype="<f4")
                             .astype(np.float64).reshape(s))
            return MACGrid(desc, *comps)
        raise ValueError(f"unknown grid kind {kind}")


# -- small value formatting -----------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (tuple, list, np.ndarray)):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _floats(s: str) -> tuple[float, ...]:
    return tuple(float(x) for x in s.split(",") if x.strip() != "")


def _ints(s: str) -> tuple[int, ...]:
    return tuple(int(x) for x in s.split(",") if x.strip() != "")


def _float_lists(s: str) -> list[tuple[float, ...]]:
    return [_floats(part) for part in s.split(";") if part.strip() != ""]


def _present(sec, converters: dict) -> dict:
    """The entries of `sec` named in `converters`, converted; the dataclass
    the caller builds keeps its own default for every other field."""
    return {k: conv(sec[k]) for k, conv in converters.items() if k in sec}


def _in_section(path: str, section: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, with a ValueError's message prefixed by the
    file and the section it came from."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: [{section}] {exc}") from exc


# -- SimParams / SceneSpec sections ----------------------------------------------

def _sim_to_section(cfg, section: str, params: SimParams):
    cfg[section] = {"origin": _fmt(params.domain.origin),
                    "cell_size": _fmt(params.domain.cell_size),
                    "dims": _fmt(params.domain.dims),
                    **{k: _fmt(getattr(params, k)) for k in _SIM_FIELDS}}


# SimParams fields after the domain, in manifest key order: a manifest
# stores all of them, a dataset config's track sections may set any; other
# keys (an older manifest's ps, gs and solver controls) are not read
_SIM_FIELDS = {"gravity": _floats, "flip_ratio": float, "dt": float,
               "particles_per_cell": int}
# SceneSpec fields a [scenes] section may set; a manifest pair also stores
# the placement the parameter matrix varies
_SCENE_FIELDS = {"obstacle_size": float, "emit_rate": int, "emit_speed": float,
                 "emit_radius": float, "pool_depth": float,
                 "liquid_shape": lambda s: s or None, "liquid_position": _floats,
                 "liquid_size": float}
_PLACEMENT_FIELDS = {"obstacle_shape": str, "obstacle_position": _floats,
                     "emitter_position": _floats, "container_dims": _floats}


def _sim_from_section(sec) -> SimParams:
    desc = GridDesc(_floats(sec["origin"]), float(sec["cell_size"]), _ints(sec["dims"]))
    return SimParams(desc, **{k: conv(sec[k]) for k, conv in _SIM_FIELDS.items()})


def _scene_to_dict(scene: SceneSpec) -> dict[str, str]:
    d = asdict(scene)
    out = {}
    for k, v in d.items():
        out[k] = "" if v is None else _fmt(v)
    return out


def _scene_from_section(sec) -> SceneSpec:
    return SceneSpec(**{k: conv(sec[k]) for k, conv in
                        {**_PLACEMENT_FIELDS, **_SCENE_FIELDS}.items()})


# -- manifest -------------------------------------------------------------------

def write_manifest(manifest: DatasetManifest, out_dir: str) -> str:
    """Write the manifest text plus every frame file under `out_dir`.

    Returns the manifest.cfg path.
    """
    os.makedirs(out_dir, exist_ok=True)
    cfg = configparser.ConfigParser()
    cfg["manifest"] = {
        "name": manifest.name,
        "num_pairs": str(len(manifest.pairs)),
    }
    _sim_to_section(cfg, "sim.low", manifest.sim_low)
    _sim_to_section(cfg, "sim.high", manifest.sim_high)
    for i, pair in enumerate(manifest.pairs):
        pdir = f"pair_{i:03d}"
        os.makedirs(os.path.join(out_dir, pdir), exist_ok=True)
        entries = _scene_to_dict(pair.scene)
        entries["seed"] = str(pair.seed)
        entries["augmented"] = str(pair.augmented).lower()
        entries["source_pair_ids"] = ",".join(str(s) for s in pair.source_pair_ids)
        names: dict[str, list[str]] = {"low_frames": [], "high_frames": [],
                                       "low_velocity": [], "high_velocity": []}
        for track, frames in (("low", pair.low_frames), ("high", pair.high_frames)):
            for t, frame in enumerate(frames):
                rel = f"{pdir}/{track}_{t:03d}.upf"
                save_particles(os.path.join(out_dir, rel), frame.particles)
                names[f"{track}_frames"].append(rel)
                rel = f"{pdir}/vel_{track}_{t:03d}.ugr"
                save_grid(os.path.join(out_dir, rel), frame.velocity)
                names[f"{track}_velocity"].append(rel)
        for k, v in names.items():
            entries[k] = ",".join(v)
        cfg[f"pair.{i}"] = entries
    path = os.path.join(out_dir, "manifest.cfg")
    with open(path, "w") as f:
        cfg.write(f)
    return path


def read_manifest(path: str) -> DatasetManifest:
    """Load a manifest directory (or its manifest.cfg path) back into memory."""
    if os.path.isdir(path):
        base = path
        path = os.path.join(path, "manifest.cfg")
    else:
        base = os.path.dirname(path)
    cfg = configparser.ConfigParser()
    with open(path) as f:
        cfg.read_file(f)
    manifest = DatasetManifest(
        name=cfg["manifest"]["name"],
        sim_low=_in_section(path, "sim.low", _sim_from_section, cfg["sim.low"]),
        sim_high=_in_section(path, "sim.high", _sim_from_section, cfg["sim.high"]),
    )
    n = int(cfg["manifest"]["num_pairs"])
    for i in range(n):
        sec = cfg[f"pair.{i}"]
        scene = _scene_from_section(sec)
        tracks = {}
        for track in ("low", "high"):
            frames = sec[f"{track}_frames"].split(",") if sec[f"{track}_frames"] else []
            vels = sec[f"{track}_velocity"].split(",") if sec[f"{track}_velocity"] else []
            if len(frames) != len(vels):
                raise ValueError(f"{path}: pair {i} lists {len(frames)} {track} frames "
                                 f"but {len(vels)} {track} velocity grids")
            tracks[track] = [SimFrame(load_particles(os.path.join(base, rel)),
                                      load_grid(os.path.join(base, vrel)))
                             for rel, vrel in zip(frames, vels)]
        src = tuple(int(x) for x in sec["source_pair_ids"].split(",") if x.strip())
        manifest.pairs.append(PairRecord(scene, tracks["low"], tracks["high"],
                                         seed=int(sec["seed"]),
                                         augmented=sec["augmented"] == "true",
                                         source_pair_ids=src))
    return manifest


# -- dataset generation config ----------------------------------------------------

def parse_dataset_config(path: str):
    """Parse a generation config; returns
    (name, frames, seed, ParamMatrix, scene defaults, sim_low, sim_high)."""
    cfg = configparser.ConfigParser()
    with open(path) as f:
        cfg.read_file(f)
    ds = cfg["dataset"]
    sc = cfg["scenes"]
    theta = ParamMatrix(
        shapes=[s.strip() for s in sc["shapes"].split(",")],
        obstacle_positions=_float_lists(sc["obstacle_positions"]),
        emitter_positions=_float_lists(sc["emitter_positions"]),
        container_dims=_float_lists(sc["container_dims"]),
    )
    defaults = _in_section(path, "scenes", SceneSpec, **_present(sc, _SCENE_FIELDS))

    def sim_from(name: str) -> SimParams:
        sec = cfg[name]
        return _in_section(path, name, SimParams.for_domain, float(sec["ps"]),
                           float(sec["gs"]), _floats(sec.get("origin", "0,0,0")),
                           _floats(sec.get("extent", "1,1,1")),
                           **_present(sec, _SIM_FIELDS))

    return (ds.get("name", "Colliding"), int(ds.get("frames", "4")),
            int(ds.get("seed", "0")), theta, defaults,
            sim_from("sim.low"), sim_from("sim.high"))


# -- network/training config -------------------------------------------------------

def parse_net_config(path: str):
    """Parse a training config; returns (NetworkConfig | None, train options).

    When the [net] section is omitted the caller should derive a default
    configuration from the data. The train options hold the `lr` and
    `val_fraction` entries of the [train] section, where given.
    """
    cfg = configparser.ConfigParser()
    with open(path) as f:
        cfg.read_file(f)
    net_cfg = None
    if cfg.has_section("net"):
        sec = cfg["net"]
        counts = _ints(sec["counts"])
        radii = _floats(sec["radii"])
        widths = [_ints(w) for w in sec["widths"].split(";")]
        up = tuple(tuple(_ints(w)) for w in sec["upconv_widths"].split(";"))
        lengths = {"counts": len(counts), "radii": len(radii), "widths": len(widths),
                   "upconv_widths": len(up)}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"{path}: [net] needs one entry per level in each of "
                             + ", ".join(f"{k} ({n})" for k, n in lengths.items()))
        level_kw = _present(sec, {"max_neighbors": int})
        levels = tuple(LevelConfig(c, r, tuple(w), **level_kw)
                       for c, r, w in zip(counts, radii, widths))
        net_cfg = _in_section(path, "net", NetworkConfig, levels=levels,
                              embedding_radius=float(sec["embedding_radius"]),
                              upconv_widths=up,
                              **_present(sec, {"embedding_widths": _ints,
                                               "smoothing_convs": int, "seed": int}))
    train_opts = {}
    if cfg.has_section("train"):
        train_opts = _present(cfg["train"], {"lr": float, "val_fraction": float})
        if "lr" in train_opts:
            _in_section(path, "train", check_positive, "lr", train_opts["lr"])
        vf = train_opts.get("val_fraction", 0.0)
        if not 0.0 <= vf < 1.0:
            raise ValueError(f"{path}: [train] val_fraction must lie in [0, 1), got {vf}")
    return net_cfg, train_opts


# -- obj export -------------------------------------------------------------------

def export_obj(frames_dir: str, out_dir: str) -> list[str]:
    """Convert every particle frame in a directory to a point-cloud OBJ."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name in sorted(os.listdir(frames_dir)):
        if not name.endswith(".upf"):
            continue
        p = load_particles(os.path.join(frames_dir, name))
        out_path = os.path.join(out_dir, name[:-4] + ".obj")
        with open(out_path, "w") as f:
            for x, y, z in p.positions:
                f.write(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n")
        written.append(out_path)
    return written
