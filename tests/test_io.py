import configparser
import os
import re
import struct

import numpy as np
import pytest

from upflow import (DeformationField, GridDesc, LevelConfig, MACGrid, NetworkConfig,
                    ParticleSet, ScalarGrid, SceneSpec, SimParams)
from upflow.dataset import DatasetManifest, PairRecord
from upflow.flip import SimFrame
from upflow import io as uio


def rand_particles(n=37, seed=0):
    rng = np.random.default_rng(seed)
    # float32-representable values so the save/load cycle is lossless
    pos = rng.uniform(size=(n, 3)).astype(np.float32).astype(np.float64)
    vel = rng.normal(size=(n, 3)).astype(np.float32).astype(np.float64)
    return ParticleSet(pos, vel)


def test_particle_roundtrip_bytes(tmp_path):
    p = rand_particles()
    path = tmp_path / "frame.upf"
    uio.save_particles(str(path), p)
    q = uio.load_particles(str(path))
    assert np.array_equal(p.positions, q.positions)
    assert np.array_equal(p.velocities, q.velocities)
    path2 = tmp_path / "again.upf"
    uio.save_particles(str(path2), q)
    assert path.read_bytes() == path2.read_bytes()


def test_particle_magic_guard(tmp_path):
    path = tmp_path / "bad.upf"
    path.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(ValueError):
        uio.load_particles(str(path))


@pytest.mark.parametrize("kind", ["scalar", "vector", "mac"])
def test_grid_roundtrip(tmp_path, kind):
    desc = GridDesc((0.125, 0.25, 0.5), 0.0625, (5, 4, 3))
    rng = np.random.default_rng(1)
    if kind == "scalar":
        g = ScalarGrid(desc, rng.normal(size=desc.dims).astype(np.float32))
    elif kind == "vector":
        g = DeformationField(desc, rng.normal(size=desc.dims + (3,)).astype(np.float32))
    else:
        g = MACGrid(desc)
        g.u[...] = rng.normal(size=g.u.shape).astype(np.float32)
        g.v[...] = rng.normal(size=g.v.shape).astype(np.float32)
        g.w[...] = rng.normal(size=g.w.shape).astype(np.float32)
    path = tmp_path / f"{kind}.ugr"
    uio.save_grid(str(path), g)
    loaded = uio.load_grid(str(path))
    assert loaded.desc == desc
    if kind == "scalar":
        assert np.array_equal(loaded.values, g.values)
    elif kind == "vector":
        assert np.array_equal(loaded.vectors, g.vectors)
    else:
        assert np.array_equal(loaded.u, g.u)
        assert np.array_equal(loaded.w, g.w)
    path2 = tmp_path / f"{kind}2.ugr"
    uio.save_grid(str(path2), loaded)
    assert path.read_bytes() == path2.read_bytes()


def _assert_every_cut_raises(path, load):
    """Each proper prefix of the file at `path` fails to load with a
    ValueError that names the file."""
    raw = path.read_bytes()
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        with pytest.raises(ValueError) as err:
            load(str(path))
        assert str(path) in str(err.value), n


def test_truncated_particle_frame_raises(tmp_path):
    path = tmp_path / "cut.upf"
    uio.save_particles(str(path), rand_particles(3))
    _assert_every_cut_raises(path, uio.load_particles)


@pytest.mark.parametrize("kind", ["scalar", "vector", "mac"])
def test_truncated_grid_raises(tmp_path, kind):
    desc = GridDesc((0.0, 0.0, 0.0), 0.5, (2, 2, 2))
    grid = {"scalar": ScalarGrid(desc, np.ones(desc.dims)),
            "vector": DeformationField(desc, np.ones(desc.dims + (3,))),
            "mac": MACGrid.constant(desc, (1.0, 2.0, 3.0))}[kind]
    path = tmp_path / f"cut_{kind}.ugr"
    uio.save_grid(str(path), grid)
    _assert_every_cut_raises(path, uio.load_grid)


def test_oversized_counts_raise(tmp_path):
    # a header count larger than the payload, up to one no file could hold
    path = tmp_path / "big.upf"
    uio.save_particles(str(path), rand_particles(3))
    raw = path.read_bytes()
    for count in (4, 2 ** 62):
        path.write_bytes(raw[:8] + struct.pack("<Q", count) + raw[16:])
        with pytest.raises(ValueError, match="truncated"):
            uio.load_particles(str(path))
    path = tmp_path / "big.ugr"
    uio.save_grid(str(path), ScalarGrid(GridDesc((0, 0, 0), 0.5, (2, 2, 2)), np.ones((2, 2, 2))))
    raw = path.read_bytes()
    dims_at = 4 + 4 + 1 + 24 + 8
    path.write_bytes(raw[:dims_at] + struct.pack("<3I", 2, 2, 3) + raw[dims_at + 12:])
    with pytest.raises(ValueError, match="truncated"):
        uio.load_grid(str(path))



@pytest.mark.parametrize("kind", ["particles", "grid"])
def test_unsupported_version_names_the_file(tmp_path, kind):
    # a version this reader does not know fails naming the file, as every
    # other load failure does
    path = tmp_path / f"v2_{kind}.bin"
    if kind == "particles":
        uio.save_particles(str(path), rand_particles(3))
        load = uio.load_particles
    else:
        uio.save_grid(str(path), ScalarGrid(GridDesc((0, 0, 0), 0.5, (2, 2, 2)),
                                            np.ones((2, 2, 2))))
        load = uio.load_grid
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + struct.pack("<I", 2) + raw[8:])
    with pytest.raises(ValueError, match="version 2") as err:
        load(str(path))
    assert str(path) in str(err.value)


def _small_manifest():
    low = SimParams.for_domain(0.02, 1.5, (0, 0, 0), (0.5, 0.5, 0.5))
    high = SimParams.for_domain(0.012, 1.2, (0, 0, 0), (0.5, 0.5, 0.5))
    m = DatasetManifest(name="Synthetic", sim_low=low, sim_high=high)
    for i in range(2):
        frames_l, frames_h = [], []
        for f in range(2):
            frames_l.append(SimFrame(rand_particles(20, seed=10 * i + f),
                                     MACGrid.zeros(low.domain)))
            frames_h.append(SimFrame(rand_particles(50, seed=100 + 10 * i + f),
                                     MACGrid.zeros(high.domain)))
        m.pairs.append(PairRecord(SceneSpec(pool_depth=0.25), frames_l, frames_h,
                                  seed=i, augmented=i == 1,
                                  source_pair_ids=(0, 1) if i else ()))
    return m


def test_manifest_roundtrip_bit_exact(tmp_path):
    m = _small_manifest()
    d1 = tmp_path / "ds"
    p1 = uio.write_manifest(m, str(d1))
    loaded = uio.read_manifest(str(d1))
    assert loaded.name == m.name
    assert len(loaded.pairs) == 2
    assert loaded.pairs[1].augmented
    assert loaded.pairs[1].source_pair_ids == (0, 1)
    assert loaded.sim_low == m.sim_low
    assert loaded.sim_high == m.sim_high
    for a, b in zip(m.pairs, loaded.pairs):
        assert a.scene == b.scene
        for fa, fb in zip(a.low_frames, b.low_frames):
            assert np.array_equal(fa.particles.positions, fb.particles.positions)
    # writing the loaded manifest again reproduces identical bytes everywhere
    d2 = tmp_path / "ds2"
    uio.write_manifest(loaded, str(d2))
    assert (d1 / "manifest.cfg").read_text() == (d2 / "manifest.cfg").read_text()
    for root, _, files in os.walk(d1):
        for f in files:
            rel = os.path.relpath(os.path.join(root, f), d1)
            assert (d2 / rel).read_bytes() == (d1 / rel).read_bytes(), rel


def test_manifest_sim_sections_hold_seven_keys(tmp_path):
    path = uio.write_manifest(_small_manifest(), str(tmp_path / "ds"))
    cfg = configparser.ConfigParser()
    cfg.read(path)
    for track in ("sim.low", "sim.high"):
        assert list(cfg[track]) == ["origin", "cell_size", "dims", "gravity",
                                    "flip_ratio", "dt", "particles_per_cell"]


# a [sim.*] section as manifests stored it when SimParams also held the
# particle separation, the grid scale and the solver controls
_OLD_SIM_SECTION = """ps = 0.02
gs = 1.5
origin = 0.0,0.0,0.0
cell_size = 0.06
dims = 8,8,8
gravity = 0.0,-9.81,0.0
flip_ratio = 0.95
dt = 0.025
cfl = 2.0
particles_per_cell = 8
pressure_tol = 1e-06
pressure_max_iter = 4000
max_particles = 200000
"""


def test_manifest_with_the_old_sim_keys_still_loads(tmp_path):
    d = tmp_path / "ds"
    uio.write_manifest(_small_manifest(), str(d))
    cfg = configparser.ConfigParser()
    cfg.read(d / "manifest.cfg")
    for track in ("sim.low", "sim.high"):
        cfg.remove_section(track)
        cfg.read_string(f"[{track}]\n{_OLD_SIM_SECTION}")
    with open(d / "manifest.cfg", "w") as f:
        cfg.write(f)
    loaded = uio.read_manifest(str(d))
    expect = SimParams(GridDesc((0, 0, 0), 0.06, (8, 8, 8)), dt=0.025)
    assert loaded.sim_low == loaded.sim_high == expect
    assert loaded.sim_low.particle_spacing == pytest.approx(0.03)


def test_manifest_writes_numpy_scalars_as_plain_floats(tmp_path):
    m = _small_manifest()
    m.sim_low = SimParams.for_domain(0.02, 1.5, (0, 0, 0), (0.5, 0.5, 0.5),
                                     dt=np.float64(0.025),
                                     gravity=(np.float64(0.0), np.float32(-9.5), 0.0))
    path = uio.write_manifest(m, str(tmp_path / "ds"))
    cfg = configparser.ConfigParser()
    cfg.read(path)
    assert cfg["sim.low"]["dt"] == "0.025"
    assert cfg["sim.low"]["gravity"] == "0.0,-9.5,0.0"
    assert uio.read_manifest(path).sim_low == m.sim_low


def test_export_obj(tmp_path):
    frames = tmp_path / "frames"
    frames.mkdir()
    p = rand_particles(5)
    uio.save_particles(str(frames / "frame_000.upf"), p)
    out = tmp_path / "obj"
    written = uio.export_obj(str(frames), str(out))
    assert len(written) == 1
    lines = (out / "frame_000.obj").read_text().strip().splitlines()
    assert len(lines) == 5
    assert all(ln.startswith("v ") for ln in lines)
    got = np.array([[float(x) for x in ln.split()[1:]] for ln in lines])
    assert np.array_equal(got, p.positions)


def test_dataset_config_parse(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("""
[dataset]
name = Colliding
frames = 3
seed = 7

[scenes]
shapes = sphere,cube
obstacle_positions = 0.25,0.2,0.25
emitter_positions = 0.25,0.4,0.25; 0.3,0.4,0.25
container_dims = 0.5,0.5,0.5
pool_depth = 0.2
emit_rate = 10

[sim.low]
ps = 0.02
gs = 1.5
origin = 0,0,0
extent = 0.5,0.5,0.5
dt = 0.025

[sim.high]
ps = 0.012
gs = 1.2
origin = 0,0,0
extent = 0.5,0.5,0.5
dt = 0.025
""")
    name, frames, seed, theta, defaults, sim_low, sim_high = \
        uio.parse_dataset_config(str(cfg))
    assert name == "Colliding"
    assert frames == 3 and seed == 7
    assert len(theta) == 4
    assert defaults.pool_depth == 0.2
    assert defaults.emit_rate == 10
    assert sim_low.domain.cell_size == pytest.approx(2 * 0.02 * 1.5)
    assert sim_low.particle_spacing == pytest.approx(0.03)
    assert sim_high.particle_spacing == pytest.approx(0.012 * 1.2)


def test_net_config_parse(tmp_path):
    cfg = tmp_path / "net.cfg"
    cfg.write_text("""
[net]
counts = 16,8,4
radii = 0.1,0.2,0.4
widths = 8;12;16
upconv_widths = 16;12;8
embedding_widths = 24
embedding_radius = 0.5
smoothing_convs = 1
seed = 3

[train]
lr = 0.005
""")
    net_cfg, opts = uio.parse_net_config(str(cfg))
    assert [lv.count for lv in net_cfg.levels] == [16, 8, 4]
    assert net_cfg.embedding_widths == (24,)
    assert net_cfg.upconv_widths == ((16,), (12,), (8,))
    assert net_cfg.seed == 3
    assert opts["lr"] == 0.005


_MIN_DATASET_CFG = """
[dataset]
[scenes]
shapes = sphere
obstacle_positions = 0.5,0.3,0.5
emitter_positions = 0.5,0.8,0.5
container_dims = 1,1,1
[sim.low]
ps = 0.05
gs = 1
[sim.high]
ps = 0.04
gs = 1
"""


def test_minimal_configs_parse_to_the_dataclass_defaults(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(_MIN_DATASET_CFG)
    _, _, _, _, defaults, sim_low, sim_high = uio.parse_dataset_config(str(cfg))
    assert defaults == SceneSpec()
    assert sim_low == SimParams.for_domain(0.05, 1.0, (0, 0, 0), (1, 1, 1))
    assert sim_high == SimParams.for_domain(0.04, 1.0, (0, 0, 0), (1, 1, 1))
    cfg = tmp_path / "net.cfg"
    cfg.write_text("[net]\ncounts = 8,4\nradii = 0.1,0.2\nwidths = 6;8\n"
                   "upconv_widths = 8;6\nembedding_radius = 0.4\n[train]\n")
    net_cfg, opts = uio.parse_net_config(str(cfg))
    assert net_cfg == NetworkConfig(levels=(LevelConfig(8, 0.1, (6,)), LevelConfig(4, 0.2, (8,))),
                                    embedding_radius=0.4, upconv_widths=((8,), (6,)))
    assert opts == {}


@pytest.mark.parametrize("section, entry, field", [
    ("train", "val_fraction = -0.5", "val_fraction"),
    ("train", "val_fraction = 1.0", "val_fraction"),
    ("train", "lr = 0", "lr"),
    ("train", "lr = nan", "lr"),
    ("sim.low", "flip_ratio = 3.0", "flip_ratio"),
    ("sim.high", "particles_per_cell = 0", "particles_per_cell"),
    ("sim.low", "particles_per_cell = 10", "particles_per_cell"),
    ("sim.low", "ps = 0", "particle_separation"),
    ("sim.low", "ps = nan", "particle_separation"),
    ("sim.high", "gs = 0.5", "grid_scale"),
    ("scenes", "liquid_shape = blob", "liquid shape"),
])
def test_configs_name_the_file_and_the_field_of_a_bad_value(tmp_path, section, entry, field):
    cfg = configparser.ConfigParser()
    cfg.read_string(_MIN_DATASET_CFG + "[train]\n")
    key, value = (part.strip() for part in entry.split("="))
    cfg[section][key] = value
    path = tmp_path / "bad.cfg"
    with open(path, "w") as f:
        cfg.write(f)
    parse = uio.parse_net_config if section == "train" else uio.parse_dataset_config
    with pytest.raises(ValueError, match=rf"bad\.cfg: \[{re.escape(section)}\] .*{field}"):
        parse(str(path))


def test_manifest_names_the_file_of_bad_sim_params(tmp_path):
    path = uio.write_manifest(_small_manifest(), str(tmp_path / "ds"))
    cfg = configparser.ConfigParser()
    cfg.read(path)
    cfg["sim.high"]["flip_ratio"] = "2.0"
    with open(path, "w") as f:
        cfg.write(f)
    with pytest.raises(ValueError, match=r"manifest\.cfg: \[sim\.high\] flip_ratio"):
        uio.read_manifest(str(tmp_path / "ds"))


@pytest.mark.parametrize("track", ["low", "high"])
def test_manifest_frame_grid_mismatch_raises(tmp_path, track):
    d = tmp_path / "ds"
    path = uio.write_manifest(_small_manifest(), str(d))
    cfg = configparser.ConfigParser()
    cfg.read(path)
    # pair 1 keeps both frames but lists only its first velocity grid
    key = f"{track}_velocity"
    cfg["pair.1"][key] = cfg["pair.1"][key].split(",")[0]
    with open(path, "w") as f:
        cfg.write(f)
    with pytest.raises(ValueError, match=rf"manifest\.cfg: pair 1 lists 2 {track} "
                                         rf"frames but 1 {track} velocity grids"):
        uio.read_manifest(str(d))


@pytest.mark.parametrize("overrides", [
    {"radii": "0.06,0.12", "upconv_widths": "10;8"},
    {"counts": "12,6,3,1"},
    {"widths": "6;8"},
    {"upconv_widths": "10;8;6;4"},
])
def test_net_config_rejects_unequal_level_lists(tmp_path, overrides):
    entries = {"counts": "12,6,3", "radii": "0.06,0.12,0.24", "widths": "6;8;10",
               "upconv_widths": "10;8;6", "embedding_radius": "0.24", **overrides}
    cfg = tmp_path / "net.cfg"
    cfg.write_text("[net]\n" + "".join(f"{k} = {v}\n" for k, v in entries.items()))
    key, value = next(iter(overrides.items()))
    n = len(value.split(";" if "widths" in key else ","))
    with pytest.raises(ValueError, match=rf"net\.cfg: .*{key} \({n}\)"):
        uio.parse_net_config(str(cfg))
