"""End-to-end drive of every CLI subcommand on a miniature dataset."""

import os
import re
import shutil

import numpy as np
import pytest

from upflow import FlowParams, LevelConfig, NetworkConfig, ParticleSet
from upflow.cli import main
from upflow.net import DisplacementNet
from upflow.optflow import alignment_penalty
from upflow import io as uio

GEN_CFG = """
[dataset]
name = Colliding
frames = 2
seed = 0

[scenes]
shapes = sphere,cube
obstacle_positions = 0.25,0.15,0.25
emitter_positions = 0.25,0.4,0.25
container_dims = 0.5,0.5,0.5
pool_depth = 0.25
emit_rate = 0
obstacle_size = 0.05

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
"""

SIM_DT = "0.025"          # the frame step of both tracks in GEN_CFG

NET_CFG = """
[net]
counts = 12,6,3
radii = 0.06,0.12,0.24
widths = 6;8;10
upconv_widths = 10;8;6
embedding_widths = 12
embedding_radius = 0.24
smoothing_convs = 1
seed = 0

[train]
lr = 0.003
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    gen_cfg = root / "gen.cfg"
    gen_cfg.write_text(GEN_CFG)
    net_cfg = root / "net.cfg"
    net_cfg.write_text(NET_CFG)
    ds = root / "dataset"
    assert main(["gen-dataset", "--config", str(gen_cfg), "--out", str(ds)]) == 0
    return root, ds, net_cfg


def _copy_frames(src, dst, *patterns):
    """Copy the files of `src` matching any glob pattern into `dst`.

    Overwrites what is already there, so calling it twice is harmless.
    """
    dst.mkdir(exist_ok=True)
    for pattern in patterns:
        for f in src.glob(pattern):
            shutil.copyfile(f, dst / f.name)
    return dst


@pytest.fixture(scope="module")
def pair_frames(workspace):
    """Directories holding the low and the high frame files of pair 0."""
    root, ds, _ = workspace
    pair = ds / "pair_000"
    return (_copy_frames(pair, root / "low_frames", "low_*.upf"),
            _copy_frames(pair, root / "high_frames", "high_*.upf"))


def test_gen_dataset_layout(workspace):
    _, ds, _ = workspace
    assert (ds / "manifest.cfg").exists()
    m = uio.read_manifest(str(ds))
    assert len(m.pairs) == 2
    assert len(m.pairs[0].low_frames) == 2


def test_augment_doubles(workspace, tmp_path):
    # augment a copy: the shared dataset must keep its generated pairs
    ds = tmp_path / "dataset"
    shutil.copytree(workspace[1], ds)
    before = len(uio.read_manifest(str(ds)).pairs)
    assert main(["augment", "--manifest", str(ds), "--alphas", "0.5",
                 "--seed", "1"]) == 0
    after = uio.read_manifest(str(ds))
    assert len(after.pairs) == 2 * before
    assert after.pairs[-1].augmented


@pytest.mark.parametrize("alphas", ["1.5", "0.25,1.5", "-0.5"])
def test_augment_rejects_weights_outside_unit_interval(workspace, tmp_path, capsys, alphas):
    ds = tmp_path / "dataset"
    shutil.copytree(workspace[1], ds)
    with pytest.raises(SystemExit) as exc:
        main(["augment", "--manifest", str(ds), "--alphas", alphas])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--alphas" in err and f"got {float(alphas.split(',')[-1])}" in err
    assert len(uio.read_manifest(str(ds)).pairs) == 2


def test_solve_flow_writes_field(pair_frames, tmp_path):
    low_frames, high_frames = pair_frames
    out = tmp_path / "field.ugr"
    assert main(["solve-flow", "--low", str(low_frames), "--high",
                 str(high_frames), "--out", str(out), "--dims", "12,12,12"]) == 0
    produced = [p for p in os.listdir(tmp_path) if p.startswith("field")]
    assert produced
    field = uio.load_grid(os.path.join(tmp_path, sorted(produced)[0]))
    assert field.vectors.shape[-1] == 3


def test_solve_flow_no_align_flag(pair_frames, tmp_path, monkeypatch):
    # both fields come out alike on this static pair, so count the
    # alignment penalties the solve builds instead
    low_frames, high_frames = pair_frames
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return alignment_penalty(*args, **kwargs)

    monkeypatch.setattr("upflow.optflow.alignment_penalty", recording)
    args = ["solve-flow", "--low", str(low_frames), "--high", str(high_frames),
            "--dims", "12,12,12"]
    assert main(args + ["--out", str(tmp_path / "field_noalign.ugr"), "--no-align"]) == 0
    assert calls == []
    assert main(args + ["--out", str(tmp_path / "field_align.ugr")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("dims", ["4,4,4", "32,32", "12,12,x", "12,12,12,12"])
def test_solve_flow_rejects_bad_dims(pair_frames, tmp_path, capsys, dims):
    low_frames, high_frames = pair_frames
    with pytest.raises(SystemExit) as exc:
        main(["solve-flow", "--low", str(low_frames), "--high", str(high_frames),
              "--out", str(tmp_path / "field.ugr"), "--dims", dims])
    assert exc.value.code == 2
    assert "--dims" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_solve_flow_grid_covers_frames_on_every_axis(pair_frames, tmp_path):
    # the frames span the container along x and z; a grid with half as
    # many cells along y and z must still hold them on those axes
    low_frames, high_frames = pair_frames
    assert main(["solve-flow", "--low", str(low_frames), "--high", str(high_frames),
                 "--out", str(tmp_path / "field.ugr"), "--dims", "16,8,8"]) == 0
    field = uio.load_grid(str(sorted(tmp_path.iterdir())[0]))
    desc = field.desc
    assert desc.dims == (16, 8, 8)
    pts = [uio.load_particles(str(f)).positions
           for d in pair_frames for f in sorted(d.glob("*.upf"))]
    pts = np.concatenate(pts)
    # every particle at least two cells inside the grid
    h = desc.cell_size
    assert np.all(pts >= np.asarray(desc.origin) + 2 * h - 1e-12)
    assert np.all(pts <= desc.upper - 2 * h + 1e-12)


def test_solve_flow_unconverged_exits_nonzero(pair_frames, tmp_path, monkeypatch):
    low_frames, high_frames = pair_frames
    monkeypatch.setattr("upflow.cli.FlowParams", lambda: FlowParams(cg_max_iter=1))
    assert main(["solve-flow", "--low", str(low_frames), "--high",
                 str(high_frames), "--out", str(tmp_path / "field.ugr"),
                 "--dims", "12,12,12"]) == 1


def test_solve_flow_reports_unused_frames(pair_frames, tmp_path, capsys):
    low_frames, high_frames = pair_frames
    high = _copy_frames(high_frames, tmp_path / "high", "high_000.upf")
    assert main(["solve-flow", "--low", str(low_frames), "--high", str(high),
                 "--out", str(tmp_path / "field.ugr"), "--dims", "12,12,12"]) == 0
    out = capsys.readouterr().out
    assert "holds 2 frames" in out and "solving the first 1" in out
    assert "leaving out low_001.upf" in out


@pytest.mark.parametrize("side", ["low", "high"])
def test_solve_flow_names_an_empty_frame(pair_frames, tmp_path, side):
    dirs = {"low": pair_frames[0], "high": pair_frames[1]}
    dirs[side] = _copy_frames(dirs[side], tmp_path / side, "*.upf")
    name = f"{side}_001.upf"
    uio.save_particles(str(dirs[side] / name), ParticleSet.empty())
    with pytest.raises(SystemExit) as exc:
        main(["solve-flow", "--low", str(dirs["low"]), "--high", str(dirs["high"]),
              "--out", str(tmp_path / "field.ugr"), "--dims", "12,12,12"])
    assert str(dirs[side] / name) in str(exc.value.code)
    assert not list(tmp_path.glob("field*"))


def test_infer_pairs_grids_by_name(workspace, tmp_path):
    # one grid missing and an unrelated grid in its place: pairing by sorted
    # position would move frame 1 with the high track's velocity
    _, ds, _ = workspace
    pair = ds / "pair_000"
    infer_in = _copy_frames(pair, tmp_path / "in", "low_*.upf", "vel_low_*.ugr")
    (infer_in / "vel_low_001.ugr").unlink()
    shutil.copyfile(pair / "vel_high_000.ugr", infer_in / "vel_high_000.ugr")
    ckpt = tmp_path / "model.ffn"
    DisplacementNet.create(NetworkConfig(
        levels=(LevelConfig(2, 0.1, (2,)),), embedding_widths=(2,),
        smoothing_convs=0, upconv_widths=((2,),))).save(str(ckpt))
    with pytest.raises(SystemExit) as err:
        main(["infer", "--input", str(infer_in), "--ckpt", str(ckpt),
              "--out", str(tmp_path / "out"), "--dt", SIM_DT])
    assert "vel_low_001.ugr" in str(err.value)
    assert not (tmp_path / "out").exists()


def test_infer_counts_particles_outside_the_grid(workspace, tmp_path, capsys):
    # a head bias of 100 units (5 world units a frame) carries every up-res'd
    # particle out of the 0.5-wide grid, and each frame line says so
    _, ds, _ = workspace
    infer_in = _copy_frames(ds / "pair_000", tmp_path / "in", "low_000.upf",
                            "vel_low_000.ugr")
    model = DisplacementNet.zeros(NetworkConfig(
        levels=(LevelConfig(2, 0.1, (2,)),), embedding_widths=(2,),
        smoothing_convs=0, upconv_widths=((2,),)))
    model.params["reg.b"].value[...] = (100.0, 0.0, 0.0)
    model.save(str(tmp_path / "model.ffn"))
    assert main(["infer", "--input", str(infer_in), "--ckpt", str(tmp_path / "model.ffn"),
                 "--out", str(tmp_path / "out"), "--dt", SIM_DT]) == 0
    m = re.search(r"-> (\d+) particles, (\d+) outside the grid", capsys.readouterr().out)
    assert m and int(m[1]) > 0 and m[1] == m[2]


@pytest.mark.parametrize("dt", [None, "0", "-0.025", "nan", "inf", "soon"])
def test_infer_requires_a_positive_time_step(tmp_path, capsys, dt):
    # a missing --dt used to advect the input motion by 1/30 s, silently
    argv = ["infer", "--input", str(tmp_path), "--ckpt", str(tmp_path / "m.ffn"),
            "--out", str(tmp_path / "out")] + ([] if dt is None else ["--dt", dt])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--dt" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_infer_rejects_fewer_than_one_pass(workspace, tmp_path, capsys):
    # a valid input and checkpoint: the bad value alone must stop the verb,
    # before it loads the checkpoint or creates --out
    _, ds, _ = workspace
    infer_in = _copy_frames(ds / "pair_000", tmp_path / "in", "low_*.upf", "vel_low_*.ugr")
    ckpt = tmp_path / "model.ffn"
    DisplacementNet.create(NetworkConfig(
        levels=(LevelConfig(2, 0.1, (2,)),), embedding_widths=(2,),
        smoothing_convs=0, upconv_widths=((2,),))).save(str(ckpt))
    with pytest.raises(SystemExit) as exc:
        main(["infer", "--input", str(infer_in), "--ckpt", str(ckpt), "--passes", "0",
              "--out", str(tmp_path / "out"), "--dt", SIM_DT])
    assert exc.value.code == 2
    assert "--passes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_reports_frame_count_mismatch(pair_frames, tmp_path, capsys):
    low_frames, high_frames = pair_frames
    ref = _copy_frames(high_frames, tmp_path / "ref", "high_000.upf")
    assert main(["eval", "--pred", str(low_frames), "--ref", str(ref)]) == 0
    out = capsys.readouterr().out
    assert "holds 2 frames" in out and "comparing the first 1" in out
    assert "frame 001" not in out


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_a_directory_without_frames_is_named(tmp_path, command):
    empty = tmp_path / "empty"
    empty.mkdir()
    argv = {"infer": ["infer", "--input", str(empty), "--ckpt", str(tmp_path / "model.ffn"),
                      "--out", str(tmp_path / "out"), "--dt", SIM_DT],
            "eval": ["eval", "--pred", str(empty), "--ref", str(empty)]}[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == f"no .upf frames found in {empty}"


@pytest.mark.parametrize("threshold", ["nan", "-1", "inf", "close"])
def test_eval_rejects_a_negative_or_non_finite_threshold(pair_frames, capsys, threshold):
    low_frames, high_frames = pair_frames
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--pred", str(low_frames), "--ref", str(high_frames),
              "--threshold", threshold])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--threshold" in err and repr(threshold) in err


@pytest.mark.parametrize("side", ["pred", "ref"])
def test_eval_names_an_empty_frame(pair_frames, tmp_path, side):
    low_frames, high_frames = pair_frames
    dirs = {"pred": _copy_frames(low_frames, tmp_path / "pred", "*.upf"),
            "ref": _copy_frames(high_frames, tmp_path / "ref", "*.upf")}
    name = sorted(os.listdir(dirs[side]))[1]
    uio.save_particles(str(dirs[side] / name), ParticleSet.empty())
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--pred", str(dirs["pred"]), "--ref", str(dirs["ref"])])
    assert str(dirs[side] / name) in str(exc.value.code)
    assert "empty" in str(exc.value.code)


def test_train_and_infer_and_eval(workspace, capsys):
    root, ds, net_cfg = workspace
    ckpt = root / "model.ffn"
    assert main(["train", "--manifest", str(ds), "--config", str(net_cfg),
                 "--epochs", "2", "--ckpt", str(ckpt)]) == 0
    assert ckpt.exists()

    # inference input: low frames + velocity grids of pair 0
    pair = ds / "pair_000"
    infer_in = _copy_frames(pair, root / "infer_in", "low_*.upf", "vel_low_*.ugr")
    infer_out = root / "infer_out"
    capsys.readouterr()
    assert main(["infer", "--input", str(infer_in), "--ckpt", str(ckpt),
                 "--passes", "2", "--out", str(infer_out), "--dt", SIM_DT]) == 0
    frames = sorted(os.listdir(infer_out))
    assert len(frames) == 2
    up = uio.load_particles(str(infer_out / frames[0]))
    assert up.count > 0
    # each frame line counts the up-res'd particles that left the input
    # velocity grid's box: few of them may
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        m = re.search(r"-> (\d+) particles, (\d+) outside the grid", line)
        assert m, line
        assert int(m[2]) < 0.05 * int(m[1]), line

    # evaluation vs the high-res frames
    ref_dir = _copy_frames(pair, root / "ref_frames", "high_*.upf")
    assert main(["eval", "--pred", str(infer_out), "--ref", str(ref_dir),
                 "--threshold", "0.1"]) == 0


def test_train_default_network_scales_with_the_seeded_spacing(workspace, tmp_path, monkeypatch):
    # GEN_CFG's low track has a 0.06 cell seeded 2 per axis: spacing 0.03
    _, ds, _ = workspace
    cfg = tmp_path / "train.cfg"
    cfg.write_text("[train]\nlr = 0.003\n")
    built = []

    class Stop(Exception):
        pass

    def recording(samples, net_cfg, *args, **kwargs):
        built.append(net_cfg)
        raise Stop

    monkeypatch.setattr("upflow.cli.train_net", recording)
    with pytest.raises(Stop):
        main(["train", "--manifest", str(ds), "--config", str(cfg),
              "--epochs", "1", "--ckpt", str(tmp_path / "model.ffn")])
    radii = [lv.radius for lv in built[0].levels]
    assert radii == pytest.approx([0.06, 0.12, 0.24])


@pytest.mark.parametrize("epochs", ["0", "-3", "two"])
def test_train_rejects_fewer_than_one_epoch(workspace, tmp_path, capsys, epochs):
    _, ds, net_cfg = workspace
    ckpt = tmp_path / "model.ffn"
    with pytest.raises(SystemExit) as exc:
        main(["train", "--manifest", str(ds), "--config", str(net_cfg),
              "--epochs", epochs, "--ckpt", str(ckpt)])
    assert exc.value.code == 2
    assert "--epochs" in capsys.readouterr().err
    assert not ckpt.exists()


def test_export_obj_cli(workspace):
    root, ds, _ = workspace
    out = root / "objs"
    assert main(["export-obj", "--frames", str(ds / "pair_000"), "--out",
                 str(out)]) == 0
    assert any(f.endswith(".obj") for f in os.listdir(out))
