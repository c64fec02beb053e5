"""Tests of the benchmark itself, at its small sizes.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Each workload runs end to end through run.py; each correctness check is
shown to pass on a right output and to fail on a deliberately wrong one.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    return record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_and_passes_its_checks(workload):
    record = _result(_run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--sizes", "small"))
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == names
    assert all(v["value"] > 0 for v in record["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_reports_every_layer(workload):
    record = _result(_run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--sizes", "small"))
    assert record["correct"] and record["failed"] == 0
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == names
    own = {"dataset": ("flip.step_s", "sdf.build_s", "optflow.cg_s", "io.write_s"),
           "train": ("net.ball_gather_s", "autodiff.backward_s", "net.adam_s"),
           "upres": ("net.predict_s", "flip.resample_band_s", "metrics.match_s")}[workload]
    assert all(record["metrics"][name]["value"] > 0 for name in own)


def test_same_seed_same_inputs():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import stages
    a = stages.TrainStage("small", 5, "")
    b = stages.TrainStage("small", 5, "")
    c = stages.TrainStage("small", 6, "")
    assert np.array_equal(a.samples[0].x_l.positions, b.samples[0].x_l.positions)
    assert not np.array_equal(a.samples[0].x_l.positions, c.samples[0].x_l.positions)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "train", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- each check passes on a right output and fails on a wrong one -------------

def test_digest_and_determinism():
    a = [np.arange(6.0).reshape(2, 3)]
    assert checks.same_as_before(checks.digest(a), checks.digest([a[0].copy()]), "x") is None
    wrong = [a[0] + np.array([0, 0, 1e-12])]
    assert checks.same_as_before(checks.digest(wrong), checks.digest(a), "x")
    assert checks.same_as_before(checks.digest(a), None, "x") is None


def test_counts_never_fall():
    assert checks.counts_never_fall([5, 5, 7], "t") is None
    assert checks.counts_never_fall([5, 7, 6], "t")


def test_inside_box():
    p = np.array([[0.1, 0.2, 0.3], [0.5, 0.5, 0.0]])
    assert checks.inside_box(p, 0.0, [0.5, 0.5, 0.5], "t") is None
    assert checks.inside_box(p + [0, 0, 0.3], 0.0, [0.5, 0.5, 0.5], "t")


class _Frame:
    def __init__(self, n):
        self.particles = type("P", (), {"count": n})()


class _Pair:
    def __init__(self, low, high, src=()):
        self.low_frames = [_Frame(n) for n in low]
        self.high_frames = [_Frame(n) for n in high]
        self.source_pair_ids = src


def test_augmented_shape():
    counts = [([3, 4], [9, 9]), ([5, 5], [8, 9])]
    pairs = [_Pair(*counts[0]), _Pair(*counts[1]),
             _Pair(*counts[0], src=(0, 1)), _Pair(*counts[1], src=(1, 0))]
    assert checks.augmented_shape(2, 1, pairs, counts) is None
    assert checks.augmented_shape(2, 2, pairs, counts)
    bad = pairs[:3] + [_Pair([5, 4], [8, 9], src=(1, 0))]
    assert checks.augmented_shape(2, 1, bad, counts)


def test_same_tree(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        (d / "sub").mkdir(parents=True)
        (d / "sub" / "f.bin").write_bytes(b"\x00\x01")
    assert checks.same_tree(str(a), str(b)) is None
    (b / "sub" / "f.bin").write_bytes(b"\x00\x02")
    assert checks.same_tree(str(a), str(b))
    (b / "extra").write_bytes(b"")
    assert checks.same_tree(str(a), str(b))


def test_label_follows_shift():
    t = np.array([0.0, 0.05, 0.0])
    good = np.tile([0.001, 0.046, 0.0], (10, 1))
    assert checks.label_follows_shift(good, t) is None
    assert checks.label_follows_shift(np.tile([0.02, 0.04, 0.0], (10, 1)), t)   # off axis
    assert checks.label_follows_shift(np.tile([0.0, 0.06, 0.0], (10, 1)), t)    # too long
    assert checks.label_follows_shift(np.zeros((10, 3)), t)


def test_flow_residual_uses_its_own_matvec():
    rng = np.random.default_rng(0)
    m = sp.random(30, 30, density=0.2, random_state=1)
    a_mat = (m @ m.T + 30 * sp.eye(30)).tocsr()
    x = rng.normal(size=30)
    assert np.allclose(checks.csr_matvec(a_mat, x), a_mat @ x, rtol=1e-13, atol=1e-12)
    b = rng.normal(size=30)
    u = sp.linalg.spsolve(a_mat.tocsc(), b)
    assert checks.flow_residual(a_mat, b, u, 1e-8) is None
    assert checks.flow_residual(a_mat, b, u * (1 + 1e-6), 1e-8)
    assert checks.flow_residual(a_mat, np.zeros(30), np.zeros(30), 1e-8) is None


def test_loss_fell():
    assert checks.loss_fell({"train": [2.0, 1.0, 0.5]}) is None
    assert checks.loss_fell({"train": [2.0, 1.0, 2.0]})


def test_beats_zero():
    target = np.tile([0.1, 0.0, 0.0], (5, 1))
    assert checks.beats_zero(target * 0.9, target) is None
    assert checks.beats_zero(-target, target)


def test_moved_by():
    start = np.random.default_rng(0).uniform(size=(20, 3))
    c, dt = np.array([0.3, 0.0, 0.0]), 0.05
    assert checks.moved_by(start + c * dt, start, c, dt) is None
    assert checks.moved_by(start + c * dt + 1e-9, start, c, dt)
    assert checks.moved_by(start[:-1] + c * dt, start, c, dt)


def test_all_finite():
    assert checks.all_finite(np.zeros(3), np.ones(2)) is None
    assert checks.all_finite(np.zeros(3), np.array([1.0, np.nan]))


def test_metrics_match():
    import upflow as uf
    rng = np.random.default_rng(1)
    pp, pd = rng.uniform(size=(60, 3)), 0.1 * rng.normal(size=(60, 3))
    rp, rd = rng.uniform(size=(50, 3)), 0.1 * rng.normal(size=(50, 3))
    e = uf.epe(pp, pd, rp, rd)
    a = uf.flow_accuracy(pp, pd, rp, rd, threshold=0.1, eps=0.001)
    assert checks.metrics_match(e, a, pp, pd, rp, rd, 0.1, 0.001) is None
    assert checks.metrics_match(e * (1 + 1e-9), a, pp, pd, rp, rd, 0.1, 0.001)
    assert checks.metrics_match(e, a + 0.02, pp, pd, rp, rd, 0.1, 0.001)


def test_tracer_self_times_and_uninstall():
    import upflow as uf
    import upflow.grids as grids
    import upflow.particles as particles
    original = grids.sample_trilinear
    tracer = Tracer()
    tracer.install()
    try:
        assert particles.sample_trilinear is not original
        desc = uf.GridDesc((0, 0, 0), 0.1, (4, 4, 4))
        p = uf.ParticleSet(np.full((5, 3), 0.2), np.zeros((5, 3)))
        uf.advect_particles(p, uf.MACGrid.constant(desc, (0.1, 0, 0)), 0.1)
    finally:
        tracer.uninstall()
    assert grids.sample_trilinear is original and particles.sample_trilinear is original
    assert tracer.times["grids.sample_s"] > 0 and tracer.times["particles.advect_s"] > 0
