"""Checks on the source tree itself."""

import ast
import glob
import importlib
import importlib.util
import os
import re
import shutil
import subprocess

import pytest

import upflow

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], capture_output=True, text=True)


def test_no_tracked_file_is_ignored():
    # build and install output (egg-info, caches) must stay out of the index
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
        pytest.skip("the tree is not a git checkout")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def test_public_names_resolve():
    missing = [name for name in upflow.__all__ if not hasattr(upflow, name)]
    assert missing == []


def test_readme_library_tour_names_resolve():
    # a deleted export must not leave the README's tour calling it
    with open(os.path.join(ROOT, "README.md")) as f:
        text = f.read()
    tour = text.split("## Library tour", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\buf\.(\w+)", tour))
    assert names
    missing = sorted(f"uf.{n}" for n in names if not hasattr(upflow, n))
    for module, imported in re.findall(r"^from (upflow[\w.]*) import (.+)$", tour, re.M):
        owner = importlib.import_module(module)
        missing += [f"{module}.{n.strip()}" for n in imported.split(",")
                    if not hasattr(owner, n.strip())]
    assert missing == []


def test_benchmark_tracer_targets_exist():
    # perfbench/tracer.py wraps these functions by name; a rename in the
    # library would break a traced benchmark run
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    if not os.path.isfile(path):
        pytest.skip("perfbench/ is not in this tree")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, modname, attr_path, _ in tracer.LAYERS:
        owner = importlib.import_module(modname)
        cls_name, _, attr = attr_path.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
            found = owner is not None and attr in vars(owner)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{modname}.{attr_path}")
    assert missing == []


def _library_sources():
    """(file name, text) of every module of the library, in name order."""
    src = os.path.dirname(os.path.abspath(upflow.__file__))
    sources = []
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as f:
            sources.append((os.path.basename(path), f.read()))
    return sources


def test_only_particles_builds_a_kd_tree():
    # one neighbour search: every other module goes through particles.py
    users = [name for name, text in _library_sources() if "cKDTree" in text]
    assert users == ["particles.py"]


def test_only_grids_spells_a_face_shape():
    # one MAC layout: every other module asks grids.face_shape
    users = [name for name, text in _library_sources()
             if any(s in text for s in ("nx + 1", "ny + 1", "nz + 1"))]
    assert [u for u in users if u != "grids.py"] == []


def test_no_unbuffered_scatter():
    # np.add.at adds one element at a time; every scatter in the library
    # sums through np.bincount, which keeps its order at a fraction of the cost
    users = []
    for name, text in _library_sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr == "at" \
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "add":
                users.append(f"{name}:{node.lineno}")
    assert users == []
