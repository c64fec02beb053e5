"""Spans around calls into upflow's public functions, recorded from outside.

The tracer wraps the functions named in LAYERS wherever the ``upflow``
package holds a reference to them (a function imported by name into five
modules is wrapped in all five), so calls made inside the library are
timed too. Each span adds its *self* time to its layer: its duration minus
the time of traced spans nested inside it. Layer times of one operation
therefore add up to at most the operation's time.

Nothing under ``src/`` changes: ``install()`` swaps module and class
attributes and ``uninstall()`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict


def _queries(args, kwargs, result):
    queries = kwargs.get("queries", args[1] if len(args) > 1 else ())
    return {"net.ball_gather.queries": len(queries)}


def _cg_iterations(args, kwargs, result):
    return {"optflow.cg_iters": result[1].iterations}


# (layer metric, module, attribute path, counter or None)
LAYERS = (
    ("flip.step_s", "upflow.flip", "FlipSolver.step", None),
    ("flip.resample_band_s", "upflow.flip", "resample_narrow_band", None),
    ("grids.sample_s", "upflow.grids", "sample_trilinear", None),
    ("grids.extrapolate_s", "upflow.grids", "extrapolate_mac", None),
    ("particles.advect_s", "upflow.particles", "advect_particles", None),
    ("particles.advect_s", "upflow.grids", "advect_positions", None),
    ("io.write_s", "upflow.io", "write_manifest", None),
    ("io.read_s", "upflow.io", "read_manifest", None),
    ("sdf.build_s", "upflow.sdf", "sdf_from_particles", None),
    ("sdf.redistance_s", "upflow.sdf", "redistance", None),
    ("optflow.align_s", "upflow.optflow", "alignment_penalty", None),
    ("optflow.assemble_s", "upflow.optflow", "build_system", None),
    ("optflow.cg_s", "upflow.optflow", "solve_flow", _cg_iterations),
    ("net.fps_s", "upflow.net", "farthest_point_indices", None),
    ("net.ball_gather_s", "upflow.net", "ball_gather", _queries),
    ("net.nearest_s", "upflow.net", "nearest_indices", None),
    ("net.down_s", "upflow.net", "downsample_conv", None),
    ("net.embed_s", "upflow.net", "flow_embedding", None),
    ("net.up_s", "upflow.net", "upsample_conv", None),
    ("net.forward_s", "upflow.net", "DisplacementNet.forward", None),
    ("net.predict_s", "upflow.net", "DisplacementNet.predict", None),
    ("net.adam_s", "upflow.net", "AdamState.step", None),
    ("net.assignment_s", "upflow.net", "neighborhood_assignment", None),
    ("autodiff.backward_s", "upflow.autodiff", "Tensor.backward", None),
    ("inference.transfer_s", "upflow.inference", "transfer_to_grid", None),
    ("metrics.match_s", "upflow.metrics", "match_nearest", None),
)

TIMES = tuple(dict.fromkeys(name for name, _, _, _ in LAYERS))
COUNTS = ("optflow.cg_iters", "net.ball_gather.queries")


def _upflow_modules():
    import upflow
    mods = [upflow]
    for info in pkgutil.iter_modules(upflow.__path__):
        mods.append(importlib.import_module(f"upflow.{info.name}"))
    return mods


class Tracer:
    """Self-time totals per layer plus the counters named in COUNTS.

    ``on_call`` is called after every traced call with (layer, args,
    kwargs, result); the benchmark uses it to capture flow solves for the
    residual check.
    """

    def __init__(self, on_call=None):
        self.times = defaultdict(float)
        self.counts = defaultdict(float)
        self.on_call = on_call
        self._children = []      # time of traced children, one slot per open span
        self._saved = []         # (owner, attribute, original)

    def _wrap(self, layer, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = self._children.pop()
                self.times[layer] += elapsed - nested
                if self._children:
                    self._children[-1] += elapsed
            if counter is not None:
                for name, value in counter(args, kwargs, result).items():
                    self.counts[name] += value
            if self.on_call is not None:
                self.on_call(layer, args, kwargs, result)
            return result
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _upflow_modules()
        for layer, modname, path, counter in LAYERS:
            owner = importlib.import_module(modname)
            cls_name, _, attr = path.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._saved.append((cls, attr, original))
                setattr(cls, attr, self._wrap(layer, original, counter))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(layer, original, counter)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, traced)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
