import inspect

import numpy as np
import pytest

from test_net import (_ref_div, _ref_gather, _ref_masked_max, _ref_mean, _ref_relu,
                      _ref_sqrt, _ref_sum)
from upflow import ParticleSet, TrainingSample
from upflow.autodiff import Tensor, as_tensor, custom, parameter
from upflow.net import DisplacementNet, LevelConfig, NetworkConfig, loss_gradients


def fd_check(make_loss, param, rel_tol=1e-6, eps=1e-6):
    """Central finite differences against the tape gradient for one leaf."""
    param.grad = None
    loss = make_loss()
    loss.backward()
    analytic = param.grad.copy()
    flat = param.value.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = float(make_loss().value)
        flat[i] = keep - eps
        dn = float(make_loss().value)
        flat[i] = keep
        numeric[i] = (up - dn) / (2 * eps)
    numeric = numeric.reshape(param.value.shape)
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < rel_tol, rel.max()


def test_add_mul_broadcast():
    rng = np.random.default_rng(0)
    p = parameter(rng.normal(size=(4, 3)))
    c = rng.normal(size=(3,))
    fd_check(lambda: ((p * c + 2.0) * p).sum(), p)


# Division, square root, ReLU, gather, masked max, sums over several axes
# and means along one axis are `_ref_*` nodes of `tests/test_net.py`, the
# tape-built reference the fused network layers are checked against; the
# library itself has no such nodes.

def test_div_and_sqrt():
    rng = np.random.default_rng(1)
    p = parameter(rng.uniform(0.5, 2.0, size=(5,)))
    fd_check(lambda: (_ref_div(1.0, p) + _ref_sqrt(p)).sum(), p)


def test_matmul():
    rng = np.random.default_rng(2)
    p = parameter(rng.normal(size=(4, 6)))
    x = rng.normal(size=(3, 4))
    fd_check(lambda: (as_tensor(x) @ p).abs().sum(), p)


def test_relu_kink_free_points():
    rng = np.random.default_rng(3)
    p = parameter(rng.normal(size=(10,)) + np.sign(rng.normal(size=10)) * 0.5)
    fd_check(lambda: (_ref_relu(p) * 3.0).sum(), p)


def test_gather_fd():
    rng = np.random.default_rng(4)
    p = parameter(rng.normal(size=(6, 2)))
    idx = np.array([[0, 2], [5, 5], [1, 3]])
    fd_check(lambda: _ref_gather(p, idx).abs().sum(), p)


def test_sum_axes_keepdims():
    rng = np.random.default_rng(5)
    p = parameter(rng.normal(size=(3, 4, 2)))
    fd_check(lambda: (_ref_sum(p, (0, 1), keepdims=True) * p).sum(), p)


def test_mean():
    rng = np.random.default_rng(6)
    p = parameter(rng.normal(size=(7, 3)))
    fd_check(lambda: (_ref_mean(p, 0) * _ref_mean(p, 0)).sum(), p)


def test_masked_max_routes_to_argmax():
    vals = np.array([[[1.0, 5.0], [3.0, 2.0], [9.0, 9.0]],
                     [[4.0, 1.0], [4.0, 8.0], [0.0, 0.0]]])
    valid = np.array([[True, True, False], [True, True, False]])
    p = parameter(vals)
    out = _ref_masked_max(p, valid)
    assert np.array_equal(out.value, [[3.0, 5.0], [4.0, 8.0]])
    out.sum().backward()
    g = p.grad
    # ties (row 1: 4.0 vs 4.0 in channel 0) go to the lowest index
    assert g[1, 0, 0] == 1.0 and g[1, 1, 0] == 0.0
    assert g[0, 1, 0] == 1.0 and g[0, 0, 1] == 1.0
    # masked-out entries receive nothing even if they dominate
    assert g[0, 2, 0] == 0.0 and g[0, 2, 1] == 0.0


def test_masked_max_empty_rows_produce_zero():
    p = parameter(np.ones((2, 3, 4)))
    valid = np.array([[False, False, False], [True, False, False]])
    out = _ref_masked_max(p, valid)
    assert np.array_equal(out.value[0], np.zeros(4))
    out.sum().backward()
    assert np.all(p.grad[0] == 0.0)


def test_masked_max_fd():
    rng = np.random.default_rng(8)
    p = parameter(rng.normal(size=(3, 4, 2)))
    valid = rng.uniform(size=(3, 4)) > 0.3
    valid[0] = True
    fd_check(lambda: _ref_masked_max(p, valid).abs().sum(), p)


def test_custom_node_routes_one_gradient_per_parent():
    # y = a * b with a hand-written backward; None leaves a parent untouched
    rng = np.random.default_rng(9)
    a = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=(3, 4)))
    c = parameter(rng.normal(size=(4,)))
    fd_check(lambda: custom(a.value * b.value, (a, b),
                            lambda g: (g * b.value, g * a.value)).abs().sum(), a)
    fd_check(lambda: custom(a.value * b.value, (a, b),
                            lambda g: (g * b.value, g * a.value)).abs().sum(), b)
    a.grad = c.grad = None
    (custom(a.value * c.value, (a, c), lambda g: (g * c.value, None)) * 2.0).sum().backward()
    assert c.grad is None
    assert np.array_equal(a.grad, np.broadcast_to(2.0 * c.value, (3, 4)))


def test_custom_node_skips_constant_parents():
    p = parameter(np.ones(2))
    k = as_tensor(np.full(2, 3.0))
    out = custom(p.value + k.value, (p, k), lambda g: (g, g))
    out.sum().backward()
    assert np.array_equal(p.grad, np.ones(2)) and k.grad is None


def test_diamond_graph_accumulates_once():
    p = parameter(np.array(2.0).reshape(()))
    y = p * 3.0
    z = y + y  # y consumed twice
    z.backward()
    assert p.grad == pytest.approx(6.0)


def test_backward_requires_scalar():
    p = parameter(np.ones(3))
    with pytest.raises(ValueError):
        (p * 2.0).backward()


def test_every_tape_op_runs_in_the_network(monkeypatch):
    # one loss gradient and one prediction on criterion 06's layout reach
    # every function of Tensor and pass every parameter it has: an operation
    # or a parameter that only tests use belongs in the tests, as the
    # reference nodes above do
    wrapped = {name: fn for name, fn in vars(Tensor).items()
               if inspect.isfunction(fn) and name != "__init__"}
    passed = {name: set() for name in wrapped}

    def traced(name, fn):
        signature = inspect.signature(fn)

        def run(*args, **kwargs):
            passed[name] |= set(signature.bind(*args, **kwargs).arguments)
            return fn(*args, **kwargs)
        return run
    for name, fn in wrapped.items():
        monkeypatch.setattr(Tensor, name, traced(name, fn))
    cfg = NetworkConfig(
        levels=(LevelConfig(8, 0.25, (6,)), LevelConfig(4, 0.5, (8,)),
                LevelConfig(2, 0.9, (10,))),
        embedding_widths=(12,), embedding_radius=0.9, smoothing_convs=1,
        upconv_widths=((10,), (8,), (6,)), seed=12)
    rng = np.random.default_rng(3)
    pts = np.array([0.5, 0.5, 0.5]) + 0.15 * rng.uniform(-1, 1, size=(30, 3))
    vel = 0.1 * rng.normal(size=(30, 3))
    x_l, x_h = ParticleSet(pts, vel), ParticleSet(pts + 0.02, vel)
    model = DisplacementNet.create(cfg)
    loss_gradients(model, TrainingSample(x_l, x_h, np.full((30, 3), 0.02),
                                         np.full(30, 0.5)))
    model.predict(x_l, x_h)
    assert passed == {name: set(inspect.signature(fn).parameters)
                      for name, fn in wrapped.items()}


def test_values_are_float64():
    t = as_tensor(np.ones(3, dtype=np.float32))
    assert t.value.dtype == np.float64
