"""Tape-based reverse-mode differentiation on float64 numpy arrays.

Only the handful of operations the displacement network's loss needs are
provided, plus `custom`, a node whose backward is written by hand (the
network's fused layers). Backward rules are exact. All reductions use numpy's
fixed left-to-right accumulation, so results are reproducible bit-for-bit for
identical inputs.
"""

from __future__ import annotations

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node of the computation tape."""

    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, parents=(), backward=None, requires_grad=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += grad

    def backward(self):
        """Reverse sweep from this (scalar) tensor."""
        if self.value.ndim != 0:
            raise ValueError("backward() expects a scalar loss tensor")
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.array(1.0))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out_val = self.value + other.value

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))
        return Tensor(out_val, (self, other), bw)

    def __sub__(self, other):
        other = as_tensor(other)
        out_val = self.value - other.value

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-g, other.shape))
        return Tensor(out_val, (self, other), bw)

    def __mul__(self, other):
        other = as_tensor(other)
        out_val = self.value * other.value

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.value, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.value, other.shape))
        return Tensor(out_val, (self, other), bw)

    def __matmul__(self, other):
        other = as_tensor(other)
        out_val = self.value @ other.value

        def bw(g):
            if self.requires_grad:
                self._accumulate(g @ other.value.T)
            if other.requires_grad:
                other._accumulate(self.value.T @ g)
        return Tensor(out_val, (self, other), bw)

    # -- elementwise -----------------------------------------------------

    def abs(self):
        sign = np.sign(self.value)
        out_val = np.abs(self.value)

        def bw(g):
            self._accumulate(g * sign)
        return Tensor(out_val, (self,), bw)

    # -- reductions ------------------------------------------------------

    def sum(self, axis=None):
        out_val = self.value.sum(axis=axis)
        src_shape = self.shape

        def bw(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, src_shape).astype(np.float64))
        return Tensor(out_val, (self,), bw)

    def mean(self):
        return self.sum() * (1.0 / self.value.size)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def parameter(value) -> Tensor:
    return Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)


def custom(value, parents, backward) -> Tensor:
    """A node whose backward is written by hand: `backward(g)` returns one
    gradient, or None, per parent. Lets a whole layer be a single node that
    keeps only what its own backward reads."""
    parents = tuple(parents)

    def bw(g):
        for p, gp in zip(parents, backward(g)):
            if gp is not None and p.requires_grad:
                p._accumulate(gp)
    return Tensor(value, parents, bw)
