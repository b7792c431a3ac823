"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tensors wrap float32 (or float64) numpy arrays and record a backward
closure per operation.  Calling ``backward()`` on a scalar output walks
the graph in reverse topological order and accumulates gradients into
every tensor with ``requires_grad`` set.  Inside ``no_grad()`` no graph
is recorded.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ShapeError


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


_recording = True


@contextmanager
def no_grad():
    """Record no graph inside the block.

    Tensors made here keep neither parents nor backward closure, so each
    op's intermediate arrays are freed as soon as the forward moves on,
    and ``requires_grad`` is set only by an explicit argument.  Recording
    resumes when the block exits, by an exception too.
    """
    global _recording
    previous = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if isinstance(data, np.ndarray):
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        if not _recording:
            _parents, _backward = (), None
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents
        )
        self._parents = _parents
        self._backward = _backward

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"

    # -- gradient machinery --------------------------------------------

    def accumulate_grad(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Backpropagate from this (scalar or any-shape) tensor."""
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(
            np.asarray(other, dtype=self.data.dtype))
        out_data = self.data + other.data

        def bwd(g):
            if self.requires_grad:
                self.accumulate_grad(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other.accumulate_grad(_unbroadcast(g, other.shape))

        return Tensor(out_data, _parents=(self, other), _backward=bwd)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, Tensor):
            out_data = self.data * other.data

            def bwd(g):
                if self.requires_grad:
                    self.accumulate_grad(_unbroadcast(g * other.data, self.shape))
                if other.requires_grad:
                    other.accumulate_grad(_unbroadcast(g * self.data, other.shape))

            return Tensor(out_data, _parents=(self, other), _backward=bwd)
        scalar = float(other)
        out_data = self.data * scalar

        def bwd_scalar(g):
            if self.requires_grad:
                self.accumulate_grad(g * scalar)

        return Tensor(out_data, _parents=(self,), _backward=bwd_scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __sub__(self, other):
        return self + (-other if isinstance(other, Tensor) else -np.asarray(other))


class Parameter(Tensor):
    """A named trainable tensor."""

    __slots__ = ("name",)

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.shape})"


# -- structural ops ----------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading batch dimensions broadcast per numpy."""
    if a.shape[-1] != b.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul: inner dimensions disagree: {a.shape} x {b.shape}")
    out_data = a.data @ b.data

    def bwd(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate_grad(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b.accumulate_grad(_unbroadcast(gb, b.shape))

    return Tensor(out_data, _parents=(a, b), _backward=bwd)


def transpose(x: Tensor, axes: tuple) -> Tensor:
    inv = np.argsort(axes)
    out_data = np.transpose(x.data, axes)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(np.transpose(g, inv))

    return Tensor(out_data, _parents=(x,), _backward=bwd)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    old_shape = x.shape
    out_data = x.data.reshape(shape)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(old_shape))

    return Tensor(out_data, _parents=(x,), _backward=bwd)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup `table[ids]` with scatter-add backward."""
    if ids.max(initial=0) >= table.shape[0]:
        raise ShapeError(
            f"embedding: id {int(ids.max())} out of range for table of "
            f"{table.shape[0]} rows")
    out_data = table.data[ids]

    def bwd(g):
        if table.requires_grad:
            grad = np.zeros_like(table.data)
            np.add.at(grad, ids, g)
            table.accumulate_grad(grad)

    return Tensor(out_data, _parents=(table,), _backward=bwd)


def take_first(x: Tensor) -> Tensor:
    """Select position 0 along axis 1, keeping it: [B, L, D] -> [B, 1, D]."""
    out_data = x.data[:, :1, :].copy()

    def bwd(g):
        if x.requires_grad:
            grad = np.zeros_like(x.data)
            grad[:, :1, :] = g
            x.accumulate_grad(grad)

    return Tensor(out_data, _parents=(x,), _backward=bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map `x @ weight.T + bias` with weight stored [out, in]."""
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"linear: input width {x.shape[-1]} != weight fan-in {weight.shape[1]}")
    out_data = x.data @ weight.data.T + bias.data

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g @ weight.data)
        if weight.requires_grad:
            g2 = g.reshape(-1, g.shape[-1])
            x2 = x.data.reshape(-1, x.shape[-1])
            weight.accumulate_grad(g2.T @ x2)
        if bias.requires_grad:
            bias.accumulate_grad(g.reshape(-1, g.shape[-1]).sum(axis=0))

    return Tensor(out_data, _parents=(x, weight, bias), _backward=bwd)
