"""Minimal reverse-mode automatic differentiation over numpy arrays.

Tensors wrap float32 (or float64) numpy arrays and record a backward
closure per operation.  Calling ``backward()`` on a scalar output walks
the graph in reverse topological order and accumulates gradients into
every leaf tensor with ``requires_grad`` set, freeing the graph as it
goes, so a graph takes one backward.  Inside ``no_grad()`` no graph is
recorded.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, ShapeError


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class _Recording(threading.local):
    on = True


_recording = _Recording()


@contextmanager
def no_grad():
    """Record no graph inside the block, in the calling thread only.

    Tensors made here keep neither parents nor backward closure, so each
    op's intermediate arrays are freed as soon as the forward moves on,
    and ``requires_grad`` is set only by an explicit argument.  Recording
    resumes when the block exits, by an exception too.
    """
    previous = _recording.on
    _recording.on = False
    try:
        yield
    finally:
        _recording.on = previous


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if isinstance(data, np.ndarray):
            self.data = data
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        if not _recording.on:
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
        """Backpropagate from this (scalar or any-shape) tensor.

        The graph is freed as the walk goes: once a node made by an op has
        handed its gradient to its inputs, it drops that gradient, its
        backward closure and its links to its inputs.  So the arrays a
        block's backward reads are freed while the blocks before it are
        still back-propagating, and a backward holds the gradients of the
        nodes not yet reached; leaves keep theirs.  A second backward
        through a freed node raises `ContractError`.
        """
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
        while topo:  # popped, so the list keeps no node alive behind the walk
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._parents, node._backward = None, (), _freed


def _freed(g):
    raise ContractError("backward: the graph was freed by an earlier "
                        "backward; run the forward again")


_GRAD_SLOT = Tensor.grad


class Parameter(Tensor):
    """A named trainable tensor.

    Its gradient can arrive by rows (`accumulate_rows`): then only the
    rows in play are stored, and `row_grad()` hands them to the
    optimizer.  Reading `grad` still gives the whole dense array, built
    from the rows on first read.
    """

    __slots__ = ("name", "_grad_rows", "_row_values")

    def __init__(self, data, name: str):
        super().__init__(data, requires_grad=True)
        self.name = name
        self._grad_rows = self._row_values = None

    def __repr__(self):
        return f"Parameter(name={self.name!r}, shape={self.shape})"

    @property
    def grad(self):
        if self._grad_rows is not None:
            dense = np.zeros_like(self.data)
            dense[self._grad_rows] = self._row_values
            self.grad = dense
        return _GRAD_SLOT.__get__(self)

    @grad.setter
    def grad(self, value):
        _GRAD_SLOT.__set__(self, value)
        self._grad_rows = self._row_values = None

    def accumulate_rows(self, rows: np.ndarray, values: np.ndarray) -> None:
        """Add `values[i]` to row `rows[i]` of the gradient; `rows` must be
        unique, and `values` becomes the parameter's (no copy is made)."""
        if self._grad_rows is None and _GRAD_SLOT.__get__(self) is None:
            self._grad_rows, self._row_values = rows, values
        else:
            self.grad[rows] += values

    def row_grad(self) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The gradient as `(rows, values)`: `values[i]` is row `rows[i]`
        and every other row is zero.  `rows` is None when `values` is the
        whole dense gradient (or None, when there is no gradient)."""
        if self._grad_rows is not None:
            return self._grad_rows, self._row_values
        return None, _GRAD_SLOT.__get__(self)


# -- structural ops ----------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading batch dimensions broadcast per numpy.

    No model path calls it; it stays while bench/spans.py wraps it."""
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


def take_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Rows `rows` of `x` seen as [-1, D]: [..., D] -> [len(rows), D].

    The backward puts the gradient back at those rows, zeros elsewhere.
    """
    flat = x.data.reshape(-1, x.shape[-1])

    def bwd(g):
        if x.requires_grad:
            grad = np.zeros_like(flat)
            grad[rows] = g
            x.accumulate_grad(grad.reshape(x.shape))

    return Tensor(flat[rows], _parents=(x,), _backward=bwd)


def _give(*pairs: tuple[Tensor, np.ndarray]) -> None:
    """Add each gradient to its tensor, if the tensor takes one."""
    for tensor, grad in pairs:
        if tensor.requires_grad:
            tensor.accumulate_grad(grad)


def _affine(x: np.ndarray, weight: Tensor, bias: Tensor, rebuild=None):
    """`x @ weight.T + bias` for a 2-D `x`, as one product.  `grads(g)`
    hands `weight` and `bias` their gradients and returns the input's.
    It keeps `x` for the weight gradient, or with `rebuild` keeps only
    that zero-argument function, which must return `x` again."""
    # `grads` reads `x` only through `saved`, so with `rebuild` it holds
    # no reference to `x`.
    saved = (lambda: x) if rebuild is None else rebuild

    def grads(g):
        _give((weight, g.T @ saved()), (bias, g.sum(axis=0)))
        return g @ weight.data

    out = x @ weight.data.T
    return np.add(out, bias.data, out=out), grads


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map `x @ weight.T + bias` with weight stored [out, in]."""
    if x.shape[-1] != weight.shape[1]:
        raise ShapeError(
            f"linear: input width {x.shape[-1]} != weight fan-in {weight.shape[1]}")
    out_data, grads = _affine(x.data.reshape(-1, x.shape[-1]), weight, bias)

    def bwd(g):
        _give((x, grads(g.reshape(out_data.shape)).reshape(x.shape)))

    return Tensor(out_data.reshape(*x.shape[:-1], -1),
                  _parents=(x, weight, bias), _backward=bwd)
