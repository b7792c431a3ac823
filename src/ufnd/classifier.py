"""Fine-tuning head: pooled vector -> linear(200) -> batch-norm -> ReLU
-> dropout -> linear(150) -> batch-norm -> ReLU -> dropout -> linear(2)
-> log-softmax.

Layers 1 and 2 have no bias: the batch norm after each subtracts the
batch mean in training, which cancels any per-feature constant, and its
own `bias` shifts the output instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor
from .errors import ArgumentError, ContractError
from .numerics import dropout, log_softmax, param_maker, relu


# Two classes; the batch norms' running-average momentum and epsilon.
N_CLASSES = 2
BN_MOMENTUM = 0.1
BN_EPS = 1e-5


@dataclass(frozen=True)
class HeadConfig:
    """The hidden widths.  The input width is the encoder's `d_model` and
    the dropout rate the encoder's `dropout_rate`."""
    h1: int = 200
    h2: int = 150

    def __post_init__(self):
        if min(self.h1, self.h2) < 1:
            raise ArgumentError("head widths must be >= 1")


@dataclass
class BatchNormState:
    gain: Parameter
    bias: Parameter
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass
class HeadParams:
    l1_w: Parameter
    bn1: BatchNormState
    l2_w: Parameter
    bn2: BatchNormState
    l3_w: Parameter
    l3_b: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.l1_w, self.bn1.gain, self.bn1.bias,
                self.l2_w, self.bn2.gain, self.bn2.bias,
                self.l3_w, self.l3_b]


def init_head_params(cfg: HeadConfig, d_in: int, rng: np.random.Generator,
                     dtype=np.float32, arrays=None) -> HeadParams:
    """Fresh parameters for `d_in` inputs, or with `arrays` those arrays
    (`param_maker`)."""
    make = param_maker(rng, dtype, arrays)

    def bn(name, width):
        return BatchNormState(
            gain=make(name + "/gain", width, 1.0),
            bias=make(name + "/bias", width, 0.0),
            running_mean=make(name + "/running_mean", width, 0.0).data,
            running_var=make(name + "/running_var", width, 1.0).data)

    l1_w = make("head/l1/w", (cfg.h1, d_in))
    l2_w = make("head/l2/w", (cfg.h2, cfg.h1))
    l3_w = make("head/l3/w", (N_CLASSES, cfg.h2))
    return HeadParams(l1_w=l1_w, bn1=bn("head/bn1", cfg.h1),
                      l2_w=l2_w, bn2=bn("head/bn2", cfg.h2),
                      l3_w=l3_w, l3_b=make("head/l3/b", N_CLASSES, 0.0))


def bn_forward(x: Tensor, state: BatchNormState, mode: str) -> Tensor:
    """Batch normalization over features.

    Train mode normalizes by batch statistics (population variance) and
    updates the running averages; eval mode uses the running statistics.
    """
    if mode == "train":
        if x.shape[0] < 2:
            raise ContractError("bn_forward: train mode requires batch >= 2")
        mean = x.data.mean(axis=0)
        var = x.data.var(axis=0)
        state.running_mean = ((1.0 - BN_MOMENTUM) * state.running_mean
                              + BN_MOMENTUM * mean).astype(x.dtype)
        state.running_var = ((1.0 - BN_MOMENTUM) * state.running_var
                             + BN_MOMENTUM * var).astype(x.dtype)
    elif mode == "eval":
        mean, var = state.running_mean, state.running_var
    else:
        raise ArgumentError(f"bn_forward mode must be 'train' or 'eval', got {mode!r}")
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mean) * inv_std
    out_data = xhat * state.gain.data + state.bias.data

    def bwd(g):
        if state.gain.requires_grad:
            state.gain.accumulate_grad((g * xhat).sum(axis=0))
        if state.bias.requires_grad:
            state.bias.accumulate_grad(g.sum(axis=0))
        if x.requires_grad and mode == "eval":  # constant statistics
            x.accumulate_grad(g * state.gain.data * inv_std)
        elif x.requires_grad:
            gx, n = g * state.gain.data, x.shape[0]
            x.accumulate_grad(inv_std / n * (
                n * gx - gx.sum(axis=0) - xhat * (gx * xhat).sum(axis=0)))

    return Tensor(out_data, _parents=(x, state.gain, state.bias),
                  _backward=bwd)


def head_forward(pooled: Tensor, params: HeadParams, dropout_rate: float,
                 mode: str, rng: np.random.Generator) -> Tensor:
    """Two hidden layers with BN+ReLU+dropout, then log-softmax logits."""
    h = ag.linear(pooled, params.l1_w)
    h = dropout(relu(bn_forward(h, params.bn1, mode)), dropout_rate,
                mode, rng)
    h = ag.linear(h, params.l2_w)
    h = dropout(relu(bn_forward(h, params.bn2, mode)), dropout_rate,
                mode, rng)
    return log_softmax(ag.linear(h, params.l3_w, params.l3_b))


def predict(log_probs) -> np.ndarray:
    """Argmax per row; ties resolve to the lower class index."""
    data = log_probs.data if isinstance(log_probs, Tensor) else np.asarray(log_probs)
    return np.argmax(data, axis=-1)
