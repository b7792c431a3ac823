"""Nonlinearities, normalizations, initialization, optimizer, and the
finite-difference gradient checker.

All differentiable ops here build on the reverse-mode engine in
``autograd``.  Stochastic ops draw from named PCG64 streams so every run
is reproducible from a single 64-bit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import Parameter, Tensor, _give
from .errors import ArgumentError, ContractError, NonFiniteError

GELU_VARIANT = "exact-erf"


class RngStreams:
    """Named, independently seeded PCG64 streams.

    The algorithm identity is recorded in run metadata so splits and
    dropout masks are reproducible across implementations.
    """

    ALGORITHM = "numpy-PCG64"
    _STREAM_INDEX = {"init": 0, "dropout": 1, "shuffle": 2}

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gens: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        if name not in self._STREAM_INDEX:
            raise ArgumentError(f"unknown rng stream '{name}'")
        if name not in self._gens:
            ss = np.random.SeedSequence(
                entropy=self.seed, spawn_key=(self._STREAM_INDEX[name],))
            self._gens[name] = np.random.Generator(np.random.PCG64(ss))
        return self._gens[name]

    def state(self) -> dict:
        # materialize all streams so the snapshot is complete
        for name in self._STREAM_INDEX:
            self.stream(name)
        return {name: gen.bit_generator.state for name, gen in self._gens.items()}

    def restore(self, state: dict) -> None:
        for name, st in state.items():
            self.stream(name).bit_generator.state = st


# -- activations and normalizations ------------------------------------


def relu(x: Tensor) -> Tensor:
    out_data = np.maximum(x.data, 0)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * (x.data > 0))

    return Tensor(out_data, _parents=(x,), _backward=bwd)


def gelu(x: Tensor) -> Tensor:
    """x * Phi(x) with the erf form of Phi, not the tanh approximation.
    Float32 `erf` is a clamped rational fit; Phi's error is under 3e-7."""
    out_data, cdf = _gelu(x.data)
    return Tensor(out_data, _parents=(x,), _backward=lambda g: _give(
        (x, g * _gelu_slope(x.data, cdf))))


def _gelu(x: np.ndarray):
    """`gelu` on arrays: the output and the CDF Phi(x).  The output is
    bitwise `x * cdf`."""
    # cdf = 0.5 * (1 + erf(x / sqrt 2)) and out = x * cdf, built 64K
    # values at a time so each slice is still in cache for the next pass.
    cdf = np.empty(x.shape, x.dtype)
    out = np.empty(x.shape, x.dtype)
    for xs, cs, os_ in zip(*map(_slices, (x, cdf, out))):
        np.divide(xs, math.sqrt(2.0), out=cs)
        _erf(cs)
        cs += 1.0
        cs *= 0.5
        np.multiply(xs, cs, out=os_)
    return out, cdf


def _gelu_slope(x: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """d/dx x * Phi(x), from `_gelu`'s CDF: cdf + x * exp(-x^2 / 2) /
    sqrt(2 pi), built in one buffer."""
    p = x * x
    p *= -0.5
    np.exp(p, out=p)
    p /= math.sqrt(2.0 * math.pi)
    p *= x
    p += cdf
    return p


def _slices(a: np.ndarray) -> list[np.ndarray]:
    """`a` flattened, in consecutive slices of 64K values; views of `a`
    when it is C-contiguous."""
    return np.split(a.reshape(-1), range(1 << 16, a.size, 1 << 16))


# Eigen's `generic_fast_erf_float` (also XLA's float32 erf): an odd
# polynomial over an even one in x^2, on x clamped to +-4, beyond which
# float32 erf is +-1.  Highest power first, for Horner.
_ERF_NUM = np.array([-2.72614225801306e-10, 2.77068142495902e-08,
                     -2.10102402082508e-06, -5.69250639462346e-05,
                     -7.34990630326855e-04, -2.95459980854025e-03,
                     -1.60960333262415e-02], dtype=np.float32)
_ERF_DEN = np.array([-1.45660718464996e-05, -2.13374055278905e-04,
                     -1.68282697438203e-03, -7.37332916720468e-03,
                     -1.42647390514189e-02], dtype=np.float32)


def _erf(x: np.ndarray) -> None:
    """erf(x) in place: the rational fit in float32, `math.erf` in any
    other dtype.  NaN stays NaN."""
    if x.dtype != np.float32:
        x[...] = np.frompyfunc(math.erf, 1, 1)(x)
        return
    np.clip(x, -4.0, 4.0, out=x)
    x2 = x * x
    num, den = np.full_like(x, _ERF_NUM[0]), np.full_like(x, _ERF_DEN[0])
    for acc, coeffs in ((num, _ERF_NUM), (den, _ERF_DEN)):
        for c in coeffs[1:]:
            acc *= x2
            acc += c
    num *= x
    np.divide(num, den, out=x)
    # The fit overshoots +-1 by an ulp near the clamp.
    np.clip(x, -1.0, 1.0, out=x)


def log_softmax(x: Tensor) -> Tensor:
    """Numerically stable log softmax along the last axis."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out_data = shifted - log_z

    def bwd(g):
        if x.requires_grad:
            softmax = np.exp(out_data)
            x.accumulate_grad(g - softmax * g.sum(axis=-1, keepdims=True))

    return Tensor(out_data, _parents=(x,), _backward=bwd)


def masked_softmax(scores: Tensor, key_mask: np.ndarray) -> Tensor:
    """Softmax over the last axis with masked keys receiving exactly 0.

    `key_mask` has shape [batch, n_keys] with 1 for real positions; it is
    broadcast over any middle axes (heads, query positions).
    """
    if np.any(key_mask.sum(axis=-1) < 1):
        raise ContractError("masked_softmax: a sample has no unmasked key")
    probs, scores_grad = _masked_softmax(scores.data.copy(), key_mask)
    return Tensor(probs, _parents=(scores,),
                  _backward=lambda g: _give((scores, scores_grad(g))))


def _masked_softmax(scores: np.ndarray, key_mask: np.ndarray):
    """`masked_softmax` on arrays, computed in `scores` itself, which
    becomes the probabilities; `scores_grad(g)` maps the gradient of the
    probabilities to the scores'."""
    expanded = key_mask.reshape(
        key_mask.shape[0], *([1] * (scores.ndim - 2)), key_mask.shape[1])
    pad = ~(expanded > 0)
    if pad.any():
        np.copyto(scores, np.array(-np.inf, dtype=scores.dtype), where=pad)
    probs = scores
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def scores_grad(g):
        inner = (g * probs).sum(axis=-1, keepdims=True)
        return probs * (g - inner)

    return probs, scores_grad


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row normalization over the last axis, then affine gain/bias."""
    out_data, grads = _layer_norm(x.data, gain, bias, eps)
    return Tensor(out_data, _parents=(x, gain, bias),
                  _backward=lambda g: _give((x, grads(g))))


def _layer_norm(x: np.ndarray, gain: Tensor, bias: Tensor, eps: float):
    """`layer_norm` on arrays.  `grads(g)` hands `gain` and `bias` their
    gradients and returns the input's."""
    # The variance as x.var computes it, reusing the centred rows.
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(np.square(xhat).mean(axis=-1, keepdims=True) + eps)
    xhat *= inv_std
    d = x.shape[-1]

    def grads(g):
        _give((gain, (g * xhat).reshape(-1, d).sum(axis=0)),
              (bias, g.reshape(-1, d).sum(axis=0)))
        gx = g * gain.data
        g_x = gx * d - gx.sum(axis=-1, keepdims=True)
        g_x -= xhat * (gx * xhat).sum(axis=-1, keepdims=True)
        return np.multiply(g_x, inv_std / d, out=g_x)

    return xhat * gain.data + bias.data, grads


def dropout(x: Tensor, rate: float, mode: str,
            rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity in eval mode or at rate 0.  The mask is
    kept as bool."""
    if not 0.0 <= rate < 1.0:
        raise ArgumentError(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "eval" or rate == 0.0:
        return x
    if mode != "train":
        raise ArgumentError(f"dropout mode must be 'train' or 'eval', got {mode!r}")
    keep = rng.random(x.shape) >= rate
    scale = 1.0 / (1.0 - rate)
    out_data = x.data * keep * scale

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * keep * scale)

    return Tensor(out_data, _parents=(x,), _backward=bwd)


# -- loss --------------------------------------------------------------


def nll_loss(log_probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over a batch of log-probability rows."""
    n_classes = log_probs.shape[-1]
    targets = np.asarray(targets)
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= n_classes:
        raise ArgumentError(
            f"targets must lie in [0, {n_classes}), got "
            f"[{targets.min()}, {targets.max()}]")
    batch = log_probs.shape[0]
    rows = np.arange(batch)
    loss = -log_probs.data[rows, targets].mean()

    def bwd(g):
        if log_probs.requires_grad:
            grad = np.zeros_like(log_probs.data)
            grad[rows, targets] = -1.0 / batch
            log_probs.accumulate_grad(grad * g)

    return Tensor(np.asarray(loss, dtype=log_probs.dtype),
                  _parents=(log_probs,), _backward=bwd)


# -- initialization ----------------------------------------------------


def xavier_init(shape: tuple, rng: np.random.Generator,
                dtype=np.float32) -> np.ndarray:
    """Uniform Glorot initialization on +-sqrt(6 / (fan_in + fan_out))."""
    fan_out, fan_in = shape[0], shape[-1]
    if fan_in < 1 or fan_out < 1:
        raise ArgumentError(f"xavier_init: both fans must be >= 1, got {shape}")
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def param_maker(rng: np.random.Generator, dtype=np.float32,
                arrays: dict[str, np.ndarray] | None = None):
    """`make(name, shape, fill=None)` builds the named parameter: a Xavier
    draw from `rng`, or `fill` everywhere.  With `arrays` (say, a
    checkpoint's) it takes `arrays[name]` itself instead and draws
    nothing."""
    def make(name: str, shape, fill: float | None = None) -> Parameter:
        if arrays is not None:
            data = arrays[name]
        elif fill is None:
            data = xavier_init(shape, rng, dtype)
        else:
            data = np.full(shape, fill, dtype=dtype)
        return Parameter(data, name)
    return make


# -- optimizer stack ---------------------------------------------------


def clip_global_norm(params: list[Parameter], clip: float) -> float:
    """Scale all gradients so their global L2 norm is at most `clip`.

    A gradient held by rows is squared and scaled on those rows only; its
    other rows are zero.  Returns the pre-clip norm.
    """
    if clip <= 0:
        raise ArgumentError(f"clip must be positive, got {clip}")
    grads = [g for _, g in (p.row_grad() for p in params) if g is not None]
    total = 0.0
    for g in grads:
        total += float(np.sum(g.astype(np.float64) ** 2))
    norm = math.sqrt(total)
    if norm > clip:
        scale = clip / norm
        for g in grads:
            g *= scale
    return norm


def _rows_in_use(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows where `m` or `v` has any nonzero bit (-0.0 counts)."""
    def bits(a):
        return a.reshape(len(a), -1).view(f"u{a.itemsize}")
    return np.flatnonzero(np.any(bits(m) != 0, axis=1)
                          | np.any(bits(v) != 0, axis=1))


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments of one parameter; the decay rates and `eps` are the
    module's `ADAM_*` constants.

    `rows` are the rows the update runs on while gradients arrive by
    rows: every row that has had a gradient since the state began, or on
    resume carries a nonzero moment.  Any other row has zero gradient,
    `m` and `v`, which the update leaves exactly as they are.  `rows` is
    None once a dense gradient has arrived: the update then runs on the
    whole arrays.
    """

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    lr: float = 0.003
    rows: np.ndarray | None = field(
        default_factory=lambda: np.empty(0, dtype=np.intp))

    @classmethod
    def for_param(cls, param: Parameter, lr: float = 0.003) -> "AdamState":
        return cls(m=np.zeros_like(param.data), v=np.zeros_like(param.data),
                   lr=lr)

    def resume(self, m: np.ndarray, v: np.ndarray, t: int) -> None:
        """Continue from saved moments after `t` steps."""
        self.m, self.v, self.t = m, v, t
        self.rows = _rows_in_use(m, v)


def adam_step(param: Parameter, state: AdamState) -> None:
    """One Adam update in place; a zero gradient leaves the value unchanged.

    A gradient held by rows updates only `state.rows`, which is bitwise
    the update of the whole arrays (see `AdamState`).
    """
    rows, g = param.row_grad()
    if g is None:
        return
    if rows is not None and state.rows is not None:
        state.t += 1
        state.rows = kept = np.union1d(state.rows, rows)
        kept_g = np.zeros((kept.size,) + g.shape[1:], dtype=g.dtype)
        kept_g[np.searchsorted(kept, rows)] = g
        m, v, data = state.m[kept], state.v[kept], param.data[kept]
        _adam_update(state, m, v, data, kept_g)
        state.m[kept], state.v[kept], param.data[kept] = m, v, data
        return
    g = param.grad
    if g.shape != param.data.shape:
        raise ArgumentError(
            f"adam_step: grad shape {g.shape} != value shape "
            f"{param.data.shape} for {param.name}")
    state.t += 1
    state.rows = None
    _adam_update(state, state.m, state.v, param.data, g)


def _adam_update(state: AdamState, m: np.ndarray, v: np.ndarray,
                 data: np.ndarray, g: np.ndarray) -> None:
    # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * g * g;
    # data -= lr * m_hat / (sqrt(v_hat) + eps), with the same operations
    # in the same order, so bitwise equal, but written in place.
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    g2 = (1.0 - ADAM_BETA2) * g
    g2 *= g
    v *= ADAM_BETA2
    v += g2
    step = m / (1.0 - ADAM_BETA1 ** state.t)
    step *= state.lr
    denom = np.divide(v, 1.0 - ADAM_BETA2 ** state.t, out=g2)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    data -= step.astype(data.dtype, copy=False)


def assert_all_finite(params: list[Parameter]) -> None:
    """Checked-mode guard: abort on the first non-finite value."""
    for p in params:
        if not np.all(np.isfinite(p.data)):
            raise NonFiniteError(p.name)
        _, g = p.row_grad()
        if g is not None and not np.all(np.isfinite(g)):
            raise NonFiniteError(p.name + ".grad")


# -- gradient checking -------------------------------------------------


@dataclass
class GradCheckResult:
    max_rel_error: float
    n_checked: int
    worst_param: str = ""
    errors: list = field(default_factory=list)


def grad_check(loss_fn, params: list[Parameter], eps: float = 1e-3,
               abs_floor: float = 1e-4, n_samples: int = 200,
               rng: np.random.Generator | None = None) -> GradCheckResult:
    """Compare analytic gradients against central finite differences.

    `loss_fn` must be a deterministic zero-argument callable returning a
    scalar Tensor built from `params`.  Up to `n_samples` coordinates are
    sampled across all parameters.  Coordinates where the analytic and
    numeric values agree within `abs_floor` absolutely count as exact;
    otherwise the error is |a - n| / max(|a|, |n|).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    analytic = {p.name: (p.grad.copy() if p.grad is not None
                         else np.zeros_like(p.data)) for p in params}

    total = sum(p.data.size for p in params)
    if total == 0:
        return GradCheckResult(max_rel_error=0.0, n_checked=0)
    n_samples = min(n_samples, total)
    # sample without replacement over the flattened concatenation
    flat_choice = rng.choice(total, size=n_samples, replace=False)
    offsets = np.cumsum([0] + [p.data.size for p in params])

    result = GradCheckResult(max_rel_error=0.0, n_checked=n_samples)
    for flat_idx in flat_choice:
        pi = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        param = params[pi]
        local = int(flat_idx - offsets[pi])
        idx = np.unravel_index(local, param.data.shape)
        orig = param.data[idx]
        param.data[idx] = orig + eps
        f_plus = float(loss_fn().data)
        param.data[idx] = orig - eps
        f_minus = float(loss_fn().data)
        param.data[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = float(analytic[param.name][idx])
        diff = abs(a - numeric)
        err = 0.0 if diff <= abs_floor else diff / max(abs(a), abs(numeric))
        result.errors.append((param.name, idx, a, numeric, err))
        if err > result.max_rel_error:
            result.max_rel_error = err
            result.worst_param = param.name
    return result
