"""Transformer encoder: embeddings plus a configurable subset of
post-norm blocks, pooled at the reserved first position.

Block indices are 1-based so pruning subsets read the same way as the
ablation grid labels ("1,3,5,7,9,11", "1,5,9", "1,9", "5").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from .autograd import Parameter, Tensor, _affine, _give
from .errors import ArgumentError, ContractError
# gelu, layer_norm, masked_softmax and ag.matmul: unused, but bench/spans.py wraps them.
from .numerics import (_gelu, _layer_norm, _masked_softmax, dropout,  # noqa
                       gelu, layer_norm, masked_softmax, param_maker)

LN_EPS = 1e-5


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    d_model: int
    n_heads: int
    d_ff: int
    max_seq_len: int
    n_blocks_total: int = 12
    block_subset: tuple[int, ...] = tuple(range(1, 13))
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.d_model % self.n_heads != 0:
            raise ArgumentError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_seq_len < 2:
            raise ArgumentError("max_seq_len must be >= 2")
        subset = tuple(self.block_subset)
        if not subset:
            raise ArgumentError("block_subset must be nonempty")
        if list(subset) != sorted(set(subset)):
            raise ArgumentError("block_subset must be strictly increasing")
        if subset[0] < 1 or subset[-1] > self.n_blocks_total:
            raise ArgumentError(
                f"block_subset {subset} out of range 1..{self.n_blocks_total}")


def select_blocks(config: EncoderConfig, subset) -> EncoderConfig:
    """Return a config retaining only the given 1-based block indices."""
    return replace(config, block_subset=tuple(subset))


@dataclass
class BlockParams:
    wq: Parameter
    bq: Parameter
    wk: Parameter
    bk: Parameter
    wv: Parameter
    bv: Parameter
    wo: Parameter
    bo: Parameter
    ln1_gain: Parameter
    ln1_bias: Parameter
    w1: Parameter
    b1: Parameter
    w2: Parameter
    b2: Parameter
    ln2_gain: Parameter
    ln2_bias: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.wq, self.bq, self.wk, self.bk, self.wv, self.bv,
                self.wo, self.bo, self.ln1_gain, self.ln1_bias,
                self.w1, self.b1, self.w2, self.b2,
                self.ln2_gain, self.ln2_bias]


@dataclass
class EncoderParams:
    token_embedding: Parameter
    position_embedding: Parameter
    blocks: dict[int, BlockParams] = field(default_factory=dict)

    def parameters(self) -> list[Parameter]:
        out = [self.token_embedding, self.position_embedding]
        for idx in sorted(self.blocks):
            out.extend(self.blocks[idx].parameters())
        return out


def init_encoder_params(config: EncoderConfig, rng: np.random.Generator,
                        dtype=np.float32, arrays=None) -> EncoderParams:
    """Fresh parameters, or with `arrays` those arrays (`param_maker`)."""
    d, ff = config.d_model, config.d_ff
    make = param_maker(rng, dtype, arrays)

    def lin(name, fan_out, fan_in):
        return (make(name + "/w", (fan_out, fan_in)),
                make(name + "/b", fan_out, 0.0))

    params = EncoderParams(
        token_embedding=make("encoder/token_embedding",
                             (config.vocab_size, d)),
        position_embedding=make("encoder/position_embedding",
                                (config.max_seq_len, d)))
    for idx in config.block_subset:
        prefix = f"encoder/block{idx}"
        wq, bq = lin(prefix + "/attn_q", d, d)
        wk, bk = lin(prefix + "/attn_k", d, d)
        wv, bv = lin(prefix + "/attn_v", d, d)
        wo, bo = lin(prefix + "/attn_o", d, d)
        w1, b1 = lin(prefix + "/ff1", ff, d)
        w2, b2 = lin(prefix + "/ff2", d, ff)
        params.blocks[idx] = BlockParams(
            wq=wq, bq=bq, wk=wk, bk=bk, wv=wv, bv=bv, wo=wo, bo=bo,
            ln1_gain=make(prefix + "/ln1/gain", d, 1.0),
            ln1_bias=make(prefix + "/ln1/bias", d, 0.0),
            w1=w1, b1=b1, w2=w2, b2=b2,
            ln2_gain=make(prefix + "/ln2/gain", d, 1.0),
            ln2_bias=make(prefix + "/ln2/bias", d, 0.0))
    return params


def param_count(config: EncoderConfig) -> int:
    """Closed-form scalar count for the retained blocks plus embeddings."""
    d, ff = config.d_model, config.d_ff
    embeddings = config.vocab_size * d + config.max_seq_len * d
    attention = 4 * (d * d + d)
    feed_forward = ff * d + ff + d * ff + d
    norms = 4 * d
    per_block = attention + feed_forward + norms
    return embeddings + len(config.block_subset) * per_block


def embed(ids: np.ndarray, params: EncoderParams) -> Tensor:
    """Token embedding plus position embedding, per position."""
    tok = ag.embedding(params.token_embedding, ids)
    positions = np.arange(ids.shape[1])[None, :]
    return tok + ag.embedding(params.position_embedding, positions)


def self_attention(queries: Tensor, hidden: Tensor, mask: np.ndarray,
                   bp: BlockParams, config: EncoderConfig) -> Tensor:
    """Multi-head scaled dot-product attention with PAD keys masked out,
    as one op: projections, masked softmax, context and head merge.

    Keys and values come from every position of `hidden`; `queries` holds
    the positions that attend, `hidden` itself for a full-width block.
    """
    if np.any(mask.sum(axis=-1) < 1):
        raise ContractError("self_attention: sample with no real positions")
    batch, _, d = queries.shape
    dh = d // config.n_heads
    scale = 1.0 / math.sqrt(dh)

    def split(x):  # [B * L, D] -> [B, H, L, dh]
        return x.reshape(batch, -1, config.n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x):  # [B, H, L, dh] -> [B * L, D]
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    q, q_grads = _affine(queries.data.reshape(-1, d), bp.wq, bp.bq)
    k, k_grads = _affine(hidden.data.reshape(-1, d), bp.wk, bp.bk)
    v, v_grads = _affine(hidden.data.reshape(-1, d), bp.wv, bp.bv)
    q, k, v = split(q), split(k), split(v)
    probs, scores_grad = _masked_softmax(q @ k.swapaxes(2, 3) * scale, mask)
    out_data, out_grads = _affine(merge(probs @ v), bp.wo, bp.bo)

    def bwd(g):
        g_context = split(out_grads(g.reshape(out_data.shape)))
        g_scores = scores_grad(g_context @ v.swapaxes(2, 3)) * scale
        g_hidden = (k_grads(merge(g_scores.swapaxes(2, 3) @ q))
                    + v_grads(merge(probs.swapaxes(2, 3) @ g_context)))
        g_queries = q_grads(merge(g_scores @ k))
        if queries is hidden:
            g_hidden += g_queries
        else:
            _give((queries, g_queries.reshape(queries.shape)))
        _give((hidden, g_hidden.reshape(hidden.shape)))

    return Tensor(out_data.reshape(queries.shape),
                  _parents=(queries, hidden, bp.wq, bp.bq, bp.wk, bp.bk,
                            bp.wv, bp.bv, bp.wo, bp.bo), _backward=bwd)


def feed_forward(x: Tensor, bp: BlockParams) -> Tensor:
    """Linear, exact-erf GELU, linear, as one op; the GELU's CDF is kept
    for the backward."""
    pre, pre_grads = _affine(x.data.reshape(-1, x.shape[-1]), bp.w1, bp.b1)
    act, slope = _gelu(pre)
    out_data, out_grads = _affine(act, bp.w2, bp.b2)

    def bwd(g):
        g_pre = out_grads(g.reshape(out_data.shape)) * slope()
        _give((x, pre_grads(g_pre).reshape(x.shape)))

    return Tensor(out_data.reshape(x.shape),
                  _parents=(x, bp.w1, bp.b1, bp.w2, bp.b2), _backward=bwd)


def add_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor,
             eps: float) -> Tensor:
    """`layer_norm(x + y, gain, bias, eps)` as one op: both inputs get the
    gradient of the sum."""
    out_data, grads = _layer_norm(x.data + y.data, gain, bias, eps)

    def bwd(g):
        g_sum = grads(g)
        _give((x, g_sum), (y, g_sum))

    return Tensor(out_data, _parents=(x, y, gain, bias), _backward=bwd)


def encoder_block(queries: Tensor, hidden: Tensor, mask: np.ndarray,
                  bp: BlockParams, config: EncoderConfig, mode: str,
                  rng: np.random.Generator) -> Tensor:
    """Post-norm block: attention and feed-forward sub-layers with
    residual connections and layer normalization.

    Every position of `hidden` serves as key and value; the block's
    output has one row per position of `queries` (`hidden` itself for a
    full-width block).  Dropout masks are drawn at the full
    ``(batch, max_seq_len, d_model)`` shape whatever the width of
    `queries`, so a step consumes the same random numbers however many
    columns were cut, and each kept position gets the mask values it
    would get at full width.
    """
    draw_shape = (hidden.shape[0], config.max_seq_len, hidden.shape[2])
    attn = self_attention(queries, hidden, mask, bp, config)
    attn = dropout(attn, config.dropout_rate, mode, rng, draw_shape)
    h1 = add_norm(queries, attn, bp.ln1_gain, bp.ln1_bias, LN_EPS)
    ff = dropout(feed_forward(h1, bp), config.dropout_rate, mode, rng,
                 draw_shape)
    return add_norm(h1, ff, bp.ln2_gain, bp.ln2_bias, LN_EPS)


def encode_sequence(ids: np.ndarray, mask: np.ndarray, params: EncoderParams,
                    config: EncoderConfig, mode: str,
                    rng: np.random.Generator) -> Tensor:
    """Embed, run retained blocks in ascending index order, pool position 0.

    Columns after the batch's last real position are cut first.  Masked
    keys get exactly zero attention weight and only position 0 is
    pooled, so the cut changes nothing but float rounding, and a batch
    with no all-PAD trailing column runs unchanged.  For the same reason
    the last block attends from position 0 alone: its other positions
    would reach neither the loss nor the prediction.
    """
    real_cols = np.flatnonzero(np.any(mask, axis=0))
    width = int(real_cols[-1]) + 1 if real_cols.size else ids.shape[1]
    ids, mask = ids[:, :width], mask[:, :width]
    hidden = embed(ids, params)
    *full_width, last = config.block_subset
    for idx in full_width:
        hidden = encoder_block(hidden, hidden, mask, params.blocks[idx],
                               config, mode, rng)
    pooled = encoder_block(ag.take_first(hidden), hidden, mask,
                           params.blocks[last], config, mode, rng)
    return ag.reshape(pooled, (pooled.shape[0], pooled.shape[2]))
