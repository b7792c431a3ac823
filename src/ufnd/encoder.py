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
from .errors import ArgumentError, ContractError, ShapeError
# dropout, gelu, layer_norm, masked_softmax: wrapped by bench/spans.py only.
from .numerics import (_gelu, _gelu_slope, _layer_norm, _masked_softmax,  # noqa
                       dropout, gelu, layer_norm, masked_softmax, param_maker)

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
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ArgumentError(
                f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


def select_blocks(config: EncoderConfig, subset) -> EncoderConfig:
    """Return a config retaining only the given 1-based block indices."""
    return replace(config, block_subset=tuple(subset))


@dataclass
class BlockParams:
    """One block's parameters.  The K projection has no bias: a key bias
    adds the same constant to every score of a query, and the softmax
    cancels it.  The last retained block's `ln2_bias` has zero gradient
    too, as the head's first batch norm cancels any per-feature constant
    of the pooled vector, but it does work in every other block, and the
    block subset decides which block is last."""
    wq: Parameter
    bq: Parameter
    wk: Parameter
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
        return [self.wq, self.bq, self.wk, self.wv, self.bv,
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
        wk = make(prefix + "/attn_k/w", (d, d))
        wv, bv = lin(prefix + "/attn_v", d, d)
        wo, bo = lin(prefix + "/attn_o", d, d)
        w1, b1 = lin(prefix + "/ff1", ff, d)
        w2, b2 = lin(prefix + "/ff2", d, ff)
        params.blocks[idx] = BlockParams(
            wq=wq, bq=bq, wk=wk, wv=wv, bv=bv, wo=wo, bo=bo,
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
    attention = 4 * d * d + 3 * d  # no key bias
    feed_forward = ff * d + ff + d * ff + d
    norms = 4 * d
    per_block = attention + feed_forward + norms
    return embeddings + len(config.block_subset) * per_block


class Layout:
    """Where a batch's real positions sit in its cut `[B, W]` grid.

    The encoder keeps one row per real position, and each sample's
    position 0 (the pooled query) even if it is PAD, packed `[n, D]` in
    row-major order.  `index` holds their flat `[B * W]` indices, or is
    None when every position is kept: `gather` and `scatter` are then
    reshapes and copy nothing.  `firsts` are the packed rows of the
    samples' position 0, and `ends` each sample's last kept position + 1.
    """

    def __init__(self, mask: np.ndarray):
        if np.any(mask.sum(axis=-1) < 1):
            raise ContractError("encoder: sample with no real positions")
        self.mask = mask
        keep = mask > 0
        keep[:, 0] = True
        counts = keep.sum(axis=1)
        self.index = None if keep.all() else np.flatnonzero(keep)
        self.firsts = np.cumsum(counts) - counts
        self.ends = keep.shape[1] - np.argmax(keep[:, ::-1], axis=1)

    def gather(self, x: np.ndarray) -> np.ndarray:
        """`[B * W, D]` -> the packed rows."""
        return x if self.index is None else x[self.index]

    def scatter(self, x: np.ndarray) -> np.ndarray:
        """The packed rows -> `[B * W, D]`, zeros at the rows not kept."""
        if self.index is None:
            return x
        out = np.zeros((self.mask.size, x.shape[-1]), dtype=x.dtype)
        out[self.index] = x
        return out

    def dropout_mask(self, rng: np.random.Generator, rate: float,
                     max_seq_len: int, depth: int,
                     pooled: bool = False) -> np.ndarray:
        """The bool keep mask of a dropout at `rate` on the packed rows,
        `[n, depth]`, or with `pooled` on each sample's position 0,
        `[B, depth]`.

        Each position takes its values in `rng.random((B, max_seq_len,
        depth))`, and `rng` ends where that draw leaves it, so a step
        consumes the same random numbers however many columns were cut
        or rows packed.  Each sample is drawn only up to its last kept
        position (position 0 with `pooled`) and the rest of its row is
        skipped with `advance`: `random` fills in C order and takes one
        64-bit output per float64 value.
        """
        ends = np.ones_like(self.ends) if pooled else self.ends
        draws = np.empty((ends.size, 1 if pooled else self.mask.shape[1],
                          depth))
        # Python ints: `advance` overflows on a numpy int.
        for row, end in zip(draws, ends.tolist()):
            rng.random(out=row[:end])
            rng.bit_generator.advance((max_seq_len - end) * depth)
        draws = draws.reshape(-1, depth)
        return (draws if pooled else self.gather(draws)) >= rate


def embed(ids: np.ndarray, layout: Layout, params: EncoderParams) -> Tensor:
    """Token row plus position row at each of the batch's packed rows
    (`layout`), as one op: `[B, W]` ids -> `[n, D]`.

    The token table gets the gradient of the looked-up rows only, each
    summing its positions in row-major order; the position table gets,
    at each of the first `W` positions, the sum over the batch.  A batch
    with no PAD adds the position rows by broadcasting and packs as a
    reshape, so it makes no `[B * W, D]` copy beyond the output.
    """
    token, position = params.token_embedding, params.position_embedding
    batch, width = ids.shape
    if ids.max(initial=0) >= token.shape[0]:
        raise ShapeError(f"embed: id {int(ids.max())} out of range for "
                         f"table of {token.shape[0]} rows")
    if width > position.shape[0]:
        raise ShapeError(f"embed: width {width} exceeds {position.shape[0]} "
                         f"positions")
    if layout.index is None:
        kept = ids.reshape(-1)
        out = token.data[ids]
        out += position.data[:width]
        out = out.reshape(kept.size, -1)
    else:
        kept = ids.reshape(-1)[layout.index]
        out = token.data[kept]
        out += position.data[layout.index % width]

    def bwd(g):
        if token.requires_grad:
            rows, where = np.unique(kept, return_inverse=True)
            values = np.zeros((rows.size, g.shape[-1]), dtype=token.dtype)
            np.add.at(values, where, g)
            token.accumulate_rows(rows, values)
        if position.requires_grad:
            grid = layout.scatter(g).reshape(batch, width, -1)
            position.accumulate_rows(np.arange(width), grid.sum(axis=0))

    return Tensor(out, _parents=(token, position), _backward=bwd)


def self_attention(queries: Tensor, hidden: Tensor, layout: Layout,
                   bp: BlockParams, config: EncoderConfig) -> Tensor:
    """Multi-head scaled dot-product attention with PAD keys masked out,
    as one op: projections, masked softmax, context and head merge.

    `hidden` holds the batch's packed rows (`layout`), and each serves as
    key and value.  `queries` holds the rows that attend: `hidden` itself
    for a full-width block, or one `[B, D]` row per sample.  The Q, K, V
    and O projections run on those rows; only the scores, the softmax and
    the context run per sample, on Q, K and V scattered to the cut width
    with zeros at PAD.  So a PAD query weighs the real keys evenly; its
    output is dropped.
    """
    batch, d = layout.mask.shape[0], hidden.shape[-1]
    dh = d // config.n_heads
    scale = 1.0 / math.sqrt(dh)
    full = queries is hidden

    def split(x):  # [B * L, D] -> [B, H, L, dh]
        return x.reshape(batch, -1, config.n_heads, dh).transpose(0, 2, 1, 3)

    def merge(x):  # [B, H, L, dh] -> [B * L, D]
        return x.transpose(0, 2, 1, 3).reshape(-1, d)

    def grid(x):  # query rows -> [B * L, D]
        return layout.scatter(x) if full else x

    def rows(x):  # [B * L, D] -> query rows
        return layout.gather(x) if full else x

    q, q_grads = _affine(queries.data, bp.wq, bp.bq)
    k, k_grads = _affine(hidden.data, bp.wk)
    v, v_grads = _affine(hidden.data, bp.wv, bp.bv)
    q, k, v = split(grid(q)), split(layout.scatter(k)), split(layout.scatter(v))
    scores = q @ k.swapaxes(2, 3)
    scores *= scale
    probs, scores_grad = _masked_softmax(scores, layout.mask)
    out_data, out_grads = _affine(rows(merge(probs @ v)), bp.wo, bp.bo)

    def bwd(g):
        g_context = split(grid(out_grads(g)))
        g_scores = scores_grad(g_context @ v.swapaxes(2, 3))
        g_scores *= scale
        g_k = layout.gather(merge(g_scores.swapaxes(2, 3) @ q))
        g_v = layout.gather(merge(probs.swapaxes(2, 3) @ g_context))
        g_hidden = k_grads(g_k) + v_grads(g_v)
        g_queries = q_grads(rows(merge(g_scores @ k)))
        if full:
            g_hidden += g_queries
        else:
            _give((queries, g_queries))
        _give((hidden, g_hidden))

    return Tensor(out_data,
                  _parents=(queries, hidden, bp.wq, bp.bq, bp.wk, bp.wv,
                            bp.bv, bp.wo, bp.bo), _backward=bwd)


def feed_forward(x: Tensor, bp: BlockParams) -> Tensor:
    """Linear, GELU, linear on the rows of a 2-D `x`, as one op.  The
    backward keeps the pre-activation and the GELU's CDF, and rebuilds the
    GELU's output from them (bitwise, as the forward's own multiply) for
    the second weight's gradient.  The GELU uses erf, not the tanh form;
    float32 `erf` is a clamped rational fit, and the CDF's error is under
    3e-7."""
    pre, pre_grads = _affine(x.data, bp.w1, bp.b1)
    act, cdf = _gelu(pre)
    out_data, out_grads = _affine(act, bp.w2, bp.b2, lambda: pre * cdf)

    def bwd(g):
        _give((x, pre_grads(out_grads(g) * _gelu_slope(pre, cdf))))

    return Tensor(out_data, _parents=(x, bp.w1, bp.b1, bp.w2, bp.b2),
                  _backward=bwd)


def add_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor,
             eps: float, keep: np.ndarray | None = None,
             scale: float = 1.0) -> Tensor:
    """`layer_norm(x + y, gain, bias, eps)` as one op: both inputs get the
    gradient of the sum.  With a bool mask `keep` of `y`'s shape, `y` is
    first dropped out, `y * keep * scale`, and gets that gradient
    `* keep * scale`: a post-norm block's residual dropout."""
    y_data = y.data if keep is None else y.data * keep * scale
    out_data, grads = _layer_norm(x.data + y_data, gain, bias, eps)

    def bwd(g):
        g_sum = grads(g)
        _give((x, g_sum), (y, g_sum if keep is None else g_sum * keep * scale))

    return Tensor(out_data, _parents=(x, y, gain, bias), _backward=bwd)


def encoder_block(queries: Tensor, hidden: Tensor, layout: Layout,
                  bp: BlockParams, config: EncoderConfig, mode: str,
                  rng: np.random.Generator) -> Tensor:
    """Post-norm block: attention and feed-forward sub-layers with
    residual connections and layer normalization.

    `hidden` holds the batch's packed rows (`layout`), and every one
    serves as key and value.  The block's output has one row per row of
    `queries`: `hidden` itself for a full-width block, or one row per
    sample for the pooled block.  In train mode each sub-layer's output
    is dropped out inside its `add_norm`, with masks drawn by
    `Layout.dropout_mask`: each position gets the mask values it would
    get at full width.
    """
    rate = config.dropout_rate
    keep1 = keep2 = None
    if mode == "train" and rate > 0.0:
        draw = (rng, rate, config.max_seq_len, hidden.shape[-1],
                queries is not hidden)
        keep1, keep2 = layout.dropout_mask(*draw), layout.dropout_mask(*draw)
    scale = 1.0 / (1.0 - rate)
    attn = self_attention(queries, hidden, layout, bp, config)
    h1 = add_norm(queries, attn, bp.ln1_gain, bp.ln1_bias, LN_EPS, keep1,
                  scale)
    return add_norm(h1, feed_forward(h1, bp), bp.ln2_gain, bp.ln2_bias,
                    LN_EPS, keep2, scale)


def encode_sequence(ids: np.ndarray, mask: np.ndarray, params: EncoderParams,
                    config: EncoderConfig, mode: str,
                    rng: np.random.Generator) -> Tensor:
    """Embed, run retained blocks in ascending index order, pool position 0.

    Columns after the batch's last real position are cut first.  The
    embedding then emits the real positions packed (`Layout`): every
    block projects, normalises and runs the feed-forward on those rows
    only, and attends per sample over the cut width.  Masked keys get
    exactly zero attention weight and only position 0 is pooled, so
    neither the cut nor the packing changes anything but float rounding,
    and a batch with no PAD runs unchanged.  For the same reason the last block attends
    from position 0 alone: its other positions would reach neither the
    loss nor the prediction.
    """
    if mode not in ("train", "eval"):
        raise ArgumentError(
            f"encoder mode must be 'train' or 'eval', got {mode!r}")
    real_cols = np.flatnonzero(np.any(mask, axis=0))
    width = int(real_cols[-1]) + 1 if real_cols.size else ids.shape[1]
    ids, mask = ids[:, :width], mask[:, :width]
    layout = Layout(mask)
    hidden = embed(ids, layout, params)
    *full_width, last = config.block_subset
    for idx in full_width:
        hidden = encoder_block(hidden, hidden, layout, params.blocks[idx],
                               config, mode, rng)
    return encoder_block(ag.take_rows(hidden, layout.firsts), hidden, layout,
                         params.blocks[last], config, mode, rng)
