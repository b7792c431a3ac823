import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_batch, small_model
from ufnd import autograd as ag
from ufnd import encoder as encoder_module
from ufnd import model as model_module
from ufnd.autograd import Parameter, Tensor
from ufnd.encoder import (EncoderConfig, Layout, add_norm, embed,
                          encode_sequence, encoder_block, feed_forward,
                          init_encoder_params, param_count, select_blocks,
                          self_attention)
from ufnd.errors import ArgumentError, ContractError
from ufnd.numerics import (RngStreams, gelu, grad_check, layer_norm,
                           masked_softmax, nll_loss)


def tiny_encoder_config(**overrides):
    base = dict(vocab_size=30, d_model=8, n_heads=2, d_ff=16, max_seq_len=8,
                n_blocks_total=4, block_subset=(1, 2, 3, 4), dropout_rate=0.0)
    base.update(overrides)
    return EncoderConfig(**base)


class TestEncoderConfig:
    def test_head_divisibility(self):
        with pytest.raises(ArgumentError):
            tiny_encoder_config(d_model=9)

    def test_subset_must_be_increasing(self):
        with pytest.raises(ArgumentError):
            tiny_encoder_config(block_subset=(3, 1))
        with pytest.raises(ArgumentError):
            tiny_encoder_config(block_subset=(1, 1))

    def test_subset_range(self):
        with pytest.raises(ArgumentError):
            tiny_encoder_config(block_subset=(0, 1))
        with pytest.raises(ArgumentError):
            tiny_encoder_config(block_subset=(5,))
        with pytest.raises(ArgumentError):
            tiny_encoder_config(block_subset=())

    def test_select_blocks(self):
        cfg = select_blocks(tiny_encoder_config(), (1, 3))
        assert cfg.block_subset == (1, 3)
        assert cfg.n_blocks_total == 4


class TestParamCount:
    def test_matches_allocated_arrays(self):
        for subset in [(1,), (1, 3), (1, 2, 3, 4)]:
            cfg = tiny_encoder_config(block_subset=subset)
            params = init_encoder_params(cfg, np.random.default_rng(0))
            allocated = sum(p.data.size for p in params.parameters())
            assert param_count(cfg) == allocated

    def test_monotone_in_subset_size(self):
        sizes = [param_count(tiny_encoder_config(block_subset=s))
                 for s in [(1, 2, 3, 4), (1, 3), (1,)]]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_large_reference_config(self):
        cfg = EncoderConfig(vocab_size=30522, d_model=768, n_heads=12,
                            d_ff=3072, max_seq_len=512, n_blocks_total=12,
                            block_subset=tuple(range(1, 13)))
        assert param_count(cfg) == 108888576


class TestEncodeSequence:
    def test_output_shape(self):
        cfg = tiny_encoder_config()
        params = init_encoder_params(cfg, np.random.default_rng(0))
        ids, mask, _ = small_batch(vocab_size=30)
        out = encode_sequence(ids, mask, params, cfg, "eval",
                              np.random.default_rng(0))
        assert out.shape == (4, 8)

    def test_pad_invariance(self):
        """Changing token ids under PAD positions must not change the
        pooled output at all."""
        cfg = tiny_encoder_config()
        params = init_encoder_params(cfg, np.random.default_rng(1))
        ids, mask, _ = small_batch(seed=2, vocab_size=30)
        base = encode_sequence(ids, mask, params, cfg, "eval",
                               np.random.default_rng(0)).data
        altered = ids.copy()
        altered[mask == 0.0] = 17
        out = encode_sequence(altered, mask, params, cfg, "eval",
                              np.random.default_rng(0)).data
        np.testing.assert_array_equal(out, base)

    def test_all_pad_sample_rejected(self):
        cfg = tiny_encoder_config()
        params = init_encoder_params(cfg, np.random.default_rng(0))
        ids, mask, _ = small_batch(vocab_size=30)
        mask[0] = 0.0
        with pytest.raises(ContractError):
            encode_sequence(ids, mask, params, cfg, "eval",
                            np.random.default_rng(0))

    def test_fewer_blocks_changes_output(self):
        cfg = tiny_encoder_config()
        params = init_encoder_params(cfg, np.random.default_rng(3))
        ids, mask, _ = small_batch(vocab_size=30)
        full = encode_sequence(ids, mask, params, cfg, "eval",
                               np.random.default_rng(0)).data
        pruned_cfg = select_blocks(cfg, (1, 2))
        pruned = encode_sequence(ids, mask, params, pruned_cfg, "eval",
                                 np.random.default_rng(0)).data
        assert not np.allclose(full, pruned)

    def test_eval_deterministic_train_stochastic(self):
        cfg = tiny_encoder_config(dropout_rate=0.3)
        params = init_encoder_params(cfg, np.random.default_rng(4))
        ids, mask, _ = small_batch(vocab_size=30)
        a = encode_sequence(ids, mask, params, cfg, "eval",
                            np.random.default_rng(0)).data
        b = encode_sequence(ids, mask, params, cfg, "eval",
                            np.random.default_rng(99)).data
        np.testing.assert_array_equal(a, b)
        rng = np.random.default_rng(0)
        t1 = encode_sequence(ids, mask, params, cfg, "train", rng).data
        t2 = encode_sequence(ids, mask, params, cfg, "train", rng).data
        assert not np.array_equal(t1, t2)

    def test_rows_layer_normalized(self):
        cfg = tiny_encoder_config()
        params = init_encoder_params(cfg, np.random.default_rng(5))
        ids, mask, _ = small_batch(vocab_size=30)
        out = encode_sequence(ids, mask, params, cfg, "eval",
                              np.random.default_rng(0)).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-2)

    def test_backward_reaches_all_parameters(self):
        cfg = tiny_encoder_config(block_subset=(1, 3))
        params = init_encoder_params(cfg, np.random.default_rng(6))
        ids, mask, _ = small_batch(vocab_size=30)
        encode_sequence(ids, mask, params, cfg, "eval",
                        np.random.default_rng(0)).backward()
        for p in params.parameters():
            assert p.grad is not None, p.name
            assert float(np.abs(p.grad).sum()) > 0.0 or "bias" in p.name, p.name


def padded_rows(lengths, width, seed, vocab_size=50):
    """CLS-led rows of the given real lengths, padded to `width`."""
    rng = np.random.default_rng(seed)
    ids = np.zeros((len(lengths), width), dtype=np.int32)
    mask = np.zeros((len(lengths), width), dtype=np.float32)
    for row, n in enumerate(lengths):
        ids[row, 0] = 2
        ids[row, 1:n] = rng.integers(3, vocab_size, size=n - 1)
        mask[row, :n] = 1.0
    return ids, mask


class TestLengthCut:
    """The encoder runs only up to the batch's last real column."""

    @settings(max_examples=25, deadline=None)
    @given(lengths=st.lists(st.integers(1, 8), min_size=1, max_size=6),
           extra=st.integers(0, 8), seed=st.integers(0, 2 ** 16))
    @example(lengths=[8, 1, 3], extra=0, seed=0)
    def test_eval_log_probs_ignore_trailing_pad_and_batch(self, lengths,
                                                          extra, seed):
        model = small_model(seed=5)
        ids, mask = padded_rows(lengths, 8, seed)
        batch = model.forward(ids, mask, "eval").data
        for row, n in enumerate(lengths):
            width = min(n + extra, 8)
            alone = model.forward(ids[row:row + 1, :width],
                                  mask[row:row + 1, :width], "eval").data
            np.testing.assert_allclose(batch[row], alone[0],
                                       rtol=1e-5, atol=1e-5)

    def test_train_step_same_with_and_without_trailing_pad(self):
        ids, mask = padded_rows([3, 5, 2, 4], 8, seed=1)
        labels = np.array([0, 1, 1, 0])
        results = []
        for width in (8, 5):
            model = small_model(seed=7, dropout_rate=0.3)
            loss = nll_loss(model.forward(ids[:, :width], mask[:, :width],
                                          "train"), labels)
            loss.backward()
            results.append((loss.item(), model.parameters(),
                            model.rng.stream("dropout").bit_generator.state))
        (loss_full, params_full, state_full), (loss_cut, params_cut,
                                               state_cut) = results
        assert loss_cut == pytest.approx(loss_full, rel=1e-5)
        for pf, pc in zip(params_full, params_cut):
            np.testing.assert_allclose(pc.grad, pf.grad, rtol=1e-4,
                                       atol=1e-6, err_msg=pf.name)
        assert state_cut == state_full

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_no_pad_column_is_bitwise_uncut(self, mode):
        cfg = tiny_encoder_config(dropout_rate=0.2)
        params = init_encoder_params(cfg, np.random.default_rng(8))
        ids, mask = padded_rows([8, 3, 6], 8, seed=4, vocab_size=30)
        out = encode_sequence(ids, mask, params, cfg, mode,
                              np.random.default_rng(0)).data
        rng = np.random.default_rng(0)
        layout = Layout(mask)
        hidden = ag.take_rows(embed(ids, params), layout.index)
        for idx in cfg.block_subset[:-1]:
            hidden = encoder_block(hidden, hidden, layout, params.blocks[idx],
                                   cfg, mode, rng)
        pooled = encoder_block(ag.take_rows(hidden, layout.firsts), hidden,
                               layout, params.blocks[cfg.block_subset[-1]],
                               cfg, mode, rng)
        np.testing.assert_array_equal(out, pooled.data)


def full_width_encode(ids, mask, params, config, mode, rng):
    """The encoder with every block full width, then position 0 pooled."""
    width = int(np.flatnonzero(np.any(mask, axis=0))[-1]) + 1
    ids, mask = ids[:, :width], mask[:, :width]
    layout = Layout(mask)
    hidden = ag.take_rows(embed(ids, params), layout.index)
    for idx in config.block_subset:
        hidden = encoder_block(hidden, hidden, layout, params.blocks[idx],
                               config, mode, rng)
    return ag.take_rows(hidden, layout.firsts)


class TestLayout:
    MASK = np.array(
        [[1, 1, 1, 1, 0], [1, 1, 0, 0, 0], [1, 1, 1, 0, 0]], dtype=np.float32)

    def test_no_pad_is_the_identity(self):
        layout = Layout(np.ones((3, 5), dtype=np.float32))
        assert layout.index is None
        x = np.arange(15 * 2, dtype=np.float32).reshape(15, 2)
        assert layout.gather(x) is x and layout.scatter(x) is x
        np.testing.assert_array_equal(layout.firsts, [0, 5, 10])

    def test_gather_then_scatter_keeps_real_rows_and_zeros_pad(self):
        layout = Layout(self.MASK)
        x = np.random.default_rng(0).standard_normal((15, 4)) + 5.0
        packed = layout.gather(x)
        assert packed.shape == (9, 4)
        back = layout.scatter(packed)
        real = self.MASK.reshape(-1) > 0
        np.testing.assert_array_equal(back[real], x[real])
        assert np.all(back[~real] == 0.0)
        np.testing.assert_array_equal(packed[layout.firsts], x[[0, 5, 10]])

    def test_position_zero_is_kept_even_when_pad(self):
        mask = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.float32)
        layout = Layout(mask)
        np.testing.assert_array_equal(layout.index, [0, 1, 2, 3])
        np.testing.assert_array_equal(layout.firsts, [0, 3])

    def test_sample_with_no_real_position_rejected(self):
        with pytest.raises(ContractError):
            Layout(np.array([[1, 1], [0, 0]], dtype=np.float32))


class TestPooledLastBlock:
    """The last retained block runs its queries at position 0 only."""

    SUBSETS = [(1, 2), (2,)]

    def test_last_block_attends_from_position_zero_only(self, monkeypatch):
        cfg = tiny_encoder_config(block_subset=(1, 3, 4))
        params = init_encoder_params(cfg, np.random.default_rng(0))
        ids, mask = padded_rows([5, 3, 7], 8, seed=2, vocab_size=30)
        seen = []
        attention = encoder_module.self_attention

        def recording(queries, hidden, *args):
            seen.append((queries.shape, hidden.shape))
            return attention(queries, hidden, *args)

        monkeypatch.setattr(encoder_module, "self_attention", recording)
        out = encode_sequence(ids, mask, params, cfg, "train",
                              np.random.default_rng(0))
        assert out.shape == (3, 8)
        # 5 + 3 + 7 real positions, packed; the pooled block's queries are
        # the three position-0 rows.
        assert seen == [((15, 8), (15, 8))] * 2 + [((3, 8), (15, 8))]

    @pytest.mark.parametrize("subset", SUBSETS)
    def test_eval_log_probs_match_full_width(self, subset, monkeypatch):
        model = small_model(seed=5, block_subset=subset)
        ids, mask = padded_rows([8, 1, 3, 6], 8, seed=3)
        pooled = model.forward(ids, mask, "eval").data
        monkeypatch.setattr(model_module, "encode_sequence",
                            full_width_encode)
        reference = model.forward(ids, mask, "eval").data
        np.testing.assert_allclose(pooled, reference, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("subset", SUBSETS)
    def test_train_step_matches_full_width(self, subset, monkeypatch):
        # float64: in float32 the head's batch norm turns the rounding of
        # a [B, 1, D] product against a [B, L, D] one into relative
        # gradient gaps of about 6e-4 in `head/l1/w`.
        ids, mask = padded_rows([3, 5, 2, 4], 8, seed=1)
        labels = np.array([0, 1, 1, 0])
        results = []
        for encode in (encode_sequence, full_width_encode):
            monkeypatch.setattr(model_module, "encode_sequence", encode)
            model = small_model(seed=7, dtype=np.float64,
                                dropout_rate=0.3, block_subset=subset)
            loss = nll_loss(model.forward(ids, mask, "train"), labels)
            loss.backward()
            results.append((loss.item(), model.parameters(),
                            model.rng.stream("dropout").bit_generator.state))
        (loss_pooled, params_pooled, state_pooled), (loss_full, params_full,
                                                     state_full) = results
        assert loss_pooled == pytest.approx(loss_full, rel=1e-5)
        for pp, pf in zip(params_pooled, params_full):
            np.testing.assert_allclose(pp.grad, pf.grad, rtol=1e-4,
                                       atol=1e-6, err_msg=pf.name)
        assert state_pooled == state_full

    def test_float64_grad_check_single_block(self):
        # Encoder parameters only, so the samples land where the pooled
        # query's gradient flows back through `take_rows`.
        model = small_model(dtype=np.float64, dropout_rate=0.0,
                            block_subset=(2,))
        ids, mask, labels = small_batch()
        res = grad_check(
            lambda: nll_loss(model.forward(ids, mask, "eval"), labels),
            model.encoder_params.parameters(), eps=1e-5, abs_floor=1e-10,
            n_samples=60)
        assert res.max_rel_error < 1e-4, res.worst_param


class TestInitEncoderParams:
    def test_only_subset_blocks_allocated(self):
        cfg = tiny_encoder_config(block_subset=(2, 4))
        params = init_encoder_params(cfg, np.random.default_rng(0))
        assert sorted(params.blocks) == [2, 4]

    def test_deterministic_from_rng(self):
        cfg = tiny_encoder_config()
        a = init_encoder_params(cfg, RngStreams(9).stream("init"))
        b = init_encoder_params(cfg, RngStreams(9).stream("init"))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_ln_starts_as_identity(self):
        cfg = tiny_encoder_config(block_subset=(1,))
        params = init_encoder_params(cfg, np.random.default_rng(0))
        bp = params.blocks[1]
        np.testing.assert_array_equal(bp.ln1_gain.data, np.ones(8))
        np.testing.assert_array_equal(bp.ln1_bias.data, np.zeros(8))


class TestSmallModelGradCheck:
    def test_float64_grad_check_tight(self):
        from ufnd.numerics import grad_check, nll_loss
        model = small_model(dtype=np.float64, dropout_rate=0.0)
        ids, mask, labels = small_batch()
        res = grad_check(
            lambda: nll_loss(model.forward(ids, mask, "eval"), labels),
            model.parameters(), eps=1e-5, abs_floor=1e-10, n_samples=60)
        assert res.max_rel_error < 1e-4, res.worst_param


# -- the sub-layer ops against the generic-op composition they replace --


def transpose(x, axes):
    """A generic transpose op, for the reference composition."""
    inv = np.argsort(axes)
    return Tensor(np.transpose(x.data, axes), _parents=(x,),
                  _backward=lambda g: x.accumulate_grad(np.transpose(g, inv)))


def composed_attention(queries, hidden, mask, bp, config):
    """The attention body as generic ops, as it was before `self_attention`
    became one op."""
    batch, n_queries, d = queries.shape
    heads = config.n_heads
    dh = d // heads

    def split_heads(x):
        return transpose(ag.reshape(x, (batch, x.shape[1], heads, dh)),
                         (0, 2, 1, 3))

    q = split_heads(ag.linear(queries, bp.wq, bp.bq))
    k = split_heads(ag.linear(hidden, bp.wk, bp.bk))
    v = split_heads(ag.linear(hidden, bp.wv, bp.bv))
    scores = ag.matmul(q, transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    context = ag.matmul(masked_softmax(scores, mask), v)
    merged = ag.reshape(transpose(context, (0, 2, 1, 3)),
                        (batch, n_queries, d))
    return ag.linear(merged, bp.wo, bp.bo)


def scatter(x, layout):
    """Packed rows -> the [B, W, D] grid with zeros at PAD, as a generic op."""
    batch, width = layout.mask.shape
    return Tensor(layout.scatter(x.data).reshape(batch, width, -1),
                  _parents=(x,),
                  _backward=lambda g: x.accumulate_grad(
                      layout.gather(g.reshape(batch * width, -1))))


def composed_packed_attention(queries, hidden, layout, bp, config):
    """`composed_attention` on the scattered [B, W, D] view of the packed
    rows, with the query rows taken back out."""
    grid = scatter(hidden, layout)
    if queries is hidden:
        out = composed_attention(grid, grid, layout.mask, bp, config)
        return ag.take_rows(out, layout.index)
    pooled = ag.reshape(queries, (queries.shape[0], 1, queries.shape[1]))
    return ag.take_rows(composed_attention(pooled, grid, layout.mask, bp,
                                           config), None)


def composed_feed_forward(x, bp):
    return ag.linear(gelu(ag.linear(x, bp.w1, bp.b1)), bp.w2, bp.b2)


def composed_add_norm(x, y, gain, bias, eps):
    return layer_norm(x + y, gain, bias, eps)


def probe(out):
    """A scalar that weighs every entry of `out` differently."""
    size = out.data.size
    weights = np.random.default_rng(1).standard_normal((1, size))
    flat = ag.linear(ag.reshape(out, (1, size)), Tensor(weights),
                     Tensor(np.zeros(1)))
    return ag.reshape(flat, ())


class TestSubLayerOps:
    """Each sub-layer is one op with a hand-written backward, on packed
    rows.  Samples of 4, 2 and 3 real positions out of 5: masked keys and
    a trailing PAD column, packed into 9 rows."""

    MASK = np.array([[1, 1, 1, 1, 0], [1, 1, 0, 0, 0], [1, 1, 1, 0, 0]],
                    dtype=np.float32)

    def make_block(self):
        cfg = tiny_encoder_config(block_subset=(1,))
        rng = np.random.default_rng(6)
        bp = init_encoder_params(cfg, rng, np.float64).blocks[1]
        for p in bp.parameters():  # biases off 0 and gains off 1
            p.data += 0.3 * rng.standard_normal(p.shape)

        def tensor(name, shape):
            return Parameter(rng.standard_normal(shape), name)

        return cfg, bp, tensor

    def cases(self):
        """(name, run(op), (fused op, composed op), tensors whose gradient
        is checked)"""
        cfg, bp, tensor = self.make_block()
        layout = Layout(self.MASK)
        hidden = tensor("hidden", (9, 8))
        pooled = tensor("pooled", (3, 8))
        x, y = tensor("x", (9, 8)), tensor("y", (9, 8))
        attention = [bp.wq, bp.bq, bp.wk, bp.bk, bp.wv, bp.bv, bp.wo, bp.bo]
        return [
            ("attention", lambda op: op(hidden, hidden, layout, bp, cfg),
             (self_attention, composed_packed_attention),
             [hidden] + attention),
            ("pooled attention",
             lambda op: op(pooled, hidden, layout, bp, cfg),
             (self_attention, composed_packed_attention),
             [pooled, hidden] + attention),
            ("feed-forward", lambda op: op(x, bp),
             (feed_forward, composed_feed_forward),
             [x, bp.w1, bp.b1, bp.w2, bp.b2]),
            ("add-norm",
             lambda op: op(x, y, bp.ln1_gain, bp.ln1_bias, 1e-5),
             (add_norm, composed_add_norm),
             [x, y, bp.ln1_gain, bp.ln1_bias]),
        ]

    @pytest.mark.parametrize("case", range(4))
    def test_float64_grad_check(self, case):
        name, run, (fused, _), tensors = self.cases()[case]
        # abs_floor: the finite difference of `attn_k/b`, whose true
        # gradient is zero, is rounding noise of about 1e-9.
        res = grad_check(lambda: probe(run(fused)), tensors, eps=1e-6,
                         abs_floor=1e-8, n_samples=300)
        assert res.max_rel_error < 1e-5, (name, res.worst_param)
        assert {n for n, *_ in res.errors} == {t.name for t in tensors}

    @pytest.mark.parametrize("case", range(4))
    def test_matches_the_composition(self, case):
        name, run, ops, tensors = self.cases()[case]
        results = []
        for op in ops:
            for t in tensors:
                t.zero_grad()
            out = run(op)
            probe(out).backward()
            results.append((out.data, [t.grad.copy() for t in tensors]))
        (fused_out, fused_grads), (ref_out, ref_grads) = results
        np.testing.assert_allclose(fused_out, ref_out, rtol=1e-12)
        # atol: `attn_k/b` has zero true gradient (softmax cancels a
        # per-query shift), so both sides hold rounding noise there.
        for t, got, want in zip(tensors, fused_grads, ref_grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14,
                                       err_msg=f"{name}: {t.name}")

    def test_add_norm_gives_both_inputs_the_same_gradient(self):
        _, run, (fused, _), (x, y, *_) = self.cases()[3]
        probe(run(fused)).backward()
        np.testing.assert_array_equal(x.grad, y.grad)

    def test_train_step_makes_six_tensors_per_block(self, monkeypatch):
        ids, mask, labels = small_batch()
        models = [small_model(block_subset=s) for s in ((1,), (1, 2))]
        counts = []
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            counts[-1] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        for model in models:
            counts.append(0)
            nll_loss(model.forward(ids, mask, "train"), labels).backward()
        # attention, dropout, add-norm, feed-forward, dropout, add-norm
        assert counts[1] - counts[0] == 6
