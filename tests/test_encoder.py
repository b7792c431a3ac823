import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import small_batch, small_model
from ufnd import autograd as ag
from ufnd import encoder as encoder_module
from ufnd import model as model_module
from ufnd.encoder import (EncoderConfig, embed, encode_sequence,
                          encoder_block, init_encoder_params, param_count,
                          select_blocks)
from ufnd.errors import ArgumentError, ContractError
from ufnd.numerics import RngStreams, grad_check, nll_loss


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
        hidden = embed(ids, params)
        for idx in cfg.block_subset[:-1]:
            hidden = encoder_block(hidden, hidden, mask, params.blocks[idx],
                                   cfg, mode, rng)
        pooled = encoder_block(ag.take_first(hidden), hidden, mask,
                               params.blocks[cfg.block_subset[-1]], cfg,
                               mode, rng)
        np.testing.assert_array_equal(out, pooled.data[:, 0, :])


def full_width_encode(ids, mask, params, config, mode, rng):
    """The encoder with every block full width, then position 0 pooled."""
    width = int(np.flatnonzero(np.any(mask, axis=0))[-1]) + 1
    ids, mask = ids[:, :width], mask[:, :width]
    hidden = embed(ids, params)
    for idx in config.block_subset:
        hidden = encoder_block(hidden, hidden, mask, params.blocks[idx],
                               config, mode, rng)
    first = ag.take_first(hidden)
    return ag.reshape(first, (first.shape[0], first.shape[2]))


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
        assert seen == [((3, 7, 8), (3, 7, 8))] * 2 + [((3, 1, 8),
                                                        (3, 7, 8))]

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
        # query's gradient flows back through `take_first`.
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
