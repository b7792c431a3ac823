from dataclasses import replace

import numpy as np
import pytest

from conftest import small_batch, small_model, toy_model_config
from ufnd import trainer
from ufnd.autograd import Tensor, no_grad
from ufnd.checkpoint import load_checkpoint, save_checkpoint
from ufnd.classifier import HeadConfig
from ufnd.encoder import EncoderConfig, select_blocks
from ufnd.errors import ArgumentError, ShapeError
from ufnd.model import Model, desk_config
from ufnd.numerics import AdamState, RngStreams, grad_check, nll_loss
from ufnd.textprep import CLS_ID, EncodedDataset
from ufnd.trainer import (TrainConfig, batch_iterator, estimate_cost,
                          evaluate, model_from_checkpoint, predict_dataset,
                          train)


def small_train_cfg(**kw):
    base = dict(seed=13, epochs=3, batch_size=16)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    def test_defaults_match_training_recipe(self):
        cfg = TrainConfig(seed=0)
        assert cfg.lr == 0.003
        assert cfg.clip == 1.0
        assert cfg.epochs == 50
        model = desk_config()
        assert model.encoder.dropout_rate == 0.1
        assert model.head.dropout_rate == 0.1

    def test_validation(self):
        with pytest.raises(ArgumentError):
            TrainConfig(seed=0, lr=0.0)
        with pytest.raises(ArgumentError):
            TrainConfig(seed=0, batch_size=1)
        with pytest.raises(ArgumentError):
            TrainConfig(seed=0, best_mode="other")

    @pytest.mark.parametrize("field", ["lr", "clip"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ArgumentError, match="finite"):
            TrainConfig(seed=0, **{field: value})


class TestBatchIterator:
    def test_partition(self):
        batches = batch_iterator(50, 16, epoch=1, seed=0)
        flat = np.concatenate(batches)
        assert sorted(flat.tolist()) == list(range(50))

    def test_short_tail_merged(self):
        batches = batch_iterator(33, 16, epoch=1, seed=0)
        assert [len(b) for b in batches] == [16, 17]

    def test_normal_tail_kept(self):
        batches = batch_iterator(34, 16, epoch=1, seed=0)
        assert [len(b) for b in batches] == [16, 16, 2]

    def test_deterministic_per_epoch(self):
        a = batch_iterator(40, 8, epoch=2, seed=5)
        b = batch_iterator(40, 8, epoch=2, seed=5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)
        c = batch_iterator(40, 8, epoch=3, seed=5)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            batch_iterator(0, 16, epoch=1, seed=0)


class TestTrainLoop:
    def test_loss_decreases_on_learnable_task(self, toy_split):
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(13))
        cfg = small_train_cfg(epochs=8)
        _, report = train(model, split_data.train, split_data.test, cfg)
        trace = report.loss_trace()
        assert trace[-1] < trace[0]
        assert report.best_val_accuracy > 0.5

    def test_deterministic_given_seed(self, toy_split):
        split_data, vocab = toy_split

        def run():
            model = Model(toy_model_config(len(vocab)), RngStreams(21))
            return train(model, split_data.train, split_data.test,
                         small_train_cfg(seed=21))

        ckpt_a, report_a = run()
        ckpt_b, report_b = run()
        assert report_a.loss_trace() == report_b.loss_trace()
        for name in ckpt_a.tensors:
            np.testing.assert_array_equal(ckpt_a.tensors[name],
                                          ckpt_b.tensors[name])

    def test_checkpoint_bitwise_identical(self, toy_split, tmp_path):
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(21))
        ckpt, _ = train(model, split_data.train, split_data.test,
                        small_train_cfg(seed=21, epochs=2))
        a, b = tmp_path / "a.ufnd", tmp_path / "b.ufnd"
        save_checkpoint(ckpt, a)
        save_checkpoint(ckpt, b)
        assert a.read_bytes() == b.read_bytes()

    def test_rollback_keeps_best_weights_current(self, toy_split):
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(3))
        ckpt, report = train(model, split_data.train, split_data.test,
                             small_train_cfg(seed=3, epochs=5))
        # under rollback the live weights equal the best snapshot at the end
        for name, arr in model.state_arrays().items():
            np.testing.assert_array_equal(arr, ckpt.tensors["best/" + name])
        assert evaluate(model, split_data.test).accuracy == \
            report.best_val_accuracy

    def test_select_mode_still_records_best(self, toy_split):
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(3))
        ckpt, report = train(model, split_data.train, split_data.test,
                             small_train_cfg(seed=3, epochs=5,
                                             best_mode="select"))
        best_model, _ = model_from_checkpoint(ckpt, which="best")
        assert evaluate(best_model, split_data.test).accuracy == \
            pytest.approx(report.best_val_accuracy)

    def test_freeze_encoder_leaves_encoder_unchanged(self, toy_split):
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(4))
        before = {p.name: p.data.copy()
                  for p in model.encoder_params.parameters()}
        head_before = model.head_params.l1_w.data.copy()
        train(model, split_data.train, split_data.test,
              small_train_cfg(seed=4, epochs=2, freeze_encoder=True,
                              best_mode="select"))
        for p in model.encoder_params.parameters():
            np.testing.assert_array_equal(p.data, before[p.name])
        assert not np.array_equal(model.head_params.l1_w.data, head_before)

    def test_checked_mode_runs_clean(self, toy_split):
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(5))
        _, report = train(model, split_data.train, split_data.test,
                          small_train_cfg(seed=5, epochs=1, checked=True))
        assert len(report.epochs) == 1

    def test_report_metadata_and_render(self, toy_split):
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(6))
        _, report = train(model, split_data.train, split_data.test,
                          small_train_cfg(seed=6, epochs=1))
        assert report.metadata["rng_algorithm"] == "numpy-PCG64"
        assert report.metadata["gelu_variant"] == "exact-erf"
        assert "WordPiece" in report.metadata["tokenizer"]
        text = report.render()
        assert "best_val_accuracy" in text
        assert "epoch\ttrain_loss" in text
        lines = text.splitlines()
        header = next(i for i, line in enumerate(lines)
                      if line.startswith("epoch\t"))
        columns = lines[header].split("\t")
        assert columns[-2:] == ["max_pre_clip_norm", "clipped_steps"]
        (record,) = report.epochs
        row = dict(zip(columns, lines[header + 1].split("\t")))
        assert float(row["max_pre_clip_norm"]) == pytest.approx(
            record.max_pre_clip_norm, abs=1e-6)
        assert record.max_pre_clip_norm > 0.0
        assert int(row["clipped_steps"]) == record.clipped_steps
        assert lines[-1] == (f"best_val_accuracy\t"
                             f"{report.best_val_accuracy:.6f}")


class TestResume:
    def test_resume_matches_uninterrupted_run(self, toy_split, tmp_path):
        split_data, vocab = toy_split
        seed = 31

        full_model = Model(toy_model_config(len(vocab)), RngStreams(seed))
        full_ckpt, full_report = train(
            full_model, split_data.train, split_data.test,
            small_train_cfg(seed=seed, epochs=4))

        part_model = Model(toy_model_config(len(vocab)), RngStreams(seed))
        mid_ckpt, mid_report = train(
            part_model, split_data.train, split_data.test,
            small_train_cfg(seed=seed, epochs=2))
        path = tmp_path / "mid.ufnd"
        save_checkpoint(mid_ckpt, path)

        resumed_model = Model(toy_model_config(len(vocab)), RngStreams(seed))
        resumed_ckpt, resumed_report = train(
            resumed_model, split_data.train, split_data.test,
            small_train_cfg(seed=seed, epochs=4),
            resume=load_checkpoint(path))

        combined = mid_report.loss_trace() + resumed_report.loss_trace()
        np.testing.assert_allclose(combined, full_report.loss_trace(),
                                   rtol=0, atol=0)
        for name in full_ckpt.tensors:
            np.testing.assert_array_equal(full_ckpt.tensors[name],
                                          resumed_ckpt.tensors[name])

    def test_resume_onto_rows_the_first_call_never_touched(
            self, toy_split, tmp_path, monkeypatch):
        # The second call trains on token ids shifted past every id of the
        # first, so after the resume the first call's rows move on their
        # moments alone and the new rows join.  The reference reads every
        # gradient densely before clipping, which sends clip and Adam down
        # their whole-array path.  No step clips (clip 1e9): dense and row
        # clipping sum the same squares in different orders.
        split_data, vocab = toy_split
        first = split_data.train
        shift = len(vocab)
        second = replace(first, ids=np.where(first.ids > CLS_ID,
                                             first.ids + shift, first.ids))
        cfg = toy_model_config(2 * len(vocab))

        def run(epochs, ds, resume=None):
            model = Model(cfg, RngStreams(17))
            return train(model, ds, split_data.test,
                         small_train_cfg(seed=17, epochs=epochs, clip=1e9,
                                         best_mode="select"),
                         resume=resume)

        def two_calls():
            mid, _ = run(1, first)
            save_checkpoint(mid, tmp_path / "mid.ufnd")
            return run(2, second, load_checkpoint(tmp_path / "mid.ufnd"))

        by_rows, by_rows_report = two_calls()
        mid = load_checkpoint(tmp_path / "mid.ufnd")
        dense_clip = trainer.clip_global_norm

        def clip_dense(params, clip):
            for p in params:
                p.grad  # a dense read
            return dense_clip(params, clip)

        monkeypatch.setattr(trainer, "clip_global_norm", clip_dense)
        dense, dense_report = two_calls()
        table = "encoder/token_embedding"
        moved = (by_rows.tensors["model/" + table]
                 != mid.tensors["model/" + table]).any(axis=1)
        assert moved[CLS_ID + 1:shift].any() and moved[shift:].any()
        assert by_rows_report.loss_trace() == dense_report.loss_trace()
        assert by_rows.tensors.keys() == dense.tensors.keys()
        for name in dense.tensors:
            np.testing.assert_array_equal(by_rows.tensors[name],
                                          dense.tensors[name], err_msg=name)

    def test_model_roundtrip_through_file(self, toy_split, tmp_path):
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(8))
        ckpt, _ = train(model, split_data.train, split_data.test,
                        small_train_cfg(seed=8, epochs=2))
        path = tmp_path / "m.ufnd"
        save_checkpoint(ckpt, path)
        restored, cfg = model_from_checkpoint(load_checkpoint(path))
        assert cfg.seed == 8
        best = load_checkpoint(path, prefix="best/")
        built, _ = model_from_checkpoint(best)
        for name, arr in built.state_arrays().items():
            assert arr is best.tensors["best/" + name]  # not a copy
        a = evaluate(model, split_data.test).accuracy
        b = evaluate(restored, split_data.test).accuracy
        assert a == pytest.approx(b)

    def test_header_with_retired_train_fields_loads(self, toy_split,
                                                     tmp_path):
        """Checkpoints written while `TrainConfig` still had
        `dropout_rate`, `max_seq_len` and `preprocessing_enabled` load."""
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(8))
        cfg = small_train_cfg(seed=8, epochs=1)
        ckpt, _ = train(model, split_data.train, split_data.test, cfg)
        ckpt.config["train"].update(dropout_rate=0.1, max_seq_len=16,
                                    preprocessing_enabled=True)
        path = tmp_path / "old.ufnd"
        save_checkpoint(ckpt, path)
        restored, restored_cfg = model_from_checkpoint(load_checkpoint(path))
        assert restored_cfg == cfg
        np.testing.assert_array_equal(predict_dataset(restored,
                                                      split_data.test),
                                      predict_dataset(model, split_data.test))


class TestEstimateCost:
    DESK = desk_config()

    def test_monotone_in_seq_len(self):
        c120 = estimate_cost(self.DESK.encoder, self.DESK.head, 120, 32)
        c200 = estimate_cost(self.DESK.encoder, self.DESK.head, 200, 32)
        assert c200 > c120

    def test_linear_in_batch_size(self):
        c1 = estimate_cost(self.DESK.encoder, self.DESK.head, 120, 16)
        c2 = estimate_cost(self.DESK.encoder, self.DESK.head, 120, 32)
        assert c2 == pytest.approx(2.0 * c1)

    def test_monotone_in_block_count(self):
        from ufnd.encoder import select_blocks
        full = estimate_cost(self.DESK.encoder, self.DESK.head, 120, 32)
        pruned = estimate_cost(select_blocks(self.DESK.encoder, (1, 5, 9)),
                               self.DESK.head, 120, 32)
        assert pruned < full

    def test_closed_form_single_block_oracle(self):
        enc = EncoderConfig(vocab_size=10, d_model=4, n_heads=2, d_ff=8,
                            max_seq_len=16, n_blocks_total=1,
                            block_subset=(1,))
        head = HeadConfig(d_in=4, h1=3, h2=2)
        L, d, ff = 16, 4, 8
        # the only block is the last: K/V at L positions, Q/O, attention
        # and feed-forward at the pooled position alone
        last_block = 2 * L * d * d + 2 * d * d + 2 * L * d + 2 * d * ff
        expected = 3.0 * 2 * (L * d + last_block + (4 * 3 + 3 * 2 + 2 * 2))
        assert estimate_cost(enc, head, L, 2) == pytest.approx(expected)

    def test_all_full_lengths_give_the_fixed_length_value(self):
        for subset in (tuple(range(1, 13)), (1, 9), (5,)):
            enc = select_blocks(self.DESK.encoder, subset)
            fixed = estimate_cost(enc, self.DESK.head, 120, 8)
            assert estimate_cost(enc, self.DESK.head, 120, 8,
                                 np.full(8, 120)) == fixed

    def test_falls_as_rows_shorten(self):
        costs = [estimate_cost(self.DESK.encoder, self.DESK.head, 120, 4,
                               lengths)
                 for lengths in ([120] * 4, [120, 60, 60, 60],
                                 [60, 60, 60, 60], [60, 30, 20, 10])]
        assert costs == sorted(costs, reverse=True)
        assert len(set(costs)) == 4

    def test_real_lengths_closed_form(self):
        enc = EncoderConfig(vocab_size=10, d_model=4, n_heads=2, d_ff=8,
                            max_seq_len=16, n_blocks_total=2,
                            block_subset=(1, 2))
        head = HeadConfig(d_in=4, h1=3, h2=2)
        d, ff, width, real, batch = 4, 8, 6, 9, 2
        # per-position work on the 6 + 3 real positions, attention over
        # the cut width 6
        full_block = (4 * real * d * d + 2 * batch * width * width * d
                      + 2 * real * d * ff)
        last_block = (2 * real * d * d + 2 * batch * d * d
                      + 2 * batch * width * d + 2 * batch * d * ff)
        expected = 3.0 * (batch * width * d + full_block + last_block
                          + batch * (4 * 3 + 3 * 2 + 2 * 2))
        assert estimate_cost(enc, head, 16, 2, [6, 3]) == expected

    @pytest.mark.parametrize("lengths", [[6], [6, 0], [6, 17]])
    def test_bad_lengths_rejected(self, lengths):
        with pytest.raises(ArgumentError):
            estimate_cost(self.DESK.encoder, self.DESK.head, 16, 2, lengths)

    def test_desk_ratio_bracket(self):
        with_prep = estimate_cost(self.DESK.encoder, self.DESK.head, 120, 32)
        without = estimate_cost(self.DESK.encoder, self.DESK.head, 200, 32)
        ratio = without / with_prep
        assert 1.5 <= ratio <= 2.8


class TestStepGraph:
    @pytest.mark.parametrize("subset, tensors",
                             [(tuple(range(1, 13)), 85), ((1, 9), 25)])
    def test_desk_train_step_makes_a_fixed_number_of_tensors(
            self, subset, tensors, monkeypatch):
        """Every tensor made from `zero_grad` to the last Adam update,
        counted as the benchmark's tracer counts them: 6 per block
        (attention, dropout, add-norm, feed-forward, dropout, add-norm),
        2 for the packed embedding and the pooled rows, and 11 for the
        head and the loss."""
        ids, mask, labels = small_batch()
        model = Model(desk_config(vocab_size=50, max_seq_len=8,
                                  block_subset=subset), RngStreams(3))
        ds = EncodedDataset(ids=ids, mask=mask, labels=labels,
                            true_lengths=mask.sum(axis=1).astype(np.int64),
                            vocab_hash="", max_seq_len=8)
        params = model.parameters()
        adam = {p.name: AdamState.for_param(p) for p in params}
        count = 0
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            nonlocal count
            count += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        trainer._train_step(model, params, adam, small_train_cfg(), ds,
                            np.arange(len(ds)))
        assert count == tensors


class TestGraphFreeInference:
    @pytest.mark.parametrize("pad", [True, False])
    def test_predictions_match_a_recording_forward(self, toy_split, pad):
        split_data, vocab = toy_split
        ds = split_data.test
        if not pad:
            ds = replace(ds, ids=np.where(ds.mask > 0, ds.ids, 5),
                         mask=np.ones_like(ds.mask),
                         true_lengths=np.full(len(ds), ds.max_seq_len))
        assert (ds.mask == 0).any() == pad
        model = Model(toy_model_config(len(vocab)), RngStreams(5))
        recorded = model.forward(ds.ids, ds.mask, "eval")
        assert recorded._parents
        with no_grad():
            free = model.forward(ds.ids, ds.mask, "eval")
        assert free._parents == () and not free.requires_grad
        np.testing.assert_array_equal(free.data, recorded.data)
        np.testing.assert_array_equal(predict_dataset(model, ds),
                                      np.argmax(recorded.data, axis=1))

    def test_grad_check_after_predict_dataset(self):
        ids, mask, labels = small_batch()
        model = small_model(dtype=np.float64, dropout_rate=0.0)
        ds = EncodedDataset(ids=ids, mask=mask, labels=labels,
                            true_lengths=mask.sum(axis=1).astype(np.int64),
                            vocab_hash="", max_seq_len=ids.shape[1])
        predict_dataset(model, ds)
        bad_ids = ids.copy()
        bad_ids[0, 1] = 10_000  # out of range: raises inside no_grad
        with pytest.raises(ShapeError):
            predict_dataset(model, replace(ds, ids=bad_ids))
        res = grad_check(
            lambda: nll_loss(model.forward(ids, mask, "eval"), labels),
            model.parameters(), eps=1e-5, abs_floor=1e-10, n_samples=40)
        assert res.max_rel_error < 1e-4, res.worst_param
