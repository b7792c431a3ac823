import os
import threading
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from conftest import (legacy_checkpoint, small_batch, small_model,
                      toy_model_config, with_removed_biases)
from ufnd import encoder, trainer
from ufnd.autograd import Tensor, no_grad
from ufnd.checkpoint import load_checkpoint, save_checkpoint
from ufnd.classifier import HeadConfig
from ufnd.encoder import EncoderConfig, select_blocks
from ufnd.errors import (ArgumentError, ContractError, IncompatibilityError,
                         ShapeError)
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

    def test_freeze_encoder_leaves_encoder_unchanged(self, toy_split):
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(4))
        before = {p.name: p.data.copy()
                  for p in model.encoder_params.parameters()}
        head_before = model.head_params.l1_w.data.copy()
        train(model, split_data.train, split_data.test,
              small_train_cfg(seed=4, epochs=2, freeze_encoder=True))
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
                         small_train_cfg(seed=17, epochs=epochs, clip=1e9),
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
        # Rollback may undo the second call's weights, but not its moments.
        moment = "adam/encoder/token_embedding/m"
        moved = (by_rows.tensors[moment] != mid.tensors[moment]).any(axis=1)
        assert moved[CLS_ID + 1:shift].any() and moved[shift:].any()
        assert by_rows_report.loss_trace() == dense_report.loss_trace()
        assert by_rows.tensors.keys() == dense.tensors.keys()
        for name in dense.tensors:
            np.testing.assert_array_equal(by_rows.tensors[name],
                                          dense.tensors[name], err_msg=name)

    def test_checkpoint_stores_the_weights_once(self, toy_split):
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(8))
        ckpt, _ = train(model, split_data.train, split_data.test,
                        small_train_cfg(seed=8, epochs=1))
        assert {name.split("/")[0] for name in ckpt.tensors} == \
            {"best", "adam"}
        assert "best_mode" not in ckpt.config["train"]

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
        `dropout_rate`, `max_seq_len`, `preprocessing_enabled` and
        `best_mode` load."""
        split_data, vocab = toy_split
        model = Model(toy_model_config(len(vocab)), RngStreams(8))
        cfg = small_train_cfg(seed=8, epochs=1)
        ckpt, _ = train(model, split_data.train, split_data.test, cfg)
        ckpt.config["train"].update(dropout_rate=0.1, max_seq_len=16,
                                    preprocessing_enabled=True,
                                    best_mode="rollback")
        path = tmp_path / "old.ufnd"
        save_checkpoint(ckpt, path)
        restored, restored_cfg = model_from_checkpoint(load_checkpoint(path))
        assert restored_cfg == cfg
        np.testing.assert_array_equal(predict_dataset(restored,
                                                      split_data.test),
                                      predict_dataset(model, split_data.test))


class TestLegacyCheckpoint:
    SEED = 31

    @pytest.fixture
    def saved(self, toy_split, tmp_path):
        """`save(best_mode)` writes the 2-epoch checkpoint, in the format
        before `best_mode` was retired unless `best_mode` is None, and
        returns its path."""
        split_data, vocab = toy_split
        mid, _ = train(Model(toy_model_config(len(vocab)),
                             RngStreams(self.SEED)),
                       split_data.train, split_data.test,
                       small_train_cfg(seed=self.SEED, epochs=2))

        def save(best_mode=None):
            path = tmp_path / f"{best_mode}.ufnd"
            save_checkpoint(mid if best_mode is None
                            else legacy_checkpoint(mid, best_mode), path)
            return path
        return save

    @staticmethod
    def _log_probs(path, ds):
        model, _ = model_from_checkpoint(load_checkpoint(path))
        with no_grad():
            return model.forward(ds.ids, ds.mask, "eval").data

    def _resume(self, path, split_data, vocab):
        model = Model(toy_model_config(len(vocab)), RngStreams(self.SEED))
        return train(model, split_data.train, split_data.test,
                     small_train_cfg(seed=self.SEED, epochs=4),
                     resume=load_checkpoint(path))

    def test_rollback_checkpoint_evaluates_and_resumes_as_a_new_one(
            self, saved, toy_split):
        split_data, vocab = toy_split
        new, old = saved(), saved("rollback")
        np.testing.assert_array_equal(self._log_probs(old, split_data.test),
                                      self._log_probs(new, split_data.test))
        new_ckpt, new_report = self._resume(new, split_data, vocab)
        old_ckpt, old_report = self._resume(old, split_data, vocab)
        assert old_report.loss_trace() == new_report.loss_trace()
        assert old_ckpt.config == new_ckpt.config
        assert old_ckpt.meta == new_ckpt.meta
        assert old_ckpt.tensors.keys() == new_ckpt.tensors.keys()
        for name in new_ckpt.tensors:
            np.testing.assert_array_equal(old_ckpt.tensors[name],
                                          new_ckpt.tensors[name],
                                          err_msg=name)

    def test_checkpoint_with_the_removed_biases_resumes(self, saved,
                                                         toy_split,
                                                         tmp_path):
        """A checkpoint written while every block had a key bias and head
        layers 1 and 2 had biases resumes to the weights and losses of a
        new one; the batch norms' running means, into which the head
        biases are folded, agree within float32 rounding."""
        split_data, vocab = toy_split
        new = saved()
        old = tmp_path / "old.ufnd"
        save_checkpoint(with_removed_biases(load_checkpoint(new)), old)
        new_ckpt, new_report = self._resume(new, split_data, vocab)
        old_ckpt, old_report = self._resume(old, split_data, vocab)
        assert old_report.loss_trace() == new_report.loss_trace()
        assert old_ckpt.tensors.keys() == new_ckpt.tensors.keys()
        for name in new_ckpt.tensors:
            if "running_mean" in name:
                np.testing.assert_allclose(old_ckpt.tensors[name],
                                           new_ckpt.tensors[name],
                                           rtol=1e-5, atol=1e-6,
                                           err_msg=name)
            else:
                np.testing.assert_array_equal(old_ckpt.tensors[name],
                                              new_ckpt.tensors[name],
                                              err_msg=name)

    def test_select_checkpoint_evaluates_but_does_not_resume(
            self, saved, toy_split):
        split_data, vocab = toy_split
        new, old = saved(), saved("select")
        np.testing.assert_array_equal(self._log_probs(old, split_data.test),
                                      self._log_probs(new, split_data.test))
        with pytest.raises(IncompatibilityError, match="best_mode='select'"):
            self._resume(old, split_data, vocab)


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
                             [(tuple(range(1, 13)), 61), ((1, 9), 21)])
    def test_desk_train_step_makes_a_fixed_number_of_tensors(
            self, subset, tensors, monkeypatch):
        """Every tensor made from `zero_grad` to the last Adam update,
        counted as the benchmark's tracer counts them: 4 per block
        (attention, add-norm, feed-forward, add-norm; each dropout runs
        inside its add-norm),
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

    def test_desk_train_step_makes_190_adam_calls(self, monkeypatch):
        """One per parameter: 2 embedding tables, 15 per block and 8 in the
        head.  Blocks have no key bias and head layers 1 and 2 no bias:
        their true gradient is zero (softmax and batch norm cancel them)."""
        ids, mask, labels = small_batch()
        model = Model(desk_config(vocab_size=50, max_seq_len=8),
                      RngStreams(3))
        ds = EncodedDataset(ids=ids, mask=mask, labels=labels,
                            true_lengths=mask.sum(axis=1).astype(np.int64),
                            vocab_hash="", max_seq_len=8)
        params = model.parameters()
        names = {p.name for p in params}
        assert not {n for n in names if n.endswith("/attn_k/b")}
        assert not names & {"head/l1/b", "head/l2/b"}
        adam = {p.name: AdamState.for_param(p) for p in params}
        calls = []
        step = trainer.adam_step

        def counting(param, state):
            calls.append(param.name)
            step(param, state)

        monkeypatch.setattr(trainer, "adam_step", counting)
        trainer._train_step(model, params, adam, small_train_cfg(), ds,
                            np.arange(len(ds)))
        assert len(calls) == 190
        assert sorted(calls) == sorted(names)

    def test_backward_frees_the_graph_while_the_loss_lives(self,
                                                           monkeypatch):
        ids, mask, labels = small_batch()
        model = small_model()
        attention, made = encoder.self_attention, []

        def recording(*args):  # a Tensor takes no weakref; its array does
            out = attention(*args)
            made.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(encoder, "self_attention", recording)
        loss = nll_loss(model.forward(ids, mask, "train"), labels)
        assert len(made) == 2 and all(ref() is not None for ref in made)
        loss.backward()
        assert all(ref() is None for ref in made)
        with pytest.raises(ContractError):
            loss.backward()

    # The peak measured with the graph freed during backward was 20.3 MB;
    # keeping every node's arrays until the step returned took 28.1 MB.
    STEP_BUDGET_MB = 22.5

    def test_desk_step_fits_its_memory_budget(self):
        """tracemalloc peak of one desk train step on 2 full rows of 120
        positions, about 10 % over the measured peak."""
        rng = np.random.default_rng(0)
        ids = rng.integers(3, 200, size=(2, 120)).astype(np.int32)
        ids[:, 0] = CLS_ID
        mask = np.ones((2, 120), dtype=np.float32)
        ds = EncodedDataset(ids=ids, mask=mask, labels=np.array([0, 1]),
                            true_lengths=np.full(2, 120), vocab_hash="",
                            max_seq_len=120)
        model = Model(desk_config(vocab_size=200, max_seq_len=120),
                      RngStreams(3))
        params = model.parameters()
        adam = {p.name: AdamState.for_param(p) for p in params}
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            trainer._train_step(model, params, adam, small_train_cfg(), ds,
                                np.arange(2))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak / 1e6 <= self.STEP_BUDGET_MB


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


class TestBlockedPrediction:
    """`predict_dataset` scores fixed blocks of rows, here 3 rows each, on
    one thread per CPU of the (patched) affinity mask."""

    ROWS = 3

    def model_and_data(self, monkeypatch, toy_split, cpus):
        split_data, vocab = toy_split
        ds = split_data.test
        monkeypatch.setattr(trainer, "BLOCK_POSITIONS",
                            self.ROWS * ds.max_seq_len)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
        return ds, Model(toy_model_config(len(vocab)), RngStreams(5))

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_blocks_match_a_serial_loop_on_any_cpu_count(
            self, monkeypatch, toy_split, cpus):
        ds, model = self.model_and_data(monkeypatch, toy_split, cpus)
        starts = range(0, len(ds), self.ROWS)
        assert len(starts) == 8
        with no_grad():
            serial = [model.forward(ds.ids[s:s + self.ROWS],
                                    ds.mask[s:s + self.ROWS], "eval").data
                      for s in starts]
        calls = []
        forward = model.forward

        def recorded(ids, mask, mode):
            out = forward(ids, mask, mode)
            calls.append((ids.tobytes(), out.data,
                          threading.current_thread().name))
            return out

        monkeypatch.setattr(model, "forward", recorded)
        preds = predict_dataset(model, ds)
        assert len(calls) == len(starts)
        assert len({name for _, _, name in calls}) == min(cpus, len(starts))
        by_block = {ids: data for ids, data, _ in calls}
        for s, want in zip(starts, serial):
            np.testing.assert_array_equal(
                by_block[ds.ids[s:s + self.ROWS].tobytes()], want)
        np.testing.assert_array_equal(
            preds, np.argmax(np.concatenate(serial), axis=1))

    def test_first_error_in_block_order_reaches_the_caller(self, monkeypatch,
                                                           toy_split):
        ds, model = self.model_and_data(monkeypatch, toy_split, 4)
        bad_ids = ds.ids.copy()
        bad_ids[-1, 1] = 20_000  # the last block, on a worker thread
        with pytest.raises(ShapeError, match="20000"):
            predict_dataset(model, replace(ds, ids=bad_ids))
        bad_ids[self.ROWS, 1] = 10_000  # block 1
        with pytest.raises(ShapeError, match="10000"):
            predict_dataset(model, replace(ds, ids=bad_ids))
        assert model.forward(ds.ids[:2], ds.mask[:2], "eval")._parents

    def test_one_block_starts_no_thread(self, monkeypatch, toy_split):
        ds, model = self.model_and_data(monkeypatch, toy_split, 4)
        one_block = replace(ds, ids=ds.ids[:self.ROWS],
                            mask=ds.mask[:self.ROWS],
                            labels=ds.labels[:self.ROWS],
                            true_lengths=ds.true_lengths[:self.ROWS])

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        with no_grad():
            want = model.forward(one_block.ids, one_block.mask, "eval")
        np.testing.assert_array_equal(predict_dataset(model, one_block),
                                      np.argmax(want.data, axis=1))
