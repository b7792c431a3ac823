import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import TOY_SEQ_LEN, toy_model_config
from ufnd import trainer, unified
from ufnd.checkpoint import Checkpoint
from ufnd.corpus import split_indices
from ufnd.encoder import param_count
from ufnd.errors import ArgumentError, DataError
from ufnd.metrics import Metrics
from ufnd.synthetic import make_synthetic_corpus
from ufnd.textprep import (PrepConfig, build_vocab, encode_corpus,
                           tokenize_corpus)
from ufnd.trainer import EpochRecord, TrainConfig, TrainReport
from ufnd.unified import (AblationGrid, EncodedSplit, TrainedCell, ablate,
                          ablation_table, check_acceptable, load_baselines,
                          per_dataset_table, phase_one, phase_two,
                          phase_two_sweep, render_aligned, render_delimited,
                          run_cells, sweep_table)


def encoded_split(name, seed, n_docs=80, seq_len=TOY_SEQ_LEN):
    corpus = make_synthetic_corpus(n_docs, name, seed=seed)
    prep = PrepConfig(min_word_len=3, max_seq_len=seq_len)
    tokens = tokenize_corpus(corpus, prep)
    vocab = build_vocab(tokens, 100)
    ds = encode_corpus(tokens, vocab)
    train_rows, test_rows = split_indices(len(ds), 0.8, seed)
    return EncodedSplit(name=name, train=ds.take(train_rows),
                        test=ds.take(test_rows)), vocab


def quick_train_cfg(**kw):
    base = dict(seed=7, epochs=3, batch_size=16)
    base.update(kw)
    return TrainConfig(**base)


def constant_report():
    """A one-epoch report at validation accuracy 0.75, whatever was run."""
    metrics = Metrics(accuracy=0.75, precision=0.5, recall=0.5, f1=0.5)
    return TrainReport(epochs=[EpochRecord(1, 0.5, metrics, 0.0, 0.0, 0, 1)],
                       best_epoch=1, best_val_accuracy=0.75)


class TestCheckAcceptable:
    def test_within_threshold(self):
        assert check_acceptable(0.93, 0.99, 0.10)

    def test_exactly_at_threshold(self):
        assert check_acceptable(0.89, 0.99, 0.10)

    def test_beyond_threshold(self):
        assert not check_acceptable(0.88, 0.99, 0.10)

    def test_exceeding_baseline_passes(self):
        assert check_acceptable(0.999, 0.92, 0.01)

    def test_validation(self):
        with pytest.raises(ArgumentError):
            check_acceptable(0.9, 0.9, 0.0)
        for accuracy, baseline in ((-0.1, 0.9), (1.1, 0.9), (0.9, 0.0),
                                   (0.9, 1.1)):
            with pytest.raises(ArgumentError):
                check_acceptable(accuracy, baseline, 0.1)

    def test_zero_accuracy_is_a_measurement(self):
        assert not check_acceptable(0.0, 0.9, 0.1)
        assert check_acceptable(0.0, 0.05, 0.1)


class TestLoadBaselines:
    def test_parse(self, tmp_path):
        p = tmp_path / "b.tsv"
        p.write_text("# id\taccuracy\tcitation\n"
                     "dataset1\t1.00\tprior best\n"
                     "dataset2\t0.92\tprior best\n\n"
                     "dataset3\t0.93\tprior best\n")
        baselines = load_baselines(p)
        assert baselines == {"dataset1": 1.00, "dataset2": 0.92,
                             "dataset3": 0.93}

    def test_bad_line(self, tmp_path):
        p = tmp_path / "b.tsv"
        p.write_text("dataset1\n")
        with pytest.raises(DataError, match=re.escape(f"{p}:1:")):
            load_baselines(p)

    def test_repeated_dataset_id(self, tmp_path):
        p = tmp_path / "b.tsv"
        p.write_text("ds1\t0.9\n# note\nds2\t0.8\nds1\t0.5\n")
        with pytest.raises(DataError,
                           match=re.escape(f"{p}:4: dataset id 'ds1' repeats "
                                           f"line 1")):
            load_baselines(p)


class TestPhaseOne:
    def _datasets(self):
        a, vocab_a = encoded_split("ds1", seed=101)
        b, vocab_b = encoded_split("ds2", seed=202)
        vocab = max(len(vocab_a), len(vocab_b))
        return [a, b], vocab

    @staticmethod
    def _assert_deficits_from_best_cells(result, baselines):
        """Each deficit is the baseline minus the accuracy of that dataset's
        best cell, the first of its highest-accuracy cells."""
        assert set(result.deficits) == set(baselines)
        for name, baseline in baselines.items():
            cells = [c for c in result.cells if c.dataset == name]
            best = max(cells, key=lambda c: c.metrics.accuracy)
            assert result.chosen_batch_sizes[name] == best.batch_size
            assert result.deficits[name] == baseline - best.metrics.accuracy

    def test_feasible_candidate_accepted(self):
        datasets, vocab = self._datasets()
        baselines = {"ds1": 0.55, "ds2": 0.55}
        result = phase_one(datasets, toy_model_config(vocab),
                           quick_train_cfg(), baselines=baselines,
                           threshold=0.10, batch_sizes=(16, 32))
        assert result.accepted
        assert set(result.chosen_batch_sizes) == {"ds1", "ds2"}
        self._assert_deficits_from_best_cells(result, baselines)
        assert all(d <= 0.10 for d in result.deficits.values())
        # one cell per dataset x batch size
        assert len(result.cells) == 4
        assert set(result.best_checkpoints) == {"ds1", "ds2"}
        for ckpt in result.best_checkpoints.values():
            assert ckpt.tensors and all(name.startswith("best/encoder/")
                                        for name in ckpt.tensors)

    def test_infeasible_reports_minimum_deficits(self):
        datasets, vocab = self._datasets()
        baselines = {"ds1": 1.0, "ds2": 1.0}
        result = phase_one(datasets, toy_model_config(vocab),
                           quick_train_cfg(epochs=1), baselines=baselines,
                           threshold=0.0001, batch_sizes=(16,))
        assert not result.accepted
        self._assert_deficits_from_best_cells(result, baselines)
        assert all(d > 0.0001 for d in result.deficits.values())

    def test_missing_baseline_rejected(self):
        datasets, vocab = self._datasets()
        with pytest.raises(ArgumentError, match="baseline"):
            phase_one(datasets, toy_model_config(vocab), quick_train_cfg(),
                      baselines={"ds1": 0.5}, threshold=0.1,
                      batch_sizes=(16,))

    def test_ties_keep_the_earliest_batch_size(self, monkeypatch, set_cpus):
        set_cpus(4)  # cells finish in no set order

        def fake_train(model, train_ds, val_ds, cfg):
            return (Checkpoint(config={"batch": cfg.batch_size}, tensors={}),
                    constant_report())

        monkeypatch.setattr(unified, "train", fake_train)
        datasets = [EncodedSplit(name=n, train=None, test=None)
                    for n in ("ds1", "ds2")]
        result = phase_one(datasets, toy_model_config(50), quick_train_cfg(),
                           baselines={"ds1": 0.8, "ds2": 0.8},
                           threshold=0.1, batch_sizes=(32, 16, 64))
        assert result.chosen_batch_sizes == {"ds1": 32, "ds2": 32}
        assert [c.config["batch"] for c in
                result.best_checkpoints.values()] == [32, 32]
        assert result.accepted


class TestPhaseTwo:
    def test_runs_and_reports(self):
        combined, vocab = encoded_split("combined", seed=303, n_docs=120)
        ckpt, report = phase_two(combined, toy_model_config(len(vocab)),
                                 quick_train_cfg(epochs=4))
        assert report.best_val_accuracy > 0.5
        assert any(name.startswith("best/head/") for name in ckpt.tensors)

    def test_encoder_transfer_copies_weights(self):
        combined, vocab = encoded_split("combined", seed=303, n_docs=120)
        cfg = toy_model_config(len(vocab))
        source_ckpt, _ = phase_two(combined, cfg, quick_train_cfg(epochs=1))
        from ufnd.model import Model
        from ufnd.numerics import RngStreams
        model = Model(cfg, RngStreams(quick_train_cfg().seed))
        for p in model.encoder_params.parameters():
            key = "best/" + p.name
            assert key in source_ckpt.tensors
        # a transfer run must differ from a fresh run at epoch 1
        _, fresh = phase_two(combined, cfg, quick_train_cfg(epochs=1))
        _, moved = phase_two(combined, cfg, quick_train_cfg(epochs=1),
                             encoder_source=source_ckpt)
        assert fresh.loss_trace() != moved.loss_trace()


class TestPhaseTwoSweep:
    def test_returns_the_run_of_the_chosen_batch_size(self):
        combined, vocab = encoded_split("combined", seed=303, n_docs=120)
        cfg = toy_model_config(len(vocab))
        cells, ckpt, report = phase_two_sweep(
            combined, cfg, quick_train_cfg(epochs=2), batch_sizes=(16, 32))
        chosen = max(cells, key=lambda c: c.metrics.accuracy)
        alone, alone_report = phase_two(
            combined, cfg, quick_train_cfg(epochs=2,
                                           batch_size=chosen.batch_size))
        assert report.loss_trace() == alone_report.loss_trace()
        assert sorted(ckpt.tensors) == sorted(alone.tensors)
        for name, arr in alone.tensors.items():
            np.testing.assert_array_equal(ckpt.tensors[name], arr)

    def test_ties_keep_the_earliest_batch_size(self, monkeypatch, set_cpus):
        set_cpus(4)  # cells finish in no set order

        def fake_phase_two(combined, model_cfg, train_cfg, source=None):
            return Checkpoint(config={"batch": train_cfg.batch_size},
                              tensors={}), constant_report()

        monkeypatch.setattr(unified, "phase_two", fake_phase_two)
        combined = EncodedSplit(name="c", train=None, test=None)
        _, ckpt, _ = phase_two_sweep(combined, None, quick_train_cfg(),
                                     batch_sizes=(32, 16, 64))
        assert ckpt.config["batch"] == 32


class TestRunCells:
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_every_cell_is_folded_here_once(self, set_cpus, cpus):
        set_cpus(cpus)
        folded = {}

        def fold(i, result):
            assert i not in folded
            folded[i] = result

        run_cells([f"cell {i}" for i in range(7)],
                  lambda i: (i * i, os.getpid()), fold)
        assert sorted(folded) == list(range(7))
        assert all(square == i * i for i, (square, _) in folded.items())
        # this process trains cells 0, n, 2n, ...; each worker one other
        # residue class
        pids = {i: pid for i, (_, pid) in folded.items()}
        assert len(set(pids.values())) == cpus
        assert [i for i, pid in pids.items() if pid == os.getpid()] == \
            list(range(0, 7, cpus))

    @pytest.mark.parametrize("cpus, cells, share", [(2, 3, 1), (4, 2, 2),
                                                    (4, 5, 1)])
    def test_each_process_gets_its_share_of_the_cpus(self, set_cpus, cpus,
                                                     cells, share):
        """While n processes train cells, each one's `usable_cpus()`, and
        so the threads of its train steps and predictions, is its 1/n
        share; the call then restores the whole count."""
        set_cpus(cpus)

        def train_cell(i):
            threads = set()
            trainer.run_threads(4, lambda item: threads.add(
                threading.current_thread().name))
            return trainer.usable_cpus(), len(threads)

        seen = {}
        run_cells([f"cell {i}" for i in range(cells)], train_cell,
                  seen.__setitem__)
        assert seen == {i: (share, share) for i in range(cells)}
        assert trainer.usable_cpus() == cpus

    @pytest.mark.parametrize("cpus, has_fork", [(1, True), (4, False)])
    def test_one_cpu_or_no_fork_trains_in_a_loop_here(self, monkeypatch,
                                                      set_cpus, cpus,
                                                      has_fork):
        set_cpus(cpus)
        if has_fork:
            def no_fork():
                raise AssertionError("a worker was forked")

            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.delattr(os, "fork")
        folded = []
        run_cells(["a", "b", "c"], lambda i: os.getpid(),
                  lambda i, pid: folded.append((i, pid)))
        assert folded == [(i, os.getpid()) for i in range(3)]

    def test_one_cpu_stops_at_the_first_error(self, set_cpus):
        set_cpus(1)
        trained = []

        def train_cell(i):
            trained.append(i)
            if i == 1:
                raise ArgumentError("cell 1")
            return i

        with pytest.raises(ArgumentError, match="cell 1"):
            run_cells(["a", "b", "c", "d"], train_cell, lambda i, r: None)
        assert trained == [0, 1]

    def test_buffered_output_is_printed_once(self):
        """Output still in this process's buffers when the workers fork is
        not printed again by each of them."""
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import os\n"
                "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
                "from ufnd.unified import run_cells\n"
                "print('before')\n"
                "run_cells(['a', 'b', 'c'], lambda i: i, lambda i, r: None)\n"
                "print('after')\n")
        done = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert done.stdout == "before\nafter\n"


class TestEmptyBatchSizes:
    def test_every_sweep_rejects_an_empty_list(self):
        ds = EncodedSplit(name="c", train=None, test=None)
        cfg = toy_model_config(50)
        with pytest.raises(ArgumentError, match="no batch sizes"):
            phase_one([ds], cfg, quick_train_cfg(), baselines={"c": 0.5},
                      threshold=0.1, batch_sizes=())
        with pytest.raises(ArgumentError, match="no batch sizes"):
            phase_two_sweep(ds, cfg, quick_train_cfg(), batch_sizes=())
        with pytest.raises(ArgumentError, match="no batch sizes"):
            ablate(ds, cfg, quick_train_cfg(),
                   AblationGrid(block_subsets=((1,),), batch_sizes=()))


class TestAblate:
    def test_grid_rows_labels_and_params(self):
        combined, vocab = encoded_split("abl", seed=505)
        cfg = toy_model_config(len(vocab))
        grid = AblationGrid(block_subsets=((1, 2), (1,)),
                            batch_sizes=(16, 32))
        rows = ablate(combined, cfg, quick_train_cfg(epochs=1), grid)
        assert len(rows) == 4
        assert [r.label for r in rows] == [
            "1,2 (16)", "1,2 (32)", "1 (16)", "1 (32)"]
        # params strictly decrease as the subset shrinks
        assert rows[0].param_count > rows[2].param_count
        for r in rows:
            from ufnd.encoder import select_blocks
            assert r.param_count == param_count(
                select_blocks(cfg.encoder, r.subset))


class TestTables:
    M = Metrics(accuracy=0.9, precision=0.8, recall=0.7, f1=0.74)

    def test_per_dataset_table_layout(self):
        cells = [TrainedCell("a", 16, self.M),
                 TrainedCell("a", 32, self.M),
                 TrainedCell("b", 16, self.M),
                 TrainedCell("b", 32, self.M)]
        header, rows = per_dataset_table(cells, ["a", "b"], (16, 32))
        assert header[0] == "Minibatch size"
        assert len(header) == 1 + 2 * 4
        assert "a Accuracy" in header and "b F1-score" in header
        assert [r[0] for r in rows] == [16, 32]
        assert len(rows[0]) == len(header)

    def test_sweep_table_sorted(self):
        cells = [TrainedCell("c", 64, self.M),
                 TrainedCell("c", 16, self.M)]
        header, rows = sweep_table(cells)
        assert [r[0] for r in rows] == [16, 64]
        assert header == ["Minibatch size", "Accuracy", "Precision",
                          "Recall", "F1-score"]

    def test_render_delimited_has_positive_class_note(self):
        text = render_delimited(["A", "B"], [[1, 0.5]])
        assert text.startswith("# positive class = fake (label 1)\n")
        assert "A\tB" in text
        assert "1\t0.5000" in text

    def test_render_aligned_columns(self):
        text = render_aligned(["Name", "Val"], [["x", 0.25]])
        lines = text.splitlines()
        assert lines[0].startswith("# positive class")
        assert "Name" in lines[1] and "0.2500" in lines[2]

    def test_ablation_table(self):
        from ufnd.unified import AblationRow
        rows = [AblationRow("1,9 (16)", (1, 9), 16, self.M, 1234)]
        header, out = ablation_table(rows)
        assert header[0] == "Encoder Blocks (mini batch size)"
        assert header[-1] == "Parameters"
        assert out[0][0] == "1,9 (16)"
        assert out[0][-1] == 1234
