import csv
import inspect
import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import (legacy_checkpoint, with_removed_biases,
                      with_retired_head_keys)
from ufnd import cli, unified
from ufnd.autograd import no_grad
from ufnd.checkpoint import load_checkpoint, save_checkpoint
from ufnd.classifier import HeadConfig
from ufnd.cli import (KEYS, load_encoded, main, parse_config_file,
                      resolve_config, save_encoded, sha256_file)
from ufnd.corpus import ColumnMap, combine, load_dataset, split_indices
from ufnd.encoder import EncoderConfig
from ufnd.errors import DataError, NonFiniteError, SchemaError
from ufnd.model import desk_config
from ufnd.synthetic import make_synthetic_corpus, write_synthetic_csv
from ufnd.textprep import (CLS_ID, PAD_ID, SPECIAL_TOKENS, UNK_ID,
                           PrepConfig, build_vocab)
from ufnd.trainer import TrainConfig, predict_dataset
from ufnd.unified import DEFAULT_BATCH_SIZES, AblationGrid

TINY_MODEL_KEYS = """\
model.d_model = 16
model.n_heads = 2
model.d_ff = 32
model.n_blocks_total = 2
model.h1 = 32
model.h2 = 24
prep.max_seq_len = 12
vocab.max_size = 200
train.epochs = 2
train.batch_size = 16
train.seed = 7
"""


def write_datasets(tmp_path, n=(60, 60)):
    paths = []
    for i, count in enumerate(n, start=1):
        corpus = make_synthetic_corpus(count, f"ds{i}", seed=100 + i)
        path = tmp_path / f"ds{i}.csv"
        write_synthetic_csv(corpus, path)
        paths.append(path)
    return paths


def write_prep_config(tmp_path, data_paths):
    lines = [TINY_MODEL_KEYS]
    for i, path in enumerate(data_paths, start=1):
        lines.append(f"data{i}.path = {path}")
        lines.append(f"data{i}.text_columns = title,text")
        lines.append(f"data{i}.label_column = label")
        lines.append(f"data{i}.label_mapping = REAL:0,FAKE:1")
        lines.append(f"data{i}.name = ds{i}")
    config = tmp_path / "prep.cfg"
    config.write_text("\n".join(lines) + "\n")
    return config


def run_prep(tmp_path):
    data_paths = write_datasets(tmp_path)
    config = write_prep_config(tmp_path, data_paths)
    out = tmp_path / "prep_out"
    assert main(["prep", "--config", str(config), "--out", str(out)]) == 0
    return config, out


class TestConfigPlumbing:
    def test_parse_config_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\ntrain.epochs = 3\n\n"
                     "data1.name=value with = sign\n")
        config = parse_config_file(p)
        assert config == {"train.epochs": "3",
                          "data1.name": "value with = sign"}

    def test_parse_bad_line(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("not a pair\n")
        with pytest.raises(SchemaError, match="c.cfg:1: expected key=value"):
            parse_config_file(p)
        out = tmp_path / "out"
        assert main(["prep", "--config", str(p), "--out", str(out)]) == 2
        assert f"{p}:1: expected key=value" in capsys.readouterr().err
        assert not out.exists()

    # `train.best_mode` is retired: rollback is the only behaviour.
    @pytest.mark.parametrize("key", ["trian.lr", "train.learning_rate",
                                     "data1.colour", "model",
                                     "train.best_mode"])
    def test_unknown_key_exits_2_naming_file_line_and_key(self, key,
                                                          tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text(f"# comment\ntrain.seed = 1\n{key} = 5\n")
        with pytest.raises(SchemaError):
            parse_config_file(config)
        out = tmp_path / "out"
        assert main(["prep", "--config", str(config),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{config}:3" in err and repr(key) in err
        assert not out.exists()

    def test_flag_overrides_file(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("train.seed = 1\nprep.min_word_len = 3\n")
        args = cli.build_parser().parse_args([
            "prep", "--config", str(p), "--out", "o", "--seed", "9",
            "--preprocess", "off"])
        config = resolve_config(args)
        assert config["train.seed"] == "9"
        assert config["prep.min_word_len"] == "1"

    def test_sha256_file(self, tmp_path):
        p = tmp_path / "x"
        p.write_bytes(b"abc")
        assert sha256_file(p) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


class TestEncodedIO:
    def test_roundtrip(self, tmp_path, toy_split):
        split_data, vocab = toy_split
        path = tmp_path / "d.npz"
        save_encoded(split_data.train, path, len(vocab))
        ds, meta = load_encoded(path)
        np.testing.assert_array_equal(ds.ids, split_data.train.ids)
        np.testing.assert_array_equal(ds.mask, split_data.train.mask)
        np.testing.assert_array_equal(ds.labels, split_data.train.labels)
        assert ds.vocab_hash == split_data.train.vocab_hash
        assert ds.max_seq_len == split_data.train.max_seq_len
        assert meta["vocab_size"] == len(vocab)


def _drop_last_label(a):
    a["labels"] = a["labels"][:-1]


def _drop_mask(a):
    del a["mask"]


def _float_ids(a):
    a["ids"] = a["ids"].astype(np.float32)


def _id_in_trailing_pad(a):
    """An out-of-range id where only PAD belongs, past the shortest row's
    real tokens: the length cut never embeds it."""
    row = int(np.argmin(a["true_lengths"]))
    assert a["true_lengths"][row] < a["ids"].shape[1]
    a["ids"][row, -1] = json.loads(str(a["meta"]))["vocab_size"]
    return row


def _negative_id(a):
    a["ids"][3, 1] = -1
    return 3


def _no_cls(a):
    a["ids"][2, 0] = 5
    return 2


def _mask_past_true_length(a):
    row = int(np.argmin(a["true_lengths"]))
    a["mask"][row, -1] = 1.0
    return row


def _true_length_zero(a):
    a["true_lengths"][4] = 0
    return 4


def _label_two(a):
    a["labels"][1] = 2
    return 1


CORRUPTIONS = {
    "short_labels": (_drop_last_label, "labels has shape"),
    "no_mask": (_drop_mask, "not an encoded split"),
    "float_ids": (_float_ids, "ids has dtype float32"),
    "id_in_trailing_pad": (_id_in_trailing_pad, "token id outside"),
    "negative_id": (_negative_id, "token id outside"),
    "no_cls": (_no_cls, "column 0 is not CLS"),
    "mask_past_true_length": (_mask_past_true_length,
                              "mask disagrees with true_lengths"),
    "true_length_zero": (_true_length_zero,
                         "mask disagrees with true_lengths"),
    "label_two": (_label_two, "label is not 0 or 1"),
}


class TestStrictEncodedInput:
    @pytest.fixture(scope="class")
    def prepped(self, tmp_path_factory):
        return run_prep(tmp_path_factory.mktemp("strict"))

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_corrupt_file_exits_2_naming_file_and_row(self, kind, prepped,
                                                      tmp_path, capsys):
        config, prep_out = prepped
        with np.load(prep_out / "ds1.test.npz") as data:
            arrays = {name: data[name].copy() for name in data.files}
        corrupt, message = CORRUPTIONS[kind]
        row = corrupt(arrays)
        bad = tmp_path / "bad.npz"
        np.savez(bad, **arrays)
        self._assert_rejected(config, prep_out, bad, tmp_path, capsys,
                              message, row)

    @pytest.mark.parametrize("content", [b"", b"not a zip archive"])
    def test_file_that_is_not_an_npz_exits_2(self, content, prepped,
                                              tmp_path, capsys):
        config, prep_out = prepped
        bad = tmp_path / "bad.npz"
        bad.write_bytes(content)
        self._assert_rejected(config, prep_out, bad, tmp_path, capsys,
                              "not an encoded split", None)

    @staticmethod
    def _assert_rejected(config, prep_out, bad, tmp_path, capsys, message,
                         row):
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(
            config.read_text()
            + f"data.train = {prep_out / 'ds1.train.npz'}\n"
            + f"data.test = {bad}\n")
        assert main(["train", "--config", str(train_cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and message in err
        if row is not None:
            assert f"row {row}:" in err


class TestStrictConfigValues:
    @pytest.fixture(scope="class")
    def prepped(self, tmp_path_factory):
        return run_prep(tmp_path_factory.mktemp("strict_config"))

    @pytest.mark.parametrize("key, value", [
        ("train.epochs", "three"),
        ("train.lr", "fast"),
        ("train.freeze_encoder", "maybe"),
        ("model.block_subset", "1,x"),
        ("train.lr", "nan"),
        ("train.lr", "inf"),
        ("train.clip", "nan"),
        ("train.clip", "inf"),
        ("ablate.subsets", "1,x"),
    ])
    def test_bad_value_exits_2_naming_key_and_value(self, key, value,
                                                     prepped, tmp_path,
                                                     capsys):
        assert self._train(prepped, tmp_path, key, value) == 2
        err = capsys.readouterr().err
        assert key in err and repr(value) in err
        assert not (tmp_path / "out" / "checkpoint.ufnd").exists()

    @staticmethod
    def _train(prepped, tmp_path, key, value):
        """`ufnd train` on ds1 with `key = value` added to the config."""
        config, prep_out = prepped
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(
            config.read_text()
            + f"data.train = {prep_out / 'ds1.train.npz'}\n"
            + f"data.test = {prep_out / 'ds1.test.npz'}\n"
            + f"{key} = {value}\n")
        return main(["train", "--config", str(train_cfg),
                     "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("value", ["REAL0,FAKE:1", "REAL:x",
                                       "REAL:0,FAKE:7"])
    def test_bad_label_mapping_exits_2(self, value, tmp_path, capsys):
        config = write_prep_config(tmp_path, write_datasets(tmp_path))
        config.write_text(config.read_text().replace(
            "data2.label_mapping = REAL:0,FAKE:1",
            f"data2.label_mapping = {value}"))
        assert main(["prep", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "data2.label_mapping" in err and repr(value) in err

    @pytest.mark.parametrize("key, value, message", [
        ("train.batch_size", "1", "batch_size must be >= 2"),
        ("model.n_heads", "3", "not divisible by n_heads 3"),
    ])
    def test_value_its_config_class_rejects_exits_2(self, key, value,
                                                    message, prepped,
                                                    tmp_path, capsys):
        assert self._train(prepped, tmp_path, key, value) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.ufnd").exists()

    def test_split_ratio_outside_the_unit_interval_exits_2(self, tmp_path,
                                                            capsys):
        config = write_prep_config(tmp_path, write_datasets(tmp_path))
        config.write_text(config.read_text() + "split.ratio = 1.5\n")
        out = tmp_path / "out"
        assert main(["prep", "--config", str(config),
                     "--out", str(out)]) == 2
        assert "config key split.ratio" in capsys.readouterr().err
        assert not (out / "vocab.txt").exists()

    def test_min_word_len_zero_exits_2(self, tmp_path, capsys):
        config = write_prep_config(tmp_path, write_datasets(tmp_path))
        config.write_text(config.read_text() + "prep.min_word_len = 0\n")
        out = tmp_path / "out"
        assert main(["prep", "--config", str(config),
                     "--out", str(out)]) == 2
        assert "min_word_len must be >= 1" in capsys.readouterr().err
        assert not (out / "vocab.txt").exists()

    @pytest.mark.parametrize("value, expected", [
        ("YES", True), ("on", True), ("1", True),
        ("No", False), ("off", False), ("0", False)])
    def test_bool_words(self, value, expected):
        parse, _ = KEYS["train.freeze_encoder"]
        assert parse(value) is expected


class TestRequiredKeys:
    @pytest.fixture(scope="class")
    def prepped(self, tmp_path_factory):
        return run_prep(tmp_path_factory.mktemp("required"))

    @pytest.mark.parametrize("key", ["data1.text_columns",
                                     "data1.label_column",
                                     "data1.label_mapping"])
    def test_missing_dataset_key_exits_2(self, key, tmp_path, capsys):
        config = write_prep_config(tmp_path, write_datasets(tmp_path))
        config.write_text("".join(
            line for line in config.read_text().splitlines(keepends=True)
            if not line.startswith(key)))
        assert main(["prep", "--config", str(config),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"config key {key} is required" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("train", "data.train"), ("train", "data.test"),
        ("unify", "dataset1.train"), ("unify", "baselines"),
        ("unify", "combined.train"), ("unify", "combined.test"),
        ("ablate", "combined.train"), ("ablate", "combined.test")])
    def test_missing_key_exits_2(self, command, key, prepped, tmp_path,
                                 capsys):
        config, prep_out = prepped
        paths = {
            "data.train": prep_out / "ds1.train.npz",
            "data.test": prep_out / "ds1.test.npz",
            "dataset1.train": prep_out / "ds1.train.npz",
            "dataset1.test": prep_out / "ds1.test.npz",
            "baselines": tmp_path / "baselines.tsv",
            "combined.train": prep_out / "combined.train.npz",
            "combined.test": prep_out / "combined.test.npz",
        }
        (tmp_path / "baselines.tsv").write_text("dataset1\t0.5\tfloor\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(config.read_text() + "".join(
            f"{k} = {v}\n" for k, v in paths.items() if k != key))
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"config key {key} is required" in capsys.readouterr().err
        # nothing trained, so no table was written
        assert not list(tmp_path.glob("out/table_*"))

    @pytest.mark.parametrize("command, key, value, named", [
        ("unify", "unify.batch_sizes", "8,1", "value 1:"),
        ("unify", "unify.batch_sizes", "", "lists no values"),
        ("ablate", "ablate.batch_sizes", "8,1", "value 1:"),
        ("ablate", "ablate.batch_sizes", "", "lists no values"),
        ("ablate", "ablate.subsets", "1;3", "value (3,):"),
        ("ablate", "ablate.subsets", "", "value ():"),
    ])
    def test_bad_cell_value_exits_2_before_any_cell_trains(
            self, command, key, value, named, prepped, tmp_path, capsys):
        config, prep_out = prepped
        (tmp_path / "baselines.tsv").write_text("dataset1\t0.5\tfloor\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            config.read_text()
            + f"dataset1.train = {prep_out / 'ds1.train.npz'}\n"
            + f"dataset1.test = {prep_out / 'ds1.test.npz'}\n"
            + f"combined.train = {prep_out / 'combined.train.npz'}\n"
            + f"combined.test = {prep_out / 'combined.test.npz'}\n"
            + f"baselines = {tmp_path / 'baselines.tsv'}\n"
            + "ablate.subsets = 1\n"  # the default reaches block 11
            + f"{key} = {value}\n")
        assert main([command, "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"config key {key}" in err and named in err
        assert not list(tmp_path.glob("out/table_*"))


class TestBadUnifyInputs:
    """Bad `unify` input exits 2, naming the file and line or the key,
    before phase 1 starts."""

    @pytest.fixture(scope="class")
    def prepped(self, tmp_path_factory):
        return run_prep(tmp_path_factory.mktemp("bad_unify"))

    @staticmethod
    def _unify(prepped, tmp_path, monkeypatch, baselines, keys="",
               flags=()):
        def no_phase_one(*args, **kwargs):
            raise AssertionError("phase 1 started")

        monkeypatch.setattr(cli, "phase_one", no_phase_one)
        config, prep_out = prepped
        cfg = write_unify_config(tmp_path, config.read_text(), prep_out,
                                 0.5, keys)
        (tmp_path / "baselines.tsv").write_text(baselines)
        return main(["unify", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), *flags])

    @pytest.mark.parametrize("line", ["ds2\tabc\tfloor", "ds2",
                                      "ds2\t97\tfloor", "ds2\tnan",
                                      "ds2\tinf", "ds2\t0\tfloor"])
    def test_bad_baseline_line_exits_2_naming_file_and_line(
            self, line, prepped, tmp_path, monkeypatch, capsys):
        assert self._unify(prepped, tmp_path, monkeypatch,
                           f"# id\taccuracy\n\nds1\t0.5\n{line}\n") == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'baselines.tsv'}:4:" in err and repr(line) in err

    def test_repeated_baseline_id_exits_2_naming_file_and_both_lines(
            self, prepped, tmp_path, monkeypatch, capsys):
        assert self._unify(prepped, tmp_path, monkeypatch,
                           "ds1\t0.5\nds2\t0.5\nds1\t0.7\n") == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'baselines.tsv'}:3: dataset id 'ds1' repeats " \
            "line 1" in err

    def test_dataset_without_a_baseline_exits_2_naming_file_and_dataset(
            self, prepped, tmp_path, monkeypatch, capsys):
        assert self._unify(prepped, tmp_path, monkeypatch,
                           "ds1\t0.5\tfloor\n") == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "baselines.tsv") in err
        assert "no baseline for dataset 'ds2' (dataset2" in err

    @pytest.mark.parametrize("keys, flags", [
        ("unify.threshold = 0\n", ()),
        ("unify.threshold = -0.1\n", ()),
        ("", ("--threshold", "0")),
    ])
    def test_threshold_not_above_zero_exits_2_naming_the_key(
            self, keys, flags, prepped, tmp_path, monkeypatch, capsys):
        assert self._unify(prepped, tmp_path, monkeypatch,
                           "ds1\t0.5\nds2\t0.5\n", keys, flags) == 2
        assert "config key unify.threshold" in capsys.readouterr().err


# The keys that a command reads by name rather than through `_given`, each
# with the function that reads it.
READ_BY_NAME = {"split.ratio": cli.cmd_prep,
                "train.dropout_rate": cli._configs,
                "unify.threshold": cli.cmd_unify,
                "unify.batch_sizes": cli.cmd_unify,
                "ablate.subsets": cli.cmd_ablate}
# What `_given` hands the keys of each prefix to.
FED_BY_PREFIX = {"prep": (PrepConfig,), "train": (TrainConfig,),
                 "model": (EncoderConfig, HeadConfig),
                 "vocab": (build_vocab,), "data": (load_dataset,),
                 "ablate": (AblationGrid,)}


def test_every_config_key_feeds_a_setting():
    """A key that feeds nothing would be accepted and silently ignored,
    since `_given` skips names its target does not take."""
    assert set(READ_BY_NAME) <= set(KEYS)
    for key in KEYS:
        prefix, name = key.split(".", 1)
        if key in READ_BY_NAME:
            assert f'"{key}"' in inspect.getsource(READ_BY_NAME[key]), key
        else:
            assert any(name in inspect.signature(target).parameters
                       for target in FED_BY_PREFIX.get(prefix, ())), \
                f"config key {key} feeds no setting"


class Seen(Exception):
    """Raised by a stand-in to stop a command once it has its configs."""


# The flags each command takes besides `--config` and `--out`, 28
# (command, flag) pairs in all, and for each override flag a value that
# differs from its key's value in `TestFlags`'s config.
TAKEN = {"prep": ("--seed", "--max-seq-len", "--preprocess"),
         "train": ("--seed", "--batch-size", "--epochs", "--blocks",
                   "--freeze-encoder"),
         "unify": ("--seed", "--epochs", "--blocks", "--freeze-encoder",
                   "--threshold"),
         "ablate": ("--seed", "--epochs", "--freeze-encoder"),
         "eval": ("--checkpoint", "--data")}
FLAG_VALUES = {"--seed": "5", "--batch-size": "4", "--epochs": "1",
               "--max-seq-len": "10", "--preprocess": "off",
               "--blocks": "1", "--freeze-encoder": "on",
               "--threshold": "0.5"}


class TestFlags:
    @pytest.fixture(scope="class")
    def config(self, tmp_path_factory):
        """A config that every command but `eval` runs from."""
        tmp_path = tmp_path_factory.mktemp("flags")
        config, prep_out = run_prep(tmp_path)
        (tmp_path / "baselines.tsv").write_text("dataset1\t0.5\tfloor\n")
        path = tmp_path / "all.cfg"
        path.write_text(config.read_text() + "".join(
            f"{key} = {prep_out / name}\n" for key, name in (
                ("data.train", "ds1.train.npz"),
                ("data.test", "ds1.test.npz"),
                ("dataset1.train", "ds1.train.npz"),
                ("dataset1.test", "ds1.test.npz"),
                ("combined.train", "combined.train.npz"),
                ("combined.test", "combined.test.npz")))
            + f"baselines = {tmp_path / 'baselines.tsv'}\n"
            + "ablate.subsets = 1,2;2\n")
        return path

    @staticmethod
    def _handed_on(command, config, out, monkeypatch, flags=()):
        """What `command` run with `flags` hands to the library: the split
        seeds and the prep config, or the model and training configs with
        the threshold or the grid."""
        seen = []

        def stop(*values):
            seen.extend(values)
            raise Seen

        def split_indices(n, ratio, seed, split=cli.split_indices):
            seen.append(seed)
            return split(n, ratio, seed)

        monkeypatch.setattr(cli, "split_indices", split_indices)
        monkeypatch.setattr(cli, "tokenize_corpus",
                            lambda corpus, prep: stop(prep))
        monkeypatch.setattr(cli, "train",
                            lambda model, train_ds, val_ds, cfg:
                            stop(model.config, cfg))
        monkeypatch.setattr(cli, "phase_one",
                            lambda datasets, mc, tc, baselines, threshold,
                            batch_sizes: stop(mc, tc, threshold))
        monkeypatch.setattr(cli, "ablate",
                            lambda combined, mc, tc, grid: stop(mc, tc, grid))
        with pytest.raises(Seen):
            main([command, "--config", str(config), "--out", str(out),
                  *flags])
        return seen

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, flags in TAKEN.items()
        for flag in flags if flag in FLAG_VALUES])
    def test_each_flag_feeds_a_setting_the_command_reads(
            self, command, flag, config, tmp_path, monkeypatch):
        """The flag counterpart of `test_every_config_key_feeds_a_setting`:
        the flag changes what the command hands on."""
        assert self._handed_on(command, config, tmp_path / "with",
                               monkeypatch, (flag, FLAG_VALUES[flag])) != \
            self._handed_on(command, config, tmp_path / "without",
                            monkeypatch)

    @pytest.mark.parametrize("command", TAKEN)
    def test_a_flag_the_command_does_not_take_exits_2(self, command,
                                                       capsys):
        assert sum(2 + len(flags) for flags in TAKEN.values()) == 28
        required = ["--out", "o"]
        if command == "eval":
            required += ["--checkpoint", "c", "--data", "d"]
        for flag in [*FLAG_VALUES, "--checkpoint", "--data"]:
            argv = [command, *required, flag, FLAG_VALUES.get(flag, "x")]
            if flag in TAKEN[command]:
                cli.build_parser().parse_args(argv)
                continue
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 2, flag
            assert f"unrecognized arguments: {flag}" in \
                capsys.readouterr().err

    def test_eval_epochs_and_ablate_blocks_exit_2(self, config, tmp_path,
                                                  capsys):
        for argv in (["eval", "--checkpoint", "c", "--data", "d",
                      "--epochs", "5"],
                     ["ablate", "--config", str(config), "--blocks", "1,9"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--out", str(tmp_path / "out")])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestConfigsHandedOn:
    @pytest.fixture(scope="class")
    def prepped(self, tmp_path_factory):
        return run_prep(tmp_path_factory.mktemp("handed_on"))

    @staticmethod
    def _seen(prep_out, tmp_path, monkeypatch, keys=""):
        """What `ablate` and `unify` hand to the library under `keys`."""
        seen = {}

        def fake_ablate(combined, mc, tc, grid):
            seen["ablate"] = (mc, tc, grid)
            raise Seen

        def fake_phase_one(datasets, model_cfg, train_cfg, baselines,
                           threshold, batch_sizes):
            seen["unify"] = ((model_cfg, train_cfg), batch_sizes)
            raise Seen

        monkeypatch.setattr(cli, "ablate", fake_ablate)
        monkeypatch.setattr(cli, "phase_one", fake_phase_one)
        (tmp_path / "baselines.tsv").write_text("dataset1\t0.5\tfloor\n")
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            f"combined.train = {prep_out / 'combined.train.npz'}\n"
            f"combined.test = {prep_out / 'combined.test.npz'}\n"
            f"dataset1.train = {prep_out / 'ds1.train.npz'}\n"
            f"dataset1.test = {prep_out / 'ds1.test.npz'}\n"
            f"baselines = {tmp_path / 'baselines.tsv'}\n" + keys)
        for command in ("ablate", "unify"):
            with pytest.raises(Seen):
                main([command, "--config", str(cfg),
                      "--out", str(tmp_path / command)])
        return seen

    def test_no_keys_give_the_library_defaults(self, prepped, tmp_path,
                                               monkeypatch):
        _, prep_out = prepped
        meta = load_encoded(prep_out / "combined.train.npz")[1]
        model_cfg = desk_config(meta["vocab_size"], meta["max_seq_len"])
        train_cfg = TrainConfig(seed=cli.CLI_DEFAULTS["train.seed"])
        seen = self._seen(prep_out, tmp_path, monkeypatch)
        assert seen["ablate"] == (model_cfg, train_cfg, AblationGrid())
        assert seen["unify"] == ((model_cfg, train_cfg),
                                 DEFAULT_BATCH_SIZES)

    def test_set_keys_reach_the_configs(self, prepped, tmp_path,
                                        monkeypatch):
        _, prep_out = prepped
        seen = self._seen(prep_out, tmp_path, monkeypatch,
                          "model.n_blocks_total = 4\n"
                          "train.dropout_rate = 0.3\ntrain.lr = 0.01\n"
                          "ablate.subsets = 1,3;2\nunify.batch_sizes = 8\n")
        model_cfg, train_cfg, grid = seen["ablate"]
        assert model_cfg.encoder.block_subset == (1, 2, 3, 4)
        assert model_cfg.encoder.dropout_rate == 0.3
        assert train_cfg.lr == 0.01
        assert grid == AblationGrid(block_subsets=((1, 3), (2,)))
        assert seen["unify"] == ((model_cfg, train_cfg), (8,))


class TestPrepCommand:
    def test_artifacts_and_manifest(self, tmp_path):
        _, out = run_prep(tmp_path)
        for name in ("vocab.txt", "load_report.txt", "length_stats.txt",
                     "ds1.train.npz", "ds1.test.npz", "ds2.train.npz",
                     "ds2.test.npz", "combined.train.npz",
                     "combined.test.npz", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "prep"
        assert len(manifest["inputs"]) == 2
        for digest in manifest["inputs"].values():
            assert len(digest) == 64
        train_ds, meta = load_encoded(out / "ds1.train.npz")
        assert len(train_ds) == 48  # floor(0.8 * 60)
        assert meta["max_seq_len"] == 12

    def test_preprocess_off_flag(self, tmp_path):
        data_paths = write_datasets(tmp_path)
        config = write_prep_config(tmp_path, data_paths)
        out = tmp_path / "noprep_out"
        assert main(["prep", "--config", str(config), "--out", str(out),
                     "--preprocess", "off"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["prep.min_word_len"] == "1"

    @pytest.mark.parametrize("extra", [
        "", "prep.min_word_len = 1\nprep.lowercase = off\n"
            "prep.strip_nonalnum = off\n"])
    def test_outputs_equal_the_per_split_composition(self, extra, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text(_edge_case_config(tmp_path) + extra)
        out = tmp_path / "out"
        assert main(["prep", "--config", str(config), "--out", str(out)]) == 0
        settings = cli.parse_settings(parse_config_file(config))
        prep = PrepConfig(**cli._given(settings, "prep.", PrepConfig))
        ratio, seed = settings["split.ratio"], settings["train.seed"]
        corpora = {name: load_dataset(tmp_path / f"{name}.csv", _COLUMNS,
                                      name)[0] for name in EDGE_CASE_ROWS}
        corpora["combined"] = combine(list(corpora.values()))
        token_to_id = _old_vocab(corpora["combined"], prep,
                                 settings["vocab.max_size"])

        assert (out / "vocab.txt").read_text().splitlines()[1:] == \
            list(token_to_id)[len(SPECIAL_TOKENS):]
        assert (out / "length_stats.txt").read_text() == \
            _old_length_stats(corpora["combined"], prep)
        for name, corpus in corpora.items():
            for part, rows in zip(("train", "test"),
                                  split_indices(len(corpus), ratio, seed)):
                docs = [corpus[i] for i in rows]
                want = _old_encode(docs, token_to_id, prep)
                with np.load(out / f"{name}.{part}.npz") as got:
                    for key, array in want.items():
                        assert got[key].dtype == array.dtype, (name, key)
                        np.testing.assert_array_equal(got[key], array)
        assert UNK_ID in np.load(out / "combined.train.npz")["ids"]

    @pytest.mark.parametrize("rows, ratio, part, n", [
        ([("a", "alpha beta gamma", "REAL")] * 3, 0.2, "train", 3),
        ([("", "", "REAL"), ("a", "alpha beta", "FAKE"), ("", "", "REAL")],
         0.8, "train", 1)])
    def test_empty_split_exits_2_before_any_file(self, rows, ratio, part, n,
                                                 tmp_path, capsys):
        data = write_datasets(tmp_path, n=(20,))[0]
        small = tmp_path / "small.csv"
        _write_rows(small, rows)
        config = tmp_path / "c.cfg"
        config.write_text(
            write_prep_config(tmp_path, [data, small]).read_text()
            + f"split.ratio = {ratio}\n")
        out = tmp_path / "out"
        assert main(["prep", "--config", str(config),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        for named in ("dataset ds2", f"data2.path = {small}",
                      f"split.ratio = {ratio}", f"{part} part",
                      f"{n} usable rows"):
            assert named in err
        assert not list(out.glob("*.npz"))
        assert not (out / "vocab.txt").exists()

    @pytest.mark.parametrize("old, new, named", [
        ("data2.name = ds2", "data2.name = ds1",
         ("config key data1.name", "config key data2.name", "'ds1'")),
        ("data1.name = ds1", "data1.name = combined",
         ("config key data1.name", "'combined'", "the combined split"))])
    def test_repeated_dataset_name_exits_2_before_any_file(
            self, old, new, named, tmp_path, capsys):
        config = write_prep_config(tmp_path, write_datasets(tmp_path))
        config.write_text(config.read_text().replace(old, new))
        out = tmp_path / "out"
        assert main(["prep", "--config", str(config),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        for name in named:
            assert name in err
        assert not list(out.glob("*.npz"))
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("name", ["sub/ds", "..", ".", "a\\b", ""])
    def test_dataset_name_that_is_no_file_stem_exits_2_before_any_file(
            self, name, tmp_path, capsys):
        config = write_prep_config(tmp_path, write_datasets(tmp_path))
        config.write_text(config.read_text().replace(
            "data1.name = ds1", f"data1.name = {name}"))
        out = tmp_path / "out"
        assert main(["prep", "--config", str(config),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config key data1.name" in err and repr(name) in err
        assert not out.exists() or not list(out.rglob("*"))

    def test_missing_data_key_fails(self, tmp_path, capsys):
        config = tmp_path / "c.cfg"
        config.write_text("train.seed = 1\n")
        out = tmp_path / "out"
        assert main(["prep", "--config", str(config),
                     "--out", str(out)]) == 2
        assert "config key data1.path is required" in capsys.readouterr().err


# Mixed case and punctuation runs, documents past max_seq_len, documents
# with no kept token, non-ASCII text, blank rows, frequency ties and more
# words than vocab.max_size.
EDGE_CASE_ROWS = {
    "ds1": [("BREAKING!!! Moon--landing...", "HoAx?! the MEDIA lied;;; "
             "again", "FAKE"),
            ("", "it is a an of to", "REAL"),
            ("Long", "alpha bravo charlie delta echo foxtrot golf hotel "
             "india juliet kilo lima", "REAL"),
            ("ties", "tie tie aaa aaa bbb bbb zzz zzz", "FAKE"),
            ("\u0130stanbul \u212aelvin", "STRASSE stra\u00dfe "
             "\u03a3\u038a\u03a3\u03a5\u03a6\u039f\u03a3 na\u00efve", "REAL"),
            ("words", "zeta omega sigma kappa theta media", "FAKE")],
    "ds2": [("Hoax", "media hoax MEDIA hoax moon", "FAKE"),
            ("", "", "REAL"),
            ("x", "y z", "REAL"),
            ("Tabs\tand\x0bvt", "new\nlines\x1cand\x1dseparators", "FAKE"),
            ("many", "one two three four five six seven eight nine ten "
             "eleven twelve", "REAL"),
            ("last", "tie bbb aaa zzz", "FAKE")],
}
_COLUMNS = ColumnMap(("title", "text"), "label", {"REAL": 0, "FAKE": 1})
_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")


def _write_rows(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["title", "text", "label"])
        writer.writerows(rows)


def _edge_case_config(tmp_path) -> str:
    lines = ["prep.max_seq_len = 8", "vocab.max_size = 12",
             "train.seed = 5"]
    for i, (name, rows) in enumerate(EDGE_CASE_ROWS.items(), start=1):
        _write_rows(tmp_path / f"{name}.csv", rows)
        lines += [f"data{i}.path = {tmp_path / f'{name}.csv'}",
                  f"data{i}.name = {name}",
                  f"data{i}.text_columns = title,text",
                  f"data{i}.label_column = label",
                  f"data{i}.label_mapping = REAL:0,FAKE:1"]
    return "\n".join(lines) + "\n"


# The per-split composition `prep` ran before it tokenised each document
# once: a regex normaliser, a Counter vocabulary, and one encoded row per
# document of each split.
def _old_tokens(text, prep):
    if prep.lowercase:
        text = text.lower()
    if prep.strip_nonalnum:
        text = _NON_ALNUM.sub(" ", text)
    raw = text.split()
    return raw, [t for t in raw if len(t) >= prep.min_word_len]


def _old_vocab(corpus, prep, max_size) -> dict[str, int]:
    counts = Counter()
    for doc in corpus:
        counts.update(_old_tokens(doc.text, prep)[1])
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    tokens = list(SPECIAL_TOKENS) + [tok for tok, _ in ranked[:max_size]]
    return {tok: i for i, tok in enumerate(tokens)}


def _old_encode(corpus, token_to_id, prep) -> dict[str, np.ndarray]:
    width = prep.max_seq_len
    ids = np.full((len(corpus), width), PAD_ID, dtype=np.int32)
    mask = np.zeros((len(corpus), width), dtype=np.float32)
    true_lengths = []
    for row, doc in enumerate(corpus):
        kept = _old_tokens(doc.text, prep)[1][:width - 1]
        ids[row, 0] = CLS_ID
        ids[row, 1:1 + len(kept)] = [token_to_id.get(t, UNK_ID) for t in kept]
        mask[row, :1 + len(kept)] = 1.0
        true_lengths.append(1 + len(kept))
    return {"ids": ids, "mask": mask,
            "labels": np.array([d.label for d in corpus], dtype=np.int64),
            "true_lengths": np.array(true_lengths, dtype=np.int64)}


def _old_length_stats(corpus, prep) -> str:
    text = (f"# short-word rule: drop tokens shorter than "
            f"{prep.min_word_len} characters\n")
    counts = [_old_tokens(doc.text, prep) for doc in corpus]
    for mode, pick in (("without_removal", 0), ("with_removal", 1)):
        arr = np.asarray([len(c[pick]) for c in counts], dtype=np.float64)
        text += (f"{mode}\tmean={float(arr.mean()):.2f}\t"
                 f"max={int(arr.max())}\t"
                 f"p95={float(np.percentile(arr, 95)):.1f}\n")
    return text


class TestTrainEvalCommands:
    def test_train_then_eval(self, tmp_path, capsys):
        config, prep_out = run_prep(tmp_path)
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(
            config.read_text()
            + f"data.train = {prep_out / 'ds1.train.npz'}\n"
            + f"data.test = {prep_out / 'ds1.test.npz'}\n")
        train_out = tmp_path / "train_out"
        assert main(["train", "--config", str(train_cfg),
                     "--out", str(train_out)]) == 0
        assert (train_out / "checkpoint.ufnd").exists()
        report = (train_out / "train_report.txt").read_text()
        assert "best_val_accuracy" in report
        assert "numpy-PCG64" in report

        eval_out = tmp_path / "eval_out"
        assert main(["eval", "--out", str(eval_out),
                     "--checkpoint", str(train_out / "checkpoint.ufnd"),
                     "--data", str(prep_out / "ds1.test.npz")]) == 0
        metrics = (eval_out / "metrics.txt").read_text()
        assert metrics.startswith("# positive class = fake (label 1)")
        assert "confusion\ttp=" in metrics

    def test_eval_rejects_wrong_seq_len(self, tmp_path):
        config, prep_out = run_prep(tmp_path)
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(
            config.read_text()
            + f"data.train = {prep_out / 'ds1.train.npz'}\n"
            + f"data.test = {prep_out / 'ds1.test.npz'}\n")
        train_out = tmp_path / "train_out"
        assert main(["train", "--config", str(train_cfg),
                     "--out", str(train_out)]) == 0

        other = tmp_path / "other_prep"
        assert main(["prep", "--config", str(config), "--out", str(other),
                     "--max-seq-len", "10"]) == 0
        assert main(["eval", "--out", str(tmp_path / "e"),
                     "--checkpoint", str(train_out / "checkpoint.ufnd"),
                     "--data", str(other / "ds1.test.npz")]) == 1

    def test_eval_rejects_corrupted_checkpoint(self, tmp_path):
        config, prep_out = run_prep(tmp_path)
        bad = tmp_path / "bad.ufnd"
        bad.write_bytes(b"UFNDgarbage")
        assert main(["eval", "--out", str(tmp_path / "e"),
                     "--checkpoint", str(bad),
                     "--data", str(prep_out / "ds1.test.npz")]) == 1


class TestInputFiles:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        """The prep config and output, and a checkpoint trained on ds1."""
        tmp_path = tmp_path_factory.mktemp("inputs")
        config, prep_out = run_prep(tmp_path)
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(
            config.read_text()
            + f"data.train = {prep_out / 'ds1.train.npz'}\n"
            + f"data.test = {prep_out / 'ds1.test.npz'}\n")
        assert main(["train", "--config", str(train_cfg),
                     "--out", str(tmp_path / "train_out")]) == 0
        return config, prep_out, tmp_path / "train_out" / "checkpoint.ufnd"

    @staticmethod
    def _train(config, train_path, test_path, tmp_path):
        train_cfg = tmp_path / "train.cfg"
        train_cfg.write_text(config.read_text()
                             + f"data.train = {train_path}\n"
                             + f"data.test = {test_path}\n")
        return main(["train", "--config", str(train_cfg),
                     "--out", str(tmp_path / "out")])

    @staticmethod
    def _eval(checkpoint, data, tmp_path):
        return main(["eval", "--out", str(tmp_path / "out"),
                     "--checkpoint", str(checkpoint), "--data", str(data)])

    @staticmethod
    def _no_rows(prep_out, tmp_path):
        """ds1's test split with every row taken out."""
        with np.load(prep_out / "ds1.test.npz") as data:
            arrays = {name: data[name] if name == "meta" else data[name][:0]
                      for name in data.files}
        path = tmp_path / "empty.npz"
        np.savez(path, **arrays)
        return path

    def test_train_with_a_missing_split_exits_2_naming_key_and_path(
            self, trained, tmp_path, capsys):
        config, prep_out, _ = trained
        missing = tmp_path / "nope.npz"
        assert self._train(config, missing, prep_out / "ds1.test.npz",
                           tmp_path) == 2
        err = capsys.readouterr().err
        assert "config key data.train" in err and str(missing) in err
        assert not (tmp_path / "out" / "checkpoint.ufnd").exists()

    @pytest.mark.parametrize("flag", ["--checkpoint", "--data"])
    def test_eval_with_a_missing_file_exits_2_naming_flag_and_path(
            self, flag, trained, tmp_path, capsys):
        _, prep_out, checkpoint = trained
        missing = tmp_path / "nope"
        files = {"--checkpoint": checkpoint,
                 "--data": prep_out / "ds1.test.npz", flag: missing}
        assert self._eval(files["--checkpoint"], files["--data"],
                          tmp_path) == 2
        err = capsys.readouterr().err
        assert f"{flag}: cannot read" in err and str(missing) in err
        assert not (tmp_path / "out" / "metrics.txt").exists()

    def test_train_on_a_split_with_no_rows_exits_2_naming_it(
            self, trained, tmp_path, capsys):
        config, prep_out, _ = trained
        empty = self._no_rows(prep_out, tmp_path)
        assert self._train(config, empty, prep_out / "ds1.test.npz",
                           tmp_path) == 2
        assert f"{empty}: holds no rows" in capsys.readouterr().err

    def test_eval_on_a_split_with_no_rows_exits_2_naming_it(
            self, trained, tmp_path, capsys):
        _, prep_out, checkpoint = trained
        empty = self._no_rows(prep_out, tmp_path)
        assert self._eval(checkpoint, empty, tmp_path) == 2
        assert f"{empty}: holds no rows" in capsys.readouterr().err

    def test_checkpoint_from_before_best_mode_was_retired_evaluates(
            self, trained, tmp_path):
        """Either old `best_mode` gives the metrics of today's format,
        which holds no `model/` copy of the weights."""
        _, prep_out, checkpoint = trained
        data = prep_out / "ds1.test.npz"
        assert self._eval(checkpoint, data, tmp_path / "new") == 0
        expected = (tmp_path / "new" / "out" / "metrics.txt").read_text()
        for mode in ("rollback", "select"):
            old = tmp_path / f"{mode}.ufnd"
            save_checkpoint(legacy_checkpoint(load_checkpoint(checkpoint),
                                              mode), old)
            assert self._eval(old, data, tmp_path / mode) == 0
            assert (tmp_path / mode / "out" / "metrics.txt").read_text() \
                == expected

    def test_header_with_the_retired_head_keys_evaluates_as_a_new_one(
            self, trained, tmp_path, capsys):
        """A header whose head config holds all seven old keys (and whose
        rng state has a `shuffle` stream) gives today's metrics; one whose
        `bn_eps` is not the model's is refused, naming the key."""
        _, prep_out, checkpoint = trained
        data = prep_out / "ds1.test.npz"
        assert self._eval(checkpoint, data, tmp_path / "new") == 0
        old, other = tmp_path / "old.ufnd", tmp_path / "other.ufnd"
        save_checkpoint(with_retired_head_keys(load_checkpoint(checkpoint)),
                        old)
        assert self._eval(old, data, tmp_path / "old") == 0
        assert (tmp_path / "old" / "out" / "metrics.txt").read_text() == \
            (tmp_path / "new" / "out" / "metrics.txt").read_text()
        save_checkpoint(with_retired_head_keys(load_checkpoint(checkpoint),
                                               bn_eps=1e-3), other)
        capsys.readouterr()
        assert self._eval(other, data, tmp_path / "other") == 1
        assert "checkpoint head bn_eps = 0.001" in capsys.readouterr().err
        assert not (tmp_path / "other" / "out" / "metrics.txt").exists()

    def test_checkpoint_with_the_removed_biases_evaluates_as_a_new_one(
            self, trained, tmp_path, monkeypatch):
        """A checkpoint written while every block had a key bias and head
        layers 1 and 2 had biases gives the same predictions, and
        log-probs within float32 rounding."""
        _, prep_out, checkpoint = trained
        data = prep_out / "ds1.test.npz"
        old = tmp_path / "old.ufnd"
        save_checkpoint(with_removed_biases(load_checkpoint(checkpoint)),
                        old)
        assert "best/head/l1/b" in load_checkpoint(old).tensors
        seen = []

        def recording(model, ds):
            with no_grad():
                log_probs = model.forward(ds.ids, ds.mask, "eval").data
            seen.append((predict_dataset(model, ds), log_probs))
            return seen[-1][0]

        monkeypatch.setattr(cli, "predict_dataset", recording)
        for name, path in (("new", checkpoint), ("old", old)):
            assert self._eval(path, data, tmp_path / name) == 0
        (new_preds, new_log_probs), (old_preds, old_log_probs) = seen
        np.testing.assert_array_equal(old_preds, new_preds)
        np.testing.assert_allclose(old_log_probs, new_log_probs, rtol=1e-5,
                                   atol=1e-6)
        assert (tmp_path / "old" / "out" / "metrics.txt").read_text() == \
            (tmp_path / "new" / "out" / "metrics.txt").read_text()


def write_unify_config(tmp_path, config_text, prep_out, baseline, keys):
    """A unify config over the ds1/ds2 split in `prep_out`, with both
    baselines at `baseline` and the extra `keys` lines."""
    baselines = tmp_path / "baselines.tsv"
    baselines.write_text(f"ds1\t{baseline}\tsynthetic floor\n"
                         f"ds2\t{baseline}\tsynthetic floor\n")
    unify_cfg = tmp_path / "unify.cfg"
    unify_cfg.write_text(
        config_text
        + f"dataset1.train = {prep_out / 'ds1.train.npz'}\n"
        + f"dataset1.test = {prep_out / 'ds1.test.npz'}\n"
        + "dataset1.name = ds1\n"
        + f"dataset2.train = {prep_out / 'ds2.train.npz'}\n"
        + f"dataset2.test = {prep_out / 'ds2.test.npz'}\n"
        + "dataset2.name = ds2\n"
        + f"combined.train = {prep_out / 'combined.train.npz'}\n"
        + f"combined.test = {prep_out / 'combined.test.npz'}\n"
        + f"baselines = {baselines}\n"
        + keys)
    return unify_cfg


class TestUnifyCommand:
    def test_end_to_end(self, tmp_path, capsys):
        config, prep_out = run_prep(tmp_path)
        unify_cfg = write_unify_config(
            tmp_path, config.read_text(), prep_out, 0.55,
            "unify.batch_sizes = 16,32\nunify.threshold = 0.45\n")
        out = tmp_path / "unify_out"
        assert main(["unify", "--config", str(unify_cfg),
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "phase 1 accepted" in captured.out
        per_dataset = (out / "table_per_dataset.tsv").read_text()
        assert "ds1 Accuracy" in per_dataset and "ds2 F1-score" in per_dataset
        # one row per batch size plus note and header
        assert len(per_dataset.strip().splitlines()) == 2 + 2
        assert (out / "table_combined_prep.tsv").exists()
        assert (out / "unified_checkpoint.ufnd").exists()
        assert (out / "phase_one.txt").read_text().startswith(
            "accepted\ttrue")
        load_checkpoint(out / "unified_checkpoint.ufnd")

    def test_eval_refuses_data_of_another_vocabulary(self, tmp_path,
                                                     capsys):
        """The unified checkpoint records the vocabulary it was trained
        on, so `eval` refuses a file encoded with another one, even one of
        the same size and tokens."""
        config, prep_out = run_prep(tmp_path)
        unify_cfg = write_unify_config(
            tmp_path, config.read_text(), prep_out, 0.5,
            "unify.batch_sizes = 16\nunify.threshold = 0.5\n")
        out = tmp_path / "unify_out"
        assert main(["unify", "--config", str(unify_cfg),
                     "--out", str(out)]) == 0
        checkpoint = out / "unified_checkpoint.ufnd"
        _, meta = load_encoded(prep_out / "combined.test.npz")
        assert load_checkpoint(checkpoint).config["vocab_hash"] == \
            meta["vocab_hash"]

        other = tmp_path / "other_prep"
        config.write_text(config.read_text().replace(
            "vocab.max_size = 200", "vocab.max_size = 300"))
        assert main(["prep", "--config", str(config),
                     "--out", str(other)]) == 0
        _, other_meta = load_encoded(other / "combined.test.npz")
        assert other_meta["vocab_size"] == meta["vocab_size"]
        assert other_meta["vocab_hash"] != meta["vocab_hash"]
        capsys.readouterr()
        assert main(["eval", "--out", str(tmp_path / "e"),
                     "--checkpoint", str(checkpoint),
                     "--data", str(other / "combined.test.npz")]) == 1
        assert "vocab hash" in capsys.readouterr().err

    def test_noprep_split_with_its_own_vocabulary(self, tmp_path):
        """The no-prep files keep 1-2 letter words, so their vocabulary is
        larger than the prep-on one that phase 1 trains on."""
        short = [a + b for a in "abcdefgh" for b in "aeiou"]
        data_paths = []
        for i in range(1, 4):
            rng = np.random.default_rng(i)
            corpus = make_synthetic_corpus(60, f"ds{i}", seed=300 + i)
            path = tmp_path / f"ds{i}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("title,text,label\n")
                for doc in corpus:
                    extra = " ".join(rng.choice(short, size=3))
                    fh.write(f"{extra},{doc.text},"
                             f"{'FAKE' if doc.label else 'REAL'}\n")
            data_paths.append(path)
        config = write_prep_config(tmp_path, data_paths)
        config.write_text(config.read_text().replace(
            "vocab.max_size = 200", "vocab.max_size = 1000"))
        prep_out, noprep_out = tmp_path / "prep", tmp_path / "noprep"
        assert main(["prep", "--config", str(config),
                     "--out", str(prep_out)]) == 0
        assert main(["prep", "--config", str(config), "--out",
                     str(noprep_out), "--preprocess", "off"]) == 0
        sizes = [load_encoded(out / "combined.train.npz")[1]["vocab_size"]
                 for out in (prep_out, noprep_out)]
        assert sizes[0] < sizes[1]

        baselines = tmp_path / "baselines.tsv"
        baselines.write_text("".join(f"ds{i}\t0.5\tfloor\n"
                                     for i in range(1, 4)))
        lines = [config.read_text()]
        for i in range(1, 4):
            lines += [f"dataset{i}.train = {prep_out / f'ds{i}.train.npz'}",
                      f"dataset{i}.test = {prep_out / f'ds{i}.test.npz'}",
                      f"dataset{i}.name = ds{i}"]
        for prefix, out in (("combined", prep_out),
                            ("combined_noprep", noprep_out)):
            lines += [f"{prefix}.train = {out / 'combined.train.npz'}",
                      f"{prefix}.test = {out / 'combined.test.npz'}"]
        lines += [f"baselines = {baselines}", "unify.batch_sizes = 16",
                  "unify.threshold = 0.5"]
        unify_cfg = tmp_path / "unify.cfg"
        unify_cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "unify_out"
        assert main(["unify", "--config", str(unify_cfg),
                     "--out", str(out)]) == 0
        for name in ("table_combined_noprep.tsv", "phase_one.txt",
                     "manifest.json"):
            assert (out / name).exists(), name

    def test_infeasible_exits_zero_with_report(self, tmp_path):
        config, prep_out = run_prep(tmp_path)
        unify_cfg = write_unify_config(
            tmp_path, config.read_text().replace("train.epochs = 2",
                                                 "train.epochs = 1"),
            prep_out, 1.0,
            "unify.batch_sizes = 16\nunify.threshold = 0.0001\n")
        out = tmp_path / "unify_out"
        assert main(["unify", "--config", str(unify_cfg),
                     "--out", str(out)]) == 0
        assert (out / "infeasibility.txt").exists()
        text = (out / "infeasibility.txt").read_text()
        assert "minimum deficit ds1" in text


class TestCellsOnEveryCpu:
    """`unify` and `ablate` train their cells on every CPU of the (patched)
    affinity mask.  Cells, dataset-major: 0 (ds1, 16), 1 (ds1, 8),
    2 (ds2, 16), 3 (ds2, 8); at 2 CPUs a worker trains cells 1 and 3."""

    UNIFY_OUTPUTS = ("unified_checkpoint.ufnd", "table_per_dataset.tsv",
                     "table_combined_prep.tsv", "phase_one.txt")

    @pytest.fixture(scope="class")
    def configs(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("cells")
        config, prep_out = run_prep(tmp_path)
        unify_cfg = write_unify_config(
            tmp_path, config.read_text(), prep_out, 0.5,
            "unify.batch_sizes = 16,8\nunify.threshold = 0.5\n")
        ablate_cfg = tmp_path / "ablate.cfg"
        ablate_cfg.write_text(
            config.read_text()
            + f"combined.train = {prep_out / 'combined.train.npz'}\n"
            + f"combined.test = {prep_out / 'combined.test.npz'}\n"
            + "ablate.subsets = 1,2;1\nablate.batch_sizes = 16,8\n")
        return {"unify": unify_cfg, "ablate": ablate_cfg}

    @staticmethod
    def run(command, configs, out, set_cpus, cpus) -> int:
        set_cpus(cpus)
        rc = main([command, "--config", str(configs[command]),
                   "--out", str(out)])
        assert multiprocessing.active_children() == []
        return rc

    def test_outputs_do_not_depend_on_the_cpu_count(self, configs, tmp_path,
                                                     set_cpus):
        written = {}
        for cpus in (1, 2, 4):
            for command in ("unify", "ablate"):
                out = tmp_path / f"{command}-{cpus}"
                assert self.run(command, configs, out, set_cpus,
                                cpus) == 0
            written[cpus] = {
                name: (tmp_path / f"unify-{cpus}" / name).read_bytes()
                for name in self.UNIFY_OUTPUTS}
            written[cpus]["table_ablation.tsv"] = (
                tmp_path / f"ablate-{cpus}" / "table_ablation.tsv"
            ).read_bytes()
        assert written[2] == written[1]
        assert written[4] == written[1]

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    @pytest.mark.parametrize("failing, message, code", [
        ({(0, 8): NonFiniteError("ds1 8"), (1, 16): DataError("ds2 16")},
         "non-finite value detected in 'ds1 8'", 1),
        ({(0, 8): DataError("ds1 8"), (1, 8): NonFiniteError("ds2 8")},
         "ds1 8", 2),
        ({(1, 16): NonFiniteError("ds2 16"), (1, 8): DataError("ds2 8")},
         "non-finite value detected in 'ds2 16'", 1),
    ])
    def test_first_failing_cell_in_cell_order_is_reported(
            self, failing, message, code, cpus, configs, tmp_path,
            monkeypatch, set_cpus, capsys):
        train = unified.train
        cells = {unified._cell_seed(7, dataset, batch): (dataset, batch)
                 for dataset in (0, 1) for batch in (16, 8)}

        def failing_train(model, train_ds, val_ds, cfg):
            if cells.get(cfg.seed) in failing:
                raise failing[cells[cfg.seed]]
            return train(model, train_ds, val_ds, cfg)

        monkeypatch.setattr(unified, "train", failing_train)
        assert self.run("unify", configs, tmp_path / "out", set_cpus,
                        cpus) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_a_worker_that_dies_names_its_cell(self, cpus, configs,
                                               tmp_path, monkeypatch,
                                               set_cpus, capsys):
        train, parent = unified.train, os.getpid()

        def dying_train(model, train_ds, val_ds, cfg):
            if os.getpid() != parent:
                os._exit(3)
            return train(model, train_ds, val_ds, cfg)

        def hung(signum, frame):
            raise AssertionError("unify still waits for a dead worker")

        monkeypatch.setattr(unified, "train", dying_train)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            assert self.run("unify", configs, tmp_path / "out",
                            set_cpus, cpus) == 1
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert capsys.readouterr().err == (
            "error: dataset ds1, batch size 8: the worker process training "
            "it died (exit code 3)\n")

    def test_unify_into_a_pipe_prints_its_last_line_once(self, configs,
                                                         tmp_path):
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "ufnd", "unify", "--config",
             str(configs["unify"]), "--out", str(tmp_path / "out")],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 1 and lines[0].startswith("phase 1 accepted")


class TestAblateCommand:
    def test_table_layout(self, tmp_path):
        config, prep_out = run_prep(tmp_path)
        ablate_cfg = tmp_path / "ablate.cfg"
        ablate_cfg.write_text(
            config.read_text()
            + f"combined.train = {prep_out / 'combined.train.npz'}\n"
            + f"combined.test = {prep_out / 'combined.test.npz'}\n"
            + "ablate.subsets = 1,2;1\n"
            + "ablate.batch_sizes = 16,32\n")
        out = tmp_path / "ablate_out"
        assert main(["ablate", "--config", str(ablate_cfg),
                     "--out", str(out)]) == 0
        tsv = (out / "table_ablation.tsv").read_text()
        lines = tsv.strip().splitlines()
        assert lines[1].startswith("Encoder Blocks (mini batch size)")
        assert len(lines) == 2 + 4  # note + header + 2 subsets x 2 batches
        labels = [line.split("\t")[0] for line in lines[2:]]
        assert labels == ["1,2 (16)", "1,2 (32)", "1 (16)", "1 (32)"]
        params = [int(line.split("\t")[-1]) for line in lines[2:]]
        assert params[0] == params[1] > params[2] == params[3]


class TestErrorContracts:
    def test_schema_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("only,two\nx,y\n")
        config = tmp_path / "c.cfg"
        config.write_text(
            f"data1.path = {bad}\n"
            "data1.text_columns = title,text\n"
            "data1.label_column = label\n"
            "data1.label_mapping = REAL:0,FAKE:1\n")
        assert main(["prep", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2

    def test_data_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("title,text,label\na,b,WEIRD\n")
        config = tmp_path / "c.cfg"
        config.write_text(
            f"data1.path = {bad}\n"
            "data1.text_columns = title,text\n"
            "data1.label_column = label\n"
            "data1.label_mapping = REAL:0,FAKE:1\n")
        assert main(["prep", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_data_path_exits_2_naming_key_and_path(self, tmp_path,
                                                            capsys):
        missing = tmp_path / "nope.csv"
        config = tmp_path / "c.cfg"
        config.write_text(
            f"data1.path = {missing}\n"
            "data1.text_columns = title,text\n"
            "data1.label_column = label\n"
            "data1.label_mapping = REAL:0,FAKE:1\n")
        assert main(["prep", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config key data1.path" in err and str(missing) in err
