import json

import numpy as np
import pytest

from ufnd import cli
from ufnd.checkpoint import load_checkpoint
from ufnd.cli import (KEYS, load_encoded, main, parse_config_file,
                      resolve_config, save_encoded, sha256_file)
from ufnd.errors import ArgumentError, SchemaError
from ufnd.model import desk_config
from ufnd.synthetic import make_synthetic_corpus, write_synthetic_csv
from ufnd.trainer import TrainConfig
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

    def test_parse_bad_line(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("not a pair\n")
        with pytest.raises(ArgumentError, match="c.cfg:1"):
            parse_config_file(p)

    @pytest.mark.parametrize("key", ["trian.lr", "train.learning_rate",
                                     "data1.colour", "model"])
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
        args = type("A", (), {
            "config": str(p), "seed": 9, "batch_size": None, "epochs": None,
            "max_seq_len": None, "threshold": None, "preprocess": "off",
            "freeze_encoder": None, "blocks": None})
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

    @pytest.mark.parametrize("value", ["REAL0,FAKE:1", "REAL:x"])
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
        ("train.best_mode", "other", "best_mode must be"),
        ("model.n_heads", "3", "not divisible by n_heads 3"),
    ])
    def test_value_its_config_class_rejects_exits_2(self, key, value,
                                                    message, prepped,
                                                    tmp_path, capsys):
        assert self._train(prepped, tmp_path, key, value) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out" / "checkpoint.ufnd").exists()

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
        ("unify", "baselines"),
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
        (tmp_path / "baselines.tsv").write_text("ds1\t0.5\tfloor\n")
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
        (tmp_path / "baselines.tsv").write_text("ds1\t0.5\tfloor\n")
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


class Seen(Exception):
    """Raised by a stand-in to stop a command once it has its configs."""


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
        (tmp_path / "baselines.tsv").write_text("ds1\t0.5\tfloor\n")
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
        assert model_cfg.head.dropout_rate == 0.3
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

    def test_missing_data_key_fails(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("train.seed = 1\n")
        out = tmp_path / "out"
        assert main(["prep", "--config", str(config),
                     "--out", str(out)]) == 1


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

    def test_missing_file_exit_1(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text(
            "data1.path = /nonexistent/file.csv\n"
            "data1.text_columns = title,text\n"
            "data1.label_column = label\n"
            "data1.label_mapping = REAL:0,FAKE:1\n")
        assert main(["prep", "--config", str(config),
                     "--out", str(tmp_path / "o")]) == 1
