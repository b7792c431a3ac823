"""Command-line entry points: prep, train, unify, ablate, eval.

Configuration is a flat key=value file; command-line flags override file
values, and every command writes a manifest with the fully resolved
configuration, input digests, and artifact paths.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
import zipfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .classifier import HeadConfig
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import ColumnMap, Corpus, combine, load_dataset, split
from .encoder import EncoderConfig
from .errors import (ArgumentError, DataError, IncompatibilityError,
                     SchemaError, UfndError)
from .metrics import POSITIVE_CLASS_NOTE, compute_metrics, confusion
from .model import Model, ModelConfig
from .numerics import RngStreams
from .textprep import (CLS_ID, EncodedDataset, PrepConfig, build_vocab,
                       encode_corpus, save_vocab, seq_length_stats)
from .trainer import (TrainConfig, evaluate, model_from_checkpoint,
                      predict_dataset, train)
# `phase_two` is unused here; bench/spans.py traces it through this
# module's namespace.
from .unified import (AblationGrid, EncodedSplit, ablate, ablation_table,
                      load_baselines, per_dataset_table, phase_one,
                      phase_two, phase_two_sweep, render_aligned,
                      render_delimited, sweep_table)

DEFAULT_SEED = 20220

# -- config and manifest plumbing --------------------------------------


def parse_config_file(path) -> dict[str, str]:
    config = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ArgumentError(f"{path}:{line_no}: expected key=value")
            key, value = line.split("=", 1)
            config[key.strip()] = value.strip()
    return config


def resolve_config(args) -> dict[str, str]:
    config = {}
    if args.config:
        config.update(parse_config_file(args.config))
    overrides = {
        "train.seed": args.seed,
        "train.batch_size": args.batch_size,
        "train.epochs": args.epochs,
        "prep.max_seq_len": args.max_seq_len,
        "unify.threshold": args.threshold,
    }
    if args.preprocess is not None:
        overrides["prep.min_word_len"] = 3 if args.preprocess == "on" else 1
    if args.freeze_encoder is not None:
        overrides["train.freeze_encoder"] = args.freeze_encoder == "on"
    if args.blocks is not None:
        overrides["model.block_subset"] = args.blocks
    for key, value in overrides.items():
        if value is not None:
            config[key] = str(value)
    return config


BOOL_WORDS = {"1": True, "true": True, "on": True, "yes": True,
              "0": False, "false": False, "off": False, "no": False}


def _cfg_value(config, key, default, parse, expected):
    """`parse` the value of `key`; a value it rejects is a `SchemaError`
    naming the key and the value."""
    raw = config.get(key, default)
    try:
        return parse(raw)
    except (ValueError, KeyError):
        raise SchemaError(f"config key {key}: {raw!r} is not {expected}"
                          ) from None


def cfg_int(config, key, default):
    return _cfg_value(config, key, default, int, "an integer")


def _finite_float(raw) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def cfg_float(config, key, default):
    return _cfg_value(config, key, default, _finite_float, "a finite number")


def cfg_bool(config, key, default):
    return _cfg_value(config, key, default,
                      lambda raw: BOOL_WORDS[str(raw).lower()],
                      "one of " + "/".join(BOOL_WORDS))


def cfg_ints(config, key, default):
    if key not in config:
        return tuple(default)
    return _cfg_value(
        config, key, None,
        lambda raw: tuple(int(v) for v in str(raw).split(",") if v != ""),
        "a comma-separated list of integers")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    def __init__(self, command: str, config: dict, out_dir: Path):
        self.data = {"command": command, "config": config,
                     "seeds": [cfg_int(config, "train.seed", DEFAULT_SEED)],
                     "inputs": {}, "artifacts": [],
                     "started": time.strftime("%Y-%m-%dT%H:%M:%S")}
        self.out_dir = out_dir

    def add_input(self, path):
        self.data["inputs"][str(path)] = sha256_file(path)

    def artifact(self, name: str) -> Path:
        path = self.out_dir / name
        self.data["artifacts"].append(str(path))
        return path

    def write(self):
        self.data["ended"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        path = self.out_dir / "manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")


# -- encoded-corpus files ----------------------------------------------


def save_encoded(ds: EncodedDataset, path, vocab_size: int) -> None:
    np.savez(path, ids=ds.ids, mask=ds.mask, labels=ds.labels,
             true_lengths=ds.true_lengths,
             meta=json.dumps({"vocab_hash": ds.vocab_hash,
                              "max_seq_len": ds.max_seq_len,
                              "vocab_size": vocab_size}))


def load_encoded(path) -> tuple[EncodedDataset, dict]:
    """Read an encoded split, rejecting a file whose arrays disagree with
    each other or with its vocabulary size (`DataError`)."""
    try:
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            ds = EncodedDataset(ids=data["ids"], mask=data["mask"],
                                labels=data["labels"],
                                true_lengths=data["true_lengths"],
                                vocab_hash=meta["vocab_hash"],
                                max_seq_len=meta["max_seq_len"])
            vocab_size = int(meta["vocab_size"])
    except (KeyError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"{path}: not an encoded split: {exc}") from exc
    if (ds.ids.ndim != 2 or ds.ids.shape[1] < 1
            or ds.mask.shape != ds.ids.shape):
        raise DataError(f"{path}: ids {ds.ids.shape} and mask "
                        f"{ds.mask.shape} must share one [rows, length] shape")
    n = len(ds.ids)
    for name in ("labels", "true_lengths"):
        if getattr(ds, name).shape != (n,):
            raise DataError(f"{path}: {name} has shape "
                            f"{getattr(ds, name).shape}, ids has {n} rows")
    for name in ("ids", "labels", "true_lengths"):
        if not np.issubdtype(getattr(ds, name).dtype, np.integer):
            raise DataError(f"{path}: {name} has dtype "
                            f"{getattr(ds, name).dtype}, expected integers")
    positions = np.arange(ds.ids.shape[1])
    checks = [
        (((ds.ids < 0) | (ds.ids >= vocab_size)).any(axis=1),
         f"token id outside [0, {vocab_size})"),
        (ds.ids[:, 0] != CLS_ID, f"column 0 is not CLS ({CLS_ID})"),
        ((ds.mask != (positions < ds.true_lengths[:, None])).any(axis=1),
         "mask disagrees with true_lengths"),
        ((ds.labels != 0) & (ds.labels != 1), "label is not 0 or 1"),
    ]
    for bad, what in checks:
        if bad.any():
            raise DataError(f"{path}: row {int(np.argmax(bad))}: {what}")
    return ds, meta


def _load_split(config, prefix, default_name) -> tuple[EncodedSplit, dict,
                                                       list]:
    paths = [config[prefix + ".train"], config[prefix + ".test"]]
    train_ds, meta = load_encoded(paths[0])
    test_ds, _ = load_encoded(paths[1])
    name = config.get(prefix + ".name", default_name)
    return EncodedSplit(name=name, train=train_ds, test=test_ds), meta, paths


# -- shared model/train construction -----------------------------------


def build_model_config(config: dict, vocab_size: int,
                       max_seq_len: int) -> ModelConfig:
    n_total = cfg_int(config, "model.n_blocks_total", 12)
    subset = cfg_ints(config, "model.block_subset", range(1, n_total + 1))
    d_model = cfg_int(config, "model.d_model", 64)
    enc = EncoderConfig(
        vocab_size=vocab_size, d_model=d_model,
        n_heads=cfg_int(config, "model.n_heads", 4),
        d_ff=cfg_int(config, "model.d_ff", 256),
        max_seq_len=max_seq_len, n_blocks_total=n_total,
        block_subset=subset,
        dropout_rate=cfg_float(config, "train.dropout_rate", 0.1))
    head = HeadConfig(
        d_in=d_model, h1=cfg_int(config, "model.h1", 200),
        h2=cfg_int(config, "model.h2", 150),
        dropout_rate=cfg_float(config, "train.dropout_rate", 0.1))
    return ModelConfig(encoder=enc, head=head)


def build_train_config(config: dict, max_seq_len: int) -> TrainConfig:
    return TrainConfig(
        seed=cfg_int(config, "train.seed", DEFAULT_SEED),
        lr=cfg_float(config, "train.lr", 0.003),
        clip=cfg_float(config, "train.clip", 1.0),
        epochs=cfg_int(config, "train.epochs", 50),
        batch_size=cfg_int(config, "train.batch_size", 32),
        dropout_rate=cfg_float(config, "train.dropout_rate", 0.1),
        freeze_encoder=cfg_bool(config, "train.freeze_encoder", False),
        max_seq_len=max_seq_len,
        preprocessing_enabled=cfg_int(config, "prep.min_word_len", 3) > 1,
        best_mode=config.get("train.best_mode", "rollback"),
        checked=cfg_bool(config, "train.checked", False))


# -- commands ----------------------------------------------------------


def cmd_prep(args) -> int:
    config = resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest("prep", config, out)

    prep = PrepConfig(
        min_word_len=cfg_int(config, "prep.min_word_len", 3),
        max_seq_len=cfg_int(config, "prep.max_seq_len", 120),
        lowercase=cfg_bool(config, "prep.lowercase", True),
        strip_nonalnum=cfg_bool(config, "prep.strip_nonalnum", True))
    ratio = cfg_float(config, "split.ratio", 0.8)
    seed = cfg_int(config, "train.seed", DEFAULT_SEED)
    delimiter = config.get("data.delimiter", ",")

    corpora = {}
    reports = []
    i = 1
    while f"data{i}.path" in config:
        prefix = f"data{i}"
        cmap = ColumnMap(
            text_columns=tuple(config[prefix + ".text_columns"].split(",")),
            label_column=config[prefix + ".label_column"],
            label_mapping={k: int(v) for k, v in
                           (pair.split(":") for pair in
                            config[prefix + ".label_mapping"].split(","))})
        name = config.get(prefix + ".name", prefix)
        manifest.add_input(config[prefix + ".path"])
        corpus, report = load_dataset(config[prefix + ".path"], cmap, name,
                                      delimiter=delimiter)
        corpora[name] = corpus
        reports.append(report)
        i += 1
    if not corpora:
        raise ArgumentError("no data1.path entry in the configuration")

    vocab_size = cfg_int(config, "vocab.max_size", 8000)
    combined = combine(list(corpora.values()))
    vocab = build_vocab(combined, prep, vocab_size,
                        cfg_int(config, "vocab.min_freq", 1))
    save_vocab(vocab, manifest.artifact("vocab.txt"))

    with open(manifest.artifact("load_report.txt"), "w",
              encoding="utf-8") as fh:
        for report in reports:
            fh.write(report.render() + "\n")

    stats = seq_length_stats(combined, vocab, prep)
    with open(manifest.artifact("length_stats.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(f"# short-word rule: drop tokens shorter than "
                 f"{prep.min_word_len} characters\n")
        for mode in ("without_removal", "with_removal"):
            s = stats[mode]
            fh.write(f"{mode}\tmean={s['mean']:.2f}\tmax={s['max']}\t"
                     f"p95={s['percentile_95']:.1f}\n")

    for name, corpus in corpora.items():
        sc = split(corpus, ratio, seed)
        save_encoded(encode_corpus(sc.train, vocab, prep),
                     manifest.artifact(f"{name}.train.npz"), len(vocab))
        save_encoded(encode_corpus(sc.test, vocab, prep),
                     manifest.artifact(f"{name}.test.npz"), len(vocab))
    sc = split(combined, ratio, seed)
    save_encoded(encode_corpus(sc.train, vocab, prep),
                 manifest.artifact("combined.train.npz"), len(vocab))
    save_encoded(encode_corpus(sc.test, vocab, prep),
                 manifest.artifact("combined.test.npz"), len(vocab))
    manifest.write()
    return 0


def cmd_train(args) -> int:
    config = resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest("train", config, out)
    ds, meta, paths = _load_split(config, "data", "dataset")
    for p in paths:
        manifest.add_input(p)
    model_cfg = build_model_config(config, meta["vocab_size"],
                                   meta["max_seq_len"])
    train_cfg = build_train_config(config, meta["max_seq_len"])
    model = Model(model_cfg, RngStreams(train_cfg.seed))
    ckpt, report = train(model, ds.train, ds.test, train_cfg,
                         vocab_hash=ds.train.vocab_hash)
    save_checkpoint(ckpt, manifest.artifact("checkpoint.ufnd"))
    with open(manifest.artifact("train_report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(report.render())
    manifest.write()
    print(f"best validation accuracy {report.best_val_accuracy:.4f} "
          f"(epoch {report.best_epoch})")
    return 0


def cmd_unify(args) -> int:
    config = resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest("unify", config, out)

    datasets = []
    meta = None
    i = 1
    while f"dataset{i}.train" in config:
        ds, meta, paths = _load_split(config, f"dataset{i}", f"dataset{i}")
        for p in paths:
            manifest.add_input(p)
        datasets.append(ds)
        i += 1
    if not datasets:
        raise ArgumentError("no dataset1.train entry in the configuration")
    baselines_path = config["baselines"]
    manifest.add_input(baselines_path)
    baselines = load_baselines(baselines_path)

    model_cfg = build_model_config(config, meta["vocab_size"],
                                   meta["max_seq_len"])
    train_cfg = build_train_config(config, meta["max_seq_len"])
    threshold = cfg_float(config, "unify.threshold", 0.10)
    batch_sizes = cfg_ints(config, "unify.batch_sizes",
                           (16, 32, 64, 128, 256, 512, 1024))

    noprep = None
    if "combined_noprep.train" in config:
        # Loaded and sized before phase 1, from its own vocabulary.
        noprep, noprep_meta, paths = _load_split(config, "combined_noprep",
                                                 "combined-noprep")
        for p in paths:
            manifest.add_input(p)
        noprep_model_cfg = build_model_config(
            config, noprep_meta["vocab_size"], noprep.train.max_seq_len)
        noprep_train_cfg = replace(train_cfg,
                                   max_seq_len=noprep.train.max_seq_len,
                                   preprocessing_enabled=False)

    result = phase_one(datasets, [(model_cfg, train_cfg)], baselines,
                       threshold, batch_sizes)
    names = [ds.name for ds in datasets]
    header, rows = per_dataset_table(result.cells, names, batch_sizes)
    _write_table(manifest, "table_per_dataset", header, rows)

    if not result.accepted:
        with open(manifest.artifact("infeasibility.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(f"phase 1 infeasible at threshold {threshold}\n")
            for name, deficit in sorted(result.minimum_deficits.items()):
                fh.write(f"minimum deficit {name}: {deficit:.4f}\n")
        manifest.write()
        print("phase 1 infeasible; see infeasibility.txt")
        return 0

    best_dataset = max(result.best_metrics,
                       key=lambda n: result.best_metrics[n].accuracy)
    encoder_source = result.best_checkpoints[best_dataset]
    combined, _, paths = _load_split(config, "combined", "combined")
    for p in paths:
        manifest.add_input(p)
    cells, ckpt, report = phase_two_sweep(combined, model_cfg, train_cfg,
                                          batch_sizes, encoder_source)
    header, rows = sweep_table(cells)
    _write_table(manifest, "table_combined_prep", header, rows)
    save_checkpoint(ckpt, manifest.artifact("unified_checkpoint.ufnd"))

    if noprep is not None:
        noprep_source = encoder_source
        if noprep_meta["vocab_hash"] != meta["vocab_hash"]:
            # Its ids index another vocabulary: keep its fresh token table.
            noprep_source = replace(encoder_source, tensors={
                name: arr for name, arr in encoder_source.tensors.items()
                if name != "best/encoder/token_embedding"})
        cells, _, _ = phase_two_sweep(noprep, noprep_model_cfg,
                                      noprep_train_cfg, batch_sizes,
                                      noprep_source)
        header, rows = sweep_table(cells)
        _write_table(manifest, "table_combined_noprep", header, rows)

    with open(manifest.artifact("phase_one.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(f"accepted\ttrue\nthreshold\t{threshold}\n")
        for name in names:
            fh.write(f"{name}\tbatch={result.chosen_batch_sizes[name]}\t"
                     f"accuracy={result.best_metrics[name].accuracy:.4f}\t"
                     f"deficit={result.deficits[name]:.4f}\n")
    manifest.write()
    print(f"phase 1 accepted; unified best validation accuracy "
          f"{report.best_val_accuracy:.4f}")
    return 0


def cmd_ablate(args) -> int:
    config = resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest("ablate", config, out)
    combined, meta, paths = _load_split(config, "combined", "combined")
    for p in paths:
        manifest.add_input(p)
    model_cfg = build_model_config(config, meta["vocab_size"],
                                   meta["max_seq_len"])
    train_cfg = build_train_config(config, meta["max_seq_len"])
    subsets = tuple(
        tuple(int(v) for v in part.split(","))
        for part in config.get("ablate.subsets",
                               "1,3,5,7,9,11;1,5,9;1,9;5").split(";"))
    batch_sizes = cfg_ints(config, "ablate.batch_sizes", (16, 32, 64, 128))
    grid = AblationGrid(block_subsets=subsets, batch_sizes=batch_sizes)
    rows = ablate(combined, model_cfg, train_cfg, grid)
    header, table_rows = ablation_table(rows)
    _write_table(manifest, "table_ablation", header, table_rows)
    manifest.write()
    return 0


def cmd_eval(args) -> int:
    config = resolve_config(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest("eval", config, out)
    manifest.add_input(args.checkpoint)
    manifest.add_input(args.data)
    ckpt = load_checkpoint(args.checkpoint, prefix="best/")
    ds, _ = load_encoded(args.data)
    expected = ckpt.config.get("vocab_hash", "")
    if expected and ds.vocab_hash and expected != ds.vocab_hash:
        raise IncompatibilityError(
            f"checkpoint vocab hash {expected} != corpus vocab hash "
            f"{ds.vocab_hash}")
    model, _ = model_from_checkpoint(ckpt, which="best")
    if model.config.encoder.max_seq_len != ds.max_seq_len:
        raise IncompatibilityError(
            f"checkpoint max_seq_len {model.config.encoder.max_seq_len} != "
            f"corpus max_seq_len {ds.max_seq_len}")
    preds = predict_dataset(model, ds)
    c = confusion(preds, ds.labels)
    metrics = compute_metrics(c)
    lines = [f"# {POSITIVE_CLASS_NOTE}",
             f"accuracy\t{metrics.accuracy:.6f}",
             f"precision\t{metrics.precision:.6f}",
             f"recall\t{metrics.recall:.6f}",
             f"f1\t{metrics.f1:.6f}",
             f"confusion\ttp={c.tp}\tfp={c.fp}\tfn={c.fn}\ttn={c.tn}"]
    text = "\n".join(lines) + "\n"
    with open(manifest.artifact("metrics.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    manifest.write()
    print(text, end="")
    return 0


def _write_table(manifest: Manifest, stem: str, header, rows) -> None:
    with open(manifest.artifact(stem + ".tsv"), "w", encoding="utf-8") as fh:
        fh.write(render_delimited(header, rows))
    with open(manifest.artifact(stem + ".txt"), "w", encoding="utf-8") as fh:
        fh.write(render_aligned(header, rows))


# -- entry point -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ufnd",
        description="unified fake-news training experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "prep": cmd_prep, "train": cmd_train, "unify": cmd_unify,
        "ablate": cmd_ablate, "eval": cmd_eval,
    }
    for name, fn in commands.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--batch-size", type=int, default=None)
        p.add_argument("--epochs", type=int, default=None)
        p.add_argument("--max-seq-len", type=int, default=None)
        p.add_argument("--preprocess", choices=("on", "off"), default=None)
        p.add_argument("--blocks", default=None,
                       help="comma-separated 1-based encoder block indices")
        p.add_argument("--freeze-encoder", choices=("on", "off"),
                       default=None)
        p.add_argument("--threshold", type=float, default=None)
        if name == "eval":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--data", required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SchemaError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UfndError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
