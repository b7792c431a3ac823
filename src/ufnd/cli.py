"""Command-line entry points: prep, train, unify, ablate, eval.

Configuration is a flat key=value file; command-line flags override file
values, and every command writes a manifest with the fully resolved
configuration, input digests, and artifact paths.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import re
import sys
import time
import zipfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from .classifier import HeadConfig
from .checkpoint import load_checkpoint, save_checkpoint
from .corpus import ColumnMap, combine, load_dataset, split_indices
from .encoder import EncoderConfig, select_blocks
from .errors import (ArgumentError, DataError, IncompatibilityError,
                     SchemaError, UfndError)
from .metrics import POSITIVE_CLASS_NOTE, compute_metrics, confusion
from .model import Model, ModelConfig, desk_config
from .numerics import RngStreams
from .textprep import (CLS_ID, EncodedDataset, PrepConfig, build_vocab,
                       encode_corpus, save_vocab, seq_length_stats,
                       tokenize_corpus)
from .trainer import (TrainConfig, model_from_checkpoint, predict_dataset,
                      train)
# `phase_two` is unused here.  The import stays only because
# bench/spans.py patches `cli.__dict__["phase_two"]` (a wrap that never
# fires: `phase_two_sweep` calls `unified.phase_two`); removing it waits
# on ROADMAP item 2 or 11.
from .unified import (DEFAULT_BATCH_SIZES, DEFAULT_BLOCK_SUBSETS,
                      AblationGrid, EncodedSplit, ablate, ablation_table,
                      load_baselines, per_dataset_table, phase_one,
                      phase_two, phase_two_sweep, render_aligned,
                      render_delimited, sweep_table)

# -- config and manifest plumbing --------------------------------------


BOOL_WORDS = {"1": True, "true": True, "on": True, "yes": True,
              "0": False, "false": False, "off": False, "no": False}


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _positive(raw: str) -> float:
    value = _finite(raw)
    if value <= 0:
        raise ValueError(raw)
    return value


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(v) for v in raw.split(",") if v != "")


def _label_pairs(raw: str) -> dict[str, int]:
    mapping = {label: int(value) for label, value in
               (pair.split(":") for pair in raw.split(","))}
    if not set(mapping.values()) <= {0, 1}:
        raise ValueError(raw)
    return mapping


INT = (int, "an integer")
NUMBER = (_finite, "a finite number")
POSITIVE = (_positive, "a positive finite number")
BOOL = (lambda raw: BOOL_WORDS[raw.lower()], "one of " + "/".join(BOOL_WORDS))
INTS = (_ints, "a comma-separated list of integers")
INT_LISTS = (lambda raw: tuple(map(_ints, raw.split(";"))),
             "';'-separated lists of integers")
TEXT = (str, "a string")
LABEL_PAIRS = (_label_pairs, "a comma-separated list of label:0 or label:1 "
               "pairs")

# Every typed config key, with its parser and what the parser expects.  A
# key left out takes the default of what it feeds (`PrepConfig`,
# `TrainConfig`, the `desk_config` model, `build_vocab`, `load_dataset`,
# `AblationGrid`, `DEFAULT_BATCH_SIZES`) or else of `CLI_DEFAULTS`.
KEYS = {
    "prep.min_word_len": INT, "prep.max_seq_len": INT,
    "prep.lowercase": BOOL, "prep.strip_nonalnum": BOOL,
    "split.ratio": NUMBER, "vocab.max_size": INT, "vocab.min_freq": INT,
    "data.delimiter": TEXT,
    "train.seed": INT, "train.lr": NUMBER, "train.clip": NUMBER,
    "train.epochs": INT, "train.batch_size": INT,
    "train.dropout_rate": NUMBER, "train.freeze_encoder": BOOL,
    "train.checked": BOOL,
    "model.n_blocks_total": INT, "model.block_subset": INTS,
    "model.d_model": INT, "model.n_heads": INT, "model.d_ff": INT,
    "model.h1": INT, "model.h2": INT,
    "unify.threshold": POSITIVE, "unify.batch_sizes": INTS,
    "ablate.subsets": INT_LISTS, "ablate.batch_sizes": INTS,
}
CLI_DEFAULTS = {"train.seed": 20220, "split.ratio": 0.8,
                "vocab.max_size": 8000, "unify.threshold": 0.10}

# The path and name keys, read as written.
PATH_KEYS = re.compile(
    r"data\d+\.(path|text_columns|label_column|label_mapping|name)"
    r"|dataset\d+\.(train|test|name)"
    r"|(data|combined|combined_noprep)\.(train|test|name)|baselines")


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
            key = key.strip()
            if key not in KEYS and not PATH_KEYS.fullmatch(key):
                raise SchemaError(f"{path}:{line_no}: unknown config key "
                                  f"{key!r}")
            config[key] = value.strip()
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


def _parse(key: str, raw: str, parse, expected: str):
    try:
        return parse(raw)
    except (ValueError, KeyError):
        raise SchemaError(f"config key {key}: {raw!r} is not {expected}"
                          ) from None


def parse_settings(config: dict[str, str]) -> dict:
    """`CLI_DEFAULTS` updated with the typed keys of `config`, each parsed by
    its `KEYS` parser; a value that its parser rejects is a `SchemaError`."""
    return {**CLI_DEFAULTS, **{key: _parse(key, raw, *KEYS[key])
                               for key, raw in config.items() if key in KEYS}}


def _required(config: dict[str, str], key: str, kind=TEXT):
    """The value of `key`, parsed by `kind`; a missing key is bad input."""
    if key not in config:
        raise SchemaError(f"config key {key} is required")
    return _parse(key, config[key], *kind)


def _given(settings: dict, prefix: str, target) -> dict:
    """`{name: settings[prefix + name]}` for each parameter `name` of
    `target` whose key is set; the others keep `target`'s defaults."""
    return {name: settings[prefix + name]
            for name in inspect.signature(target).parameters
            if prefix + name in settings}


@contextmanager
def _config_class_errors(where: str = "config"):
    """A value that a config class rejects is bad config input."""
    try:
        yield
    except ArgumentError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _check_cells(key: str, values, build) -> None:
    """Check a per-cell setting before any cell trains: `key` must list at
    least one value, and `build(value)` must accept each of them."""
    if not values:
        raise SchemaError(f"config key {key} lists no values")
    for value in values:
        with _config_class_errors(f"config key {key}, value {value}"):
            build(value)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


class Manifest:
    def __init__(self, command: str, config: dict, out_dir: Path, seed: int):
        self.data = {"command": command, "config": config, "seeds": [seed],
                     "inputs": {}, "artifacts": [],
                     "started": time.strftime("%Y-%m-%dT%H:%M:%S")}
        self.out_dir = out_dir
        out_dir.mkdir(parents=True, exist_ok=True)

    def add_input(self, path, source: str):
        """Record `path`'s digest; `source` (a key or flag) names it."""
        try:
            self.data["inputs"][str(path)] = sha256_file(path)
        except OSError as exc:
            raise DataError(f"{source}: cannot read {str(path)!r}: "
                            f"{exc.strerror}") from None

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


def _start(command: str, args) -> tuple[dict, dict, Manifest]:
    """The config, its parsed settings and the command's manifest."""
    config = resolve_config(args)
    settings = parse_settings(config)
    return config, settings, Manifest(command, config, Path(args.out),
                                      settings["train.seed"])


def _configs(settings: dict, meta: dict) -> tuple[ModelConfig, TrainConfig]:
    """The `desk_config` model sized to a split's `meta`, and the training
    config, with the `model.*` and `train.*` settings over their defaults."""
    desk = desk_config(meta["vocab_size"], meta["max_seq_len"])
    encoder = _given(settings, "model.", EncoderConfig)
    head = _given(settings, "model.", HeadConfig)
    if "train.dropout_rate" in settings:
        encoder["dropout_rate"] = head["dropout_rate"] = \
            settings["train.dropout_rate"]
    if "model.n_blocks_total" in settings:
        encoder.setdefault("block_subset", tuple(
            range(1, settings["model.n_blocks_total"] + 1)))
    with _config_class_errors():
        enc = replace(desk.encoder, **encoder)
        return (ModelConfig(encoder=enc, head=replace(
                    desk.head, d_in=enc.d_model, **head)),
                TrainConfig(**_given(settings, "train.", TrainConfig)))


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
    if n == 0:
        raise DataError(f"{path}: holds no rows")
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


def _load_split(config, manifest, prefix, default_name=None
                ) -> tuple[EncodedSplit, dict]:
    """The split under `prefix`, its files recorded as inputs, and its meta."""
    keys = [prefix + ".train", prefix + ".test"]
    for key in keys:
        manifest.add_input(_required(config, key), "config key " + key)
    train_ds, meta = load_encoded(config[keys[0]])
    test_ds, _ = load_encoded(config[keys[1]])
    name = config.get(prefix + ".name", default_name or prefix)
    return EncodedSplit(name=name, train=train_ds, test=test_ds), meta


# -- commands ----------------------------------------------------------


def _split_rows(name: str, source: str, first: int, n: int, ratio: float,
                seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows `first .. first + n` of the combined corpus, split; an empty part
    is bad input, reported before any file is written."""
    with _config_class_errors("config key split.ratio"):
        parts = split_indices(n, ratio, seed)
    for part, rows in zip(("train", "test"), parts):
        if len(rows) == 0:
            raise DataError(f"dataset {name} ({source}): split.ratio = "
                            f"{ratio} leaves the {part} part of its {n} "
                            f"usable rows empty")
    return tuple(first + rows for rows in parts)


def cmd_prep(args) -> int:
    config, settings, manifest = _start("prep", args)
    with _config_class_errors():
        prep = PrepConfig(**_given(settings, "prep.", PrepConfig))
    ratio = settings["split.ratio"]
    seed = settings["train.seed"]

    corpora, sources, names = {}, {}, {"combined": "the combined split"}
    reports = []
    i = 1
    while f"data{i}.path" in config:
        prefix = f"data{i}"
        cmap = ColumnMap(
            text_columns=tuple(
                _required(config, prefix + ".text_columns").split(",")),
            label_column=_required(config, prefix + ".label_column"),
            label_mapping=_required(config, prefix + ".label_mapping",
                                    LABEL_PAIRS))
        name = config.get(prefix + ".name", prefix)
        if name in ("", ".", "..") or any(c in name for c in "/\\"):
            raise SchemaError(f"config key {prefix}.name: {name!r} is not a "
                              f"plain file name")
        if name in names:  # files are written per name, so rows would be lost
            raise SchemaError(f"config key {prefix}.name: {name!r} is "
                              f"already the name of {names[name]}")
        names[name] = f"config key {prefix}.name"
        path = config[prefix + ".path"]
        manifest.add_input(path, f"config key {prefix}.path")
        corpus, report = load_dataset(path, cmap, name,
                                      **_given(settings, "data.",
                                               load_dataset))
        corpora[name] = corpus
        sources[name] = f"{prefix}.path = {path}"
        reports.append(report)
        i += 1
    if not corpora:
        raise ArgumentError("no data1.path entry in the configuration")

    # Each dataset is a contiguous slice of the combined corpus, so every
    # split is a set of its rows.
    combined = combine(list(corpora.values()))
    splits, first = {}, 0
    for name, corpus in corpora.items():
        splits[name] = _split_rows(name, sources[name], first, len(corpus),
                                   ratio, seed)
        first += len(corpus)
    splits["combined"] = _split_rows(
        "combined", ", ".join(sources.values()), 0, len(combined), ratio,
        seed)

    tokens = tokenize_corpus(combined, prep)
    vocab = build_vocab(tokens, prep,
                        **_given(settings, "vocab.", build_vocab))
    save_vocab(vocab, manifest.artifact("vocab.txt"))

    with open(manifest.artifact("load_report.txt"), "w",
              encoding="utf-8") as fh:
        for report in reports:
            fh.write(report.render() + "\n")

    stats = seq_length_stats(tokens, prep)
    with open(manifest.artifact("length_stats.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(f"# short-word rule: drop tokens shorter than "
                 f"{prep.min_word_len} characters\n")
        for mode in ("without_removal", "with_removal"):
            s = stats[mode]
            fh.write(f"{mode}\tmean={s['mean']:.2f}\tmax={s['max']}\t"
                     f"p95={s['percentile_95']:.1f}\n")

    encoded = encode_corpus(tokens, vocab, prep)
    for name, parts in splits.items():
        for part, rows in zip(("train", "test"), parts):
            save_encoded(encoded.take(rows),
                         manifest.artifact(f"{name}.{part}.npz"), len(vocab))
    manifest.write()
    return 0


def cmd_train(args) -> int:
    config, settings, manifest = _start("train", args)
    ds, meta = _load_split(config, manifest, "data", "dataset")
    model_cfg, train_cfg = _configs(settings, meta)
    model = Model(model_cfg, RngStreams(train_cfg.seed))
    ckpt, report = train(model, ds.train, ds.test, train_cfg)
    save_checkpoint(ckpt, manifest.artifact("checkpoint.ufnd"))
    with open(manifest.artifact("train_report.txt"), "w",
              encoding="utf-8") as fh:
        fh.write(report.render())
    manifest.write()
    print(f"best validation accuracy {report.best_val_accuracy:.4f} "
          f"(epoch {report.best_epoch})")
    return 0


def cmd_unify(args) -> int:
    config, settings, manifest = _start("unify", args)

    datasets = []
    meta = None
    i = 1
    while f"dataset{i}.train" in config:
        ds, meta = _load_split(config, manifest, f"dataset{i}")
        datasets.append(ds)
        i += 1
    if not datasets:
        raise ArgumentError("no dataset1.train entry in the configuration")
    baselines_path = _required(config, "baselines")
    manifest.add_input(baselines_path, "config key baselines")
    baselines = load_baselines(baselines_path)
    for i, ds in enumerate(datasets, 1):
        if ds.name not in baselines:
            raise DataError(f"{baselines_path}: no baseline for dataset "
                            f"{ds.name!r} (dataset{i} in the config)")

    model_cfg, train_cfg = _configs(settings, meta)
    threshold = settings["unify.threshold"]
    batch_sizes = settings.get("unify.batch_sizes", DEFAULT_BATCH_SIZES)
    _check_cells("unify.batch_sizes", batch_sizes,
                 lambda batch: replace(train_cfg, batch_size=batch))
    for key in ("combined.train", "combined.test"):
        _required(config, key)  # present now; loaded after phase 1

    noprep = None
    if "combined_noprep.train" in config:
        # Loaded and sized before phase 1, from its own vocabulary.
        noprep, noprep_meta = _load_split(config, manifest, "combined_noprep",
                                          "combined-noprep")
        noprep_model_cfg, _ = _configs(settings, noprep_meta)

    result = phase_one(datasets, model_cfg, train_cfg, baselines, threshold,
                       batch_sizes)
    names = [ds.name for ds in datasets]
    header, rows = per_dataset_table(result.cells, names, batch_sizes)
    _write_table(manifest, "table_per_dataset", header, rows)

    if not result.accepted:
        with open(manifest.artifact("infeasibility.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(f"phase 1 infeasible at threshold {threshold}\n")
            for name, deficit in sorted(result.deficits.items()):
                fh.write(f"minimum deficit {name}: {deficit:.4f}\n")
        manifest.write()
        print("phase 1 infeasible; see infeasibility.txt")
        return 0

    best_dataset = max(result.best_metrics,
                       key=lambda n: result.best_metrics[n].accuracy)
    encoder_source = result.best_checkpoints[best_dataset]
    combined, _ = _load_split(config, manifest, "combined")
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
        cells, _, _ = phase_two_sweep(noprep, noprep_model_cfg, train_cfg,
                                      batch_sizes, noprep_source)
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
    config, settings, manifest = _start("ablate", args)
    combined, meta = _load_split(config, manifest, "combined")
    model_cfg, train_cfg = _configs(settings, meta)
    grid = AblationGrid(settings.get("ablate.subsets", DEFAULT_BLOCK_SUBSETS),
                        **_given(settings, "ablate.", AblationGrid))
    _check_cells("ablate.subsets", grid.block_subsets,
                 lambda subset: select_blocks(model_cfg.encoder, subset))
    _check_cells("ablate.batch_sizes", grid.batch_sizes,
                 lambda batch: replace(train_cfg, batch_size=batch))
    rows = ablate(combined, model_cfg, train_cfg, grid)
    header, table_rows = ablation_table(rows)
    _write_table(manifest, "table_ablation", header, table_rows)
    manifest.write()
    return 0


def cmd_eval(args) -> int:
    _, _, manifest = _start("eval", args)
    manifest.add_input(args.checkpoint, "--checkpoint")
    manifest.add_input(args.data, "--data")
    ckpt = load_checkpoint(args.checkpoint, prefix="best/")
    ds, _ = load_encoded(args.data)
    expected = ckpt.config.get("vocab_hash", "")
    if expected and ds.vocab_hash and expected != ds.vocab_hash:
        raise IncompatibilityError(
            f"checkpoint vocab hash {expected} != corpus vocab hash "
            f"{ds.vocab_hash}")
    model, _ = model_from_checkpoint(ckpt)
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
