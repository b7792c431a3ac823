"""Supervised training loop: minibatch iteration, loss / backprop /
clip / Adam stepping, per-epoch validation, best-validation weight
handling, and checkpoint round-tripping.

"Best weights are used for subsequent epochs" is implemented as
restore-on-no-improvement (rollback), so a run ends on its best weights
and a checkpoint stores them once, as `best/`.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .autograd import no_grad
from .checkpoint import Checkpoint
from .classifier import BN_EPS, BN_MOMENTUM, N_CLASSES, HeadConfig, predict
from .encoder import EncoderConfig
from .errors import ArgumentError, IncompatibilityError, NonFiniteError
from .metrics import Metrics, compute_metrics, confusion
from .model import Model, ModelConfig
from .numerics import (AdamState, GELU_VARIANT, RngStreams, adam_step,
                       assert_all_finite, clip_global_norm, nll_loss)
from .textprep import EncodedDataset


# Fields that `TrainConfig` no longer has; checkpoint headers written
# before they went still carry them.
RETIRED_TRAIN_FIELDS = ("dropout_rate", "max_seq_len", "preprocessing_enabled",
                        "best_mode")


@dataclass(frozen=True)
class TrainConfig:
    seed: int
    lr: float = 0.003
    clip: float = 1.0
    epochs: int = 50
    batch_size: int = 32
    freeze_encoder: bool = False
    checked: bool = False

    def __post_init__(self):
        if not (0 < self.lr < math.inf and 0 < self.clip < math.inf):
            raise ArgumentError("lr and clip must be positive and finite")
        if self.epochs < 1:
            raise ArgumentError("epochs must be >= 1")
        if self.batch_size < 2:
            raise ArgumentError("batch_size must be >= 2")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_metrics: Metrics
    seconds: float
    max_pre_clip_norm: float
    clipped_steps: int
    n_steps: int


@dataclass
class TrainReport:
    epochs: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    best_val_accuracy: float = 0.0
    total_seconds: float = 0.0
    metadata: dict = field(default_factory=dict)

    def loss_trace(self) -> list[float]:
        return [r.train_loss for r in self.epochs]

    def render(self) -> str:
        lines = [f"# train report ({self.metadata.get('rng_algorithm', '')}, "
                 f"gelu={self.metadata.get('gelu_variant', '')})"]
        for k, v in sorted(self.metadata.items()):
            lines.append(f"# {k}={v}")
        lines.append("epoch\ttrain_loss\tval_accuracy\tval_precision\t"
                     "val_recall\tval_f1\tseconds\tmax_pre_clip_norm\t"
                     "clipped_steps")
        for r in self.epochs:
            m = r.val_metrics
            lines.append(f"{r.epoch}\t{r.train_loss:.6f}\t{m.accuracy:.6f}\t"
                         f"{m.precision:.6f}\t{m.recall:.6f}\t{m.f1:.6f}\t"
                         f"{r.seconds:.3f}\t{r.max_pre_clip_norm:.6f}\t"
                         f"{r.clipped_steps}")
        lines.append(f"best_epoch\t{self.best_epoch}")
        lines.append(f"best_val_accuracy\t{self.best_val_accuracy:.6f}")
        return "\n".join(lines) + "\n"


def batch_iterator(n: int, batch_size: int, epoch: int, seed: int):
    """Deterministic per-epoch reshuffle; a final short batch of fewer
    than 2 samples is merged into the previous batch."""
    if n < 1:
        raise ArgumentError("batch_iterator requires a nonempty dataset")
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(0xB, epoch))))
    perm = rng.permutation(n)
    batches = [perm[i:i + batch_size] for i in range(0, n, batch_size)]
    if len(batches) > 1 and len(batches[-1]) < 2:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


# Eval and validation score rows in consecutive blocks of about this many
# positions (rows x `max_seq_len`): 12 rows at 120 positions, 32 at 48.
BLOCK_POSITIONS = 1536


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def predict_dataset(model: Model, ds: EncodedDataset) -> np.ndarray:
    """The predicted class of each row of `ds`.

    The blocks (`BLOCK_POSITIONS`) are scored on one thread per CPU the
    process may run on, the calling thread among them, and at most one
    per block; numpy drops the GIL in its products and ufunc loops, so
    they run in parallel.  Rows are independent in eval mode (batch norm
    reads its running statistics and dropout draws nothing) and each
    block is fixed by the data, so the result never depends on the CPU
    count or on thread timing.  An error in a block is raised here, the
    first in block order.  Inference records no graph, so a forward holds
    only the arrays of the block it is in.
    """
    size = max(1, BLOCK_POSITIONS // ds.max_seq_len)
    starts = range(0, len(ds), size)
    preds, errors = [None] * len(starts), [None] * len(starts)
    n_threads = max(1, min(usable_cpus(), len(starts)))

    def score(first_block: int) -> None:
        with no_grad():
            for b in range(first_block, len(starts), n_threads):
                rows = slice(starts[b], starts[b] + size)
                try:
                    preds[b] = predict(model.forward(ds.ids[rows],
                                                     ds.mask[rows], "eval"))
                except Exception as exc:
                    errors[b] = exc

    if n_threads > 1:
        _one_malloc_arena()
    workers = [threading.Thread(target=score, args=(t,))
               for t in range(1, n_threads)]
    for w in workers:
        w.start()
    score(0)
    for w in workers:
        w.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return np.concatenate(preds)


@functools.cache
def _one_malloc_arena() -> None:
    """Have every thread allocate from glibc's main heap (once; a no-op
    without glibc).  By default a worker thread gets an arena of its own,
    whose pages add to the main heap's, and the main heap still holds the
    free space the train steps left: a second arena raises peak RSS."""
    try:
        ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX = 1
    except (OSError, AttributeError, TypeError):
        pass


def evaluate(model: Model, ds: EncodedDataset) -> Metrics:
    if len(ds) == 0:
        raise ArgumentError("evaluate requires a nonempty dataset")
    preds = predict_dataset(model, ds)
    return compute_metrics(confusion(preds, ds.labels))


def make_checkpoint(model: Model, cfg: TrainConfig, adam: dict,
                    best_state: dict, best_epoch: int, best_acc: float,
                    epoch: int, vocab_hash: str) -> Checkpoint:
    """The checkpoint of a run trained on data of vocabulary `vocab_hash`."""
    enc = asdict(model.config.encoder)
    enc["block_subset"] = list(model.config.encoder.block_subset)
    config = {"encoder": enc, "head": asdict(model.config.head),
              "train": asdict(cfg), "vocab_hash": vocab_hash,
              "dtype": np.dtype(model.dtype).str}
    tensors = {"best/" + name: arr.copy() for name, arr in best_state.items()}
    for name, state in adam.items():
        tensors[f"adam/{name}/m"] = state.m.copy()
        tensors[f"adam/{name}/v"] = state.v.copy()
    meta = {"epoch": epoch, "best_epoch": best_epoch,
            "best_val_accuracy": best_acc,
            "adam_t": {name: state.t for name, state in adam.items()},
            "rng_state": model.rng.state(),
            "rng_algorithm": RngStreams.ALGORITHM,
            "gelu_variant": GELU_VARIANT}
    return Checkpoint(config=config, tensors=tensors, meta=meta)


def best_arrays(ckpt: Checkpoint) -> dict[str, np.ndarray]:
    """The checkpoint's `best/` arrays by parameter name, not copied.

    Checkpoints written while blocks had a key bias and head layers 1 and
    2 had biases still hold them; each had zero true gradient.  Softmax
    cancels a key bias, so `attn_k/b` is dropped.  In eval mode the batch
    norm after layer N subtracts its running mean right after the bias is
    added, so `head/lN/b` is subtracted from (a copy of)
    `head/bnN/running_mean`: the same model in exact arithmetic.  Adam
    moments are read by the names of the model's parameters, so those of
    these tensors are never read."""
    state = {name[5:]: arr for name, arr in ckpt.tensors.items()
             if name.startswith("best/") and not name.endswith("/attn_k/b")}
    for n in (1, 2):
        bias = state.pop(f"head/l{n}/b", None)
        if bias is not None:
            mean = f"head/bn{n}/running_mean"
            state[mean] = state[mean] - bias
    return state


def model_config(ckpt: Checkpoint) -> tuple[ModelConfig, np.dtype]:
    """The model config and dtype a checkpoint header records.  Headers
    written before the head config held only its widths carry five more
    head keys; each is dropped if it holds the value the model now uses,
    and is otherwise an `IncompatibilityError`."""
    enc_cfg = dict(ckpt.config["encoder"])
    enc_cfg["block_subset"] = tuple(enc_cfg["block_subset"])
    encoder = EncoderConfig(**enc_cfg)
    head = ckpt.config["head"]
    now = {"d_in": encoder.d_model, "dropout_rate": encoder.dropout_rate,
           "n_classes": N_CLASSES, "bn_momentum": BN_MOMENTUM,
           "bn_eps": BN_EPS}
    for key, value in now.items():
        if head.get(key, value) != value:
            raise IncompatibilityError(f"checkpoint head {key} = {head[key]!r}"
                                       f" but the model uses {value!r}")
    config = ModelConfig(encoder=encoder, head=HeadConfig(
        **{k: v for k, v in head.items() if k not in now}))
    return config, np.dtype(ckpt.config.get("dtype", "<f4"))


def model_from_checkpoint(ckpt: Checkpoint) -> tuple[Model, TrainConfig]:
    """The model whose parameters are the checkpoint's `best/` arrays
    themselves (not copies), and its training config."""
    config, dtype = model_config(ckpt)
    cfg = TrainConfig(**{k: v for k, v in ckpt.config["train"].items()
                         if k not in RETIRED_TRAIN_FIELDS})
    model = Model(config, RngStreams(cfg.seed), dtype=dtype.type,
                  arrays=best_arrays(ckpt))
    model.rng.restore(ckpt.meta["rng_state"])
    return model, cfg


def _train_step(model: Model, params: list, adam: dict, cfg: TrainConfig,
                ds: EncodedDataset, idx: np.ndarray) -> tuple[float, float]:
    """One minibatch step; returns the loss and the pre-clip gradient
    norm.  `loss.backward()` frees the graph block by block as it runs,
    and the graph takes no second backward.  Only `out` and `loss`
    themselves outlive it, and they are freed on return, before the next
    forward or the epoch's validation."""
    model.zero_grad()
    out = model.forward(ds.ids[idx], ds.mask[idx], "train",
                        cfg.freeze_encoder)
    loss = nll_loss(out, ds.labels[idx])
    if cfg.checked and not np.isfinite(loss.data):
        raise NonFiniteError("loss")
    loss.backward()
    pre = clip_global_norm(params, cfg.clip)
    for p in params:
        adam_step(p, adam[p.name])
    if cfg.checked:
        assert_all_finite(params)
    return loss.item(), pre


def train(model: Model, train_ds: EncodedDataset, val_ds: EncodedDataset,
          cfg: TrainConfig, resume: Checkpoint | None = None
          ) -> tuple[Checkpoint, TrainReport]:
    """Train, validating each epoch, and return the best-validation
    checkpoint plus a per-epoch report.  The checkpoint records
    `train_ds.vocab_hash`, which `ufnd eval` checks its data against.
    `resume`, a checkpoint of this model, continues from its `best/`
    weights."""
    if len(train_ds) == 0:
        raise ArgumentError("train requires a nonempty training set")
    if len(val_ds) == 0:
        raise ArgumentError("train requires a nonempty validation set")
    params = model.trainable_parameters(cfg.freeze_encoder)
    adam = {p.name: AdamState.for_param(p, lr=cfg.lr) for p in params}

    # Epoch 1 always beats -1 and takes the first snapshot of `best_state`.
    start_epoch, best_epoch, best_acc = 0, 0, -1.0
    if resume is not None:
        mode = resume.config["train"].get("best_mode", "rollback")
        if mode != "rollback":  # its last weights are not its best/
            raise IncompatibilityError(f"cannot resume a checkpoint trained "
                                       f"with best_mode={mode!r}")
        # The checkpoint must be of this model: each config field and the
        # dtype must agree.
        def flat(config, dtype):
            return {**asdict(config.encoder), **asdict(config.head),
                    "dtype": np.dtype(dtype)}
        theirs = flat(*model_config(resume))
        ours = flat(model.config, model.dtype)
        for key, value in theirs.items():
            if value != ours[key]:
                raise IncompatibilityError(
                    f"cannot resume: checkpoint {key} = {value} but the "
                    f"model has {ours[key]}")
        best_state = best_arrays(resume)  # read, never written
        model.load_state_arrays(best_state)
        model.rng.restore(resume.meta["rng_state"])
        for name, state in adam.items():
            state.resume(resume.tensors[f"adam/{name}/m"].copy(),
                         resume.tensors[f"adam/{name}/v"].copy(),
                         resume.meta["adam_t"][name])
        start_epoch = resume.meta["epoch"]
        best_epoch = resume.meta["best_epoch"]
        best_acc = resume.meta["best_val_accuracy"]

    report = TrainReport(metadata={
        "rng_algorithm": RngStreams.ALGORITHM,
        "gelu_variant": GELU_VARIANT,
        "tokenizer": "whitespace-nonalnum (simplified, not WordPiece)",
        "freeze_encoder": cfg.freeze_encoder,
        "seed": cfg.seed,
        "note": "validation set is the held-out test split; selection and "
                "reporting share it",
    })
    run_start = time.perf_counter()
    for epoch in range(start_epoch + 1, cfg.epochs + 1):
        t0 = time.perf_counter()
        losses = []
        max_pre = 0.0
        clipped = 0
        batches = batch_iterator(len(train_ds), cfg.batch_size, epoch, cfg.seed)
        for idx in batches:
            loss, pre = _train_step(model, params, adam, cfg, train_ds, idx)
            max_pre = max(max_pre, pre)
            if pre > cfg.clip:
                clipped += 1
            losses.append(loss)
        val = evaluate(model, val_ds)
        report.epochs.append(EpochRecord(
            epoch=epoch, train_loss=float(np.mean(losses)), val_metrics=val,
            seconds=time.perf_counter() - t0, max_pre_clip_norm=max_pre,
            clipped_steps=clipped, n_steps=len(batches)))
        if val.accuracy > best_acc:
            best_acc = val.accuracy
            best_epoch = epoch
            best_state = model.snapshot()
        else:
            model.load_state_arrays(best_state)
    report.best_epoch = best_epoch
    report.best_val_accuracy = best_acc
    report.total_seconds = time.perf_counter() - run_start
    ckpt = make_checkpoint(model, cfg, adam, best_state, best_epoch,
                           best_acc, len(report.epochs) + start_epoch,
                           train_ds.vocab_hash)
    return ckpt, report


def estimate_cost(encoder_cfg: EncoderConfig, head_cfg: HeadConfig,
                  seq_len: int, batch_size: int,
                  true_lengths: list[int] | np.ndarray | None = None
                  ) -> float:
    """Multiply-accumulate count per training step (backward = 2x forward).

    Every row counts at `seq_len` positions, unless `true_lengths` gives
    each row's real length.  The encoder then cuts the batch to its widest
    row W: the projections and the feed-forward run on real positions
    only, and the scores and weighted values on W x W per row.  The last
    retained block projects keys and values at every (real) position but
    runs queries, attention, output projection and feed-forward for the
    pooled position only.
    """
    d, ff = encoder_cfg.d_model, encoder_cfg.d_ff
    if true_lengths is None:
        true_lengths = [seq_len] * batch_size
    lengths = [int(n) for n in true_lengths]
    if len(lengths) != batch_size or not all(1 <= n <= seq_len
                                             for n in lengths):
        raise ArgumentError(
            f"true_lengths must hold {batch_size} lengths in [1, {seq_len}]")
    width, real = max(lengths), sum(lengths)

    def block(n_queries, n_attending):
        return (2 * real * d * d                    # K/V projections
                + 2 * n_queries * d * d             # Q/O projections
                + 2 * n_attending * width * d       # scores, weighted values
                + 2 * n_queries * d * ff)           # feed-forward

    n_blocks = len(encoder_cfg.block_subset)
    encoder = (batch_size * width * d
               + (n_blocks - 1) * block(real, batch_size * width)
               + block(batch_size, batch_size))
    head = (d * head_cfg.h1 + head_cfg.h1 * head_cfg.h2
            + head_cfg.h2 * N_CLASSES)
    return 3.0 * (encoder + batch_size * head)
