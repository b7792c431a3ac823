"""Two-phase orchestration: per-dataset constrained training under the
acceptance threshold (phase 1), joint training on the combined corpus
with a freshly initialized head (phase 2), plus the encoder-block
ablation harness."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

from .checkpoint import Checkpoint
from .encoder import param_count, select_blocks
from .errors import ArgumentError, DataError, UfndError
from .metrics import Metrics, POSITIVE_CLASS_NOTE
from .model import Model, ModelConfig
from .numerics import RngStreams
from .textprep import EncodedDataset
from .trainer import TrainConfig, TrainReport, train, usable_cpus

DEFAULT_BATCH_SIZES = (16, 32, 64, 128, 256, 512, 1024)
DEFAULT_BLOCK_SUBSETS = ((1, 3, 5, 7, 9, 11), (1, 5, 9), (1, 9), (5,))
METRIC_COLUMNS = ("Accuracy", "Precision", "Recall", "F1-score")


@dataclass(frozen=True)
class EncodedSplit:
    """A named dataset after encoding, with its train/test partition."""
    name: str
    train: EncodedDataset
    test: EncodedDataset


@dataclass
class TrainedCell:
    dataset: str
    batch_size: int
    metrics: Metrics


@dataclass
class PhaseOneResult:
    accepted: bool
    chosen_batch_sizes: dict[str, int] = field(default_factory=dict)
    best_metrics: dict[str, Metrics] = field(default_factory=dict)
    deficits: dict[str, float] = field(default_factory=dict)
    cells: list[TrainedCell] = field(default_factory=list)
    best_checkpoints: dict[str, Checkpoint] = field(default_factory=dict)


@dataclass(frozen=True)
class AblationGrid:
    block_subsets: tuple[tuple[int, ...], ...] = DEFAULT_BLOCK_SUBSETS
    batch_sizes: tuple[int, ...] = (16, 32, 64, 128)


@dataclass
class AblationRow:
    label: str
    subset: tuple[int, ...]
    batch_size: int
    metrics: Metrics
    param_count: int


def check_acceptable(accuracy: float, baseline: float,
                     threshold: float) -> bool:
    """True when the accuracy deficit against the baseline is within the
    threshold (a negative deficit, i.e. exceeding the baseline, passes)."""
    if threshold <= 0:
        raise ArgumentError(f"threshold must be positive, got {threshold}")
    for name, value in (("accuracy", accuracy), ("baseline", baseline)):
        if not 0.0 < value <= 1.0:
            raise ArgumentError(f"{name} must be in (0, 1], got {value}")
    return (baseline - accuracy) <= threshold


def load_baselines(path) -> dict[str, float]:
    """Delimited baseline table: dataset-id <TAB> accuracy <TAB> citation.
    A line without an accuracy in (0, 1], or with a dataset id an earlier
    line gave, is a `DataError` naming the file and the lines."""
    baselines, lines = {}, {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            try:
                accuracy = float(parts[1])
            except (IndexError, ValueError):
                accuracy = math.nan
            if not 0.0 < accuracy <= 1.0:  # false for nan
                raise DataError(f"{path}:{line_no}: expected dataset-id <TAB> "
                                f"accuracy in (0, 1], got {line!r}")
            if parts[0] in lines:
                raise DataError(f"{path}:{line_no}: dataset id {parts[0]!r} "
                                f"repeats line {lines[parts[0]]}")
            baselines[parts[0]], lines[parts[0]] = accuracy, line_no
    return baselines


def _cell_seed(base_seed: int, dataset: int, batch: int) -> int:
    # distinct deterministic seed per (dataset, batch size) cell
    return base_seed + 1_009 * dataset + batch


def run_cells(labels: list[str], train_cell, fold) -> None:
    """Train cell `i` of `labels` by `train_cell(i)` and hand its result
    to `fold(i, result)` in this process as results come in, in no set
    order.

    Of n `usable_cpus()`, this process trains the cells with i % n == 0,
    and one forked worker per further CPU trains another residue class,
    each in cell order; at one CPU, or without `fork`, this process trains
    them all.  Every cell is seeded, so the process that trains it changes
    nothing.  Each process stops at its first error; once all are done,
    the first error in cell order is raised: the cell's own exception, or
    a `UfndError` naming the cell whose worker died.  No worker outlives
    the call.
    """
    n = min(usable_cpus(), len(labels)) if hasattr(os, "fork") else 1
    errors = {}

    def share(k):
        # (i, ok, result or exception) for cells k, k + n, ... up to the
        # first error
        for i in range(k, len(labels), n):
            try:
                yield i, True, train_cell(i)
            except Exception as exc:
                yield i, False, exc
                return

    def take(i, ok, value):
        if ok:
            fold(i, value)
        else:
            errors[i] = value

    if n > 1:
        _run_forked(labels, n, share, take)
    else:
        for item in share(0):
            take(*item)
    if errors:
        raise errors[min(errors)]


def _run_forked(labels, n, share, take) -> None:
    """`run_cells` on n processes: this one takes `share(0)`, and a forked
    worker for each k in 1 .. n-1 sends the items of `share(k)` back.

    A forked worker inherits the cells' data and closures, where a spawned
    one would import the program again and be sent its inputs pickled.
    Forking is safe here because the package leaves no thread running
    between calls (`predict_dataset` joins its own)."""
    import multiprocessing
    from multiprocessing.connection import wait

    # `start` flushes stdout and stderr before it forks, so no worker
    # prints a copy of what they held.
    ctx = multiprocessing.get_context("fork")
    workers = {}  # pipe from a worker -> [worker, the next cell it sends]
    try:
        for k in range(1, n):
            reader, writer = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_send_all, args=(share(k), writer))
            worker.start()
            writer.close()  # so `reader` reads EOF once the worker is gone
            workers[reader] = [worker, k]

        def receive(timeout) -> bool:
            ready = wait(list(workers), timeout)
            for reader in ready:
                worker, i = workers[reader]
                try:
                    item = reader.recv()
                except EOFError:
                    del workers[reader]
                    reader.close()
                    worker.join()
                    # A worker that stopped at an error reads as dead at a
                    # later cell, which never comes first.
                    if i < len(labels):
                        take(i, False, UfndError(
                            f"{labels[i]}: the worker process training it "
                            f"died (exit code {worker.exitcode})"))
                    continue
                take(*item)
                workers[reader][1] = i + n
            return bool(ready)

        for item in share(0):
            take(*item)
            while workers and receive(0):
                pass
        while workers:
            receive(None)
    finally:
        for worker, _ in workers.values():
            worker.terminate()
            worker.join()


def _send_all(items, conn) -> None:
    for item in items:
        conn.send(item)
    conn.close()


def sweep(names: list[str], batch_sizes, train_cell
          ) -> tuple[list[TrainedCell], list[tuple[TrainedCell, object]]]:
    """Train one cell per group g (on dataset `names[g]`) and batch size,
    group by group, through `run_cells`.  `train_cell(g, batch)` returns
    the run's report and a payload.  Return every cell in cell order and,
    for each group, the cell and payload of its first run with the highest
    best validation accuracy.  Only those payloads are kept while the
    results come in."""
    if not batch_sizes:
        raise ArgumentError(f"{', '.join(names)}: no batch sizes to sweep")
    grid = [(g, batch) for g in range(len(names)) for batch in batch_sizes]
    cells = [None] * len(grid)
    best = [None] * len(names)  # per group: (accuracy, cell, payload)

    def fold(i, result):
        report, payload = result
        g, batch = grid[i]
        cells[i] = TrainedCell(
            dataset=names[g], batch_size=batch,
            metrics=report.epochs[report.best_epoch - 1].val_metrics)
        accuracy = report.best_val_accuracy
        if (best[g] is None or accuracy > best[g][0]
                or (accuracy == best[g][0] and i < best[g][1])):
            best[g] = (accuracy, i, payload)

    run_cells([f"dataset {names[g]}, batch size {batch}"
               for g, batch in grid],
              lambda i: train_cell(*grid[i]), fold)
    return cells, [(cells[i], payload) for _, i, payload in best]


def phase_one(datasets: list[EncodedSplit], model_cfg: ModelConfig,
              train_cfg: TrainConfig, baselines: dict[str, float],
              threshold: float,
              batch_sizes=DEFAULT_BATCH_SIZES) -> PhaseOneResult:
    """Train the one shared configuration on every dataset, sweeping only
    the batch size; each dataset keeps its best run (see `sweep`), as a
    checkpoint of its `best/encoder/*` arrays, the only ones `phase_two`
    reads.  Phase 1 is accepted when every dataset's accuracy deficit
    against its baseline is within the threshold."""
    if threshold <= 0:
        raise ArgumentError("threshold must be positive")
    for ds in datasets:
        if ds.name not in baselines:
            raise ArgumentError(f"no baseline for dataset '{ds.name}'")

    def train_cell(di, batch):
        ds = datasets[di]
        cfg = replace(train_cfg, batch_size=batch,
                      seed=_cell_seed(train_cfg.seed, di, batch))
        ckpt, report = train(Model(model_cfg, RngStreams(cfg.seed)),
                             ds.train, ds.test, cfg)
        return report, replace(ckpt, tensors={
            name: arr for name, arr in ckpt.tensors.items()
            if name.startswith("best/encoder/")})

    cells, best = sweep([ds.name for ds in datasets], batch_sizes,
                        train_cell)
    result = PhaseOneResult(accepted=False, cells=cells)
    for ds, (cell, ckpt) in zip(datasets, best):
        result.chosen_batch_sizes[ds.name] = cell.batch_size
        result.best_metrics[ds.name] = cell.metrics
        result.deficits[ds.name] = baselines[ds.name] - cell.metrics.accuracy
        result.best_checkpoints[ds.name] = ckpt
    result.accepted = all(d <= threshold for d in result.deficits.values())
    return result


def phase_two(combined: EncodedSplit, model_cfg: ModelConfig,
              train_cfg: TrainConfig,
              encoder_source: Checkpoint | None = None
              ) -> tuple[Checkpoint, TrainReport]:
    """Joint training on the combined dataset.

    The classifier head is always freshly initialized; the encoder may
    optionally be seeded from a phase-1 checkpoint (transfer) or left at
    its fresh random initialization.
    """
    model = Model(model_cfg, RngStreams(train_cfg.seed))
    if encoder_source is not None:
        for p in model.encoder_params.parameters():
            key = "best/" + p.name
            source = encoder_source.tensors.get(key)
            # skip shape mismatches (e.g. position table at another seq len)
            if source is not None and source.shape == p.data.shape:
                p.data = source.astype(p.data.dtype, copy=True)
    model.reinit_head()
    return train(model, combined.train, combined.test, train_cfg)


def phase_two_sweep(combined: EncodedSplit, model_cfg: ModelConfig,
                    train_cfg: TrainConfig, batch_sizes=DEFAULT_BATCH_SIZES,
                    encoder_source: Checkpoint | None = None
                    ) -> tuple[list[TrainedCell], Checkpoint, TrainReport]:
    """Run `phase_two` at each batch size through `sweep`; return every
    cell, and the checkpoint and report of the run `sweep` picks."""
    def train_cell(_, batch):
        ckpt, report = phase_two(combined, model_cfg,
                                 replace(train_cfg, batch_size=batch),
                                 encoder_source)
        return report, (ckpt, report)

    cells, [(_, (ckpt, report))] = sweep([combined.name], batch_sizes,
                                         train_cell)
    return cells, ckpt, report


def ablate(combined: EncodedSplit, model_cfg: ModelConfig,
           train_cfg: TrainConfig,
           grid: AblationGrid = AblationGrid()) -> list[AblationRow]:
    """Train one model per (block subset, batch size) cell through `sweep`
    and emit one row each, ordered subsets-as-given then batch ascending."""
    configs = [ModelConfig(encoder=select_blocks(model_cfg.encoder, subset),
                           head=model_cfg.head)
               for subset in grid.block_subsets]
    batch_sizes = sorted(grid.batch_sizes)

    def train_cell(g, batch):
        cfg = replace(train_cfg, batch_size=batch)
        _, report = train(Model(configs[g], RngStreams(cfg.seed)),
                          combined.train, combined.test, cfg)
        return report, None

    blocks = [",".join(map(str, subset)) for subset in grid.block_subsets]
    cells, _ = sweep([f"{combined.name} with blocks {b}" for b in blocks],
                     batch_sizes, train_cell)
    rows = []
    for i, c in enumerate(cells):
        g = i // len(batch_sizes)
        rows.append(AblationRow(
            label=f"{blocks[g]} ({c.batch_size})",
            subset=tuple(grid.block_subsets[g]), batch_size=c.batch_size,
            metrics=c.metrics, param_count=param_count(configs[g].encoder)))
    return rows


# -- table emission ----------------------------------------------------


def render_delimited(header: list[str], rows: list[list]) -> str:
    lines = ["# " + POSITIVE_CLASS_NOTE, "\t".join(header)]
    for row in rows:
        lines.append("\t".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def render_aligned(header: list[str], rows: list[list]) -> str:
    table = [header] + [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = ["# " + POSITIVE_CLASS_NOTE]
    for r in table:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.4f}"
    return str(v)


def per_dataset_table(cells: list[TrainedCell], datasets: list[str],
                      batch_sizes) -> tuple[list[str], list[list]]:
    """Batch-size rows x (dataset x 4 metrics) columns."""
    header = ["Minibatch size"]
    for name in datasets:
        header.extend(f"{name} {m}" for m in METRIC_COLUMNS)
    index = {(c.dataset, c.batch_size): c.metrics for c in cells}
    rows = []
    for batch in batch_sizes:
        row = [batch]
        for name in datasets:
            m = index[(name, batch)]
            row.extend([m.accuracy, m.precision, m.recall, m.f1])
        rows.append(row)
    return header, rows


def sweep_table(cells: list[TrainedCell]) -> tuple[list[str], list[list]]:
    """Batch-size rows x 4 metric columns (combined-dataset sweeps)."""
    header = ["Minibatch size", *METRIC_COLUMNS]
    rows = [[c.batch_size, c.metrics.accuracy, c.metrics.precision,
             c.metrics.recall, c.metrics.f1]
            for c in sorted(cells, key=lambda c: c.batch_size)]
    return header, rows


def ablation_table(rows: list[AblationRow]) -> tuple[list[str], list[list]]:
    header = ["Encoder Blocks (mini batch size)", *METRIC_COLUMNS,
              "Parameters"]
    out = [[r.label, r.metrics.accuracy, r.metrics.precision,
            r.metrics.recall, r.metrics.f1, r.param_count] for r in rows]
    return header, out
