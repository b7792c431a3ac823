"""Two-phase orchestration: per-dataset constrained training under the
acceptance threshold (phase 1), joint training on the combined corpus
with a freshly initialized head (phase 2), plus the encoder-block
ablation harness."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .checkpoint import Checkpoint
from .encoder import param_count, select_blocks
from .errors import ArgumentError
from .metrics import Metrics, POSITIVE_CLASS_NOTE
from .model import Model, ModelConfig
from .numerics import RngStreams
from .textprep import EncodedDataset
from .trainer import TrainConfig, TrainReport, train

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
    """Delimited baseline table: dataset-id <TAB> accuracy <TAB> citation."""
    baselines = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise ArgumentError(f"bad baseline line: {line!r}")
            baselines[parts[0]] = float(parts[1])
    return baselines


def _cell_seed(base_seed: int, dataset: int, batch: int) -> int:
    # distinct deterministic seed per (dataset, batch size) cell
    return base_seed + 1_009 * dataset + batch


def sweep(split: EncodedSplit, batch_sizes, run
          ) -> tuple[list[TrainedCell], TrainedCell, Checkpoint, TrainReport]:
    """Call `run(batch) -> (checkpoint, report)` at each batch size; return
    one cell per run, plus the cell, checkpoint and report of the first run
    with the highest best validation accuracy.  Only that run's checkpoint
    is kept while the sweep goes on."""
    if not batch_sizes:
        raise ArgumentError(f"{split.name}: no batch sizes to sweep")
    cells = []
    best = None
    for batch in batch_sizes:
        ckpt, report = run(batch)
        cells.append(TrainedCell(
            dataset=split.name, batch_size=batch,
            metrics=report.epochs[report.best_epoch - 1].val_metrics))
        if best is None or (report.best_val_accuracy
                            > best[2].best_val_accuracy):
            best = (cells[-1], ckpt, report)
    return (cells, *best)


def phase_one(datasets: list[EncodedSplit], model_cfg: ModelConfig,
              train_cfg: TrainConfig, baselines: dict[str, float],
              threshold: float,
              batch_sizes=DEFAULT_BATCH_SIZES) -> PhaseOneResult:
    """Train the one shared configuration on every dataset, sweeping only
    the batch size; each dataset keeps its best run (see `sweep`).  Phase 1
    is accepted when every dataset's accuracy deficit against its baseline
    is within the threshold."""
    if threshold <= 0:
        raise ArgumentError("threshold must be positive")
    for ds in datasets:
        if ds.name not in baselines:
            raise ArgumentError(f"no baseline for dataset '{ds.name}'")

    result = PhaseOneResult(accepted=False)
    for di, ds in enumerate(datasets):
        def run(batch):
            cfg = replace(train_cfg, batch_size=batch,
                          seed=_cell_seed(train_cfg.seed, di, batch))
            model = Model(model_cfg, RngStreams(cfg.seed))
            return train(model, ds.train, ds.test, cfg)

        cells, best, ckpt, _ = sweep(ds, batch_sizes, run)
        result.cells.extend(cells)
        result.chosen_batch_sizes[ds.name] = best.batch_size
        result.best_metrics[ds.name] = best.metrics
        result.deficits[ds.name] = baselines[ds.name] - best.metrics.accuracy
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
    cells, _, ckpt, report = sweep(combined, batch_sizes, lambda batch: (
        phase_two(combined, model_cfg, replace(train_cfg, batch_size=batch),
                  encoder_source)))
    return cells, ckpt, report


def ablate(combined: EncodedSplit, model_cfg: ModelConfig,
           train_cfg: TrainConfig,
           grid: AblationGrid = AblationGrid()) -> list[AblationRow]:
    """Train one model per (block subset, batch size) cell and emit one
    row each, ordered subsets-as-given then batch ascending."""
    rows = []
    for subset in grid.block_subsets:
        enc_cfg = select_blocks(model_cfg.encoder, subset)
        mc = ModelConfig(encoder=enc_cfg, head=model_cfg.head)

        def run(batch):
            cfg = replace(train_cfg, batch_size=batch)
            model = Model(mc, RngStreams(cfg.seed))
            return train(model, combined.train, combined.test, cfg)

        cells, *_ = sweep(combined, sorted(grid.batch_sizes), run)
        rows.extend(AblationRow(
            label=f"{','.join(map(str, subset))} ({c.batch_size})",
            subset=tuple(subset), batch_size=c.batch_size,
            metrics=c.metrics, param_count=param_count(enc_cfg))
            for c in cells)
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
