"""The three workloads, and one round of each: a closed sequence of CLI
commands (`ufnd.cli.main`), run one after another in this process, then
checked against the oracles."""

from __future__ import annotations

import io
import shutil
import statistics
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from checks import CheckError
from inputs import (DatasetSpec, expected_prep, make_docs, make_lexicon,
                    write_csv)

PROGRAM_SEED = 20220   # train.seed; the benchmark seed only shapes the inputs
LABEL_MAP = "REAL:0,FAKE:1"


@dataclass(frozen=True)
class Workload:
    name: str
    datasets: tuple[DatasetSpec, ...]
    config: dict                  # key=value lines every command reads
    train_on: str | None = None   # dataset `ufnd train` fits and validates on
    eval_on: tuple[str, ...] = ()  # encoded files `ufnd eval` scores
    unify_batch_sizes: tuple[int, ...] = ()
    majority_margin: float | None = None  # best_val_accuracy must beat this

    def cfg(self, key: str) -> str:
        return str(self.config[key])


DESK = {"prep.min_word_len": 3, "prep.max_seq_len": 120,
        "vocab.max_size": 8000, "train.seed": PROGRAM_SEED}

WORKLOADS = {w.name: w for w in (
    # Real lengths 10-60 of 120 positions: most encoder work is on PAD.
    # `bulk` fills the vocabulary and gives prep enough work to time; the
    # `hold` test splits give eval enough rows to time in 12-row files.
    # Xavier init scales the token table by its row count.  At 200 words
    # it starts about as wide as the position table (0.15 vs 0.18), and
    # 18 steps learn the marker task on every seed tried; at 1000 (0.075)
    # some seeds stayed at the majority rate for 3-5 epochs.
    Workload(
        name="train-padded",
        datasets=(DatasetSpec("news", 60, (9, 59), 0.35, 1.0),
                  DatasetSpec("bulk", 6000, (9, 59), 0.35, 1.0))
        + tuple(DatasetSpec(f"hold{i}", 60, (9, 59), 0.35, 1.0)
                for i in range(1, 4)),
        config={**DESK, "vocab.max_size": 200, "split.ratio": 0.8,
                "train.epochs": 3, "train.batch_size": 8, "train.lr": 0.001},
        train_on="news",
        eval_on=("news.test", "hold1.test", "hold2.test", "hold3.test"),
        majority_margin=0.25),
    # Every row fills all 120 positions after the rule (no PAD); most time
    # is tokenising long documents and eval-mode forward passes.  Test
    # files stay at 48 rows because `predict_dataset` keeps a whole
    # batch's autograd graph (about 1 GB at 48 rows).  `bulk` is prepped
    # but not scored.
    Workload(
        name="eval-full",
        datasets=tuple(DatasetSpec(f"shard{i}", 60, (200, 300), 0.3, 0.3)
                       for i in range(1, 5))
        + (DatasetSpec("bulk", 480, (200, 300), 0.3, 0.3),),
        config={**DESK, "split.ratio": 0.2, "train.epochs": 1,
                "train.batch_size": 6},
        train_on="shard1",
        eval_on=tuple(f"shard{i}.test" for i in range(1, 5))),
    # Many short train() calls: two blocks, 48-position rows, a two-size
    # grid.  Baseline 0.5 with threshold 0.5 accepts phase 1 at any
    # accuracy.  Documents run past 48 tokens so prep has work to time.
    Workload(
        name="unify-compact",
        datasets=tuple(DatasetSpec(name, 40, (200, 400), 0.35, 1.0)
                       for name in ("alpha", "beta", "gamma")),
        config={**DESK, "prep.max_seq_len": 48, "split.ratio": 0.8,
                "train.epochs": 2, "train.lr": 0.001,
                "model.block_subset": "1,9", "unify.threshold": 0.5,
                "unify.batch_sizes": "8,16"},
        eval_on=("combined.test", "combined.train"),
        unify_batch_sizes=(8, 16)),
)}
BASELINE = 0.5


@dataclass
class Command:
    kind: str       # prep, train, unify or eval
    argv: list
    eval_file: str | None = None


@dataclass
class Plan:
    """Inputs made once per run; every round repeats the same commands."""
    workload: Workload
    work: Path
    commands: list
    expected: dict                 # "<name>.<train|test>" -> Encoded
    labels: dict                   # dataset name -> all labels
    train_docs: int
    eval_rows: int
    first_checkpoint: bytes | None = None


@dataclass
class RoundResult:
    seconds: dict = field(default_factory=dict)   # kind -> wall seconds
    pipeline_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)  # failed commands
    check_error: str | None = None


def prepare(workload: Workload, seed: int, work: Path) -> Plan:
    """Write the seeded CSV files and config; compute the oracles."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    max_size = int(workload.cfg("vocab.max_size"))
    lexicon = make_lexicon(rng, max_size + max_size // 2)
    named_docs = {}
    for spec in workload.datasets:
        named_docs[spec.name] = make_docs(spec, lexicon, rng)
        write_csv(named_docs[spec.name], work / f"{spec.name}.csv")
    ratio = float(workload.cfg("split.ratio"))
    expected = expected_prep(named_docs, max_size,
                             int(workload.cfg("prep.max_seq_len")), ratio,
                             int(workload.cfg("train.seed")))
    labels = {name: np.array([d.label for d in docs])
              for name, docs in named_docs.items()}
    labels["combined"] = np.concatenate(list(labels.values()))

    prep_dir, out = work / "prep", work / "out"
    lines = dict(workload.config)
    for i, spec in enumerate(workload.datasets, 1):
        lines.update({f"data{i}.path": work / f"{spec.name}.csv",
                      f"data{i}.name": spec.name,
                      f"data{i}.text_columns": "title,text",
                      f"data{i}.label_column": "label",
                      f"data{i}.label_mapping": LABEL_MAP})
    epochs = int(workload.cfg("train.epochs"))
    commands = [Command("prep", ["prep", "--out", str(prep_dir)])]
    if workload.unify_batch_sizes:
        names = [spec.name for spec in workload.datasets]
        for i, name in enumerate(names, 1):
            lines.update({f"dataset{i}.name": name,
                          f"dataset{i}.train": prep_dir / f"{name}.train.npz",
                          f"dataset{i}.test": prep_dir / f"{name}.test.npz"})
        lines.update({"combined.train": prep_dir / "combined.train.npz",
                      "combined.test": prep_dir / "combined.test.npz",
                      "baselines": work / "baselines.tsv"})
        (work / "baselines.tsv").write_text(
            "".join(f"{n}\t{BASELINE}\tbenchmark floor\n" for n in names),
            encoding="utf-8")
        commands.append(Command("unify", ["unify", "--out", str(out)]))
        checkpoint = out / "unified_checkpoint.ufnd"
        rows = sum(expected[f"{n}.train"].n_rows for n in names + ["combined"])
        train_docs = epochs * rows * len(workload.unify_batch_sizes)
    else:
        stem = prep_dir / workload.train_on
        lines.update({"data.train": f"{stem}.train.npz",
                      "data.test": f"{stem}.test.npz"})
        commands.append(Command("train", ["train", "--out", str(out)]))
        checkpoint = out / "checkpoint.ufnd"
        train_docs = epochs * expected[f"{workload.train_on}.train"].n_rows
    for stem in workload.eval_on:
        commands.append(Command(
            "eval", ["eval", "--out", str(work / f"eval-{stem}"),
                     "--checkpoint", str(checkpoint),
                     "--data", str(prep_dir / f"{stem}.npz")], eval_file=stem))
    (work / "bench.cfg").write_text(
        "".join(f"{k}={v}\n" for k, v in lines.items()), encoding="utf-8")
    for cmd in commands:
        cmd.argv += ["--config", str(work / "bench.cfg")]
    return Plan(workload=workload, work=work, commands=commands,
                expected=expected, labels=labels,
                train_docs=train_docs,
                eval_rows=sum(expected[s].n_rows for s in workload.eval_on))


def run_round(plan: Plan, main) -> RoundResult:
    """Run the command sequence once, timing each command, then check
    what it wrote.  `main` is `ufnd.cli.main`."""
    result = RoundResult()
    outputs = {}
    start = time.perf_counter()
    for cmd in plan.commands:
        buf, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf), redirect_stderr(err):
                rc = main(cmd.argv)
        except Exception:  # a crash is one failed command; keep going
            rc = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        result.seconds[cmd.kind] = result.seconds.get(cmd.kind, 0.0) + dt
        result.attempted += 1
        if rc != 0:
            result.failed += 1
            result.problems.append(
                f"{cmd.argv[0]} exited {rc}: "
                f"{err.getvalue().strip()[-500:]}")
        outputs[cmd.eval_file or cmd.kind] = buf.getvalue()
    result.pipeline_s = time.perf_counter() - start
    if not result.failed:
        try:
            check_round(plan, outputs)
        except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
            # a missing or unparsable output fails its check too
            result.check_error = repr(exc)
    return result


def check_round(plan: Plan, outputs: dict) -> None:
    w, work = plan.workload, plan.work
    written = {stem: checks.check_encoded(work / "prep" / f"{stem}.npz", want)
               for stem, want in plan.expected.items()}
    for name, labels in plan.labels.items():
        checks.check_split_counts(written[f"{name}.train"],
                                  written[f"{name}.test"], labels, name)
    evals = {}
    for stem in w.eval_on:
        values = checks.read_eval_metrics(
            work / f"eval-{stem}" / "metrics.txt")
        checks.check_eval_metrics(values, plan.expected[stem].labels, stem)
        evals[stem] = values
    if w.unify_batch_sizes:
        checkpoint = work / "out" / "unified_checkpoint.ufnd"
        accepted, chosen = checks.read_phase_one(work / "out" / "phase_one.txt")
        if not accepted:
            raise CheckError("phase 1 was not accepted")
        header, rows = checks.read_table(work / "out" / "table_per_dataset.tsv")
        checks.check_unify_tables(
            header, rows, chosen, {s.name: BASELINE for s in w.datasets},
            w.unify_batch_sizes, "unify")
        printed = float(outputs["unify"].split()[-1])
        checks.check_same_accuracy(evals["combined.test"]["accuracy"], printed,
                                   checks.TOL4, "unified checkpoint")
    else:
        checkpoint = work / "out" / "checkpoint.ufnd"
        best = checks.read_best_val_accuracy(work / "out" / "train_report.txt")
        stem = f"{w.train_on}.test"
        checks.check_same_accuracy(evals[stem]["accuracy"], best,
                                   checks.TOL6, "train")
        if w.majority_margin is not None:
            checks.check_beats_majority(best, plan.expected[stem].labels,
                                        w.majority_margin, "train")
    checks.check_checkpoint_file(checkpoint)
    blob = checkpoint.read_bytes()
    if plan.first_checkpoint is None:
        plan.first_checkpoint = blob
    checks.check_identical(blob, plan.first_checkpoint, str(checkpoint))


def round_rates(plan: Plan, r: RoundResult) -> dict:
    train_s = r.seconds.get("train", r.seconds.get("unify"))
    return {"pipeline_s": r.pipeline_s,
            "train_docs_per_s": plan.train_docs / train_s,
            "eval_docs_per_s": plan.eval_rows / r.seconds["eval"]}


def median_of(rounds: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}

