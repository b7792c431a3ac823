"""Checks on what the CLI wrote, each against an oracle from `inputs` or a
property the method must have.  Every check raises `CheckError` with the
file and the first disagreement it finds."""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import numpy as np

from inputs import CLS_ID, Encoded

# Digits each file prints: metrics.txt and train_report.txt use 6, the
# unify tables, phase_one.txt and unify's stdout use 4.
TOL6 = 0.5e-6 + 1e-12
TOL4 = 0.5e-4 + 1e-12


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def check_encoded(path, want: Encoded) -> np.ndarray:
    """Row by row: leading CLS, true length, mask, ids and labels.
    Returns the file's labels."""
    with np.load(path) as data:
        ids, mask = data["ids"], data["mask"]
        lengths, labels = data["true_lengths"], data["labels"]
    _require(ids.shape == want.ids.shape,
             f"{path}: ids shape {ids.shape}, expected {want.ids.shape}")
    real = np.arange(ids.shape[1])[None, :] < want.true_lengths[:, None]
    for what, bad in (
            ("no leading CLS", ids[:, 0] != CLS_ID),
            ("true length differs from the oracle",
             lengths != want.true_lengths),
            ("mask is not 1 on exactly the first true-length positions",
             (mask != 0) != real),
            ("mask sum differs from the oracle's true length",
             mask.sum(axis=1) != want.true_lengths),
            ("ids differ from the oracle (PAD is 0)", ids != want.ids),
            ("label differs from the oracle", labels != want.labels)):
        rows = np.nonzero(bad.reshape(len(bad), -1).any(axis=1))[0]
        _require(len(rows) == 0,
                 f"{path}: row {rows[0] if len(rows) else 0}: {what}")
    return labels


def check_split_counts(train_labels, test_labels, whole_labels,
                       where: str) -> None:
    """The label counts of the two parts add up to the corpus's."""
    got = (np.bincount(train_labels, minlength=2)
           + np.bincount(test_labels, minlength=2))
    want = np.bincount(np.asarray(whole_labels), minlength=2)
    _require(np.array_equal(got, want),
             f"{where}: split label counts {got.tolist()} != corpus "
             f"{want.tolist()}")


def read_eval_metrics(path) -> dict:
    values = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#") or not line:
            continue
        key, *rest = line.split("\t")
        if key == "confusion":
            values.update({k: int(v) for k, v in
                           (item.split("=") for item in rest)})
        else:
            values[key] = float(rest[0])
    return values


def check_eval_metrics(values: dict, labels: np.ndarray, where: str) -> None:
    """Cells sum to the rows, tp + fn to the positives, and the four
    metrics recompute from the cells."""
    tp, fp, fn, tn = (values[k] for k in ("tp", "fp", "fn", "tn"))
    n = len(labels)
    _require(tp + fp + fn + tn == n,
             f"{where}: confusion cells sum to {tp + fp + fn + tn}, file has "
             f"{n} rows")
    positives = int(np.sum(labels == 1))
    _require(tp + fn == positives,
             f"{where}: tp + fn = {tp + fn}, file has {positives} of label 1")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    for key, want in (("accuracy", (tp + tn) / n), ("precision", precision),
                      ("recall", recall), ("f1", f1)):
        _require(abs(values[key] - want) <= TOL6,
                 f"{where}: {key} {values[key]} does not recompute from the "
                 f"cells ({want:.6f})")


def read_best_val_accuracy(report_path) -> float:
    for line in Path(report_path).read_text(encoding="utf-8").splitlines():
        if line.startswith("best_val_accuracy\t"):
            return float(line.split("\t")[1])
    raise CheckError(f"{report_path}: no best_val_accuracy line")


def check_same_accuracy(eval_accuracy: float, reported: float, tol: float,
                        where: str) -> None:
    """Same weights and rows give the same accuracy."""
    _require(abs(eval_accuracy - reported) <= tol,
             f"{where}: eval accuracy {eval_accuracy} != reported {reported}")


def check_beats_majority(accuracy: float, labels: np.ndarray, margin: float,
                         where: str) -> None:
    majority = max(np.mean(labels == 0), np.mean(labels == 1))
    _require(accuracy >= majority + margin,
             f"{where}: accuracy {accuracy} does not beat the majority rate "
             f"{majority:.4f} by {margin}")


def check_checkpoint_file(path) -> None:
    """Magic, version, header and the payload CRC-32, read without
    `ufnd.checkpoint`."""
    blob = Path(path).read_bytes()
    _require(len(blob) >= 16 and blob[:4] == b"UFND", f"{path}: bad magic")
    _version, header_len = struct.unpack("<II", blob[4:12])
    header_end = 12 + header_len
    _require(len(blob) >= header_end + 4, f"{path}: truncated")
    try:
        header = json.loads(blob[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckError(f"{path}: unreadable header: {exc}") from exc
    payload = blob[header_end:-4]
    (crc,) = struct.unpack("<I", blob[-4:])
    _require(zlib.crc32(payload) & 0xFFFFFFFF == crc,
             f"{path}: payload CRC-32 mismatch")
    end = max((e["offset"] + e["nbytes"] for e in header["directory"]),
              default=0)
    _require(end == len(payload),
             f"{path}: directory covers {end} of {len(payload)} payload bytes")


def check_identical(blob: bytes, first: bytes, where: str) -> None:
    """Fixed seed and inputs: every run writes the first run's bytes."""
    _require(blob == first,
             f"{where}: checkpoint differs from the first run's "
             f"({len(blob)} vs {len(first)} bytes)")


# -- unify ---------------------------------------------------------------


def read_table(path) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in Path(path).read_text(encoding="utf-8")
             .splitlines() if line and not line.startswith("#")]
    rows = [line.split("\t") for line in lines]
    return rows[0], rows[1:]


def read_phase_one(path) -> tuple[bool, dict[str, dict]]:
    accepted = False
    chosen = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        fields = line.split("\t")
        if fields[0] == "accepted":
            accepted = fields[1] == "true"
        elif len(fields) == 4:
            kv = dict(f.split("=") for f in fields[1:])
            chosen[fields[0]] = {"batch": int(kv["batch"]),
                                 "accuracy": float(kv["accuracy"]),
                                 "deficit": float(kv["deficit"])}
    return accepted, chosen


def check_unify_tables(header: list[str], rows: list[list[str]],
                       chosen: dict[str, dict], baselines: dict[str, float],
                       batch_sizes: tuple[int, ...], where: str) -> None:
    """One row per batch size, 1 + 4 x datasets columns, and each deficit
    equal to baseline - table accuracy at the chosen batch size."""
    names = list(baselines)
    _require(len(header) == 1 + 4 * len(names),
             f"{where}: {len(header)} columns, expected {1 + 4 * len(names)}")
    _require([int(r[0]) for r in rows] == list(batch_sizes),
             f"{where}: rows {[r[0] for r in rows]}, expected {batch_sizes}")
    _require(sorted(chosen) == sorted(names),
             f"{where}: phase 1 lists {sorted(chosen)}, expected {names}")
    for di, name in enumerate(names):
        pick = chosen[name]
        row = rows[list(batch_sizes).index(pick["batch"])]
        table_acc = float(row[1 + 4 * di])
        want = baselines[name] - table_acc
        _require(abs(pick["deficit"] - want) <= 2 * TOL4,
                 f"{where}: {name} deficit {pick['deficit']} != baseline "
                 f"{baselines[name]} - table accuracy {table_acc}")
