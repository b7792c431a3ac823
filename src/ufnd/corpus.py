"""Dataset ingestion, label encoding, deterministic split indices, and
corpus combination.

The three public fake-news datasets have heterogeneous schemas, so
loading is driven by a per-dataset column map: which columns hold text
(concatenated with single spaces, in order), which holds the label, and
how label strings map onto {0 = real, 1 = fake}.

A split is a pair of row-index arrays (`split_indices`), taken from the
encoded dataset with `EncodedDataset.take`; a corpus itself is never cut.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentError, DataError, EmptyCorpusError, SchemaError

@dataclass(frozen=True)
class Document:
    text: str
    label: int
    source: str

    def __post_init__(self):
        if self.label not in (0, 1):
            raise ArgumentError(f"label must be 0 or 1, got {self.label}")


@dataclass(frozen=True)
class Corpus:
    docs: tuple[Document, ...]
    name: str

    def __len__(self):
        return len(self.docs)

    def __iter__(self):
        return iter(self.docs)

    def __getitem__(self, i):
        return self.docs[i]


@dataclass(frozen=True)
class ColumnMap:
    text_columns: tuple[str, ...]
    label_column: str
    label_mapping: dict[str, int]


@dataclass
class LoadReport:
    name: str
    rows_read: int = 0
    rows_dropped_empty: int = 0
    label_histogram: dict[int, int] = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"dataset: {self.name}",
            f"rows_read: {self.rows_read}",
            f"rows_dropped_empty: {self.rows_dropped_empty}",
            f"rows_kept: {self.rows_read - self.rows_dropped_empty}",
        ]
        for label in sorted(self.label_histogram):
            lines.append(f"label_{label}_count: {self.label_histogram[label]}")
        return "\n".join(lines) + "\n"


def load_dataset(path, column_map: ColumnMap, name: str,
                 delimiter: str = ",") -> tuple[Corpus, LoadReport]:
    """Read a delimited text file with a header row into a Corpus.

    Rows whose concatenated text is empty are dropped and counted in the
    report; an unmappable label raises with the offending row number.
    """
    report = LoadReport(name=name)
    docs = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None:
            raise EmptyCorpusError(f"{path}: file is empty")
        needed = list(column_map.text_columns) + [column_map.label_column]
        for col in needed:
            if col not in reader.fieldnames:
                raise SchemaError(f"{path}: missing column '{col}'")
        for row_no, row in enumerate(reader, start=2):
            report.rows_read += 1
            raw_label = row[column_map.label_column]
            if raw_label not in column_map.label_mapping:
                raise DataError(
                    f"{path}: row {row_no}: unmappable label {raw_label!r}")
            label = column_map.label_mapping[raw_label]
            text = " ".join(
                (row[c] or "") for c in column_map.text_columns).strip()
            if not text:
                report.rows_dropped_empty += 1
                continue
            docs.append(Document(text=text, label=label, source=name))
            report.label_histogram[label] = report.label_histogram.get(label, 0) + 1
    if report.rows_read == 0:
        raise EmptyCorpusError(f"{path}: no data rows")
    return Corpus(docs=tuple(docs), name=name), report


def split_indices(n: int, ratio: float, seed: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Train and test row indices of a deterministic shuffle-then-cut split
    of `n` rows; train size = floor(ratio * n), and either part may be
    empty."""
    if not 0.0 < ratio < 1.0:
        raise ArgumentError(f"split ratio must be in (0, 1), got {ratio}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    perm = rng.permutation(n)
    n_train = math.floor(ratio * n)
    return perm[:n_train], perm[n_train:]


def combine(corpora: list[Corpus]) -> Corpus:
    """Concatenate corpora, preserving each document's source tag."""
    if not corpora:
        raise ArgumentError("combine requires at least one corpus")
    docs = tuple(doc for c in corpora for doc in c.docs)
    name = "+".join(c.name for c in corpora)
    return Corpus(docs=docs, name=name)
