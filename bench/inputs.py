"""Seeded CSV corpora for the benchmark, and oracles for what `ufnd prep`
must make of them.

The documents follow the marker-word task of `ufnd.synthetic`: fake
documents carry marker words, real ones never do, so the task is
separable by construction.  Around the markers sit pseudo-words from a
seeded lexicon (large enough to fill `vocab.max_size`) and 1-2-letter
words at a set share, which the short-word rule must drop.

The oracles never call `ufnd.textprep` or `ufnd.corpus`.  They follow the
documented contracts: a document's tokens are its words of at least three
letters; the vocabulary ranks tokens by descending count, ties broken
lexicographically, after three special ids; a row is CLS plus the first
`max_seq_len - 1` token ids, right-padded with 0; the split is a numpy
PCG64 permutation seeded with `train.seed`, train = floor(ratio * n).
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

MARKERS = ("hoax", "shocking", "exposed", "conspiracy", "clickbait")
SHORT_WORDS = ("a", "i", "an", "as", "at", "be", "by", "do", "go", "he",
               "if", "in", "is", "it", "me", "my", "no", "of", "on", "or",
               "so", "to", "up", "us", "we")
CONSONANTS = "bcdfghjklmnprstvz"
VOWELS = "aeiou"
PAD_ID, UNK_ID, CLS_ID = 0, 1, 2
N_SPECIAL = 3
MIN_WORD_LEN = 3
LABEL_NAMES = ("REAL", "FAKE")


@dataclass(frozen=True)
class DatasetSpec:
    """One CSV file: its size and the make-up of its documents."""
    name: str
    n_docs: int
    long_words: tuple[int, int]  # inclusive range of >=3-letter words
    short_share: float           # share of 1-2-letter words among all
    marker_share: float          # share of a fake doc's long words


@dataclass(frozen=True)
class Doc:
    words: tuple[str, ...]
    label: int


def make_lexicon(rng: np.random.Generator, size: int) -> list[str]:
    """`size` distinct pseudo-words of 4-8 letters (2-4 CV syllables)."""
    words: dict[str, None] = {}
    while len(words) < size:
        n = size - len(words) + 64
        cons = rng.integers(0, len(CONSONANTS), size=(n, 4))
        vows = rng.integers(0, len(VOWELS), size=(n, 4))
        syllables = rng.integers(2, 5, size=n)
        for c, v, s in zip(cons, vows, syllables):
            w = "".join(CONSONANTS[c[j]] + VOWELS[v[j]] for j in range(s))
            if w not in MARKERS:
                words.setdefault(w)
    return list(words)[:size]


def make_docs(spec: DatasetSpec, lexicon: list[str],
              rng: np.random.Generator) -> list[Doc]:
    """Balanced documents (label = row index mod 2) drawn per `spec`."""
    lo, hi = spec.long_words
    n_long = rng.integers(lo, hi + 1, size=spec.n_docs)
    zipf = 1.0 / (np.arange(len(lexicon)) + 5.0)
    picks = rng.choice(len(lexicon), size=int(n_long.sum()),
                       p=zipf / zipf.sum())
    docs = []
    offset = 0
    for i, k in enumerate(n_long):
        label = i % 2
        long = [lexicon[j] for j in picks[offset:offset + k]]
        offset += k
        if label == 1:
            m = min(k, max(2, round(spec.marker_share * k)))
            for slot, marker in zip(rng.choice(k, size=m, replace=False),
                                    rng.integers(0, len(MARKERS), size=m)):
                long[slot] = MARKERS[marker]
        n_short = round(k * spec.short_share / (1.0 - spec.short_share))
        total = k + n_short
        short_slots = set(
            rng.choice(total, size=n_short, replace=False).tolist())
        short = iter(SHORT_WORDS[j] for j in
                     rng.integers(0, len(SHORT_WORDS), size=n_short))
        long_iter = iter(long)
        words = tuple(next(short) if p in short_slots else next(long_iter)
                      for p in range(total))
        docs.append(Doc(words=words, label=label))
    return docs


def write_csv(docs: list[Doc], path) -> None:
    """Header title,text,label; the title is the first three words."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["title", "text", "label"])
        for doc in docs:
            writer.writerow([" ".join(doc.words[:3]), " ".join(doc.words[3:]),
                             LABEL_NAMES[doc.label]])


# -- oracles -------------------------------------------------------------


def tokens(doc: Doc) -> list[str]:
    return [w for w in doc.words if len(w) >= MIN_WORD_LEN]


def expected_vocab(docs: list[Doc], max_size: int) -> dict[str, int]:
    counts = Counter(t for doc in docs for t in tokens(doc))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {tok: N_SPECIAL + i for i, (tok, _) in enumerate(ranked[:max_size])}


def split_indices(n: int, ratio: float, seed: int):
    perm = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed))).permutation(n)
    n_train = math.floor(ratio * n)
    return perm[:n_train], perm[n_train:]


@dataclass(frozen=True)
class Encoded:
    """What one `.npz` written by `ufnd prep` must hold."""
    ids: np.ndarray
    true_lengths: np.ndarray
    labels: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.labels)


def expected_encoded(docs: list[Doc], vocab: dict[str, int],
                     max_seq_len: int) -> Encoded:
    ids = np.zeros((len(docs), max_seq_len), dtype=np.int64)
    lengths = np.zeros(len(docs), dtype=np.int64)
    for r, doc in enumerate(docs):
        body = [vocab.get(t, UNK_ID) for t in tokens(doc)[:max_seq_len - 1]]
        ids[r, 0] = CLS_ID
        ids[r, 1:1 + len(body)] = body
        lengths[r] = 1 + len(body)
    return Encoded(ids=ids, true_lengths=lengths,
                   labels=np.array([d.label for d in docs], dtype=np.int64))


def expected_prep(named_docs: dict[str, list[Doc]], max_size: int,
                  max_seq_len: int, ratio: float, seed: int
                  ) -> dict[str, Encoded]:
    """Every `<name>.<train|test>` file of one prep run, plus `combined`."""
    combined = [d for docs in named_docs.values() for d in docs]
    vocab = expected_vocab(combined, max_size)
    out = {}
    for name, docs in list(named_docs.items()) + [("combined", combined)]:
        train_idx, test_idx = split_indices(len(docs), ratio, seed)
        for part, idx in (("train", train_idx), ("test", test_idx)):
            out[f"{name}.{part}"] = expected_encoded(
                [docs[i] for i in idx], vocab, max_seq_len)
    return out

