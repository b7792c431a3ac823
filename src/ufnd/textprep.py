"""Text normalization, short-word removal, vocabulary building, and
fixed-length encoding.

The short-word rule drops every token with fewer than `min_word_len`
characters (default 3); it is what shrinks sequence length and training
cost.  Setting `min_word_len` to 1 disables removal, which is how the
"without preprocessing" comparison mode is expressed.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, Document
from .errors import ArgumentError

PAD_ID = 0
UNK_ID = 1
CLS_ID = 2
SPECIAL_TOKENS = ("<pad>", "<unk>", "<cls>")

_NON_ALNUM = re.compile(r"[^0-9a-zA-Z]+")


@dataclass(frozen=True)
class PrepConfig:
    min_word_len: int = 3
    max_seq_len: int = 120
    lowercase: bool = True
    strip_nonalnum: bool = True

    def __post_init__(self):
        if self.min_word_len < 1:
            raise ArgumentError("min_word_len must be >= 1")
        if self.max_seq_len < 2:
            raise ArgumentError("max_seq_len must be >= 2")


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: list[str]
    max_size: int
    min_freq: int
    config_hash: str
    specials_only: bool = False

    def __len__(self):
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


@dataclass(frozen=True)
class EncodedSample:
    ids: np.ndarray
    mask: np.ndarray
    label: int
    true_length: int


@dataclass(frozen=True)
class EncodedDataset:
    """Column-stacked encoded samples ready for batching."""
    ids: np.ndarray        # [n, max_seq_len] int32
    mask: np.ndarray       # [n, max_seq_len] float32
    labels: np.ndarray     # [n] int64
    true_lengths: np.ndarray
    vocab_hash: str
    max_seq_len: int

    def __len__(self):
        return self.ids.shape[0]


def normalize(text: str, cfg: PrepConfig) -> list[str]:
    """Lowercase, replace non-alphanumerics with spaces, split on runs."""
    if cfg.lowercase:
        text = text.lower()
    if cfg.strip_nonalnum:
        text = _NON_ALNUM.sub(" ", text)
    return text.split()


def remove_short_words(tokens: list[str], min_word_len: int) -> list[str]:
    """Keep exactly the tokens with at least `min_word_len` characters."""
    if min_word_len < 1:
        raise ArgumentError("min_word_len must be >= 1")
    return [t for t in tokens if len(t) >= min_word_len]


def tokenize(text: str, cfg: PrepConfig) -> list[str]:
    return remove_short_words(normalize(text, cfg), cfg.min_word_len)


def build_vocab(corpus: Corpus, cfg: PrepConfig, max_size: int,
                min_freq: int = 1) -> Vocabulary:
    """Frequency-ranked vocabulary; ties broken lexicographically."""
    if len(corpus) == 0:
        raise ArgumentError("build_vocab requires a nonempty corpus")
    counts = Counter()
    for doc in corpus:
        counts.update(tokenize(doc.text, cfg))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, freq in ranked[:max_size] if freq >= min_freq]
    id_to_token = list(SPECIAL_TOKENS) + kept
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    return Vocabulary(token_to_id=token_to_id, id_to_token=id_to_token,
                      max_size=max_size, min_freq=min_freq,
                      config_hash=_vocab_hash(cfg, max_size, min_freq),
                      specials_only=not kept)


def _vocab_hash(cfg: PrepConfig, max_size: int, min_freq: int) -> str:
    blob = json.dumps({"prep": cfg.__dict__, "max_size": max_size,
                       "min_freq": min_freq}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def save_vocab(vocab: Vocabulary, path) -> None:
    """One token per line; the i-th token line (1-based) holds id i + 2."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# ufnd-vocab config={vocab.config_hash} "
                 f"max_size={vocab.max_size} min_freq={vocab.min_freq}\n")
        for tok in vocab.id_to_token[len(SPECIAL_TOKENS):]:
            fh.write(tok + "\n")


def load_vocab(path) -> Vocabulary:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        fields = dict(kv.split("=", 1) for kv in header.lstrip("# ").split()
                      if "=" in kv)
        tokens = [line.rstrip("\n") for line in fh if line.rstrip("\n")]
    id_to_token = list(SPECIAL_TOKENS) + tokens
    return Vocabulary(
        token_to_id={tok: i for i, tok in enumerate(id_to_token)},
        id_to_token=id_to_token,
        max_size=int(fields.get("max_size", len(tokens))),
        min_freq=int(fields.get("min_freq", 1)),
        config_hash=fields.get("config", ""),
        specials_only=not tokens)


def encode(doc: Document, vocab: Vocabulary, cfg: PrepConfig) -> EncodedSample:
    """[CLS] + token ids, truncated to max_seq_len, right-padded."""
    tokens = tokenize(doc.text, cfg)
    body = [vocab.lookup(t) for t in tokens[: cfg.max_seq_len - 1]]
    ids = np.full(cfg.max_seq_len, PAD_ID, dtype=np.int32)
    ids[0] = CLS_ID
    ids[1:1 + len(body)] = body
    true_length = 1 + len(body)
    mask = np.zeros(cfg.max_seq_len, dtype=np.float32)
    mask[:true_length] = 1.0
    return EncodedSample(ids=ids, mask=mask, label=doc.label,
                         true_length=true_length)


def encode_corpus(corpus: Corpus, vocab: Vocabulary,
                  cfg: PrepConfig) -> EncodedDataset:
    if len(corpus) == 0:
        raise ArgumentError("encode_corpus requires a nonempty corpus")
    samples = [encode(doc, vocab, cfg) for doc in corpus]
    return EncodedDataset(
        ids=np.stack([s.ids for s in samples]),
        mask=np.stack([s.mask for s in samples]),
        labels=np.array([s.label for s in samples], dtype=np.int64),
        true_lengths=np.array([s.true_length for s in samples], dtype=np.int64),
        vocab_hash=vocab.config_hash,
        max_seq_len=cfg.max_seq_len)


def seq_length_stats(corpus: Corpus, vocab: Vocabulary | None,
                     cfg: PrepConfig) -> dict:
    """Pre-truncation token-count statistics with and without removal."""
    if len(corpus) == 0:
        raise ArgumentError("seq_length_stats requires a nonempty corpus")
    without, with_removal = [], []
    for doc in corpus:
        raw = normalize(doc.text, cfg)
        without.append(len(raw))
        with_removal.append(len(remove_short_words(raw, cfg.min_word_len)))

    def summarize(counts):
        arr = np.asarray(counts, dtype=np.float64)
        return {"mean": float(arr.mean()), "max": int(arr.max()),
                "percentile_95": float(np.percentile(arr, 95))}

    return {"without_removal": summarize(without),
            "with_removal": summarize(with_removal),
            "per_doc_without": without,
            "per_doc_with": with_removal}
