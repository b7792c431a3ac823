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

    def take(self, rows: np.ndarray) -> "EncodedDataset":
        """The dataset of these rows, in this order."""
        return EncodedDataset(
            ids=self.ids[rows], mask=self.mask[rows], labels=self.labels[rows],
            true_lengths=self.true_lengths[rows], vocab_hash=self.vocab_hash,
            max_seq_len=self.max_seq_len)


def _ascii_table(lowercase: bool) -> bytes:
    """Byte table for `normalize`'s ASCII path: digits and letters map to
    themselves (A-Z to a-z when `lowercase`), every other byte to a space."""
    table = bytearray(b" " * 256)
    for ch in "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ":
        table[ord(ch)] = ord(ch.lower() if lowercase else ch)
    return bytes(table)


_ASCII_TABLES = {lowercase: _ascii_table(lowercase)
                 for lowercase in (False, True)}


def normalize(text: str, cfg: PrepConfig) -> list[str]:
    """Lowercase, replace non-alphanumerics with spaces, split on runs."""
    if cfg.strip_nonalnum and text.isascii():
        # One byte-table pass gives the regex path's tokens.  Non-ASCII
        # text takes the regex path, because `str.lower` can turn
        # non-ASCII letters into ASCII ones (U+0130, the Kelvin sign).
        return (text.encode("ascii").translate(_ASCII_TABLES[cfg.lowercase])
                .decode("ascii").split())
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


@dataclass(frozen=True)
class TokenizedCorpus:
    """A corpus normalised and filtered once.  Words are kept once each, in
    first-seen order; documents hold int32 indices into them, concatenated
    in `ids` and cut by `lengths`."""
    cfg: PrepConfig
    words: list[str]
    ids: np.ndarray          # [sum(lengths)] int32 indices into `words`
    lengths: np.ndarray      # [n] int64 kept tokens per document
    raw_lengths: np.ndarray  # [n] int64 tokens before the short-word rule
    labels: np.ndarray       # [n] int64

    def __len__(self):
        return len(self.lengths)


class _WordIndex(dict):
    """Word -> index; a word looked up for the first time gets the next."""

    def __missing__(self, word):
        self[word] = index = len(self)
        return index


def tokenize_corpus(corpus: Corpus, cfg: PrepConfig) -> TokenizedCorpus:
    """Normalise and filter each document once, keeping word indices, not
    token strings."""
    index = _WordIndex()
    ids, lengths, raw_lengths = [], [], []
    for doc in corpus:
        raw = normalize(doc.text, cfg)
        kept = remove_short_words(raw, cfg.min_word_len)
        ids += map(index.__getitem__, kept)
        lengths.append(len(kept))
        raw_lengths.append(len(raw))
    return TokenizedCorpus(
        cfg=cfg, words=list(index), ids=np.array(ids, dtype=np.int32),
        lengths=np.array(lengths, dtype=np.int64),
        raw_lengths=np.array(raw_lengths, dtype=np.int64),
        labels=np.array([doc.label for doc in corpus], dtype=np.int64))


def _tokenized(corpus: Corpus | TokenizedCorpus, cfg: PrepConfig,
               caller: str) -> TokenizedCorpus:
    """`corpus` tokenised under `cfg`; it must hold at least one document."""
    if len(corpus) == 0:
        raise ArgumentError(f"{caller} requires a nonempty corpus")
    if not isinstance(corpus, TokenizedCorpus):
        return tokenize_corpus(corpus, cfg)
    if corpus.cfg != cfg:
        raise ArgumentError(f"{caller}: corpus was tokenised under "
                            f"{corpus.cfg}, not {cfg}")
    return corpus


def build_vocab(corpus: Corpus | TokenizedCorpus, cfg: PrepConfig,
                max_size: int, min_freq: int = 1) -> Vocabulary:
    """Frequency-ranked vocabulary; ties broken lexicographically."""
    tokens = _tokenized(corpus, cfg, "build_vocab")
    counts = np.bincount(tokens.ids, minlength=len(tokens.words)).tolist()
    ranked = sorted(zip((-c for c in counts), tokens.words))
    kept = [tok for neg_freq, tok in ranked[:max_size]
            if -neg_freq >= min_freq]
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
    ds = encode_corpus(Corpus(docs=(doc,), name=doc.source), vocab, cfg)
    return EncodedSample(ids=ds.ids[0], mask=ds.mask[0], label=doc.label,
                         true_length=int(ds.true_lengths[0]))


def encode_corpus(corpus: Corpus | TokenizedCorpus, vocab: Vocabulary,
                  cfg: PrepConfig) -> EncodedDataset:
    """Every document as [CLS] + token ids, truncated to max_seq_len and
    right-padded, one row each."""
    tokens = _tokenized(corpus, cfg, "encode_corpus")
    width = cfg.max_seq_len
    # Each token's position in its document; the first width - 1 are kept.
    starts = np.cumsum(tokens.lengths) - tokens.lengths
    position = np.arange(len(tokens.ids)) - np.repeat(starts, tokens.lengths)
    body = np.minimum(tokens.lengths, width - 1)
    word_ids = np.array([vocab.lookup(w) for w in tokens.words],
                        dtype=np.int32)
    ids = np.full((len(tokens), width), PAD_ID, dtype=np.int32)
    ids[:, 0] = CLS_ID
    ids[:, 1:][np.arange(width - 1) < body[:, None]] = \
        word_ids[tokens.ids[position < width - 1]]
    true_lengths = body + 1
    return EncodedDataset(
        ids=ids,
        mask=(np.arange(width) < true_lengths[:, None]).astype(np.float32),
        labels=tokens.labels, true_lengths=true_lengths,
        vocab_hash=vocab.config_hash, max_seq_len=width)


def seq_length_stats(corpus: Corpus | TokenizedCorpus,
                     cfg: PrepConfig) -> dict:
    """Pre-truncation token-count statistics with and without removal."""
    tokens = _tokenized(corpus, cfg, "seq_length_stats")

    def summarize(counts):
        arr = counts.astype(np.float64)
        return {"mean": float(arr.mean()), "max": int(arr.max()),
                "percentile_95": float(np.percentile(arr, 95))}

    return {"without_removal": summarize(tokens.raw_lengths),
            "with_removal": summarize(tokens.lengths),
            "per_doc_without": tokens.raw_lengths.tolist(),
            "per_doc_with": tokens.lengths.tolist()}
