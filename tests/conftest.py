import copy

import numpy as np
import pytest

from ufnd.checkpoint import Checkpoint
from ufnd.classifier import HeadConfig
from ufnd.corpus import split_indices
from ufnd.encoder import EncoderConfig
from ufnd.model import Model, ModelConfig, tiny_config
from ufnd.numerics import RngStreams
from ufnd.synthetic import make_synthetic_corpus
from ufnd.textprep import (PrepConfig, build_vocab, encode_corpus,
                           tokenize_corpus)
from ufnd.unified import EncodedSplit

TOY_SEQ_LEN = 12


def small_model(seed=3, dtype=np.float32, dropout_rate=0.1,
                block_subset=(1, 2)):
    """The grad-check configuration: d_model 8, 2 heads, 2 blocks,
    head 8 -> 200 -> 150 -> 2."""
    enc = EncoderConfig(vocab_size=50, d_model=8, n_heads=2, d_ff=16,
                        max_seq_len=8, n_blocks_total=2,
                        block_subset=tuple(block_subset),
                        dropout_rate=dropout_rate)
    config = ModelConfig(encoder=enc, head=HeadConfig(h1=200, h2=150))
    return Model(config, RngStreams(seed), dtype=dtype)


def small_batch(seed=0, batch=4, seq_len=8, vocab_size=50):
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, vocab_size, size=(batch, seq_len)).astype(np.int32)
    ids[:, 0] = 2
    mask = np.ones((batch, seq_len), dtype=np.float32)
    lengths = rng.integers(2, seq_len + 1, size=batch)
    for b, n in enumerate(lengths):
        ids[b, n:] = 0
        mask[b, n:] = 0.0
    labels = rng.integers(0, 2, size=batch)
    return ids, mask, labels


@pytest.fixture
def toy_split():
    """An encoded synthetic dataset with train/test partition."""
    corpus = make_synthetic_corpus(120, "toy", seed=11)
    prep = PrepConfig(min_word_len=3, max_seq_len=TOY_SEQ_LEN)
    tokens = tokenize_corpus(corpus, prep)
    vocab = build_vocab(tokens, 100)
    ds = encode_corpus(tokens, vocab)
    train_rows, test_rows = split_indices(len(ds), 0.8, 5)
    return EncodedSplit(name="toy", train=ds.take(train_rows),
                        test=ds.take(test_rows)), vocab


def toy_model_config(vocab_size, dropout_rate=0.1):
    return tiny_config(vocab_size=vocab_size, max_seq_len=TOY_SEQ_LEN,
                       dropout_rate=dropout_rate)


def legacy_checkpoint(ckpt: Checkpoint, best_mode: str) -> Checkpoint:
    """`ckpt` as it was written while checkpoints also stored the live
    weights as `model/` (here copies of `best/`) and `TrainConfig` had a
    `best_mode`."""
    config = copy.deepcopy(ckpt.config)
    config["train"]["best_mode"] = best_mode
    tensors = dict(ckpt.tensors)
    tensors.update({"model/" + name[len("best/"):]: arr.copy()
                    for name, arr in ckpt.tensors.items()
                    if name.startswith("best/")})
    return Checkpoint(config=config, tensors=tensors, meta=ckpt.meta)


def with_retired_head_keys(ckpt: Checkpoint, **values) -> Checkpoint:
    """`ckpt` as written while the head config also held its input width,
    class count, dropout rate and batch-norm momentum and epsilon (the
    values the model uses, or `values`), and the rng had a `shuffle`
    stream, which nothing drew from."""
    config, meta = copy.deepcopy(ckpt.config), copy.deepcopy(ckpt.meta)
    encoder, head = config["encoder"], config["head"]
    config["head"] = {"d_in": encoder["d_model"], "h1": head["h1"],
                      "h2": head["h2"], "n_classes": 2,
                      "dropout_rate": encoder["dropout_rate"],
                      "bn_momentum": 0.1, "bn_eps": 1e-5, **values}
    meta["rng_state"]["shuffle"] = np.random.PCG64(np.random.SeedSequence(
        entropy=config["train"]["seed"], spawn_key=(2,))).state
    return Checkpoint(config=config, tensors=ckpt.tensors, meta=meta)


def with_removed_biases(ckpt: Checkpoint, seed: int = 0) -> Checkpoint:
    """`ckpt` as it would be written while every block had a key bias and
    head layers 1 and 2 had biases: random `best/` values and Adam moments
    for them, with each head bias added to the running mean of the batch
    norm after it, so the model is the same in exact arithmetic."""
    rng = np.random.default_rng(seed)
    tensors, meta = dict(ckpt.tensors), copy.deepcopy(ckpt.meta)

    def random(like):
        return rng.standard_normal(like.shape[0]).astype(like.dtype)

    def add(name, value):
        tensors["best/" + name] = value
        tensors[f"adam/{name}/m"] = random(value)
        tensors[f"adam/{name}/v"] = np.abs(random(value))
        meta["adam_t"][name] = max(meta["adam_t"].values())

    for name, arr in ckpt.tensors.items():
        if name.startswith("best/encoder/") and name.endswith("/attn_k/w"):
            add(name[len("best/"):-len("w")] + "b", random(arr))
    for n in (1, 2):
        mean = f"best/head/bn{n}/running_mean"
        bias = random(tensors[mean])
        add(f"head/l{n}/b", bias)
        tensors[mean] = tensors[mean] + bias
    return Checkpoint(config=ckpt.config, tensors=tensors, meta=meta)
