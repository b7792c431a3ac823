"""A float64 training run against a committed reference.

`reference_run` trains `tiny_config` in float64 for 2 epochs, resumes the
checkpoint to 3, and scores the validation rows without a graph.  Every
row ends in PAD and every batch in all-PAD columns (the length cut); the
last block is pooled; dropout is on; and the resumed epoch fails to
improve, so rollback runs.  The test compares the per-step losses and
gradient norms, the per-epoch validation accuracy, the eval log-probs
and every tensor of the final checkpoint with a relative tolerance: a
change of summation order passes, a change of the math fails.

The atol covers the last block's `ln2/bias`, whose true gradient is zero
(the head's first batch norm cancels it), and the Adam moments of entries
near zero: their values are rounding noise.

Regenerate only for a change that alters the math on purpose, and say so:
    PYTHONPATH=src python tests/test_reference.py
Before it writes the file, it prints the keys it adds and removes and,
for each shared key, the largest |new - old| as a share of the tolerance.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from ufnd import trainer
from ufnd.autograd import no_grad
from ufnd.model import Model, tiny_config
from ufnd.numerics import RngStreams
from ufnd.textprep import EncodedDataset
from ufnd.trainer import TrainConfig, train

REFERENCE = Path(__file__).parent / "data" / "float64_reference.npz"
SEQ_LEN = 16
RTOL = ATOL = 1e-9


def padded_dataset(rng, n):
    """Rows of 2-11 real positions out of 16; the label is whether any
    of tokens 3-10 occurs, so the task is learnable."""
    lengths = rng.integers(2, 12, size=n)
    ids = rng.integers(3, 64, size=(n, SEQ_LEN)).astype(np.int32)
    ids[:, 0] = 2
    mask = (np.arange(SEQ_LEN) < lengths[:, None]).astype(np.float32)
    ids[mask == 0] = 0
    labels = np.any((ids >= 3) & (ids < 11), axis=1).astype(np.int64)
    return EncodedDataset(ids=ids, mask=mask, labels=labels,
                          true_lengths=lengths, vocab_hash="",
                          max_seq_len=SEQ_LEN)


def reference_run() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(2026)
    train_ds, val_ds = padded_dataset(rng, 40), padded_dataset(rng, 16)
    config = tiny_config(vocab_size=64, max_seq_len=SEQ_LEN)
    cfg = TrainConfig(seed=5, lr=0.01, epochs=2, batch_size=8)
    steps = []
    step = trainer._train_step

    def recording(*args):
        steps.append(step(*args))
        return steps[-1]

    trainer._train_step = recording
    try:
        first, first_rep = train(Model(config, RngStreams(5), np.float64),
                                 train_ds, val_ds, cfg)
        model = Model(config, RngStreams(5), np.float64)
        last, last_rep = train(model, train_ds, val_ds,
                               replace(cfg, epochs=3), resume=first)
    finally:
        trainer._train_step = step
    with no_grad():
        log_probs = model.forward(val_ds.ids, val_ds.mask, "eval").data
    epochs = first_rep.epochs + last_rep.epochs
    out = {"loss": np.array([s[0] for s in steps]),
           "pre_clip_norm": np.array([s[1] for s in steps]),
           "val_accuracy": np.array([e.val_metrics.accuracy for e in epochs]),
           "best_epoch": np.array(last_rep.best_epoch),
           "eval_log_probs": log_probs}
    out.update({"ckpt/" + name: arr for name, arr in last.tensors.items()})
    return out


def test_float64_run_matches_reference():
    got = reference_run()
    with np.load(REFERENCE) as ref:
        expected = dict(ref)
    assert sorted(got) == sorted(expected)
    # The run covers rollback: epoch 2 improves, epoch 3 does not.
    assert expected["best_epoch"] == 2
    for name, arr in expected.items():
        np.testing.assert_allclose(got[name], arr, rtol=RTOL, atol=ATOL,
                                   err_msg=name)


def report_changes(new: dict, old: dict) -> None:
    """Print the keys `new` adds to and removes from `old`, and for each
    shared key the largest |new - old| as a share of the tolerance
    (`atol + rtol * |old|`; at most 1 passes), worst first."""
    for word, keys in (("added", new.keys() - old.keys()),
                       ("removed", old.keys() - new.keys())):
        for name in sorted(keys):
            print(f"{word}\t{name}")
    shares = []
    for name in old.keys() & new.keys():
        diff = np.abs(np.asarray(new[name], np.float64) - old[name])
        share = diff / (ATOL + RTOL * np.abs(old[name]))
        worst = np.unravel_index(np.argmax(share), share.shape)
        shares.append((float(share[worst]), float(diff[worst]), name))
    for share, diff, name in sorted(shares, reverse=True):
        print(f"{share:.3g} of the tolerance\t|diff| {diff:.3g}\t{name}")


if __name__ == "__main__":
    run = reference_run()
    if REFERENCE.exists():
        with np.load(REFERENCE) as ref:
            report_changes(run, dict(ref))
    REFERENCE.parent.mkdir(exist_ok=True)
    np.savez(REFERENCE, **run)
