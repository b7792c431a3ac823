"""Verify the reverse-mode gradients of the full model against central
finite differences, in both 32-bit and 64-bit arithmetic.

Run: python3 demos/02_gradient_check.py
"""

import numpy as np

from ufnd.classifier import HeadConfig
from ufnd.encoder import EncoderConfig
from ufnd.model import Model, ModelConfig
from ufnd.numerics import RngStreams, grad_check, nll_loss


def build_model(dtype):
    enc = EncoderConfig(vocab_size=50, d_model=8, n_heads=2, d_ff=16,
                        max_seq_len=8, n_blocks_total=2, block_subset=(1, 2),
                        dropout_rate=0.0)
    config = ModelConfig(encoder=enc, head=HeadConfig(h1=200, h2=150))
    return Model(config, RngStreams(3), dtype=dtype)


def make_batch(seed=1, batch=4, seq_len=8):
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, 50, size=(batch, seq_len)).astype(np.int32)
    ids[:, 0] = 2
    mask = np.ones((batch, seq_len), dtype=np.float32)
    for b, n in enumerate(rng.integers(2, seq_len + 1, size=batch)):
        ids[b, n:] = 0
        mask[b, n:] = 0.0
    return ids, mask, rng.integers(0, 2, size=batch)


def main():
    ids, mask, labels = make_batch()
    for dtype, eps, floor in ((np.float32, 1e-3, 1e-4),
                              (np.float64, 1e-5, 1e-9)):
        model = build_model(dtype)
        n_params = sum(p.data.size for p in model.parameters())
        res = grad_check(
            lambda: nll_loss(model.forward(ids, mask, "eval"), labels),
            model.parameters(), eps=eps, abs_floor=floor, n_samples=200)
        print(f"{np.dtype(dtype).name}: {res.n_checked} of {n_params} "
              f"coordinates checked at eps={eps:g}, "
              f"max relative error {res.max_rel_error:.3e}")
    print("eval mode is used so batch norm runs on its running statistics "
          "and dropout is off; the loss is then deterministic, which the "
          "finite-difference probe requires.")


if __name__ == "__main__":
    main()
