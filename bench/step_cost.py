"""Reference figures for one desk_config train step (12 blocks, d_model 64):
the forward / backward / clip+Adam split, and the measured cost of a step
without the short-word rule (max_seq_len 200) over one with it (120),
next to the ratio `ufnd.trainer.estimate_cost` predicts.

    python3 bench/step_cost.py

The step body is the one `ufnd.trainer.train` runs.  Rows are all PAD-free
because a step costs the same for any content at a given max_seq_len.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

BATCH, STEPS, WARMUP = 16, 8, 2


def time_steps(max_seq_len: int, seed: int = 20220) -> dict[str, float]:
    import numpy as np
    from ufnd.model import Model, desk_config
    from ufnd.numerics import (AdamState, RngStreams, adam_step,
                               clip_global_norm, nll_loss)

    model = Model(desk_config(vocab_size=1003, max_seq_len=max_seq_len),
                  RngStreams(seed))
    rng = np.random.default_rng(seed)
    ids = rng.integers(3, 1003, size=(BATCH, max_seq_len)).astype(np.int32)
    ids[:, 0] = 2
    mask = np.ones((BATCH, max_seq_len), dtype=np.float32)
    labels = np.arange(BATCH) % 2
    params = model.trainable_parameters()
    adam = {p.name: AdamState.for_param(p, lr=0.001) for p in params}
    split = {"forward_s": [], "backward_s": [], "clip_adam_s": []}
    for step in range(WARMUP + STEPS):
        t0 = time.perf_counter()
        model.zero_grad()
        loss = nll_loss(model.forward(ids, mask, "train"), labels)
        t1 = time.perf_counter()
        loss.backward()
        t2 = time.perf_counter()
        clip_global_norm(params, 1.0)
        for p in params:
            adam_step(p, adam[p.name])
        t3 = time.perf_counter()
        if step >= WARMUP:
            for key, dt in zip(split, (t1 - t0, t2 - t1, t3 - t2)):
                split[key].append(dt)
        del loss
    return {key: statistics.median(v) for key, v in split.items()}


def main() -> int:
    from run import BLAS_THREADS, BLAS_VARS
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from ufnd.model import desk_config
    from ufnd.trainer import estimate_cost

    steps = {}
    for max_seq_len in (120, 200):
        steps[max_seq_len] = time_steps(max_seq_len)
        total = sum(steps[max_seq_len].values())
        print(f"max_seq_len {max_seq_len}, batch {BATCH}: step {total:.3f} s "
              + " ".join(f"{k} {v:.3f}" for k, v in
                         steps[max_seq_len].items()))
    measured = sum(steps[200].values()) / sum(steps[120].values())
    cfg = {n: desk_config(vocab_size=1003, max_seq_len=n) for n in (120, 200)}
    estimated = (estimate_cost(cfg[200].encoder, cfg[200].head, 200, BATCH)
                 / estimate_cost(cfg[120].encoder, cfg[120].head, 120, BATCH))
    print(f"prep-off / prep-on step cost: measured {measured:.3f}, "
          f"estimate_cost {estimated:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
