"""Full classifier model: encoder stack plus fine-tuning head, with a
flat named-array view of its state for checkpointing."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .autograd import Parameter, Tensor, no_grad
from .classifier import (HeadConfig, HeadParams, head_forward,
                         init_head_params)
from .encoder import (EncoderConfig, EncoderParams, encode_sequence,
                      init_encoder_params)
from .numerics import RngStreams


@dataclass(frozen=True)
class ModelConfig:
    encoder: EncoderConfig
    head: HeadConfig


def tiny_config(vocab_size: int = 64, max_seq_len: int = 16,
                block_subset=(1, 2), dropout_rate: float = 0.1,
                h1: int = 32, h2: int = 24) -> ModelConfig:
    """A configuration small enough for fast tests and demos."""
    enc = EncoderConfig(vocab_size=vocab_size, d_model=16, n_heads=2,
                        d_ff=32, max_seq_len=max_seq_len, n_blocks_total=2,
                        block_subset=tuple(block_subset),
                        dropout_rate=dropout_rate)
    return ModelConfig(encoder=enc, head=HeadConfig(h1=h1, h2=h2))


def desk_config(vocab_size: int = 8000, max_seq_len: int = 120,
                block_subset=tuple(range(1, 13))) -> ModelConfig:
    """Desk-scale default: 12 blocks so every pruning subset is exercisable."""
    enc = EncoderConfig(vocab_size=vocab_size, d_model=64, n_heads=4,
                        d_ff=256, max_seq_len=max_seq_len, n_blocks_total=12,
                        block_subset=tuple(block_subset))
    return ModelConfig(encoder=enc, head=HeadConfig())


class Model:
    """Owns parameters, the rng streams, and the forward pass.

    With `arrays` (a `state_arrays()` dict) the model is built from those
    arrays themselves, not copies, and draws nothing.
    """

    def __init__(self, config: ModelConfig, rng: RngStreams,
                 dtype=np.float32,
                 arrays: dict[str, np.ndarray] | None = None):
        self.config = config
        self.rng = rng
        self.dtype = dtype
        init = rng.stream("init")
        self.encoder_params: EncoderParams = init_encoder_params(
            config.encoder, init, dtype, arrays)
        self.head_params: HeadParams = init_head_params(
            config.head, config.encoder.d_model, init, dtype, arrays)

    def reinit_head(self) -> None:
        """Fresh random head weights (phase-2 re-initialization)."""
        self.head_params = init_head_params(
            self.config.head, self.config.encoder.d_model,
            self.rng.stream("init"), self.dtype)

    def forward(self, ids: np.ndarray, mask: np.ndarray, mode: str,
                freeze_encoder: bool = False) -> Tensor:
        """Log-probabilities per row; a frozen encoder records no graph."""
        return self.head(self.encode(ids, mask, mode, freeze_encoder), mode)

    def encode(self, ids: np.ndarray, mask: np.ndarray, mode: str,
               freeze_encoder: bool = False,
               params: EncoderParams | None = None,
               rng: np.random.Generator | None = None,
               skip_rows: tuple[int, int] = (0, 0)) -> Tensor:
        """The encoder's pooled rows; a frozen encoder records no graph.

        A chunk of a batch passes its own parameter views (`params`),
        dropout generator (`rng`) and the batch's rows before and after it
        (`skip_rows`, see `encode_sequence`)."""
        with no_grad() if freeze_encoder else nullcontext():
            return encode_sequence(ids, mask, params or self.encoder_params,
                                   self.config.encoder, mode,
                                   rng or self.rng.stream("dropout"),
                                   skip_rows)

    def head(self, pooled: Tensor, mode: str) -> Tensor:
        """The head's log-probabilities for the pooled rows."""
        return head_forward(pooled, self.head_params,
                            self.config.encoder.dropout_rate, mode,
                            self.rng.stream("dropout"))

    # -- parameter access ---------------------------------------------

    def parameters(self) -> list[Parameter]:
        return self.encoder_params.parameters() + self.head_params.parameters()

    def trainable_parameters(self, freeze_encoder: bool = False) -> list[Parameter]:
        if freeze_encoder:
            return self.head_params.parameters()
        return self.parameters()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- flat state view for snapshots and checkpoints -----------------

    def state_arrays(self) -> dict[str, np.ndarray]:
        state = {p.name: p.data for p in self.parameters()}
        for tag, bn in (("bn1", self.head_params.bn1),
                        ("bn2", self.head_params.bn2)):
            state[f"head/{tag}/running_mean"] = bn.running_mean
            state[f"head/{tag}/running_var"] = bn.running_var
        return state

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: arr.copy() for name, arr in self.state_arrays().items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for p in self.parameters():
            p.data = state[p.name].copy()
        for tag, bn in (("bn1", self.head_params.bn1),
                        ("bn2", self.head_params.bn2)):
            bn.running_mean = state[f"head/{tag}/running_mean"].copy()
            bn.running_var = state[f"head/{tag}/running_var"].copy()
