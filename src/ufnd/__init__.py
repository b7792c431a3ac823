"""Desk-scale unified training pipeline for fake-news text
classification: numpy transformer encoder with prunable blocks, a
reverse-mode autodiff engine, the two-phase training procedure, and the
experiment harness."""

from .autograd import Parameter, Tensor
from .classifier import HeadConfig, head_forward, predict
from .corpus import Corpus, Document, combine, load_dataset, split_indices
from .encoder import EncoderConfig, encode_sequence, param_count, select_blocks
from .metrics import Confusion, Metrics, compute_metrics, confusion
from .model import Model, ModelConfig, desk_config, tiny_config
from .numerics import (RngStreams, adam_step, clip_global_norm, gelu,
                       grad_check, layer_norm, log_softmax, nll_loss,
                       xavier_init)
from .textprep import (PrepConfig, Vocabulary, build_vocab, encode_corpus,
                       normalize, remove_short_words, seq_length_stats,
                       tokenize_corpus)
from .trainer import TrainConfig, batch_iterator, estimate_cost, evaluate, train
from .unified import (AblationGrid, EncodedSplit, ablate, check_acceptable,
                      phase_one, phase_two)

__version__ = "0.1.0"
