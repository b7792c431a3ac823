"""The unified two-phase process on synthetic data.

Phase 1 trains the shared configuration on each dataset separately,
sweeping batch size, and accepts it only if every dataset stays within
the accuracy-deficit threshold of its baseline.  Phase 2 then trains one
joint model on the combined corpus with a freshly initialized head.

Run: python3 demos/03_two_phase_training.py   (about half a minute)
"""

import dataclasses

from ufnd.corpus import combine, split_indices
from ufnd.model import tiny_config
from ufnd.synthetic import make_synthetic_corpus
from ufnd.textprep import (PrepConfig, build_vocab, encode_corpus,
                           tokenize_corpus)
from ufnd.trainer import TrainConfig
from ufnd.unified import (EncodedSplit, per_dataset_table, phase_one,
                          phase_two, render_aligned)

SEED = 7


def main():
    prep = PrepConfig(min_word_len=3, max_seq_len=12)
    corpora = [make_synthetic_corpus(200, f"set{i}", seed=100 + i)
               for i in range(3)]
    combined_corpus = combine(corpora)
    vocab = build_vocab(tokenize_corpus(combined_corpus, prep), 100)

    def enc_split(corpus):
        ds = encode_corpus(tokenize_corpus(corpus, prep), vocab)
        train_rows, test_rows = split_indices(len(ds), 0.8, SEED)
        return EncodedSplit(corpus.name, ds.take(train_rows),
                            ds.take(test_rows))

    datasets = [enc_split(c) for c in corpora]
    model_cfg = tiny_config(vocab_size=len(vocab), max_seq_len=12)
    train_cfg = TrainConfig(seed=SEED, epochs=10, batch_size=16)
    baselines = {c.name: 0.85 for c in corpora}

    print("phase 1: per-dataset training, batch sizes 16 and 32, "
          "threshold 0.10 against baseline 0.85")
    result = phase_one(datasets, model_cfg, train_cfg, baselines,
                       threshold=0.10, batch_sizes=(16, 32))
    print(f"accepted: {result.accepted}")
    for name in sorted(result.deficits):
        print(f"  {name}: accuracy "
              f"{result.best_metrics[name].accuracy:.3f}, deficit "
              f"{result.deficits[name]:+.3f}, batch "
              f"{result.chosen_batch_sizes[name]}")
    header, rows = per_dataset_table(result.cells, [d.name for d in datasets],
                                     (16, 32))
    print()
    print(render_aligned(header, rows))

    print("phase 2: joint training on the 600-document combination, "
          "encoder transferred from the best phase-1 checkpoint, "
          "head re-initialized")
    best = max(result.best_metrics,
               key=lambda n: result.best_metrics[n].accuracy)
    _, report = phase_two(enc_split(combined_corpus), model_cfg,
                          dataclasses.replace(train_cfg, epochs=20),
                          result.best_checkpoints[best])
    print(f"best joint validation accuracy {report.best_val_accuracy:.3f} "
          f"at epoch {report.best_epoch}")


if __name__ == "__main__":
    main()
