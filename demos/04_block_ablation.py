"""Encoder-block pruning: train with progressively smaller block subsets
and compare metrics, parameter counts, and estimated training cost.

Run: python3 demos/04_block_ablation.py   (about half a minute)
"""

from ufnd.corpus import split_indices
from ufnd.encoder import param_count, select_blocks
from ufnd.model import desk_config, tiny_config
from ufnd.synthetic import make_synthetic_corpus
from ufnd.textprep import (PrepConfig, build_vocab, encode_corpus,
                           tokenize_corpus)
from ufnd.trainer import TrainConfig, estimate_cost
from ufnd.unified import (AblationGrid, EncodedSplit, ablate, ablation_table,
                          render_aligned)


def main():
    # at desk scale the standard grid prunes a 12-block encoder
    desk = desk_config()
    print("estimated step cost (multiply-accumulates, batch 32) at the "
          "desk-scale configuration:")
    for subset in ((1, 3, 5, 7, 9, 11), (1, 5, 9), (1, 9), (5,)):
        enc = select_blocks(desk.encoder, subset)
        cost = estimate_cost(enc, desk.head, 120, 32)
        print(f"  blocks {','.join(map(str, subset)):12s} "
              f"params {param_count(enc):>10,}  cost {cost:.3e}")
    print()

    # the trained comparison runs on a two-block model to stay fast
    prep = PrepConfig(min_word_len=3, max_seq_len=12)
    corpus = make_synthetic_corpus(300, "ablation", seed=5)
    tokens = tokenize_corpus(corpus, prep)
    vocab = build_vocab(tokens, 100)
    ds = encode_corpus(tokens, vocab)
    train_rows, test_rows = split_indices(len(ds), 0.8, 5)
    combined = EncodedSplit("ablation", ds.take(train_rows),
                            ds.take(test_rows))
    model_cfg = tiny_config(vocab_size=len(vocab), max_seq_len=12)
    train_cfg = TrainConfig(seed=5, epochs=5, batch_size=16)
    grid = AblationGrid(block_subsets=((1, 2), (1,), (2,)),
                        batch_sizes=(16, 32))
    rows = ablate(combined, model_cfg, train_cfg, grid)
    header, table = ablation_table(rows)
    print(render_aligned(header, table))


if __name__ == "__main__":
    main()
