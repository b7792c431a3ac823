"""Walk through text preprocessing: normalization, the short-word rule,
vocabulary building, and fixed-length encoding.

Run: python3 demos/01_preprocessing.py
"""

from ufnd.corpus import Document
from ufnd.synthetic import make_synthetic_corpus
from ufnd.textprep import (PrepConfig, build_vocab, encode, normalize,
                           remove_short_words, seq_length_stats)


def main():
    cfg = PrepConfig(min_word_len=3, max_seq_len=12)

    text = "It IS a Hoax: the media EXPOSED it in 2019!"
    tokens = normalize(text, cfg)
    print("raw text:      ", text)
    print("normalized:    ", tokens)
    print("after removal: ", remove_short_words(tokens, cfg.min_word_len))
    print()

    corpus = make_synthetic_corpus(200, "demo", seed=0)
    stats = seq_length_stats(corpus, cfg)
    print("sequence length over 200 synthetic documents:")
    for mode in ("without_removal", "with_removal"):
        s = stats[mode]
        print(f"  {mode:16s} mean={s['mean']:.2f} max={s['max']} "
              f"p95={s['percentile_95']:.1f}")
    print()

    vocab = build_vocab(corpus, cfg, max_size=50)
    print(f"vocabulary: {len(vocab)} entries, most frequent:",
          vocab.id_to_token[3:11])

    doc = Document(text="shocking hoax exposed by the council", label=1,
                   source="demo")
    sample = encode(doc, vocab, cfg)
    print("encoded ids:   ", sample.ids.tolist())
    print("attention mask:", sample.mask.astype(int).tolist())
    print("true length:   ", sample.true_length,
          "(leading id 2 is the pooled classification position)")


if __name__ == "__main__":
    main()
