import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufnd.corpus import Corpus, Document
from ufnd.errors import ArgumentError
from ufnd.textprep import (CLS_ID, PAD_ID, SPECIAL_TOKENS, UNK_ID, PrepConfig,
                           build_vocab, encode, encode_corpus, load_vocab,
                           normalize, remove_short_words, save_vocab,
                           seq_length_stats, tokenize, tokenize_corpus)


def corpus_of(texts, name="t"):
    docs = tuple(Document(text=t, label=i % 2, source=name)
                 for i, t in enumerate(texts))
    return Corpus(docs=docs, name=name)


class TestNormalize:
    def test_lowercase_and_punct(self):
        cfg = PrepConfig()
        assert normalize("Breaking: Moon-landing HOAX!?", cfg) == \
            ["breaking", "moon", "landing", "hoax"]

    def test_digits_kept(self):
        assert normalize("2020 election", PrepConfig()) == ["2020", "election"]

    def test_empty_string(self):
        assert normalize("", PrepConfig()) == []

    # ASCII text takes a byte-table pass; it must give the regex path's
    # tokens.  The non-ASCII characters lower to ASCII (U+0130, the Kelvin
    # sign) or lower to themselves, and keep the text on the regex path.
    MIXED = (string.ascii_letters + string.digits + string.punctuation
             + " \t\n\x0b\x0c\x1c\x1d\x1e\x1f" + "\u0130\u212a\u00df\u03a3")

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet=MIXED, max_size=40),
           lowercase=st.booleans(), strip_nonalnum=st.booleans())
    def test_ascii_path_equals_regex_path(self, text, lowercase,
                                          strip_nonalnum):
        cfg = PrepConfig(lowercase=lowercase, strip_nonalnum=strip_nonalnum)
        expected = text.lower() if lowercase else text
        if strip_nonalnum:
            expected = re.sub(r"[^0-9a-zA-Z]+", " ", expected)
        assert normalize(text, cfg) == expected.split()

    @pytest.mark.parametrize("text, tokens", [
        ("\u0130stanbul", ["i", "stanbul"]),
        ("\u212aelvin", ["kelvin"]),
        ("Stra\u00dfe", ["stra", "e"]),
        ("a\x1cb\x0bc", ["a", "b", "c"])])
    def test_lowering_to_ascii(self, text, tokens):
        assert normalize(text, PrepConfig()) == tokens


class TestRemoveShortWords:
    def test_reference_example(self):
        tokens = ["it", "is", "a", "hoax", "by", "the", "media"]
        assert remove_short_words(tokens, 3) == ["hoax", "the", "media"]

    def test_min_len_one_is_identity(self):
        tokens = ["a", "bb", "ccc"]
        assert remove_short_words(tokens, 1) == tokens

    def test_boundary_exact_length_kept(self):
        assert remove_short_words(["ab", "abc", "abcd"], 3) == ["abc", "abcd"]

    def test_invalid_min_len(self):
        with pytest.raises(ArgumentError):
            remove_short_words(["x"], 0)

    @settings(max_examples=50, deadline=None)
    @given(tokens=st.lists(st.text(alphabet="abcde", min_size=0, max_size=6)),
           min_len=st.integers(1, 5))
    def test_properties(self, tokens, min_len):
        out = remove_short_words(tokens, min_len)
        assert all(len(t) >= min_len for t in out)
        # output is a subsequence of the input
        it = iter(tokens)
        assert all(any(t == u for u in it) for t in out)
        # idempotent
        assert remove_short_words(out, min_len) == out


class TestBuildVocab:
    def test_frequency_rank_and_ties(self):
        corpus = corpus_of(["bbb bbb aaa ccc ccc"])
        vocab = build_vocab(corpus, PrepConfig(), max_size=10)
        # specials first, then by (-freq, token): bbb/ccc tie at 2 -> bbb
        assert vocab.id_to_token == list(SPECIAL_TOKENS) + \
            ["bbb", "ccc", "aaa"]

    def test_max_size_cap(self):
        corpus = corpus_of(["aaa bbb ccc ddd eee"])
        vocab = build_vocab(corpus, PrepConfig(), max_size=2)
        assert len(vocab) == len(SPECIAL_TOKENS) + 2

    def test_min_freq_filter(self):
        corpus = corpus_of(["aaa aaa bbb"])
        vocab = build_vocab(corpus, PrepConfig(), max_size=10, min_freq=2)
        assert "bbb" not in vocab.token_to_id
        assert "aaa" in vocab.token_to_id

    def test_short_words_never_enter(self):
        corpus = corpus_of(["it is of aa the hoax"])
        vocab = build_vocab(corpus, PrepConfig(min_word_len=3), max_size=10)
        assert set(vocab.id_to_token[len(SPECIAL_TOKENS):]) == {"the", "hoax"}

    def test_specials_only_flag(self):
        corpus = corpus_of(["a an it"])
        vocab = build_vocab(corpus, PrepConfig(), max_size=10)
        assert vocab.specials_only
        assert len(vocab) == len(SPECIAL_TOKENS)

    def test_lookup_unknown(self):
        corpus = corpus_of(["hoax"])
        vocab = build_vocab(corpus, PrepConfig(), max_size=10)
        assert vocab.lookup("nonesuch") == UNK_ID


class TestVocabIO:
    def test_roundtrip(self, tmp_path):
        corpus = corpus_of(["hoax media shocking media"])
        vocab = build_vocab(corpus, PrepConfig(), max_size=10, min_freq=1)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.max_size == vocab.max_size
        assert loaded.min_freq == vocab.min_freq
        assert loaded.config_hash == vocab.config_hash

    def test_line_numbering_contract(self, tmp_path):
        corpus = corpus_of(["zzz yyy yyy"])
        vocab = build_vocab(corpus, PrepConfig(), max_size=10)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ufnd-vocab")
        # i-th token line (1-based) carries id i + 2
        for i, tok in enumerate(lines[1:], start=1):
            assert vocab.token_to_id[tok] == i + 2


class TestEncode:
    CFG = PrepConfig(min_word_len=3, max_seq_len=6)

    def _vocab(self):
        return build_vocab(corpus_of(["hoax media viral story claim"]),
                           self.CFG, max_size=10)

    def test_cls_first_then_pad(self):
        vocab = self._vocab()
        doc = Document(text="hoax media", label=1, source="s")
        s = encode(doc, vocab, self.CFG)
        assert s.ids[0] == CLS_ID
        assert s.true_length == 3
        np.testing.assert_array_equal(s.ids[3:], PAD_ID)
        np.testing.assert_array_equal(s.mask, [1, 1, 1, 0, 0, 0])

    def test_truncation(self):
        vocab = self._vocab()
        doc = Document(text="hoax media viral story claim hoax media",
                       label=0, source="s")
        s = encode(doc, vocab, self.CFG)
        assert s.true_length == 6
        assert np.all(s.mask == 1.0)

    def test_unknown_token_maps_to_unk(self):
        vocab = self._vocab()
        doc = Document(text="zebra", label=0, source="s")
        s = encode(doc, vocab, self.CFG)
        assert s.ids[1] == UNK_ID

    def test_all_short_doc_is_cls_only(self):
        vocab = self._vocab()
        doc = Document(text="it is a by of", label=0, source="s")
        s = encode(doc, vocab, self.CFG)
        assert s.true_length == 1
        np.testing.assert_array_equal(s.mask, [1, 0, 0, 0, 0, 0])

    def test_encode_corpus_shapes_and_dtypes(self):
        vocab = self._vocab()
        ds = encode_corpus(corpus_of(["hoax media", "viral"]), vocab, self.CFG)
        assert ds.ids.shape == (2, 6) and ds.ids.dtype == np.int32
        assert ds.mask.shape == (2, 6) and ds.mask.dtype == np.float32
        assert ds.labels.tolist() == [0, 1]
        assert ds.vocab_hash == vocab.config_hash
        assert len(ds) == 2


class TestTokenizeCorpus:
    def test_word_indices_in_first_seen_order(self):
        tokens = tokenize_corpus(
            corpus_of(["Bbb, aaa! it bbb", "of", "ccc aaa"]), PrepConfig())
        assert tokens.words == ["bbb", "aaa", "ccc"]
        assert tokens.ids.dtype == np.int32
        assert tokens.ids.tolist() == [0, 1, 0, 2, 1]
        assert tokens.lengths.tolist() == [3, 0, 2]
        assert tokens.raw_lengths.tolist() == [4, 1, 2]
        assert tokens.labels.tolist() == [0, 1, 0]

    def test_functions_take_either_form(self):
        cfg = PrepConfig(max_seq_len=4)
        corpus = corpus_of(["hoax media media viral story", "it is", "hoax"])
        tokens = tokenize_corpus(corpus, cfg)
        vocab = build_vocab(corpus, cfg, max_size=3)
        assert build_vocab(tokens, cfg, max_size=3) == vocab
        assert seq_length_stats(tokens, vocab, cfg) == \
            seq_length_stats(corpus, vocab, cfg)
        a, b = (encode_corpus(c, vocab, cfg) for c in (corpus, tokens))
        for name in ("ids", "mask", "labels", "true_lengths"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        # hoax and media tie at 2 and rank by name; viral falls past 3.
        assert vocab.id_to_token[3:] == ["hoax", "media", "story"]
        assert a.ids.tolist() == [[CLS_ID, 3, 4, 4], [CLS_ID, 0, 0, 0],
                                  [CLS_ID, 3, 0, 0]]

    def test_other_config_is_rejected(self):
        tokens = tokenize_corpus(corpus_of(["hoax"]), PrepConfig())
        with pytest.raises(ArgumentError, match="tokenised under"):
            build_vocab(tokens, PrepConfig(min_word_len=1), max_size=3)


class TestSeqLengthStats:
    def test_counts_against_hand_oracle(self):
        corpus = corpus_of(["it is a hoax", "the media lied today ok"])
        stats = seq_length_stats(corpus, None, PrepConfig(min_word_len=3))
        assert stats["per_doc_without"] == [4, 5]
        assert stats["per_doc_with"] == [1, 4]
        assert stats["without_removal"]["mean"] == 4.5
        assert stats["with_removal"]["mean"] == 2.5
        assert stats["with_removal"]["max"] == 4

    def test_removal_never_lengthens(self):
        corpus = corpus_of([
            "a bb ccc dddd", "the of and", "longwords only here"])
        stats = seq_length_stats(corpus, None, PrepConfig(min_word_len=3))
        for w, wo in zip(stats["per_doc_with"], stats["per_doc_without"]):
            assert w <= wo


class TestPrepConfig:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            PrepConfig(min_word_len=0)
        with pytest.raises(ArgumentError):
            PrepConfig(max_seq_len=1)

    def test_hash_sensitivity(self):
        corpus = corpus_of(["the quick brown fox", "an ox is here"])
        hashes = {build_vocab(corpus, PrepConfig(min_word_len=n), 10)
                  .config_hash for n in (3, 1)}
        assert len(hashes) == 2

    def test_tokenize_composition(self):
        cfg = PrepConfig(min_word_len=3)
        assert tokenize("It IS a Hoax!", cfg) == ["hoax"]
