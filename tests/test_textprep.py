import re
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufnd.corpus import Corpus, Document
from ufnd.errors import ArgumentError
from ufnd.textprep import (CLS_ID, PAD_ID, SPECIAL_TOKENS, UNK_ID, PrepConfig,
                           build_vocab, encode_corpus, load_vocab, normalize,
                           remove_short_words, save_vocab, seq_length_stats,
                           tokenize_corpus)


def corpus_of(texts, name="t"):
    docs = tuple(Document(text=t, label=i % 2, source=name)
                 for i, t in enumerate(texts))
    return Corpus(docs=docs, name=name)


def tokens_of(texts, cfg=PrepConfig()):
    return tokenize_corpus(corpus_of(texts), cfg)


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
        vocab = build_vocab(tokens_of(["bbb bbb aaa ccc ccc"]), max_size=10)
        # specials first, then by (-freq, token): bbb/ccc tie at 2 -> bbb
        assert vocab.id_to_token == list(SPECIAL_TOKENS) + \
            ["bbb", "ccc", "aaa"]

    def test_max_size_cap(self):
        vocab = build_vocab(tokens_of(["aaa bbb ccc ddd eee"]), max_size=2)
        assert len(vocab) == len(SPECIAL_TOKENS) + 2

    def test_min_freq_filter(self):
        vocab = build_vocab(tokens_of(["aaa aaa bbb"]), max_size=10,
                            min_freq=2)
        assert "bbb" not in vocab.token_to_id
        assert "aaa" in vocab.token_to_id

    def test_short_words_never_enter(self):
        vocab = build_vocab(tokens_of(["it is of aa the hoax"],
                                      PrepConfig(min_word_len=3)),
                            max_size=10)
        assert set(vocab.id_to_token[len(SPECIAL_TOKENS):]) == {"the", "hoax"}

    def test_lookup_unknown(self):
        vocab = build_vocab(tokens_of(["hoax"]), max_size=10)
        assert vocab.lookup("nonesuch") == UNK_ID


class TestVocabIO:
    def test_roundtrip(self, tmp_path):
        vocab = build_vocab(tokens_of(["hoax media shocking media"]),
                            max_size=10, min_freq=1)
        path = tmp_path / "vocab.txt"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.token_to_id == vocab.token_to_id
        assert loaded.max_size == vocab.max_size
        assert loaded.min_freq == vocab.min_freq
        assert loaded.config_hash == vocab.config_hash

    def test_line_numbering_contract(self, tmp_path):
        vocab = build_vocab(tokens_of(["zzz yyy yyy"]), max_size=10)
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
        return build_vocab(tokens_of(["hoax media viral story claim"],
                                     self.CFG), max_size=10)

    def _encode(self, *texts):
        return encode_corpus(tokens_of(texts, self.CFG), self._vocab())

    def test_cls_first_then_pad(self):
        ds = self._encode("hoax media")
        assert ds.ids[0, 0] == CLS_ID
        assert ds.true_lengths[0] == 3
        np.testing.assert_array_equal(ds.ids[0, 3:], PAD_ID)
        np.testing.assert_array_equal(ds.mask[0], [1, 1, 1, 0, 0, 0])

    def test_truncation(self):
        ds = self._encode("hoax media viral story claim hoax media")
        assert ds.true_lengths[0] == 6
        assert np.all(ds.mask[0] == 1.0)

    def test_unknown_token_maps_to_unk(self):
        assert self._encode("zebra").ids[0, 1] == UNK_ID

    def test_all_short_doc_is_cls_only(self):
        ds = self._encode("it is a by of")
        assert ds.true_lengths[0] == 1
        np.testing.assert_array_equal(ds.mask[0], [1, 0, 0, 0, 0, 0])

    def test_encode_corpus_shapes_and_dtypes(self):
        vocab = self._vocab()
        ds = encode_corpus(tokens_of(["hoax media", "viral"], self.CFG), vocab)
        assert ds.ids.shape == (2, 6) and ds.ids.dtype == np.int32
        assert ds.mask.shape == (2, 6) and ds.mask.dtype == np.float32
        assert ds.labels.tolist() == [0, 1]
        assert ds.vocab_hash == vocab.config_hash
        assert len(ds) == 2


class TestTokenizeCorpus:
    def test_word_indices_in_first_seen_order(self):
        tokens = tokens_of(["Bbb, aaa! it bbb", "of", "ccc aaa"])
        assert tokens.words == ["bbb", "aaa", "ccc"]
        assert tokens.ids.dtype == np.int32
        assert tokens.ids.tolist() == [0, 1, 0, 2, 1]
        assert tokens.lengths.tolist() == [3, 0, 2]
        assert tokens.raw_lengths.tolist() == [4, 1, 2]
        assert tokens.labels.tolist() == [0, 1, 0]

    def test_stages_against_a_hand_oracle(self):
        tokens = tokens_of(["hoax media media viral story", "it is", "hoax"],
                           PrepConfig(max_seq_len=4))
        vocab = build_vocab(tokens, max_size=3)
        # hoax and media tie at 2 and rank by name; viral falls past 3.
        assert vocab.id_to_token[3:] == ["hoax", "media", "story"]
        assert encode_corpus(tokens, vocab).ids.tolist() == [
            [CLS_ID, 3, 4, 4], [CLS_ID, 0, 0, 0], [CLS_ID, 3, 0, 0]]

    def test_empty_corpus_is_rejected(self):
        with pytest.raises(ArgumentError, match="nonempty corpus"):
            tokenize_corpus(corpus_of([]), PrepConfig())


class TestSeqLengthStats:
    def test_counts_against_hand_oracle(self):
        stats = seq_length_stats(tokens_of(
            ["it is a hoax", "the media lied today ok"],
            PrepConfig(min_word_len=3)))
        assert stats["per_doc_without"] == [4, 5]
        assert stats["per_doc_with"] == [1, 4]
        assert stats["without_removal"]["mean"] == 4.5
        assert stats["with_removal"]["mean"] == 2.5
        assert stats["with_removal"]["max"] == 4

    def test_removal_never_lengthens(self):
        stats = seq_length_stats(tokens_of(
            ["a bb ccc dddd", "the of and", "longwords only here"],
            PrepConfig(min_word_len=3)))
        for w, wo in zip(stats["per_doc_with"], stats["per_doc_without"]):
            assert w <= wo


class TestPrepConfig:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            PrepConfig(min_word_len=0)
        with pytest.raises(ArgumentError):
            PrepConfig(max_seq_len=1)

    def test_hash_sensitivity(self):
        texts = ["the quick brown fox", "an ox is here"]
        hashes = {build_vocab(tokens_of(texts, PrepConfig(min_word_len=n)),
                              10).config_hash for n in (3, 1)}
        assert len(hashes) == 2
