import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ufnd.corpus import (ColumnMap, Corpus, Document, combine, load_dataset,
                         split_indices)
from ufnd.errors import (ArgumentError, DataError, EmptyCorpusError,
                         SchemaError)

MAP = ColumnMap(text_columns=("title", "text"), label_column="label",
                label_mapping={"REAL": 0, "FAKE": 1})


def write_csv(path, rows, header="title,text,label"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def make_corpus(labels, name="c"):
    docs = tuple(Document(text=f"doc {i}", label=l, source=name)
                 for i, l in enumerate(labels))
    return Corpus(docs=docs, name=name)


class TestLoadDataset:
    def test_basic_load(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", [
            "a,body one,REAL",
            "b,body two,FAKE",
        ])
        corpus, report = load_dataset(p, MAP, "d")
        assert len(corpus) == 2
        assert corpus[0].text == "a body one"
        assert [d.label for d in corpus] == [0, 1]
        assert report.rows_read == 2
        assert report.label_histogram == {0: 1, 1: 1}

    def test_text_columns_joined_in_order(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["headline,story,REAL"])
        corpus, _ = load_dataset(p, MAP, "d")
        assert corpus[0].text == "headline story"

    def test_missing_column_named(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["x,REAL"], header="title,label")
        with pytest.raises(SchemaError, match="text"):
            load_dataset(p, MAP, "d")

    def test_unmappable_label_cites_row(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", [
            "a,ok,REAL",
            "b,bad,MAYBE",
        ])
        with pytest.raises(DataError, match="row 3"):
            load_dataset(p, MAP, "d")

    def test_empty_rows_dropped_and_counted(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", [
            "a,ok,REAL",
            ",,FAKE",
            "b,ok,FAKE",
        ])
        corpus, report = load_dataset(p, MAP, "d")
        assert len(corpus) == 2
        assert report.rows_dropped_empty == 1

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(EmptyCorpusError):
            load_dataset(p, MAP, "d")

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", [])
        with pytest.raises(EmptyCorpusError):
            load_dataset(p, MAP, "d")

    def test_tab_delimiter(self, tmp_path):
        p = tmp_path / "d.tsv"
        p.write_text("title\ttext\tlabel\na\tok\tREAL\n")
        corpus, _ = load_dataset(p, MAP, "d", delimiter="\t")
        assert len(corpus) == 1


class TestDocument:
    def test_label_validated(self):
        with pytest.raises(ArgumentError):
            Document(text="x", label=2, source="s")


class TestSplit:
    def test_sizes_floor(self):
        train, test = split_indices(10, 0.8, seed=1)
        assert len(train) == 8 and len(test) == 2

    def test_partition_no_overlap_no_loss(self):
        train, test = split_indices(37, 0.8, seed=9)
        assert sorted(np.concatenate([train, test]).tolist()) == \
            list(range(37))

    def test_deterministic_in_seed(self):
        a = split_indices(20, 0.8, seed=4)
        b = split_indices(20, 0.8, seed=4)
        c = split_indices(20, 0.8, seed=5)
        for part_a, part_b in zip(a, b):
            np.testing.assert_array_equal(part_a, part_b)
        assert a[0].tolist() != c[0].tolist()

    def test_bad_ratio(self):
        with pytest.raises(ArgumentError):
            split_indices(2, 1.0, seed=0)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 200), ratio=st.floats(0.05, 0.95),
           seed=st.integers(0, 2 ** 31))
    def test_split_sizes_property(self, n, ratio, seed):
        train, test = split_indices(n, ratio, seed)
        assert len(train) == math.floor(ratio * n)
        assert len(train) + len(test) == n


class TestCombine:
    def test_order_and_sources(self):
        a = make_corpus([0, 0], "a")
        b = make_corpus([1], "b")
        c = combine([a, b])
        assert c.name == "a+b"
        assert [d.source for d in c] == ["a", "a", "b"]
        assert len(c) == 3

    def test_empty_list(self):
        with pytest.raises(ArgumentError):
            combine([])

    def test_label_counts_additive(self):
        a = make_corpus([0, 1, 1], "a")
        b = make_corpus([1, 0], "b")
        c = combine([a, b])
        counts = np.bincount([d.label for d in c])
        np.testing.assert_array_equal(counts, [2, 3])
