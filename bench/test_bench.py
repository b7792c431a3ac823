"""Tests of the benchmark itself: each checker rejects a corrupted output,
and a tiny-config run of each workload passes its checks in seconds.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckError  # noqa: E402
from ufnd import cli  # noqa: E402
from workloads import WORKLOADS, prepare, run_round  # noqa: E402

TINY_MODEL = {"model.d_model": 16, "model.n_heads": 2, "model.d_ff": 32,
              "model.h1": 16, "model.h2": 8, "vocab.max_size": 60,
              "prep.max_seq_len": 16}


def tiny(name: str):
    """The workload's command sequence and checks at a toy size."""
    w = WORKLOADS[name]
    datasets = tuple(dataclasses.replace(
        spec, n_docs=min(spec.n_docs, 20),
        long_words=(min(spec.long_words[0], 20), min(spec.long_words[1], 24)))
        for spec in w.datasets)
    return dataclasses.replace(w, datasets=datasets,
                               config={**w.config, **TINY_MODEL},
                               majority_margin=None)


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """One checked round of each tiny workload, outputs kept on disk."""
    out = {}
    for name in WORKLOADS:
        plan = prepare(tiny(name), 7, tmp_path_factory.mktemp(name))
        result = run_round(plan, cli.main)
        assert result.failed == 0 and result.check_error is None, (
            result.problems, result.check_error)
        out[name] = plan
    return out


def test_benchmark_json_names_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == {
        "pipeline_s", "train_docs_per_s",
        "eval_docs_per_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["paths"] == [HERE.name]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_is_correct(name, trace, tmp_path):
    result, summary, _ = run.run(tiny(name), 3, 0.0, trace, cli.main,
                                 out=tmp_path)
    assert result["correct"] and result["failed"] == 0, summary["problems"]
    assert result["attempted"] == summary["rounds"] * len(
        prepare(tiny(name), 3, tmp_path / "again").commands)
    if trace:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
        assert result["metrics"]["autograd.nodes_per_step"] > 0
        assert (tmp_path / "traces" / f"{name}-seed3.jsonl").stat().st_size
    else:
        assert all(v > 0 for v in result["metrics"].values())


def test_off_by_one_true_length_is_rejected(rounds, tmp_path):
    plan = rounds["train-padded"]
    src = plan.work / "prep" / "news.train.npz"
    with np.load(src) as data:
        arrays = dict(data)
    arrays["true_lengths"] = arrays["true_lengths"].copy()
    arrays["true_lengths"][1] += 1
    bad = tmp_path / "news.train.npz"
    np.savez(bad, **arrays)
    checks.check_encoded(src, plan.expected["news.train"])
    with pytest.raises(CheckError, match="row 1: true length"):
        checks.check_encoded(bad, plan.expected["news.train"])


def test_swapped_confusion_cell_is_rejected(rounds):
    plan = rounds["train-padded"]
    values = checks.read_eval_metrics(
        plan.work / "eval-news.test" / "metrics.txt")
    labels = plan.expected["news.test"].labels
    checks.check_eval_metrics(values, labels, "eval")
    for a, b in (("tp", "fp"), ("tp", "tn"), ("fn", "tn"), ("fp", "fn")):
        if values[a] != values[b]:
            swapped = {**values, a: values[b], b: values[a]}
            with pytest.raises(CheckError):
                checks.check_eval_metrics(swapped, labels, "eval")


def test_deficit_off_its_table_is_rejected(rounds):
    plan = rounds["unify-compact"]
    out = plan.work / "out"
    header, rows = checks.read_table(out / "table_per_dataset.tsv")
    accepted, chosen = checks.read_phase_one(out / "phase_one.txt")
    baselines = {s.name: 0.5 for s in plan.workload.datasets}
    sizes = plan.workload.unify_batch_sizes
    assert accepted
    checks.check_unify_tables(header, rows, chosen, baselines, sizes, "unify")
    chosen["beta"] = {**chosen["beta"], "deficit": chosen["beta"]["deficit"]
                      + 0.001}
    with pytest.raises(CheckError, match="beta deficit"):
        checks.check_unify_tables(header, rows, chosen, baselines, sizes,
                                  "unify")
    with pytest.raises(CheckError, match="columns"):
        checks.check_unify_tables(header[:-1], rows, chosen, baselines, sizes,
                                  "unify")


def test_flipped_checkpoint_byte_is_rejected(rounds, tmp_path):
    src = rounds["eval-full"].work / "out" / "checkpoint.ufnd"
    blob = src.read_bytes()
    checks.check_checkpoint_file(src)
    payload_byte, header_byte = len(blob) - 100, 20
    for pos, check in ((payload_byte, "CRC"), (header_byte, None)):
        flipped = bytearray(blob)
        flipped[pos] ^= 0x01
        bad = tmp_path / "flipped.ufnd"
        bad.write_bytes(bytes(flipped))
        if check:
            with pytest.raises(CheckError, match=check):
                checks.check_checkpoint_file(bad)
        with pytest.raises(CheckError, match="differs"):
            checks.check_identical(bad.read_bytes(), blob, str(bad))


def test_inputs_depend_only_on_the_seed(tmp_path):
    w = tiny("eval-full")
    a = prepare(w, 11, tmp_path / "a")
    b = prepare(w, 11, tmp_path / "b")
    c = prepare(w, 12, tmp_path / "c")
    for spec in w.datasets:
        name = f"{spec.name}.csv"
        assert (a.work / name).read_bytes() == (b.work / name).read_bytes()
        assert (a.work / name).read_bytes() != (c.work / name).read_bytes()


def test_long_documents_fill_every_position():
    """eval-full's premise: no PAD after the short-word rule."""
    w = WORKLOADS["eval-full"]
    assert all(s.long_words[0] >= int(w.cfg("prep.max_seq_len")) - 1
               for s in w.datasets)
