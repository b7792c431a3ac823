"""Acceptance suite: one test per criterion, each printing a single
pass/fail line (run with `pytest tests/test_acceptance.py -s` to see the
lines as they complete)."""

import dataclasses
import time

import numpy as np
import pytest

from conftest import small_batch, small_model
from ufnd.autograd import Parameter, Tensor
from ufnd.checkpoint import load_checkpoint, save_checkpoint
from ufnd.cli import main
from ufnd.corpus import combine, split
from ufnd.encoder import EncoderConfig, init_encoder_params, param_count
from ufnd.errors import IntegrityError
from ufnd.metrics import Confusion, compute_metrics, confusion
from ufnd.model import Model, desk_config, tiny_config
from ufnd.numerics import (AdamState, RngStreams, adam_step, clip_global_norm,
                           grad_check, layer_norm, log_softmax,
                           masked_softmax, nll_loss)
from ufnd.synthetic import make_synthetic_corpus, write_synthetic_csv
from ufnd.textprep import (PrepConfig, build_vocab, encode_corpus,
                           remove_short_words, seq_length_stats)
from ufnd.trainer import TrainConfig, estimate_cost, train
from ufnd.unified import EncodedSplit, phase_one, phase_two


def report(n, title, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {n:2d} [{title}]: {status}{suffix}")
    assert passed, f"criterion {n} ({title}) failed: {detail}"


class TestCriterion1GradientCorrectness:
    def test_tiny_model_finite_differences(self):
        t0 = time.perf_counter()
        ids, mask, labels = small_batch(seed=1)
        results = {}
        # eps is dtype-matched: 1e-3 sits above float32 rounding noise,
        # 1e-5 keeps float64 differences clear of ReLU kink crossings
        for dtype, eps, floor, tol in ((np.float32, 1e-3, 1e-4, 1e-2),
                                       (np.float64, 1e-5, 1e-9, 1e-4)):
            model = small_model(dtype=dtype, dropout_rate=0.0)
            # eval mode: BN uses running statistics and dropout is off,
            # so the loss is deterministic as the checker requires
            res = grad_check(
                lambda: nll_loss(model.forward(ids, mask, "eval"), labels),
                model.parameters(), eps=eps, abs_floor=floor, n_samples=200)
            results[np.dtype(dtype).name] = (res.max_rel_error, tol,
                                             res.n_checked)
        seconds = time.perf_counter() - t0
        ok = all(err < tol and n >= 200
                 for err, tol, n in results.values()) and seconds < 60
        detail = ", ".join(f"{name} max_rel_err {err:.2e} < {tol}"
                           for name, (err, tol, _) in results.items())
        report(1, "gradient correctness", ok,
               f"{detail}, {seconds:.1f}s")


class TestCriterion2NormalizationInvariants:
    N_ROWS = 10_000

    def test_row_invariants(self):
        rng = np.random.default_rng(2)
        dim = 32

        scores = Tensor(rng.uniform(-30, 30, size=(self.N_ROWS, 1, 4, dim)))
        key_mask = (rng.random((self.N_ROWS, dim)) > 0.3).astype(np.float64)
        key_mask[:, 0] = 1.0  # no fully masked sample
        attn = masked_softmax(scores, key_mask).data
        attn_err = np.abs(attn.sum(axis=-1) - 1.0).max()

        lsm = log_softmax(Tensor(rng.uniform(-50, 50,
                                             size=(self.N_ROWS, dim)))).data
        lsm_err = np.abs(np.exp(lsm).sum(axis=-1) - 1.0).max()

        x = Tensor(rng.standard_normal((self.N_ROWS, dim)))
        gain = Parameter(np.ones(dim), "g")
        bias = Parameter(np.zeros(dim), "b")
        ln = layer_norm(x, gain, bias).data  # pre-affine with identity affine
        mean_err = np.abs(ln.mean(axis=-1)).max()
        var_err = np.abs(ln.var(axis=-1) - 1.0).max()

        ok = (attn_err < 1e-6 and lsm_err < 1e-6
              and mean_err < 1e-5 and var_err < 1e-4)
        report(2, "normalization invariants", ok,
               f"attn {attn_err:.1e}, softmax {lsm_err:.1e}, "
               f"ln mean {mean_err:.1e}, ln var {var_err:.1e}, "
               f"{self.N_ROWS} rows each")


class TestCriterion3OptimizerContracts:
    def test_clip_and_adam(self):
        rng = np.random.default_rng(3)
        clip_ok = True
        for _ in range(200):
            params = []
            for i in range(rng.integers(1, 6)):
                p = Parameter(np.zeros(rng.integers(1, 30)), f"p{i}")
                p.grad = rng.standard_normal(p.data.shape) * rng.uniform(0, 5)
                params.append(p)
            pre = clip_global_norm(params, 1.0)
            post = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
            if pre > 1.0 and post > 1.0 + 1e-6:
                clip_ok = False

        p = Parameter(rng.standard_normal(10), "w")
        before = p.data.copy()
        state = AdamState.for_param(p, lr=0.003)
        for _ in range(3):
            p.grad = np.zeros(10)
            adam_step(p, state)
        zero_ok = np.array_equal(p.data, before)

        p = Parameter(np.array([0.0]), "w")
        p.grad = np.array([1.0])
        adam_step(p, AdamState.for_param(p, lr=0.003))
        first_err = abs(abs(float(p.data[0])) - 0.003)
        ok = clip_ok and zero_ok and first_err < 1e-6
        report(3, "optimizer/clipping contracts", ok,
               f"clip property 200 trials, zero-grad identity, "
               f"first step err {first_err:.1e} at lr=0.003 clip=1")


class TestCriterion4PreprocessingRule:
    def test_short_word_rule(self):
        rng = np.random.default_rng(4)
        alphabet = list("abcdefghij")
        rule_ok = True
        for _ in range(500):
            tokens = ["".join(rng.choice(alphabet,
                                         size=rng.integers(1, 11)))
                      for _ in range(rng.integers(0, 30))]
            out = remove_short_words(tokens, 3)
            expected = [t for t in tokens if len(t) >= 3]
            if out != expected:                      # exact removal set
                rule_ok = False
            if remove_short_words(out, 3) != out:    # idempotent
                rule_ok = False
            # order preservation is implied by equality with the
            # order-preserving comprehension oracle above

        corpus = make_synthetic_corpus(200, "stats", seed=4)
        cfg = PrepConfig(min_word_len=3)
        stats = seq_length_stats(corpus, cfg)
        stats_ok = True
        for doc, w, wo in zip(corpus, stats["per_doc_with"],
                              stats["per_doc_without"]):
            raw = doc.text.lower().split()
            if wo != len(raw) or w != len([t for t in raw if len(t) >= 3]):
                stats_ok = False
            if w > wo:
                stats_ok = False
        report(4, "preprocessing rule", rule_ok and stats_ok,
               "500 random token lists + 200-doc stats recount")


class TestCriterion5SpeedupBracket:
    def test_cost_ratio(self):
        cfg = desk_config()
        c200 = estimate_cost(cfg.encoder, cfg.head, 200, 32)
        c120 = estimate_cost(cfg.encoder, cfg.head, 120, 32)
        ratio = c200 / c120
        report(5, "speedup bracket", 1.5 <= ratio <= 2.8,
               f"ratio {ratio:.3f} in [1.5, 2.8]")


class TestCriterion6Learnability:
    def test_two_phase_pipeline(self):
        t0 = time.perf_counter()
        prep = PrepConfig(min_word_len=3, max_seq_len=12)
        corpora = [make_synthetic_corpus(200, f"toy{i}", seed=100 + i)
                   for i in range(3)]
        comb = combine(corpora)
        vocab = build_vocab(comb, prep, 100)

        def enc_split(corpus, seed):
            sc = split(corpus, 0.8, seed)
            return EncodedSplit(corpus.name,
                                encode_corpus(sc.train, vocab, prep),
                                encode_corpus(sc.test, vocab, prep))

        datasets = [enc_split(c, 7) for c in corpora]
        mc = tiny_config(vocab_size=len(vocab), max_seq_len=12)
        tc = TrainConfig(seed=7, epochs=10, batch_size=16)
        result = phase_one(datasets, mc, tc,
                           {c.name: 0.85 for c in corpora}, 0.10,
                           batch_sizes=(16, 32))

        combined = enc_split(comb, 7)
        best_ds = max(result.best_metrics,
                      key=lambda n: result.best_metrics[n].accuracy)
        _, rep = phase_two(combined, mc, dataclasses.replace(tc, epochs=20),
                           result.best_checkpoints[best_ds])
        seconds = time.perf_counter() - t0
        ok = (result.accepted and rep.best_val_accuracy >= 0.95
              and rep.best_epoch <= 20 and seconds < 300)
        report(6, "learnability", ok,
               f"phase 1 accepted={result.accepted}, joint val acc "
               f"{rep.best_val_accuracy:.3f} >= 0.95 at epoch "
               f"{rep.best_epoch}, {seconds:.1f}s")


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Synthetic CSVs prepped twice (removal on / off) for the CLI tests."""
    root = tmp_path_factory.mktemp("acceptance_cli")
    lines = [
        "model.d_model = 16", "model.n_heads = 2", "model.d_ff = 32",
        "model.n_blocks_total = 12", "model.h1 = 32", "model.h2 = 24",
        "prep.max_seq_len = 12", "vocab.max_size = 200",
        "train.epochs = 1", "train.batch_size = 16", "train.seed = 7",
    ]
    for i in range(1, 4):
        corpus = make_synthetic_corpus(60, f"ds{i}", seed=500 + i)
        write_synthetic_csv(corpus, root / f"ds{i}.csv")
        lines += [f"data{i}.path = {root / f'ds{i}.csv'}",
                  f"data{i}.text_columns = title,text",
                  f"data{i}.label_column = label",
                  f"data{i}.label_mapping = REAL:0,FAKE:1",
                  f"data{i}.name = ds{i}"]
    config = root / "base.cfg"
    config.write_text("\n".join(lines) + "\n")
    prep_out = root / "prep"
    assert main(["prep", "--config", str(config),
                 "--out", str(prep_out)]) == 0
    noprep_out = root / "prep_noprep"
    assert main(["prep", "--config", str(config), "--out", str(noprep_out),
                 "--preprocess", "off", "--max-seq-len", "16"]) == 0
    return root, config, prep_out, noprep_out


class TestCriterion7TableShapes:
    def test_unify_tables(self, cli_workspace):
        root, config, prep_out, noprep_out = cli_workspace
        baselines = root / "baselines.tsv"
        baselines.write_text("ds1\t0.55\tfloor\nds2\t0.55\tfloor\n"
                             "ds3\t0.55\tfloor\n")
        extra = [config.read_text()]
        for i in range(1, 4):
            extra += [f"dataset{i}.train = {prep_out / f'ds{i}.train.npz'}",
                      f"dataset{i}.test = {prep_out / f'ds{i}.test.npz'}",
                      f"dataset{i}.name = ds{i}"]
        extra += [f"combined.train = {prep_out / 'combined.train.npz'}",
                  f"combined.test = {prep_out / 'combined.test.npz'}",
                  f"combined_noprep.train = {noprep_out / 'combined.train.npz'}",
                  f"combined_noprep.test = {noprep_out / 'combined.test.npz'}",
                  f"baselines = {baselines}",
                  "unify.threshold = 0.45"]
        unify_cfg = root / "unify.cfg"
        unify_cfg.write_text("\n".join(extra) + "\n")
        out = root / "unify_out"
        code = main(["unify", "--config", str(unify_cfg), "--out", str(out)])

        per_ds = (out / "table_per_dataset.tsv").read_text().strip().splitlines()
        header = per_ds[1].split("\t")
        batch_rows = per_ds[2:]
        per_ds_ok = (len(batch_rows) == 7
                     and [r.split("\t")[0] for r in batch_rows]
                     == ["16", "32", "64", "128", "256", "512", "1024"]
                     and len(header) == 1 + 3 * 4)

        mode_ok = True
        for stem in ("table_combined_prep", "table_combined_noprep"):
            tbl = (out / f"{stem}.tsv").read_text().strip().splitlines()
            if len(tbl) != 2 + 7 or tbl[1].split("\t") != [
                    "Minibatch size", "Accuracy", "Precision", "Recall",
                    "F1-score"]:
                mode_ok = False
        report(7, "table shapes (unify)", code == 0 and per_ds_ok and mode_ok,
               "7 batch sizes x 4 metrics per dataset and per "
               "preprocessing mode")

    def test_ablation_grid(self, cli_workspace):
        root, config, prep_out, _ = cli_workspace
        ablate_cfg = root / "ablate.cfg"
        ablate_cfg.write_text(
            config.read_text()
            + f"combined.train = {prep_out / 'combined.train.npz'}\n"
            + f"combined.test = {prep_out / 'combined.test.npz'}\n")
        out = root / "ablate_out"
        code = main(["ablate", "--config", str(ablate_cfg),
                     "--out", str(out)])
        tbl = (out / "table_ablation.tsv").read_text().strip().splitlines()
        rows = [line.split("\t") for line in tbl[2:]]
        labels = [r[0] for r in rows]
        expected_subsets = ["1,3,5,7,9,11", "1,5,9", "1,9", "5"]
        expected_labels = [f"{s} ({b})" for s in expected_subsets
                           for b in (16, 32, 64, 128)]
        params_per_subset = [int(rows[i * 4][-1]) for i in range(4)]
        decreasing = all(a > b for a, b in zip(params_per_subset,
                                               params_per_subset[1:]))
        ok = (code == 0 and len(rows) == 16 and labels == expected_labels
              and decreasing)
        report(7, "table shapes (ablation)", ok,
               f"16 rows, params {params_per_subset} strictly decreasing")


class TestCriterion8MetricsOracle:
    def test_against_brute_force(self):
        hand = compute_metrics(Confusion(tp=3, fp=1, fn=1, tn=5))
        hand_ok = hand.rounded() == (0.8, 0.75, 0.75, 0.75)

        rng = np.random.default_rng(8)
        max_err = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 60))
            preds = rng.integers(0, 2, n)
            targets = rng.integers(0, 2, n)
            m = compute_metrics(confusion(preds, targets))
            tp = int(np.sum((preds == 1) & (targets == 1)))
            fp = int(np.sum((preds == 1) & (targets == 0)))
            fn = int(np.sum((preds == 0) & (targets == 1)))
            tn = int(np.sum((preds == 0) & (targets == 0)))
            acc = (tp + tn) / n
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
            max_err = max(max_err, abs(m.accuracy - acc),
                          abs(m.precision - prec), abs(m.recall - rec),
                          abs(m.f1 - f1))
        report(8, "metrics oracle", hand_ok and max_err < 1e-12,
               f"hand case {hand.rounded()}, 1000-vector max err "
               f"{max_err:.1e}")


class TestCriterion9DeterminismPersistence:
    def _setup(self):
        corpus = make_synthetic_corpus(120, "det", seed=9)
        prep = PrepConfig(min_word_len=3, max_seq_len=12)
        vocab = build_vocab(corpus, prep, 100)
        sc = split(corpus, 0.8, 9)
        return (encode_corpus(sc.train, vocab, prep),
                encode_corpus(sc.test, vocab, prep),
                tiny_config(vocab_size=len(vocab), max_seq_len=12))

    def test_determinism_resume_and_corruption(self, tmp_path):
        train_ds, test_ds, mc = self._setup()

        def run(epochs, resume=None):
            model = Model(mc, RngStreams(9))
            cfg = TrainConfig(seed=9, epochs=epochs, batch_size=16)
            return train(model, train_ds, test_ds, cfg, resume=resume)

        ckpt_a, rep_a = run(4)
        ckpt_b, rep_b = run(4)
        trace_ok = rep_a.loss_trace() == rep_b.loss_trace()
        pa, pb = tmp_path / "a.ufnd", tmp_path / "b.ufnd"
        save_checkpoint(ckpt_a, pa)
        save_checkpoint(ckpt_b, pb)
        bits_ok = pa.read_bytes() == pb.read_bytes()

        mid_ckpt, mid_rep = run(2)
        mid_path = tmp_path / "mid.ufnd"
        save_checkpoint(mid_ckpt, mid_path)
        _, resumed_rep = run(4, resume=load_checkpoint(mid_path))
        resume_ok = (mid_rep.loss_trace() + resumed_rep.loss_trace()
                     == rep_a.loss_trace())

        blob = bytearray(pa.read_bytes())
        blob[-8] ^= 0x10
        bad = tmp_path / "bad.ufnd"
        bad.write_bytes(bytes(blob))
        try:
            load_checkpoint(bad)
            corrupt_ok = False
        except IntegrityError:
            corrupt_ok = True

        report(9, "determinism and persistence",
               trace_ok and bits_ok and resume_ok and corrupt_ok,
               f"traces equal={trace_ok}, bit-identical={bits_ok}, "
               f"resume exact={resume_ok}, corruption rejected={corrupt_ok}")


class TestCriterion10ParameterCount:
    def test_reference_and_oracle(self):
        reference = EncoderConfig(
            vocab_size=30522, d_model=768, n_heads=12, d_ff=3072,
            max_seq_len=512, n_blocks_total=12,
            block_subset=tuple(range(1, 13)))
        count = param_count(reference)
        within = abs(count - 110_000_000) / 110_000_000 <= 0.10

        oracle_ok = True
        for subset in [(1,), (2, 5), (1, 2, 3)]:
            cfg = EncoderConfig(vocab_size=40, d_model=8, n_heads=2, d_ff=16,
                                max_seq_len=10, n_blocks_total=6,
                                block_subset=subset)
            params = init_encoder_params(cfg, np.random.default_rng(0))
            walked = sum(p.data.size for p in params.parameters())
            if walked != param_count(cfg):
                oracle_ok = False
        report(10, "parameter count", within and oracle_ok,
               f"reference config {count:,} within 10% of 110M, "
               "allocation walk exact at tiny configs")
