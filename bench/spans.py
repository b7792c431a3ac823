"""Span tracing from outside the program.

`Tracer.install()` wraps public functions where the calling module looks
them up (`ufnd.encoder.gelu`, `ufnd.trainer.adam_step`, ...), because the
modules import them with `from ... import`.  Each call records a span
(name, start, end, parent) in memory.  Every Tensor made while a span is
open gets its `_backward` closure wrapped too, so backward time is charged
to the op and scope that built the node.  `uninstall()` puts the original
functions back; untraced rounds run the program unchanged.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import statistics
import time

BWD = ":bwd"


class Tracer:
    def __init__(self):
        self.spans = []      # (sid, parent, name, start, end, created_in)
        self._stack = []     # open spans: [sid, name, start, path]
        self._undo = []
        self._next_id = 0
        self.nodes = 0
        self.counts = {}
        self.steps = []      # per train step: (seconds, nodes, minor faults)
        self._round_steps = 0  # index of the current round's first step
        self._step_start = None

    # -- span bookkeeping ---------------------------------------------------

    def open(self, name: str) -> None:
        parent_path = self._stack[-1][3] if self._stack else ()
        self._stack.append([self._next_id, name, time.perf_counter(),
                            parent_path + (name,)])
        self._next_id += 1

    def close(self, created_in=None) -> None:
        sid, name, start, _ = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((sid, parent, name, start, time.perf_counter(),
                           created_in))

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def _path(self):
        return self._stack[-1][3] if self._stack else ()

    def _begin_step(self) -> None:
        self.open("trainer.step")
        self._step_start = (self.nodes,
                            resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    def _end_step(self) -> None:
        if self._stack and self._stack[-1][1] == "trainer.step":
            nodes0, faults0 = self._step_start
            start = self._stack[-1][2]
            self.close()
            self.steps.append((self.spans[-1][4] - start, self.nodes - nodes0,
                               resource.getrusage(resource.RUSAGE_SELF)
                               .ru_minflt - faults0))

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr, name, before=None, after=None,
             ends_step=False) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                if ends_step:
                    tracer._end_step()
                tracer.close()
            if after is not None:
                after(args, kwargs, result)
            return result

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        from ufnd import (autograd, classifier, cli, encoder, model, textprep,
                          trainer, unified)

        def counted(key, size):
            return lambda args, kwargs, result: self.count(key, size(args,
                                                                     result))

        w = self.wrap
        for name in ("prep", "train", "unify", "eval"):
            w(cli, "cmd_" + name, "cli." + name)
        w(cli, "load_dataset", "corpus.load",
          after=counted("corpus.docs", lambda a, r: len(r[0])))
        w(cli, "build_vocab", "textprep.build_vocab")
        w(cli, "encode_corpus", "textprep.encode", after=self._encoded)
        w(cli, "save_encoded", "cli.npz_io")
        w(cli, "load_encoded", "cli.npz_io")
        w(cli, "sha256_file", "cli.sha256")
        w(cli, "save_checkpoint", "checkpoint.save",
          after=counted("checkpoint.bytes",
                        lambda a, r: os.path.getsize(a[1])))
        w(cli, "load_checkpoint", "checkpoint.load")
        w(cli, "phase_one", "unified.phase_one")
        w(cli, "phase_two_sweep", "unified.phase_two")
        w(cli, "phase_two", "unified.phase_two")
        w(cli, "train", "trainer.train", ends_step=True)
        w(unified, "train", "trainer.train", ends_step=True,
          before=lambda a, k: self.count("unified.train_calls"))
        w(trainer, "evaluate", "trainer.validate",
          before=lambda a, k: self._end_step())
        for owner in (cli, trainer):
            w(owner, "predict_dataset", "trainer.predict",
              before=self._predict_begin, after=self._predict_end)
        w(trainer, "make_checkpoint", "trainer.snapshot")
        w(model.Model, "snapshot", "trainer.snapshot")
        w(model, "encode_sequence", "encoder.forward")
        w(encoder, "encoder_block", "encoder.block")
        w(encoder, "self_attention", "encoder.attention")
        w(model, "head_forward", "classifier.head")
        for name in ("gelu", "masked_softmax", "layer_norm", "dropout"):
            w(encoder, name, "numerics." + name)
        w(classifier, "dropout", "numerics.dropout")
        w(trainer, "nll_loss", "numerics.nll_loss")
        w(trainer, "clip_global_norm", "numerics.clip")
        w(trainer, "adam_step", "numerics.adam")
        w(autograd, "linear", "autograd.linear")
        w(autograd, "matmul", "autograd.matmul")
        w(autograd.Tensor, "accumulate_grad", "autograd.accumulate_grad")
        w(autograd.Tensor, "backward", "autograd.backward")

        orig_zero_grad = model.Model.zero_grad
        orig_init = autograd.Tensor.__init__
        orig_remove = textprep.remove_short_words
        tracer = self

        def zero_grad(m):
            tracer._end_step()
            tracer._begin_step()
            return orig_zero_grad(m)

        def tensor_init(t, data, requires_grad=False, _parents=(),
                        _backward=None):
            orig_init(t, data, requires_grad, _parents, _backward)
            tracer.nodes += 1
            if _backward is not None:
                t._backward = tracer._timed_backward(_backward)

        def remove_short_words(tokens, min_word_len):
            kept = orig_remove(tokens, min_word_len)
            if tracer._stack and tracer._stack[-1][1] == "textprep.encode":
                tracer.count("textprep.tokens_dropped",
                             len(tokens) - len(kept))
            return kept

        self._patch(model.Model, "zero_grad", zero_grad)
        self._patch(autograd.Tensor, "__init__", tensor_init)
        self._patch(textprep, "remove_short_words", remove_short_words)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _timed_backward(self, fn):
        path = self._path()
        name = (path[-1] if path else "autograd") + BWD
        tracer = self

        def bwd(g):
            tracer.open(name)
            try:
                fn(g)
            finally:
                tracer.close(created_in=path)

        return bwd

    def _encoded(self, args, kwargs, ds) -> None:
        self.count("textprep.real_positions", int(ds.true_lengths.sum()))
        self.count("textprep.padded_positions", int(ds.ids.size))

    def _predict_begin(self, args, kwargs) -> None:
        self._predict_nodes = self.nodes

    def _predict_end(self, args, kwargs, preds) -> None:
        batch = kwargs.get("batch_size", 256)
        self.count("trainer.predict_batches", math.ceil(len(preds) / batch))
        self.count("trainer.predict_nodes", self.nodes - self._predict_nodes)

    # -- results ------------------------------------------------------------

    def mark(self) -> int:
        """Start a new round; returns the index its spans start at."""
        self.counts = {}
        self._round_steps = len(self.steps)
        return len(self.spans)

    def round_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since `first`."""
        total: dict[str, float] = {}
        bwd_in: dict[str, float] = {}
        for _, _, name, start, end, created in self.spans[first:]:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            if created is not None:
                for scope in set(created):
                    bwd_in[scope] = bwd_in.get(scope, 0.0) + dur
        t = lambda name: total.get(name, 0.0)  # noqa: E731
        c = self.counts.get
        steps = self.steps[self._round_steps:]
        padded = c("textprep.padded_positions", 0)
        return {
            "corpus.load_s": t("corpus.load"),
            "corpus.docs": c("corpus.docs", 0),
            "textprep.build_vocab_s": t("textprep.build_vocab"),
            "textprep.encode_s": t("textprep.encode"),
            "textprep.tokens_dropped": c("textprep.tokens_dropped", 0),
            "textprep.real_token_share":
                c("textprep.real_positions", 0) / padded if padded else 0.0,
            "encoder.forward_s": t("encoder.forward"),
            "encoder.backward_s": bwd_in.get("encoder.forward", 0.0),
            "encoder.attention_forward_s": t("encoder.attention"),
            "encoder.attention_backward_s": bwd_in.get("encoder.attention",
                                                       0.0),
            "encoder.block_forward_s": t("encoder.block"),
            "numerics.gelu_forward_s": t("numerics.gelu"),
            "numerics.gelu_backward_s": t("numerics.gelu" + BWD),
            "numerics.masked_softmax_forward_s": t("numerics.masked_softmax"),
            "numerics.masked_softmax_backward_s":
                t("numerics.masked_softmax" + BWD),
            "numerics.layer_norm_forward_s": t("numerics.layer_norm"),
            "numerics.layer_norm_backward_s": t("numerics.layer_norm" + BWD),
            "numerics.dropout_s": t("numerics.dropout")
                + t("numerics.dropout" + BWD),
            "numerics.nll_loss_s": t("numerics.nll_loss")
                + t("numerics.nll_loss" + BWD),
            "numerics.clip_s": t("numerics.clip"),
            "numerics.adam_s": t("numerics.adam"),
            "autograd.linear_forward_s": t("autograd.linear"),
            "autograd.linear_backward_s": t("autograd.linear" + BWD),
            "autograd.matmul_forward_s": t("autograd.matmul"),
            "autograd.matmul_backward_s": t("autograd.matmul" + BWD),
            "autograd.accumulate_grad_s": t("autograd.accumulate_grad"),
            "autograd.backward_s": t("autograd.backward"),
            "autograd.nodes_per_step":
                statistics.median(s[1] for s in steps) if steps else 0,
            "autograd.eval_nodes_per_batch":
                c("trainer.predict_nodes", 0) / c("trainer.predict_batches", 1),
            "classifier.head_forward_s": t("classifier.head"),
            "classifier.head_backward_s": bwd_in.get("classifier.head", 0.0),
            "trainer.step_s":
                statistics.median(s[0] for s in steps) if steps else 0.0,
            "trainer.steps": len(steps),
            "trainer.validate_s": t("trainer.validate"),
            "trainer.predict_s": t("trainer.predict"),
            "trainer.snapshot_s": t("trainer.snapshot"),
            "trainer.minor_faults_per_step":
                statistics.median(s[2] for s in steps) if steps else 0,
            "checkpoint.save_s": t("checkpoint.save"),
            "checkpoint.load_s": t("checkpoint.load"),
            "checkpoint.bytes": c("checkpoint.bytes", 0),
            "unified.phase_one_s": t("unified.phase_one"),
            "unified.phase_two_s": t("unified.phase_two"),
            "unified.train_calls": c("unified.train_calls", 0),
            "cli.prep_s": t("cli.prep"),
            "cli.train_s": t("cli.train"),
            "cli.unify_s": t("cli.unify"),
            "cli.eval_s": t("cli.eval"),
            "cli.npz_io_s": t("cli.npz_io"),
            "cli.sha256_s": t("cli.sha256"),
        }

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds per layer (the module part of a span's name) spent in
        spans of that layer and not in their child spans."""
        child = {}
        for _, parent, _, start, end, _ in self.spans[first:]:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        layers: dict[str, float] = {}
        for sid, _, name, start, end, _ in self.spans[first:]:
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + (end - start
                                                      - child.get(sid, 0.0))
        return layers

    def step_times(self) -> list[float]:
        """Every traced train step's seconds."""
        return [s[0] for s in self.steps]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, created in self.spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": start, "end": end}
                if created is not None:
                    rec["created_in"] = "/".join(created)
                fh.write(json.dumps(rec) + "\n")


def tail_percentile(values: list[float]):
    """(p, value) for the highest whole percentile with at least ten
    samples above it; None below forty samples, where it is no tail."""
    n = len(values)
    if n < 40:
        return None
    p = math.floor(100 * (1 - 10 / n))
    ordered = sorted(values)
    return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]
