import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ufnd.autograd import Parameter, Tensor
from ufnd.errors import ArgumentError, NonFiniteError
from ufnd.numerics import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState,
                           RngStreams, adam_step, assert_all_finite,
                           clip_global_norm, dropout, gelu, grad_check,
                           layer_norm, log_softmax, masked_softmax, nll_loss,
                           relu, xavier_init)
from ufnd.numerics import _erf, _gelu, _gelu_slope, _masked_softmax

EPS32 = float(np.finfo(np.float32).eps)


def _exact_cdf(x64):
    """0.5 * (1 + erf(x / sqrt 2)) through math.erf, in the kernel's order."""
    erf = np.frompyfunc(math.erf, 1, 1)(x64 / math.sqrt(2.0))
    return (erf.astype(np.float64) + 1.0) * 0.5


class TestLogSoftmax:
    def test_symmetric_pair(self):
        out = log_softmax(Tensor(np.array([[0.0, 0.0]])))
        np.testing.assert_allclose(out.data, [[-math.log(2)] * 2], atol=1e-7)

    def test_single_element(self):
        out = log_softmax(Tensor(np.array([[5.0]])))
        np.testing.assert_allclose(out.data, [[0.0]], atol=1e-7)

    def test_large_values_stay_finite(self):
        out = log_softmax(Tensor(np.array([[1000.0, 0.0]])))
        assert np.all(np.isfinite(out.data))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1e4, 1e4, size=(500, 7))
        out = log_softmax(Tensor(x))
        np.testing.assert_allclose(np.exp(out.data).sum(axis=-1), 1.0,
                                   atol=1e-6)

    def test_gradient(self):
        x = Parameter(np.array([[1.0, 2.0, 3.0]]), "x")
        out = log_softmax(x)
        loss = nll_loss(out, np.array([1]))
        loss.backward()
        softmax = np.exp(out.data[0])
        expected = softmax.copy()
        expected[1] -= 1.0
        np.testing.assert_allclose(x.grad[0], expected, atol=1e-7)


class TestGelu:
    def test_zero(self):
        assert gelu(Tensor(np.array([0.0]))).data[0] == 0.0

    def test_asymptote(self):
        assert abs(gelu(Tensor(np.array([10.0]))).data[0] - 10.0) < 1e-6

    def test_value_against_erf_oracle(self):
        # independent evaluation of x * Phi(x) via math.erf
        x = 1.0
        expected = x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        assert abs(expected - 0.8413447) < 1e-6
        assert abs(gelu(Tensor(np.array([x]))).data[0] - expected) < 1e-6

    def test_gradient_finite_difference(self):
        x = Parameter(np.linspace(-3, 3, 13), "x")
        gelu(x).backward()
        eps = 1e-6
        numeric = (gelu(Tensor(x.data + eps)).data
                   - gelu(Tensor(x.data - eps)).data) / (2 * eps)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6)


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_dtype_and_matches_formula(self, dtype):
        rng = np.random.default_rng(4)
        x = Parameter(rng.standard_normal((3, 5)).astype(dtype), "x")
        before = x.data.copy()
        out = gelu(x)
        assert out.dtype == dtype
        np.testing.assert_array_equal(x.data, before)
        x64 = x.data.astype(np.float64)
        expected = x64 * _exact_cdf(x64)
        if dtype == np.float64:
            # the kernel runs math.erf in float64, in the same order
            np.testing.assert_array_equal(out.data, expected)
        else:
            assert np.all(np.abs(out.data - expected)
                          <= 4 * EPS32 * np.maximum(1.0, np.abs(x64)))
        out.backward()
        assert x.grad.dtype == dtype

    def test_float32_matches_exact_erf_on_dense_grid(self):
        # takes in the clamp point +-4 sqrt 2 and |x| > 5.7, where float32
        # erf saturates
        x = np.linspace(-12.0, 12.0, 240_001, dtype=np.float32)
        clamp = np.float32(4.0 * math.sqrt(2.0))
        x = np.concatenate([x, [-clamp, clamp]]).astype(np.float32)
        out, ours_cdf = _gelu(x)
        x64 = x.astype(np.float64)
        cdf = _exact_cdf(x64)
        pdf = np.exp(-0.5 * x64 ** 2) / math.sqrt(2.0 * math.pi)
        bound = 4 * EPS32 * np.maximum(1.0, np.abs(x64))
        assert out.dtype == np.float32
        assert np.all(np.abs(out - x64 * cdf) <= bound)
        assert np.all(np.abs(_gelu_slope(x, ours_cdf) - (cdf + x64 * pdf))
                      <= bound)
        ours = x / np.float32(math.sqrt(2.0))
        _erf(ours)
        ours += 1.0
        ours *= 0.5
        assert ours.min() >= 0.0 and ours.max() <= 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_nan_stays_nan_and_inf_stays_inf(self, dtype):
        out, _ = _gelu(np.array([np.nan, np.inf], dtype=dtype))
        assert np.isnan(out[0])
        assert out[1] == np.inf

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_slope_is_bitwise_the_unfused_expression(self, dtype):
        x = np.random.default_rng(5).standard_normal((40, 16)).astype(dtype)
        _, ours_cdf = _gelu(x)
        cdf = x / math.sqrt(2.0)
        _erf(cdf)
        cdf += 1.0
        cdf *= 0.5
        pdf = np.exp(-0.5 * x ** 2) / math.sqrt(2.0 * math.pi)
        got = _gelu_slope(x, ours_cdf)
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, cdf + x * pdf)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, (1 << 16) + 3, 200_001])
    def test_sliced_gelu_is_bitwise_the_whole_array_formula(self, dtype,
                                                            size):
        x = (np.random.default_rng(size).standard_normal(size) * 3
             ).astype(dtype)
        out, ours_cdf = _gelu(x)
        cdf = x / math.sqrt(2.0)
        _erf(cdf)
        cdf += 1.0
        cdf *= 0.5
        assert out.dtype == dtype
        np.testing.assert_array_equal(ours_cdf, cdf)
        # feed_forward's backward rebuilds the output as this product
        np.testing.assert_array_equal(out, x * ours_cdf)
        pdf = np.exp(-0.5 * x ** 2) / math.sqrt(2.0 * math.pi)
        np.testing.assert_array_equal(_gelu_slope(x, ours_cdf), cdf + x * pdf)


def test_import_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, ufnd.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_import_does_not_load_process_pools():
    """`run_cells` imports them when it forks, not `import ufnd.cli`."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, ufnd.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'multiprocessing' "
            "or m.startswith('concurrent.futures')))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


class TestLayerNorm:
    def _gain_bias(self, d, dtype=np.float64):
        return (Parameter(np.ones(d, dtype=dtype), "g"),
                Parameter(np.zeros(d, dtype=dtype), "b"))

    def test_constant_row_zeros(self):
        g, b = self._gain_bias(4)
        out = layer_norm(Tensor(np.full((1, 4), 7.0)), g, b)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_mean_zero_variance_one(self):
        rng = np.random.default_rng(1)
        g, b = self._gain_bias(16)
        out = layer_norm(Tensor(rng.standard_normal((32, 16))), g, b,
                         eps=1e-12)
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.data.var(axis=-1), 1.0, atol=1e-5)

    def test_hand_case(self):
        g, b = self._gain_bias(3)
        out = layer_norm(Tensor(np.array([[1.0, 2.0, 3.0]])), g, b, eps=1e-12)
        r = math.sqrt(3.0 / 2.0)
        np.testing.assert_allclose(out.data, [[-r, 0.0, r]], atol=1e-6)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(2)
        x = Parameter(rng.standard_normal((2, 5)), "x")
        g = Parameter(rng.standard_normal(5), "g")
        b = Parameter(rng.standard_normal(5), "b")
        res = grad_check(lambda: nll_loss(
            log_softmax(layer_norm(x, g, b)), np.array([0, 1])),
            [x, g, b], eps=1e-6, abs_floor=1e-10, n_samples=20)
        assert res.max_rel_error < 1e-4


class TestDropout:
    def test_eval_identity(self):
        x = Tensor(np.ones((4, 4)))
        rng = np.random.default_rng(0)
        assert dropout(x, 0.5, "eval", rng) is x

    def test_rate_zero_identity(self):
        x = Tensor(np.ones((4, 4)))
        assert dropout(x, 0.0, "train", np.random.default_rng(0)) is x

    def test_kept_fraction_and_mean(self):
        rng = np.random.default_rng(3)
        x = Tensor(np.ones(10 ** 6))
        out = dropout(x, 0.1, "train", rng)
        kept = np.count_nonzero(out.data) / x.data.size
        assert abs(kept - 0.9) < 0.01
        assert abs(out.data.mean() - 1.0) < 0.01

    def test_bad_rate(self):
        with pytest.raises(ArgumentError):
            dropout(Tensor(np.ones(2)), 1.0, "train", np.random.default_rng(0))


class TestMaskedSoftmax:
    def test_masked_keys_get_exact_zero(self):
        scores = Tensor(np.random.default_rng(0).standard_normal((2, 3, 4, 5)))
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]], dtype=np.float32)
        out = masked_softmax(scores, mask)
        assert np.all(out.data[0, :, :, 3:] == 0.0)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_formula_bitwise_and_keeps_scores(self, dtype):
        rng = np.random.default_rng(5)
        scores = Parameter((rng.standard_normal((3, 2, 4, 6)) * 20
                            ).astype(dtype), "s")
        before = scores.data.copy()
        mask = np.array([[1, 1, 1, 1, 0, 0], [1, 0, 0, 0, 0, 0],
                         [1, 1, 1, 1, 1, 1]])
        out = masked_softmax(scores, mask)
        masked = np.where(mask[:, None, None, :] > 0, before,
                          np.array(-np.inf, dtype=dtype))
        exps = np.exp(masked - masked.max(axis=-1, keepdims=True))
        assert out.dtype == dtype
        np.testing.assert_array_equal(scores.data, before)
        np.testing.assert_array_equal(
            out.data, exps / exps.sum(axis=-1, keepdims=True))
        out.backward()
        assert scores.grad.dtype == dtype

    @pytest.mark.parametrize("pad", [True, False])
    def test_in_buffer_kernel_matches_the_where_formula(self, pad):
        rng = np.random.default_rng(7)
        scores = (rng.standard_normal((3, 2, 5, 5)) * 10).astype(np.float32)
        mask = np.ones((3, 5), dtype=np.float32)
        if pad:
            mask[0, 3:] = mask[1, 1:] = 0.0
        masked = np.where(mask[:, None, None, :] > 0, scores,
                          np.float32(-np.inf))
        exps = np.exp(masked - masked.max(axis=-1, keepdims=True))
        probs, _ = _masked_softmax(scores.copy(), mask)
        np.testing.assert_array_equal(
            probs, exps / exps.sum(axis=-1, keepdims=True))


class TestXavierInit:
    def test_bound_for_300x300(self):
        rng = np.random.default_rng(0)
        w = xavier_init((300, 300), rng)
        assert np.all(np.abs(w) <= math.sqrt(6.0 / 600) + 1e-9)
        assert math.isclose(math.sqrt(6.0 / 600), 0.1)

    def test_empirical_variance(self):
        rng = np.random.default_rng(1)
        w = xavier_init((500, 200), rng)  # 1e5 draws
        target = 2.0 / (500 + 200)
        assert abs(w.var() - target) / target < 0.10

    def test_determinism(self):
        a = xavier_init((10, 10), np.random.default_rng(7))
        b = xavier_init((10, 10), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)


class TestClipGlobalNorm:
    def _params(self, grads):
        out = []
        for i, g in enumerate(grads):
            p = Parameter(np.zeros_like(g), f"p{i}")
            p.grad = g.copy()
            out.append(p)
        return out

    def test_scaling(self):
        params = self._params([np.array([6.0, 8.0])])  # norm 10
        pre = clip_global_norm(params, 1.0)
        assert abs(pre - 10.0) < 1e-6
        np.testing.assert_allclose(params[0].grad, [0.6, 0.8], atol=1e-6)

    def test_noop_below_clip(self):
        params = self._params([np.array([0.3, 0.4])])  # norm 0.5
        clip_global_norm(params, 1.0)
        np.testing.assert_array_equal(params[0].grad, [0.3, 0.4])

    def test_post_norm_bounded_property(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            grads = [rng.standard_normal(rng.integers(1, 20)) * 10
                     for _ in range(rng.integers(1, 5))]
            params = self._params(grads)
            clip_global_norm(params, 1.0)
            post = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
            assert post <= 1.0 * (1 + 1e-6)


class TestRowGradients:
    """A table's gradient held by rows clips and steps exactly as the
    dense gradient with zeros elsewhere."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_twelve_adam_steps_match_dense_adam_bitwise(self, dtype):
        rng = np.random.default_rng(21)
        start = rng.standard_normal((10, 3)).astype(dtype)
        by_rows, dense = Parameter(start.copy(), "t"), Parameter(start, "t")
        row_state = AdamState.for_param(by_rows)
        dense_state = AdamState.for_param(dense)
        # Row 7 has a gradient at step 1 only; row 5 is in every batch
        # from step 3 on with an exactly zero gradient; row 9 in none.
        pool = np.array([0, 1, 2, 3, 4, 6, 8])
        for t in range(1, 13):
            rows = rng.choice(pool, size=rng.integers(1, 5), replace=False)
            extra = [7] if t == 1 else [5] if t >= 3 else []
            rows = np.union1d(rows, np.array(extra, dtype=rows.dtype))
            values = (rng.standard_normal((rows.size, 3))
                      * 10.0 ** rng.integers(-4, 2)).astype(dtype)
            values[rows == 5] = 0.0
            by_rows.zero_grad()
            by_rows.accumulate_rows(rows, values.copy())
            dense.grad = np.zeros_like(start)
            dense.grad[rows] = values
            adam_step(by_rows, row_state)
            adam_step(dense, dense_state)
            if t == 6:  # continue from the moments alone, as on resume
                saved = row_state
                row_state = AdamState.for_param(by_rows)
                row_state.resume(saved.m.copy(), saved.v.copy(), saved.t)
                assert 7 in row_state.rows and 9 not in row_state.rows
            assert dense_state.rows is None
            np.testing.assert_array_equal(by_rows.data, dense.data)
            np.testing.assert_array_equal(row_state.m, dense_state.m)
            np.testing.assert_array_equal(row_state.v, dense_state.v)
        assert row_state.t == dense_state.t == 12
        assert row_state.rows.tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8]
        assert by_rows.data[9].tolist() == start[9].tolist()

    def test_resume_keeps_rows_whose_moments_are_negative_zero(self):
        # -0.0 is no fixed point: 0.9 * -0.0 + 0.1 * 0.0 is +0.0.
        m = np.zeros((4, 2), dtype=np.float32)
        m[2, 1] = -0.0
        results = []
        for by_rows in (True, False):
            p = Parameter(np.ones((4, 2), dtype=np.float32), "t")
            state = AdamState.for_param(p)
            state.resume(m.copy(), np.zeros_like(m), 3)
            if by_rows:
                p.accumulate_rows(np.array([0]), np.ones((1, 2), np.float32))
            else:
                p.grad = np.zeros_like(m)
                p.grad[0] = 1.0
            adam_step(p, state)
            results.append((p.data.tobytes(), state.m.tobytes(),
                            state.v.tobytes()))
        assert results[0] == results[1]

    def _mixed(self, rng, values):
        table_rows = np.array([1, 4, 6])
        table_vals = values(rng, (3, 4))
        bias = values(rng, (5,))
        by_rows = [Parameter(np.zeros((8, 4)), "t"),
                   Parameter(np.zeros(5), "b")]
        by_rows[0].accumulate_rows(table_rows, table_vals.copy())
        by_rows[1].grad = bias.copy()
        dense = [Parameter(np.zeros((8, 4)), "t"), Parameter(np.zeros(5), "b")]
        dense[0].grad = np.zeros((8, 4))
        dense[0].grad[table_rows] = table_vals
        dense[1].grad = bias.copy()
        return by_rows, dense

    def test_clip_of_row_and_dense_gradients_is_the_dense_clip(self):
        # Quarter integers square and sum exactly in any order, so the
        # norm and the scaled gradients agree bitwise.
        by_rows, dense = self._mixed(
            np.random.default_rng(3),
            lambda rng, shape: rng.integers(-8, 9, shape) / 4.0)
        pre = clip_global_norm(by_rows, 1.0)
        assert pre == clip_global_norm(dense, 1.0) and pre > 1.0
        assert by_rows[0].row_grad()[0].tolist() == [1, 4, 6]
        for a, b in zip(by_rows, dense):
            np.testing.assert_array_equal(a.grad, b.grad)

    def test_clip_norm_of_row_gradients_agrees_to_rounding(self):
        by_rows, dense = self._mixed(
            np.random.default_rng(4),
            lambda rng, shape: rng.standard_normal(shape) * 3.0)
        assert clip_global_norm(by_rows, 1.0) == pytest.approx(
            clip_global_norm(dense, 1.0), rel=1e-14)


class TestAdam:
    def test_first_step_magnitude(self):
        p = Parameter(np.array([0.0]), "w")
        p.grad = np.array([1.0])
        state = AdamState.for_param(p, lr=0.003)
        adam_step(p, state)
        assert abs(abs(p.data[0]) - 0.003) < 1e-6

    def test_zero_gradient_identity(self):
        p = Parameter(np.array([1.5, -2.5]), "w")
        state = AdamState.for_param(p, lr=0.003)
        for _ in range(5):
            p.grad = np.zeros(2)
            adam_step(p, state)
        np.testing.assert_array_equal(p.data, [1.5, -2.5])

    def test_quadratic_descent(self):
        # scalar simulation oracle: f(w) = w^2, gradient 2w
        p = Parameter(np.array([1.0]), "w")
        state = AdamState.for_param(p, lr=0.003)
        values = [abs(p.data[0])]
        for _ in range(10):
            p.grad = 2.0 * p.data
            adam_step(p, state)
            values.append(abs(p.data[0]))
        assert all(b < a for a, b in zip(values, values[1:]))


    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_update_is_bitwise_the_formula(self, dtype):
        rng = np.random.default_rng(8)
        p = Parameter(rng.standard_normal((40, 7)).astype(dtype), "w")
        state = AdamState.for_param(p, lr=0.003)
        data, m, v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(
            p.data)
        b1, b2, eps, lr = ADAM_BETA1, ADAM_BETA2, ADAM_EPS, state.lr
        for t in range(1, 13):
            g = (rng.standard_normal(p.shape) * 10.0 ** rng.integers(-4, 2)
                 ).astype(dtype)
            p.grad = g.copy()
            adam_step(p, state)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            m_hat = m / (1.0 - b1 ** t)
            v_hat = v / (1.0 - b2 ** t)
            data -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(dtype)
            assert state.t == t
            np.testing.assert_array_equal(state.m, m)
            np.testing.assert_array_equal(state.v, v)
            np.testing.assert_array_equal(p.data, data)
            np.testing.assert_array_equal(p.grad, g)
            assert p.data.dtype == state.m.dtype == state.v.dtype == dtype


class TestNllLoss:
    def test_hand_case(self):
        lp = Tensor(np.array([[-math.log(2), -math.log(2)]]))
        assert abs(nll_loss(lp, np.array([0])).item() - math.log(2)) < 1e-6

    def test_confident_correct(self):
        lp = Tensor(np.array([[0.0, -30.0]]))
        assert nll_loss(lp, np.array([0])).item() < 1e-9

    def test_batch_mean(self):
        lp = Tensor(np.array([[-1.0, -2.0], [-3.0, -4.0]]))
        loss = nll_loss(lp, np.array([0, 1]))
        assert abs(loss.item() - (1.0 + 4.0) / 2) < 1e-6

    def test_gradient_structure(self):
        lp = Parameter(np.array([[-1.0, -2.0], [-3.0, -4.0]]), "lp")
        nll_loss(lp, np.array([0, 1])).backward()
        np.testing.assert_allclose(lp.grad, [[-0.5, 0.0], [0.0, -0.5]])

    def test_bad_target(self):
        with pytest.raises(ArgumentError):
            nll_loss(Tensor(np.zeros((1, 2))), np.array([2]))


class TestRngStreams:
    def test_same_seed_same_sequence(self):
        a = RngStreams(42).stream("dropout").random(5)
        b = RngStreams(42).stream("dropout").random(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_independent(self):
        streams = RngStreams(42)
        a = streams.stream("init").random(5)
        b = streams.stream("dropout").random(5)
        assert not np.array_equal(a, b)

    def test_state_roundtrip(self):
        streams = RngStreams(1)
        streams.stream("dropout").random(10)
        saved = streams.state()
        expected = streams.stream("dropout").random(5)
        streams.restore(saved)
        np.testing.assert_array_equal(streams.stream("dropout").random(5),
                                      expected)

    def test_state_holds_only_the_streams_in_use(self):
        assert set(RngStreams(1).state()) == {"init", "dropout"}

    def test_restore_skips_the_retired_shuffle_stream(self):
        """States written while a never-drawn `shuffle` stream existed
        restore; any other unknown name is still refused."""
        saved = RngStreams(1).state()
        streams = RngStreams(1)
        streams.restore({**saved, "shuffle": saved["init"]})
        assert streams.state() == saved
        with pytest.raises(ArgumentError, match="bogus"):
            streams.restore({**saved, "bogus": saved["init"]})


class TestGradCheck:
    def _toy(self, seed=0):
        rng = np.random.default_rng(seed)
        w = Parameter(rng.standard_normal((2, 4)).astype(np.float32), "w")
        b = Parameter(np.zeros(2, dtype=np.float32), "b")
        x = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
        y = rng.integers(0, 2, size=6)
        from ufnd import autograd as ag
        return w, b, lambda: nll_loss(log_softmax(ag.linear(x, w, b)), y)

    def test_linear_nll_toy(self):
        w, b, loss_fn = self._toy()
        res = grad_check(loss_fn, [w, b], eps=1e-3, n_samples=10)
        assert res.max_rel_error < 1e-3

    def test_zero_parameter_vacuous(self):
        res = grad_check(lambda: Tensor(np.array(0.0)), [], eps=1e-3)
        assert res.max_rel_error == 0.0 and res.n_checked == 0

    def test_sign_flip_detected(self):
        w, b, loss_fn = self._toy()

        def corrupted():
            out = loss_fn()
            real_bwd = out._backward

            def flipped(g):
                real_bwd(-g)  # wrong sign everywhere upstream
            out._backward = flipped
            return out

        res = grad_check(corrupted, [w, b], eps=1e-3, n_samples=10)
        assert res.max_rel_error > 0.1


class TestCheckedMode:
    def test_non_finite_named(self):
        p = Parameter(np.array([1.0, np.nan]), "encoder/block1/attn_q/w")
        with pytest.raises(NonFiniteError, match="attn_q"):
            assert_all_finite([p])

    def test_relu_gradient(self):
        x = Parameter(np.array([-1.0, 0.0, 2.0]), "x")
        relu(x).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])
