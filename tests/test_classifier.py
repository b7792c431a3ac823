import numpy as np
import pytest

from ufnd.autograd import Parameter, Tensor
from ufnd import classifier
from ufnd.classifier import (N_CLASSES, HeadConfig, bn_forward, head_forward,
                             init_head_params, predict)
from ufnd.errors import ArgumentError, ContractError
from ufnd.numerics import grad_check, nll_loss


def make_head(d_in=8, seed=0, dtype=np.float32):
    """Fresh parameters of a default-width head."""
    return init_head_params(HeadConfig(h1=200, h2=150), d_in,
                            np.random.default_rng(seed), dtype)


class TestHeadConfig:
    def test_default_widths(self):
        assert HeadConfig() == HeadConfig(h1=200, h2=150)
        params = make_head(d_in=64)
        assert [p.data.shape for p in (params.l1_w, params.l2_w,
                                       params.l3_w)] == [
            (200, 64), (150, 200), (N_CLASSES, 150)]

    def test_validation(self):
        with pytest.raises(ArgumentError):
            HeadConfig(h1=0)
        with pytest.raises(ArgumentError):
            HeadConfig(h2=0)


class TestBatchNorm:
    @pytest.fixture(autouse=True)
    def tiny_eps(self, monkeypatch):
        # An epsilon far below these variances, so the checks are exact.
        monkeypatch.setattr(classifier, "BN_EPS", 1e-12)

    def _bn(self, width):
        from ufnd.classifier import BatchNormState
        return BatchNormState(
            gain=Parameter(np.ones(width, dtype=np.float64), "bn/gain"),
            bias=Parameter(np.zeros(width, dtype=np.float64), "bn/bias"),
            running_mean=np.zeros(width),
            running_var=np.ones(width))

    def test_train_normalizes_batch(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((64, 5)) * 3.0 + 2.0)
        out = bn_forward(x, self._bn(5), "train")
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.var(axis=0), 1.0, atol=1e-9)

    def test_running_stats_converge(self):
        state = self._bn(3)
        rng = np.random.default_rng(1)
        for _ in range(500):
            x = Tensor(rng.standard_normal((32, 3)) * 2.0 + 5.0)
            bn_forward(x, state, "train")
        np.testing.assert_allclose(state.running_mean, 5.0, atol=0.2)
        np.testing.assert_allclose(state.running_var, 4.0, atol=0.5)

    def test_eval_uses_running_stats(self):
        state = self._bn(2)
        state.running_mean = np.array([1.0, 2.0])
        state.running_var = np.array([4.0, 9.0])
        x = Tensor(np.array([[3.0, 8.0]]))
        out = bn_forward(x, state, "eval")
        np.testing.assert_allclose(out.data, [[1.0, 2.0]], atol=1e-6)

    def test_eval_does_not_touch_running_stats(self):
        state = self._bn(2)
        before = (state.running_mean.copy(), state.running_var.copy())
        bn_forward(Tensor(np.ones((4, 2))), state, "eval")
        np.testing.assert_array_equal(state.running_mean, before[0])
        np.testing.assert_array_equal(state.running_var, before[1])

    def test_train_batch_one_rejected(self):
        with pytest.raises(ContractError):
            bn_forward(Tensor(np.ones((1, 3))), self._bn(3), "train")

    def test_train_gradient_finite_difference(self):
        rng = np.random.default_rng(2)
        state = self._bn(4)
        x = Parameter(rng.standard_normal((6, 4)), "x")
        y = rng.integers(0, 2, size=6)
        from ufnd import autograd as ag
        from ufnd.numerics import log_softmax
        proj = Tensor(np.eye(4, 2))

        def loss_fn():
            h = bn_forward(x, self._bn(4), "train")
            return nll_loss(log_softmax(ag.matmul(h, proj)), y)

        res = grad_check(loss_fn, [x], eps=1e-6, abs_floor=1e-9,
                         n_samples=24)
        assert res.max_rel_error < 1e-4


class TestHeadForward:
    def test_output_is_log_distribution(self):
        params = make_head()
        rng = np.random.default_rng(0)
        pooled = Tensor(rng.standard_normal((16, 8)).astype(np.float32))
        out = head_forward(pooled, params, 0.0, "train",
                           np.random.default_rng(1))
        assert out.shape == (16, 2)
        assert np.all(out.data <= 0.0)
        np.testing.assert_allclose(np.exp(out.data).sum(axis=-1), 1.0,
                                   atol=1e-5)

    def test_train_batch_one_rejected(self):
        params = make_head()
        with pytest.raises(ContractError):
            head_forward(Tensor(np.ones((1, 8), dtype=np.float32)), params,
                         0.0, "train", np.random.default_rng(0))

    def test_eval_single_sample_allowed(self):
        params = make_head()
        out = head_forward(Tensor(np.ones((1, 8), dtype=np.float32)), params,
                           0.0, "eval", np.random.default_rng(0))
        assert out.shape == (1, 2)

    def test_eval_deterministic(self):
        params = make_head()
        x = Tensor(np.random.default_rng(3).standard_normal((4, 8)).astype(
            np.float32))
        a = head_forward(x, params, 0.5, "eval", np.random.default_rng(0))
        b = head_forward(x, params, 0.5, "eval", np.random.default_rng(7))
        np.testing.assert_array_equal(a.data, b.data)

    def test_gradient_check_float64(self):
        params = make_head(dtype=np.float64, seed=5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 8))
        y = rng.integers(0, 2, size=8)

        def loss_fn():
            # eval mode: deterministic, running stats untouched by grads
            return nll_loss(head_forward(Tensor(x), params, 0.0, "eval",
                                         np.random.default_rng(0)), y)

        res = grad_check(loss_fn, params.parameters(), eps=1e-5,
                         abs_floor=1e-10, n_samples=60)
        assert res.max_rel_error < 1e-4, res.worst_param


class TestPredict:
    def test_argmax(self):
        lp = np.log(np.array([[0.9, 0.1], [0.2, 0.8]]))
        np.testing.assert_array_equal(predict(lp), [0, 1])

    def test_tie_goes_to_lower_index(self):
        lp = np.array([[-0.5, -0.5]])
        assert predict(lp)[0] == 0

    def test_accepts_tensor(self):
        lp = Tensor(np.array([[-0.1, -3.0]]))
        assert predict(lp)[0] == 0
