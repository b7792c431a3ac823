import numpy as np
import pytest

from ufnd import autograd as ag
from ufnd.autograd import Parameter, Tensor
from ufnd.errors import ShapeError


def brute_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for l in range(k):
                out[i, j] += a[i, l] * b[l, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.arange(4.0).reshape(2, 2).astype(np.float32))
        out = ag.matmul(Tensor(np.eye(2, dtype=np.float32)), a)
        np.testing.assert_array_equal(out.data, a.data)

    def test_hand_case(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32))
        b = Tensor(np.array([[1.0], [1.0]], dtype=np.float32))
        np.testing.assert_array_equal(ag.matmul(a, b).data, [[3.0], [7.0]])

    def test_transpose_identity_against_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 4)).astype(np.float32)
        b = rng.standard_normal((4, 3)).astype(np.float32)
        ab = ag.matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_allclose(ab, brute_matmul(a, b), atol=1e-5)
        np.testing.assert_allclose(ab.T, brute_matmul(b.T, a.T), atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_batched_gradient(self):
        rng = np.random.default_rng(1)
        a = Parameter(rng.standard_normal((2, 3, 4)).astype(np.float32), "a")
        b = Parameter(rng.standard_normal((4, 5)).astype(np.float32), "b")
        out = ag.matmul(a, b)
        out.backward()
        # d(sum)/da = ones @ b.T broadcast over batch
        expected_a = np.ones((2, 3, 5)) @ b.data.T
        np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)
        assert b.grad.shape == b.data.shape


class TestElementwise:
    def test_add_broadcast_gradients(self):
        x = Parameter(np.zeros((3, 4), dtype=np.float32), "x")
        bias = Parameter(np.zeros(4, dtype=np.float32), "bias")
        (x + bias).backward()
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(bias.grad, 3 * np.ones(4))

    def test_mul_gradients(self):
        x = Parameter(np.array([2.0, 3.0], dtype=np.float32), "x")
        y = Parameter(np.array([5.0, 7.0], dtype=np.float32), "y")
        (x * y).backward()
        np.testing.assert_array_equal(x.grad, y.data)
        np.testing.assert_array_equal(y.grad, x.data)

    def test_scalar_mul_and_neg(self):
        x = Parameter(np.array([1.0, -2.0], dtype=np.float32), "x")
        (-(x * 3.0)).backward()
        np.testing.assert_array_equal(x.grad, [-3.0, -3.0])


class TestStructural:
    def test_reshape_roundtrip_gradient(self):
        x = Parameter(np.arange(24, dtype=np.float32).reshape(2, 3, 4), "x")
        weights = np.arange(24, dtype=np.float32).reshape(12, 2)
        out = ag.reshape(ag.reshape(x, (2, 12)), (12, 2)) * Tensor(weights)
        out.backward()
        np.testing.assert_array_equal(x.grad, weights.reshape(2, 3, 4))

    def test_embedding_lookup_and_scatter(self):
        table = Parameter(np.arange(12, dtype=np.float32).reshape(4, 3), "e")
        ids = np.array([[0, 2, 2]])
        out = ag.embedding(table, ids)
        np.testing.assert_array_equal(out.data[0, 1], table.data[2])
        out.backward()
        np.testing.assert_array_equal(table.grad[2], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(table.grad[1], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embedding_row_gradient_is_the_dense_scatter(self, dtype):
        rng = np.random.default_rng(4)
        table = Parameter(rng.standard_normal((30, 5)).astype(dtype), "e")
        ids = rng.integers(1, 12, size=(4, 9))
        ids[:, 0] = 2
        ids[1:, 6:] = 0  # trailing PAD, id 0
        g = rng.standard_normal(ids.shape + (5,)).astype(dtype)
        (ag.embedding(table, ids) * Tensor(g)).backward()
        rows, values = table.row_grad()
        np.testing.assert_array_equal(rows, np.unique(ids))
        dense = np.zeros_like(table.data)
        np.add.at(dense, ids, g)
        assert values.dtype == dtype
        np.testing.assert_array_equal(values, dense[rows])
        np.testing.assert_array_equal(table.grad, dense)  # read densely
        assert table.row_grad()[0] is None

    def test_embedding_rows_add_to_an_earlier_gradient(self):
        table = Parameter(np.zeros((5, 2)), "e")
        table.grad = np.ones((5, 2))
        ag.embedding(table, np.array([[3, 3, 1]])).backward()
        np.testing.assert_array_equal(table.grad[:, 0], [1, 2, 1, 3, 1])

    def test_embedding_out_of_range(self):
        table = Parameter(np.zeros((4, 3), dtype=np.float32), "e")
        with pytest.raises(ShapeError):
            ag.embedding(table, np.array([[5]]))

    def test_take_rows(self):
        x = Parameter(np.arange(24, dtype=np.float32).reshape(2, 3, 4), "x")
        out = ag.take_rows(x, np.array([0, 3]))
        assert out.shape == (2, 4)
        np.testing.assert_array_equal(out.data, x.data[:, 0, :])
        out.backward()
        assert x.grad[:, 0, :].sum() == 8.0
        assert x.grad[:, 1:, :].sum() == 0.0

    def test_take_rows_none_is_a_view(self):
        x = Parameter(np.arange(24, dtype=np.float32).reshape(2, 3, 4), "x")
        out = ag.take_rows(x, None)
        assert out.shape == (6, 4)
        assert np.shares_memory(out.data, x.data)
        out.backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))

    def test_linear_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = Parameter(rng.standard_normal((3, 4)).astype(np.float64), "x")
        w = Parameter(rng.standard_normal((5, 4)).astype(np.float64), "w")
        b = Parameter(rng.standard_normal(5).astype(np.float64), "b")
        ag.linear(x, w, b).backward()
        eps = 1e-6
        for p in (x, w, b):
            idx = (0,) if p.data.ndim == 1 else (0, 1)
            orig = p.data[idx]
            p.data[idx] = orig + eps
            f_plus = ag.linear(x, w, b).data.sum()
            p.data[idx] = orig - eps
            f_minus = ag.linear(x, w, b).data.sum()
            p.data[idx] = orig
            numeric = (f_plus - f_minus) / (2 * eps)
            assert abs(numeric - p.grad[idx]) < 1e-6


class TestNoGrad:
    def test_ops_record_nothing_and_recording_resumes(self):
        w = Parameter(np.ones((3, 2), dtype=np.float32), "w")
        x = Tensor(np.ones((4, 2), dtype=np.float32))
        b = Parameter(np.zeros(3, dtype=np.float32), "b")
        with ag.no_grad():
            fresh = Parameter(np.zeros(2, dtype=np.float32), "fresh")
            out = ag.linear(x, w, b) * 2.0 + 1.0
        assert fresh.requires_grad
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        recorded = ag.linear(x, w, b)
        assert recorded.requires_grad and len(recorded._parents) == 3

    def test_recording_resumes_after_an_exception(self):
        with pytest.raises(ShapeError):
            with ag.no_grad():
                ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        w = Parameter(np.ones((2, 2), dtype=np.float32), "w")
        out = ag.matmul(Tensor(np.ones((1, 2), dtype=np.float32)), w)
        assert out.requires_grad and out._backward is not None
