import threading

import numpy as np
import pytest

from ufnd import autograd as ag
from ufnd.autograd import Parameter, Tensor
from ufnd.encoder import EncoderParams, Layout, embed
from ufnd.errors import ContractError, ShapeError
from ufnd.numerics import grad_check


def mul(x, y):
    """`x * y` for a constant `y`, as a generic op."""
    return Tensor(x.data * y, _parents=(x,),
                  _backward=lambda g: x.accumulate_grad(g * y))


def add(x, y):
    """`x + y` for a constant `y`, as a generic op."""
    return Tensor(x.data + y, _parents=(x,),
                  _backward=lambda g: x.accumulate_grad(g))


def token_rows(table, ids, mask=None):
    """`encoder.embed` with `table` as the token table and an all-zero
    position table, so each packed row is its token's row."""
    mask = np.ones(ids.shape, dtype=np.float32) if mask is None else mask
    positions = Parameter(np.zeros((ids.shape[1], table.shape[1]),
                                   dtype=table.dtype), "positions")
    return embed(ids, Layout(mask), EncoderParams(table, positions))


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


class TestStructural:
    def test_embedding_lookup_and_scatter(self):
        table = Parameter(np.arange(12, dtype=np.float32).reshape(4, 3), "e")
        ids = np.array([[0, 2, 2]])
        out = token_rows(table, ids)
        np.testing.assert_array_equal(out.data[1], table.data[2])
        out.backward()
        np.testing.assert_array_equal(table.grad[2], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(table.grad[1], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_embedding_row_gradient_is_the_dense_scatter(self, dtype):
        rng = np.random.default_rng(4)
        ids = rng.integers(1, 12, size=(4, 9))
        ids[:, 0] = 2
        for pad in (False, True):
            table = Parameter(rng.standard_normal((30, 5)).astype(dtype), "e")
            mask = np.ones(ids.shape, dtype=np.float32)
            if pad:
                ids[1:, 6:] = mask[1:, 6:] = 0  # trailing PAD, id 0
            kept = ids[mask > 0]
            g = rng.standard_normal((kept.size, 5)).astype(dtype)
            mul(token_rows(table, ids, mask), g).backward()
            rows, values = table.row_grad()
            np.testing.assert_array_equal(rows, np.unique(kept))
            assert 0 not in rows  # PAD positions look up no row
            dense = np.zeros_like(table.data)
            np.add.at(dense, kept, g)
            assert values.dtype == dtype
            np.testing.assert_array_equal(values, dense[rows])
            np.testing.assert_array_equal(table.grad, dense)  # read densely
            assert table.row_grad()[0] is None

    def test_embedding_rows_add_to_an_earlier_gradient(self):
        table = Parameter(np.zeros((5, 2)), "e")
        table.grad = np.ones((5, 2))
        token_rows(table, np.array([[3, 3, 1]])).backward()
        np.testing.assert_array_equal(table.grad[:, 0], [1, 2, 1, 3, 1])

    def test_embedding_out_of_range(self):
        table = Parameter(np.zeros((4, 3), dtype=np.float32), "e")
        with pytest.raises(ShapeError):
            token_rows(table, np.array([[5]]))

    def test_take_rows(self):
        x = Parameter(np.arange(24, dtype=np.float32).reshape(2, 3, 4), "x")
        out = ag.take_rows(x, np.array([0, 3]))
        assert out.shape == (2, 4)
        np.testing.assert_array_equal(out.data, x.data[:, 0, :])
        out.backward()
        assert x.grad[:, 0, :].sum() == 8.0
        assert x.grad[:, 1:, :].sum() == 0.0

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

    def test_linear_without_bias_passes_a_float64_grad_check(self):
        rng = np.random.default_rng(3)
        x = Parameter(rng.standard_normal((3, 4)), "x")
        w = Parameter(rng.standard_normal((5, 4)), "w")
        weights = rng.standard_normal((3, 5))

        def loss():
            out = ag.linear(x, w, None)
            assert out._parents == (x, w)
            return Tensor(np.asarray(np.sum(out.data * weights)),
                          _parents=(out,),
                          _backward=lambda g: out.accumulate_grad(
                              g * weights))

        res = grad_check(loss, [x, w], eps=1e-6, abs_floor=0.0, n_samples=32)
        assert res.n_checked == 32
        assert res.max_rel_error < 1e-7, res.worst_param


class TestNoGrad:
    def test_ops_record_nothing_and_recording_resumes(self):
        w = Parameter(np.ones((3, 2), dtype=np.float32), "w")
        x = Tensor(np.ones((4, 2), dtype=np.float32))
        b = Parameter(np.zeros(3, dtype=np.float32), "b")
        with ag.no_grad():
            fresh = Parameter(np.zeros(2, dtype=np.float32), "fresh")
            out = add(mul(ag.linear(x, w, b), 2.0), 1.0)
        assert fresh.requires_grad
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        recorded = ag.linear(x, w, b)
        assert recorded.requires_grad and len(recorded._parents) == 3

    def test_backward_leaves_gradients_on_leaves_only(self):
        x = Parameter(np.ones((4, 2), dtype=np.float32), "x")
        w = Parameter(np.ones((3, 2), dtype=np.float32), "w")
        b = Parameter(np.zeros(3, dtype=np.float32), "b")
        hidden = ag.linear(x, w, b)
        out = mul(hidden, 2.0)
        out.backward()
        assert hidden.grad is None and out.grad is None
        np.testing.assert_array_equal(x.grad, np.full((4, 2), 6.0))
        np.testing.assert_array_equal(b.grad, np.full(3, 8.0))

    def test_a_second_backward_through_a_freed_graph_raises(self):
        x = Parameter(np.ones((4, 2), dtype=np.float32), "x")
        w = Parameter(np.ones((3, 2), dtype=np.float32), "w")
        b = Parameter(np.zeros(3, dtype=np.float32), "b")
        hidden = ag.linear(x, w, b)
        out = mul(hidden, 2.0)
        out.backward()
        assert hidden._parents == () and out._parents == ()
        grad = x.grad.copy()
        with pytest.raises(ContractError, match="freed"):
            out.backward()
        with pytest.raises(ContractError, match="freed"):
            mul(hidden, 3.0).backward()  # a new op on a freed node
        np.testing.assert_array_equal(x.grad, grad)

    def test_no_grad_holds_in_its_own_thread_only(self):
        w = Parameter(np.ones((2, 2), dtype=np.float32), "w")
        x = Tensor(np.ones((1, 2), dtype=np.float32))
        inside, leave = threading.Event(), threading.Event()

        def other():
            with ag.no_grad():
                inside.set()
                leave.wait(10)

        thread = threading.Thread(target=other)
        thread.start()
        try:
            assert inside.wait(10)
            assert ag.matmul(x, w)._parents  # still recording here
            with ag.no_grad():
                leave.set()
                thread.join(10)
                # the other thread's exit turns nothing back on here
                assert ag.matmul(x, w)._parents == ()
        finally:
            leave.set()
            thread.join(10)
        assert ag.matmul(x, w)._parents

    def test_recording_resumes_after_an_exception(self):
        with pytest.raises(ShapeError):
            with ag.no_grad():
                ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        w = Parameter(np.ones((2, 2), dtype=np.float32), "w")
        out = ag.matmul(Tensor(np.ones((1, 2), dtype=np.float32)), w)
        assert out.requires_grad and out._backward is not None
