"""Gradient correctness and dispatch parity for the autodiff tape."""

import numpy as np
import pytest

from lrgnn.autodiff import (
    Tensor,
    gather_rows,
    in_slots,
    linear,
    log1p,
    maximum,
    row_dot,
    row_slice,
    scatter_max,
    scatter_sum,
    sigmoid,
    sqrt,
    square,
    tsum,
    value,
)


def central_diff(f, x, h=1e-6):
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def scatter_max_loop(msgs, targets, n_rows, g):
    """Plain-loop reference: per-row max, and each coordinate's gradient
    to the first maximal message in list order."""
    out = np.zeros((n_rows, msgs.shape[1]))
    gm = np.zeros_like(msgs)
    for n in range(n_rows):
        idx = [j for j in range(len(targets)) if targets[j] == n]
        if not idx:
            continue
        for c in range(msgs.shape[1]):
            best = max(msgs[j, c] for j in idx)
            out[n, c] = best
            winner = next(j for j in idx if msgs[j, c] == best)
            gm[winner, c] += g[n, c]
    return out, gm


def gather_rows_grad_loop(idx, n_rows, g):
    """Plain-loop reference for the backward of gather_rows."""
    gx = np.zeros((n_rows, g.shape[1]))
    for k, i in enumerate(idx):
        gx[i] += g[k]
    return gx


def check_grad(build, x0, rtol=1e-5, atol=1e-8):
    """build maps a Tensor (or ndarray) to a scalar; compare backward
    against central differences."""
    t = Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    num = central_diff(lambda x: float(value(build(x))), x0)
    np.testing.assert_allclose(t.grad, num, rtol=rtol, atol=atol)
    return t.grad


class TestElementwiseGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def test_relu(self):
        # The ReLU of a linear node; keep points away from the kink.
        x = self.rng.normal(size=(3, 4))
        x += 0.2 * np.sign(x)
        check_grad(lambda t: tsum(linear(t, None, np.zeros(4), relu=True)), x)

    def test_linear(self):
        w, b = self.rng.normal(size=(4, 3)), self.rng.normal(size=3)
        x = self.rng.normal(size=(5, 4))
        check_grad(lambda t: tsum(square(linear(t, w, b))), x)
        check_grad(lambda t: tsum(square(linear(x, t, b))), w.copy())
        check_grad(lambda t: tsum(square(linear(x, w, t))), b.copy())

    def test_sigmoid(self):
        check_grad(lambda t: tsum(sigmoid(t)), self.rng.normal(size=(2, 5)))

    def test_log1p(self):
        check_grad(lambda t: tsum(log1p(t)), self.rng.uniform(-0.5, 2.0, size=7))

    def test_sqrt(self):
        check_grad(lambda t: tsum(sqrt(t)), self.rng.uniform(0.5, 3.0, size=(4, 2)))

    def test_square(self):
        check_grad(lambda t: tsum(square(t)), self.rng.normal(size=(3, 3)))

    def test_add_broadcast(self):
        b = self.rng.normal(size=4)
        check_grad(lambda t: tsum(square(t + b)), self.rng.normal(size=(3, 4)))
        # Gradient w.r.t. the broadcast operand sums over the long axis.
        x = self.rng.normal(size=(3, 4))
        check_grad(lambda t: tsum(square(t + x)), b.copy())

    def test_mul_broadcast(self):
        col = self.rng.normal(size=(3, 1))
        check_grad(lambda t: tsum(square(col * t)), self.rng.normal(size=(3, 4)))

    def test_sub_and_rsub(self):
        x = self.rng.normal(size=5)
        check_grad(lambda t: tsum(square(t - 2.0)), x)
        # No reflected subtraction: a constant minus a tensor is written
        # -t + c (test_neg), so `c - t` fails loudly instead.
        with pytest.raises(TypeError):
            2.0 - Tensor(x, requires_grad=True)

    def test_div_both_sides(self):
        x = self.rng.uniform(1.0, 2.0, size=(2, 3))
        d = self.rng.uniform(1.0, 2.0, size=3)
        check_grad(lambda t: tsum(t / d), x)
        check_grad(lambda t: tsum(x / t), d.copy())
        check_grad(lambda t: tsum(3.0 / t), d.copy())

    def test_neg(self):
        check_grad(lambda t: tsum(square(-t + 1.0)), self.rng.normal(size=6))

    def test_matmul_left_and_right(self):
        a = self.rng.normal(size=(3, 4))
        b = self.rng.normal(size=(4, 2))
        check_grad(lambda t: tsum(square(t @ b)), a)
        check_grad(lambda t: tsum(square(a @ t)), b)

    def test_transpose(self):
        w = self.rng.normal(size=(2, 5))
        check_grad(lambda t: tsum(square(w @ t.T)), self.rng.normal(size=(3, 5)))

    def test_sum_axis_keepdims(self):
        x = self.rng.normal(size=(3, 4))
        check_grad(lambda t: tsum(square(tsum(t, axis=1, keepdims=True))), x)
        check_grad(lambda t: tsum(square(tsum(t, axis=0))), x)

    def test_minimum_maximum_vs_scalar(self):
        x = self.rng.uniform(-2.0, 2.0, size=8)
        x += 0.1 * np.sign(x)  # stay off the tie point
        check_grad(lambda t: tsum(square(maximum(t, 0.5))), x)


class TestStructuralOps:
    def setup_method(self):
        self.rng = np.random.default_rng(5)

    def test_row_slice_blocks_of_one_tensor(self):
        x = self.rng.normal(size=(6, 3))
        a = self.rng.normal(size=(3, 2))
        c = self.rng.normal(size=(3, 3))
        g = check_grad(lambda t: tsum(square(row_slice(t, 0, 2) @ a)) + tsum(row_slice(t, 3, 6) * c), x)
        # Row 2 lies in neither block.
        np.testing.assert_array_equal(g[2], np.zeros(3))
        np.testing.assert_array_equal(g[3:], c)
        # Blocks add onto a gradient that a full-size use started.
        check_grad(lambda t: tsum(square(t)) + tsum(square(row_slice(t, 1, 4) @ a)), x)

    def test_row_slice_of_transposed_tensor(self):
        a = self.rng.normal(size=(2, 3))
        check_grad(lambda t: tsum(square(a @ row_slice(t.T, 1, 4))), self.rng.normal(size=(3, 5)))

    def test_row_slice_plain_path_is_a_view(self):
        x = self.rng.normal(size=(5, 4))
        assert np.shares_memory(row_slice(x, 1, 3), x)
        assert np.shares_memory(row_slice(x.T, 0, 2), x)
        np.testing.assert_array_equal(row_slice(x, 1, 3), x[1:3])
        t = Tensor(x, requires_grad=True)
        assert np.shares_memory(row_slice(t, 1, 3).data, x)

    def test_gather_rows_accumulates_repeats(self):
        x = self.rng.normal(size=(4, 3))
        np.testing.assert_array_equal(gather_rows(x, np.array([0, 2, 0, 0])), x[[0, 2, 0, 0]])
        idx = np.array([0, 0, 0, 2])  # taped: non-decreasing
        check_grad(lambda t: tsum(square(gather_rows(t, idx))), x)
        t = Tensor(x, requires_grad=True)
        tsum(gather_rows(t, idx)).backward()
        np.testing.assert_array_equal(t.grad[0], 3.0 * np.ones(3))
        np.testing.assert_array_equal(t.grad[1], np.zeros(3))

    def test_scatter_sum(self):
        v = self.rng.normal(size=5)
        tgt = np.array([0, 1, 1, 3, 0])
        out = scatter_sum(v, tgt, 4)
        np.testing.assert_allclose(out, [v[0] + v[4], v[1] + v[2], 0.0, v[3]])
        check_grad(lambda t: tsum(square(scatter_sum(t, tgt, 4))), v)

    def test_scatter_max_forward_and_empty_rows(self):
        msgs = np.array([[1.0, 5.0], [3.0, 2.0], [0.5, 0.5]])
        tgt = np.array([1, 1, 3])
        out = scatter_max(msgs, in_slots(tgt, 4))
        np.testing.assert_array_equal(out[0], [0.0, 0.0])
        np.testing.assert_array_equal(out[1], [3.0, 5.0])
        np.testing.assert_array_equal(out[2], [0.0, 0.0])
        np.testing.assert_array_equal(out[3], [0.5, 0.5])

    def test_scatter_max_gradient(self):
        msgs = np.array([[1.0, 5.0], [3.0, 2.0]])
        tgt = np.array([0, 0])
        check_grad(lambda t: tsum(square(scatter_max(t, in_slots(tgt, 1)))), msgs)

    def test_scatter_max_tie_goes_to_first_in_order(self):
        msgs = np.array([[2.0, 7.0], [2.0, 7.0]])
        t = Tensor(msgs, requires_grad=True)
        tsum(scatter_max(t, in_slots(np.array([0, 0]), 1))).backward()
        np.testing.assert_array_equal(t.grad, [[1.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("ties", [False, True])
    def test_scatter_max_matches_loop_reference(self, ties):
        # Unsorted targets, rows 2 and 6 without messages; with ties, values
        # come from {0, 1, 2} so most groups have several maximal messages.
        tgt = np.array([3, 0, 5, 3, 1, 0, 3, 7, 5, 0, 4, 3, 1, 7])
        shape = (tgt.size, 6)
        if ties:
            msgs = self.rng.integers(0, 3, size=shape).astype(float)
        else:
            msgs = self.rng.normal(size=shape)
        g = self.rng.normal(size=(8, 6))
        want_out, want_grad = scatter_max_loop(msgs, tgt, 8, g)
        np.testing.assert_array_equal(scatter_max(msgs, in_slots(tgt, 8)), want_out)
        t = Tensor(msgs, requires_grad=True)
        taped = scatter_max(t, in_slots(tgt, 8))
        np.testing.assert_array_equal(taped.data, want_out)
        tsum(taped * g).backward()  # hands g back to taped exactly
        np.testing.assert_array_equal(t.grad, want_grad)

    def test_scatter_max_nan_is_maximal(self):
        # Row 0's column 1 holds two NaNs: the output is NaN there and the
        # gradient goes to the first NaN in list order (message 2).
        msgs = np.array([[1.0, 4.0], [3.0, 2.0], [0.5, np.nan], [2.0, np.nan], [7.0, 1.0]])
        tgt = np.array([0, 0, 0, 0, 1])
        want = np.array([[3.0, np.nan], [7.0, 1.0]])
        np.testing.assert_array_equal(scatter_max(msgs, in_slots(tgt, 2)), want)
        t = Tensor(msgs, requires_grad=True)
        taped = scatter_max(t, in_slots(tgt, 2))
        np.testing.assert_array_equal(taped.data, want)
        tsum(taped * np.ones((2, 2))).backward()
        np.testing.assert_array_equal(t.grad, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])

    def test_scatter_max_without_messages(self):
        msgs = np.empty((0, 3))
        tgt = np.empty(0, dtype=np.intp)
        np.testing.assert_array_equal(scatter_max(msgs, in_slots(tgt, 4)), np.zeros((4, 3)))
        t = Tensor(msgs, requires_grad=True)
        taped = scatter_max(t, in_slots(tgt, 4))
        np.testing.assert_array_equal(taped.data, np.zeros((4, 3)))
        tsum(taped).backward()
        np.testing.assert_array_equal(t.grad, np.zeros((0, 3)))

    def test_in_slots_layout(self):
        # Rows 0 and 4 get no key; row 1 gets positions 1, 3, 5 in list
        # order, and shorter rows repeat their first position.
        slots, empty = in_slots(np.array([3, 1, 2, 1, 3, 1]), 5)
        np.testing.assert_array_equal(slots[1:4], [[1, 3, 5], [2, 2, 2], [0, 4, 0]])
        np.testing.assert_array_equal(empty, [True, False, False, False, True])
        slots, empty = in_slots(np.array([1, 0, 1]), 2)
        np.testing.assert_array_equal(slots, [[1, 1], [0, 2]])
        assert empty is None
        slots, empty = in_slots(np.empty(0, dtype=np.intp), 3)
        assert slots.shape == (3, 0)
        np.testing.assert_array_equal(empty, [True, True, True])
        with pytest.raises(ValueError, match="row 3 of 3"):
            in_slots(np.array([0, 3]), 3)

    def test_gather_rows_backward_matches_loop_reference(self):
        x = self.rng.normal(size=(5, 3))
        unsorted = np.array([4, 0, 4, 2, 0, 4, 1, 2])
        np.testing.assert_array_equal(gather_rows(x, unsorted), x[unsorted])
        idx = np.sort(unsorted)  # taped: non-decreasing, repeats, row 3 unused
        g = self.rng.normal(size=(idx.size, 3))
        np.testing.assert_array_equal(gather_rows(x, idx), x[idx])
        t = Tensor(x, requires_grad=True)
        taped = gather_rows(t, idx)
        np.testing.assert_array_equal(taped.data, x[idx])
        tsum(taped * g).backward()  # hands g back to taped exactly
        np.testing.assert_allclose(t.grad, gather_rows_grad_loop(idx, 5, g), rtol=1e-12, atol=0.0)

    def test_taped_gather_rows_rejects_a_decreasing_index(self):
        x = Tensor(self.rng.normal(size=(3, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="non-decreasing"):
            gather_rows(x, np.array([0, 2, 1]))
        tsum(gather_rows(x, np.empty(0, dtype=np.intp))).backward()
        np.testing.assert_array_equal(x.grad, np.zeros((3, 2)))


class TestBackwardContract:
    def test_chain_rule_scalar(self):
        # loss = (w*x)^2 at w=3, x=1 has dloss/dw = 6.
        w = Tensor(np.array(3.0), requires_grad=True)
        loss = square(w * 1.0)
        loss.backward()
        assert float(w.grad) == pytest.approx(6.0)

    def test_constant_loss_has_zero_gradient(self):
        t = Tensor(np.arange(3.0), requires_grad=True)
        (tsum(t) * 0.0).backward()
        np.testing.assert_array_equal(t.grad, np.zeros(3))

    def test_off_path_parameter_gets_no_gradient(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        tsum(square(a)).backward()
        assert b.grad is None

    def test_backward_without_forward_raises(self):
        with pytest.raises(RuntimeError, match="no recorded computation"):
            Tensor(np.ones(3)).backward()

    def test_backward_nonscalar_needs_seed(self):
        t = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (t * 2.0).backward()
        # A non-scalar output is seeded by reducing it against the seed.
        tsum((t * 2.0) * np.ones(3)).backward()
        np.testing.assert_array_equal(t.grad, 2.0 * np.ones(3))

    def test_reused_node_accumulates_both_paths(self):
        t = Tensor(np.array(2.0), requires_grad=True)
        y = t * t + t * 3.0  # dy/dt = 2t + 3 = 7
        y.backward()
        assert float(t.grad) == pytest.approx(7.0)

    def test_backward_keeps_leaf_gradients_only(self):
        w = Tensor(np.arange(1.0, 4.0), requires_grad=True)
        h = square(w * 2.0)
        y = tsum(h)
        y.backward()
        np.testing.assert_array_equal(w.grad, 8.0 * np.arange(1.0, 4.0))
        assert h.grad is None and y.grad is None

    def test_second_backward_on_consumed_tape_raises(self):
        w = Tensor(np.ones(2), requires_grad=True)
        y = tsum(square(w))
        y.backward()
        with pytest.raises(RuntimeError, match="consumed"):
            y.backward()
        np.testing.assert_array_equal(w.grad, [2.0, 2.0])

    def test_matmul_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            Tensor(np.ones(3), requires_grad=True) @ Tensor(np.ones(3))


class TestDispatchParity:
    """The same expression on tensors and on plain arrays must agree bit
    for bit; training and inference share one arithmetic."""

    def test_pipeline_bit_identical(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6))
        w = rng.normal(size=(6, 5))
        idx = np.array([0, 2, 2, 3])

        def run(a, b):
            h = linear(a, b, np.linspace(-1.0, 1.0, 5), relu=True)
            h = sigmoid(gather_rows(h, idx))
            h = scatter_max(h, in_slots(np.array([2, 0, 2, 4]), 5))
            n = sqrt(tsum(square(h), axis=1, keepdims=True))
            return value(h * (1.0 / maximum(n, 1.0)))

        plain = run(x, w)
        taped = run(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True))
        np.testing.assert_array_equal(plain, taped)

    def test_value_passthrough(self):
        x = np.arange(4.0)
        assert value(x) is not None
        np.testing.assert_array_equal(value(Tensor(x)), x)
        np.testing.assert_array_equal(value([1.0, 2.0]), [1.0, 2.0])


def relu_node(x):
    """The ReLU as a node of its own, with its mask read from its input:
    the tape before linear fused it."""
    return Tensor._make(np.maximum(x.data, 0.0), (x,), lambda g: x.node._accumulate(g * (x.data > 0.0)))


class TestFusedNodes:
    """linear and row_dot against the chains of single ops they replace:
    bit-equal values and gradients."""

    @staticmethod
    def leaves(*arrays):
        return [Tensor(a.copy(), requires_grad=True) for a in arrays]

    @pytest.mark.parametrize("relu", [True, False])
    @pytest.mark.parametrize("kind", ["dense", "low_rank", "bias"])
    def test_linear_matches_composed_ops(self, kind, relu):
        # Small integers make many pre-activations exactly zero, the ReLU's
        # kink; three chained calls share one weight, as the rounds do.
        rng = np.random.default_rng(7)
        x, b = rng.integers(-2, 3, size=(6, 4)).astype(float), rng.integers(-1, 2, size=4).astype(float)
        w, u, v = (rng.integers(-2, 3, size=shape).astype(float) for shape in ((4, 4), (4, 2), (2, 4)))
        g = rng.normal(size=(6, 4))

        def layer(h, b, w, u, v, fused):
            if kind == "dense":
                return linear(h, w.T, b, relu) if fused else h @ w.T + b
            if kind == "low_rank":
                return linear(h @ u, v, b, relu) if fused else (h @ u) @ v + b
            return linear(h, None, b, relu) if fused else h + b

        def run(fused):
            ts = self.leaves(x, b, w, u, v)
            h = ts[0]
            for _ in range(3):
                h = layer(h, *ts[1:], fused)
                h = relu_node(h) if relu and not fused else h
            tsum(h * g).backward()
            return h.data, [t.grad for t in ts]

        (want, want_grads), (got, got_grads) = run(False), run(True)
        assert not relu or (want == 0.0).any()
        np.testing.assert_array_equal(got, want)
        for a, e in zip(got_grads, want_grads):
            assert (a is None) == (e is None)
            if a is not None:
                np.testing.assert_array_equal(a, e)
        plain = x
        for _ in range(3):
            plain = layer(plain, b, w, u, v, True)
        np.testing.assert_array_equal(plain, got)

    def test_linear_plain_path_equals_numpy(self):
        rng = np.random.default_rng(8)
        x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
        np.testing.assert_array_equal(linear(x, w, b, relu=True), np.maximum(x @ w + b, 0.0))
        np.testing.assert_array_equal(linear(x, w, b), x @ w + b)
        np.testing.assert_array_equal(linear(x @ w, None, b, relu=True), np.maximum(x @ w + b, 0.0))

    def test_row_dot_matches_composed_ops(self):
        rng = np.random.default_rng(9)
        h, x, g = rng.normal(size=(5, 6)), rng.normal(size=(5, 6)), rng.normal(size=5)
        np.testing.assert_array_equal(row_dot(h, x), tsum(h * x, axis=1))
        (tw,), (tf,) = self.leaves(x), self.leaves(x)
        want, got = tsum(h * tw, axis=1), row_dot(h, tf)
        np.testing.assert_array_equal(got.data, want.data)
        tsum(want * g).backward()
        tsum(got * g).backward()
        np.testing.assert_array_equal(tf.grad, tw.grad)

    def test_adopted_gradients_are_never_shared(self):
        # One fresh gradient must not become two nodes' arrays: a
        # fan-out through + copies, and t * t makes two products.
        t = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a = t * 3.0
        tsum(square(a + a) + t * t).backward()
        np.testing.assert_array_equal(t.grad, [74.0, 148.0])
