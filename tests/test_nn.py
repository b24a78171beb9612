"""Layer arithmetic, layer shapes, parameter counting, initialization, and Adam."""

import numpy as np
import pytest

from lrgnn.autodiff import Tensor
from lrgnn.mpgnn import MpgnnArch, count_model_params, init_params
from lrgnn.nn import Adam, DenseLinear, LowRankLinear, Mlp, glorot_uniform, init_layer, layer_shapes


class TestDenseLinear:
    def test_identity(self):
        layer = DenseLinear(np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(layer(np.array([3.0, -1.0])), [3.0, -1.0])

    def test_zero_weight_passes_bias(self):
        layer = DenseLinear(np.zeros((2, 3)), np.array([5.0, 5.0]))
        np.testing.assert_array_equal(layer(np.array([9.0, -2.0, 4.0])), [5.0, 5.0])

    def test_frozen_arithmetic_example(self):
        layer = DenseLinear(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 0.0]))
        np.testing.assert_array_equal(layer(np.array([1.0, 1.0])), [4.0, 7.0])

    def test_batched_rows(self):
        layer = DenseLinear(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([1.0, 0.0]))
        out = layer(np.array([[1.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(out, [[4.0, 7.0], [1.0, 0.0]])

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            DenseLinear(np.ones(3), np.ones(3))
        with pytest.raises(ValueError, match="bias"):
            DenseLinear(np.ones((2, 3)), np.ones(3))


class TestLowRankLinear:
    def test_frozen_arithmetic_example(self):
        layer = LowRankLinear(np.array([[1.0], [2.0]]), np.array([[3.0, 4.0]]), np.zeros(2))
        np.testing.assert_array_equal(layer(np.array([1.0, 1.0])), [9.0, 12.0])

    def test_full_rank_recovers_dense(self):
        # U = identity, V = W.T makes the factorization exact.
        rng = np.random.default_rng(0)
        w = rng.normal(size=(3, 5))  # d_out=3, d_in=5
        dense = DenseLinear(w, np.zeros(3))
        lr = LowRankLinear(np.eye(5), w.T.copy(), np.zeros(3))
        x = rng.normal(size=(4, 5))
        np.testing.assert_allclose(lr(x), dense(x), rtol=1e-12)

    def test_matches_materialized_effective_weight(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            layer = LowRankLinear(*init_layer(rng, d_in=7, d_out=4, rank=2))
            dense = DenseLinear((layer.u @ layer.v).T, layer.bias)
            x = rng.normal(size=(3, 7))
            np.testing.assert_allclose(layer(x), dense(x), rtol=1e-6, atol=1e-12)

    def test_rank_bounds(self):
        with pytest.raises(ValueError, match="rank"):
            LowRankLinear(*init_layer(np.random.default_rng(0), 4, 4, rank=0))
        with pytest.raises(ValueError, match="rank"):
            LowRankLinear(np.zeros((4, 0)), np.zeros((0, 4)), np.zeros(4))
        with pytest.raises(ValueError, match="rank mismatch"):
            LowRankLinear(np.zeros((4, 2)), np.zeros((3, 4)), np.zeros(4))
        with pytest.raises(ValueError, match="bias"):
            LowRankLinear(np.zeros((4, 2)), np.zeros((2, 4)), np.zeros(3))

    def test_overcomplete_rank_is_allowed(self):
        # Ranks above min(d_in, d_out) cost parameters instead of saving
        # them, but the object stays well-defined (needed to measure the
        # full rank grid).
        layer = LowRankLinear(*init_layer(np.random.default_rng(0), d_in=4, d_out=3, rank=10))
        assert layer.rank == 10
        assert layer.u.size + layer.v.size == 10 * 7


class TestMlp:
    def test_dims_must_chain(self):
        rng = np.random.default_rng(0)
        layers = [DenseLinear(*init_layer(rng, 3, 4)), DenseLinear(*init_layer(rng, 5, 2))]
        with pytest.raises(ValueError, match="chain"):
            Mlp(layers)

    def test_layers_must_share_kind(self):
        rng = np.random.default_rng(0)
        layers = [DenseLinear(*init_layer(rng, 3, 4)), LowRankLinear(*init_layer(rng, 4, 2, rank=1))]
        with pytest.raises(ValueError, match="same kind"):
            Mlp(layers)

    def test_output_activation_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="output_activation"):
            Mlp([DenseLinear(*init_layer(rng, 2, 2))], output_activation="tanh")

    def test_relu_between_layers(self):
        # First layer produces a negative coordinate that ReLU must kill
        # before the second layer adds it.
        l1 = DenseLinear(np.array([[1.0], [-1.0]]), np.zeros(2))
        l2 = DenseLinear(np.array([[1.0, 1.0]]), np.zeros(1))
        mlp = Mlp([l1, l2])
        np.testing.assert_array_equal(mlp(np.array([[2.0]])), [[2.0]])
        np.testing.assert_array_equal(mlp(np.array([[-2.0]])), [[2.0]])

    def test_output_activations(self):
        l = DenseLinear(np.array([[1.0]]), np.zeros(1))
        x = np.array([[-3.0]])
        assert Mlp([l], output_activation=None)(x)[0, 0] == -3.0
        assert Mlp([l], output_activation="relu")(x)[0, 0] == 0.0
        assert Mlp([l], output_activation="relu")(-x)[0, 0] == 3.0

    def test_forward_accepts_tensor_params(self):
        rng = np.random.default_rng(3)
        for activation in ("relu", None):
            mlp = Mlp([DenseLinear(*init_layer(rng, 4, 3)), DenseLinear(*init_layer(rng, 3, 2))],
                      output_activation=activation)
            x = rng.normal(size=(5, 4))
            plain = mlp(x)
            taped_layers = [DenseLinear(Tensor(l.weight, requires_grad=True),
                                        Tensor(l.bias, requires_grad=True)) for l in mlp.layers]
            taped = Mlp(taped_layers, output_activation=activation)(x)
            np.testing.assert_array_equal(plain, taped.data)


class TestCounts:
    def test_counts_match_init_param_sizes(self):
        # Counts come from shapes alone; the arrays init_params allocates
        # must have exactly those sizes, biases included or not.
        for nt in (2, 8, 64):
            for arch in (MpgnnArch(n_tx_antennas=nt),
                         MpgnnArch(n_tx_antennas=nt, kind="low_rank", rank1=4, rank2=16)):
                params = init_params(arch, 0)
                for include_bias in (True, False):
                    per_mlp = [
                        sum(p.size for layer in mlp.layers for p in layer.params()
                            if include_bias or p is not layer.bias)
                        for mlp in (params.mlp1, params.mlp2)
                    ]
                    counts = count_model_params(arch, include_bias=include_bias)
                    assert (counts.mlp1, counts.mlp2) == tuple(per_mlp)
                    assert counts.total == sum(per_mlp)


class TestInit:
    def test_glorot_bound_and_moments(self):
        rng = np.random.default_rng(4)
        w = glorot_uniform(rng, 3072, 64, (64, 3072))
        bound = np.sqrt(6.0 / (3072 + 64))
        assert np.all(np.abs(w) <= bound)
        assert np.std(w) == pytest.approx(bound / np.sqrt(3.0), rel=0.1)
        assert np.mean(w) == pytest.approx(0.0, abs=0.01)

    def test_biases_zero_and_seeded(self):
        for rank in (None, 3):
            a1 = init_layer(np.random.default_rng(7), 6, 4, rank)
            a2 = init_layer(np.random.default_rng(7), 6, 4, rank)
            np.testing.assert_array_equal(a1[-1], np.zeros(4))
            for x, y in zip(a1, a2):
                np.testing.assert_array_equal(x, y)

    def test_layer_shapes_in_params_order(self):
        assert layer_shapes(5, 3) == {"W": (3, 5), "bias": (3,)}
        assert layer_shapes(5, 3, rank=2) == {"U": (5, 2), "V": (2, 3), "bias": (3,)}
        for rank, cls in ((None, DenseLinear), (2, LowRankLinear)):
            arrays = init_layer(np.random.default_rng(0), 5, 3, rank)
            assert [a.shape for a in cls(*arrays).params()] == list(layer_shapes(5, 3, rank).values())

    def test_each_weight_draws_with_its_own_fans(self):
        # Glorot's bound is symmetric in the fans, so W (d_out, d_in) and
        # the factors U (d_in, r), V (r, d_out) draw in params() order.
        rng = np.random.default_rng(9)
        w = glorot_uniform(rng, 5, 3, (3, 5))
        u, v = glorot_uniform(rng, 5, 2, (5, 2)), glorot_uniform(rng, 2, 3, (2, 3))
        rng = np.random.default_rng(9)
        np.testing.assert_array_equal(init_layer(rng, 5, 3)[0], w)
        got_u, got_v, _ = init_layer(rng, 5, 3, rank=2)
        np.testing.assert_array_equal(got_u, u)
        np.testing.assert_array_equal(got_v, v)


class TestAdam:
    def test_first_step_moves_by_lr(self):
        p = [np.array([1.0, -2.0, 3.0])]
        g = [np.ones(3)]
        Adam(lr=0.001).step(p, g)
        np.testing.assert_allclose(p[0], [1.0 - 0.001, -2.0 - 0.001, 3.0 - 0.001], atol=1e-8)

    def test_zero_gradient_no_movement(self):
        p = [np.array([1.0, 2.0])]
        opt = Adam()
        for _ in range(5):
            opt.step(p, [np.zeros(2)])
        np.testing.assert_array_equal(p[0], [1.0, 2.0])

    def test_scalar_convergence(self):
        # Minimize (w-2)^2 from w=0.
        p = [np.array([0.0])]
        opt = Adam(lr=0.1)
        for _ in range(100):
            opt.step(p, [2.0 * (p[0] - 2.0)])
        assert abs(p[0][0] - 2.0) < 0.5

    def test_update_is_elementwise(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=3), rng.normal(size=4)
        ga, gb = rng.normal(size=3), rng.normal(size=4)
        p1 = [a.copy(), b.copy()]
        p2 = [b.copy(), a.copy()]
        Adam().step(p1, [ga, gb])
        Adam().step(p2, [gb, ga])
        np.testing.assert_array_equal(p1[0], p2[1])
        np.testing.assert_array_equal(p1[1], p2[0])

    def test_nan_gradient_aborts(self):
        p = [np.ones(2)]
        with pytest.raises(FloatingPointError, match="non-finite"):
            Adam().step(p, [np.array([1.0, np.nan])])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Adam().step([np.ones(2)], [np.ones(3)])
        with pytest.raises(ValueError, match="grads"):
            Adam().step([np.ones(2)], [])

    def test_zero_lr_is_allowed_and_static(self):
        p = [np.array([1.5])]
        Adam(lr=0.0).step(p, [np.array([3.0])])
        np.testing.assert_array_equal(p[0], [1.5])
        with pytest.raises(ValueError, match="lr"):
            Adam(lr=-0.1)
