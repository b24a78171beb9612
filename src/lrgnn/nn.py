"""Linear layers (dense and low-rank factorized), MLPs, init, and Adam.

Layers are thin containers around their parameter arrays and work
unchanged whether those arrays are plain ndarrays (fast inference path)
or autodiff Tensors (training path); the arithmetic is identical either
way, so both paths produce bit-equal outputs. Every layer carries a
bias and computes finish(x @ first), `first` being W.T or U: a caller
may split it by input rows and sum the blocks' products. Parameter
counts come from the layer shapes alone (mpgnn.param_counts).
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, relu

_OUTPUT_ACTIVATIONS = (None, "relu")


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def _dims_of(p) -> tuple:
    return p.data.shape if isinstance(p, Tensor) else np.shape(p)


class DenseLinear:
    """y = x @ W.T + b with W of shape (d_out, d_in)."""

    kind = "dense"

    def __init__(self, weight, bias):
        w_shape = _dims_of(weight)
        if len(w_shape) != 2:
            raise ValueError(f"weight must be 2-D, got shape {w_shape}")
        if _dims_of(bias) != (w_shape[0],):
            raise ValueError(f"bias shape {_dims_of(bias)} does not match d_out {w_shape[0]}")
        self.weight = weight
        self.bias = bias

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_out: int) -> "DenseLinear":
        w = glorot_uniform(rng, d_in, d_out, (d_out, d_in))
        return cls(w, np.zeros(d_out))

    @property
    def d_in(self) -> int:
        return _dims_of(self.weight)[1]

    @property
    def d_out(self) -> int:
        return _dims_of(self.weight)[0]

    def params(self) -> list:
        return [self.weight, self.bias]

    @property
    def first(self):
        return self.weight.T

    def finish(self, z):
        return z + self.bias

    def __call__(self, x):
        return self.finish(x @ self.first)


class LowRankLinear:
    """y = (x @ U) @ V + b with U (d_in, r) and V (r, d_out).

    The effective weight matrix is (U @ V).T. Ranks above
    min(d_in, d_out) are accepted; the factorization is then
    overcomplete and costs more parameters than the dense layer it
    replaces instead of fewer.
    """

    kind = "low_rank"

    def __init__(self, u, v, bias):
        u_shape, v_shape = _dims_of(u), _dims_of(v)
        if len(u_shape) != 2 or len(v_shape) != 2:
            raise ValueError(f"factors must be 2-D, got {u_shape} and {v_shape}")
        if u_shape[1] != v_shape[0]:
            raise ValueError(f"rank mismatch between factors: {u_shape} vs {v_shape}")
        if u_shape[1] < 1:
            raise ValueError("rank must be >= 1")
        if _dims_of(bias) != (v_shape[1],):
            raise ValueError(f"bias shape {_dims_of(bias)} does not match d_out {v_shape[1]}")
        self.u = u
        self.v = v
        self.bias = bias

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_out: int, rank: int) -> "LowRankLinear":
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        u = glorot_uniform(rng, d_in, rank, (d_in, rank))
        v = glorot_uniform(rng, rank, d_out, (rank, d_out))
        return cls(u, v, np.zeros(d_out))

    @property
    def d_in(self) -> int:
        return _dims_of(self.u)[0]

    @property
    def d_out(self) -> int:
        return _dims_of(self.v)[1]

    @property
    def rank(self) -> int:
        return _dims_of(self.u)[1]

    def effective_weight(self) -> np.ndarray:
        u = self.u.data if isinstance(self.u, Tensor) else self.u
        v = self.v.data if isinstance(self.v, Tensor) else self.v
        return (u @ v).T

    def params(self) -> list:
        return [self.u, self.v, self.bias]

    @property
    def first(self):
        return self.u

    def finish(self, z):
        return z @ self.v + self.bias

    def __call__(self, x):
        return self.finish(x @ self.first)


class Mlp:
    """Stack of same-kind linear layers with biases, ReLU between them.

    output_activation: None or "relu", applied after the last layer.
    """

    def __init__(self, layers: list, output_activation: str | None = None):
        if not layers:
            raise ValueError("an MLP needs at least one layer")
        kinds = {type(l) for l in layers}
        if len(kinds) > 1:
            raise ValueError("all layers of an MLP must be the same kind")
        if output_activation not in _OUTPUT_ACTIVATIONS:
            raise ValueError(f"output_activation must be one of {_OUTPUT_ACTIVATIONS}")
        for a, b in zip(layers, layers[1:]):
            if a.d_out != b.d_in:
                raise ValueError(f"layer dims do not chain: {a.d_out} -> {b.d_in}")
        self.layers = layers
        self.output_activation = output_activation

    @classmethod
    def dense(cls, rng, dims: list, output_activation=None) -> "Mlp":
        layers = [DenseLinear.init(rng, dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
        return cls(layers, output_activation)

    @classmethod
    def low_rank(cls, rng, dims: list, ranks: list, output_activation=None) -> "Mlp":
        if len(ranks) != len(dims) - 1:
            raise ValueError(f"need {len(dims) - 1} ranks, got {len(ranks)}")
        layers = [LowRankLinear.init(rng, dims[i], dims[i + 1], ranks[i]) for i in range(len(dims) - 1)]
        return cls(layers, output_activation)

    def params(self) -> list:
        return [p for layer in self.layers for p in layer.params()]

    def __call__(self, x):
        for layer in self.layers[:-1]:
            x = relu(layer(x))
        x = self.layers[-1](x)
        if self.output_activation == "relu":
            return relu(x)
        return x


class Adam:
    """Adam with bias correction; updates parameter arrays in place.

    Defaults follow the usual lr=0.001, beta1=0.9, beta2=0.999,
    eps=1e-8. The very first step therefore moves every parameter by
    about -lr * sign(gradient).
    """

    def __init__(self, lr: float = 0.001, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        # lr = 0 is allowed: a degenerate optimizer that never moves.
        if lr < 0.0:
            raise ValueError("lr must be >= 0")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ValueError(f"{len(params)} params but {len(grads)} grads")
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        self.t += 1
        b1t = 1.0 - self.beta1**self.t
        b2t = 1.0 - self.beta2**self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            if p.shape != g.shape:
                raise ValueError(f"grad shape {g.shape} does not match param shape {p.shape}")
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient in Adam step")
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * np.square(g)
            p -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)
