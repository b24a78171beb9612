"""Linear layers (dense and low-rank factorized), MLPs, init, and Adam.

Layers are thin containers around their parameter arrays and work
unchanged whether those arrays are plain ndarrays (fast inference path)
or autodiff Tensors (training path); the arithmetic is identical either
way, so both paths produce bit-equal outputs. Every layer carries a
bias and computes finish(x @ first), `first` being W.T or U: a caller
may split it by input rows and sum the blocks' products. finish(z,
relu) is one autodiff linear node (z @ V for a factorized layer, plus
the bias, then the ReLU if asked); a dense layer(x, relu) fuses x @ W.T
into its node too. layer_shapes
names a layer's arrays and their shapes in params() order; init,
parameter counts and model files all read it. A new layer is built
around the arrays init_layer draws: DenseLinear(*init_layer(rng, d_in,
d_out)) or LowRankLinear(*init_layer(rng, d_in, d_out, rank)).
"""

from __future__ import annotations

import numpy as np

from .autodiff import linear, value

_OUTPUT_ACTIVATIONS = (None, "relu")


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def layer_shapes(d_in: int, d_out: int, rank: int | None = None) -> dict:
    """Name -> shape of a d_in -> d_out layer's arrays, in params() order:
    W (d_out, d_in) for a dense layer (rank None), or U (d_in, rank) and
    V (rank, d_out) for a factorized one; then the bias (d_out,)."""
    if rank is None:
        return {"W": (d_out, d_in), "bias": (d_out,)}
    return {"U": (d_in, rank), "V": (rank, d_out), "bias": (d_out,)}


def init_layer(rng: np.random.Generator, d_in: int, d_out: int, rank: int | None = None) -> list:
    """A layer's arrays in params() order: each weight drawn with
    glorot_uniform over its own two dims (the bound is symmetric in
    them), in order; the bias zero."""
    return [np.zeros(shape) if name == "bias" else glorot_uniform(rng, *shape, shape)
            for name, shape in layer_shapes(d_in, d_out, rank).items()]


class DenseLinear:
    """y = x @ W.T + b with W of shape (d_out, d_in)."""

    kind = "dense"
    rank = None

    def __init__(self, weight, bias):
        w_shape = value(weight).shape
        if len(w_shape) != 2:
            raise ValueError(f"weight must be 2-D, got shape {w_shape}")
        if value(bias).shape != (w_shape[0],):
            raise ValueError(f"bias shape {value(bias).shape} does not match d_out {w_shape[0]}")
        self.weight = weight
        self.bias = bias

    @property
    def d_in(self) -> int:
        return value(self.weight).shape[1]

    @property
    def d_out(self) -> int:
        return value(self.weight).shape[0]

    def params(self) -> list:
        return [self.weight, self.bias]

    @property
    def first(self):
        return self.weight.T

    def finish(self, z, relu: bool = False):
        return linear(z, None, self.bias, relu)

    def __call__(self, x, relu: bool = False):
        return linear(x, self.weight.T, self.bias, relu)


class LowRankLinear:
    """y = (x @ U) @ V + b with U (d_in, r) and V (r, d_out).

    The effective weight matrix is (U @ V).T. Ranks above
    min(d_in, d_out) are accepted; the factorization is then
    overcomplete and costs more parameters than the dense layer it
    replaces instead of fewer.
    """

    kind = "low_rank"

    def __init__(self, u, v, bias):
        u_shape, v_shape = value(u).shape, value(v).shape
        if len(u_shape) != 2 or len(v_shape) != 2:
            raise ValueError(f"factors must be 2-D, got {u_shape} and {v_shape}")
        if u_shape[1] != v_shape[0]:
            raise ValueError(f"rank mismatch between factors: {u_shape} vs {v_shape}")
        if u_shape[1] < 1:
            raise ValueError("rank must be >= 1")
        if value(bias).shape != (v_shape[1],):
            raise ValueError(f"bias shape {value(bias).shape} does not match d_out {v_shape[1]}")
        self.u = u
        self.v = v
        self.bias = bias

    @property
    def d_in(self) -> int:
        return value(self.u).shape[0]

    @property
    def d_out(self) -> int:
        return value(self.v).shape[1]

    @property
    def rank(self) -> int:
        return value(self.u).shape[1]

    def params(self) -> list:
        return [self.u, self.v, self.bias]

    @property
    def first(self):
        return self.u

    def finish(self, z, relu: bool = False):
        return linear(z, self.v, self.bias, relu)

    def __call__(self, x, relu: bool = False):
        return linear(x @ self.u, self.v, self.bias, relu)


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

    def params(self) -> list:
        return [p for layer in self.layers for p in layer.params()]

    def __call__(self, x):
        for layer in self.layers[:-1]:
            x = layer(x, relu=True)
        return self.layers[-1](x, relu=self.output_activation == "relu")


BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Adam with bias correction (BETA1, BETA2, EPS); updates parameter
    arrays in place. The very first step moves every parameter by
    about -lr * sign(gradient).
    """

    def __init__(self, lr: float = 0.001):
        # lr = 0 is allowed: a degenerate optimizer that never moves.
        if lr < 0.0:
            raise ValueError("lr must be >= 0")
        self.lr = lr
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
        b1t = 1.0 - BETA1**self.t
        b2t = 1.0 - BETA2**self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            if p.shape != g.shape:
                raise ValueError(f"grad shape {g.shape} does not match param shape {p.shape}")
            if not np.all(np.isfinite(g)):
                raise FloatingPointError("non-finite gradient in Adam step")
            # In place, op for op as m = BETA1*m + (1-BETA1)*g, v = BETA2*v + (1-BETA2)*g**2
            # and p -= lr * (m / b1t) / (sqrt(v / b2t) + EPS).
            buf = np.multiply(g, 1.0 - BETA1)
            m *= BETA1
            m += buf
            v *= BETA2
            v += np.multiply(np.square(g, out=buf), 1.0 - BETA2, out=buf)
            np.add(np.sqrt(np.divide(v, b2t, out=buf), out=buf), EPS, out=buf)
            step = np.divide(m, b1t)
            step *= self.lr
            p -= np.divide(step, buf, out=step)
