"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: each op records a closure that pushes the output gradient
back to its inputs. Graphs are built implicitly by doing arithmetic on
``Tensor`` objects; ``Tensor.backward()`` walks the tape in reverse
topological order. Tensors that do not require gradients short-circuit
the bookkeeping, so the same code path doubles as a plain-numpy forward.

Operators are ``Tensor`` methods. Every other op (``relu``, ``sigmoid``,
``tsum``, ``gather_rows``, ...) is a module function that accepts either
a ``Tensor`` or an ``ndarray``, runs the identical numpy kernel on both,
and records its backward closure only for a ``Tensor``, so taped and
untaped evaluations are bit-identical.
"""

from __future__ import annotations

import numpy as np


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _sigmoid_raw(x: np.ndarray) -> np.ndarray:
    # np.minimum(np.maximum(.)) is np.clip without its Python wrapper,
    # which costs more than the arithmetic on the small arrays of a
    # message-passing round.
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(x, -500.0), 500.0)))


def _consumed(g) -> None:
    raise RuntimeError("backward() through a tape that an earlier backward() already consumed")


def group_keys(keys: np.ndarray) -> tuple:
    """Stable sort of 1-D integer keys into runs of equal keys.

    Returns (order, starts, run_keys): keys[order] is sorted with ties in
    list order, runs begin at positions `starts` of the sorted array, and
    run_keys holds each run's key. scatter_max accepts the result, so a
    caller that reduces over the same keys repeatedly groups them once.
    """
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    first = np.empty(ks.shape[0], dtype=bool)
    first[:1] = True
    np.not_equal(ks[1:], ks[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return order, starts, ks[starts]


class Tensor:
    """Array node on the gradient tape."""

    # Make numpy defer to our reflected operators instead of looping ufuncs
    # over the object.
    __array_ufunc__ = None

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple, backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self) -> None:
        """Backpropagate from this scalar tensor to every reachable parameter.

        The tape is consumed on the way: once an interior node has pushed
        its gradient to its parents, its gradient, closure and parent
        links are dropped, so memory falls as the walk proceeds. Leaves
        (tensors created with requires_grad=True) keep their gradients.
        A second backward() through a consumed node raises RuntimeError.
        """
        if not self.requires_grad:
            raise RuntimeError(
                "backward() on a tensor with no recorded computation; "
                "run a forward pass over tensors that require gradients first"
            )
        if self.data.shape != ():
            raise RuntimeError("backward() needs a scalar tensor")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(np.ones_like(self.data))
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node.grad = None
                node._backward = _consumed
                node._parents = ()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        return Tensor._make(out_data, (self, other), bw)

    __radd__ = __add__

    def __neg__(self):
        # Multiplying by -1.0 is exact, so this is negation bit for bit.
        return self * -1.0

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape)
                )

        return Tensor._make(out_data, (self, other), bw)

    def __rtruediv__(self, other):
        return Tensor(other) / self

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul supports 2-D operands only")
        out_data = self.data @ other.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        return Tensor._make(out_data, (self, other), bw)

    def __rmatmul__(self, other):
        return Tensor(other) @ self

    @property
    def T(self) -> "Tensor":
        def bw(g):
            self._accumulate(g.T)

        return Tensor._make(self.data.T, (self,), bw)


# ---------------------------------------------------------------------------
# Functions over Tensor or ndarray. Both paths run the same numpy kernel,
# keeping taped and plain evaluations bit-identical.
# ---------------------------------------------------------------------------


def relu(x):
    if not isinstance(x, Tensor):
        return np.maximum(x, 0.0)

    def bw(g):
        x._accumulate(g * (x.data > 0.0))

    return Tensor._make(np.maximum(x.data, 0.0), (x,), bw)


def sigmoid(x):
    if not isinstance(x, Tensor):
        return _sigmoid_raw(x)
    s = _sigmoid_raw(x.data)

    def bw(g):
        x._accumulate(g * s * (1.0 - s))

    return Tensor._make(s, (x,), bw)


def log1p(x):
    if not isinstance(x, Tensor):
        return np.log1p(x)

    def bw(g):
        x._accumulate(g / (1.0 + x.data))

    return Tensor._make(np.log1p(x.data), (x,), bw)


def sqrt(x):
    if not isinstance(x, Tensor):
        return np.sqrt(x)
    root = np.sqrt(x.data)

    def bw(g):
        x._accumulate(g * (0.5 / root))

    return Tensor._make(root, (x,), bw)


def square(x):
    if not isinstance(x, Tensor):
        return x * x

    def bw(g):
        x._accumulate(g * (2.0 * x.data))

    return Tensor._make(x.data * x.data, (x,), bw)


def tsum(x, axis=None, keepdims: bool = False):
    # np.add.reduce is np.sum without its Python wrapper; same kernel.
    if not isinstance(x, Tensor):
        return np.add.reduce(x, axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        x._accumulate(np.broadcast_to(g, x.data.shape))

    return Tensor._make(np.add.reduce(x.data, axis=axis, keepdims=keepdims), (x,), bw)


def maximum(x, floor: float):
    """Elementwise max of `x` and a constant; ties route the gradient to x."""
    if not isinstance(x, Tensor):
        return np.maximum(x, floor)

    def bw(g):
        x._accumulate(g * (x.data >= floor))

    return Tensor._make(np.maximum(x.data, floor), (x,), bw)


def row_slice(x, start: int, stop: int):
    """Rows start:stop of `x`, as a view on the plain path; the gradient
    is added into those rows only."""
    if not isinstance(x, Tensor):
        return x[start:stop]

    def bw(g):
        if x.grad is None:
            x.grad = np.zeros_like(x.data)
        x.grad[start:stop] += g

    return Tensor._make(x.data[start:stop], (x,), bw)


def gather_rows(x, idx: np.ndarray):
    """Select rows `x[idx]`; the gradient scatter-adds back."""
    idx = np.asarray(idx, dtype=np.intp)
    if not isinstance(x, Tensor):
        return x[idx]
    out_data = x.data[idx]

    def bw(g):
        gx = np.zeros_like(x.data)
        if idx.size:
            order, starts, rows = group_keys(idx)
            gx[rows] = np.add.reduceat(g[order], starts, axis=0)
        x._accumulate(gx)

    return Tensor._make(out_data, (x,), bw)


def scatter_max(messages, targets: np.ndarray, n_rows: int, groups: tuple | None = None):
    """Per-row elementwise max of `messages` grouped by `targets`.

    Rows of the output with no contributing message are zero. The
    gradient is routed to exactly one contributor per coordinate: the
    first maximal message in list order, so callers control tie-breaking
    by how they order the message rows. groups, if given, must be
    group_keys(targets).
    """
    targets = np.asarray(targets, dtype=np.intp)
    is_tensor = isinstance(messages, Tensor)
    msg_data = messages.data if is_tensor else messages
    out_data = np.zeros((n_rows, msg_data.shape[1]), dtype=np.float64)
    if targets.size:
        order, starts, rows = group_keys(targets) if groups is None else groups
        sorted_msg = msg_data[order]
        out_data[rows] = np.maximum.reduceat(sorted_msg, starts, axis=0)
    if not is_tensor:
        return out_data

    def bw(g):
        gm = np.zeros_like(msg_data)
        if targets.size:
            # Per run and coordinate, the first sorted row that holds the
            # maximum wins: the first maximal message in list order. A NaN
            # counts as maximal, as in argmax.
            hit = sorted_msg == out_data[targets[order]]
            if np.isnan(out_data[rows]).any():
                hit |= np.isnan(sorted_msg)
            pos = np.where(hit, np.arange(order.size)[:, None], order.size)
            winners = order[np.minimum.reduceat(pos, starts, axis=0)]
            gm[winners, np.arange(msg_data.shape[1])] = g[rows]
        messages._accumulate(gm)

    return Tensor._make(out_data, (messages,), bw)


def scatter_sum(values, targets: np.ndarray, n_rows: int):
    """Sum `values` (1-D, one entry per target) into `n_rows` bins."""
    targets = np.asarray(targets, dtype=np.intp)
    is_tensor = isinstance(values, Tensor)
    val_data = values.data if is_tensor else values
    out_data = np.zeros(n_rows, dtype=np.float64)
    np.add.at(out_data, targets, val_data)
    if not is_tensor:
        return out_data

    def bw(g):
        values._accumulate(g[targets])

    return Tensor._make(out_data, (values,), bw)


def value(x) -> np.ndarray:
    """Underlying ndarray of a Tensor, or the array itself."""
    return x.data if isinstance(x, Tensor) else np.asarray(x)
