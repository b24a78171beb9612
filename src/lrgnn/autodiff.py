"""Reverse-mode automatic differentiation over numpy arrays.

A small tape: each op records a closure that pushes the output gradient
back to its inputs. Graphs are built implicitly by doing arithmetic on
``Tensor`` objects; ``Tensor.backward()`` walks the tape in reverse
topological order. Tensors that do not require gradients short-circuit
the bookkeeping, so the same code path doubles as a plain-numpy forward.

Operators are ``Tensor`` methods. Every other op (``linear``,
``sigmoid``, ``tsum``, ``gather_rows``, ...) is a module function that
accepts either a ``Tensor`` or an ``ndarray``, runs the identical numpy
kernel on both, and records its backward closure only for a ``Tensor``,
so taped and untaped evaluations are bit-identical.

A gradient array that a backward allocated (a product, a mask, a
scatter) becomes its parent's gradient as it is; one passed on as a
view (by ``+``, ``tsum``, ``.T``, ``row_slice``) is copied first.
"""

from __future__ import annotations

import numpy as np


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


def _consumed(g) -> None:
    raise RuntimeError("backward() through a tape that an earlier backward() already consumed")


class Tensor:
    """Array node on the gradient tape."""

    # Make numpy defer to our reflected operators instead of looping ufuncs
    # over the object.
    __array_ufunc__ = None

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        if self.grad is None:  # adopt g if the calling backward allocated it
            self.grad = g if fresh else np.array(g, dtype=np.float64)
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

        self._accumulate(np.ones_like(self.data), fresh=True)
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
                self._accumulate(_unbroadcast(g * other.data, self.data.shape), fresh=True)
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape), fresh=True)

        return Tensor._make(out_data, (self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other.data

        def bw(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.data.shape), fresh=True)
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape), fresh=True
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
                self._accumulate(g @ other.data.T, fresh=True)
            if other.requires_grad:
                other._accumulate(self.data.T @ g, fresh=True)

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


def linear(x, w, b, relu: bool = False):
    """relu?(x @ w + b), or relu?(x + b) when w is None, as one node that
    holds only its output; the ReLU's mask is read back from it (out > 0
    exactly where the pre-activation is)."""
    taped = isinstance(x, Tensor) or isinstance(w, Tensor) or isinstance(b, Tensor)
    xd, wd, bd = (value(x), w if w is None else value(w), value(b)) if taped else (x, w, b)
    out = xd + bd if wd is None else xd @ wd
    if wd is not None:
        out += bd
    if relu:
        np.maximum(out, 0.0, out=out)
    if not taped:
        return out
    if wd is not None and (xd.ndim != 2 or wd.ndim != 2):
        raise ValueError("matmul supports 2-D operands only")

    def bw(g):
        if relu:
            g = g * (out > 0.0)
        if isinstance(b, Tensor) and b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape), fresh=g.shape != b.data.shape)
        if isinstance(x, Tensor) and x.requires_grad:
            x._accumulate(g if wd is None else g @ wd.T, fresh=relu or wd is not None)
        if isinstance(w, Tensor) and w.requires_grad:
            w._accumulate(xd.T @ g, fresh=True)

    return Tensor._make(out, tuple(t for t in (x, w, b) if isinstance(t, Tensor)), bw)


def sigmoid(x):
    # 1 / (1 + exp(-clip(x))): its ufuncs in that order, in one array.
    # np.minimum(np.maximum(.)) is np.clip without its Python wrapper,
    # which costs more than the arithmetic on the small arrays of a
    # message-passing round.
    s = np.maximum(value(x), -500.0)
    np.minimum(s, 500.0, out=s)
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.add(1.0, s, out=s)
    np.divide(1.0, s, out=s)
    if not isinstance(x, Tensor):
        return s

    def bw(g):
        x._accumulate(g * s * (1.0 - s), fresh=True)

    return Tensor._make(s, (x,), bw)


def log1p(x):
    if not isinstance(x, Tensor):
        return np.log1p(x)

    def bw(g):
        x._accumulate(g / (1.0 + x.data), fresh=True)

    return Tensor._make(np.log1p(x.data), (x,), bw)


def sqrt(x):
    if not isinstance(x, Tensor):
        return np.sqrt(x)
    root = np.sqrt(x.data)

    def bw(g):
        x._accumulate(g * (0.5 / root), fresh=True)

    return Tensor._make(root, (x,), bw)


def square(x):
    if not isinstance(x, Tensor):
        return x * x

    def bw(g):
        x._accumulate(g * (2.0 * x.data), fresh=True)

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


def row_dot(h: np.ndarray, x):
    """Per-row dot products of a constant array h with x; the node holds
    no (rows, width) product."""
    if not isinstance(x, Tensor):
        return np.add.reduce(h * x, axis=1)

    def bw(g):
        x._accumulate(g[:, None] * h, fresh=True)

    return Tensor._make(np.add.reduce(h * x.data, axis=1), (x,), bw)


def maximum(x, floor: float):
    """Elementwise max of `x` and a constant; ties route the gradient to x."""
    if not isinstance(x, Tensor):
        return np.maximum(x, floor)

    def bw(g):
        x._accumulate(g * (x.data >= floor), fresh=True)

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
    """Select rows `x[idx]`; the gradient scatter-adds back. On the tape
    idx must be non-decreasing, as graph edge sources are (ValueError
    otherwise), so the backward sums each run of equal indices of the
    gradient as it lies, without a sort. The plain path takes any order."""
    idx = np.asarray(idx, dtype=np.intp)
    if not isinstance(x, Tensor):
        return x[idx]
    step = np.diff(idx, prepend=idx[:1] - 1)
    if (step < 0).any():
        raise ValueError("gather_rows on the tape needs non-decreasing indices")
    starts = np.flatnonzero(step)

    def bw(g):
        gx = np.zeros_like(x.data)
        gx[idx[starts]] = np.add.reduceat(g, starts, axis=0)
        x._accumulate(gx, fresh=True)

    return Tensor._make(x.data[idx], (x,), bw)


def in_slots(targets: np.ndarray, n_rows: int) -> tuple:
    """In-neighbour slot table of 1-D integer keys in [0, n_rows), as
    scatter_max takes it.

    Returns (slots, empty): row v of the (n_rows, max count) intp array
    slots lists, in list order, the positions of the keys equal to v,
    padded with repeats of its first one; empty masks the rows no key
    hits, whose slots are arbitrary, or is None when every row has a key.
    """
    targets = np.asarray(targets, dtype=np.intp)
    counts = np.bincount(targets, minlength=n_rows)
    if counts.size > n_rows:
        raise ValueError(f"targets reach row {counts.size - 1} of {n_rows}")
    order = targets.argsort(kind="stable")
    # Slot j of row v is position start_v + j of the sorted order for
    # j < count_v, else start_v. Empty rows past the last key start at
    # the last key rather than past the end; without keys the table has
    # no columns and reads nothing.
    starts = np.minimum(np.add.accumulate(counts) - counts, targets.size - 1)
    j = np.arange(counts.max(initial=0))
    pos = starts[:, None] + j * (j < counts[:, None])
    return order[pos], None if np.count_nonzero(counts) == n_rows else counts == 0


def scatter_max(messages, groups: tuple):
    """Per-row elementwise max of `messages`, each row read through
    groups = in_slots(targets, n_rows), the in-neighbour slot table of
    the messages' target rows.

    Rows of the output with no contributing message are zero. The
    gradient is routed to exactly one contributor per coordinate: the
    first maximal message in list order, so callers control tie-breaking
    by how they order the message rows. On the tape the winners are
    found in the forward pass, and the node holds them rather than the
    gathered messages.
    """
    is_tensor = isinstance(messages, Tensor)
    msg_data = messages.data if is_tensor else messages
    slots, empty = groups
    n_rows, n_slots = slots.shape
    if not n_slots:  # no messages: every row is empty
        out_data = np.zeros((n_rows, msg_data.shape[1]))
        if is_tensor:
            return Tensor._make(out_data, (messages,),
                                lambda g: messages._accumulate(np.zeros_like(msg_data), fresh=True))
        return out_data
    gathered = msg_data[slots]
    out_data = np.maximum.reduce(gathered, axis=1)
    if is_tensor:
        # Per row and coordinate, the first slot that holds the maximum
        # wins: the first maximal message in list order. A NaN counts as
        # maximal, as in argmax. Slot j scores n_slots - j where it hits,
        # so the best score marks the first hit; every row has one.
        hit = gathered == out_data[:, None]
        if np.isnan(out_data).any():
            hit |= np.isnan(gathered)
        score = hit * np.arange(n_slots, 0, -1, dtype=np.min_scalar_type(n_slots))[:, None]
        first = n_slots - np.maximum.reduce(score, axis=1)
        rows = slice(None) if empty is None else ~empty
        winners = slots[np.arange(n_rows)[:, None], first][rows]
    if empty is not None:
        out_data[empty] = 0.0
    if not is_tensor:
        return out_data

    def bw(g):
        gm = np.zeros_like(msg_data)
        gm[winners, np.arange(msg_data.shape[1])] = g[rows]
        messages._accumulate(gm, fresh=True)

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
        values._accumulate(g[targets], fresh=True)

    return Tensor._make(out_data, (values,), bw)


def value(x) -> np.ndarray:
    """Underlying ndarray of a Tensor, or the array itself."""
    return x.data if isinstance(x, Tensor) else np.asarray(x)
