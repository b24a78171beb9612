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

A Tensor is a value plus, when it requires gradients, a tape node: a
gradient slot, the backward closure and the parents' nodes. The node
does not hold the value. Each closure saves only the arrays its
backward reads:
- the operand values for ``*``, ``/``, ``@``, ``square``, ``log1p``
  and ``maximum``, and a weighted ``linear``'s input; a product keeps
  a factor only for the other factor's gradient, and only when that
  other factor requires one
- its own output for a ReLU ``linear``, ``sigmoid`` and ``sqrt``
- only shapes for ``+``, ``tsum``, ``gather_rows`` and ``row_slice``
- its winners for ``scatter_max``, none over no messages
So an interior value is freed as soon as the forward pass drops its
Tensor.

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


class _Node:
    """A Tensor's place on the tape: its gradient slot, the closure that
    pushes that gradient to its parents' nodes, and those nodes. The
    closure holds only the arrays it reads, so the node does not keep
    its Tensor's value alive."""

    __slots__ = ("grad", "_backward", "_parents")

    def __init__(self, backward=None, parents: tuple = ()):
        self.grad: np.ndarray | None = None
        self._backward = backward
        self._parents = parents

    def _accumulate(self, g: np.ndarray, fresh: bool = False) -> None:
        if self.grad is None:  # adopt g if the calling backward allocated it
            self.grad = g if fresh else np.array(g, dtype=np.float64)
        else:
            self.grad += g


def _node(x):
    """The tape node of a Tensor that requires gradients, else None."""
    return x.node if isinstance(x, Tensor) else None


class Tensor:
    """An array value and, when it requires gradients, its tape node."""

    # Make numpy defer to our reflected operators instead of looping ufuncs
    # over the object.
    __array_ufunc__ = None

    __slots__ = ("data", "node")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.node = _Node() if requires_grad else None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def requires_grad(self) -> bool:
        return self.node is not None

    @property
    def grad(self) -> np.ndarray | None:
        return None if self.node is None else self.node.grad

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: tuple, backward) -> "Tensor":
        """A Tensor of `data` whose node, if any parent requires
        gradients, runs backward(g) and links those parents' nodes."""
        out = Tensor(data)
        nodes = tuple(p.node for p in parents if p.node is not None)
        if nodes:
            out.node = _Node(backward, nodes)
        return out

    def backward(self) -> None:
        """Backpropagate from this scalar tensor to every reachable parameter.

        The tape is consumed on the way: once an interior node has pushed
        its gradient to its parents, its gradient, closure and parent
        links are dropped, so memory falls as the walk proceeds. Leaves
        (tensors created with requires_grad=True) keep their gradients.
        A second backward() through a consumed node raises RuntimeError.
        """
        if self.node is None:
            raise RuntimeError(
                "backward() on a tensor with no recorded computation; "
                "run a forward pass over tensors that require gradients first"
            )
        if self.data.shape != ():
            raise RuntimeError("backward() needs a scalar tensor")

        order: list[_Node] = []
        visited: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(self.node, False)]
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
                if id(p) not in visited:
                    stack.append((p, False))

        self.node._accumulate(np.ones_like(self.data), fresh=True)
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
        na, nb, sa, sb = self.node, other.node, self.data.shape, other.data.shape

        def bw(g):
            if na is not None:
                na._accumulate(_unbroadcast(g, sa))
            if nb is not None:
                nb._accumulate(_unbroadcast(g, sb))

        return Tensor._make(self.data + other.data, (self, other), bw)

    def __neg__(self):
        # Multiplying by -1.0 is exact, so this is negation bit for bit.
        return self * -1.0

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        na, nb, sa, sb = self.node, other.node, self.data.shape, other.data.shape
        a = None if nb is None else self.data
        b = None if na is None else other.data

        def bw(g):
            if na is not None:
                na._accumulate(_unbroadcast(g * b, sa), fresh=True)
            if nb is not None:
                nb._accumulate(_unbroadcast(g * a, sb), fresh=True)

        return Tensor._make(self.data * other.data, (self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        na, nb, sa, sb = self.node, other.node, self.data.shape, other.data.shape
        a, b = None if nb is None else self.data, other.data

        def bw(g):
            if na is not None:
                na._accumulate(_unbroadcast(g / b, sa), fresh=True)
            if nb is not None:
                nb._accumulate(_unbroadcast(-g * a / (b * b), sb), fresh=True)

        return Tensor._make(self.data / other.data, (self, other), bw)

    def __rtruediv__(self, other):
        return Tensor(other) / self

    def __matmul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ValueError("matmul supports 2-D operands only")
        na, nb = self.node, other.node
        a = None if nb is None else self.data
        b = None if na is None else other.data

        def bw(g):
            if na is not None:
                na._accumulate(g @ b.T, fresh=True)
            if nb is not None:
                nb._accumulate(a.T @ g, fresh=True)

        return Tensor._make(self.data @ other.data, (self, other), bw)

    def __rmatmul__(self, other):
        return Tensor(other) @ self

    @property
    def T(self) -> "Tensor":
        node = self.node
        return Tensor._make(self.data.T, (self,), lambda g: node._accumulate(g.T))


# ---------------------------------------------------------------------------
# Functions over Tensor or ndarray. Both paths run the same numpy kernel,
# keeping taped and plain evaluations bit-identical.
# ---------------------------------------------------------------------------


def linear(x, w, b, relu: bool = False):
    """relu?(x @ w + b), or relu?(x + b) when w is None, as one node.
    Its closure holds the output of a ReLU layer, whose mask it reads
    back (out > 0 exactly where the pre-activation is), the input when
    w requires gradients and w when x does."""
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
    nx, nw, nb, b_shape = _node(x), _node(w), _node(b), bd.shape
    mask_of = out if relu else None
    xd = None if nw is None else xd
    wd = None if nx is None else wd

    def bw(g):
        if mask_of is not None:
            g = g * (mask_of > 0.0)
        if nb is not None:
            nb._accumulate(_unbroadcast(g, b_shape), fresh=g.shape != b_shape)
        if nx is not None:
            nx._accumulate(g if wd is None else g @ wd.T, fresh=relu or wd is not None)
        if nw is not None:
            nw._accumulate(xd.T @ g, fresh=True)

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
    node = x.node
    return Tensor._make(s, (x,), lambda g: node._accumulate(g * s * (1.0 - s), fresh=True))


def log1p(x):
    if not isinstance(x, Tensor):
        return np.log1p(x)
    node, xd = x.node, x.data
    return Tensor._make(np.log1p(xd), (x,), lambda g: node._accumulate(g / (1.0 + xd), fresh=True))


def sqrt(x):
    if not isinstance(x, Tensor):
        return np.sqrt(x)
    node, root = x.node, np.sqrt(x.data)
    return Tensor._make(root, (x,), lambda g: node._accumulate(g * (0.5 / root), fresh=True))


def square(x):
    if not isinstance(x, Tensor):
        return x * x
    node, xd = x.node, x.data
    return Tensor._make(xd * xd, (x,), lambda g: node._accumulate(g * (2.0 * xd), fresh=True))


def tsum(x, axis=None, keepdims: bool = False):
    # np.add.reduce is np.sum without its Python wrapper; same kernel.
    if not isinstance(x, Tensor):
        return np.add.reduce(x, axis=axis, keepdims=keepdims)
    node, shape = x.node, x.data.shape

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        node._accumulate(np.broadcast_to(g, shape))

    return Tensor._make(np.add.reduce(x.data, axis=axis, keepdims=keepdims), (x,), bw)


def row_dot(h: np.ndarray, x):
    """Per-row dot products of a constant array h with x; the node holds
    h and no (rows, width) product."""
    if not isinstance(x, Tensor):
        return np.add.reduce(h * x, axis=1)
    node = x.node
    return Tensor._make(np.add.reduce(h * x.data, axis=1), (x,),
                        lambda g: node._accumulate(g[:, None] * h, fresh=True))


def maximum(x, floor: float):
    """Elementwise max of `x` and a constant; ties route the gradient to x."""
    if not isinstance(x, Tensor):
        return np.maximum(x, floor)
    node, xd = x.node, x.data
    return Tensor._make(np.maximum(xd, floor), (x,), lambda g: node._accumulate(g * (xd >= floor), fresh=True))


def row_slice(x, start: int, stop: int):
    """Rows start:stop of `x`, as a view on the plain path; the gradient
    is added into those rows only."""
    if not isinstance(x, Tensor):
        return x[start:stop]
    node, shape = x.node, x.data.shape

    def bw(g):
        if node.grad is None:
            node.grad = np.zeros(shape)
        node.grad[start:stop] += g

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
    node, shape = x.node, x.data.shape

    def bw(g):
        gx = np.zeros(shape)
        gx[idx[starts]] = np.add.reduceat(g, starts, axis=0)
        node._accumulate(gx, fresh=True)

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
    gathered = msg_data[slots]
    # -inf starts each row's max, so a table without slots (no
    # messages) reduces to -inf rows, which the empty mask zeroes.
    out_data = np.maximum.reduce(gathered, axis=1, initial=-np.inf)
    if is_tensor:
        # Per row and coordinate, the first slot that holds the maximum
        # wins: the first maximal message in list order. A NaN counts as
        # maximal, as in argmax. Slot j scores n_slots - j where it hits,
        # so the best score marks the first hit; every non-empty row has
        # one.
        hit = gathered == out_data[:, None]
        if np.isnan(out_data).any():
            hit |= np.isnan(gathered)
        score = hit * np.arange(n_slots, 0, -1, dtype=np.min_scalar_type(n_slots))[:, None]
        first = n_slots - np.maximum.reduce(score, axis=1, initial=0)
        rows = slice(None) if empty is None else ~empty
        winners = slots[np.arange(n_rows)[rows, None], first[rows]]
    if empty is not None:
        out_data[empty] = 0.0
    if not is_tensor:
        return out_data

    node, shape = messages.node, msg_data.shape

    def bw(g):
        gm = np.zeros(shape)
        gm[winners, np.arange(shape[1])] = g[rows]
        node._accumulate(gm, fresh=True)

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

    node = values.node
    return Tensor._make(out_data, (values,), lambda g: node._accumulate(g[targets], fresh=True))


def value(x) -> np.ndarray:
    """Underlying ndarray of a Tensor, or the array itself."""
    return x.data if isinstance(x, Tensor) else np.asarray(x)
