"""Message-passing GNN that maps interference graphs to beamformers.

Each vertex carries a state [c_n ; hidden_n]: c_n holds the Re/Im parts
of its own desired channel (constant across rounds), hidden_n is a
learned representation of the same length. Per round, every vertex
max-aggregates MLP-transformed messages from its in-neighbors, feeds
[own state ; aggregate] through a second MLP, and squashes the result
with a sigmoid into the new hidden part. One MLP pair is shared across
all rounds. Both first layers are linear in their concatenated inputs,
so they run split at the input blocks: the fixed and edge terms are
computed once per forward pass (round_terms), and a round projects
only hidden, on vertex rows, before gathering it to the edges.
scatter_max reads each vertex's messages through the in-neighbour
slot table that round_terms builds once per pass. Round 1's hidden
state is all zero, so that round skips its projections. The
readout maps hidden from (0,1) to (-1,1), reads the halves as Re/Im of
a complex vector, and radially projects onto the power ball, so every
output satisfies ||q_n||^2 <= p_max.

User weights and noise powers ride along on the graph for the
objective; they are not part of the MLP-visible state (the MLP input
widths 6*Nt and 64+4*Nt leave no room for them).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import gather_rows, in_slots, maximum, row_slice, scatter_max, sigmoid, sqrt, square, tsum, value
from .binio import FormatError, open_reader
from .nn import DenseLinear, LowRankLinear, Mlp, init_layer, layer_shapes
from .scenario import Graph, merge_complex

MODEL_MAGIC = b"LRGM"
MODEL_VERSION = 2

MSG_DIM = 64
MLP2_HIDDEN = 512

_KINDS = ("dense", "low_rank")


class ModelFormatError(FormatError):
    """Raised when a model file is malformed (magic, version, truncation,
    non-finite floats, flags other than 0 or 1, an architecture header
    MpgnnArch rejects)."""


def mlp_dims(n_tx_antennas: int) -> tuple[list, list]:
    """(MLP1 dims, MLP2 dims) as functions of the antenna count."""
    nt = n_tx_antennas
    return [6 * nt, MSG_DIM, MSG_DIM], [MSG_DIM + 4 * nt, MLP2_HIDDEN, 2 * nt]


def layer_dims(n_tx_antennas: int, ranks: tuple | None = None) -> list:
    """(d_in, d_out, rank) of each layer in flat() order: MLP1's two
    layers, then MLP2's. ranks is None for dense layers (rank None) or
    (rank1, rank2), rank1 for both MLP1 layers and rank2 for MLP2's."""
    (in1, hid1, out1), (in2, hid2, out2) = mlp_dims(n_tx_antennas)
    r1, r2 = ranks or (None, None)
    return [(in1, hid1, r1), (hid1, out1, r1), (in2, hid2, r2), (hid2, out2, r2)]


@dataclass(frozen=True)
class MpgnnArch:
    """Architecture: antenna count, layer kind, factorization ranks.

    MLP1 (messages) has dims [6*Nt, 64, 64]; MLP2 (vertex update)
    [64+4*Nt, 512, 2*Nt]. For low-rank models, rank1 applies to both
    MLP1 layers and rank2 to both MLP2 layers; trainable ranks are
    capped at the layer widths (rank1 <= 64, rank2 <= min(64+4*Nt, 512)).
    """

    n_tx_antennas: int
    kind: str = "dense"
    rank1: int | None = None
    rank2: int | None = None
    n_rounds: int = 3
    p_max: float = 1.0

    def __post_init__(self):
        if self.n_tx_antennas < 1:
            raise ValueError(f"n_tx_antennas must be >= 1, got {self.n_tx_antennas}")
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        # Past a few dozen rounds the sigmoid states only saturate; the
        # cap keeps a corrupt model file from making a forward pass run
        # for hours.
        if not 1 <= self.n_rounds <= 255:
            raise ValueError(f"n_rounds must be in [1, 255], got {self.n_rounds}")
        if not math.isfinite(self.p_max) or self.p_max <= 0.0:
            raise ValueError(f"p_max must be positive and finite, got {self.p_max}")
        if self.kind == "dense":
            if self.rank1 is not None or self.rank2 is not None:
                raise ValueError("dense architectures take no ranks")
        else:
            if self.rank1 is None or self.rank2 is None:
                raise ValueError("low-rank architectures need rank1 and rank2")
            if self.rank1 < 1 or self.rank2 < 1:
                raise ValueError("ranks must be >= 1")
            (_, hid1, _), (in2, hid2, _) = mlp_dims(self.n_tx_antennas)
            for name, rank, cap in (("rank1", self.rank1, hid1), ("rank2", self.rank2, min(in2, hid2))):
                if rank > cap:
                    raise ValueError(f"{name} must be <= {cap} at Nt={self.n_tx_antennas}, got {rank}")

    @property
    def ranks(self) -> tuple | None:
        """None for dense, else (rank1, rank2), as layer_dims takes them."""
        return None if self.kind == "dense" else (self.rank1, self.rank2)


@dataclass
class MpgnnParams:
    """The shared MLP pair. MLP1 ends in ReLU so messages are >= 0 and
    an all-zero vector is a neutral element for max-aggregation over an
    empty neighborhood; MLP2's output is squashed later by the state
    update."""

    mlp1: Mlp
    mlp2: Mlp

    def flat(self) -> list:
        return self.mlp1.params() + self.mlp2.params()


def init_params(arch: MpgnnArch, seed: int) -> MpgnnParams:
    """Fan-based uniform init, deterministic in the seed.

    Draw order: MLP1 layer 1, MLP1 layer 2, MLP2 layer 1, MLP2 layer 2;
    low-rank layers draw U then V. Biases are zeros (no draws).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    dims = layer_dims(arch.n_tx_antennas, arch.ranks)
    return rebuild_params(arch, [a for d in dims for a in init_layer(rng, *d)])


def rebuild_params(arch: MpgnnArch, arrays: list) -> MpgnnParams:
    """Assemble MpgnnParams around existing arrays (ndarrays or autodiff
    tensors), in the flat() order."""
    cls, n = (DenseLinear, 2) if arch.kind == "dense" else (LowRankLinear, 3)
    if len(arrays) != 4 * n:
        raise ValueError(f"{len(arrays)} parameter arrays for {4 * n} slots; none may be missing or unused")
    layers = [cls(*arrays[i : i + n]) for i in range(0, 4 * n, n)]
    return MpgnnParams(Mlp(layers[:2], output_activation="relu"), Mlp(layers[2:], output_activation=None))


class ParamCounts(NamedTuple):
    mlp1: int
    mlp2: int
    total: int


def param_counts(n_tx_antennas: int, ranks: tuple | None = None, include_bias: bool = True) -> ParamCounts:
    """Parameter counts per MLP and total: the sizes of the arrays
    layer_shapes lists for layer_dims (MLPs shared across rounds,
    counted once).

    ranks is None for dense layers, where a d_in -> d_out layer holds
    d_out*d_in weights, or (rank1, rank2), where it holds
    rank*(d_in + d_out) factor entries; include_bias adds d_out per
    layer. Ranks are not capped as MpgnnArch caps them, so overcomplete
    factorizations are countable: a legitimate object to measure,
    merely a useless one to train.
    """
    counts = [0, 0]
    for k, dims in enumerate(layer_dims(n_tx_antennas, ranks)):
        shapes = layer_shapes(*dims)
        if not include_bias:
            del shapes["bias"]
        counts[k // 2] += sum(map(math.prod, shapes.values()))
    return ParamCounts(counts[0], counts[1], counts[0] + counts[1])


def count_model_params(arch: MpgnnArch, include_bias: bool = True) -> ParamCounts:
    """param_counts of an architecture."""
    return param_counts(arch.n_tx_antennas, arch.ranks, include_bias)


class RoundTerms(NamedTuple):
    """What one forward pass's rounds share: the first layers' fixed and
    edge terms, their first factors' other row blocks, the MLP tails and
    the in-neighbour slot table of the edge targets, which scatter_max
    reads. On a graph without edges, the edge terms have no rows."""

    groups: tuple
    msg_const: object  # per edge: the fixed_j and e_jn terms of MLP1's first layer
    msg_hidden: object
    upd_const: object  # per vertex: the fixed_n term of MLP2's first layer
    upd_hidden: object
    upd_agg: object
    tail1: Mlp  # MLP1 after its first layer and ReLU
    tail2: Mlp


def round_terms(fixed, graph: Graph, params: MpgnnParams) -> RoundTerms:
    """RoundTerms of a forward pass over `graph` with fixed states `fixed`."""
    w = fixed.shape[1]
    f1, f2 = params.mlp1.layers[0].first, params.mlp2.layers[0].first
    groups = in_slots(graph.edges[:, 1], graph.n_vertices)
    fixed_j = gather_rows(fixed @ row_slice(f1, 0, w), graph.edges[:, 0])
    msg_const = fixed_j + graph.edge_features @ row_slice(f1, 2 * w, 3 * w)
    tail1 = Mlp(params.mlp1.layers[1:], params.mlp1.output_activation)
    tail2 = Mlp(params.mlp2.layers[1:], params.mlp2.output_activation)
    upd = [row_slice(f2, lo, hi) for lo, hi in ((0, w), (w, 2 * w), (2 * w, f2.shape[0]))]
    return RoundTerms(groups, msg_const, row_slice(f1, w, 2 * w), fixed @ upd[0], upd[1], upd[2], tail1, tail2)


def layer_step(hidden, graph: Graph, params: MpgnnParams, terms: RoundTerms):
    """One message-passing round; returns the new hidden states.

    For each vertex n: messages MLP1([x_j ; e_jn]) over in-neighbors j,
    elementwise-max aggregated (zero vector if there are none), then
    hidden_n := sigmoid(MLP2([x_n ; aggregate])), x being [fixed ;
    hidden]. terms (round_terms of the pass) holds the fixed and edge
    terms, so a round projects only hidden, on vertex rows, and gathers
    that projection (64 or rank1 wide) to the edges. hidden None stands
    for round 1's all-zero state, whose projections add nothing."""
    z, msg_first = terms.upd_const, terms.msg_const
    if hidden is not None:
        z = z + hidden @ terms.upd_hidden
        msg_first = msg_first + gather_rows(hidden @ terms.msg_hidden, graph.edges[:, 0])
    msgs = terms.tail1(params.mlp1.layers[0].finish(msg_first, relu=True))
    z = z + scatter_max(msgs, terms.groups) @ terms.upd_agg
    return sigmoid(terms.tail2(params.mlp2.layers[0].finish(z, relu=True)))


def forward_real(graph: Graph, params: MpgnnParams, arch: MpgnnArch):
    """Run all rounds and the power projection; beamformers as stacked
    [Re | Im] rows. Returns an autodiff tensor when params hold tensors,
    a plain ndarray otherwise (identical values either way). Caches
    nothing: callers update parameters in place between calls."""
    nt = arch.n_tx_antennas
    if graph.n_tx_antennas != nt:
        raise ValueError(f"graph carries Nt={graph.n_tx_antennas}, model expects {nt}")
    fixed = graph.vertex_features[:, : 2 * nt]
    hidden = None
    terms = round_terms(fixed, graph, params)
    for _ in range(arch.n_rounds):
        hidden = layer_step(hidden, graph, params, terms)
    v = 2.0 * hidden - 1.0
    root_p = float(np.sqrt(arch.p_max))
    norm = sqrt(tsum(square(v), axis=1, keepdims=True))
    # Radial projection: scale by min(1, sqrt(p_max)/||v||), written
    # division-safe so an all-zero row stays zero with finite gradients.
    return v * (root_p / maximum(norm, root_p))


def forward(graph: Graph, params: MpgnnParams, arch: MpgnnArch) -> np.ndarray:
    """Beamforming matrix, complex (N, Nt); rows obey ||q_n||^2 <= p_max."""
    return merge_complex(value(forward_real(graph, params, arch)))


# ---------------------------------------------------------------------------
# Model files: little-endian, magic "LRGM". Header: version u32, flags u32
# (0 dense, 1 low-rank), Nt u32, rank1 u32, rank2 u32 (0 when dense), p_max
# f64, n_rounds u32. Then the four layers in flat() order, each as d_in u32,
# d_out u32, r u32 (0 when dense) followed by f32 arrays: dense W row-major
# then b; low-rank U, V, b.
# ---------------------------------------------------------------------------


def _stored(a) -> np.ndarray:
    """A weight array as a model file stores it: f32, where a value past
    f32's range becomes inf, for save_model to refuse."""
    with np.errstate(over="ignore"):
        return value(a).astype("<f4")


def save_model(path, arch: MpgnnArch, params: MpgnnParams) -> None:
    """Write a model file. Raises ValueError, before the file is opened,
    on a weight that is not finite as f32, which load_model refuses."""
    ranks = arch.ranks or (0, 0)
    layers = params.mlp1.layers + params.mlp2.layers
    for k, layer in enumerate(layers):
        for name, a in zip(layer_shapes(layer.d_in, layer.d_out, layer.rank), layer.params()):
            if not np.isfinite(_stored(a)).all():
                raise ValueError(f"non-finite value in layer {k} {name} as f32")
    with open(path, "wb") as f:
        f.write(MODEL_MAGIC)
        f.write(struct.pack("<IIIII", MODEL_VERSION, arch.ranks is not None, arch.n_tx_antennas, *ranks))
        f.write(struct.pack("<dI", arch.p_max, arch.n_rounds))
        for layer in layers:
            f.write(struct.pack("<III", layer.d_in, layer.d_out, layer.rank or 0))
            for a in layer.params():
                f.write(_stored(a).tobytes())


def load_model(path) -> tuple[MpgnnArch, MpgnnParams]:
    r = open_reader(path, MODEL_MAGIC, MODEL_VERSION, ModelFormatError)
    flags = r.u32("flags")
    nt = r.u32("antenna count")
    a1 = r.u32("rank1")
    a2 = r.u32("rank2")
    p_max = struct.unpack("<d", r.take(8, "p_max"))[0]
    n_rounds = r.u32("round count")
    if flags not in (0, 1):
        raise ModelFormatError(f"{path}: flags {flags:#x}, expected 0 (dense) or 1 (low-rank)")
    try:
        # A dense header's zero ranks read as None; MpgnnArch rejects
        # any other rank a dense header holds, and a low-rank zero rank.
        arch = MpgnnArch(n_tx_antennas=nt, kind=_KINDS[flags], rank1=a1 or None, rank2=a2 or None,
                         n_rounds=n_rounds, p_max=p_max)
    except ValueError as e:
        raise ModelFormatError(f"{path}: invalid architecture header: {e}") from e

    arrays = []
    for k, (d_in, d_out, rank) in enumerate(layer_dims(nt, arch.ranks)):
        got = struct.unpack("<III", r.take(12, f"layer {k} header"))
        if got != (d_in, d_out, rank or 0):
            raise ModelFormatError(f"{path}: layer {k} header {got}, expected {(d_in, d_out, rank or 0)}")
        for name, shape in layer_shapes(d_in, d_out, rank).items():
            arrays.append(r.f32(math.prod(shape), f"layer {k} {name}").reshape(shape))
    r.done()
    return arch, rebuild_params(arch, arrays)
