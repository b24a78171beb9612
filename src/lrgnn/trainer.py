"""Training and evaluation loops for the beamforming GNN.

Both loops run on disjoint-union graphs of up to 16 samples: sample
k's vertex indices are offset by the vertex count of the samples
before it (as in PyTorch Geometric's mini-batching), so one forward
pass covers the whole union.

Training minimizes the negative mean weighted sum rate with Adam over
seeded shuffled mini-batches. Each mini-batch is split into unions;
one autodiff tape covers a union and its loss is the sum of the
samples' losses. Union gradients are added into running totals in
union order and divided by the batch size, so a given seed always
gives bit-identical results.

Evaluation scores a dataset in unions too: one plain forward pass (no
tape) and one rate_report per union; a sample's rate sums its
vertices' weighted rates. Both loops read the rates from a union Graph.
"""

from __future__ import annotations

import csv
import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, value
from .mpgnn import MpgnnArch, MpgnnParams, forward_real, init_params, rebuild_params
from .nn import Adam
from .objective import rate_report, wsr_from_real
from .scenario import Graph, _snap_f32, graph_from_edges, interference_edges

_SELECT_MODES = ("test", "train")

# Samples per disjoint-union graph. Larger unions were no faster per
# sample and a tape's memory grows with its union.
_UNION_SIZE = 16


@dataclass(frozen=True)
class TrainConfig:
    arch: MpgnnArch
    lr: float = 0.001
    batch_size: int = 64
    epochs: int = 50
    seed: int = 0
    eval_every: int = 1
    select_on: str = "test"
    full_interference: bool = False

    def __post_init__(self):
        if not math.isfinite(self.lr) or self.lr < 0.0:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.select_on not in _SELECT_MODES:
            raise ValueError(f"select_on must be one of {_SELECT_MODES}")


@dataclass
class TrainReport:
    """Per-epoch training curves plus provenance for reproducibility.

    train_loss and test_sum_rate have one entry per epoch; between
    evaluation epochs the last computed test value is carried forward so
    the lengths always match. Epoch 0 is the untrained model; its test
    sum rate is kept separately and participates in checkpoint
    selection.
    """

    train_loss: list = field(default_factory=list)
    test_sum_rate: list = field(default_factory=list)
    initial_test_sum_rate: float = float("nan")
    best_epoch: int = 0
    wall_time_s: float = 0.0
    params_checksum: str = ""


def params_checksum(params: MpgnnParams) -> str:
    """SHA-256 over the parameter arrays as little-endian f32 bytes, in
    flat order. Matches what a saved model file stores."""
    h = hashlib.sha256()
    for a in params.flat():
        h.update(value(a).astype("<f4").tobytes())
    return h.hexdigest()


def _union(graphs) -> tuple[Graph, np.ndarray]:
    """One disjoint-union Graph, and the vertex offset of each graph in
    it followed by the total vertex count.

    The edges of each graph are offset by the vertex count of the
    graphs before it.
    """
    offsets = np.cumsum([0] + [g.n_vertices for g in graphs])
    union = Graph(
        np.concatenate([g.vertex_features for g in graphs]),
        np.concatenate([g.edges + offset for g, offset in zip(graphs, offsets)]),
        np.concatenate([g.edge_features for g in graphs]),
    )
    return union, offsets


def _unions(samples, full_interference: bool):
    """(graph, rated, offsets) per union of up to _UNION_SIZE samples:
    the union the model runs on, the one the rates read (the same unless
    full_interference), and the vertex offsets."""
    for lo in range(0, len(samples), _UNION_SIZE):
        chunk = samples[lo : lo + _UNION_SIZE]
        graph, offsets = _union([g for _, g in chunk])
        if full_interference:
            rated, _ = _union([graph_from_edges(s, interference_edges(s, np.inf)) for s, _ in chunk])
        else:
            rated = graph
        yield graph, rated, offsets


def _batch_grad(arch: MpgnnArch, arrays: list, batch, full_interference: bool):
    """Summed loss (negative WSR) of a batch and its summed parameter
    gradients: one tape per union of up to _UNION_SIZE samples, union
    gradients added in union order."""
    loss = 0.0
    totals = [np.zeros_like(a) for a in arrays]
    for graph, rated, _ in _unions(batch, full_interference):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        q = forward_real(graph, rebuild_params(arch, tensors), arch)
        neg = -wsr_from_real(rated, q)
        neg.backward()
        loss += float(neg.data)
        for total, t in zip(totals, tensors):
            if t.grad is not None:
                total += t.grad
    return loss, totals


def sample_rates(
    arch: MpgnnArch, params: MpgnnParams, samples, *, full_interference: bool = False
) -> np.ndarray:
    """Weighted sum rate of each sample, in dataset order; never mutates
    params.

    One plain forward pass (no tape) and one rate_report cover each
    union of up to _UNION_SIZE samples; each sample's rate is the sum of
    its vertices' weighted rates. A union of one sample gives the same
    bits as weighted_sum_rate of forward on that sample; larger unions
    agree with it to floating-point rounding.
    """
    if not samples:
        raise ValueError("empty dataset")
    rates = []
    for graph, rated, offsets in _unions(samples, full_interference):
        weighted = rate_report(rated, value(forward_real(graph, params, arch))).weighted_rate
        rates += [np.add.reduce(weighted[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]
    return np.array(rates)


def evaluate(arch: MpgnnArch, params: MpgnnParams, samples, *, full_interference: bool = False) -> float:
    """Mean weighted sum rate over a dataset; never mutates params."""
    return float(np.mean(sample_rates(arch, params, samples, full_interference=full_interference)))


def train(train_set, cfg: TrainConfig, test_set=None):
    """Train from a fresh seeded init; returns (params, TrainReport).

    The returned parameters are the best checkpoint: highest test sum
    rate seen at evaluation epochs (including epoch 0, so the result is
    never worse than the untrained model), or lowest epoch train loss
    when select_on="train" or no test set is given. Values are rounded
    through f32 so an in-memory result and its saved file evaluate
    identically.
    """
    if not train_set:
        raise ValueError("empty training set")
    nt = train_set[0].scenario.n_tx_antennas
    if nt != cfg.arch.n_tx_antennas:
        raise ValueError(f"dataset carries Nt={nt}, arch expects {cfg.arch.n_tx_antennas}")

    t0 = time.perf_counter()
    select_on = cfg.select_on if test_set else "train"
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    params = init_params(cfg.arch, cfg.seed)
    arrays = params.flat()  # Adam updates these in place, so params stays current
    adam = Adam(lr=cfg.lr)
    report = TrainReport()

    # Epoch 0 (untrained) is a checkpoint candidate.
    best_arrays = [a.copy() for a in arrays]
    best_epoch = 0
    if test_set:
        report.initial_test_sum_rate = evaluate(cfg.arch, params, test_set,
                                                full_interference=cfg.full_interference)
    best_score = report.initial_test_sum_rate if select_on == "test" else float("-inf")
    last_test = report.initial_test_sum_rate

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_set))
        epoch_losses = []
        for bi in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[bi : bi + cfg.batch_size]]
            # An op that overflows or makes a NaN raises; NaN inputs meet the loss check.
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    batch_loss, totals = _batch_grad(cfg.arch, arrays, batch, cfg.full_interference)
                    batch_loss /= len(batch)
                    if not np.isfinite(batch_loss):
                        raise FloatingPointError("non-finite loss")
                    adam.step(arrays, [t / len(batch) for t in totals])
            except FloatingPointError as err:
                raise FloatingPointError(
                    f"epoch {epoch}, batch {bi // cfg.batch_size}: {err}"
                ) from None
            epoch_losses.append(batch_loss)
        report.train_loss.append(float(np.mean(epoch_losses)))

        if select_on == "train":
            score = -report.train_loss[-1]
        if test_set and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
            last_test = evaluate(cfg.arch, params, test_set, full_interference=cfg.full_interference)
            if select_on == "test":
                score = last_test
        elif select_on == "test":
            score = float("-inf")  # not evaluated this epoch, cannot win
        report.test_sum_rate.append(last_test)

        if score > best_score:
            best_score = score
            best_epoch = epoch
            best_arrays = [a.copy() for a in arrays]

    final = rebuild_params(cfg.arch, [_snap_f32(a) for a in best_arrays])
    report.best_epoch = best_epoch
    report.wall_time_s = time.perf_counter() - t0
    report.params_checksum = params_checksum(final)
    return final, report


def write_train_report(report: TrainReport, path) -> None:
    """CSV with one row per epoch: epoch, loss, test_sum_rate."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "loss", "test_sum_rate"])
        for i, (l, r) in enumerate(zip(report.train_loss, report.test_sum_rate), start=1):
            w.writerow([i, repr(l), repr(r)])
