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
from .scenario import Graph, _snap_f32

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

    def __post_init__(self):
        if not math.isfinite(self.lr) or self.lr < 0.0:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainReport:
    """Per-epoch training curves plus provenance for reproducibility.

    train_loss and test_sum_rate have one entry per epoch. Epoch 0 is
    the untrained model; its test sum rate is kept separately and
    participates in checkpoint selection. best_test_sum_rate is the test
    sum rate of the returned checkpoint (epoch best_epoch, rounded
    through f32 as saved). Without a test set every test value is nan.
    """

    train_loss: list = field(default_factory=list)
    test_sum_rate: list = field(default_factory=list)
    initial_test_sum_rate: float = float("nan")
    best_epoch: int = 0
    best_test_sum_rate: float = float("nan")
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
    graphs before it, so edge sources stay non-decreasing across the
    union, as taped gathers by source need.
    """
    offsets = np.cumsum([0] + [g.n_vertices for g in graphs])
    union = Graph(
        np.concatenate([g.vertex_features for g in graphs]),
        np.concatenate([g.edges + offset for g, offset in zip(graphs, offsets)]),
        np.concatenate([g.edge_features for g in graphs]),
    )
    return union, offsets


def _unions(samples):
    """(graph, offsets) per union of up to _UNION_SIZE samples."""
    for lo in range(0, len(samples), _UNION_SIZE):
        yield _union([g for _, g in samples[lo : lo + _UNION_SIZE]])


def _batch_grad(arch: MpgnnArch, arrays: list, batch):
    """Summed loss (negative WSR) of a batch and its summed parameter
    gradients: one tape per union of up to _UNION_SIZE samples, union
    gradients added in union order."""
    loss = 0.0
    totals = [np.zeros_like(a) for a in arrays]
    for graph, _ in _unions(batch):
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        q = forward_real(graph, rebuild_params(arch, tensors), arch)
        neg = -wsr_from_real(graph, q)
        neg.backward()
        loss += float(neg.data)
        for total, t in zip(totals, tensors):
            if t.grad is not None:
                total += t.grad
    return loss, totals


def sample_rates(arch: MpgnnArch, params: MpgnnParams, samples) -> np.ndarray:
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
    for graph, offsets in _unions(samples):
        weighted = rate_report(graph, value(forward_real(graph, params, arch))).weighted_rate
        rates += [np.add.reduce(weighted[lo:hi]) for lo, hi in zip(offsets, offsets[1:])]
    return np.array(rates)


def evaluate(arch: MpgnnArch, params: MpgnnParams, samples) -> float:
    """Mean weighted sum rate over a dataset; never mutates params."""
    return float(np.mean(sample_rates(arch, params, samples)))


def _checkpoint(arch: MpgnnArch, arrays: list, test_set, epoch: int):
    """An epoch's checkpoint candidate, rounded through f32 as its saved
    file holds it, and its test sum rate (nan without a test set). An
    overflow or NaN raises, as in the batches."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            candidate = [_snap_f32(a) for a in arrays]
            rate = evaluate(arch, rebuild_params(arch, candidate), test_set) if test_set else float("nan")
    except FloatingPointError as err:
        raise FloatingPointError(f"epoch {epoch}, checkpoint: {err}") from None
    return candidate, rate


def train(train_set, cfg: TrainConfig, test_set=None):
    """Train from a fresh seeded init; returns (params, TrainReport).

    Every epoch is scored on the test set when one is given. The
    returned parameters are the best checkpoint: highest test sum rate
    (including epoch 0, so the result is never worse than the untrained
    model), or lowest epoch train loss when no test set is given. Values are rounded through f32
    so an in-memory result and its saved file evaluate identically.
    """
    if not train_set:
        raise ValueError("empty training set")
    nt = train_set[0].scenario.n_tx_antennas
    if nt != cfg.arch.n_tx_antennas:
        raise ValueError(f"dataset carries Nt={nt}, arch expects {cfg.arch.n_tx_antennas}")

    t0 = time.perf_counter()
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    arrays = init_params(cfg.arch, cfg.seed).flat()  # Adam updates these in place
    adam = Adam(lr=cfg.lr)
    report = TrainReport()

    # Epoch 0 (untrained) is a checkpoint candidate when there is a test set.
    best_arrays, report.initial_test_sum_rate = _checkpoint(cfg.arch, arrays, test_set, 0)
    best_epoch = 0
    best_score = report.initial_test_sum_rate if test_set else float("-inf")

    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(len(train_set))
        epoch_losses = []
        for bi in range(0, len(order), cfg.batch_size):
            batch = [train_set[i] for i in order[bi : bi + cfg.batch_size]]
            # An op that overflows or makes a NaN raises; NaN inputs meet the loss check.
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    batch_loss, totals = _batch_grad(cfg.arch, arrays, batch)
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

        candidate, rate = _checkpoint(cfg.arch, arrays, test_set, epoch)
        report.test_sum_rate.append(rate)
        score = rate if test_set else -report.train_loss[-1]
        if score > best_score:
            best_score, best_epoch, best_arrays = score, epoch, candidate

    final = rebuild_params(cfg.arch, best_arrays)
    report.best_epoch = best_epoch
    report.best_test_sum_rate = best_score if test_set else float("nan")
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
