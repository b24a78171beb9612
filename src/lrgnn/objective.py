"""SINR, rates, the unsupervised training objective, and baselines.

One stacked-real formula computes every SINR and rate. It reads its
constants from a Graph, one sample's or a disjoint union's: desired
channels, weights and noise powers from the vertex features, and
interfering channels from the edge features. Edge (i, n) adds
|h_in^H q_i|^2 to the interference at vertex n; the edges
interference_edges(s, np.inf) make every off-diagonal pair interfere.
wsr_from_real also takes autodiff tensors (the training loss is its
negative); rate_report gives per-vertex values, and sinr and
weighted_sum_rate wrap it for complex beamformers on one scenario.
rate is log2(1+SINR) evaluated as log1p/ln(2).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .autodiff import gather_rows, log1p, row_dot, scatter_sum, square, tsum
from .scenario import Graph, Scenario, graph_from_edges, split_complex

LN2 = float(np.log(2.0))


class RateReport(NamedTuple):
    """Per-vertex values of a graph, one sample's or a union's."""

    sinr: np.ndarray  # (V,) linear
    rate: np.ndarray  # (V,) bits
    weighted_rate: np.ndarray  # (V,) w_n * rate_n
    interference: np.ndarray  # (V,) linear power

    @property
    def weighted_sum_rate(self) -> float:
        return float(np.add.reduce(self.weighted_rate))


def _rot_half(x: np.ndarray) -> np.ndarray:
    # [Re | Im] -> [-Im | Re]; dotting the result with a stacked-real
    # vector yields the imaginary part of the complex inner product.
    nt = x.shape[-1] // 2
    return np.concatenate([-x[..., nt:], x[..., :nt]], axis=-1)


def _power(h: np.ndarray, q_real):
    # |h^H q|^2 per row, from the real and imaginary parts of the inner product.
    return square(row_dot(h, q_real)) + square(row_dot(_rot_half(h), q_real))


def _sinr(graph: Graph, q_real):
    """(SINR, interference) per vertex:
    SINR_n = |h_nn^H q_n|^2 / (sum over edges (i, n) of |h_in^H q_i|^2 + sigma2_n)."""
    z = graph.vertex_features
    sig = _power(z[:, :-2], q_real)
    p_e = _power(graph.edge_features, gather_rows(q_real, graph.edges[:, 0]))
    interf = scatter_sum(p_e, graph.edges[:, 1], graph.n_vertices)
    return sig / (interf + z[:, -1]), interf


def wsr_from_real(graph: Graph, q_real):
    """Weighted sum rate over the graph's vertices, beamformers as
    stacked [Re | Im] rows; a disjoint union gives the sum of its
    samples' rates. q_real may be an autodiff tensor (gradients flow
    through SINR and the rate) or a plain (V, 2*Nt) array."""
    snr, _ = _sinr(graph, q_real)
    return tsum(graph.vertex_features[:, -2] * (log1p(snr) / LN2))


def rate_report(graph: Graph, q_real: np.ndarray) -> RateReport:
    """Per-vertex SINR, rate, weighted rate and interference, from plain
    (V, 2*Nt) stacked-real beamformers."""
    q_real = np.asarray(q_real)
    want = (graph.n_vertices, 2 * graph.n_tx_antennas)
    if q_real.shape != want:
        raise ValueError(f"beamformer shape {q_real.shape}, expected {want}")
    snr, interf = _sinr(graph, q_real)
    rate = np.log1p(snr) / LN2
    return RateReport(snr, rate, graph.vertex_features[:, -2] * rate, interf)


def sinr(s: Scenario, q: np.ndarray, edges) -> np.ndarray:
    """Per-user SINR of complex (N, Nt) beamformers on one scenario,
    interfered along `edges`."""
    return rate_report(graph_from_edges(s, edges), split_complex(q)).sinr


def weighted_sum_rate(s: Scenario, q: np.ndarray, edges) -> float:
    """Weighted sum rate of complex (N, Nt) beamformers on one scenario,
    interfered along `edges`."""
    return rate_report(graph_from_edges(s, edges), split_complex(q)).weighted_sum_rate


def baseline_beamformers(s: Scenario, kind: str, seed: int = 0) -> np.ndarray:
    """Reference beamformers: matched filtering toward the own receiver
    ("mrt"), uniform on the power sphere ("random"), or all zeros."""
    n, nt = s.n_pairs, s.n_tx_antennas
    root_p = np.sqrt(s.p_max)
    if kind == "zero":
        return np.zeros((n, nt), dtype=np.complex128)
    if kind == "mrt":
        diag = s.channels[np.arange(n), np.arange(n), :]
        norms = np.linalg.norm(diag, axis=1, keepdims=True)
        return root_p * diag / np.where(norms > 0.0, norms, 1.0)
    if kind == "random":
        rg = np.random.Generator(np.random.PCG64(seed))
        g = rg.standard_normal((n, nt)) + 1j * rg.standard_normal((n, nt))
        return root_p * g / np.linalg.norm(g, axis=1, keepdims=True)
    raise ValueError(f"unknown baseline kind {kind!r}")
