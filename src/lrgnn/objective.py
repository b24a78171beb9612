"""SINR, rates, the unsupervised training objective, and baselines.

Interference is summed over the directed edges of the interference
graph; pairs outside the distance threshold contribute nothing. Pass
full_interference=True to sum over every off-diagonal pair instead.

Two routes compute the same quantities on purpose. The complex-valued
functions (rate_report, sinr, weighted_sum_rate) serve inference and
analysis. The stacked-real wsr_from_real accepts autodiff tensors and
carries gradients end-to-end; the training loss is its negative. It
also takes the graph-level arrays (WsrTerms) of a disjoint union of
samples, so one call covers a training union. The complex route stays
because it is the faster one on plain arrays: per sample, the
stacked-real route took 1.4-2.1x its time, from N=3, Nt=8 up to Nt=512.
rate is log2(1+SINR) evaluated as log1p/ln(2) in both; the routes agree
to floating-point rounding and are cross-checked in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .autodiff import gather_rows, log1p, maximum, scatter_sum, square, tsum
from .scenario import Scenario, split_complex

LN2 = float(np.log(2.0))

# Keeps synthetic zero-noise instances from dividing by zero; any valid
# configuration has noise powers far above this.
DENOM_FLOOR = 1e-30


class RateReport(NamedTuple):
    sinr: np.ndarray  # (N,) linear
    rate: np.ndarray  # (N,) bits
    weighted_sum_rate: float
    interference: np.ndarray  # (N,) linear power


def _resolve_pairs(s: Scenario, edges, full_interference: bool) -> np.ndarray:
    if full_interference:
        n = s.n_pairs
        src, dst = np.nonzero(~np.eye(n, dtype=bool))
        return np.stack([src, dst], axis=1)
    if edges is None:
        raise ValueError("edges are required unless full_interference=True")
    return np.asarray(edges, dtype=np.intp).reshape(-1, 2)


def _check(s: Scenario, q: np.ndarray) -> None:
    if q.shape != (s.n_pairs, s.n_tx_antennas):
        raise ValueError(f"beamformer shape {q.shape}, expected {(s.n_pairs, s.n_tx_antennas)}")
    if np.any(s.noise_powers <= 0.0):
        raise ValueError("noise powers must be positive")


def rate_report(s: Scenario, q: np.ndarray, edges=None, *, full_interference: bool = False) -> RateReport:
    """Per-user SINR, rate, interference, and the weighted sum rate.

    SINR_n = |h_nn^H q_n|^2 / (sum over edges (i, n) of |h_in^H q_i|^2
    + sigma2_n).
    """
    q = np.asarray(q)
    _check(s, q)
    n = s.n_pairs
    diag = s.channels[np.arange(n), np.arange(n), :]
    sig = np.abs(np.sum(np.conj(diag) * q, axis=1)) ** 2
    interf = np.zeros(n)
    pairs = _resolve_pairs(s, edges, full_interference)
    if pairs.shape[0]:
        h_e = s.channels[pairs[:, 0], pairs[:, 1], :]
        p_e = np.abs(np.sum(np.conj(h_e) * q[pairs[:, 0]], axis=1)) ** 2
        np.add.at(interf, pairs[:, 1], p_e)
    snr = sig / np.maximum(interf + s.noise_powers, DENOM_FLOOR)
    rate = np.log1p(snr) / LN2
    return RateReport(snr, rate, float(np.sum(s.weights * rate)), interf)


def sinr(s: Scenario, q: np.ndarray, edges=None, *, full_interference: bool = False) -> np.ndarray:
    return rate_report(s, q, edges, full_interference=full_interference).sinr


def weighted_sum_rate(s: Scenario, q: np.ndarray, edges=None, *, full_interference: bool = False) -> float:
    return rate_report(s, q, edges, full_interference=full_interference).weighted_sum_rate


def _rot_half(x: np.ndarray) -> np.ndarray:
    # [Re | Im] -> [-Im | Re]; dotting the result with a stacked-real
    # vector yields the imaginary part of the complex inner product.
    nt = x.shape[-1] // 2
    return np.concatenate([-x[..., nt:], x[..., :nt]], axis=-1)


def _power(h: np.ndarray, q_real):
    # |h^H q|^2 per row, from the real and imaginary parts of the inner product.
    return square(tsum(h * q_real, axis=1)) + square(tsum(_rot_half(h) * q_real, axis=1))


class WsrTerms(NamedTuple):
    """Constant inputs of the stacked-real WSR over V vertices: one
    sample's, or a disjoint union's with each sample's pair index offset
    by the vertex count of the samples before it."""

    desired: np.ndarray  # (V, 2*Nt) desired channels, [Re | Im] rows
    pair_channels: np.ndarray  # (P, 2*Nt) channel of each interfering pair
    pairs: np.ndarray  # (P, 2) (source, target) vertex indices
    weights: np.ndarray  # (V,)
    noise: np.ndarray  # (V,) noise powers


def wsr_terms(s: Scenario, edges=None, *, full_interference: bool = False) -> WsrTerms:
    """The WsrTerms of one scenario, interfering over `edges` or, with
    full_interference=True, over every off-diagonal pair."""
    n = s.n_pairs
    if np.any(s.noise_powers <= 0.0):
        raise ValueError("noise powers must be positive")
    pairs = _resolve_pairs(s, edges, full_interference)
    desired = split_complex(s.channels[np.arange(n), np.arange(n), :])
    pair_channels = split_complex(s.channels[pairs[:, 0], pairs[:, 1], :])
    return WsrTerms(desired, pair_channels, pairs, s.weights, s.noise_powers)


def wsr_from_real(s, q_real, edges=None, *, full_interference: bool = False):
    """Weighted sum rate with beamformers as stacked [Re | Im] rows.

    s is a Scenario, interfering over `edges` (or every off-diagonal
    pair with full_interference=True), or precomputed WsrTerms; the
    WsrTerms of a disjoint union give the sum of its samples' rates.
    Pair (i, n) adds |h_in^H q_i|^2 to the interference at vertex n.
    q_real may be an autodiff tensor (gradients flow through SINR and
    the rate) or a plain (V, 2*Nt) array; channel data enter as
    constants.
    """
    if isinstance(s, WsrTerms):
        if edges is not None or full_interference:
            raise ValueError("WsrTerms already fix the interfering pairs")
        t = s
    else:
        t = wsr_terms(s, edges, full_interference=full_interference)
    n = t.desired.shape[0]
    sig = _power(t.desired, q_real)
    if t.pairs.shape[0]:
        p_e = _power(t.pair_channels, gather_rows(q_real, t.pairs[:, 0]))
        interf = scatter_sum(p_e, t.pairs[:, 1], n)
    else:
        interf = np.zeros(n)
    snr = sig / maximum(interf + t.noise, DENOM_FLOOR)
    return tsum(t.weights * (log1p(snr) / LN2))


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
