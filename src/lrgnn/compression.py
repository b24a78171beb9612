"""Model-size analytics.

Closed-form parameter-reduction fractions, dense/low-rank size-ratio
grids, weight histograms, singular-value spectra (a factorized layer's
from its factors), and post-hoc SVD factorization of dense layers.

Counting convention: size ratios and reduction fractions use bias-free
counts (weight matrices and factors only); that is the convention the
closed form encodes. Every layer carries a bias; the counts come from
the layer shapes through mpgnn.param_counts, whose include_bias also
gives bias-inclusive counts.

Kurtosis convention: Fisher's excess kurtosis (0 for a normal
distribution) from the biased moments m2 = mean(d^2), m4 = mean(d^4)
of the deviations d from the mean, as m4 / m2^2 - 3; nan at zero
variance, i.e. when m2 <= (eps * mean)^2 with eps the float64 epsilon.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .mpgnn import MpgnnParams, param_counts
from .nn import layer_shapes

# The rank grid used by the size-ratio analyses.
TABLE_A1 = (4, 16, 32, 64)
TABLE_A2 = (4, 16, 32, 64, 128, 256, 512)


def reduction_fraction(nt: int, a1: int, a2: int) -> float:
    """Closed-form parameter reduction fraction.

    Equals 1 - (bias-free low-rank count)/(bias-free dense count) for
    the model's layer dims; rank 0 is the hypothetical zero-rank model
    (p = 1), negative values mean the factorization costs more than the
    dense layers.
    """
    if nt <= 0:
        raise ValueError(f"antenna count must be positive, got {nt}")
    if a1 < 0 or a2 < 0:
        raise ValueError("ranks must be >= 0")
    num = -3.0 * nt * a1 - 3.0 * nt * a2 + 1728.0 * nt - 96.0 * a1 - 544.0 * a2 + 18432.0
    return num / (576.0 * (3.0 * nt + 32.0))


@dataclass(frozen=True)
class ReductionGrid:
    """Size ratios (dense/low-rank) and reduction fractions over a rank
    grid; rows index a1, columns a2. Bias-free counting throughout."""

    nt: int
    a1_values: tuple
    a2_values: tuple
    p_values: np.ndarray
    size_ratios: np.ndarray


def size_ratio_table(nt: int, a1_values=TABLE_A1, a2_values=TABLE_A2) -> ReductionGrid:
    """Dense/low-rank parameter ratios over the rank grid.

    Ratios come from counting the layer shapes, reduction fractions
    from the closed form reduction_fraction; the two agree through
    p = 1 - 1/ratio, which the acceptance tests check over this grid.
    """
    dense = param_counts(nt, None, include_bias=False).total
    p = np.zeros((len(a1_values), len(a2_values)))
    ratio = np.zeros_like(p)
    for i, a1 in enumerate(a1_values):
        for j, a2 in enumerate(a2_values):
            lr = param_counts(nt, (a1, a2), include_bias=False).total
            ratio[i, j] = dense / lr
            p[i, j] = reduction_fraction(nt, a1, a2)
    return ReductionGrid(nt, tuple(a1_values), tuple(a2_values), p, ratio)


# ---------------------------------------------------------------------------
# Weight statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixStats:
    name: str
    counts: np.ndarray
    mean: float
    std: float
    min: float
    max: float
    kurtosis: float  # excess kurtosis: 0 for a normal distribution
    n: int


@dataclass(frozen=True)
class HistogramReport:
    bin_edges: np.ndarray  # shared by all rows
    matrices: list
    pooled: MatrixStats


def weight_matrices(params: MpgnnParams) -> list[tuple[str, np.ndarray]]:
    """Named weight matrices (biases excluded): W for dense layers,
    U and V for factorized ones."""
    return [(f"{mlp_name}.{i}.{name}", np.asarray(a))
            for mlp_name, mlp in (("mlp1", params.mlp1), ("mlp2", params.mlp2))
            for i, layer in enumerate(mlp.layers)
            for name, a in zip(layer_shapes(layer.d_in, layer.d_out, layer.rank), layer.params())
            if name != "bias"]


def _kurtosis(flat: np.ndarray) -> float:
    """Excess kurtosis under the module docstring's convention."""
    # Extreme weight magnitudes can under- or overflow the powers; the
    # result then follows IEEE arithmetic without a warning.
    with np.errstate(all="ignore"):
        mean = np.mean(flat)
        d2 = (flat - mean) ** 2
        m2 = np.mean(d2)
        if m2 <= (np.finfo(np.float64).eps * mean) ** 2:
            return float("nan")
        return float(np.mean(d2**2) / m2**2.0 - 3)


def _stats(name: str, flat: np.ndarray, edges: np.ndarray) -> MatrixStats:
    counts, _ = np.histogram(flat, bins=edges)
    return MatrixStats(
        name=name,
        counts=counts,
        mean=float(np.mean(flat)),
        std=float(np.std(flat)),
        min=float(np.min(flat)),
        max=float(np.max(flat)),
        kurtosis=_kurtosis(flat),
        n=flat.size,
    )


def weight_histogram(params: MpgnnParams, n_bins: int = 50) -> HistogramReport:
    """Histograms and moments per weight matrix and pooled.

    One shared set of bin edges spans the pooled value range, so rows
    are comparable; counts sum to the bias-free parameter count.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    named = weight_matrices(params)
    flats = [(name, np.asarray(a, dtype=np.float64).ravel()) for name, a in named]
    pooled = np.concatenate([f for _, f in flats])
    if not pooled.size:
        raise ValueError("no weights to histogram")
    if n_bins > pooled.size:
        raise ValueError(f"n_bins must be <= the pooled weight count {pooled.size}, got {n_bins}")
    lo, hi = float(pooled.min()), float(pooled.max())
    if lo == hi:
        # Degenerate range (e.g. all-zero weights): one centered bin span.
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, n_bins + 1)
    return HistogramReport(
        bin_edges=edges,
        matrices=[_stats(name, f, edges) for name, f in flats],
        pooled=_stats("pooled", pooled, edges),
    )


def singular_values(matrix: np.ndarray) -> np.ndarray:
    """Singular values, descending, from an SVD of the tall one of the matrix and its transpose
    (LAPACK's QR-first route for a tall matrix costs less than its LQ route for a wide one)."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"need a 2-D matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return np.linalg.svd(m if m.shape[0] >= m.shape[1] else m.T, compute_uv=False)


def _spectrum(values: np.ndarray, n: int) -> np.ndarray:
    """Magnitudes, descending, cut or zero-padded to n entries."""
    return np.pad(np.sort(np.abs(values))[::-1][:n], (0, max(0, n - values.size)))


def layer_spectra(params: MpgnnParams) -> list[tuple[str, np.ndarray, np.ndarray | None]]:
    """(name, singular values, eigenvalue magnitudes or None) per layer:
    min(d_in, d_out) values each, descending; eigenvalues of square layers
    only. Factorized layers are measured from their factors: U @ V has the
    singular values of the core qr(U, "r") @ qr(V.T, "r").T (at most rank x
    rank) and the nonzero eigenvalues of V @ U; past the rank, values are 0.0."""
    out = []
    for mlp_name, mlp in (("mlp1", params.mlp1), ("mlp2", params.mlp2)):
        for i, layer in enumerate(mlp.layers):
            if layer.rank is None:
                w = square = layer.weight
            else:
                w = np.linalg.qr(layer.u, mode="r") @ np.linalg.qr(layer.v.T, mode="r").T
                square = layer.v @ layer.u if layer.d_in == layer.d_out else None
            eig = _spectrum(np.linalg.eigvals(square), layer.d_in) if layer.d_in == layer.d_out else None
            out.append((f"{mlp_name}.{i}", _spectrum(singular_values(w), min(layer.d_in, layer.d_out)), eig))
    return out


def svd_truncate(w: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Factor a dense weight W (d_out, d_in) into U (d_in, r), V (r, d_out).

    The effective weight (U @ V).T is the best rank-r approximation of W
    in the Frobenius norm; the squared reconstruction error equals the
    discarded singular-value tail.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"need a 2-D matrix, got shape {w.shape}")
    if not 1 <= r <= min(w.shape):
        raise ValueError(f"rank {r} out of bounds for shape {w.shape}")
    p, s, qt = np.linalg.svd(w.T, full_matrices=False)
    root = np.sqrt(s[:r])
    return p[:, :r] * root, root[:, None] * qt[:r]


# ---------------------------------------------------------------------------
# CSV emitters: one header row, comma separators, '.' decimals, values via
# repr for lossless round trips. Grids print a1 down the rows, a2 across.
# ---------------------------------------------------------------------------


def write_grid(grid: ReductionGrid, cells: np.ndarray, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["a1/a2"] + [str(a2) for a2 in grid.a2_values])
        for i, a1 in enumerate(grid.a1_values):
            w.writerow([str(a1)] + [repr(float(x)) for x in cells[i]])


def write_weight_histogram(report: HistogramReport, path) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["matrix", "bin", "lo", "hi", "count", "mean", "std", "min", "max", "kurtosis", "n"])
        for m in report.matrices + [report.pooled]:
            for b, c in enumerate(m.counts):
                w.writerow(
                    [m.name, b, repr(float(report.bin_edges[b])), repr(float(report.bin_edges[b + 1])),
                     int(c), repr(m.mean), repr(m.std), repr(m.min), repr(m.max), repr(m.kurtosis), m.n]
                )


def write_singular_values(params: MpgnnParams, path) -> None:
    # Every row before the file opens: a spectra error leaves no file.
    rows = [[name, i, repr(float(s)), "" if eig is None else repr(float(eig[i]))]
            for name, svals, eig in layer_spectra(params) for i, s in enumerate(svals)]
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["layer", "index", "singular_value", "eigenvalue_magnitude"])
        w.writerows(rows)
