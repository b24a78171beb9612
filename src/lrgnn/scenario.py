"""Random multi-user MISO interference networks and their graph form.

A scenario is one network realization: transmitter/receiver geometry,
the complex channel tensor, user weights, and noise powers. Interference
is modeled as a directed graph with one vertex per transceiver pair and
an edge (i, n) whenever TX i sits within the interference threshold of
RX n.

Channel model: h = 10^(-L(d)/20) * sqrt(psi * rho) * g with path loss
L(d) = 148.1 + 37.6 * log10(d_km), antenna gain psi (dBi, linear-ized),
log-normal shadowing rho, and i.i.d. circularly-symmetric complex
Gaussian small-scale fading g per antenna.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .binio import FormatError, open_reader

DATASET_MAGIC = b"LRGD"
DATASET_VERSION = 2

_WEIGHT_MODES = ("all_ones", "uniform01")


class DatasetFormatError(FormatError):
    """Raised when a dataset file is malformed (magic, version, truncation,
    non-finite floats, a power budget or noise powers <= 0, edges that
    interference_edges could not have produced)."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for one network realization.

    Geometry defaults (area, d_min/d_max) give sparse-but-nontrivial
    edge sets at the default 500 m interference threshold for up to
    ~10 pairs.
    """

    n_pairs: int
    n_tx_antennas: int
    area_side: float = 2000.0
    d_min: float = 10.0
    d_max: float = 100.0
    edge_threshold: float = 500.0
    antenna_gain_dbi: float = 9.0
    shadow_sigma_db: float = 8.0
    p_max: float = 1.0
    snr_db: float = 10.0
    weights_mode: str = "all_ones"
    seed: int = 0

    def __post_init__(self):
        for name in ("area_side", "d_min", "d_max", "edge_threshold", "antenna_gain_dbi",
                     "shadow_sigma_db", "snr_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n_pairs < 1:
            raise ValueError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.n_tx_antennas < 1:
            raise ValueError(f"n_tx_antennas must be >= 1, got {self.n_tx_antennas}")
        if not (0.0 < self.d_min <= self.d_max):
            raise ValueError(f"need 0 < d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        if self.d_max >= self.area_side:
            raise ValueError(f"d_max {self.d_max} must be < area_side {self.area_side}")
        if self.edge_threshold <= 0.0:
            raise ValueError("edge_threshold must be positive")
        if not math.isfinite(self.p_max) or self.p_max <= 0.0:
            raise ValueError(f"p_max must be positive and finite, got {self.p_max}")
        if self.shadow_sigma_db < 0.0:
            raise ValueError("shadow_sigma_db must be >= 0")
        if self.weights_mode not in _WEIGHT_MODES:
            raise ValueError(f"weights_mode must be one of {_WEIGHT_MODES}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        # Finite settings can still derive unusable linear values: the
        # antenna gain scales every channel, and dataset files store
        # noise powers and positions as f32.
        with np.errstate(all="ignore"):
            derived = (
                (f"antenna_gain_dbi={self.antenna_gain_dbi}", "linear antenna gain",
                 np.power(10.0, self.antenna_gain_dbi / 10.0)),
                (f"p_max={self.p_max}, snr_db={self.snr_db}", "noise power",
                 np.float32(self.p_max / np.power(10.0, self.snr_db / 10.0))),
                (f"area_side={self.area_side}, d_max={self.d_max}", "largest position coordinate",
                 np.float32(self.area_side + self.d_max)),
            )
        for settings, what, v in derived:
            if not 0.0 < v < np.inf:
                raise ValueError(f"{settings}: the derived {what} is {float(v)}, "
                                 f"which must be finite and positive")


@dataclass
class Scenario:
    """One network realization.

    channels[i, n] is the length-Nt vector from TX i to RX n; the
    diagonal holds the desired links. Channels are normalized so the
    mean desired-link power is 1, and noise powers follow from the SNR
    setting in those units.
    """

    tx_positions: np.ndarray  # (N, 2) meters
    rx_positions: np.ndarray  # (N, 2) meters
    channels: np.ndarray  # (N, N, Nt) complex128
    weights: np.ndarray  # (N,)
    noise_powers: np.ndarray  # (N,) linear
    p_max: float = 1.0

    @property
    def n_pairs(self) -> int:
        return self.channels.shape[0]

    @property
    def n_tx_antennas(self) -> int:
        return self.channels.shape[2]


@dataclass
class Graph:
    """Directed interference graph of a scenario.

    vertex_features rows are [Re h_nn | Im h_nn | w_n | sigma2_n]
    (2*Nt + 2 columns). edges are ordered (source, target) pairs in
    strictly increasing lexicographic order, as graph_from_edges and
    read_dataset enforce, so sources never decrease (taped gathers by
    source need that); edge_features rows align with that order and
    hold [Re h_in | Im h_in] of the interfering channel. Pairs outside
    the threshold carry no edge, i.e. a zero adjacency feature.
    """

    vertex_features: np.ndarray  # (N, 2*Nt+2)
    edges: np.ndarray  # (n_edges, 2) intp, sorted by (source, target)
    edge_features: np.ndarray  # (n_edges, 2*Nt)

    @property
    def n_vertices(self) -> int:
        return self.vertex_features.shape[0]

    @property
    def n_tx_antennas(self) -> int:
        return (self.vertex_features.shape[1] - 2) // 2


class Sample(NamedTuple):
    scenario: Scenario
    graph: Graph


def pathloss_db(distance_m):
    """Path loss in dB at a distance given in meters (formula takes km)."""
    d_km = np.asarray(distance_m, dtype=np.float64) / 1000.0
    return 148.1 + 37.6 * np.log10(d_km)


def split_complex(h: np.ndarray) -> np.ndarray:
    """[Re | Im] halves of a complex array, concatenated on the last axis."""
    return np.concatenate([h.real, h.imag], axis=-1)


def merge_complex(x: np.ndarray) -> np.ndarray:
    """Inverse of split_complex on the last axis, written into the real
    and imaginary parts of one new array."""
    nt = x.shape[-1] // 2
    z = np.empty(x.shape[:-1] + (nt,), dtype=np.complex128)
    z.real = x[..., :nt]
    z.imag = x[..., nt:]
    return z


def _snap_f32(a: np.ndarray) -> np.ndarray:
    # Files hold float32; rounding once before the first write makes
    # write/read an identity in both directions.
    return a.astype(np.float32).astype(np.float64)


# Complex channel entries per block of samples that _scenarios
# synthesizes together: about 1 MiB per complex temporary, so a block's
# arithmetic runs inside a 2 MiB L2 cache.
_BLOCK_ENTRIES = 2**16


def _scenarios(cfg: ScenarioConfig, seeds: list[int]) -> Iterator[list[Scenario]]:
    """The scenarios of `seeds`, one list per block of consecutive seeds.

    Each seed draws from its own PCG64 stream, in the order that
    generate_scenario documents, into arrays stacked over the block.
    The arithmetic then runs once per block, with the ufuncs one
    scenario alone would run, so every sample keeps its bits. A
    ValueError names the first failing sample in seed order.
    """
    n, nt = cfg.n_pairs, cfg.n_tx_antennas
    block = max(1, min(len(seeds), _BLOCK_ENTRIES // (n * n * nt)))
    # Every block reuses these buffers, and each scenario gets a copy of
    # its channels: block-sized arrays made per block would page-fault,
    # where per-sample arrays reuse the heap.
    re_buf = np.empty((block, n, n, nt))
    im_buf = np.empty((block, n, n, nt))
    h_buf = np.empty((block, n, n, nt), dtype=np.complex128)
    psi = 10.0 ** (cfg.antenna_gain_dbi / 10.0)
    noise_power = cfg.p_max / 10.0 ** (cfg.snr_db / 10.0)
    for start in range(0, len(seeds), block):
        k = min(block, len(seeds) - start)
        re, im, h = re_buf[:k], im_buf[:k], h_buf[:k]
        tx = np.empty((k, n, 2))
        angles = np.empty((k, n))
        radii = np.empty((k, n))
        shadow = np.empty((k, n, n)) if cfg.shadow_sigma_db > 0.0 else None
        w = np.ones((k, n))
        for j, seed in enumerate(seeds[start:start + k]):
            rg = np.random.Generator(np.random.PCG64(seed))
            tx[j] = rg.uniform(0.0, cfg.area_side, size=(n, 2))
            angles[j] = rg.uniform(0.0, 2.0 * np.pi, size=n)
            radii[j] = rg.uniform(cfg.d_min, cfg.d_max, size=n)
            if shadow is not None:
                shadow[j] = rg.normal(0.0, cfg.shadow_sigma_db, size=(n, n))
            rg.standard_normal(out=re[j])
            rg.standard_normal(out=im[j])
            if cfg.weights_mode == "uniform01":
                w[j] = rg.uniform(0.0, 1.0, size=n)

        rx = tx + radii[..., None] * np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        # d[j, i, n]: TX i to RX n
        d = np.linalg.norm(tx[:, :, None, :] - rx[:, None, :, :], axis=-1)
        # Extreme distances, gains or shadowing can over- or underflow the
        # path gain, the channels or their normalization; each is checked
        # once on its result below.
        with np.errstate(all="ignore"):
            gain = 10.0 ** (-pathloss_db(d) / 20.0)
            rho = 10.0 ** (shadow / 10.0) if shadow is not None else np.ones((k, n, n))
            # h = alpha * gain * sqrt(psi * rho) * (re + 1j*im) / sqrt(2),
            # then each part rounded to f32, all in place.
            np.multiply(1j, im, out=h)
            np.add(re, h, out=h)
            np.true_divide(h, np.sqrt(2.0), out=h)
            np.multiply((gain * np.sqrt(psi * rho))[..., None], h, out=h)
            # Normalize so the mean desired-link power is 1; noise follows
            # from the configured SNR in these units. SINR is unchanged.
            desired = h[:, np.arange(n), np.arange(n), :]
            alpha = 1.0 / np.sqrt(np.mean(np.sum(np.abs(desired) ** 2, axis=-1), axis=-1))
            np.multiply(alpha[:, None, None, None], h, out=h)
            re[...] = h.real.astype(np.float32)
            im[...] = h.imag.astype(np.float32)
            np.multiply(1j, im, out=h)
            np.add(re, h, out=h)  # h now holds the channels
            bad_gain = ~np.isfinite(gain).all(axis=(1, 2))
            bad = bad_gain | ~np.isfinite(h).all(axis=(1, 2, 3))
            if bad.any():
                j = int(np.argmax(bad))
                if bad_gain[j]:
                    # Only a TX-RX distance near 0 m, which d_min bounds, overflows the gain.
                    raise ValueError(
                        f"d_min={cfg.d_min}: the derived largest path gain is "
                        f"{float(np.max(gain[j]))}, which must be finite")
                raise ValueError(
                    f"antenna_gain_dbi={cfg.antenna_gain_dbi}, shadow_sigma_db={cfg.shadow_sigma_db}: "
                    f"the derived largest channel power is {float(np.max(np.abs(h[j]) ** 2))}, "
                    f"which must be finite and positive")

        tx, rx, w = _snap_f32(tx), _snap_f32(rx), _snap_f32(w)
        sigma2 = _snap_f32(np.full((k, n), noise_power))
        yield [Scenario(tx[j], rx[j], h[j].copy(), w[j], sigma2[j], p_max=cfg.p_max)
               for j in range(k)]


def generate_scenario(cfg: ScenarioConfig, seed: int | None = None) -> Scenario:
    """Draw one network realization, deterministic in (cfg, seed); seed
    defaults to cfg.seed.

    RNG consumption order (fixed for reproducibility): TX positions,
    RX offset angles, RX offset radii, shadowing (if enabled),
    small-scale fading real parts then imaginary parts, user weights
    (if random). This is the one-seed case of the block synthesis that
    generate_dataset runs.
    """
    seed = cfg.seed if seed is None else seed
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return next(_scenarios(cfg, [seed]))[0]


def _interferes(tx: np.ndarray, rx: np.ndarray, threshold: float) -> np.ndarray:
    """mask[..., i, n]: i != n and TX i lies within `threshold` of RX n,
    for positions of shape (..., N, 2)."""
    d = np.linalg.norm(tx[..., :, None, :] - rx[..., None, :, :], axis=-1)
    return (d < threshold) & ~np.eye(tx.shape[-2], dtype=bool)


def interference_edges(s: Scenario, threshold: float) -> np.ndarray:
    """Ordered pairs (i, n), i != n, with TX i within `threshold` of RX n."""
    src, dst = np.nonzero(_interferes(s.tx_positions, s.rx_positions, threshold))
    return np.stack([src, dst], axis=1)  # row-major: sorted by (source, target)


def _edge_problem(edges: np.ndarray, n: int) -> str | None:
    """Why `edges` is not an edge list of an n-vertex interference graph
    (indices in [0, n), no self-loops, strictly increasing in (source,
    target)), or None if it is one."""
    if (edges < 0).any():
        return "has a negative edge index"
    if (edges >= n).any():
        return f"has an edge index >= its pair count {n}"
    if (edges[:, 0] == edges[:, 1]).any():
        return "has a self-loop edge"
    key = edges[:, 0] * n + edges[:, 1]
    step = key[1:] - key[:-1]
    if (step <= 0).any():
        return "has a duplicate edge" if (step == 0).any() else "has edges not sorted by (source, target)"
    return None


def _graph_problem(noise_powers: np.ndarray, edges: np.ndarray, n: int) -> str | None:
    """Why a scenario of n pairs with these noise powers has no Graph on
    `edges` (a noise power <= 0, or an edge list _edge_problem rejects),
    or None if it has one."""
    if not (noise_powers > 0.0).all():
        return "has a noise power <= 0"
    problem = _edge_problem(edges, n)
    return problem and f"edge list {problem}"


def graph_from_edges(s: Scenario, edges: np.ndarray) -> Graph:
    """The Graph of a scenario on the given (source, target) edges; its
    vertex features carry the weights and noise powers the rates read.
    Raises ValueError on a noise power <= 0 or on edges that
    interference_edges could not have produced (see _edge_problem)."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    problem = _graph_problem(s.noise_powers, edges, s.n_pairs)
    if problem:
        raise ValueError(problem)
    return _graph(s, edges)


def _graph(s: Scenario, edges: np.ndarray) -> Graph:
    """The Graph of s on edges that _graph_problem accepts."""
    diag = s.channels[np.arange(s.n_pairs), np.arange(s.n_pairs), :]
    z = np.concatenate([diag.real, diag.imag, s.weights[:, None], s.noise_powers[:, None]], axis=1)
    feats = split_complex(s.channels[edges[:, 0], edges[:, 1], :])
    return Graph(vertex_features=z, edges=edges, edge_features=feats)


def build_graph(s: Scenario, cfg: ScenarioConfig) -> Graph:
    """Assemble the directed interference graph of a scenario."""
    return graph_from_edges(s, interference_edges(s, cfg.edge_threshold))


def generate_dataset(cfg: ScenarioConfig, n_samples: int, first_index: int = 0) -> list[Sample]:
    """Generate samples with per-sample seeds cfg.seed XOR global index.

    Each sample draws from its own seed's stream, in generate_scenario's
    order, so sample i is generate_scenario(cfg, cfg.seed ^ i) with
    build_graph's graph, bit for bit. The arithmetic and the graphs run
    once per block of consecutive samples.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    if first_index < 0:
        raise ValueError(f"first_index must be >= 0, got {first_index}")
    out = []
    seeds = [cfg.seed ^ i for i in range(first_index, first_index + n_samples)]
    for scenarios in _scenarios(cfg, seeds):
        out.extend(map(Sample, scenarios, _graphs(scenarios, cfg.edge_threshold)))
    return out


def _graphs(scenarios: list[Scenario], threshold: float) -> list[Graph]:
    """build_graph of each scenario, with the edges of all of them taken
    from one edge mask over their stacked positions."""
    tx = np.stack([s.tx_positions for s in scenarios])
    rx = np.stack([s.rx_positions for s in scenarios])
    b, src, dst = np.nonzero(_interferes(tx, rx, threshold))
    edges = np.stack([src, dst], axis=1)
    counts = np.bincount(b, minlength=len(scenarios))
    ends = np.cumsum(counts)
    return [_graph(s, edges[e - c:e]) for s, c, e in zip(scenarios, counts, ends)]


# ---------------------------------------------------------------------------
# Dataset files: little-endian, magic "LRGD". Header: version u32, sample
# count u32, pair count u32, antenna count u32, the samples' shared p_max
# f64. Then per sample, all floats f32 and complex values interleaved
# (Re, Im): TX xy, RX xy, H in (i, n, antenna) row-major order, weights,
# noise powers, edge count, (source, target) pairs.
# ---------------------------------------------------------------------------


_STORED_FIELDS = ("TX positions", "RX positions", "channels", "weights", "noise powers")


def _stored_floats(s: Scenario) -> np.ndarray:
    """The floats of s as a dataset file stores them: one f32 block of
    the _STORED_FIELDS in order, channels as (Re, Im) pairs. A value
    past f32's range becomes inf, for write_dataset to refuse."""
    h_pairs = np.ascontiguousarray(s.channels, dtype=np.complex128).view(np.float64)
    fields = (s.tx_positions, s.rx_positions, h_pairs, s.weights, s.noise_powers)
    with np.errstate(over="ignore"):
        return np.concatenate([a.ravel() for a in fields], dtype="<f4", casting="same_kind")


def write_dataset(samples: list[Sample], path) -> None:
    """Write samples to a dataset file. Before the file is opened, raises
    ValueError on a sample read_dataset would refuse: one whose floats,
    rounded to f32, are not finite, or that graph_from_edges refuses."""
    if not samples:
        raise ValueError("refusing to write an empty dataset")
    n = samples[0].scenario.n_pairs
    nt = samples[0].scenario.n_tx_antennas
    p_max = samples[0].scenario.p_max
    for k, (s, g) in enumerate(samples):
        if s.n_pairs != n or s.n_tx_antennas != nt:
            raise ValueError(f"sample {k} has shape ({s.n_pairs}, {s.n_tx_antennas}), expected ({n}, {nt})")
        if s.p_max != p_max:
            raise ValueError(f"sample {k} has p_max {s.p_max}, expected {p_max}")
        block = _stored_floats(s)
        if not np.isfinite(block).all():
            fields = np.split(block, np.cumsum([2 * n, 2 * n, 2 * n * n * nt, n]))
            what = next(w for w, a in zip(_STORED_FIELDS, fields) if not np.isfinite(a).all())
            raise ValueError(f"non-finite value in sample {k} {what} as f32")
        problem = _graph_problem(block[-n:], g.edges, n)
        if problem:
            raise ValueError(f"sample {k} {problem}")

    with open(path, "wb") as f:
        f.write(DATASET_MAGIC)
        f.write(struct.pack("<IIIId", DATASET_VERSION, len(samples), n, nt, p_max))
        for s, g in samples:
            # Cast again rather than kept from the check: holding every
            # block raised gen-data's peak RSS by the dataset's f32 size.
            f.write(_stored_floats(s))
            f.write(struct.pack("<I", g.edges.shape[0]))
            f.write(g.edges.astype("<u4").tobytes())


def read_dataset(path) -> list[Sample]:
    """Read a dataset file back into (Scenario, Graph) samples.

    Stored channels are already normalized. Each scenario gets the
    file's power budget p_max.
    """
    r = open_reader(path, DATASET_MAGIC, DATASET_VERSION, DatasetFormatError)
    n_samples = r.u32("sample count")
    n = r.u32("pair count")
    nt = r.u32("antenna count")
    if n < 1 or nt < 1 or n_samples < 1:
        raise DatasetFormatError(f"{path}: invalid header counts ({n_samples}, {n}, {nt})")
    p_max = struct.unpack("<d", r.take(8, "p_max"))[0]
    if not 0.0 < p_max < math.inf:
        raise DatasetFormatError(f"{path}: p_max {p_max} is not finite and positive")

    samples = []
    for k in range(n_samples):
        tx = r.f32(2 * n, f"sample {k} TX positions").reshape(n, 2)
        rx = r.f32(2 * n, f"sample {k} RX positions").reshape(n, 2)
        h_pairs = r.f32(2 * n * n * nt, f"sample {k} channels").reshape(n, n, nt, 2)
        h = h_pairs.view(np.complex128)[..., 0]  # keeps the sign of a zero part
        w = r.f32(n, f"sample {k} weights")
        sigma2 = r.f32(n, f"sample {k} noise powers")
        n_edges = r.u32(f"sample {k} edge count")
        if n_edges > n * n:
            raise DatasetFormatError(f"{path}: sample {k} claims {n_edges} edges")
        raw = r.take(8 * n_edges, f"sample {k} edges")
        edges = np.frombuffer(raw, dtype="<u4").astype(np.intp).reshape(n_edges, 2)
        s = Scenario(
            tx_positions=tx,
            rx_positions=rx,
            channels=h,
            weights=w,
            noise_powers=sigma2,
            p_max=p_max,
        )
        try:
            graph = graph_from_edges(s, edges)
        except ValueError as e:  # _graph_problem, as write_dataset runs it
            raise DatasetFormatError(f"{path}: sample {k} {e}") from e
        samples.append(Sample(s, graph))
    r.done()
    return samples
