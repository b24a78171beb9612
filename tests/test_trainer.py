"""Training loop: checkpoint selection, determinism, abort and report contracts."""

import csv
import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from lrgnn.autodiff import Tensor
from lrgnn.mpgnn import MpgnnArch, forward, forward_real, init_params, load_model, rebuild_params, save_model
from lrgnn.objective import rate_report, weighted_sum_rate, wsr_from_real
from lrgnn.scenario import Sample, Scenario, ScenarioConfig, generate_dataset, graph_from_edges
from lrgnn.trainer import (
    TrainConfig,
    _batch_grad,
    _union,
    evaluate,
    params_checksum,
    sample_rates,
    train,
    write_train_report,
)


def dataset(n_samples, seed=0, n=3, nt=2):
    cfg = ScenarioConfig(n_pairs=n, n_tx_antennas=nt, edge_threshold=1500.0, seed=seed)
    return generate_dataset(cfg, n_samples)


def mixed_samples(count, edgeless):
    """count samples with 3-5 pairs at three edge thresholds, so pair and
    edge counts vary; the samples at the `edgeless` indices get no edges."""
    samples = []
    for k in range(count):
        cfg = ScenarioConfig(n_pairs=3 + k % 3, n_tx_antennas=2,
                             edge_threshold=(300.0, 900.0, 1500.0)[k % 3], seed=30 + k)
        samples += generate_dataset(cfg, 1)
    for k in edgeless:
        s = samples[k].scenario
        samples[k] = Sample(s, graph_from_edges(s, np.empty((0, 2), dtype=np.intp)))
    assert len({s.graph.edges.shape[0] for s in samples}) > 3
    return samples


def snap_params(arch, seed):
    params = init_params(arch, seed)
    return rebuild_params(
        arch, [a.astype(np.float32).astype(np.float64) for a in params.flat()]
    )


class TestConfig:
    def test_bounds(self):
        arch = MpgnnArch(n_tx_antennas=2)
        for lr in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match="lr"):
                TrainConfig(arch=arch, lr=lr)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(arch=arch, batch_size=0)
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(arch=arch, epochs=0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(arch=arch, seed=-1)

    def test_zero_lr_allowed(self):
        TrainConfig(arch=MpgnnArch(n_tx_antennas=2), lr=0.0)


class TestTrainBasics:
    def test_zero_lr_returns_snapped_init(self):
        arch = MpgnnArch(n_tx_antennas=2)
        cfg = TrainConfig(arch=arch, lr=0.0, epochs=3, batch_size=4, seed=7)
        data = dataset(8, seed=1)
        final, report = train(data, cfg, test_set=dataset(4, seed=2))
        expected = snap_params(arch, 7)
        for a, b in zip(final.flat(), expected.flat()):
            np.testing.assert_array_equal(a, b)
        assert report.best_epoch == 0
        # Parameters never move; per-epoch losses differ only by the
        # summation-order noise of reshuffled batch splits.
        for x in report.train_loss[1:]:
            assert x == pytest.approx(report.train_loss[0], rel=1e-12)

    def test_deterministic_repeat(self):
        arch = MpgnnArch(n_tx_antennas=2, kind="low_rank", rank1=4, rank2=4)
        cfg = TrainConfig(arch=arch, epochs=2, batch_size=4, seed=3)
        data, test = dataset(8, seed=4), dataset(4, seed=5)
        f1, r1 = train(data, cfg, test)
        f2, r2 = train(data, cfg, test)
        assert r1.train_loss == r2.train_loss
        assert r1.test_sum_rate == r2.test_sum_rate
        assert r1.params_checksum == r2.params_checksum

    def test_seed_changes_outcome(self):
        arch = MpgnnArch(n_tx_antennas=2)
        data, test = dataset(8, seed=4), dataset(4, seed=5)
        _, r1 = train(data, TrainConfig(arch=arch, epochs=1, batch_size=4, seed=0), test)
        _, r2 = train(data, TrainConfig(arch=arch, epochs=1, batch_size=4, seed=1), test)
        assert r1.params_checksum != r2.params_checksum

    def test_training_improves_on_untrained(self):
        arch = MpgnnArch(n_tx_antennas=2)
        cfg = TrainConfig(arch=arch, epochs=6, batch_size=6, seed=0)
        data, test = dataset(24, seed=6), dataset(8, seed=7)
        final, report = train(data, cfg, test)
        assert report.train_loss[-1] < report.train_loss[0]
        got = evaluate(arch, final, test)
        assert got > report.initial_test_sum_rate
        # The checkpoint is the best epoch, scored as it is saved.
        assert got == report.best_test_sum_rate == max([report.initial_test_sum_rate] + report.test_sum_rate)

    def test_never_worse_than_epoch_zero(self):
        arch = MpgnnArch(n_tx_antennas=2)
        # One epoch at an absurd learning rate wrecks the model; selection
        # must fall back to the untrained checkpoint.
        cfg = TrainConfig(arch=arch, lr=5.0, epochs=1, batch_size=8, seed=0)
        data, test = dataset(8, seed=8), dataset(6, seed=9)
        final, report = train(data, cfg, test)
        got = evaluate(arch, final, test)
        assert got >= report.initial_test_sum_rate - 1e-6 * abs(report.initial_test_sum_rate)
        if report.best_epoch == 0:
            expected = snap_params(arch, 0)
            for a, b in zip(final.flat(), expected.flat()):
                np.testing.assert_array_equal(a, b)

    def test_empty_train_set(self):
        cfg = TrainConfig(arch=MpgnnArch(n_tx_antennas=2))
        with pytest.raises(ValueError, match="empty"):
            train([], cfg)

    def test_nt_mismatch(self):
        # The model's own check names both counts, whether the untrained
        # scoring of a test set or the first batch meets it first.
        cfg = TrainConfig(arch=MpgnnArch(n_tx_antennas=8))
        for test_set in (None, dataset(2, seed=1, nt=4)):
            with pytest.raises(ValueError, match="Nt=4.*8"):
                train(dataset(4, nt=4), cfg, test_set)

    def test_non_finite_loss_reports_batch(self):
        data = dataset(6, seed=10)
        bad = data[0].scenario
        poisoned = Scenario(
            tx_positions=bad.tx_positions,
            rx_positions=bad.rx_positions,
            channels=bad.channels,
            weights=np.full_like(bad.weights, np.nan),
            noise_powers=bad.noise_powers,
        )
        # The rates read the weights from the graph, so it is rebuilt
        # from the poisoned scenario.
        data = [Sample(poisoned, graph_from_edges(poisoned, data[0].graph.edges))] + list(data[1:])
        cfg = TrainConfig(arch=MpgnnArch(n_tx_antennas=2), epochs=1, batch_size=len(data), seed=0)
        with pytest.raises(FloatingPointError, match="epoch 1, batch 0"):
            train(data, cfg)

    def test_overflow_reports_batch(self):
        # An absurd step overflows the next batch's matmuls: numpy's own
        # FloatingPointError stops training, with epoch and batch added.
        cfg = TrainConfig(arch=MpgnnArch(n_tx_antennas=2), lr=1e300, epochs=3, batch_size=2, seed=0)
        with pytest.raises(FloatingPointError, match=r"^epoch 1, batch 1: overflow"):
            train(dataset(4, seed=10), cfg)

    @pytest.mark.parametrize("with_test_set", [False, True])
    def test_checkpoint_overflow_reports_epoch(self, with_test_set):
        # One batch per epoch: the step to ~1e39 stays finite in f64 but
        # overflows the f32 rounding of the checkpoint candidate.
        cfg = TrainConfig(arch=MpgnnArch(n_tx_antennas=2), lr=1e39, epochs=1, batch_size=4, seed=0)
        test = dataset(2, seed=11) if with_test_set else None
        with pytest.raises(FloatingPointError, match=r"^epoch 1, checkpoint: overflow encountered in cast$"):
            train(dataset(4, seed=10), cfg, test)

    def test_untrained_scoring_overflow_reports_epoch_0(self):
        # Channels of ~1e200 overflow the first forward pass over the test set.
        test = []
        for s, g in dataset(2, seed=11):
            loud = dataclasses.replace(s, channels=s.channels * 1e200)
            test.append(Sample(loud, graph_from_edges(loud, g.edges)))
        cfg = TrainConfig(arch=MpgnnArch(n_tx_antennas=2), epochs=1, batch_size=4, seed=0)
        with pytest.raises(FloatingPointError, match=r"^epoch 0, checkpoint: "):
            train(dataset(4, seed=10), cfg, test)


class TestSelectionAndSchedule:
    def test_no_test_set_falls_back_to_train_selection(self):
        arch = MpgnnArch(n_tx_antennas=2)
        cfg = TrainConfig(arch=arch, epochs=3, batch_size=4, seed=2)
        _, report = train(dataset(8, seed=15), cfg)
        assert report.best_epoch == int(np.argmin(report.train_loss)) + 1
        assert math.isnan(report.best_test_sum_rate)
        assert math.isnan(report.initial_test_sum_rate)
        assert all(math.isnan(x) for x in report.test_sum_rate)


class TestEvaluate:
    def test_pure_and_exact_on_single_sample(self):
        arch = MpgnnArch(n_tx_antennas=2)
        params = init_params(arch, 0)
        before = params_checksum(params)
        sample = dataset(1, seed=16)[0]
        got = evaluate(arch, params, [sample])
        q = forward(sample.graph, params, arch)
        assert got == weighted_sum_rate(sample.scenario, q, sample.graph.edges)
        assert params_checksum(params) == before

    def test_empty_dataset(self):
        arch = MpgnnArch(n_tx_antennas=2)
        with pytest.raises(ValueError, match="empty"):
            evaluate(arch, init_params(arch, 0), [])


def sample_loss_and_grads(arch, arrays, sample):
    """Reference: one sample on its own tape, through wsr_from_real on
    the sample's own graph."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    q = forward_real(sample.graph, rebuild_params(arch, tensors), arch)
    neg = -wsr_from_real(sample.graph, q)
    neg.backward()
    return float(neg.data), [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]


class TestUnionBatches:
    @pytest.mark.parametrize("arch", [
        MpgnnArch(n_tx_antennas=2),
        MpgnnArch(n_tx_antennas=2, kind="low_rank", rank1=3, rank2=2),
    ], ids=["dense", "low_rank"])
    def test_union_gradients_equal_per_sample_sum(self, arch):
        # 21 samples: a full union of 16 and a partial one of 5. Pair
        # counts and edge counts vary, and sample 0 has no edges at all.
        batch = mixed_samples(21, edgeless=(0,))

        arrays = init_params(arch, 3).flat()
        loss, grads = _batch_grad(arch, arrays, batch)

        want_loss = 0.0
        want = [np.zeros_like(a) for a in arrays]
        for sample in batch:
            l_s, g_s = sample_loss_and_grads(arch, arrays, sample)
            want_loss += l_s
            for w, g in zip(want, g_s):
                w += g
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for g, w in zip(grads, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


# SHA-256 of _batch_grad's loss and gradient bytes, and of a 2-epoch
# train's params_checksum, per ranks.
BATCH_GRAD_DIGESTS = {
    None: "efb52b310c2ece0cd4dd1494fcda0a131de971eb634087a3841bb22423454eb8",
    (2, 3): "3c56e6418a111e25cfeafddaf652bae09564073bdb7b0b8b8c6c5c3e39ba7d88",
}
TRAIN_CHECKSUMS = {
    None: "ac58d4f90f2aa57a3ecea17d9591f0f4595ba120f217667222336fab0f753927",
    (2, 3): "5f322a6e725b70f4bc09606a49ff6a3bfdd9ebff2aa3a6a87a0e30a337996ab2",
}


@pytest.mark.parametrize("ranks", [None, (2, 3)], ids=["dense", "low_rank"])
def test_batch_grad_digests_frozen(ranks):
    # Pins the tape's bits: 20 samples at N=3, Nt=4 are two unions.
    arch = MpgnnArch(4) if ranks is None else MpgnnArch(4, "low_rank", *ranks)
    data = dataset(20, seed=11, nt=4)
    arrays = init_params(arch, 5).flat()
    loss, grads = _batch_grad(arch, arrays, data)
    h = hashlib.sha256(np.float64(loss).tobytes())
    for g in grads:
        h.update(g.astype("<f8").tobytes())
    assert h.hexdigest() == BATCH_GRAD_DIGESTS[ranks]
    _, report = train(data, TrainConfig(arch=arch, epochs=2, batch_size=8, seed=2), dataset(4, seed=12, nt=4))
    assert report.params_checksum == TRAIN_CHECKSUMS[ranks]


# SHA-256 of _batch_grad's loss and gradient bytes, and of sample_rates'
# bytes, on edgeless samples, per ranks; and of rate_report's four arrays
# for one edgeless graph.
ZERO_EDGE_DIGESTS = {
    None: ("55565ce31ce0459d37e5ca58eb2f7128b015e3a2cc57904e0d9e65196084c871",
           "6515ad8a7de21e3989241ddb8bde1dbfcf6714fd72d98f78d45a04ad1f2bb942"),
    (2, 3): ("30a9032b3b4dc9f4ac24148b898e9784d53c9a7038324f0314bd2d1d3c50c5d0",
             "cef626935aa3356ce12b3db28fb40f13cc3129c94655226e0756dbcff0ab7a5d"),
}
ZERO_EDGE_REPORT_DIGEST = "bddb35387d460f9641ef87f1de80c410f69534621fe8ec91dcf72a1825ba5275"


def edgeless(samples):
    """The samples with their edges dropped."""
    return [Sample(s, graph_from_edges(s, np.empty((0, 2), dtype=np.intp))) for s, _ in samples]


@pytest.mark.parametrize("ranks", [None, (2, 3)], ids=["dense", "low_rank"])
def test_zero_edge_digests_frozen(ranks):
    # Pins the bits of graphs without edges: the model's gathers, MLP1
    # and scatter_max, and the objective's gather and scatter, run on
    # zero edge rows.
    # 20 samples at N=3, Nt=4 are two all-edgeless unions.
    arch = MpgnnArch(4) if ranks is None else MpgnnArch(4, "low_rank", *ranks)
    data = edgeless(dataset(20, seed=11, nt=4))
    arrays = init_params(arch, 5).flat()
    loss, grads = _batch_grad(arch, arrays, data)
    h = hashlib.sha256(np.float64(loss).tobytes())
    for g in grads:
        h.update(g.astype("<f8").tobytes())
    rates = sample_rates(arch, rebuild_params(arch, arrays), data)
    digests = (h.hexdigest(), hashlib.sha256(rates.astype("<f8").tobytes()).hexdigest())
    assert digests == ZERO_EDGE_DIGESTS[ranks]


def test_zero_edge_rate_report_frozen():
    graph = edgeless(dataset(1, seed=13, nt=4))[0].graph
    q = np.random.default_rng(7).standard_normal((3, 8))
    report = rate_report(graph, q)
    h = hashlib.sha256()
    for a in report:
        h.update(np.asarray(a).astype("<f8").tobytes())
    assert h.hexdigest() == ZERO_EDGE_REPORT_DIGEST


# SHA-256 of forward's bytes on each of 16 single samples, and of
# sample_rates' bytes over the same 16 samples as one union, per ranks.
# N=10 with every pair interfering: each vertex has 9 in-neighbours.
FORWARD_DIGESTS = {
    None: ("60cf715ca2a53bf901fba0a4fc7e7338ca449711e2a5d5a9e88b5d253c475524",
           "30d6be9dd68246b54f7f5c6a1e20c3f8cddd866d19deb2f8f14f426efc0f904a"),
    (16, 4): ("cc253a45595a7bb7c322c9b48be902008a8d203ec01c8d57797089ac80520e24",
              "fa3db022f21dd867f8e854ce19edde2f9353a2ecd04d2a4f831c91b908278e9e"),
}


@pytest.mark.parametrize("ranks", [None, (16, 4)], ids=["dense", "low_rank"])
def test_forward_digests_frozen(ranks):
    # Pins inference bits where max-aggregation reads many messages per row.
    arch = MpgnnArch(4) if ranks is None else MpgnnArch(4, "low_rank", *ranks)
    cfg = ScenarioConfig(n_pairs=10, n_tx_antennas=4, edge_threshold=1e6, seed=21)
    data = generate_dataset(cfg, 16)
    assert all(s.graph.edges.shape[0] == 90 for s in data)
    params = init_params(arch, 5)
    h = hashlib.sha256()
    for s in data:
        h.update(forward(s.graph, params, arch).astype("<c16").tobytes())
    rates = sample_rates(arch, params, data)
    digests = (h.hexdigest(), hashlib.sha256(rates.astype("<f8").tobytes()).hexdigest())
    assert digests == FORWARD_DIGESTS[ranks]


def tape_nodes(root) -> int:
    """Recorded ops (nodes with a backward) reachable from root."""
    seen, stack, count = set(), [root.node], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
    return count


# Nodes on one union's loss tape: 16 samples at N=3, Nt=4, 77 edges.
TAPE_NODES = {None: 80, (2, 3): 78}


@pytest.mark.parametrize("ranks", [None, (2, 3)], ids=["dense", "low_rank"])
def test_tape_node_count_frozen(ranks):
    # A change that records more nodes per union shows up here.
    arch = MpgnnArch(4) if ranks is None else MpgnnArch(4, "low_rank", *ranks)
    graph, _ = _union([s.graph for s in dataset(16, seed=11, nt=4)])
    assert graph.edges.shape[0] == 77
    tensors = [Tensor(a, requires_grad=True) for a in init_params(arch, 5).flat()]
    loss = -wsr_from_real(graph, forward_real(graph, rebuild_params(arch, tensors), arch))
    assert tape_nodes(loss) == TAPE_NODES[ranks]


# Bytes a union's tape holds between forward and backward (tracemalloc,
# after forward_real plus wsr_from_real): 16 samples at N=10, Nt=4, every
# pair interfering (1,440 edges). Measured 7,106,096 dense and 8,243,424
# for LR(16,4); about 2 % above that is allowed for allocator and
# interpreter variation.
TAPE_BYTES = {None: 7_250_000, (16, 4): 8_410_000}


@pytest.mark.parametrize("ranks", [None, (16, 4)], ids=["dense", "low_rank"])
def test_tape_bytes_bounded(ranks):
    # A node that keeps an array its backward does not read shows up here.
    arch = MpgnnArch(4) if ranks is None else MpgnnArch(4, "low_rank", *ranks)
    cfg = ScenarioConfig(n_pairs=10, n_tx_antennas=4, edge_threshold=1e6, seed=0)
    graph, _ = _union([s.graph for s in generate_dataset(cfg, 16)])
    assert graph.edges.shape[0] == 16 * 90
    params = rebuild_params(arch, [Tensor(a, requires_grad=True) for a in init_params(arch, 0).flat()])
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loss = wsr_from_real(graph, forward_real(graph, params, arch))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert loss.requires_grad
    assert held <= TAPE_BYTES[ranks]


def test_union_edge_sources_are_non_decreasing():
    # Taped gathers by edge source rely on this. Pair and edge counts
    # vary; samples 5 and 20 sit at nonzero vertex offsets without edges.
    samples = mixed_samples(37, edgeless=(5, 20))
    graph, offsets = _union([g for _, g in samples])
    assert offsets[5] > 0 and offsets[20] > 0 and samples[5].graph.edges.shape[0] == 0
    assert np.all(np.diff(graph.edges[:, 0]) >= 0)


class TestUnionScoring:
    @pytest.mark.parametrize("arch", [
        MpgnnArch(n_tx_antennas=2),
        MpgnnArch(n_tx_antennas=2, kind="low_rank", rank1=3, rank2=2),
    ], ids=["dense", "low_rank"])
    def test_sample_rates_equal_per_sample_loop(self, arch):
        # 37 samples: two full unions of 16 and a partial one of 5. Pair
        # and edge counts vary; samples 0 and 20 (inside the second
        # union, at a nonzero vertex offset) have no edges.
        samples = mixed_samples(37, edgeless=(0, 20))
        params = init_params(arch, 5)
        before = params_checksum(params)

        got = sample_rates(arch, params, samples)

        want = np.array([
            weighted_sum_rate(s.scenario, forward(s.graph, params, arch), s.graph.edges)
            for s in samples
        ])
        assert got.shape == want.shape == (37,)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
        assert params_checksum(params) == before


class TestCheckpoint:
    def test_checkpoint_round_trip_bit_identical(self, tmp_path):
        arch = MpgnnArch(n_tx_antennas=2, kind="low_rank", rank1=2, rank2=2)
        path = str(tmp_path / "ck.bin")
        cfg = TrainConfig(arch=arch, epochs=2, batch_size=4, seed=4)
        data, test = dataset(8, seed=19), dataset(4, seed=20)
        final, report = train(data, cfg, test)
        save_model(path, arch, final)
        arch2, loaded = load_model(path)
        assert arch2 == arch
        for a, b in zip(final.flat(), loaded.flat()):
            np.testing.assert_array_equal(a, b)
        assert params_checksum(loaded) == report.params_checksum
        assert evaluate(arch2, loaded, test) == evaluate(arch, final, test)


class TestReportCsv:
    def test_layout_and_round_trip(self, tmp_path):
        arch = MpgnnArch(n_tx_antennas=2)
        cfg = TrainConfig(arch=arch, epochs=3, batch_size=4, seed=6)
        data, test = dataset(8, seed=24), dataset(4, seed=25)
        _, report = train(data, cfg, test)
        path = tmp_path / "report.csv"
        write_train_report(report, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["epoch", "loss", "test_sum_rate"]
        assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
        assert [float(r[1]) for r in rows[1:]] == report.train_loss
        assert [float(r[2]) for r in rows[1:]] == report.test_sum_rate
