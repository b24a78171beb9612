"""Training loop: checkpoint selection, determinism, abort and report contracts."""

import csv
import hashlib
import math

import numpy as np
import pytest

from lrgnn.autodiff import Tensor
from lrgnn.mpgnn import MpgnnArch, forward, forward_real, init_params, load_model, rebuild_params, save_model
from lrgnn.objective import weighted_sum_rate, wsr_from_real
from lrgnn.scenario import (
    Sample,
    Scenario,
    ScenarioConfig,
    generate_dataset,
    graph_from_edges,
    interference_edges,
)
from lrgnn.trainer import (
    TrainConfig,
    _batch_grad,
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
        with pytest.raises(ValueError, match="eval_every"):
            TrainConfig(arch=arch, eval_every=0)
        with pytest.raises(ValueError, match="select_on"):
            TrainConfig(arch=arch, select_on="val")
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
        # The checkpoint is the best evaluated epoch (f32 rounding aside).
        best = max([report.initial_test_sum_rate] + report.test_sum_rate)
        assert got == pytest.approx(best, rel=1e-4)

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
        cfg = TrainConfig(arch=MpgnnArch(n_tx_antennas=4))
        with pytest.raises(ValueError, match="Nt"):
            train(dataset(4, nt=2), cfg)

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


class TestSelectionAndSchedule:
    def test_eval_every_carries_last_value_forward(self):
        arch = MpgnnArch(n_tx_antennas=2)
        cfg = TrainConfig(arch=arch, epochs=4, batch_size=4, seed=0, eval_every=3)
        data, test = dataset(8, seed=11), dataset(4, seed=12)
        _, report = train(data, cfg, test)
        assert len(report.test_sum_rate) == 4
        # Epochs 1 and 2 are not evaluation epochs: the initial value rides along.
        assert report.test_sum_rate[0] == report.initial_test_sum_rate
        assert report.test_sum_rate[1] == report.initial_test_sum_rate
        # Epoch 3 (eval_every) and epoch 4 (final) are fresh evaluations.
        assert report.test_sum_rate[2] != report.test_sum_rate[1]

    def test_select_on_train_picks_lowest_loss_epoch(self):
        arch = MpgnnArch(n_tx_antennas=2)
        cfg = TrainConfig(arch=arch, epochs=5, batch_size=4, seed=1, select_on="train")
        data, test = dataset(12, seed=13), dataset(4, seed=14)
        _, report = train(data, cfg, test)
        assert report.best_epoch == int(np.argmin(report.train_loss)) + 1

    def test_no_test_set_falls_back_to_train_selection(self):
        arch = MpgnnArch(n_tx_antennas=2)
        cfg = TrainConfig(arch=arch, epochs=3, batch_size=4, seed=2)
        _, report = train(dataset(8, seed=15), cfg)
        assert report.best_epoch >= 1
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


def sample_loss_and_grads(arch, arrays, sample, full_interference):
    """Reference: one sample on its own tape, through wsr_from_real on
    the sample's own graph (or its all-pairs graph)."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    q = forward_real(sample.graph, rebuild_params(arch, tensors), arch)
    s = sample.scenario
    rated = graph_from_edges(s, interference_edges(s, np.inf)) if full_interference else sample.graph
    neg = -wsr_from_real(rated, q)
    neg.backward()
    return float(neg.data), [t.grad if t.grad is not None else np.zeros_like(t.data) for t in tensors]


class TestUnionBatches:
    @pytest.mark.parametrize("full_interference", [False, True])
    @pytest.mark.parametrize("arch", [
        MpgnnArch(n_tx_antennas=2),
        MpgnnArch(n_tx_antennas=2, kind="low_rank", rank1=3, rank2=2),
    ], ids=["dense", "low_rank"])
    def test_union_gradients_equal_per_sample_sum(self, arch, full_interference):
        # 21 samples: a full union of 16 and a partial one of 5. Pair
        # counts and edge counts vary, and sample 0 has no edges at all.
        batch = mixed_samples(21, edgeless=(0,))

        arrays = init_params(arch, 3).flat()
        loss, grads = _batch_grad(arch, arrays, batch, full_interference)

        want_loss = 0.0
        want = [np.zeros_like(a) for a in arrays]
        for sample in batch:
            l_s, g_s = sample_loss_and_grads(arch, arrays, sample, full_interference)
            want_loss += l_s
            for w, g in zip(want, g_s):
                w += g
        assert abs(loss - want_loss) <= 1e-12 * abs(want_loss)
        for g, w in zip(grads, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


# SHA-256 of _batch_grad's loss and gradient bytes, per (ranks,
# full_interference), and of a 2-epoch train's params_checksum per ranks.
BATCH_GRAD_DIGESTS = {
    (None, False): "efb52b310c2ece0cd4dd1494fcda0a131de971eb634087a3841bb22423454eb8",
    (None, True): "e19a84617d09562aeceb22e277a68f8d84ce640e4b33e89b70a42c595c1d5bde",
    ((2, 3), False): "3c56e6418a111e25cfeafddaf652bae09564073bdb7b0b8b8c6c5c3e39ba7d88",
    ((2, 3), True): "094ffcc46c00e26be00c048c35d6a06424e5bc3451d46f4f3af18103459603a5",
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
    for full_interference in (False, True):
        loss, grads = _batch_grad(arch, arrays, data, full_interference)
        h = hashlib.sha256(np.float64(loss).tobytes())
        for g in grads:
            h.update(g.astype("<f8").tobytes())
        assert h.hexdigest() == BATCH_GRAD_DIGESTS[ranks, full_interference]
    _, report = train(data, TrainConfig(arch=arch, epochs=2, batch_size=8, seed=2), dataset(4, seed=12, nt=4))
    assert report.params_checksum == TRAIN_CHECKSUMS[ranks]


class TestUnionScoring:
    @pytest.mark.parametrize("full_interference", [False, True])
    @pytest.mark.parametrize("arch", [
        MpgnnArch(n_tx_antennas=2),
        MpgnnArch(n_tx_antennas=2, kind="low_rank", rank1=3, rank2=2),
    ], ids=["dense", "low_rank"])
    def test_sample_rates_equal_per_sample_loop(self, arch, full_interference):
        # 37 samples: two full unions of 16 and a partial one of 5. Pair
        # and edge counts vary; samples 0 and 20 (inside the second
        # union, at a nonzero vertex offset) have no edges.
        samples = mixed_samples(37, edgeless=(0, 20))
        params = init_params(arch, 5)
        before = params_checksum(params)

        got = sample_rates(arch, params, samples, full_interference=full_interference)

        want = np.array([
            weighted_sum_rate(s.scenario, forward(s.graph, params, arch),
                              interference_edges(s.scenario, np.inf) if full_interference else s.graph.edges)
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
