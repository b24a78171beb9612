"""Rate objective: SINR arithmetic, loss gradients, baseline beamformers."""

import numpy as np
import pytest

from lrgnn.autodiff import Tensor
from lrgnn.objective import (
    baseline_beamformers,
    rate_report,
    sinr,
    weighted_sum_rate,
    wsr_from_real,
)
from lrgnn.scenario import (
    Sample,
    Scenario,
    ScenarioConfig,
    build_graph,
    generate_scenario,
    graph_from_edges,
    interference_edges,
    split_complex,
)
from lrgnn.trainer import _union


def make_scenario(h, noise, weights=None):
    h = np.asarray(h, dtype=np.complex128)
    n = h.shape[0]
    return Scenario(
        tx_positions=np.zeros((n, 2)),
        rx_positions=np.zeros((n, 2)),
        channels=h,
        weights=np.ones(n) if weights is None else np.asarray(weights, float),
        noise_powers=np.full(n, float(noise)) if np.isscalar(noise) else np.asarray(noise, float),
    )


def two_user_case():
    h = np.array([[[1.0], [0.5]], [[0.5], [1.0]]], dtype=np.complex128)
    s = make_scenario(h, 0.1)
    q = np.ones((2, 1), dtype=np.complex128)
    edges = np.array([[0, 1], [1, 0]], dtype=np.intp)
    return s, q, edges


def random_sample(seed, n=3, nt=2):
    cfg = ScenarioConfig(n_pairs=n, n_tx_antennas=nt, edge_threshold=1500.0, seed=seed)
    s = generate_scenario(cfg)
    g = build_graph(s, cfg)
    return Sample(scenario=s, graph=g)


def report(s, q, edges):
    """rate_report of complex beamformers on one scenario."""
    return rate_report(graph_from_edges(s, edges), split_complex(q))


def rated_edges(s, edges, full_interference):
    """The edges the rates read: `edges`, or every off-diagonal pair."""
    return interference_edges(s, np.inf) if full_interference else edges


def reference(s, q, edges=None):
    """Plain-loop complex reference: per user n, |vdot(h_nn, q_n)|^2 over
    the interference summed on the edges (i, n) plus sigma2_n, or over
    every i != n when edges is None. Returns (sinr, rate, interference,
    weighted sum rate)."""
    n = s.n_pairs
    if edges is None:
        edges = [(i, k) for i in range(n) for k in range(n) if i != k]
    interference = np.zeros(n)
    for i, k in edges:
        interference[k] += abs(np.vdot(s.channels[i, k], q[i])) ** 2
    snr = np.array([abs(np.vdot(s.channels[k, k], q[k])) ** 2 / (interference[k] + s.noise_powers[k])
                    for k in range(n)])
    rate = np.log1p(snr) / np.log(2.0)
    return snr, rate, interference, float(np.sum(s.weights * rate))


def random_beamformers(seed, n, nt):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, nt)) + 1j * rng.normal(size=(n, nt))


class TestReference:
    @pytest.mark.parametrize("full_interference", [False, True])
    def test_every_entry_point_matches_the_loop(self, full_interference):
        cases = [random_sample(seed, n=4, nt=3) for seed in range(6)]
        edgeless = cases[0].scenario
        cases.append(Sample(edgeless, graph_from_edges(edgeless, np.empty((0, 2), dtype=np.intp))))
        for k, (s, g) in enumerate(cases):
            q = random_beamformers(k + 60, 4, 3)
            want_sinr, want_rate, want_interf, want_wsr = reference(
                s, q, None if full_interference else g.edges.tolist())
            edges = rated_edges(s, g.edges, full_interference)
            graph = graph_from_edges(s, edges)
            r = rate_report(graph, split_complex(q))
            np.testing.assert_allclose(r.sinr, want_sinr, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(r.rate, want_rate, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(r.interference, want_interf, rtol=1e-12, atol=0.0)
            assert r.weighted_sum_rate == pytest.approx(want_wsr, rel=1e-12)
            np.testing.assert_allclose(sinr(s, q, edges), want_sinr, rtol=1e-12, atol=0.0)
            got = weighted_sum_rate(s, q, edges)
            assert got == pytest.approx(want_wsr, rel=1e-12)
            assert wsr_from_real(graph, split_complex(q)) == pytest.approx(want_wsr, rel=1e-12)
            taped = wsr_from_real(graph, Tensor(split_complex(q), requires_grad=True))
            assert float(taped.data) == pytest.approx(want_wsr, rel=1e-12)
        assert cases[-1].graph.edges.shape[0] == 0

    @pytest.mark.parametrize("full_interference", [False, True])
    def test_union_of_two_samples_matches_the_loop(self, full_interference):
        a, b = random_sample(11, n=3, nt=2), random_sample(12, n=5, nt=2)
        qa, qb = random_beamformers(70, 3, 2), random_beamformers(71, 5, 2)
        want = [reference(x.scenario, q, None if full_interference else x.graph.edges.tolist())
                for x, q in ((a, qa), (b, qb))]
        union, _ = _union([graph_from_edges(s, rated_edges(s, g.edges, full_interference)) for s, g in (a, b)])
        r = rate_report(union, split_complex(np.concatenate([qa, qb])))
        for got, k in ((r.sinr, 0), (r.rate, 1), (r.interference, 2)):
            np.testing.assert_allclose(got, np.concatenate([want[0][k], want[1][k]]), rtol=1e-12, atol=0.0)
        total = want[0][3] + want[1][3]
        assert r.weighted_sum_rate == pytest.approx(total, rel=1e-12)
        assert wsr_from_real(union, split_complex(np.concatenate([qa, qb]))) == pytest.approx(total, rel=1e-12)

    def test_infinite_threshold_makes_every_pair_an_edge(self):
        s = random_sample(13, n=4, nt=2).scenario
        got = graph_from_edges(s, interference_edges(s, np.inf)).edges.tolist()
        assert got == [[i, k] for i in range(4) for k in range(4) if i != k]

    def test_beamformer_shape_checked(self):
        sample = random_sample(14)
        with pytest.raises(ValueError, match="beamformer shape"):
            rate_report(sample.graph, np.zeros((3, 2)))


class TestSinr:
    def test_single_user_unit_case(self):
        s = make_scenario(np.ones((1, 1, 4)) * np.array([1, 0, 0, 0]), 1.0)
        q = np.zeros((1, 4), dtype=np.complex128)
        q[0, 0] = 1.0
        r = report(s, q, edges=np.empty((0, 2), dtype=np.intp))
        assert r.sinr[0] == pytest.approx(1.0, rel=1e-12)
        assert r.rate[0] == pytest.approx(1.0, rel=1e-12)
        assert r.interference[0] == 0.0

    def test_two_user_cross_talk_values(self):
        s, q, edges = two_user_case()
        r = report(s, q, edges)
        np.testing.assert_allclose(r.sinr, 1.0 / 0.35, rtol=1e-12)
        np.testing.assert_allclose(r.interference, 0.25, rtol=1e-12)
        np.testing.assert_allclose(r.rate, np.log2(1.0 + 1.0 / 0.35), rtol=1e-12)
        np.testing.assert_allclose(r.rate, 1.9476, atol=1e-3)
        assert r.weighted_sum_rate == pytest.approx(3.8952, abs=2e-3)
        assert r.weighted_sum_rate == pytest.approx(2 * r.rate[0], rel=1e-12)

    def test_scale_invariance(self):
        s, q, edges = two_user_case()
        scaled = make_scenario(s.channels * 10.0, 0.1 * 100.0)
        np.testing.assert_allclose(
            sinr(scaled, q, edges), sinr(s, q, edges), rtol=1e-12
        )

    def test_noise_monotonicity(self):
        sample = random_sample(0)
        q = baseline_beamformers(sample.scenario, "mrt")
        lo = sinr(sample.scenario, q, sample.graph.edges)
        hi_s = Scenario(
            tx_positions=sample.scenario.tx_positions,
            rx_positions=sample.scenario.rx_positions,
            channels=sample.scenario.channels,
            weights=sample.scenario.weights,
            noise_powers=sample.scenario.noise_powers * 4.0,
        )
        hi = sinr(hi_s, q, sample.graph.edges)
        assert np.all(hi < lo)

    def test_tiny_noise_power_is_used_as_is(self):
        # At 310 dB the noise power is about 1e-31: a vertex without
        # interferers has SINR |h^H q|^2 / sigma^2, however large.
        s = generate_scenario(ScenarioConfig(n_pairs=3, n_tx_antennas=4, snr_db=310.0), seed=0)
        assert np.all(s.noise_powers < 1e-30)
        q = baseline_beamformers(s, "mrt")
        r = report(s, q, edges=np.empty((0, 2), dtype=np.intp))
        diag = s.channels[np.arange(3), np.arange(3)]
        want = np.abs(np.sum(diag.conj() * q, axis=1)) ** 2 / s.noise_powers
        np.testing.assert_allclose(r.sinr, want, rtol=1e-12)

    def test_nonpositive_noise_rejected(self):
        s, q, edges = two_user_case()
        bad = make_scenario(s.channels, 0.0)
        with pytest.raises(ValueError, match="noise"):
            sinr(bad, q, edges)

    def test_edges_required_without_full_flag(self):
        s, q, _ = two_user_case()
        with pytest.raises(TypeError, match="edges"):
            sinr(s, q)

    def test_full_interference_counts_every_cross_link(self):
        # Dropping an edge removes its interference term; the full-graph
        # variant must therefore never report a larger denominator.
        s, q, edges = two_user_case()
        partial = report(s, q, edges[:1])
        full = report(s, q, interference_edges(s, np.inf))
        # The single kept edge (0, 1) carries TX 0's interference to RX 1.
        assert partial.interference[0] == 0.0
        assert partial.interference[1] == pytest.approx(0.25, rel=1e-12)
        np.testing.assert_allclose(full.interference, 0.25, rtol=1e-12)
        assert full.weighted_sum_rate < partial.weighted_sum_rate


class TestWeightedSumRate:
    def test_unit_sinr_sums_to_n(self):
        h = np.zeros((2, 2, 1), dtype=np.complex128)
        h[0, 0] = h[1, 1] = 1.0
        s = make_scenario(h, 1.0)
        q = np.ones((2, 1), dtype=np.complex128)
        empty = np.empty((0, 2), dtype=np.intp)
        assert weighted_sum_rate(s, q, empty) == pytest.approx(2.0, rel=1e-12)

    def test_zero_weights_zero_rate(self):
        s, q, edges = two_user_case()
        z = make_scenario(s.channels, 0.1, weights=[0.0, 0.0])
        assert weighted_sum_rate(z, q, edges) == 0.0

    def test_weights_scale_linearly(self):
        s, q, edges = two_user_case()
        w = make_scenario(s.channels, 0.1, weights=[2.0, 3.0])
        r = report(s, q, edges)
        expected = 2.0 * r.rate[0] + 3.0 * r.rate[1]
        assert weighted_sum_rate(w, q, edges) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("edges, problem", [
        ([[0, -1]], "negative edge index"),
        ([[1, 1]], "self-loop"),
        ([[0, 1], [0, 1]], "duplicate"),
        ([[0, 3]], "edge index >= its pair count 3"),
        ([[1, 0], [0, 1]], "not sorted"),
    ], ids=["negative", "self_loop", "duplicate", "out_of_range", "unsorted"])
    def test_edges_no_interference_graph_has_rejected(self, edges, problem):
        # Unchecked, -1 was rated as pair 2, a self-loop as the user's own
        # interference and a duplicate twice; pair 3 raised an IndexError.
        s = random_sample(14).scenario
        q = baseline_beamformers(s, "mrt")
        with pytest.raises(ValueError, match=f"edge list has .*{problem}"):
            weighted_sum_rate(s, q, np.array(edges))


class TestRealRoute:
    def test_matches_complex_route(self):
        # wsr_from_real on a sample's own graph, against the plain loop.
        for seed in range(8):
            sample = random_sample(seed, n=4, nt=3)
            q = random_beamformers(seed + 100, 4, 3)
            want = reference(sample.scenario, q, sample.graph.edges.tolist())[3]
            assert wsr_from_real(sample.graph, split_complex(q)) == pytest.approx(want, rel=1e-12)

    def test_terms_of_a_disjoint_union_sum_the_rates(self):
        a, b = random_sample(5, n=3, nt=2), random_sample(6, n=4, nt=2)
        rng = np.random.default_rng(50)
        qa, qb = rng.normal(size=(3, 4)), rng.normal(size=(4, 4))
        # A dataset graph holds the same constants graph_from_edges builds.
        assert wsr_from_real(a.graph, qa) == wsr_from_real(graph_from_edges(a.scenario, a.graph.edges), qa)
        union, _ = _union([a.graph, b.graph])
        want = wsr_from_real(a.graph, qa) + wsr_from_real(b.graph, qb)
        assert wsr_from_real(union, np.concatenate([qa, qb])) == pytest.approx(want, rel=1e-12)
        weighted = rate_report(union, np.concatenate([qa, qb])).weighted_rate
        assert np.add.reduce(weighted[:3]) == pytest.approx(wsr_from_real(a.graph, qa), rel=1e-12)
        assert np.add.reduce(weighted[3:]) == pytest.approx(wsr_from_real(b.graph, qb), rel=1e-12)

    def test_loss_single_sample_is_negative_wsr(self):
        # The training loss is -wsr_from_real on taped beamformers.
        sample = random_sample(1)
        q = baseline_beamformers(sample.scenario, "mrt")
        value = -wsr_from_real(sample.graph, Tensor(split_complex(q)))
        ref = weighted_sum_rate(sample.scenario, q, sample.graph.edges)
        assert value.data == pytest.approx(-ref, rel=1e-12)

    def test_loss_duplicate_invariance(self):
        # A union holding one sample twice has twice its loss, so the
        # per-sample mean a batch reports is unchanged.
        sample = random_sample(2)
        q = split_complex(baseline_beamformers(sample.scenario, "random", seed=3))
        twice, _ = _union([sample.graph, sample.graph])
        one = -wsr_from_real(sample.graph, Tensor(q)).data
        two = -wsr_from_real(twice, Tensor(np.concatenate([q, q]))).data
        assert two / 2 == pytest.approx(float(one), rel=1e-12)

    def test_loss_gradient_matches_finite_differences(self):
        sample = random_sample(4, n=3, nt=2)
        rng = np.random.default_rng(40)
        q0 = rng.normal(size=(3, 4)) * 0.4

        # The training loss is the negative weighted sum rate.
        t = Tensor(q0.copy(), requires_grad=True)
        out = -wsr_from_real(sample.graph, t)
        out.backward()

        def f(x):
            return -float(wsr_from_real(sample.graph, np.asarray(x)))

        eps = 1e-6
        for idx in np.ndindex(q0.shape):
            bump = q0.copy()
            bump[idx] += eps
            dent = q0.copy()
            dent[idx] -= eps
            fd = (f(bump) - f(dent)) / (2 * eps)
            assert t.grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestBaselines:
    def test_mrt_single_user_reaches_matched_filter_bound(self):
        cfg = ScenarioConfig(n_pairs=1, n_tx_antennas=4, seed=5)
        s = generate_scenario(cfg)
        q = baseline_beamformers(s, "mrt")
        h = s.channels[0, 0]
        expected = s.p_max * float(np.sum(np.abs(h) ** 2)) / s.noise_powers[0]
        got = sinr(s, q, np.empty((0, 2), dtype=np.intp))[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_mrt_uses_full_power(self):
        sample = random_sample(6)
        q = baseline_beamformers(sample.scenario, "mrt")
        np.testing.assert_allclose(
            np.sum(np.abs(q) ** 2, axis=1), sample.scenario.p_max, rtol=1e-12
        )

    def test_random_is_seeded_and_feasible(self):
        sample = random_sample(7)
        a = baseline_beamformers(sample.scenario, "random", seed=9)
        b = baseline_beamformers(sample.scenario, "random", seed=9)
        c = baseline_beamformers(sample.scenario, "random", seed=10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        np.testing.assert_allclose(np.sum(np.abs(a) ** 2, axis=1), 1.0, rtol=1e-12)

    def test_zero_gives_zero_rate(self):
        sample = random_sample(8)
        q = baseline_beamformers(sample.scenario, "zero")
        np.testing.assert_array_equal(q, np.zeros_like(q))
        assert weighted_sum_rate(sample.scenario, q, sample.graph.edges) == 0.0

    def test_mrt_beats_random_on_average(self):
        margin = []
        for seed in range(100):
            sample = random_sample(seed, n=3, nt=4)
            edges = sample.graph.edges
            mrt = weighted_sum_rate(
                sample.scenario, baseline_beamformers(sample.scenario, "mrt"), edges
            )
            rnd = weighted_sum_rate(
                sample.scenario,
                baseline_beamformers(sample.scenario, "random", seed=seed),
                edges,
            )
            margin.append(mrt - rnd)
        assert np.mean(margin) > 0.0

    def test_unknown_kind(self):
        sample = random_sample(9)
        with pytest.raises(ValueError, match="kind"):
            baseline_beamformers(sample.scenario, "zf")
