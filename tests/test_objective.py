"""Rate objective: SINR arithmetic, loss gradients, baseline beamformers."""

import numpy as np
import pytest

from lrgnn.autodiff import Tensor
from lrgnn.objective import (
    WsrTerms,
    baseline_beamformers,
    rate_report,
    sinr,
    weighted_sum_rate,
    wsr_from_real,
    wsr_terms,
)
from lrgnn.scenario import (
    Sample,
    Scenario,
    ScenarioConfig,
    build_graph,
    generate_scenario,
    split_complex,
)


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


class TestSinr:
    def test_single_user_unit_case(self):
        s = make_scenario(np.ones((1, 1, 4)) * np.array([1, 0, 0, 0]), 1.0)
        q = np.zeros((1, 4), dtype=np.complex128)
        q[0, 0] = 1.0
        r = rate_report(s, q, edges=np.empty((0, 2), dtype=np.intp))
        assert r.sinr[0] == pytest.approx(1.0, rel=1e-12)
        assert r.rate[0] == pytest.approx(1.0, rel=1e-12)
        assert r.interference[0] == 0.0

    def test_two_user_cross_talk_values(self):
        s, q, edges = two_user_case()
        r = rate_report(s, q, edges)
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

    def test_nonpositive_noise_rejected(self):
        s, q, edges = two_user_case()
        bad = make_scenario(s.channels, 0.0)
        with pytest.raises(ValueError, match="noise"):
            sinr(bad, q, edges)

    def test_edges_required_without_full_flag(self):
        s, q, _ = two_user_case()
        with pytest.raises(ValueError, match="edges"):
            sinr(s, q)

    def test_full_interference_counts_every_cross_link(self):
        # Dropping an edge removes its interference term; the full-graph
        # variant must therefore never report a larger denominator.
        s, q, edges = two_user_case()
        partial = rate_report(s, q, edges[:1])
        full = rate_report(s, q, full_interference=True)
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
        r = rate_report(s, q, edges)
        expected = 2.0 * r.rate[0] + 3.0 * r.rate[1]
        assert weighted_sum_rate(w, q, edges) == pytest.approx(expected, rel=1e-12)


class TestRealRoute:
    def test_matches_complex_route(self):
        for seed in range(8):
            sample = random_sample(seed, n=4, nt=3)
            rng = np.random.default_rng(seed + 100)
            q = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
            ref = weighted_sum_rate(sample.scenario, q, sample.graph.edges)
            got = wsr_from_real(sample.scenario, split_complex(q), sample.graph.edges)
            assert got == pytest.approx(ref, rel=1e-12)

    def test_terms_of_a_disjoint_union_sum_the_rates(self):
        a, b = random_sample(5, n=3, nt=2), random_sample(6, n=4, nt=2)
        rng = np.random.default_rng(50)
        qa, qb = rng.normal(size=(3, 4)), rng.normal(size=(4, 4))
        ta = wsr_terms(a.scenario, a.graph.edges)
        tb = wsr_terms(b.scenario, b.graph.edges)
        assert wsr_from_real(ta, qa) == wsr_from_real(a.scenario, qa, a.graph.edges)
        union = WsrTerms(*(np.concatenate(p) for p in zip(ta, tb._replace(pairs=tb.pairs + 3))))
        want = wsr_from_real(a.scenario, qa, a.graph.edges) + wsr_from_real(b.scenario, qb, b.graph.edges)
        assert wsr_from_real(union, np.concatenate([qa, qb])) == pytest.approx(want, rel=1e-12)
        with pytest.raises(ValueError, match="WsrTerms"):
            wsr_from_real(ta, qa, a.graph.edges)

    def test_loss_single_sample_is_negative_wsr(self):
        # The training loss is -wsr_from_real on taped beamformers.
        sample = random_sample(1)
        q = baseline_beamformers(sample.scenario, "mrt")
        value = -wsr_from_real(sample.scenario, Tensor(split_complex(q)), sample.graph.edges)
        ref = weighted_sum_rate(sample.scenario, q, sample.graph.edges)
        assert value.data == pytest.approx(-ref, rel=1e-12)

    def test_loss_duplicate_invariance(self):
        # A union holding one sample twice has twice its loss, so the
        # per-sample mean a batch reports is unchanged.
        sample = random_sample(2)
        q = split_complex(baseline_beamformers(sample.scenario, "random", seed=3))
        t = wsr_terms(sample.scenario, sample.graph.edges)
        shifted = t._replace(pairs=t.pairs + sample.scenario.n_pairs)
        twice = WsrTerms(*(np.concatenate(p) for p in zip(t, shifted)))
        one = -wsr_from_real(t, Tensor(q)).data
        two = -wsr_from_real(twice, Tensor(np.concatenate([q, q]))).data
        assert two / 2 == pytest.approx(float(one), rel=1e-12)

    def test_loss_gradient_matches_finite_differences(self):
        sample = random_sample(4, n=3, nt=2)
        rng = np.random.default_rng(40)
        q0 = rng.normal(size=(3, 4)) * 0.4

        # The training loss is the negative weighted sum rate.
        t = Tensor(q0.copy(), requires_grad=True)
        out = -wsr_from_real(sample.scenario, t, sample.graph.edges)
        out.backward()

        def f(x):
            return -float(wsr_from_real(sample.scenario, np.asarray(x), sample.graph.edges))

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
