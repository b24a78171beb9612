"""Network generation, graph construction, and dataset file checks."""

import dataclasses
import math
import struct

import numpy as np
import pytest

from lrgnn.scenario import (
    DatasetFormatError,
    Graph,
    Sample,
    ScenarioConfig,
    build_graph,
    generate_dataset,
    generate_scenario,
    graph_from_edges,
    interference_edges,
    merge_complex,
    pathloss_db,
    read_dataset,
    split_complex,
    write_dataset,
)


def small_cfg(**kw):
    base = dict(n_pairs=4, n_tx_antennas=3, seed=1)
    base.update(kw)
    return ScenarioConfig(**base)


class TestConfigValidation:
    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError, match="n_pairs"):
            ScenarioConfig(n_pairs=0, n_tx_antennas=2)
        with pytest.raises(ValueError, match="n_tx_antennas"):
            ScenarioConfig(n_pairs=2, n_tx_antennas=0)

    def test_rejects_bad_distances(self):
        with pytest.raises(ValueError, match="d_min"):
            ScenarioConfig(n_pairs=2, n_tx_antennas=2, d_min=50.0, d_max=10.0)
        with pytest.raises(ValueError, match="area_side"):
            ScenarioConfig(n_pairs=2, n_tx_antennas=2, d_max=3000.0)
        with pytest.raises(ValueError, match="d_min"):
            ScenarioConfig(n_pairs=2, n_tx_antennas=2, d_min=0.0)

    def test_rejects_bad_enums_and_signs(self):
        with pytest.raises(ValueError, match="pathloss_log_base"):
            ScenarioConfig(n_pairs=2, n_tx_antennas=2, pathloss_log_base="ln")
        with pytest.raises(ValueError, match="weights_mode"):
            ScenarioConfig(n_pairs=2, n_tx_antennas=2, weights_mode="exp")
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="p_max"):
                ScenarioConfig(n_pairs=2, n_tx_antennas=2, p_max=bad)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="snr_db"):
                ScenarioConfig(n_pairs=2, n_tx_antennas=2, snr_db=bad)
        with pytest.raises(ValueError, match="edge_threshold"):
            ScenarioConfig(n_pairs=2, n_tx_antennas=2, edge_threshold=-1.0)
        with pytest.raises(ValueError, match="shadow_sigma_db"):
            ScenarioConfig(n_pairs=2, n_tx_antennas=2, shadow_sigma_db=-0.1)

    def test_rejects_non_finite_settings(self):
        # NaN passes every comparison check, and an infinite area or gain
        # overflows the generator or the channels.
        for name in ("area_side", "d_min", "d_max", "edge_threshold", "antenna_gain_dbi",
                     "shadow_sigma_db"):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    ScenarioConfig(n_pairs=2, n_tx_antennas=2, **{name: bad})


class TestPathloss:
    def test_frozen_value_at_100m(self):
        # 148.1 + 37.6*log10(0.1) = 148.1 - 37.6 = 110.5 dB.
        assert pathloss_db(100.0) == pytest.approx(110.5, abs=1e-12)

    def test_log2_base(self):
        # 148.1 + 37.6*log2(0.1).
        expected = 148.1 + 37.6 * np.log2(0.1)
        assert pathloss_db(100.0, base="log2") == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_distance(self):
        d = np.linspace(10.0, 500.0, 50)
        losses = pathloss_db(d)
        assert np.all(np.diff(losses) > 0.0)


class TestGenerateScenario:
    def test_deterministic_given_seed(self):
        cfg = small_cfg()
        a = generate_scenario(cfg, seed=9)
        b = generate_scenario(cfg, seed=9)
        np.testing.assert_array_equal(a.channels, b.channels)
        np.testing.assert_array_equal(a.tx_positions, b.tx_positions)
        c = generate_scenario(cfg, seed=10)
        assert not np.array_equal(a.channels, c.channels)

    def test_geometry_respects_distance_band(self):
        cfg = small_cfg(n_pairs=30, seed=3)
        s = generate_scenario(cfg)
        d = np.linalg.norm(s.tx_positions - s.rx_positions, axis=1)
        # f32 rounding of positions can nudge distances by a hair.
        assert np.all(d >= cfg.d_min - 1e-2)
        assert np.all(d <= cfg.d_max + 1e-2)
        assert np.all(s.tx_positions >= 0.0) and np.all(s.tx_positions <= cfg.area_side)

    def test_mean_desired_power_is_one(self):
        s = generate_scenario(small_cfg(n_pairs=6, seed=2))
        n = s.n_pairs
        desired = s.channels[np.arange(n), np.arange(n), :]
        mean_power = np.mean(np.sum(np.abs(desired) ** 2, axis=1))
        assert mean_power == pytest.approx(1.0, rel=1e-6)

    def test_noise_follows_snr(self):
        s = generate_scenario(small_cfg(snr_db=10.0, p_max=2.0))
        np.testing.assert_allclose(s.noise_powers, 2.0 / 10.0, rtol=1e-7)

    def test_channel_formula_replay(self):
        # Recompute the whole channel pipeline from the documented RNG
        # consumption order and compare against the stored channels.
        cfg = small_cfg(n_pairs=5, n_tx_antennas=2, shadow_sigma_db=8.0)
        seed = 42
        s = generate_scenario(cfg, seed=seed)

        rg = np.random.Generator(np.random.PCG64(seed))
        n, nt = cfg.n_pairs, cfg.n_tx_antennas
        tx = rg.uniform(0.0, cfg.area_side, size=(n, 2))
        ang = rg.uniform(0.0, 2.0 * np.pi, size=n)
        rad = rg.uniform(cfg.d_min, cfg.d_max, size=n)
        rx = tx + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        d = np.sqrt(((tx[:, None, :] - rx[None, :, :]) ** 2).sum(axis=2))
        loss_db = 148.1 + 37.6 * np.log10(d / 1000.0)
        rho = np.power(10.0, rg.normal(0.0, cfg.shadow_sigma_db, size=(n, n)) / 10.0)
        g = (rg.standard_normal((n, n, nt)) + 1j * rg.standard_normal((n, n, nt))) / np.sqrt(2.0)
        psi = np.power(10.0, cfg.antenna_gain_dbi / 10.0)
        h = (np.power(10.0, -loss_db / 20.0) * np.sqrt(psi * rho))[:, :, None] * g
        diag = h[np.arange(n), np.arange(n), :]
        alpha = 1.0 / np.sqrt(np.mean(np.sum(np.abs(diag) ** 2, axis=1)))
        h = alpha * h

        # Stored values went through one f32 round trip.
        np.testing.assert_allclose(s.channels, h, rtol=2e-6, atol=1e-9)
        np.testing.assert_allclose(s.scale_factor, alpha, rtol=1e-12)

    def test_shadowless_magnitude_matches_formula(self):
        # With zero shadowing, |h_in| = alpha * 10^(-L/20) * sqrt(psi) * |g|.
        cfg = small_cfg(n_pairs=3, n_tx_antennas=4, shadow_sigma_db=0.0)
        s = generate_scenario(cfg, seed=8)
        rg = np.random.Generator(np.random.PCG64(8))
        n, nt = 3, 4
        tx = rg.uniform(0.0, cfg.area_side, size=(n, 2))
        ang = rg.uniform(0.0, 2.0 * np.pi, size=n)
        rad = rg.uniform(cfg.d_min, cfg.d_max, size=n)
        rx = tx + rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
        d = np.linalg.norm(tx[:, None, :] - rx[None, :, :], axis=2)
        g = (rg.standard_normal((n, n, nt)) + 1j * rg.standard_normal((n, n, nt))) / np.sqrt(2.0)
        mag = 10.0 ** (-pathloss_db(d) / 20.0) * np.sqrt(10.0 ** 0.9)
        expected = s.scale_factor * mag[:, :, None] * np.abs(g)
        np.testing.assert_allclose(np.abs(s.channels), expected, rtol=2e-6)

    def test_weight_modes(self):
        ones = generate_scenario(small_cfg(weights_mode="all_ones"))
        np.testing.assert_array_equal(ones.weights, np.ones(4))
        rnd = generate_scenario(small_cfg(weights_mode="uniform01", n_pairs=40))
        assert np.all((rnd.weights >= 0.0) & (rnd.weights <= 1.0))
        assert np.std(rnd.weights) > 0.0

    def test_values_survive_f32(self):
        s = generate_scenario(small_cfg())
        for a in (s.tx_positions, s.rx_positions, s.weights, s.noise_powers,
                  s.channels.real, s.channels.imag):
            np.testing.assert_array_equal(a, a.astype(np.float32).astype(np.float64))


class TestGraph:
    def test_edges_threshold_and_order(self):
        cfg = small_cfg(n_pairs=6, edge_threshold=800.0, seed=4)
        s = generate_scenario(cfg)
        edges = interference_edges(s, cfg.edge_threshold)
        d = np.linalg.norm(s.tx_positions[:, None, :] - s.rx_positions[None, :, :], axis=2)
        expected = {(i, j) for i in range(6) for j in range(6) if i != j and d[i, j] < 800.0}
        assert {tuple(e) for e in edges} == expected
        assert all(e[0] != e[1] for e in edges)
        # Lexicographic order by (source, target).
        assert edges.tolist() == sorted(edges.tolist())

    def test_vertex_features_layout(self):
        cfg = small_cfg()
        s = generate_scenario(cfg)
        g = build_graph(s, cfg)
        n, nt = s.n_pairs, s.n_tx_antennas
        assert g.vertex_features.shape == (n, 2 * nt + 2)
        diag = s.channels[np.arange(n), np.arange(n), :]
        np.testing.assert_array_equal(g.vertex_features[:, :nt], diag.real)
        np.testing.assert_array_equal(g.vertex_features[:, nt : 2 * nt], diag.imag)
        np.testing.assert_array_equal(g.vertex_features[:, 2 * nt], s.weights)
        np.testing.assert_array_equal(g.vertex_features[:, 2 * nt + 1], s.noise_powers)
        assert g.n_tx_antennas == nt

    def test_edge_features_align_with_edges(self):
        cfg = small_cfg(n_pairs=5, edge_threshold=1500.0, seed=6)
        s = generate_scenario(cfg)
        g = build_graph(s, cfg)
        for k, (i, j) in enumerate(g.edges):
            np.testing.assert_array_equal(g.edge_features[k],
                                          split_complex(s.channels[i, j]))

    def test_no_edges_case(self):
        cfg = small_cfg(edge_threshold=1e-6)
        s = generate_scenario(cfg)
        g = build_graph(s, cfg)
        assert g.edges.shape == (0, 2)
        assert g.edge_features.shape == (0, 2 * s.n_tx_antennas)

    def test_split_merge_roundtrip(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        np.testing.assert_array_equal(merge_complex(split_complex(h)), h)


class TestDatasetFiles:
    def test_roundtrip_identical(self, tmp_path):
        cfg = small_cfg(n_pairs=3, n_tx_antennas=2)
        samples = generate_dataset(cfg, 3)
        path = tmp_path / "data.bin"
        write_dataset(samples, path)
        back = read_dataset(path)
        assert len(back) == 3
        for (s0, g0), (s1, g1) in zip(samples, back):
            np.testing.assert_array_equal(s0.channels, s1.channels)
            np.testing.assert_array_equal(s0.tx_positions, s1.tx_positions)
            np.testing.assert_array_equal(s0.rx_positions, s1.rx_positions)
            np.testing.assert_array_equal(s0.weights, s1.weights)
            np.testing.assert_array_equal(s0.noise_powers, s1.noise_powers)
            np.testing.assert_array_equal(g0.edges, g1.edges)
            np.testing.assert_array_equal(g0.vertex_features, g1.vertex_features)
            np.testing.assert_array_equal(g0.edge_features, g1.edge_features)

    def test_write_is_byte_deterministic(self, tmp_path):
        cfg = small_cfg()
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        write_dataset(generate_dataset(cfg, 2), a)
        write_dataset(generate_dataset(cfg, 2), b)
        assert a.read_bytes() == b.read_bytes()

    def test_per_sample_seeds_differ(self):
        cfg = small_cfg()
        samples = generate_dataset(cfg, 2)
        assert not np.array_equal(samples[0].scenario.channels, samples[1].scenario.channels)
        # Disjoint index ranges give disjoint streams.
        more = generate_dataset(cfg, 2, first_index=2)
        assert not np.array_equal(samples[0].scenario.channels, more[0].scenario.channels)

    def test_rejects_empty_and_mixed_shapes(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            write_dataset([], tmp_path / "x.bin")
        a = generate_dataset(small_cfg(), 1)
        b = generate_dataset(small_cfg(n_pairs=5), 1)
        with pytest.raises(ValueError, match="shape"):
            write_dataset(a + b, tmp_path / "x.bin")
        c = generate_dataset(small_cfg(p_max=2.0), 1)
        with pytest.raises(ValueError, match="sample 1 has p_max 2.0, expected 1.0"):
            write_dataset(a + c, tmp_path / "x.bin")

    def test_power_budget_roundtrip(self, tmp_path):
        p = tmp_path / "p.bin"
        write_dataset(generate_dataset(small_cfg(p_max=4.0), 2), p)
        assert p.read_bytes()[20:28] == struct.pack("<d", 4.0)
        assert [s.scenario.p_max for s in read_dataset(p)] == [4.0, 4.0]

    def test_version_1_loads_with_unit_power_budget(self, tmp_path):
        samples = generate_dataset(small_cfg(p_max=4.0), 2)
        p = tmp_path / "v1.bin"
        write_dataset(samples, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:20] + raw[28:])
        back = read_dataset(p)
        assert [s.scenario.p_max for s in back] == [1.0, 1.0]
        np.testing.assert_array_equal(back[1].scenario.channels, samples[1].scenario.channels)

    @pytest.mark.parametrize("p_max", [0.0, -1.0, math.nan, math.inf])
    def test_unusable_stored_power_budget_reported(self, tmp_path, p_max):
        p = tmp_path / "p.bin"
        write_dataset(generate_dataset(small_cfg(), 1), p)
        raw = p.read_bytes()
        p.write_bytes(raw[:20] + struct.pack("<d", p_max) + raw[28:])
        with pytest.raises(DatasetFormatError, match="p_max .* is not finite and positive"):
            read_dataset(p)

    def test_bad_magic_reported(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DatasetFormatError, match="bad magic"):
            read_dataset(p)

    def test_bad_version_reported(self, tmp_path):
        cfg = small_cfg()
        p = tmp_path / "v.bin"
        write_dataset(generate_dataset(cfg, 1), p)
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="version"):
            read_dataset(p)

    def test_truncation_reported(self, tmp_path):
        cfg = small_cfg()
        p = tmp_path / "t.bin"
        write_dataset(generate_dataset(cfg, 2), p)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(DatasetFormatError, match="truncated"):
            read_dataset(p)

    def test_trailing_bytes_reported(self, tmp_path):
        cfg = small_cfg()
        p = tmp_path / "x.bin"
        write_dataset(generate_dataset(cfg, 1), p)
        p.write_bytes(p.read_bytes() + b"\x00\x00")
        with pytest.raises(DatasetFormatError, match="trailing"):
            read_dataset(p)

    @pytest.mark.parametrize("edges, problem", [
        ([[0, 1], [2, 7]], "edge index"),
        ([[0, 1], [1, 1]], "self-loop"),
        ([[0, 1], [0, 1]], "duplicate"),
        ([[1, 0], [0, 2]], "not sorted"),
    ], ids=["out_of_range", "self_loop", "duplicate", "unsorted"])
    def test_bad_edges_reported(self, tmp_path, edges, problem):
        good = generate_dataset(small_cfg(n_pairs=3), 2)
        s, g = good[1]
        bad = np.array(edges, dtype=np.intp)
        graph = Graph(g.vertex_features, bad, np.zeros((bad.shape[0], g.edge_features.shape[1])))
        p = tmp_path / "e.bin"
        write_dataset([good[0], Sample(s, graph)], p)
        with pytest.raises(DatasetFormatError, match=f"sample 1 .*{problem}"):
            read_dataset(p)

    def test_non_finite_float_reported(self, tmp_path):
        p = tmp_path / "f.bin"
        write_dataset(generate_dataset(small_cfg(n_pairs=3), 2), p)
        raw = bytearray(p.read_bytes())
        # Header 28 bytes, then sample 0: TX and RX xy (2 * 24 bytes),
        # then the channels.
        raw[76:80] = np.array([np.nan], dtype="<f4").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="non-finite value in sample 0 channels"):
            read_dataset(p)

    @pytest.mark.parametrize("noise", [0.0, -1.0])
    def test_nonpositive_noise_reported(self, tmp_path, noise):
        good = generate_dataset(small_cfg(n_pairs=3), 2)
        s, g = good[1]
        bad = Sample(dataclasses.replace(s, noise_powers=np.array([0.1, noise, 0.1])), g)
        p = tmp_path / "n.bin"
        write_dataset([good[0], bad], p)
        with pytest.raises(DatasetFormatError, match="sample 1 has a noise power <= 0"):
            read_dataset(p)

    def test_graph_rebuilt_from_stored_edges(self, tmp_path):
        # read_dataset must not re-threshold: edges come from the file.
        cfg = small_cfg(n_pairs=3)
        s = generate_scenario(cfg)
        custom = np.array([[0, 1]], dtype=np.intp)
        sample = Sample(s, graph_from_edges(s, custom))
        p = tmp_path / "c.bin"
        write_dataset([sample], p)
        back = read_dataset(p)
        np.testing.assert_array_equal(back[0].graph.edges, custom)
