"""Size analytics: reduction formula, spectra, SVD factorization, CSVs."""

import csv
import os

import numpy as np
import pytest

from lrgnn.compression import (
    TABLE_A1,
    TABLE_A2,
    layer_spectra,
    reduction_fraction,
    singular_values,
    size_ratio_table,
    svd_truncate,
    weight_histogram,
    weight_matrices,
    write_grid,
    write_singular_values,
    write_weight_histogram,
)
from lrgnn.mpgnn import MpgnnArch, count_model_params, init_params, param_counts, save_model


class TestReductionFraction:
    def test_frozen_values(self):
        assert reduction_fraction(512, 4, 4) == pytest.approx(0.9835600907029478, rel=1e-15)
        assert reduction_fraction(512, 64, 512) == pytest.approx(-0.2947845804988662, rel=1e-12)

    def test_zero_rank_removes_everything(self):
        for nt in (1, 16, 512):
            assert reduction_fraction(nt, 0, 0) == pytest.approx(1.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="antenna"):
            reduction_fraction(0, 4, 4)
        with pytest.raises(ValueError, match="ranks"):
            reduction_fraction(16, -1, 4)

    def test_equals_counted_fraction_on_grid(self):
        for nt in (16, 512):
            dense = param_counts(nt, None, include_bias=False).total
            for a1 in TABLE_A1:
                for a2 in TABLE_A2:
                    counted = 1.0 - param_counts(nt, (a1, a2), include_bias=False).total / dense
                    formula = reduction_fraction(nt, a1, a2)
                    assert abs(formula - counted) <= 1e-12 * max(1.0, abs(formula))


class TestCounts:
    def test_dense_frozen(self):
        dense = param_counts(512, None, include_bias=False).total
        assert dense == 1806336
        assert dense == 1152 * (3 * 512 + 32)

    def test_lowrank_frozen(self):
        assert param_counts(512, (4, 4), include_bias=False).total == 29696
        dense = param_counts(512, None, include_bias=False).total
        ratio = dense / param_counts(512, (4, 4), include_bias=False).total
        assert ratio == pytest.approx(60.83, abs=0.01)

    def test_matches_model_level_counts(self):
        arch = MpgnnArch(n_tx_antennas=16, kind="low_rank", rank1=8, rank2=8)
        assert param_counts(16, (8, 8), include_bias=False) == count_model_params(arch, include_bias=False)
        assert param_counts(16, (8, 8), include_bias=True) == count_model_params(arch, include_bias=True)

    def test_matches_stored_array_sizes(self):
        arch = MpgnnArch(n_tx_antennas=8)
        params = init_params(arch, 0)
        stored = sum(a.size for _, a in weight_matrices(params))
        assert stored == param_counts(8, None, include_bias=False).total

    def test_overcomplete_ranks_countable(self):
        # Ranks beyond the trainable caps are still measurable objects.
        assert param_counts(16, (4, 512), include_bias=False).total > 0


class TestSizeRatioTable:
    def test_grid_shape_and_consistency(self):
        grid = size_ratio_table(512)
        assert grid.p_values.shape == (4, 7)
        np.testing.assert_allclose(grid.p_values, 1.0 - 1.0 / grid.size_ratios, rtol=1e-12)

    def test_anchor_cells(self):
        grid = size_ratio_table(512)
        assert grid.size_ratios[3, 6] == pytest.approx(0.77, rel=0.01)  # (64, 512)
        assert grid.size_ratios[0, 6] == pytest.approx(0.84, rel=0.01)  # (4, 512)

    def test_ratios_decrease_with_rank(self):
        grid = size_ratio_table(512)
        assert np.all(np.diff(grid.size_ratios, axis=0) < 0)
        assert np.all(np.diff(grid.size_ratios, axis=1) < 0)

    def test_custom_grid(self):
        grid = size_ratio_table(16, a1_values=(2,), a2_values=(2, 4))
        assert grid.size_ratios.shape == (1, 2)
        dense, lr = (param_counts(16, ranks, include_bias=False).total for ranks in (None, (2, 2)))
        assert grid.size_ratios[0, 0] == dense / lr


class TestWeightHistogram:
    def test_counts_conserve_parameters(self):
        arch = MpgnnArch(n_tx_antennas=4, kind="low_rank", rank1=3, rank2=3)
        params = init_params(arch, 1)
        report = weight_histogram(params, n_bins=20)
        assert int(report.pooled.counts.sum()) == param_counts(4, (3, 3), include_bias=False).total
        per_matrix = sum(int(m.counts.sum()) for m in report.matrices)
        assert per_matrix == param_counts(4, (3, 3), include_bias=False).total
        assert len(report.bin_edges) == 21

    def test_zero_weights_degenerate_range(self):
        arch = MpgnnArch(n_tx_antennas=2)
        params = init_params(arch, 0)
        zeroed = type(params)(
            mlp1=params.mlp1, mlp2=params.mlp2
        )
        for mlp in (zeroed.mlp1, zeroed.mlp2):
            for layer in mlp.layers:
                layer.weight[...] = 0.0
        report = weight_histogram(zeroed, n_bins=5)
        assert report.pooled.mean == 0.0
        assert report.bin_edges[0] == -0.5 and report.bin_edges[-1] == 0.5
        assert int(report.pooled.counts.sum()) == param_counts(2, None, include_bias=False).total

    def test_pooled_moments_reasonable(self):
        params = init_params(MpgnnArch(n_tx_antennas=8), 2)
        report = weight_histogram(params)
        assert abs(report.pooled.mean) < 0.01
        assert report.pooled.std > 0.0
        assert report.pooled.min < 0.0 < report.pooled.max

    def test_bad_bin_count(self):
        params = init_params(MpgnnArch(n_tx_antennas=2), 0)
        with pytest.raises(ValueError, match="n_bins"):
            weight_histogram(params, n_bins=0)
        # More bins than weights is refused before the bin edges exist.
        count = param_counts(2, None, include_bias=False).total
        assert int(weight_histogram(params, n_bins=count).pooled.counts.sum()) == count
        with pytest.raises(ValueError, match=f"pooled weight count {count}, got {count + 1}"):
            weight_histogram(params, n_bins=count + 1)


class TestSpectra:
    def test_identity_singular_values(self):
        np.testing.assert_allclose(singular_values(np.eye(3)), np.ones(3), rtol=1e-12)

    def test_descending_and_frobenius_identity(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(6, 9))
        s = singular_values(w)
        assert s.shape == (6,)
        assert np.all(np.diff(s) <= 0)
        assert np.sum(s**2) == pytest.approx(np.sum(w**2), rel=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            singular_values(np.ones(4))
        with pytest.raises(ValueError, match="finite"):
            singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_layer_spectra_names_and_eigs(self):
        params = init_params(MpgnnArch(n_tx_antennas=4), 4)
        spectra = layer_spectra(params)
        assert [name for name, _, _ in spectra] == ["mlp1.0", "mlp1.1", "mlp2.0", "mlp2.1"]
        by_name = {name: (s, e) for name, s, e in spectra}
        # mlp1 layer 1 is 64x64: eigenvalues are defined and descending.
        s, e = by_name["mlp1.1"]
        assert e is not None and e.shape == (64,)
        assert np.all(np.diff(e) <= 0)
        assert by_name["mlp2.0"][1] is None

    def test_factorized_layer_rank_bound(self):
        arch = MpgnnArch(n_tx_antennas=4, kind="low_rank", rank1=2, rank2=2)
        spectra = dict((n, s) for n, s, _ in layer_spectra(init_params(arch, 5)))
        for s in spectra.values():
            assert np.sum(s > 1e-12) <= 2


class TestSvdTruncate:
    def test_full_rank_reconstructs_exactly(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(5, 8))
        u, v = svd_truncate(w, 5)
        np.testing.assert_allclose((u @ v).T, w, atol=1e-9)

    def test_rank_one_matrix_recovered_at_rank_one(self):
        a = np.outer(np.arange(1.0, 5.0), np.arange(1.0, 7.0))
        u, v = svd_truncate(a, 1)
        np.testing.assert_allclose((u @ v).T, a, atol=1e-9)

    def test_error_equals_singular_tail(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(10, 12))
        s = singular_values(w)
        for r in (1, 3, 7):
            u, v = svd_truncate(w, r)
            err = np.sum((w - (u @ v).T) ** 2)
            assert err == pytest.approx(np.sum(s[r:] ** 2), rel=1e-9)

    def test_best_among_random_factorizations(self):
        rng = np.random.default_rng(8)
        w = rng.normal(size=(9, 7))
        r = 3
        u, v = svd_truncate(w, r)
        best = np.sum((w - (u @ v).T) ** 2)
        for _ in range(20):
            ru = rng.normal(size=(7, r))
            rv = rng.normal(size=(r, 9))
            assert np.sum((w - (ru @ rv).T) ** 2) >= best - 1e-9

    def test_rank_bounds(self):
        w = np.ones((4, 6))
        with pytest.raises(ValueError, match="rank"):
            svd_truncate(w, 0)
        with pytest.raises(ValueError, match="rank"):
            svd_truncate(w, 5)
        with pytest.raises(ValueError, match="2-D"):
            svd_truncate(np.ones(3), 1)

    def test_factor_shapes(self):
        u, v = svd_truncate(np.ones((4, 6)), 2)
        assert u.shape == (6, 2) and v.shape == (2, 4)


class TestDiskAndCsv:
    def test_model_file_size(self, tmp_path):
        arch = MpgnnArch(n_tx_antennas=4)
        path = tmp_path / "m.bin"
        save_model(path, arch, init_params(arch, 0))
        total = count_model_params(arch, include_bias=True).total
        assert os.path.getsize(path) == 36 + 48 + 4 * total

    def test_size_table_csv_round_trip(self, tmp_path):
        grid = size_ratio_table(512)
        path = tmp_path / "table.csv"
        write_grid(grid, grid.size_ratios, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["a1/a2", "4", "16", "32", "64", "128", "256", "512"]
        assert [r[0] for r in rows[1:]] == ["4", "16", "32", "64"]
        parsed = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        np.testing.assert_array_equal(parsed, grid.size_ratios)

    def test_p_heatmap_csv(self, tmp_path):
        grid = size_ratio_table(16, a1_values=(2, 3), a2_values=(2,))
        path = tmp_path / "p.csv"
        write_grid(grid, grid.p_values, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 3
        assert float(rows[1][1]) == grid.p_values[0, 0]

    def test_histogram_csv_layout(self, tmp_path):
        params = init_params(MpgnnArch(n_tx_antennas=2), 3)
        report = weight_histogram(params, n_bins=4)
        path = tmp_path / "hist.csv"
        write_weight_histogram(report, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][:5] == ["matrix", "bin", "lo", "hi", "count"]
        # 4 matrices plus the pooled row set, 4 bins each, one header.
        assert len(rows) == 1 + 5 * 4
        total = sum(int(r[4]) for r in rows[1:] if r[0] == "pooled")
        assert total == param_counts(2, None, include_bias=False).total

    def test_singular_value_csv(self, tmp_path):
        params = init_params(MpgnnArch(n_tx_antennas=2), 4)
        path = tmp_path / "svals.csv"
        write_singular_values(params, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["layer", "index", "singular_value", "eigenvalue_magnitude"]
        names = {r[0] for r in rows[1:]}
        assert names == {"mlp1.0", "mlp1.1", "mlp2.0", "mlp2.1"}
        mlp11 = [r for r in rows[1:] if r[0] == "mlp1.1"]
        assert len(mlp11) == 64 and all(r[3] != "" for r in mlp11)
