"""Command-line interface: plumbing, settings, exit codes, outputs."""

import csv
import dataclasses
import json
import os
import re
import resource
import struct
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from lrgnn.cli import main
from lrgnn.compression import size_ratio_table
from lrgnn.mpgnn import load_model
from lrgnn.objective import baseline_beamformers
from lrgnn.scenario import Sample, graph_from_edges, read_dataset, write_dataset
from lrgnn.trainer import sample_rates


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main([
        "gen-data", "--out", str(out), "--pairs", "2", "--antennas", "2",
        "--train", "6", "--test", "3", "--seed", "1",
    ])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, data_dir):
    out = tmp_path_factory.mktemp("model")
    rc = main([
        "train", "--data", str(data_dir), "--out", str(out),
        "--ranks", "dense", "--epochs", "1", "--batch-size", "6",
    ])
    assert rc == 0
    return out


class TestGenData:
    def test_outputs_and_shapes(self, data_dir):
        train = read_dataset(data_dir / "train.bin")
        test = read_dataset(data_dir / "test.bin")
        assert len(train) == 6 and len(test) == 3
        s = train[0].scenario
        assert s.n_pairs == 2 and s.n_tx_antennas == 2
        assert (data_dir / "gen_config.json").exists()

    def test_echo_reflects_resolved_settings(self, data_dir):
        echo = json.loads((data_dir / "gen_config.json").read_text())
        assert echo["train"] == 6 and echo["test"] == 3
        assert echo["pairs"] == 2 and echo["antennas"] == 2 and echo["seed"] == 1
        assert echo["edge_threshold"] == 500.0

    def test_reruns_are_byte_identical(self, data_dir, tmp_path):
        rc = main([
            "gen-data", "--out", str(tmp_path), "--pairs", "2", "--antennas", "2",
            "--train", "6", "--test", "3", "--seed", "1",
        ])
        assert rc == 0
        assert (tmp_path / "train.bin").read_bytes() == (data_dir / "train.bin").read_bytes()
        assert (tmp_path / "gen_config.json").read_bytes() == (
            data_dir / "gen_config.json"
        ).read_bytes()

    def test_train_and_test_splits_differ(self, data_dir):
        train = read_dataset(data_dir / "train.bin")
        test = read_dataset(data_dir / "test.bin")
        assert not np.array_equal(train[0].scenario.channels, test[0].scenario.channels)

    def test_no_test_set_removes_a_stale_test_file(self, tmp_path, capsys):
        # A directory that holds an earlier run's test.bin: train must not
        # score the new run on it.
        data = tmp_path / "data"
        gen = ["gen-data", "--out", str(data), "--pairs", "2", "--antennas", "2", "--train", "4"]
        assert main([*gen, "--test", "3", "--seed", "1"]) == 0
        assert main([*gen, "--test", "0", "--seed", "9"]) == 0
        assert not (data / "test.bin").exists()
        assert json.loads((data / "gen_config.json").read_text())["test"] == 0
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
                     "--epochs", "1", "--batch-size", "4"]) == 0
        assert "test sum rate" not in capsys.readouterr().out

    def test_removed_pathloss_log_base_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as e:
            main(["gen-data", "--out", str(out), "--pathloss-log-base", "log10"])
        assert e.value.code == 2
        assert "unrecognized arguments: --pathloss-log-base" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_out_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["gen-data", "--train", "2"])
        assert e.value.code == 2

    def test_non_finite_p_max_rejected(self, tmp_path, capsys):
        rc = main(["gen-data", "--out", str(tmp_path / "o"), "--p-max", "nan"])
        assert rc == 1
        assert "p_max" in capsys.readouterr().err
        assert not (tmp_path / "o" / "train.bin").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--edge-threshold", "nan"),
        ("--area-side", "nan"),
        ("--antenna-gain-dbi", "inf"),
    ])
    def test_non_finite_scenario_setting_is_one_line_error(self, tmp_path, capsys, flag, value):
        rc = main(["gen-data", "--out", str(tmp_path / "o"), "--train", "2", "--test", "1",
                   flag, value])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "must be finite" in err
        assert not (tmp_path / "o" / "train.bin").exists()

    @pytest.mark.parametrize("flag, value, derived", [
        ("--antenna-gain-dbi", "4000", "linear antenna gain is inf"),
        ("--snr-db", "4000", "noise power is 0.0"),
        ("--snr-db", "-4000", "noise power is inf"),
        ("--area-side", "1e308", "largest position coordinate is inf"),
        # The gain passes, but |h|^2 underflows (the normalization is
        # then inf) or psi * rho overflows.
        ("--antenna-gain-dbi", "-3200", "largest channel power is inf"),
        ("--antenna-gain-dbi", "3080", "largest channel power is nan"),
    ])
    def test_unusable_derived_value_is_one_line_error(self, tmp_path, capsys, flag, value, derived):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["gen-data", "--out", str(tmp_path / "o"), "--train", "2", "--test", "1",
                       flag, value])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert derived in err and "must be finite and positive" in err
        assert not (tmp_path / "o" / "train.bin").exists()

    def test_distance_rounding_to_zero_is_one_line_error(self, tmp_path):
        # In a child process, so numpy's warnings print as they would
        # for a user instead of being turned into errors by pytest.
        out = tmp_path / "D"
        proc = subprocess.run(
            [sys.executable, "-m", "lrgnn.cli", "gen-data", "--out", str(out),
             "--d-min", "1e-320", "--d-max", "1e-320", "--train", "2", "--test", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: d_min=1e-320: "), proc.stderr
        assert not out.exists()

    def test_bad_sample_counts(self, tmp_path):
        rc = main(["gen-data", "--out", str(tmp_path), "--train", "0"])
        assert rc == 1

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 58.2 TiB for an array with shape (2000000, 2000000, 2)",
         "error: Unable to allocate 58.2 TiB for an array with shape (2000000, 2000000, 2)\n"),
        ("", "error: MemoryError\n"),
    ])
    def test_allocation_failure_is_one_line_error(self, tmp_path, capsys, monkeypatch, message, line):
        # --pairs 2000000 makes numpy ask for 58.2 TiB; the stand-in raises
        # the same MemoryError without allocating anything.
        def too_big(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr("lrgnn.cli.generate_dataset", too_big)
        rc = main(["gen-data", "--out", str(tmp_path / "o"), "--pairs", "2000000",
                   "--train", "1", "--test", "0"])
        assert rc == 1
        assert capsys.readouterr().err == line
        assert not (tmp_path / "o" / "train.bin").exists()


class TestTrain:
    def test_dense_run_outputs(self, model_dir):
        arch, _ = load_model(model_dir / "model.bin")
        assert arch.kind == "dense" and arch.n_tx_antennas == 2
        assert (model_dir / "train_report.csv").exists()
        echo = json.loads((model_dir / "train_config.json").read_text())
        assert echo["ranks"] == "dense" and echo["epochs"] == 1

    def test_low_rank_run(self, data_dir, tmp_path):
        rc = main([
            "train", "--data", str(data_dir), "--out", str(tmp_path),
            "--ranks", "4,4", "--epochs", "1", "--batch-size", "6",
        ])
        assert rc == 0
        arch, _ = load_model(tmp_path / "model.bin")
        assert arch.kind == "low_rank" and (arch.rank1, arch.rank2) == (4, 4)

    def test_power_budget_is_stored_in_the_model(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--out", str(data), "--pairs", "2", "--antennas", "2",
                     "--train", "4", "--test", "2", "--p-max", "4"]) == 0
        assert main(["train", "--data", str(data), "--out", str(out), "--ranks", "4,4",
                     "--epochs", "1", "--batch-size", "4"]) == 0
        assert load_model(out / "model.bin")[0].p_max == 4.0
        # So eval takes the model's own data.
        assert main(["eval", "--model", str(out / "model.bin"), "--data", str(data / "test.bin"),
                     "--out", str(tmp_path / "eval")]) == 0

    def test_power_budget_defaults_to_the_datasets(self, tmp_path):
        data, out = tmp_path / "data", tmp_path / "run"
        assert main(["gen-data", "--out", str(data), "--pairs", "2", "--antennas", "2",
                     "--train", "4", "--test", "2", "--p-max", "4"]) == 0
        samples = read_dataset(data / "train.bin")
        assert [s.scenario.p_max for s in samples] == [4.0] * 4
        mrt = baseline_beamformers(samples[0].scenario, "mrt")
        np.testing.assert_allclose(np.sum(np.abs(mrt) ** 2, axis=1), 4.0, rtol=1e-12)
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--epochs", "1", "--batch-size", "4"]) == 0
        assert load_model(out / "model.bin")[0].p_max == 4.0
        # The budget is the dataset's, not a train setting, so the echo
        # does not record it.
        assert "p_max" not in json.loads((out / "train_config.json").read_text())

    def test_summary_prints_the_saved_checkpoints_rate(self, tmp_path, capsys):
        # The saved epoch (1) is neither the untrained model nor the last epoch (6).
        data = tmp_path / "G"
        assert main(["gen-data", "--out", str(data), "--pairs", "3", "--antennas", "4",
                     "--train", "8", "--test", "8", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "T"), "--epochs", "6",
                     "--batch-size", "4", "--lr", "0.3"]) == 0
        printed = re.search(r"test sum rate: \S+ \(untrained\) -> (\S+) (.*)", capsys.readouterr().out)
        assert main(["eval", "--model", str(tmp_path / "T" / "model.bin"),
                     "--data", str(data / "test.bin"), "--out", str(tmp_path / "E")]) == 0
        with open(tmp_path / "E" / "eval.csv") as f:
            mean = float(next(row[1] for row in csv.reader(f) if row[0] == "mean"))
        # The summary prints 4 decimals of the rate.
        assert abs(float(printed.group(1)) - round(mean, 4)) <= 1e-12
        assert printed.group(2) == "(saved, epoch 1)"

    def test_report_rate_of_the_saved_epoch_is_its_eval_rate(self, tmp_path):
        data, run, ev = tmp_path / "G", tmp_path / "T", tmp_path / "E"
        assert main(["gen-data", "--out", str(data), "--pairs", "3", "--antennas", "4",
                     "--train", "8", "--test", "8", "--seed", "1"]) == 0
        assert main(["train", "--data", str(data), "--out", str(run), "--epochs", "6",
                     "--batch-size", "4", "--lr", "0.3"]) == 0
        assert main(["eval", "--model", str(run / "model.bin"), "--data", str(data / "test.bin"),
                     "--out", str(ev)]) == 0
        with open(run / "train_report.csv") as f:
            reported = {row["epoch"]: float(row["test_sum_rate"]) for row in csv.DictReader(f)}
        with open(ev / "eval.csv") as f:
            mean = float(next(row[1] for row in csv.reader(f) if row[0] == "mean"))
        # Epoch 1 is the saved checkpoint (see the summary test above), and
        # it is the best rate of the run.
        assert reported["1"] == mean == max(reported.values())

    @pytest.mark.parametrize("with_test_set", [False, True])
    def test_checkpoint_overflow_is_one_error_line(self, data_dir, tmp_path, capsys, with_test_set):
        data = data_dir
        if not with_test_set:
            data = tmp_path / "train_only"
            data.mkdir()
            (data / "train.bin").write_bytes((data_dir / "train.bin").read_bytes())
        out = tmp_path / "out"
        rc = main(["train", "--data", str(data), "--out", str(out), "--epochs", "1", "--lr", "1e39"])
        assert rc == 1
        assert capsys.readouterr().err == "error: epoch 1, checkpoint: overflow encountered in cast\n"
        assert not out.exists()

    def test_zero_rank_rejected(self, data_dir, tmp_path, capsys):
        rc = main([
            "train", "--data", str(data_dir), "--out", str(tmp_path), "--ranks", "0,4",
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_ranks_is_usage_error(self, data_dir, tmp_path, capsys):
        rc = main([
            "train", "--data", str(data_dir), "--out", str(tmp_path), "--ranks", "4",
        ])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err

    def test_missing_dataset_dir(self, tmp_path, capsys):
        rc = main([
            "train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out"),
        ])
        assert rc == 1

    @pytest.mark.parametrize("flag, value, setting", [
        ("--p-max", "4", "p_max"),
        ("--antennas", "4", "Nt"),
    ])
    def test_test_split_must_match_train_split(self, tmp_path, capsys, flag, value, setting):
        # train.bin from one run, test.bin from a run that differs in one setting.
        data, other = tmp_path / "D", tmp_path / "X"
        gen = ["gen-data", "--pairs", "2", "--antennas", "2", "--train", "4", "--test", "2"]
        assert main(gen + ["--out", str(data)]) == 0
        assert main(gen + ["--out", str(other), flag, value]) == 0
        (data / "test.bin").write_bytes((other / "test.bin").read_bytes())
        capsys.readouterr()
        out = tmp_path / "T"
        rc = main(["train", "--data", str(data), "--out", str(out), "--epochs", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{setting}=" in err
        assert str(data / "train.bin") in err and str(data / "test.bin") in err
        assert not out.exists()


class TestEval:
    def test_self_reference_normalizes_to_one(self, data_dir, model_dir, tmp_path):
        model = str(model_dir / "model.bin")
        rc = main([
            "eval", "--model", model, "--data", str(data_dir / "test.bin"),
            "--reference", model, "--out", str(tmp_path),
        ])
        assert rc == 0
        with open(tmp_path / "eval.csv", newline="") as f:
            rows = {r[0]: r[1] for r in csv.reader(f) if r[0] != "sample"}
        assert float(rows["normalized"]) == 1.0
        assert float(rows["mean"]) == float(rows["reference_mean"])

    def test_per_sample_rows_and_idempotence(self, data_dir, model_dir, tmp_path):
        model = str(model_dir / "model.bin")
        argv = ["eval", "--model", model, "--data", str(data_dir / "test.bin"),
                "--out", str(tmp_path)]
        assert main(argv) == 0
        first = (tmp_path / "eval.csv").read_bytes()
        with open(tmp_path / "eval.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["sample", "weighted_sum_rate"]
        assert [r[0] for r in rows[1:]] == ["0", "1", "2", "mean"]
        mean = np.mean([float(r[1]) for r in rows[1:4]])
        assert float(rows[4][1]) == pytest.approx(mean, rel=1e-15)
        assert main(argv) == 0
        assert (tmp_path / "eval.csv").read_bytes() == first

    def test_rows_equal_sample_rates_beyond_one_union(self, model_dir, tmp_path):
        # 20 samples: more than the 16 scored in one union.
        gen = tmp_path / "d20"
        assert main(["gen-data", "--out", str(gen), "--pairs", "2", "--antennas", "2",
                     "--train", "1", "--test", "20", "--edge-threshold", "1500"]) == 0
        model = str(model_dir / "model.bin")
        argv = ["eval", "--model", model, "--data", str(gen / "test.bin"),
                "--out", str(tmp_path / "e")]
        assert main(argv) == 0
        first = (tmp_path / "e" / "eval.csv").read_bytes()
        with open(tmp_path / "e" / "eval.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        want = sample_rates(*load_model(model), read_dataset(gen / "test.bin"))
        assert [r[0] for r in rows[:-1]] == [str(i) for i in range(20)]
        assert [float(r[1]) for r in rows[:-1]] == want.tolist()
        assert main(argv) == 0
        assert (tmp_path / "e" / "eval.csv").read_bytes() == first

    def test_nt_mismatch_against_reference(self, data_dir, model_dir, tmp_path, capsys):
        gen = tmp_path / "d4"
        assert main(["gen-data", "--out", str(gen), "--pairs", "2", "--antennas", "4",
                     "--train", "4", "--test", "2"]) == 0
        out4 = tmp_path / "m4"
        assert main(["train", "--data", str(gen), "--out", str(out4),
                     "--epochs", "1", "--batch-size", "4"]) == 0
        rc = main([
            "eval", "--model", str(out4 / "model.bin"),
            "--data", str(gen / "test.bin"),
            "--reference", str(model_dir / "model.bin"), "--out", str(tmp_path),
        ])
        assert rc == 1
        assert "Nt" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["model", "reference"])
    def test_power_budget_must_match_the_data(self, model_dir, tmp_path, capsys, target):
        # The same geometry at p_max=4, scored by the p_max=1 model (as
        # --model or as --reference).
        gen = tmp_path / "p4"
        assert main(["gen-data", "--out", str(gen), "--pairs", "2", "--antennas", "2",
                     "--train", "6", "--test", "3", "--seed", "1", "--p-max", "4"]) == 0
        matched = tmp_path / "m4"
        assert main(["train", "--data", str(gen), "--out", str(matched),
                     "--epochs", "1", "--batch-size", "6"]) == 0
        mismatched = model_dir / "model.bin"
        model, reference = mismatched, matched / "model.bin"
        if target == "reference":
            model, reference = reference, model
        capsys.readouterr()
        out = tmp_path / "o"
        rc = main(["eval", "--model", str(model), "--data", str(gen / "test.bin"),
                   "--reference", str(reference), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == (f"error: {gen / 'test.bin'} has p_max=4.0 "
                       f"but {mismatched} has p_max=1.0\n")
        assert not out.exists()

    def test_bad_dataset_edge_is_one_line_error(self, model_dir, tmp_path, capsys):
        # A 3-pair test set whose last sample has an edge targeting pair 7.
        gen = tmp_path / "d3"
        assert main(["gen-data", "--out", str(gen), "--pairs", "3", "--antennas", "2",
                     "--train", "1", "--test", "2", "--edge-threshold", "1500"]) == 0
        raw = bytearray((gen / "test.bin").read_bytes())
        assert raw[-4:] != b"\x07\x00\x00\x00"
        raw[-4:] = b"\x07\x00\x00\x00"
        (gen / "test.bin").write_bytes(bytes(raw))
        capsys.readouterr()
        rc = main(["eval", "--model", str(model_dir / "model.bin"),
                   "--data", str(gen / "test.bin"), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "edge index" in err

    def test_nan_in_dataset_is_one_line_error(self, data_dir, model_dir, tmp_path, capsys):
        raw = bytearray((data_dir / "test.bin").read_bytes())
        # Header 28 bytes, then sample 0's TX and RX xy (2 pairs: 2 * 16
        # bytes), then its first channel float.
        raw[60:64] = np.array([np.nan], dtype="<f4").tobytes()
        bad = tmp_path / "test.bin"
        bad.write_bytes(bytes(raw))
        rc = main(["eval", "--model", str(model_dir / "model.bin"),
                   "--data", str(bad), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite" in err
        assert not (tmp_path / "o" / "eval.csv").exists()

    def test_non_positive_reference_is_one_line_error(self, data_dir, model_dir, tmp_path, capsys):
        # With every user weight zero, any model's mean sum rate is 0.
        zeroed = []
        for s in read_dataset(data_dir / "test.bin"):
            z = dataclasses.replace(s.scenario, weights=np.zeros_like(s.scenario.weights))
            zeroed.append(Sample(z, graph_from_edges(z, s.graph.edges)))
        write_dataset(zeroed, tmp_path / "zero.bin")
        model = str(model_dir / "model.bin")
        rc = main(["eval", "--model", model, "--data", str(tmp_path / "zero.bin"),
                   "--reference", model, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == "error: reference model has non-positive mean sum rate 0.0\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("target", ["model", "data"])
    def test_version_1_file_is_one_line_error(self, data_dir, model_dir, tmp_path, capsys, target):
        # A version 1 file is a version 2 file without the stored p_max
        # (dataset: bytes 20-27), or p_max and n_rounds (model: bytes 24-35).
        files = {"model": model_dir / "model.bin", "data": data_dir / "test.bin"}
        lo, hi = (24, 36) if target == "model" else (20, 28)
        raw = files[target].read_bytes()
        files[target] = tmp_path / "v1.bin"
        files[target].write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:lo] + raw[hi:])
        capsys.readouterr()
        rc = main(["eval", "--model", str(files["model"]), "--data", str(files["data"]),
                   "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unsupported version 1, expected 2" in err

    def test_missing_model_file(self, data_dir, tmp_path):
        rc = main([
            "eval", "--model", str(tmp_path / "no.bin"),
            "--data", str(data_dir / "test.bin"), "--out", str(tmp_path),
        ])
        assert rc == 1


class TestAnalyze:
    def test_size_table(self, tmp_path):
        rc = main(["analyze", "--mode", "size-table", "--nt", "64", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "size_table_nt64.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 5 and rows[0][0] == "a1/a2"

    def test_p_heatmap(self, tmp_path):
        rc = main(["analyze", "--mode", "p-heatmap", "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "p_heatmap_nt512.csv", newline="") as f:
            rows = list(csv.reader(f))
        # Default grid is Nt=512; spot-check the (4, 4) cell.
        assert float(rows[1][1]) == pytest.approx(0.9835600907029478, rel=1e-12)

    @pytest.mark.parametrize("mode", ["size-table", "p-heatmap"])
    def test_grids_of_two_antenna_counts_keep_separate_csvs(self, tmp_path, mode):
        for nt in (8, 16):
            assert main(["analyze", "--mode", mode, "--nt", str(nt), "--out", str(tmp_path)]) == 0
        prefix = mode.replace("-", "_")
        assert sorted(p.name for p in tmp_path.iterdir()) == [f"{prefix}_nt16.csv", f"{prefix}_nt8.csv"]
        for nt in (8, 16):
            grid = size_ratio_table(nt)
            with open(tmp_path / f"{prefix}_nt{nt}.csv", newline="") as f:
                rows = list(csv.reader(f))
            cells = grid.size_ratios if mode == "size-table" else grid.p_values
            assert [[float(x) for x in row[1:]] for row in rows[1:]] == cells.tolist()

    def test_weights_hist_and_svals(self, model_dir, tmp_path):
        model = str(model_dir / "model.bin")
        assert main(["analyze", "--mode", "weights-hist", "--model", model,
                     "--bins", "8", "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"weights_hist_{model_dir.name}_model.csv").exists()
        assert main(["analyze", "--mode", "svals", "--model", model,
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / f"svals_{model_dir.name}_model.csv").exists()

    @pytest.mark.parametrize("mode", ["weights-hist", "svals"])
    def test_models_of_two_runs_keep_separate_csvs(self, data_dir, model_dir, tmp_path, mode):
        # Every train run writes model.bin; runs/a and runs/b hold two
        # different models.
        runs = tmp_path / "runs"
        (runs / "a").mkdir(parents=True)
        (runs / "a" / "model.bin").write_bytes((model_dir / "model.bin").read_bytes())
        assert main(["train", "--data", str(data_dir), "--out", str(runs / "b"), "--ranks", "4,4",
                     "--epochs", "1", "--batch-size", "6"]) == 0
        out = tmp_path / "analysis"
        for run in ("a", "b"):
            assert main(["analyze", "--mode", mode, "--model", str(runs / run / "model.bin"),
                         "--out", str(out)]) == 0
        prefix = mode.replace("-", "_")
        assert sorted(p.name for p in out.iterdir()) == [
            f"{prefix}_a_model.csv", f"{prefix}_b_model.csv"]
        assert (out / f"{prefix}_a_model.csv").read_bytes() != (
            out / f"{prefix}_b_model.csv").read_bytes()

    def test_more_bins_than_weights_is_one_line_error(self, model_dir, tmp_path):
        # Under a 2 GiB address-space cap: the edges of 10^9 bins alone
        # would take 7.45 GiB.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "lrgnn.cli", "analyze", "--mode", "weights-hist",
             "--model", str(model_dir / "model.bin"), "--bins", "1000000000",
             "--out", str(tmp_path)],
            capture_output=True, text=True, preexec_fn=cap, timeout=60,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert time.perf_counter() - t0 < 30.0
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "pooled weight count" in proc.stderr
        assert not (tmp_path / f"weights_hist_{model_dir.name}_model.csv").exists()

    def test_model_modes_require_model(self, tmp_path, capsys):
        rc = main(["analyze", "--mode", "svals", "--out", str(tmp_path)])
        assert rc == 2
        assert "usage error:" in capsys.readouterr().err

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["analyze", "--mode", "entropy", "--out", str(tmp_path)])
        assert e.value.code == 2


class TestInspect:
    def test_frozen_counts_at_512_antennas(self, tmp_path, capsys):
        from lrgnn.mpgnn import MpgnnArch, init_params, save_model

        dense = tmp_path / "dense.bin"
        arch = MpgnnArch(n_tx_antennas=512)
        save_model(dense, arch, init_params(arch, 0))
        assert main(["inspect", "--model", str(dense)]) == 0
        out = capsys.readouterr().out
        assert "kind: dense, Nt=512" in out
        assert "1806336" in out
        assert "3 rounds\npower budget p_max: 1.0\n" in out

        lr = tmp_path / "lr.bin"
        arch2 = MpgnnArch(n_tx_antennas=512, kind="low_rank", rank1=4, rank2=4, n_rounds=2, p_max=0.25)
        save_model(lr, arch2, init_params(arch2, 0))
        assert main(["inspect", "--model", str(lr)]) == 0
        out = capsys.readouterr().out
        assert "low_rank (a1=4, a2=4)" in out
        assert "29696" in out
        assert "2 rounds\npower budget p_max: 0.25\n" in out

    def test_corrupt_model_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"not a model")
        rc = main(["inspect", "--model", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestFailureLeavesNoOutDir:
    """A command creates --out at its first write; one that fails before
    it leaves no new directory."""

    def test_gen_data_unusable_channels(self, tmp_path, capsys):
        out = tmp_path / "D"
        rc = main(["gen-data", "--out", str(out), "--antenna-gain-dbi", "-3200",
                   "--train", "1", "--test", "0"])
        assert rc == 1
        assert not out.exists()

    def test_analyze_without_model(self, tmp_path, capsys):
        out = tmp_path / "A"
        assert main(["analyze", "--mode", "svals", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "--mode", "svals"],
        ["analyze", "--mode", "weights-hist"],
        ["eval", "--data", "unused.bin"],
    ])
    def test_missing_model_file(self, tmp_path, capsys, argv):
        out = tmp_path / "A"
        assert main(argv + ["--model", str(tmp_path / "nonexistent.bin"), "--out", str(out)]) == 1
        assert not out.exists()

    def test_analyze_too_many_bins(self, model_dir, tmp_path, capsys):
        out = tmp_path / "A"
        rc = main(["analyze", "--mode", "weights-hist", "--model", str(model_dir / "model.bin"),
                   "--bins", "1000000000", "--out", str(out)])
        assert rc == 1
        assert not out.exists()

    def test_train_blow_up(self, tmp_path, capsys):
        data = tmp_path / "D"
        assert main(["gen-data", "--out", str(data), "--pairs", "2", "--antennas", "2",
                     "--train", "4", "--test", "0"]) == 0
        train = ["train", "--data", str(data), "--epochs", "3", "--batch-size", "2", "--lr", "1e300"]
        # In a child process, so numpy's warnings print as they would
        # for a user instead of being turned into errors by pytest.
        out = tmp_path / "T"
        proc = subprocess.run([sys.executable, "-m", "lrgnn.cli", *train, "--out", str(out)],
                              capture_output=True, text=True)
        assert proc.returncode == 1
        assert not out.exists()
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and re.match(r"error: epoch \d+, batch \d+: ", lines[0]), proc.stderr
        # A directory that was there before is kept.
        kept = tmp_path / "K"
        kept.mkdir()
        assert main([*train, "--out", str(kept)]) == 1
        assert kept.is_dir()


class TestConfigFile:
    """--config files are gone: every setting is set by its flag alone."""

    # Removed train flags, each with a value it used to take (None for a
    # switch). The power budget is the dataset's, set by gen-data --p-max.
    REMOVED = {"deterministic": None, "full_interference": None, "select_on": "test",
               "eval_every": "1", "config": "train.cfg", "p_max": "4"}

    @pytest.mark.parametrize("key", list(REMOVED))
    def test_removed_setting_is_rejected(self, data_dir, tmp_path, capsys, key):
        value = self.REMOVED[key]
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as e:
            main(["train", "--data", str(data_dir), "--out", str(out), "--" + key.replace("_", "-")]
                 + ([value] if value else []))
        assert e.value.code == 2
        assert "unrecognized arguments: --" + key.replace("_", "-") in capsys.readouterr().err
        assert not out.exists()

    def test_gen_data_config_file_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as e:
            main(["gen-data", "--out", str(out), "--config", "gen.cfg"])
        assert e.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "lrgnn.cli", "analyze", "--mode", "size-table",
             "--nt", "16", "--out", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "size_table_nt16.csv").exists()
