"""Command-line pipeline: gen-data, train, eval, analyze, inspect.

Settings resolve in three layers: built-in defaults, then a key=value
config file (--config), then explicit flags. Unknown config keys are
rejected. Every command that writes files also writes a JSON echo of
its resolved settings, so a run can be reproduced from its output
directory; outputs carry no timestamps, making same-seed runs
byte-identical. Exit codes: 0 success, 1 runtime failure, 2 usage
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import compression, trainer
from .binio import FormatError
from .mpgnn import MpgnnArch, count_model_params, load_model
from .scenario import ScenarioConfig, generate_dataset, read_dataset, write_dataset


class UsageError(Exception):
    """Bad invocation (unknown config key, malformed value): exit 2."""


_SCENARIO_OPTS = {
    "pairs": int,
    "antennas": int,
    "area_side": float,
    "d_min": float,
    "d_max": float,
    "edge_threshold": float,
    "pathloss_log_base": str,
    "antenna_gain_dbi": float,
    "shadow_sigma_db": float,
    "p_max": float,
    "snr_db": float,
    "weights_mode": str,
    "seed": int,
}

_GEN_OPTS = {**_SCENARIO_OPTS, "train": int, "test": int}

_TRAIN_OPTS = {
    "ranks": str,
    "epochs": int,
    "batch_size": int,
    "lr": float,
    "seed": int,
    "eval_every": int,
    "select_on": str,
    "p_max": float,
    # Accepted and ignored, so older configs and scripts still run:
    # training has a single, deterministic code path.
    "deterministic": bool,
    "full_interference": bool,
}

_SCENARIO_DEFAULTS = {
    "pairs": 3,
    "antennas": 8,
    "area_side": 2000.0,
    "d_min": 10.0,
    "d_max": 100.0,
    "edge_threshold": 500.0,
    "pathloss_log_base": "log10",
    "antenna_gain_dbi": 9.0,
    "shadow_sigma_db": 8.0,
    "p_max": 1.0,
    "snr_db": 10.0,
    "weights_mode": "all_ones",
    "seed": 0,
}

_GEN_DEFAULTS = {**_SCENARIO_DEFAULTS, "train": 2000, "test": 500}

_TRAIN_DEFAULTS = {
    "ranks": "dense",
    "epochs": 50,
    "batch_size": 64,
    "lr": 0.001,
    "seed": 0,
    "eval_every": 1,
    "select_on": "test",
    "p_max": 1.0,
    "deterministic": False,
    "full_interference": False,
}


def _parse_value(key: str, raw: str, typ):
    if typ is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise UsageError(f"config key {key!r}: expected a boolean, got {raw!r}")
    try:
        return typ(raw)
    except ValueError:
        raise UsageError(f"config key {key!r}: expected {typ.__name__}, got {raw!r}") from None


def _load_config(path, allowed: dict) -> dict:
    """key=value lines; '#' starts a comment; unknown keys are errors."""
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in allowed:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _parse_value(key, raw, allowed[key])
    return out


def _resolve(args, opts: dict, defaults: dict) -> dict:
    """defaults, overlaid by --config values, overlaid by explicit flags."""
    conf = _load_config(args.config, opts) if getattr(args, "config", None) else {}
    resolved = dict(defaults)
    resolved.update(conf)
    for key in opts:
        flag = getattr(args, key, None)
        if flag is not None:
            resolved[key] = flag
    return resolved


def _write_echo(path, resolved: dict) -> None:
    with open(path, "w") as f:
        json.dump(resolved, f, indent=2, sort_keys=True)
        f.write("\n")


def _scenario_config(resolved: dict) -> ScenarioConfig:
    return ScenarioConfig(
        n_pairs=resolved["pairs"],
        n_tx_antennas=resolved["antennas"],
        area_side=resolved["area_side"],
        d_min=resolved["d_min"],
        d_max=resolved["d_max"],
        edge_threshold=resolved["edge_threshold"],
        pathloss_log_base=resolved["pathloss_log_base"],
        antenna_gain_dbi=resolved["antenna_gain_dbi"],
        shadow_sigma_db=resolved["shadow_sigma_db"],
        p_max=resolved["p_max"],
        snr_db=resolved["snr_db"],
        weights_mode=resolved["weights_mode"],
        seed=resolved["seed"],
    )


def _parse_ranks(raw: str) -> tuple:
    """(kind, rank1, rank2) of 'dense' or 'a1,a2'; MpgnnArch checks the ranks."""
    if raw == "dense":
        return "dense", None, None
    parts = raw.split(",")
    if len(parts) != 2:
        raise UsageError(f"--ranks takes 'dense' or 'a1,a2', got {raw!r}")
    try:
        a1, a2 = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError(f"--ranks takes 'dense' or 'a1,a2', got {raw!r}") from None
    return "low_rank", a1, a2


def cmd_gen_data(args) -> int:
    resolved = _resolve(args, _GEN_OPTS, _GEN_DEFAULTS)
    if resolved["train"] < 1 or resolved["test"] < 0:
        raise ValueError("need at least 1 training sample and >= 0 test samples")
    cfg = _scenario_config(resolved)
    os.makedirs(args.out, exist_ok=True)
    # Disjoint per-sample seed index ranges keep the splits isolated.
    train = generate_dataset(cfg, resolved["train"], first_index=0)
    write_dataset(train, os.path.join(args.out, "train.bin"))
    if resolved["test"]:
        test = generate_dataset(cfg, resolved["test"], first_index=resolved["train"])
        write_dataset(test, os.path.join(args.out, "test.bin"))
    _write_echo(os.path.join(args.out, "gen_config.json"), resolved)
    print(f"wrote {resolved['train']} train / {resolved['test']} test samples "
          f"(N={cfg.n_pairs}, Nt={cfg.n_tx_antennas}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    resolved = _resolve(args, _TRAIN_OPTS, _TRAIN_DEFAULTS)
    train_set = read_dataset(os.path.join(args.data, "train.bin"))
    test_path = os.path.join(args.data, "test.bin")
    test_set = read_dataset(test_path) if os.path.exists(test_path) else None
    nt = train_set[0].scenario.n_tx_antennas

    kind, rank1, rank2 = _parse_ranks(resolved["ranks"])
    arch = MpgnnArch(n_tx_antennas=nt, kind=kind, rank1=rank1, rank2=rank2, p_max=resolved["p_max"])

    os.makedirs(args.out, exist_ok=True)
    cfg = trainer.TrainConfig(
        arch=arch,
        lr=resolved["lr"],
        batch_size=resolved["batch_size"],
        epochs=resolved["epochs"],
        seed=resolved["seed"],
        eval_every=resolved["eval_every"],
        select_on=resolved["select_on"],
        checkpoint_path=os.path.join(args.out, "model.bin"),
        full_interference=resolved["full_interference"],
    )
    params, report = trainer.train(train_set, cfg, test_set)
    trainer.write_train_report(report, os.path.join(args.out, "train_report.csv"))
    _write_echo(os.path.join(args.out, "train_config.json"), resolved)
    counts = count_model_params(arch, include_bias=False)
    print(f"arch {resolved['ranks']} at Nt={nt}: {counts.total} weight parameters")
    print(f"best epoch {report.best_epoch}, checksum {report.params_checksum[:16]}")
    if test_set:
        print(f"test sum rate: {report.initial_test_sum_rate:.4f} (untrained) -> "
              f"{max(report.test_sum_rate):.4f} (best)")
    print(f"wall time {report.wall_time_s:.1f}s; model and report in {args.out}")
    return 0


def cmd_eval(args) -> int:
    arch, params = load_model(args.model)
    samples = read_dataset(args.data)
    rates = trainer.sample_rates(arch, params, samples)
    mean_rate = float(np.mean(rates))

    ref_mean = None
    if args.reference:
        ref_arch, ref_params = load_model(args.reference)
        if ref_arch.n_tx_antennas != arch.n_tx_antennas:
            raise ValueError(
                f"reference expects Nt={ref_arch.n_tx_antennas}, model has {arch.n_tx_antennas}"
            )
        ref_mean = trainer.evaluate(ref_arch, ref_params, samples)
        if ref_mean <= 0.0:
            raise ValueError(f"reference model has non-positive mean sum rate {ref_mean}")

    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "eval.csv")
    with open(out_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["sample", "weighted_sum_rate"])
        for i, r in enumerate(rates):
            w.writerow([i, repr(float(r))])
        w.writerow(["mean", repr(mean_rate)])
        if ref_mean is not None:
            w.writerow(["reference_mean", repr(ref_mean)])
            w.writerow(["normalized", repr(mean_rate / ref_mean)])
    print(f"mean weighted sum rate {mean_rate:.4f} over {len(rates)} samples -> {out_path}")
    if ref_mean is not None:
        print(f"normalized vs reference: {mean_rate / ref_mean:.4f}")
    return 0


def _model_stem(path) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def cmd_analyze(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    if args.mode in ("size-table", "p-heatmap"):
        grid = compression.size_ratio_table(args.nt)
        name = "size_table.csv" if args.mode == "size-table" else "p_heatmap.csv"
        path = os.path.join(args.out, name)
        if args.mode == "size-table":
            compression.write_size_table(grid, path)
        else:
            compression.write_p_heatmap(grid, path)
        print(f"wrote {path} (Nt={args.nt})")
        return 0
    if not args.model:
        raise UsageError(f"--model is required for mode {args.mode}")
    _, params = load_model(args.model)
    stem = _model_stem(args.model)
    if args.mode == "weights-hist":
        path = os.path.join(args.out, f"weights_hist_{stem}.csv")
        compression.write_weight_histogram(compression.weight_histogram(params, args.bins), path)
    else:  # svals
        path = os.path.join(args.out, f"svals_{stem}.csv")
        compression.write_singular_values(params, path)
    print(f"wrote {path}")
    return 0


def cmd_inspect(args) -> int:
    arch, params = load_model(args.model)
    weights = count_model_params(arch, include_bias=False)
    total = count_model_params(arch, include_bias=True)
    if arch.kind == "dense":
        print(f"kind: dense, Nt={arch.n_tx_antennas}")
    else:
        print(f"kind: low_rank (a1={arch.rank1}, a2={arch.rank2}), Nt={arch.n_tx_antennas}")
    print(f"mlp1 dims {arch.mlp1_dims}, mlp2 dims {arch.mlp2_dims}, {arch.n_rounds} rounds")
    print(f"weight parameters (bias-free): {weights.total} "
          f"(mlp1 {weights.mlp1}, mlp2 {weights.mlp2})")
    print(f"total parameters: {total.total}")
    print(f"file size: {compression.model_disk_size(args.model)} bytes")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lrgnn",
        description="Low-rank message-passing GNNs for beamforming in interference networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate train/test interference-network datasets")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--config", help="key=value config file")
    g.add_argument("--train", type=int, help="training samples (default 2000)")
    g.add_argument("--test", type=int, help="test samples (default 500)")
    g.add_argument("--pairs", type=int, help="transceiver pairs N (default 3)")
    g.add_argument("--antennas", type=int, help="TX antennas Nt (default 8)")
    g.add_argument("--seed", type=int, help="base RNG seed (default 0)")
    g.add_argument("--area-side", type=float, dest="area_side", help="square side, meters")
    g.add_argument("--d-min", type=float, dest="d_min", help="min TX-RX distance, meters")
    g.add_argument("--d-max", type=float, dest="d_max", help="max TX-RX distance, meters")
    g.add_argument("--edge-threshold", type=float, dest="edge_threshold",
                   help="interference edge distance, meters (default 500)")
    g.add_argument("--pathloss-log-base", dest="pathloss_log_base", choices=("log10", "log2"),
                   help="path-loss log base (default log10)")
    g.add_argument("--antenna-gain-dbi", type=float, dest="antenna_gain_dbi")
    g.add_argument("--shadow-sigma-db", type=float, dest="shadow_sigma_db")
    g.add_argument("--p-max", type=float, dest="p_max", help="per-TX power budget")
    g.add_argument("--snr-db", type=float, dest="snr_db", help="SNR setting the noise power")
    g.add_argument("--weights-mode", dest="weights_mode", choices=("all_ones", "uniform01"))
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on a generated dataset")
    t.add_argument("--data", required=True, help="dataset directory (train.bin/test.bin)")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--config", help="key=value config file")
    t.add_argument("--ranks", help="'dense' or 'a1,a2' (default dense)")
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--lr", type=float)
    t.add_argument("--seed", type=int)
    t.add_argument("--eval-every", type=int, dest="eval_every")
    t.add_argument("--select-on", dest="select_on", choices=("test", "train"))
    t.add_argument("--p-max", type=float, dest="p_max")
    t.add_argument("--deterministic", action="store_const", const=True, default=None,
                   help="accepted and ignored: training is always deterministic")
    t.add_argument("--full-interference", dest="full_interference", action="store_const",
                   const=True, default=None, help="ignore the edge threshold in the loss")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a model file on a dataset file")
    e.add_argument("--model", required=True)
    e.add_argument("--data", required=True, help="dataset file (e.g. test.bin)")
    e.add_argument("--reference", help="dense model for normalized sum rate")
    e.add_argument("--out", required=True, help="output directory")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("analyze", help="emit compression-analysis CSVs")
    a.add_argument("--mode", required=True,
                   choices=("size-table", "p-heatmap", "weights-hist", "svals"))
    a.add_argument("--nt", type=int, default=512, help="antenna count for grid modes")
    a.add_argument("--model", help="model file for weights-hist/svals")
    a.add_argument("--bins", type=int, default=50, help="histogram bins")
    a.add_argument("--out", required=True, help="output directory")
    a.set_defaults(func=cmd_analyze)

    i = sub.add_parser("inspect", help="print a model file summary")
    i.add_argument("--model", required=True)
    i.set_defaults(func=cmd_inspect)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError, FormatError, FloatingPointError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
