"""Command-line pipeline: gen-data, train, eval, analyze, inspect.

The settings of gen-data and train are declared once, one table per
command: the flags, value types, defaults and library arguments all
come from it, and every setting is set by its flag alone. The defaults
are the library's (ScenarioConfig, TrainConfig) except for a few of the
CLI's own. A model's power budget is its training set's: train copies
p_max from train.bin, and eval refuses a dataset whose Nt or p_max
differs from its model's or reference's. Every command that writes
files also writes a JSON echo of its settings, so a run can be
reproduced from its output directory; outputs carry no timestamps,
making same-seed runs byte-identical. Exit codes: 0 success, 1 runtime
failure, 2 usage error, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import NamedTuple

import numpy as np

from . import compression, scenario, trainer
from .binio import FormatError
from .mpgnn import MpgnnArch, count_model_params, load_model, mlp_dims, save_model
from .scenario import ScenarioConfig, generate_dataset, read_dataset, write_dataset


class UsageError(Exception):
    """Bad invocation that argparse does not catch (malformed --ranks,
    analyze without --model): exit 2."""


class _Setting(NamedTuple):
    """One setting of gen-data or train. The key names it in the JSON
    echo and, with '-' for '_', is its flag. `default` is the CLI's own;
    without one the setting takes its library dataclass's default (the
    field named by _RENAMES, else the key). '{default}' in `help` shows
    the default."""

    key: str
    type: type
    help: str | None = None
    choices: tuple | None = None
    default: object = None


_RENAMES = {"pairs": "n_pairs", "antennas": "n_tx_antennas"}

_GEN_DATA = (ScenarioConfig, (
    _Setting("train", int, "training samples (default {default})", default=2000),
    _Setting("test", int, "test samples (default {default})", default=500),
    _Setting("pairs", int, "transceiver pairs N (default {default})", default=3),
    _Setting("antennas", int, "TX antennas Nt (default {default})", default=8),
    _Setting("seed", int, "base RNG seed (default {default})"),
    _Setting("area_side", float, "square side, meters"),
    _Setting("d_min", float, "min TX-RX distance, meters"),
    _Setting("d_max", float, "max TX-RX distance, meters"),
    _Setting("edge_threshold", float, "interference edge distance, meters (default {default:g})"),
    _Setting("antenna_gain_dbi", float),
    _Setting("shadow_sigma_db", float),
    _Setting("p_max", float, "per-TX power budget"),
    _Setting("snr_db", float, "SNR setting the noise power"),
    _Setting("weights_mode", str, None, scenario._WEIGHT_MODES),
))

_TRAIN = (trainer.TrainConfig, (
    _Setting("ranks", str, "'dense' or 'a1,a2' (default {default})", default="dense"),
    _Setting("epochs", int),
    _Setting("batch_size", int),
    _Setting("lr", float),
    _Setting("seed", int),
))


def _defaults(library, table) -> dict:
    fields = {f.name: f.default for f in dataclasses.fields(library)}
    return {s.key: fields.get(_RENAMES.get(s.key, s.key)) if s.default is None else s.default
            for s in table}


def _library_kwargs(library, resolved: dict) -> dict:
    """The resolved settings that are fields of `library`, by field name."""
    names = {f.name for f in dataclasses.fields(library)}
    return {_RENAMES.get(k, k): v for k, v in resolved.items() if _RENAMES.get(k, k) in names}


def _require_match(path_a, a, path_b, b) -> None:
    """a and b, each a Scenario or an MpgnnArch read from its file, must
    agree on Nt and p_max; a mismatch names both files."""
    for what, attr in (("Nt", "n_tx_antennas"), ("p_max", "p_max")):
        x, y = getattr(a, attr), getattr(b, attr)
        if x != y:
            raise ValueError(f"{path_a} has {what}={x!r} but {path_b} has {what}={y!r}")


def _write_echo(path, resolved: dict) -> None:
    with open(path, "w") as f:
        json.dump(resolved, f, indent=2, sort_keys=True)
        f.write("\n")


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
    resolved = {s.key: getattr(args, s.key) for s in _GEN_DATA[1]}
    if resolved["train"] < 1 or resolved["test"] < 0:
        raise ValueError("need at least 1 training sample and >= 0 test samples")
    cfg = ScenarioConfig(**_library_kwargs(ScenarioConfig, resolved))
    # Disjoint per-sample seed index ranges keep the splits isolated.
    train = generate_dataset(cfg, resolved["train"], first_index=0)
    test = generate_dataset(cfg, resolved["test"], first_index=resolved["train"])
    # Each command creates --out at its first write, so a command that
    # fails earlier leaves no new directory.
    os.makedirs(args.out, exist_ok=True)
    write_dataset(train, os.path.join(args.out, "train.bin"))
    test_path = os.path.join(args.out, "test.bin")
    if test:
        write_dataset(test, test_path)
    elif os.path.exists(test_path):
        # An earlier run's test set would be read by train as this one's.
        os.remove(test_path)
    _write_echo(os.path.join(args.out, "gen_config.json"), resolved)
    print(f"wrote {resolved['train']} train / {resolved['test']} test samples "
          f"(N={cfg.n_pairs}, Nt={cfg.n_tx_antennas}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    resolved = {s.key: getattr(args, s.key) for s in _TRAIN[1]}
    train_path = os.path.join(args.data, "train.bin")
    train_set = read_dataset(train_path)
    test_path = os.path.join(args.data, "test.bin")
    test_set = read_dataset(test_path) if os.path.exists(test_path) else None
    # read_dataset gives every sample its file's Nt and p_max.
    data = train_set[0].scenario
    if test_set:
        _require_match(train_path, data, test_path, test_set[0].scenario)

    kind, rank1, rank2 = _parse_ranks(resolved["ranks"])
    nt = data.n_tx_antennas
    arch = MpgnnArch(n_tx_antennas=nt, kind=kind, rank1=rank1, rank2=rank2, p_max=data.p_max)

    cfg = trainer.TrainConfig(arch=arch, **_library_kwargs(trainer.TrainConfig, resolved))
    # Before training, so an unusable --out fails fast; removed again if
    # training fails and this call made it.
    created = not os.path.exists(args.out)
    os.makedirs(args.out, exist_ok=True)
    try:
        params, report = trainer.train(train_set, cfg, test_set)
    except BaseException:
        if created and not os.listdir(args.out):
            os.rmdir(args.out)
        raise
    save_model(os.path.join(args.out, "model.bin"), arch, params)
    trainer.write_train_report(report, os.path.join(args.out, "train_report.csv"))
    _write_echo(os.path.join(args.out, "train_config.json"), resolved)
    counts = count_model_params(arch, include_bias=False)
    print(f"arch {resolved['ranks']} at Nt={nt}: {counts.total} weight parameters")
    print(f"best epoch {report.best_epoch}, checksum {report.params_checksum[:16]}")
    if test_set:
        print(f"test sum rate: {report.initial_test_sum_rate:.4f} (untrained) -> "
              f"{report.best_test_sum_rate:.4f} (saved, epoch {report.best_epoch})")
    print(f"wall time {report.wall_time_s:.1f}s; model and report in {args.out}")
    return 0


def cmd_eval(args) -> int:
    arch, params = load_model(args.model)
    samples = read_dataset(args.data)
    data = samples[0].scenario
    _require_match(args.data, data, args.model, arch)
    rates = trainer.sample_rates(arch, params, samples)
    mean_rate = float(np.mean(rates))

    ref_mean = None
    if args.reference:
        ref_arch, ref_params = load_model(args.reference)
        _require_match(args.data, data, args.reference, ref_arch)
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


def _model_csv_name(mode: str, path) -> str:
    """'<mode>_<parent dir>_<stem>.csv': every train run writes model.bin,
    so two runs' models analysed into one --out keep separate files."""
    parent = os.path.basename(os.path.dirname(os.path.abspath(path)))
    stem = os.path.splitext(os.path.basename(path))[0]
    return f"{mode.replace('-', '_')}_{parent}_{stem}.csv"


def cmd_analyze(args) -> int:
    if args.mode in ("size-table", "p-heatmap"):
        grid = compression.size_ratio_table(args.nt)
        cells = grid.size_ratios if args.mode == "size-table" else grid.p_values
        path = os.path.join(args.out, f"{args.mode.replace('-', '_')}_nt{args.nt}.csv")
        os.makedirs(args.out, exist_ok=True)
        compression.write_grid(grid, cells, path)
        print(f"wrote {path} (Nt={args.nt})")
        return 0
    if not args.model:
        raise UsageError(f"--model is required for mode {args.mode}")
    _, params = load_model(args.model)
    path = os.path.join(args.out, _model_csv_name(args.mode, args.model))
    if args.mode == "weights-hist":
        report = compression.weight_histogram(params, args.bins)
        os.makedirs(args.out, exist_ok=True)
        compression.write_weight_histogram(report, path)
    else:  # svals
        os.makedirs(args.out, exist_ok=True)
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
    dims1, dims2 = mlp_dims(arch.n_tx_antennas)
    print(f"mlp1 dims {dims1}, mlp2 dims {dims2}, {arch.n_rounds} rounds")
    print(f"power budget p_max: {arch.p_max!r}")
    print(f"weight parameters (bias-free): {weights.total} "
          f"(mlp1 {weights.mlp1}, mlp2 {weights.mlp2})")
    print(f"total parameters: {total.total}")
    print(f"file size: {os.path.getsize(args.model)} bytes")
    return 0


def _add_settings(parser, library, table) -> None:
    """One flag per setting, defaulting to the setting's default."""
    defaults = _defaults(library, table)
    for s in table:
        flag = "--" + s.key.replace("_", "-")
        text = s.help and s.help.format(default=defaults[s.key])
        parser.add_argument(flag, type=s.type, choices=s.choices, default=defaults[s.key],
                            help=text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lrgnn",
        description="Low-rank message-passing GNNs for beamforming in interference networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate train/test interference-network datasets")
    g.add_argument("--out", required=True, help="output directory")
    _add_settings(g, *_GEN_DATA)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on a generated dataset")
    t.add_argument("--data", required=True, help="dataset directory (train.bin/test.bin)")
    t.add_argument("--out", required=True, help="output directory")
    _add_settings(t, *_TRAIN)
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
    except (ValueError, OSError, FormatError, ArithmeticError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
