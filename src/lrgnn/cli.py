"""Command-line pipeline: gen-data, train, eval, analyze, inspect.

The settings of gen-data and train are declared once, one table per
command: the flags, config keys, value types and library arguments all
come from it. Settings resolve in three layers: defaults, then a
key=value config file (--config), then explicit flags. The defaults are
the library's (ScenarioConfig, TrainConfig) except for a few of the
CLI's own; train's p_max defaults to the dataset's power budget.
Unknown config keys are rejected. Every command that writes files also
writes a JSON echo of its resolved settings, so a run can be
reproduced from its output directory; outputs carry no timestamps,
making same-seed runs byte-identical. Exit codes: 0 success, 1 runtime
failure, 2 usage error.
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
from .mpgnn import MpgnnArch, count_model_params, load_model, save_model
from .scenario import ScenarioConfig, generate_dataset, read_dataset, write_dataset


class UsageError(Exception):
    """Bad invocation (unknown config key, malformed value): exit 2."""


class _Setting(NamedTuple):
    """One setting of gen-data or train. The key is the config key and,
    with '-' for '_', the flag. `default` is the CLI's own; without one
    the setting takes its library dataclass's default (the field named
    by _RENAMES, else the key). '{default}' in `help` shows the default."""

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
    _Setting("pathloss_log_base", str, "path-loss log base (default {default})", scenario._LOG_BASES),
    _Setting("antenna_gain_dbi", float),
    _Setting("shadow_sigma_db", float),
    _Setting("p_max", float, "per-TX power budget"),
    _Setting("snr_db", float, "SNR setting the noise power"),
    _Setting("weights_mode", str, None, scenario._WEIGHT_MODES),
))

# p_max is not a TrainConfig field: it defaults to the dataset's.
_TRAIN = (trainer.TrainConfig, (
    _Setting("ranks", str, "'dense' or 'a1,a2' (default {default})", default="dense"),
    _Setting("epochs", int),
    _Setting("batch_size", int),
    _Setting("lr", float),
    _Setting("seed", int),
    _Setting("eval_every", int),
    _Setting("select_on", str, None, trainer._SELECT_MODES),
    _Setting("p_max", float),
    # Accepted and ignored, so older configs and scripts still run:
    # training has a single, deterministic code path.
    _Setting("deterministic", bool, "accepted and ignored: training is always deterministic",
             default=False),
    _Setting("full_interference", bool, "ignore the edge threshold in the loss"),
))


def _defaults(library, table) -> dict:
    fields = {f.name: f.default for f in dataclasses.fields(library)}
    return {s.key: fields.get(_RENAMES.get(s.key, s.key)) if s.default is None else s.default
            for s in table}


def _library_kwargs(library, resolved: dict) -> dict:
    """The resolved settings that are fields of `library`, by field name."""
    names = {f.name for f in dataclasses.fields(library)}
    return {_RENAMES.get(k, k): v for k, v in resolved.items() if _RENAMES.get(k, k) in names}


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


def _load_config(path, table) -> dict:
    """key=value lines; '#' starts a comment; unknown keys are errors."""
    types = {s.key: s.type for s in table}
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            if key not in types:
                raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _parse_value(key, raw, types[key])
    return out


def _resolve(args, library, table) -> dict:
    """defaults, overlaid by --config values, overlaid by explicit flags."""
    resolved = _defaults(library, table)
    if args.config:
        resolved.update(_load_config(args.config, table))
    for s in table:
        if getattr(args, s.key) is not None:
            resolved[s.key] = getattr(args, s.key)
    return resolved


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
    resolved = _resolve(args, *_GEN_DATA)
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
    if test:
        write_dataset(test, os.path.join(args.out, "test.bin"))
    _write_echo(os.path.join(args.out, "gen_config.json"), resolved)
    print(f"wrote {resolved['train']} train / {resolved['test']} test samples "
          f"(N={cfg.n_pairs}, Nt={cfg.n_tx_antennas}) to {args.out}")
    return 0


def cmd_train(args) -> int:
    resolved = _resolve(args, *_TRAIN)
    train_path = os.path.join(args.data, "train.bin")
    train_set = read_dataset(train_path)
    test_path = os.path.join(args.data, "test.bin")
    test_set = read_dataset(test_path) if os.path.exists(test_path) else None
    nt = train_set[0].scenario.n_tx_antennas
    if test_set:
        train_s, test_s = train_set[0].scenario, test_set[0].scenario
        for what, a, b in (("Nt", nt, test_s.n_tx_antennas), ("p_max", train_s.p_max, test_s.p_max)):
            if a != b:
                raise ValueError(f"{train_path} has {what}={a!r} but {test_path} has {what}={b!r}")
    if resolved["p_max"] is None:
        resolved["p_max"] = train_set[0].scenario.p_max

    kind, rank1, rank2 = _parse_ranks(resolved["ranks"])
    arch = MpgnnArch(n_tx_antennas=nt, kind=kind, rank1=rank1, rank2=rank2, p_max=resolved["p_max"])

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
    if args.mode in ("size-table", "p-heatmap"):
        grid = compression.size_ratio_table(args.nt)
        if args.mode == "size-table":
            name, cells = "size_table.csv", grid.size_ratios
        else:
            name, cells = "p_heatmap.csv", grid.p_values
        path = os.path.join(args.out, name)
        os.makedirs(args.out, exist_ok=True)
        compression.write_grid(grid, cells, path)
        print(f"wrote {path} (Nt={args.nt})")
        return 0
    if not args.model:
        raise UsageError(f"--model is required for mode {args.mode}")
    _, params = load_model(args.model)
    stem = _model_stem(args.model)
    if args.mode == "weights-hist":
        path = os.path.join(args.out, f"weights_hist_{stem}.csv")
        report = compression.weight_histogram(params, args.bins)
        os.makedirs(args.out, exist_ok=True)
        compression.write_weight_histogram(report, path)
    else:  # svals
        path = os.path.join(args.out, f"svals_{stem}.csv")
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
    print(f"mlp1 dims {arch.mlp1_dims}, mlp2 dims {arch.mlp2_dims}, {arch.n_rounds} rounds")
    print(f"weight parameters (bias-free): {weights.total} "
          f"(mlp1 {weights.mlp1}, mlp2 {weights.mlp2})")
    print(f"total parameters: {total.total}")
    print(f"file size: {os.path.getsize(args.model)} bytes")
    return 0


def _add_settings(parser, library, table) -> None:
    """One flag per setting; unset flags stay None so _resolve can layer."""
    defaults = _defaults(library, table)
    for s in table:
        flag = "--" + s.key.replace("_", "-")
        text = s.help and s.help.format(default=defaults[s.key])
        if s.type is bool:
            parser.add_argument(flag, action="store_const", const=True, default=None, help=text)
        else:
            parser.add_argument(flag, type=s.type, choices=s.choices, help=text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lrgnn",
        description="Low-rank message-passing GNNs for beamforming in interference networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate train/test interference-network datasets")
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--config", help="key=value config file")
    _add_settings(g, *_GEN_DATA)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a model on a generated dataset")
    t.add_argument("--data", required=True, help="dataset directory (train.bin/test.bin)")
    t.add_argument("--out", required=True, help="output directory")
    t.add_argument("--config", help="key=value config file")
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
    except (ValueError, OSError, FormatError, FloatingPointError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
