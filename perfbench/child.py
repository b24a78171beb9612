"""One workload run in a fresh interpreter: set-up, then timed cycles.

run.py starts this with the BLAS thread variables already set, so they
hold before numpy is imported, and with LRGNN_THREADS unset. The timed
work goes through `lrgnn.cli.main` and `lrgnn.forward`; set-up also
writes seed-initialised models with `lrgnn.save_model`.

    python3 perfbench/child.py --workload graph-train --seed 0 --dir D --mode run --seconds 10

`--mode setup` stops after set-up (`gen-data` plus those models);
`--mode run` then checks the inputs and runs cycles until `--seconds`
are spent, or exactly `--cycles` of them. A cycle runs `gen-data`,
trains every model, runs `eval --reference` and `analyze`, and makes
INFER_CALLS `forward` calls over the test set, checking every output.
Short cycles, each timing every command once, spread each command's
repeats over the whole run.
A command that exits nonzero or an exception counts as a failed
operation and ends the cycles; result.json is written all the same.
`--trace` records spans (see spans.py). The child writes result.json,
and spans.jsonl when traced, into --dir.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import lrgnn  # noqa: E402
from lrgnn import cli, trainer  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import INFER_CALLS, WORKLOADS  # noqa: E402

REL_TOL = 1e-12


class CommandFailed(Exception):
    pass


class Checks:
    """Counts operations (commands, inferences, output checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _arch(nt: int, ranks: str):
    if ranks == "dense":
        return lrgnn.MpgnnArch(n_tx_antennas=nt)
    a1, a2 = (int(r) for r in ranks.split(","))
    return lrgnn.MpgnnArch(n_tx_antennas=nt, kind="low_rank", rank1=a1, rank2=a2)


def _read_eval_csv(path) -> dict:
    with open(path, newline="") as f:
        return {row[0]: float(row[1]) for row in csv.reader(f) if row[0] in
                ("mean", "reference_mean", "normalized")}


class Run:
    def __init__(self, args):
        self.args = args
        self.wl = WORKLOADS[args.workload]
        self.checks = Checks()
        self.tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        if args.trace:
            self.tracer.install()
        else:
            self.tracer.active = False
        self.data = os.path.join(args.dir, "data")
        self.models: dict = {}  # ranks -> model file, set-up's and then trained ones
        self.phases: list[tuple] = []  # timed (start_ns, end_ns)
        # The first cycle's outputs, which every later cycle must repeat.
        self.checksums: dict = {}
        self.eval_csv: bytes | None = None
        self.quality: dict = {}

    def pause(self) -> None:
        self.tracer.active = False

    def resume(self) -> None:
        self.tracer.active = bool(self.args.trace)

    def command(self, *argv) -> float:
        """Run one CLI command as a timed phase; returns its wall time."""
        argv = [str(a) for a in argv]
        self.resume()
        t0 = time.perf_counter_ns()
        rc = self.tracer.record("cli." + argv[0], cli.main, argv)
        t1 = time.perf_counter_ns()
        self.pause()
        self.phases.append((t0, t1))
        if not self.checks.op(rc == 0, f"{' '.join(argv)} exited {rc}"):
            raise CommandFailed(f"{argv[0]} exited {rc}")
        return (t1 - t0) / 1e9

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        """Returns the monotonic time at which set-up ended."""
        wl, seed = self.wl, self.args.seed
        self.command("gen-data", "--out", self.data, "--seed", seed, *wl.gen_args())
        self.resume()
        for ranks in wl.init_ranks:
            path = os.path.join(self.data, f"init-{ranks}.bin")
            arch = _arch(wl.antennas, ranks)
            lrgnn.save_model(path, arch, lrgnn.init_params(arch, seed))
            self.models[ranks] = path
        self.pause()
        return time.monotonic()

    def check_inputs(self) -> None:
        """The written datasets read back bit-identical to the generated
        samples; the compression point keeps criterion 3's ratio."""
        wl = self.wl
        cfg = lrgnn.ScenarioConfig(n_pairs=wl.pairs, n_tx_antennas=wl.antennas,
                                   edge_threshold=wl.edge_threshold, snr_db=wl.snr_db,
                                   seed=self.args.seed)
        for split, count, first in (("train", wl.n_train, 0), ("test", wl.n_test, wl.n_train)):
            made = lrgnn.generate_dataset(cfg, count, first_index=first)
            read = lrgnn.read_dataset(os.path.join(self.data, f"{split}.bin"))
            same = len(made) == len(read)
            for (s0, g0), (s1, g1) in zip(made, read):
                for a, b in ((s0.tx_positions, s1.tx_positions), (s0.rx_positions, s1.rx_positions),
                             (s0.channels, s1.channels), (s0.weights, s1.weights),
                             (s0.noise_powers, s1.noise_powers), (g0.vertex_features, g1.vertex_features),
                             (g0.edges, g1.edges), (g0.edge_features, g1.edge_features)):
                    same = same and _same_bits(a, b)
            self.checks.op(same, f"{split}.bin does not read back bit-identical")
        if wl.ratio_range:
            lo, hi = wl.ratio_range
            dense = lrgnn.count_model_params(_arch(wl.antennas, "dense"), include_bias=False)
            low = lrgnn.count_model_params(_arch(wl.antennas, wl.eval_ranks), include_bias=False)
            ratio = dense.total / low.total
            self.checks.op(lo <= ratio <= hi, f"dense/{wl.eval_ranks} ratio {ratio} outside [{lo}, {hi}]")
        self.test_set = lrgnn.read_dataset(os.path.join(self.data, "test.bin"))

    # -- one cycle ---------------------------------------------------------

    def cycle(self, out: str, rec: dict) -> None:
        """One cycle, recording each timing into `rec` as it is made."""
        wl, seed = self.wl, self.args.seed
        test_bin = os.path.join(self.data, "test.bin")

        # A fresh directory each time, like set-up's: overwriting the files
        # in place costs more and drifts as the page cache fills.
        gen_dir = os.path.join(out, "gen")
        rec["gen_s"] = self.command("gen-data", "--out", gen_dir, "--seed", seed, *wl.gen_args())
        for name in ("train.bin", "test.bin"):
            with open(os.path.join(gen_dir, name), "rb") as a, \
                    open(os.path.join(self.data, name), "rb") as b:
                self.checks.op(a.read() == b.read(), f"gen-data wrote a different {name}")
        shutil.rmtree(gen_dir)

        rec["train_s"] = {}
        for ranks in wl.train_ranks:
            run_dir = os.path.join(out, f"train-{ranks}")
            rec["train_s"][ranks] = self.command(
                "train", "--data", self.data, "--out", run_dir, "--ranks", ranks,
                "--seed", seed, *wl.train_args())
            self.models[ranks] = os.path.join(run_dir, "model.bin")
            self.check_training(ranks, run_dir)

        model, dense = self.models[wl.eval_ranks], self.models["dense"]
        eval_dir = os.path.join(out, "eval")
        rec["eval_s"] = self.command(
            "eval", "--model", model, "--data", test_bin, "--reference", dense, "--out", eval_dir)
        self.check_eval(os.path.join(eval_dir, "eval.csv"), model, dense)

        an_dir = os.path.join(out, "analyze")
        rec["analyze_s"] = (
            self.command("analyze", "--mode", "size-table", "--nt", wl.antennas, "--out", an_dir)
            + self.command("analyze", "--mode", "svals", "--model", dense, "--out", an_dir))

        rec["infer_ns"] = []
        self.infer(model, rec["infer_ns"])

    def check_training(self, ranks: str, run_dir: str) -> None:
        with open(os.path.join(run_dir, "train_report.csv"), newline="") as f:
            rows = list(csv.reader(f))[1:]
        finite = bool(rows) and all(math.isfinite(float(v)) for row in rows for v in row[1:])
        self.checks.op(finite, f"train {ranks}: non-finite loss or test sum rate")
        _, params = lrgnn.load_model(os.path.join(run_dir, "model.bin"))
        digest = trainer.params_checksum(params)
        self.checksums.setdefault(ranks, digest)
        self.checks.op(digest == self.checksums[ranks], f"train {ranks}: checksum changed between cycles")

    def check_eval(self, csv_path: str, model: str, dense: str) -> None:
        with open(csv_path, "rb") as f:
            raw = f.read()
        if self.eval_csv is not None:
            self.checks.op(raw == self.eval_csv, "eval.csv changed between cycles")
            return
        self.eval_csv = raw
        rows = _read_eval_csv(csv_path)
        mean = lrgnn.evaluate(*lrgnn.load_model(model), self.test_set)
        ref = lrgnn.evaluate(*lrgnn.load_model(dense), self.test_set)
        self.checks.op(_close(rows["mean"], mean), f"eval.csv mean {rows['mean']} != evaluate {mean}")
        self.checks.op(_close(rows["reference_mean"], ref),
                       f"eval.csv reference_mean {rows['reference_mean']} != evaluate {ref}")
        self.checks.op(_close(rows["normalized"], mean / ref), "eval.csv normalized != mean / reference")
        self.quality = {"test_wsr": rows["reference_mean"], "normalized_wsr": rows["normalized"]}

    def infer(self, model: str, lat: list) -> None:
        """Appends the per-sample latency of lrgnn.forward over the test set, in ns."""
        arch, params = lrgnn.load_model(model)
        bound = arch.p_max + 1e-9
        samples = self.test_set
        op = self.checks.op
        self.resume()
        start = time.perf_counter_ns()
        for i in range(INFER_CALLS):
            _, graph = samples[i % len(samples)]
            t0 = time.perf_counter_ns()
            q = lrgnn.forward(graph, params, arch)
            t1 = time.perf_counter_ns()
            lat.append(t1 - t0)
            op(True, "forward")
            op(bool(np.all(np.sum(np.abs(q) ** 2, axis=1) <= bound)), f"sample {i}: |q_n|^2 > p_max")
        end = time.perf_counter_ns()
        self.pause()
        self.phases.append((start, end))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--cycles", type=int)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)

    result = _run(args)
    with open(os.path.join(args.dir, "result.json"), "w") as f:
        json.dump(result, f)
    return 0


def _run(args) -> dict:
    run = Run(args)
    result = {"failures": run.checks.failures, "cycles": []}
    try:
        result["setup_done"] = run.setup()
        if args.mode == "run":
            run.check_inputs()
            begin = time.perf_counter()
            while True:
                rec = {}
                result["cycles"].append(rec)
                run.cycle(os.path.join(args.dir, "out"), rec)
                done = len(result["cycles"])
                if args.cycles is not None:
                    if done >= args.cycles:
                        break
                elif (time.perf_counter() - begin) * (done + 1) / done > args.seconds:
                    break
    except CommandFailed:
        pass  # counted by Run.command
    except Exception as e:  # noqa: BLE001 - any exception is a failed operation
        run.pause()
        run.checks.op(False, f"{type(e).__name__}: {e}")
    if args.mode == "run":
        result.update(checksums=run.checksums, phases=run.phases, **run.quality)
    if args.trace:
        run.tracer.uninstall()
        run.tracer.write(os.path.join(args.dir, "spans.jsonl"))
    result.update(
        attempted=run.checks.attempted,
        failed=run.checks.failed,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions={"python": sys.version.split()[0], "numpy": np.__version__,
                  "scipy": scipy.__version__, "lrgnn": lrgnn.__version__},
    )
    return result


if __name__ == "__main__":
    sys.exit(main())
