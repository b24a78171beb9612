"""lrgnn benchmark: closed-loop workloads through the public surface.

    python3 perfbench/run.py --workload graph-train --seed 0 --seconds 10 --trace 0

Run from the root of a checkout that has `src/lrgnn`. Each workload runs
in its own interpreter (child.py) with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1 before numpy is imported
and LRGNN_THREADS unset; the seed feeds `gen-data --seed` and
`train --seed` and nothing else.

`--trace 0` measures the end-to-end metrics: set-up is repeated in
SETUP_REPEATS fresh interpreters and reported as the median, then one
run spends `--seconds` on timed cycles, each running every command
once and making a fixed number of `forward` calls (see end_to_end for
the estimators).
Every child must have ended within `--seconds` + RUN_MARGIN_S of the
start, so a run with `--seconds` above 55 may take longer than 180 s.
`--trace 1` runs TRACE_CYCLES cycles untraced, then the same cycles
with spans recorded around the calls into each lrgnn module, and
reports the per-layer metrics; the two runs must train bit-identical
models. mpgnn.forward_ms_p99 comes from the untraced cycles' `forward`
calls. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines above it give the same
numbers for people, with the environment and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import LAYER_METRICS, layer_metrics, read_spans  # noqa: E402
from workloads import EPOCHS, WORKLOADS  # noqa: E402

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
TRACE_CYCLES = 2
RUN_MARGIN_S = 120  # for the set-up children and the last cycle's overrun

# name -> unit; the order is the print order
END_TO_END = {
    "setup_s": "s",
    "gen_samples_per_s": "samples/s",
    "train_samples_per_s": "samples/s",
    "eval_samples_per_s": "samples/s",
    "infer_ms_p50": "ms",
    "infer_ms_p90": "ms",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(Exception):
    pass


def _child(workload: str, seed: int, work: str, deadline: float, name: str, *extra) -> dict:
    """Run child.py to completion by the monotonic `deadline`; returns its
    result.json plus the spawn time."""
    out = os.path.join(work, name)
    os.makedirs(out)
    env = {k: v for k, v in os.environ.items() if k != "LRGNN_THREADS"}
    env.update(BLAS_ENV)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--dir", out, *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        raise ChildFailed(f"{name}: no result by the run's deadline") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildFailed(f"{name}: exit {proc.returncode}: " + " | ".join(tail))
    with open(os.path.join(out, "result.json")) as f:
        result = json.load(f)
    result["spawned"] = spawned
    result["dir"] = out
    return result


def _percentile(values: list, p: int) -> float:
    return statistics.quantiles(values, n=100)[p - 1]


def end_to_end(setups: list, main: dict, wl) -> dict:
    """Co-tenants on a shared machine slow the program for seconds at a
    time, so each command kind reports the median of its repeats, one per
    cycle, spread over the whole run. Latency percentiles are over every
    timed `forward` call of the run; the tail beyond p90 comes in bursts
    of a few milliseconds when the host is busy, so p99 moves by more
    than a quarter between runs and is reported only by the traced run
    (mpgnn.forward_ms_p99). Set-up time is the median over
    SETUP_REPEATS fresh interpreters. A metric that a failure left
    unmeasured is None."""
    cycles = main["cycles"]
    setup = [r["setup_done"] - r["spawned"] for r in setups if "setup_done" in r]
    gen = [c["gen_s"] for c in cycles if "gen_s" in c]
    train = [[c["train_s"][r] for c in cycles if r in c.get("train_s", {})] for r in wl.train_ranks]
    evals = [c["eval_s"] for c in cycles if "eval_s" in c]
    analyze = [c["analyze_s"] for c in cycles if "analyze_s" in c]
    latency = all_latencies(cycles)
    out = dict.fromkeys(END_TO_END)
    out["peak_rss_mb"] = main["peak_rss_mb"]
    if setup:
        out["setup_s"] = statistics.median(setup)
    if gen:
        out["gen_samples_per_s"] = (wl.n_train + wl.n_test) / statistics.median(gen)
    if all(train):
        out["train_samples_per_s"] = (EPOCHS * wl.n_train * len(train)
                                      / sum(statistics.median(t) for t in train))
    if evals:
        out["eval_samples_per_s"] = wl.n_test / statistics.median(evals)
    if len(latency) >= 2:
        out["infer_ms_p50"] = statistics.median(latency) / 1e6
        out["infer_ms_p90"] = _percentile(latency, 90) / 1e6
    if analyze:
        out["analyze_s"] = statistics.median(analyze)
    return out


def all_latencies(cycles: list) -> list:
    return [ns for c in cycles for ns in c.get("infer_ns", [])]


def _same_float(a, b) -> bool:
    return a is not None and b is not None and a.hex() == b.hex()


def _phase_wall_ns(result: dict) -> int:
    return sum(end - start for start, end in result["phases"])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(args, work: str) -> tuple[dict, list, dict]:
    """Returns (metrics, children, sample counts)."""
    wl = WORKLOADS[args.workload]
    deadline = time.monotonic() + args.seconds + RUN_MARGIN_S
    if args.trace:
        base = _child(wl.name, args.seed, work, deadline, "untraced", "--mode", "run",
                      "--cycles", str(TRACE_CYCLES))
        traced = _child(wl.name, args.seed, work, deadline, "traced", "--mode", "run",
                        "--cycles", str(TRACE_CYCLES), "--trace")
        spans = read_spans(os.path.join(traced["dir"], "spans.jsonl"))
        metrics = layer_metrics(spans, traced["phases"])
        base_ns = _phase_wall_ns(base)
        metrics["trace.overhead_frac"] = _phase_wall_ns(traced) / base_ns - 1.0 if base_ns else None
        latency = all_latencies(base["cycles"])
        metrics["mpgnn.forward_ms_p99"] = _percentile(latency, 99) / 1e6 if len(latency) >= 2 else None
        metrics["objective.test_wsr"] = traced.get("test_wsr")
        metrics["objective.normalized_wsr"] = traced.get("normalized_wsr")
        # Tracing must not perturb what the program computes.
        same = [traced["checksums"] == base["checksums"],
                _same_float(traced.get("test_wsr"), base.get("test_wsr")),
                _same_float(traced.get("normalized_wsr"), base.get("normalized_wsr"))]
        compare = {"attempted": len(same), "failed": same.count(False),
                   "failures": [] if all(same) else ["traced run computed different models or rates"]}
        counts = {"trace_cycles": TRACE_CYCLES, "spans": len(spans),
                  "forward_p99_samples": len(latency)}
        return metrics, [compare, base, traced], counts
    setups = [_child(wl.name, args.seed, work, deadline, f"setup{k}", "--mode", "setup")
              for k in range(SETUP_REPEATS - 1)]
    for r in setups:
        shutil.rmtree(r["dir"])
    main = _child(wl.name, args.seed, work, deadline, "run", "--mode", "run",
                  "--seconds", str(args.seconds))
    metrics = end_to_end(setups + [main], main, wl)
    cycles = main["cycles"]
    counts = {
        "setup_repeats": SETUP_REPEATS,
        "cycles": len(cycles),  # each times every command once
        "infer_percentile_samples": len(all_latencies(cycles)),
        "infer_samples_beyond_p90": sum(ns > (metrics["infer_ms_p90"] or 0.0) * 1e6
                                        for ns in all_latencies(cycles)),
    }
    return metrics, setups + [main], counts


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="lrgnn benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "lrgnn", "__init__.py")):
        print(f"error: no lrgnn sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    work = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work)
    try:
        metrics, children, counts = measure(args, work)
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("\n".join(report(args, metrics, children, counts)))
    return 0


def report(args, metrics: dict, children: list, counts: dict) -> list[str]:
    """Human-readable lines, the environment, then the JSON result line."""
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    units = {k: LAYER_METRICS[k][0] for k in LAYER_METRICS} if args.trace else END_TO_END
    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        **children[-1]["versions"],
        **BLAS_ENV,
        "LRGNN_THREADS": "unset (1)",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sample_counts": counts,
    }
    lines = [f"lrgnn benchmark: {args.workload}, seed {args.seed}, trace {args.trace}"]
    lines += [f"  {name:28s} {metrics[name]:>16.6g} {unit}" if metrics[name] is not None
              else f"  {name:28s} {'not measured':>16s}" for name, unit in units.items()]
    lines.append(f"  {'error_rate':28s} {failed / attempted:>16.6g} "
                 f"({failed} failed / {attempted} attempted)")
    lines += [f"  FAILED: {what}" for c in children for what in c["failures"]]
    lines.append("environment " + json.dumps(environment, sort_keys=True))
    lines.append(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return lines


if __name__ == "__main__":
    sys.exit(main())
