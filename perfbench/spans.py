"""Spans around the calls a workload makes into lrgnn, recorded from outside it.

`Tracer.install()` replaces each traced function or method with a wrapper
that records one span per call: name, start, end, parent span and run id,
plus a few counts taken from the call's arguments. A function imported
with `from .x import f` has a binding in every importing module, so the
wrapper is set at every binding site found in the loaded `lrgnn` modules,
and `uninstall()` puts every original back. Spans stay in memory until
`write()` is called once, when the run ends.

`layer_metrics()` turns a span file into the per-layer metrics named in
BENCHMARK.json. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict


def _file_bytes(arg_index: int):
    def attrs(args, kwargs, result):
        return {"bytes": os.path.getsize(args[arg_index])}
    return attrs


def _mlp_name(args) -> str:
    # rebuild_params makes new Mlp objects for every sample, so the two MLPs
    # are told apart by their output activation: ReLU ends MLP1 only.
    return "nn.mlp1" if args[0].output_activation == "relu" else "nn.mlp2"


def _mlp_attrs(args, kwargs, result):
    mlp, x = args[0], args[1]
    rows = x.shape[0]
    flops = 0
    for layer in mlp.layers:
        if layer.kind == "dense":
            flops += 2 * rows * layer.d_in * layer.d_out
        else:
            flops += 2 * rows * layer.rank * (layer.d_in + layer.d_out)
    return {"rows": rows, "flops": flops}


# (module, attribute, span name, attrs(args, kwargs, result) or None)
FUNCTIONS = [
    ("lrgnn.autodiff", "scatter_max", "autodiff.scatter_max", None),
    ("lrgnn.autodiff", "gather_rows", "autodiff.gather_rows", None),
    ("lrgnn.objective", "wsr_from_real", "objective.wsr_from_real", None),
    ("lrgnn.objective", "rate_report", "objective.rate_report", None),
    ("lrgnn.mpgnn", "forward", "mpgnn.forward", None),
    ("lrgnn.mpgnn", "forward_real", "mpgnn.forward_real", None),
    ("lrgnn.mpgnn", "layer_step", "mpgnn.layer_step", None),
    ("lrgnn.mpgnn", "load_model", "mpgnn.load", None),
    ("lrgnn.mpgnn", "save_model", "mpgnn.save", None),
    ("lrgnn.scenario", "generate_dataset", "scenario.generate", None),
    ("lrgnn.scenario", "write_dataset", "scenario.write", _file_bytes(1)),
    ("lrgnn.scenario", "read_dataset", "scenario.read", _file_bytes(0)),
    ("lrgnn.trainer", "train", "trainer.train", None),
    ("lrgnn.trainer", "evaluate", "trainer.evaluate", None),
    ("lrgnn.compression", "size_ratio_table", "compression.size_table", None),
    ("lrgnn.compression", "write_singular_values", "compression.svals", None),
]

# (module, class, method, span name or name(args), attrs or None)
METHODS = [
    ("lrgnn.autodiff", "Tensor", "backward", "autodiff.backward", None),
    ("lrgnn.nn", "Adam", "step", "nn.adam", None),
    ("lrgnn.nn", "Mlp", "__call__", _mlp_name, _mlp_attrs),
]


class Tracer:
    """Records spans while `active`; single-threaded, like the workloads."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = True
        self.spans: list[tuple] = []  # (id, parent, name, start_ns, end_ns, attrs)
        self._open: list[int] = []
        self._next_id = 0
        self._patches: list[tuple] = []  # (owner, attribute, original)

    def record(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        return self._call(name, None, fn, args, kwargs)

    def _call(self, name, attrs, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        sid = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(sid)
        t0 = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._open.pop()
        extra = attrs(args, kwargs, result) if attrs else None
        self.spans.append((sid, parent, name(args) if callable(name) else name, t0, t1, extra))
        return result

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, attrs, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, name, attrs in FUNCTIONS:
            original = getattr(importlib.import_module(mod_name), attr)
            wrapper = self._wrap(original, name, attrs)
            for mod in binding_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name, attrs in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name, attrs))

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, name, t0, t1, extra in self.spans:
                row = {"id": sid, "parent": parent, "name": name, "start": t0, "end": t1,
                       "run": self.run_id}
                if extra:
                    row["attrs"] = extra
                f.write(json.dumps(row, separators=(",", ":")) + "\n")


def binding_modules() -> list:
    """The loaded lrgnn package and its submodules."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "lrgnn" or name.startswith("lrgnn."))]


# Per-layer metrics: name -> (unit, better). Times are busy seconds summed
# over every call; counts are summed too. The order is the print order.
LAYER_METRICS = {
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.backward_calls": ("count", "lower"),
    "autodiff.scatter_max_s": ("s", "lower"),
    "autodiff.scatter_max_calls": ("count", "lower"),
    "autodiff.gather_rows_s": ("s", "lower"),
    "trainer.self_s": ("s", "lower"),
    "trainer.evaluate_s": ("s", "lower"),
    "nn.adam_s": ("s", "lower"),
    "nn.adam_steps": ("count", "lower"),
    "nn.mlp1_s": ("s", "lower"),
    "nn.mlp2_s": ("s", "lower"),
    "nn.mlp1_rows": ("count", "lower"),
    "nn.mlp2_rows": ("count", "lower"),
    "nn.mlp_flops": ("flop", "lower"),
    "nn.mlp_gflops_per_s": ("GFLOP/s", "higher"),
    "objective.wsr_from_real_s": ("s", "lower"),
    "objective.rate_report_s": ("s", "lower"),
    "mpgnn.forward_s": ("s", "lower"),
    "mpgnn.forward_ms_p99": ("ms", "lower"),
    "mpgnn.forward_real_s": ("s", "lower"),
    "mpgnn.forward_real_calls": ("count", "lower"),
    "mpgnn.layer_step_s": ("s", "lower"),
    "mpgnn.load_s": ("s", "lower"),
    "mpgnn.save_s": ("s", "lower"),
    "scenario.generate_s": ("s", "lower"),
    "scenario.write_s": ("s", "lower"),
    "scenario.write_bytes": ("bytes", "lower"),
    "scenario.read_s": ("s", "lower"),
    "scenario.read_bytes": ("bytes", "lower"),
    "compression.size_table_s": ("s", "lower"),
    "compression.svals_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "objective.test_wsr": ("bits/s/Hz", "higher"),
    "objective.normalized_wsr": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.uncovered_frac": ("ratio", "lower"),
}

# Filled in by run.py from whole runs rather than from spans.
FROM_RUNS = ("objective.test_wsr", "objective.normalized_wsr", "trace.overhead_frac",
             "mpgnn.forward_ms_p99")

# A span called X adds its duration to the metric X_s, one to X_calls and
# each count it carries to X_<count>, where those are listed; Adam's calls
# are its steps.
_COUNT_ALIASES = {"nn.adam": "nn.adam_steps"}


def read_spans(path) -> list[dict]:
    with open(path) as f:
        return [json.loads(line) for line in f]


def layer_metrics(spans: list[dict], phases: list[tuple]) -> dict:
    """Per-layer metrics from spans; `phases` are the timed (start_ns,
    end_ns) intervals. The metrics in FROM_RUNS are left to the caller."""
    covered = defaultdict(int)  # span id -> ns covered by its children
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]

    out = {name: 0.0 if unit in ("s", "GFLOP/s", "ratio") else 0
           for name, (unit, _) in LAYER_METRICS.items() if name not in FROM_RUNS}
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        attrs = s.get("attrs") or {}
        if name + "_s" in out:
            out[name + "_s"] += dur / 1e9
        calls = _COUNT_ALIASES.get(name, name + "_calls")
        if calls in out:
            out[calls] += 1
        for key, count in attrs.items():
            if f"{name}_{key}" in out:
                out[f"{name}_{key}"] += count
        out["nn.mlp_flops"] += attrs.get("flops", 0)
        if name == "trainer.train":
            out["trainer.self_s"] += (dur - covered[s["id"]]) / 1e9
        elif name.startswith("cli."):
            out["cli.self_s"] += (dur - covered[s["id"]]) / 1e9

    mlp_s = out["nn.mlp1_s"] + out["nn.mlp2_s"]
    out["nn.mlp_gflops_per_s"] = out["nn.mlp_flops"] / mlp_s / 1e9 if mlp_s else 0.0

    # Share of the timed phases that no top-level span covers: the
    # benchmark's own loop, clock reads and inline output checks.
    wall = sum(end - start for start, end in phases)
    top = sum(s["end"] - s["start"] for s in spans if s["parent"] is None
              and any(start <= s["start"] < end for start, end in phases))
    out["trace.uncovered_frac"] = 1.0 - top / wall if wall else 0.0
    return out
