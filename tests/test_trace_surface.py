"""The names the benchmark's tracer wraps must exist in lrgnn.

perfbench/spans.py wraps lrgnn functions and methods by name and tells
MLP1 from MLP2 by `Mlp.output_activation`. Renaming or deleting one of
them would otherwise break only the benchmark's traced run.
"""

from pathlib import Path

import numpy as np
import pytest

import lrgnn
from lrgnn.cli import main
from lrgnn.mpgnn import MpgnnArch, init_params
from lrgnn.scenario import ScenarioConfig, build_graph, generate_scenario

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    t = spans.Tracer("surface-test")
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_tracer_records_the_mlp_spans(tracer):
    cfg = ScenarioConfig(n_pairs=3, n_tx_antennas=2, edge_threshold=1500.0, seed=3)
    scenario = generate_scenario(cfg)
    graph = build_graph(scenario, cfg)
    assert graph.edges.shape[0] > 0  # MLP1 runs only on edges
    arch = MpgnnArch(n_tx_antennas=2)
    params = init_params(arch, 0)

    # Through the package binding, as the benchmark calls it: the tracer
    # patches bindings inside lrgnn, not this module's imports.
    lrgnn.forward(graph, params, arch)
    params.mlp2(np.zeros((1, arch.mlp2_dims[0])))

    names = [s[2] for s in tracer.spans]
    for name in ("mpgnn.forward", "mpgnn.forward_real", "mpgnn.layer_step", "nn.mlp1", "nn.mlp2"):
        assert name in names
    # The direct MLP2 call is a top-level span of its own.
    assert tracer.spans[-1][1] is None and tracer.spans[-1][2] == "nn.mlp2"

    # The first layers run split outside the Mlp calls; what the spans
    # see is each MLP's tail, on one row per edge (MLP1) or per vertex
    # (MLP2), once per round, with the FLOPs of the tail layer alone.
    in_forward = tracer.spans[:-1]
    e, v = graph.edges.shape[0], graph.n_vertices
    for name, rows, (d_in, d_out) in (("nn.mlp1", e, arch.mlp1_dims[1:]), ("nn.mlp2", v, arch.mlp2_dims[1:])):
        attrs = [s[5] for s in in_forward if s[2] == name]
        assert len(attrs) == arch.n_rounds
        assert all(a == {"rows": rows, "flops": 2 * rows * d_in * d_out} for a in attrs)


def test_tracer_records_the_save_of_a_train_run(tracer, tmp_path):
    # lrgnn train saves the model itself; its binding of save_model is
    # one of the sites the tracer patches.
    data, out = tmp_path / "D", tmp_path / "T"
    assert main(["gen-data", "--out", str(data), "--pairs", "2", "--antennas", "2",
                 "--train", "2", "--test", "0"]) == 0
    assert main(["train", "--data", str(data), "--out", str(out), "--epochs", "1"]) == 0
    saves = [s for s in tracer.spans if s[2] == "mpgnn.save"]
    assert len(saves) == 1 and saves[0][1] is None
    assert (out / "model.bin").exists()
