"""Low-rank message-passing GNNs for beamforming in MISO interference networks.

The pipeline: simulate random transceiver networks (`scenario`), run a
permutation-equivariant message-passing GNN over the interference graph
(`mpgnn`, built on the autodiff/`nn` core), train it unsupervised
against the weighted sum rate (`objective`, `trainer`), and analyze how
low-rank factorized layers shrink the model (`compression`). The
`lrgnn` command drives everything from the shell.
"""

from .mpgnn import (
    MpgnnArch,
    MpgnnParams,
    count_model_params,
    forward,
    init_params,
    load_model,
    save_model,
)
from .objective import baseline_beamformers, rate_report, sinr, weighted_sum_rate
from .scenario import (
    Sample,
    Scenario,
    ScenarioConfig,
    build_graph,
    generate_dataset,
    generate_scenario,
    read_dataset,
    write_dataset,
)
from .trainer import TrainConfig, TrainReport, evaluate, train

__version__ = "0.1.0"

__all__ = [
    "MpgnnArch",
    "MpgnnParams",
    "Sample",
    "Scenario",
    "ScenarioConfig",
    "TrainConfig",
    "TrainReport",
    "baseline_beamformers",
    "build_graph",
    "count_model_params",
    "evaluate",
    "forward",
    "generate_dataset",
    "generate_scenario",
    "init_params",
    "load_model",
    "rate_report",
    "read_dataset",
    "save_model",
    "sinr",
    "train",
    "weighted_sum_rate",
    "write_dataset",
]
