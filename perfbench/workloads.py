"""The benchmark's workloads: fixed inputs for one cycle of commands each.

Every workload runs the whole user pipeline at its own shape, so every
end-to-end metric exists on every workload: `gen-data` in set-up, then
cycles of `gen-data`, `train`, `eval --reference`, `analyze` and
per-sample `lrgnn.forward`. What differs is where the time goes; BENCHMARK.json
says why each workload was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass

# `forward` calls per cycle; call i runs test sample i % n_test. A run
# makes at least one cycle, so at least 100 calls lie beyond p90, and the
# traced run's two untraced cycles put 20 beyond p99.
INFER_CALLS = 1000
# Every `train` command runs one epoch, at the CLI's default learning rate
# (0.001).
EPOCHS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    pairs: int
    antennas: int
    edge_threshold: float
    snr_db: float
    n_train: int
    n_test: int
    init_ranks: tuple  # models written with save_model in set-up
    train_ranks: tuple  # models trained by `train` in every cycle
    batch_size: int
    eval_ranks: str  # model that `eval` scores against the dense one
    ratio_range: tuple | None = None  # bounds on dense/low-rank weight count

    def gen_args(self) -> list:
        return ["--pairs", str(self.pairs), "--antennas", str(self.antennas),
                "--edge-threshold", repr(self.edge_threshold), "--snr-db", repr(self.snr_db),
                "--train", str(self.n_train), "--test", str(self.n_test)]

    def train_args(self) -> list:
        return ["--epochs", str(EPOCHS), "--batch-size", str(self.batch_size)]


WORKLOADS = {
    w.name: w
    for w in (
        # The denser graph; one batch of the CLI's default size per epoch.
        Workload("graph-train", pairs=10, antennas=64, edge_threshold=1500.0, snr_db=10.0,
                 n_train=64, n_test=32, init_ranks=(), train_ranks=("dense", "16,4"),
                 batch_size=64, eval_ranks="16,4"),
        # The paper's compression point. The dense reference is seed-initialised:
        # untrained weights cost the same arithmetic as trained ones.
        Workload("nt512-infer", pairs=3, antennas=512, edge_threshold=1500.0, snr_db=10.0,
                 n_train=128, n_test=100, init_ranks=("dense",), train_ranks=("4,4",),
                 batch_size=64, eval_ranks="4,4", ratio_range=(55.0, 62.0)),
    )
}
