"""Inspect weight spectra and distributions, dense versus factorized.

Three views: (1) singular-value spectra of a briefly trained dense
model's layers, which show how much energy a rank-r truncation keeps;
(2) the truncation identity, where the squared factorization error
equals the discarded singular-value tail; (3) pooled weight moments,
where a factorized model trained from scratch spreads its factor
entries (U and V, pooled as stored) far from the near-normal shape of
the dense model's W entries.
"""
import numpy as np

from lrgnn import MpgnnArch, ScenarioConfig, TrainConfig, generate_dataset, train
from lrgnn.compression import layer_spectra, singular_values, svd_truncate, weight_histogram

cfg = ScenarioConfig(n_pairs=3, n_tx_antennas=8, seed=0)
train_set = generate_dataset(cfg, 100, first_index=0)

dense_arch = MpgnnArch(n_tx_antennas=8)
dense_params, _ = train(train_set, TrainConfig(arch=dense_arch, epochs=3, seed=0))

print("singular values of the trained dense layers (top 4 / bottom 1):")
for name, svals, _ in layer_spectra(dense_params):
    top = ", ".join(f"{x:.3f}" for x in svals[:4])
    print(f"  {name} ({len(svals)} values): {top} ... {svals[-1]:.4f}")

w = np.asarray(dense_params.mlp2.layers[0].weight)
s = singular_values(w)
total = np.sum(s**2)
print(f"\nrank-r truncation of mlp2.0 {w.shape}: ||W||_F^2 = {total:.3f}")
for r in (2, 8, 32):
    u, v = svd_truncate(w, r)
    err = np.linalg.norm(w - (u @ v).T) ** 2
    tail = np.sum(s[r:] ** 2)
    print(f"  r={r:>2}: error^2 {err:10.3f} == tail {tail:10.3f}, "
          f"energy kept {100 * (1 - err / total):5.1f}%")

lr_arch = MpgnnArch(n_tx_antennas=8, kind="low_rank", rank1=8, rank2=8)
lr_params, _ = train(train_set, TrainConfig(arch=lr_arch, epochs=3, seed=0))

print("\npooled weight moments (dense: W entries; factorized: U and V entries):")
for label, params in (("dense", dense_params), ("low-rank (8,8)", lr_params)):
    p = weight_histogram(params).pooled
    print(f"  {label:>15}: std {p.std:.4f}, range [{p.min:+.3f}, {p.max:+.3f}], "
          f"excess kurtosis {p.kurtosis:+.2f}, n={p.n}")
