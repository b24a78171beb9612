"""Measure how much factorized layers shrink the model at large scale.

Builds the dense and low-rank architectures at Nt = 512 antennas (the
regime where the hidden MLPs dominate), prints the dense/low-rank size
ratio over a grid of ranks, and the matching parameter reduction
fractions. Finishes with serialized file sizes so the on-disk saving is
visible, not just the parameter arithmetic.
"""
import os
import tempfile

from lrgnn import MpgnnArch, count_model_params, init_params, save_model
from lrgnn.compression import reduction_fraction, size_ratio_table
from lrgnn.mpgnn import param_counts

NT = 512

dense_n = param_counts(NT, None, include_bias=False).total
print(f"dense model at Nt={NT}: {dense_n:,} weights (biases excluded)")
for a1, a2 in ((4, 4), (16, 4), (64, 512)):
    n = param_counts(NT, (a1, a2), include_bias=False).total
    print(f"  low-rank (a1={a1:>2}, a2={a2:>3}): {n:>9,} weights, "
          f"ratio {dense_n / n:6.2f}x, reduction p = {reduction_fraction(NT, a1, a2):.5f}")

grid = size_ratio_table(NT)
header = "a1\\a2 " + "".join(f"{a2:>8}" for a2 in grid.a2_values)
print("\nsize ratio (dense / low-rank):")
print(header)
for i, a1 in enumerate(grid.a1_values):
    print(f"{a1:>5} " + "".join(f"{grid.size_ratios[i, j]:8.2f}" for j in range(len(grid.a2_values))))

print("\nreduction fraction p = 1 - low-rank/dense:")
print(header)
for i, a1 in enumerate(grid.a1_values):
    print(f"{a1:>5} " + "".join(f"{grid.p_values[i, j]:8.3f}" for j in range(len(grid.a2_values))))
print("(p < 0 in the last column: rank 512 factor pairs cost more than "
      "the dense layers they replace)")

# The same ratio shows up on disk, shifted only by the fixed header.
with tempfile.TemporaryDirectory() as tmp:
    sizes = {}
    for name, arch in (
        ("dense", MpgnnArch(n_tx_antennas=NT)),
        ("lr_4_4", MpgnnArch(n_tx_antennas=NT, kind="low_rank", rank1=4, rank2=4)),
    ):
        path = os.path.join(tmp, name + ".bin")
        save_model(path, arch, init_params(arch, seed=0))
        sizes[name] = os.path.getsize(path)
        print(f"\n{name}: {count_model_params(arch).total:,} stored parameters -> "
              f"{sizes[name]:,} bytes on disk")
    print(f"file size ratio: {sizes['dense'] / sizes['lr_4_4']:.1f}x")
