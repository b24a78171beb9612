"""GNN structure: architecture validation, symmetry, projection, files."""

import hashlib
import math
import struct

import numpy as np
import pytest

from lrgnn.autodiff import Tensor, tsum
from lrgnn.mpgnn import (
    MSG_DIM,
    ModelFormatError,
    MpgnnArch,
    count_model_params,
    forward,
    forward_real,
    init_params,
    layer_step,
    load_model,
    mlp_dims,
    rebuild_params,
    round_terms,
    save_model,
)
from lrgnn.nn import glorot_uniform
from lrgnn.scenario import Scenario, ScenarioConfig, build_graph, generate_dataset, generate_scenario, graph_from_edges
from lrgnn.trainer import _union


def random_case(seed, n=4, nt=3, threshold=1500.0):
    cfg = ScenarioConfig(n_pairs=n, n_tx_antennas=nt, edge_threshold=threshold, seed=seed)
    s = generate_scenario(cfg)
    return s, build_graph(s, cfg)


class TestArch:
    def test_dims(self):
        assert mlp_dims(8) == ([48, 64, 64], [96, 512, 16])
        assert mlp_dims(512) == ([3072, 64, 64], [2112, 512, 1024])

    def test_kind_and_rank_validation(self):
        with pytest.raises(ValueError, match="kind"):
            MpgnnArch(n_tx_antennas=4, kind="sparse")
        with pytest.raises(ValueError, match="no ranks"):
            MpgnnArch(n_tx_antennas=4, kind="dense", rank1=4)
        with pytest.raises(ValueError, match="rank1 and rank2"):
            MpgnnArch(n_tx_antennas=4, kind="low_rank", rank1=4)
        with pytest.raises(ValueError, match=">= 1"):
            MpgnnArch(n_tx_antennas=4, kind="low_rank", rank1=0, rank2=4)

    def test_trainable_rank_caps(self):
        with pytest.raises(ValueError, match="rank1"):
            MpgnnArch(n_tx_antennas=16, kind="low_rank", rank1=65, rank2=4)
        # Cap on rank2 is min(64+4*Nt, 512): 128 at Nt=16.
        MpgnnArch(n_tx_antennas=16, kind="low_rank", rank1=4, rank2=128)
        with pytest.raises(ValueError, match="rank2"):
            MpgnnArch(n_tx_antennas=16, kind="low_rank", rank1=4, rank2=129)
        MpgnnArch(n_tx_antennas=512, kind="low_rank", rank1=64, rank2=512)
        # The caps at both sides of Nt=112, where 64+4*Nt reaches 512.
        for nt, cap2 in ((1, 68), (8, 96), (112, 512), (512, 512)):
            MpgnnArch(n_tx_antennas=nt, kind="low_rank", rank1=64, rank2=cap2)
            with pytest.raises(ValueError, match="rank1"):
                MpgnnArch(n_tx_antennas=nt, kind="low_rank", rank1=65, rank2=cap2)
            with pytest.raises(ValueError, match="rank2"):
                MpgnnArch(n_tx_antennas=nt, kind="low_rank", rank1=64, rank2=cap2 + 1)

    def test_basic_bounds(self):
        with pytest.raises(ValueError, match="n_tx_antennas"):
            MpgnnArch(n_tx_antennas=0)
        with pytest.raises(ValueError, match="n_rounds"):
            MpgnnArch(n_tx_antennas=2, n_rounds=0)
        for bad in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="p_max"):
                MpgnnArch(n_tx_antennas=2, p_max=bad)


class TestCounts:
    def test_dense_frozen_value(self):
        counts = count_model_params(MpgnnArch(n_tx_antennas=512), include_bias=False)
        assert counts.total == 1806336
        assert counts.mlp1 == 64 * 3072 + 64 * 64
        assert counts.mlp2 == 512 * 2112 + 1024 * 512

    def test_lowrank_frozen_value_and_ratio(self):
        arch = MpgnnArch(n_tx_antennas=512, kind="low_rank", rank1=4, rank2=4)
        lr = count_model_params(arch, include_bias=False).total
        assert lr == 29696
        dense = count_model_params(MpgnnArch(n_tx_antennas=512), include_bias=False).total
        assert dense / lr == pytest.approx(60.83, abs=0.01)

    def test_bias_inclusive_adds_bias_sizes(self):
        arch = MpgnnArch(n_tx_antennas=512)
        no_bias = count_model_params(arch, include_bias=False).total
        with_bias = count_model_params(arch, include_bias=True).total
        assert with_bias - no_bias == 64 + 64 + 512 + 1024

    def test_independent_of_round_count(self):
        a3 = count_model_params(MpgnnArch(n_tx_antennas=8, n_rounds=3))
        a7 = count_model_params(MpgnnArch(n_tx_antennas=8, n_rounds=7))
        assert a3 == a7


class TestInitParams:
    def test_deterministic_and_zero_biases(self):
        arch = MpgnnArch(n_tx_antennas=4, kind="low_rank", rank1=2, rank2=3)
        p1, p2 = init_params(arch, seed=5), init_params(arch, seed=5)
        for a, b in zip(p1.flat(), p2.flat()):
            np.testing.assert_array_equal(a, b)
        for mlp in (p1.mlp1, p1.mlp2):
            for layer in mlp.layers:
                np.testing.assert_array_equal(layer.bias, np.zeros_like(layer.bias))

    def test_draw_order_replay(self):
        # MLP1 layer 1 weight is the first draw from the seeded stream.
        arch = MpgnnArch(n_tx_antennas=4)
        params = init_params(arch, seed=11)
        rng = np.random.Generator(np.random.PCG64(11))
        expected = glorot_uniform(rng, 24, 64, (64, 24))
        np.testing.assert_array_equal(params.mlp1.layers[0].weight, expected)

    # SHA-256 of init_params(arch, 7): each flat() array's repr(shape)
    # then its little-endian f64 bytes; and of the file save_model writes.
    LAYOUT_DIGESTS = {
        None: ("24598314ef1fdc4fb00b2564ab65d99663f9e5db53b63579b479e27a2e7a6682",
               "a57a328e42c56fac1159a3ec8034d9e5defde1488c1bd539ef0e9bf7a193ab49"),
        (2, 3): ("35e02ea5b05c744ea836b79743c2fc037662e9f4643dd6414b32f9f62f4aac18",
                 "c2c56b5ec971301b383ffec84558a1ca54d1e7df878f9a1ba4ef5548179b5bb9"),
    }

    @pytest.mark.parametrize("ranks", list(LAYOUT_DIGESTS))
    def test_layout_digests_frozen(self, ranks, tmp_path):
        # Pins every array's shape, order and draw, and the file layout,
        # at Nt=4 for dense and LR(2,3).
        arch = MpgnnArch(4) if ranks is None else MpgnnArch(4, "low_rank", *ranks)
        params = init_params(arch, 7)
        h = hashlib.sha256()
        for a in params.flat():
            h.update(repr(a.shape).encode() + a.astype("<f8").tobytes())
        save_model(tmp_path / "m.bin", arch, params)
        init_hex, file_hex = self.LAYOUT_DIGESTS[ranks]
        assert h.hexdigest() == init_hex
        assert hashlib.sha256((tmp_path / "m.bin").read_bytes()).hexdigest() == file_hex

    def test_rebuild_rejects_leftovers(self):
        arch = MpgnnArch(n_tx_antennas=2)
        arrays = init_params(arch, 0).flat()
        with pytest.raises(ValueError, match="unused"):
            rebuild_params(arch, arrays + [np.zeros(3)])


class TestLayerStep:
    def test_hidden_in_unit_interval_and_fixed_preserved(self):
        s, g = random_case(seed=1)
        arch = MpgnnArch(n_tx_antennas=3)
        params = init_params(arch, 0)
        fixed = g.vertex_features[:, :6]
        before = fixed.copy()
        hidden = layer_step(np.zeros((4, 6)), g, params, round_terms(fixed, g, params))
        np.testing.assert_array_equal(fixed, before)
        assert np.all((hidden > 0.0) & (hidden < 1.0))

    @pytest.mark.parametrize("ranks", [None, (2, 3)], ids=["dense", "low_rank"])
    @pytest.mark.parametrize("threshold", [1500.0, 1e-6], ids=["edges", "no-edges"])
    def test_round_one_none_equals_zero_state(self, ranks, threshold):
        # hidden None skips round 1's projections of the all-zero state;
        # values and every gradient keep their bits, taped and plain.
        arch = MpgnnArch(3) if ranks is None else MpgnnArch(3, "low_rank", *ranks)
        s, g = random_case(seed=2, n=5, threshold=threshold)
        assert (g.edges.shape[0] == 0) == (threshold < 1.0)
        params = init_params(arch, 1)
        rng = np.random.default_rng(6)
        for a in params.flat():  # non-zero biases too
            a += 0.1 * rng.normal(size=a.shape)
        upstream = rng.normal(size=(5, 6))

        def run(hidden, taped):
            arrays = [Tensor(a, requires_grad=True) for a in params.flat()] if taped else params.flat()
            p = rebuild_params(arch, arrays)
            out = layer_step(hidden, g, p, round_terms(g.vertex_features[:, :6], g, p))
            if not taped:
                return out, []
            tsum(out * upstream).backward()
            return out.data, [t.grad for t in arrays]

        for taped in (False, True):
            (want, want_grads), (got, got_grads) = run(np.zeros((5, 6)), taped), run(None, taped)
            np.testing.assert_array_equal(got, want)
            for a, e in zip(got_grads, want_grads):
                assert (a is None) == (e is None)
                if a is not None:
                    np.testing.assert_array_equal(a, e)

    def test_isolated_vertices_update(self):
        # No edges at all: aggregation is a zero vector, update defined.
        cfg = ScenarioConfig(n_pairs=3, n_tx_antennas=2, edge_threshold=1e-6, seed=2)
        s = generate_scenario(cfg)
        g = build_graph(s, cfg)
        assert g.edges.shape[0] == 0
        arch = MpgnnArch(n_tx_antennas=2)
        q = forward(g, init_params(arch, 0), arch)
        assert np.all(np.isfinite(q))


class TestForward:
    def test_power_constraint_by_construction(self):
        arch = MpgnnArch(n_tx_antennas=3, p_max=2.5)
        params = init_params(arch, 3)
        for seed in range(10):
            s, g = random_case(seed=seed)
            q = forward(g, params, arch)
            assert q.shape == (4, 3)
            assert np.all(np.sum(np.abs(q) ** 2, axis=1) <= 2.5 + 1e-9)

    def test_nt_mismatch_rejected(self):
        s, g = random_case(seed=0, nt=3)
        arch = MpgnnArch(n_tx_antennas=4)
        with pytest.raises(ValueError, match="Nt"):
            forward(g, init_params(arch, 0), arch)

    def test_symmetric_pair_equal_outputs(self):
        # Two vertices with identical desired channels, identical mutual
        # interference, mirrored edges: outputs must match exactly.
        rng = np.random.default_rng(4)
        nt = 3
        a = rng.normal(size=nt) + 1j * rng.normal(size=nt)
        b = rng.normal(size=nt) + 1j * rng.normal(size=nt)
        h = np.empty((2, 2, nt), dtype=np.complex128)
        h[0, 0] = h[1, 1] = a
        h[0, 1] = h[1, 0] = b
        s = Scenario(
            tx_positions=np.zeros((2, 2)),
            rx_positions=np.zeros((2, 2)),
            channels=h,
            weights=np.ones(2),
            noise_powers=np.full(2, 0.1),
        )
        g = graph_from_edges(s, np.array([[0, 1], [1, 0]]))
        arch = MpgnnArch(n_tx_antennas=nt)
        q = forward(g, init_params(arch, 7), arch)
        np.testing.assert_array_equal(q[0], q[1])

    def test_permutation_equivariance_exact(self):
        for seed in range(5):
            s, g = random_case(seed=seed, n=5, nt=2, threshold=900.0)
            arch = MpgnnArch(n_tx_antennas=2)
            params = init_params(arch, seed + 20)
            q = forward(g, params, arch)

            perm = np.random.default_rng(seed).permutation(5)
            inv = np.empty(5, dtype=np.intp)
            inv[perm] = np.arange(5)
            sp = Scenario(
                tx_positions=s.tx_positions[perm],
                rx_positions=s.rx_positions[perm],
                channels=s.channels[perm][:, perm],
                weights=s.weights[perm],
                noise_powers=s.noise_powers[perm],
            )
            remapped = np.stack([inv[g.edges[:, 0]], inv[g.edges[:, 1]]], axis=1)
            order = np.lexsort((remapped[:, 1], remapped[:, 0]))
            remapped = remapped[order]
            gp = graph_from_edges(sp, remapped)
            qp = forward(gp, params, arch)
            np.testing.assert_array_equal(qp, q[perm])

    def test_three_rounds_share_parameters(self):
        s, g = random_case(seed=6)
        arch1 = MpgnnArch(n_tx_antennas=3, n_rounds=1)
        arch3 = MpgnnArch(n_tx_antennas=3, n_rounds=3)
        params = init_params(arch3, 9)
        terms = round_terms(g.vertex_features[:, :6], g, params)
        hidden = np.zeros((4, 6))
        for _ in range(3):
            hidden = layer_step(hidden, g, params, terms)
        v = 2.0 * hidden - 1.0
        norm = np.sqrt(np.sum(v * v, axis=1, keepdims=True))
        manual = v * (1.0 / np.maximum(norm, 1.0))
        expected = manual[:, :3] + 1j * manual[:, 3:]
        np.testing.assert_array_equal(forward(g, params, arch3), expected)
        assert count_model_params(arch1) == count_model_params(arch3)

    def test_dense_and_lowrank_same_shapes(self):
        s, g = random_case(seed=8)
        dense = MpgnnArch(n_tx_antennas=3)
        lr = MpgnnArch(n_tx_antennas=3, kind="low_rank", rank1=2, rank2=2)
        qd = forward(g, init_params(dense, 0), dense)
        ql = forward(g, init_params(lr, 0), lr)
        assert qd.shape == ql.shape == (4, 3)


def per_edge_reference(graph, params, arch):
    """forward_real in plain numpy, without the split first layers: each
    round feeds the concatenated per-edge input [fixed_j | hidden_j |
    e_jn] to MLP1 and [fixed_n | hidden_n | agg_n] to MLP2."""
    nt = arch.n_tx_antennas
    fixed = graph.vertex_features[:, : 2 * nt]
    hidden = np.zeros_like(fixed)
    src, dst = graph.edges[:, 0], graph.edges[:, 1]
    for _ in range(arch.n_rounds):
        agg = np.zeros((graph.n_vertices, MSG_DIM))
        if src.size:
            msgs = params.mlp1(np.concatenate([fixed[src], hidden[src], graph.edge_features], axis=1))
            np.maximum.at(agg, dst, msgs)  # messages are >= 0, so 0 is neutral
        y = params.mlp2(np.concatenate([fixed, hidden, agg], axis=1))
        hidden = 1.0 / (1.0 + np.exp(-np.clip(y, -500.0, 500.0)))
    v = 2.0 * hidden - 1.0
    root_p = np.sqrt(arch.p_max)
    return v * (root_p / np.maximum(np.linalg.norm(v, axis=1, keepdims=True), root_p))


class TestSplitFirstLayers:
    """forward_real against the per-edge formulation it replaces."""

    NT = 3

    @pytest.fixture(params=["dense", (2, 2), (16, 4)], ids=["dense", "lr2-2", "lr16-4"])
    def model(self, request):
        kind = request.param
        if kind == "dense":
            arch = MpgnnArch(n_tx_antennas=self.NT, p_max=2.0)
        else:
            arch = MpgnnArch(self.NT, "low_rank", *kind, p_max=2.0)
        params = init_params(arch, 4)
        rng = np.random.default_rng(5)
        for a in params.flat():  # non-zero biases, so their terms count too
            a += 0.1 * rng.normal(size=a.shape)
        return arch, params

    @pytest.fixture(params=["one", "union16", "no-edges"])
    def graph(self, request):
        threshold = 1e-6 if request.param == "no-edges" else 1500.0
        cfg = ScenarioConfig(n_pairs=5, n_tx_antennas=self.NT, edge_threshold=threshold, seed=8)
        samples = generate_dataset(cfg, 16 if request.param == "union16" else 1)
        graph, _ = _union([g for _, g in samples])
        assert (graph.edges.shape[0] == 0) == (request.param == "no-edges")
        return graph

    def test_plain_and_taped_match_per_edge_reference(self, model, graph):
        arch, params = model
        want = per_edge_reference(graph, params, arch)
        scale = np.max(np.abs(want))
        plain = forward_real(graph, params, arch)
        np.testing.assert_allclose(plain, want, rtol=1e-12, atol=1e-12 * scale)
        tensors = [Tensor(a, requires_grad=True) for a in params.flat()]
        taped = forward_real(graph, rebuild_params(arch, tensors), arch)
        np.testing.assert_array_equal(taped.data, plain)


class TestModelFiles:
    def roundtrip(self, tmp_path, arch, seed=0):
        params = init_params(arch, seed)
        path = tmp_path / "m.bin"
        save_model(path, arch, params)
        return path, params, load_model(path)

    def test_roundtrip_dense(self, tmp_path):
        arch = MpgnnArch(n_tx_antennas=4)
        path, params, (arch2, params2) = self.roundtrip(tmp_path, arch)
        assert arch2 == arch
        for a, b in zip(params.flat(), params2.flat()):
            np.testing.assert_array_equal(a.astype(np.float32), b.astype(np.float32))

    def test_roundtrip_lowrank_bit_exact_after_snap(self, tmp_path):
        arch = MpgnnArch(n_tx_antennas=4, kind="low_rank", rank1=3, rank2=5)
        params = init_params(arch, 1)
        snapped = rebuild_params(
            arch, [a.astype(np.float32).astype(np.float64) for a in params.flat()]
        )
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_model(p1, arch, snapped)
        arch2, loaded = load_model(p1)
        for a, b in zip(snapped.flat(), loaded.flat()):
            np.testing.assert_array_equal(a, b)
        save_model(p2, arch2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"XXXX" + b"\x00" * 40)
        with pytest.raises(ModelFormatError, match="bad magic"):
            load_model(p)

    def test_bad_version(self, tmp_path):
        arch = MpgnnArch(n_tx_antennas=2)
        p = tmp_path / "m.bin"
        save_model(p, arch, init_params(arch, 0))
        raw = bytearray(p.read_bytes())
        raw[4] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="version"):
            load_model(p)

    def test_truncation(self, tmp_path):
        arch = MpgnnArch(n_tx_antennas=2)
        p = tmp_path / "m.bin"
        save_model(p, arch, init_params(arch, 0))
        p.write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ModelFormatError, match="truncated"):
            load_model(p)

    def test_non_finite_weight(self, tmp_path):
        arch = MpgnnArch(n_tx_antennas=2)
        p = tmp_path / "m.bin"
        save_model(p, arch, init_params(arch, 0))
        raw = bytearray(p.read_bytes())
        # 36-byte file header, 12-byte layer header, then layer 0's W.
        raw[48:52] = np.array([np.inf], dtype="<f4").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="non-finite value in layer 0 W"):
            load_model(p)

    @pytest.mark.parametrize("entry", [1e39, -1e39, math.inf, math.nan])
    def test_save_refuses_a_weight_load_refuses(self, tmp_path, entry):
        # 1e39 was written as inf, with an overflow warning.
        arch = MpgnnArch(n_tx_antennas=2)
        params = init_params(arch, 0)
        params.mlp2.layers[1].bias[3] = entry
        p = tmp_path / "m.bin"
        with pytest.raises(ValueError, match="non-finite value in layer 3 bias as f32"):
            save_model(p, arch, params)
        assert not p.exists()

    def test_layer_header_mismatch(self, tmp_path):
        arch = MpgnnArch(n_tx_antennas=2)
        p = tmp_path / "m.bin"
        save_model(p, arch, init_params(arch, 0))
        raw = bytearray(p.read_bytes())
        raw[36] ^= 0xFF  # corrupt the first layer's d_in
        p.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match="layer 0"):
            load_model(p)

    def test_expected_file_size(self, tmp_path):
        arch = MpgnnArch(n_tx_antennas=8)
        p = tmp_path / "m.bin"
        save_model(p, arch, init_params(arch, 0))
        total = count_model_params(arch, include_bias=True).total
        assert p.stat().st_size == 36 + 4 * 12 + 4 * total

    def test_power_budget_and_rounds_round_trip(self, tmp_path):
        arch = MpgnnArch(n_tx_antennas=2, kind="low_rank", rank1=2, rank2=3, n_rounds=2, p_max=4.0)
        _, params, (arch2, params2) = self.roundtrip(tmp_path, arch)
        assert arch2 == arch
        assert arch2.p_max == 4.0 and arch2.n_rounds == 2

    def test_version_1_is_refused(self, tmp_path):
        # A v1 file is a v2 file without the 12 bytes of p_max and n_rounds.
        arch = MpgnnArch(n_tx_antennas=2, p_max=4.0, n_rounds=2)
        p = tmp_path / "m.bin"
        save_model(p, arch, init_params(arch, 0))
        raw = p.read_bytes()
        p.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:24] + raw[36:])
        with pytest.raises(ModelFormatError, match="unsupported version 1, expected 2"):
            load_model(p)

    @pytest.mark.parametrize("arch, offset, raw_value, field", [
        (MpgnnArch(n_tx_antennas=2), 8, struct.pack("<I", 2), "flags"),
        (MpgnnArch(n_tx_antennas=2), 8, struct.pack("<I", 0xFFFFFFFE), "flags"),
        (MpgnnArch(n_tx_antennas=2, kind="low_rank", rank1=2, rank2=3), 8, struct.pack("<I", 3), "flags"),
        (MpgnnArch(n_tx_antennas=2), 16, struct.pack("<I", 5), "dense architectures take no ranks"),
        (MpgnnArch(n_tx_antennas=2), 20, struct.pack("<I", 7), "dense architectures take no ranks"),
    ], ids=["dense-flags-2", "dense-flags-fffffffe", "low-rank-flags-3", "dense-rank1-5", "dense-rank2-7"])
    def test_header_bytes_the_writer_never_writes(self, tmp_path, arch, offset, raw_value, field):
        p = tmp_path / "m.bin"
        save_model(p, arch, init_params(arch, 0))
        raw = bytearray(p.read_bytes())
        raw[offset:offset + 4] = raw_value
        p.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match=field):
            load_model(p)

    @pytest.mark.parametrize("field, offset, raw_value", [
        ("p_max", 24, struct.pack("<d", math.nan)),
        ("p_max", 24, struct.pack("<d", -1.0)),
        ("n_rounds", 32, struct.pack("<I", 0)),
        ("n_rounds", 32, struct.pack("<I", 1 << 24)),
    ])
    def test_invalid_stored_arch_value(self, tmp_path, field, offset, raw_value):
        arch = MpgnnArch(n_tx_antennas=2)
        p = tmp_path / "m.bin"
        save_model(p, arch, init_params(arch, 0))
        raw = bytearray(p.read_bytes())
        raw[offset:offset + len(raw_value)] = raw_value
        p.write_bytes(bytes(raw))
        with pytest.raises(ModelFormatError, match=field):
            load_model(p)
