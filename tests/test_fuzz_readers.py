"""Readers on corrupted bytes: small valid LRGD and LRGM files are
truncated or partly overwritten, and every result must either load or
raise a FormatError, without a warning. What loads must be valid bytes:
saving it again reproduces the corrupted file exactly. `lrgnn eval` on
it must exit 0, or 1 with one `error:` line, and never raise."""

import struct
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lrgnn.binio import FormatError
from lrgnn.cli import main
from lrgnn.mpgnn import MpgnnArch, init_params, load_model, save_model
from lrgnn.scenario import ScenarioConfig, generate_dataset, read_dataset, write_dataset


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """(directory, valid bytes per target)."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = ScenarioConfig(n_pairs=3, n_tx_antennas=1, edge_threshold=1500.0, p_max=2.0, seed=2)
    samples = generate_dataset(cfg, 2)
    assert any(s.graph.edges.shape[0] for s in samples)
    write_dataset(samples, root / "valid.bin")
    arch = MpgnnArch(n_tx_antennas=1, kind="low_rank", rank1=2, rank2=2)
    save_model(root / "valid_model.bin", arch, init_params(arch, 0))
    # The model_header target corrupts only the 36-byte file header of
    # a dense model, whose rank fields are zero.
    arch = MpgnnArch(n_tx_antennas=1)
    save_model(root / "valid_dense.bin", arch, init_params(arch, 0))
    dataset = (root / "valid.bin").read_bytes()
    assert dataset[20:28] == struct.pack("<d", 2.0)
    return root, {"dataset": dataset, "model": (root / "valid_model.bin").read_bytes(),
                  "model_header": (root / "valid_dense.bin").read_bytes()}


@st.composite
def corruptions(draw, size):
    """A truncation point, or an offset and the bytes written over it."""
    if draw(st.booleans()):
        return draw(st.integers(0, size - 1)), None
    offset = draw(st.integers(0, size - 1))
    return offset, draw(st.binary(min_size=1, max_size=min(8, size - offset)))


def corrupt(raw: bytes, corruption) -> bytes:
    offset, patch = corruption
    if patch is None:
        return raw[:offset]
    return raw[:offset] + patch + raw[offset + len(patch):]


FUZZ = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("target", ["dataset", "model", "model_header"])
@FUZZ
@given(data=st.data())
def test_corrupt_file_loads_or_raises_format_error(files, target, data, capsys):
    root, valid = files
    raw = valid[target]
    bad = corrupt(raw, data.draw(corruptions(36 if target == "model_header" else len(raw))))
    is_model = target != "dataset"
    path = root / f"bad_{target}.bin"
    path.write_bytes(bad)
    resaved = root / f"resaved_{target}.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if is_model:
                save_model(resaved, *load_model(path))
            else:
                write_dataset(read_dataset(path), resaved)
        except FormatError:
            pass
        else:
            assert resaved.read_bytes() == bad

    data_path = root / "valid.bin" if is_model else path
    model_path = path if is_model else root / "valid_model.bin"
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_path), "--data", str(data_path), "--out", str(root / "eval")])
    err = capsys.readouterr().err
    assert rc in (0, 1)
    if rc == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
