"""Readers on corrupted bytes: small valid LRGD and LRGM files are
truncated or partly overwritten, and every result must either load or
raise a FormatError, without a warning; `lrgnn eval` on it must exit 0,
or 1 with one `error:` line, and never raise."""

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
    """(directory, valid dataset bytes, valid model bytes)."""
    root = tmp_path_factory.mktemp("fuzz")
    cfg = ScenarioConfig(n_pairs=3, n_tx_antennas=1, edge_threshold=1500.0, seed=2)
    samples = generate_dataset(cfg, 2)
    assert any(s.graph.edges.shape[0] for s in samples)
    write_dataset(samples, root / "valid.bin")
    arch = MpgnnArch(n_tx_antennas=1, kind="low_rank", rank1=2, rank2=2)
    save_model(root / "valid_model.bin", arch, init_params(arch, 0))
    return root, (root / "valid.bin").read_bytes(), (root / "valid_model.bin").read_bytes()


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


@pytest.mark.parametrize("target", ["dataset", "model"])
@FUZZ
@given(data=st.data())
def test_corrupt_file_loads_or_raises_format_error(files, target, data, capsys):
    root, dataset, model = files
    raw = dataset if target == "dataset" else model
    bad = corrupt(raw, data.draw(corruptions(len(raw))))
    path = root / f"bad_{target}.bin"
    path.write_bytes(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            (read_dataset if target == "dataset" else load_model)(path)
        except FormatError:
            pass

    data_path = path if target == "dataset" else root / "valid.bin"
    model_path = path if target == "model" else root / "valid_model.bin"
    capsys.readouterr()
    rc = main(["eval", "--model", str(model_path), "--data", str(data_path), "--out", str(root / "eval")])
    err = capsys.readouterr().err
    assert rc in (0, 1)
    if rc == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
