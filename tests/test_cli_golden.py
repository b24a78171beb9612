"""The CLI surface pinned byte for byte: every parser's --help text at a
fixed terminal width, and the settings echoes of one fixed small run.
Unflagged settings must echo the library dataclasses' defaults."""

import dataclasses
import json
from pathlib import Path

import pytest

from lrgnn.cli import main
from lrgnn.mpgnn import MpgnnArch
from lrgnn.scenario import ScenarioConfig
from lrgnn.trainer import TrainConfig

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ["gen-data", "train", "eval", "analyze", "inspect"]

# The CLI's own defaults; every other setting takes its library default.
CLI_DEFAULTS = {
    "gen-data": {"pairs": 3, "antennas": 8, "train": 2000, "test": 500},
    "train": {"ranks": "dense"},
}


def _defaults(*classes) -> dict:
    return {f.name: f.default for cls in classes for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING}


def _help(argv, capsys) -> str:
    with pytest.raises(SystemExit) as e:
        main(argv + ["--help"])
    assert e.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("command", [None] + COMMANDS)
def test_help_text_is_unchanged(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    name = f"help_{command or 'lrgnn'}.txt"
    assert _help([command] if command else [], capsys) == (GOLDEN / name).read_text()


def test_echo_bytes_of_a_fixed_run_are_unchanged(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen-data", "--out", str(data), "--pairs", "2", "--antennas", "2",
                 "--train", "4", "--test", "2", "--seed", "1", "--snr-db", "5"]) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--ranks", "4,4",
                 "--epochs", "1", "--batch-size", "4", "--lr", "0.01"]) == 0
    assert (data / "gen_config.json").read_bytes() == (GOLDEN / "gen_config.json").read_bytes()
    assert (run / "train_config.json").read_bytes() == (GOLDEN / "train_config.json").read_bytes()


def test_unflagged_settings_echo_library_defaults(tmp_path):
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen-data", "--out", str(data), "--train", "1", "--test", "0"]) == 0
    assert main(["train", "--data", str(data), "--out", str(run)]) == 0
    gen = json.loads((data / "gen_config.json").read_text())
    trained = json.loads((run / "train_config.json").read_text())

    library = _defaults(ScenarioConfig)
    for key, value in gen.items():
        if key in ("train", "test"):
            continue
        want = CLI_DEFAULTS["gen-data"].get(key, library.get(key))
        assert (key, value) == (key, want)

    library = _defaults(MpgnnArch, TrainConfig)
    for key, value in trained.items():
        assert (key, value) == (key, CLI_DEFAULTS["train"].get(key, library.get(key)))
    assert set(CLI_DEFAULTS["train"]) < set(trained)
