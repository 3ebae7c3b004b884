import argparse
import dataclasses
import json

import pytest

from squintsbl.cli import _KEY_HELP, _UsageError, _parse_points, build_parser, main
from squintsbl.config import SystemConfig, desk_config
from squintsbl.data_io import load_container
from squintsbl.evaluation import PER_ITERATION_FLOPS, SWEEP_ALGOS, SWEEP_AXES, flops_per_iteration
from squintsbl.sbl import E_STEPS
from squintsbl.training import TrainConfig


def test_parse_points_range_and_list():
    assert _parse_points("0:20:5") == [0.0, 5.0, 10.0, 15.0, 20.0]
    assert _parse_points("1, 2,4") == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("spec", ["20:0:5", ",", "0:10:0", "1:2"])
def test_parse_points_rejects_empty_or_malformed(spec):
    with pytest.raises(_UsageError):
        _parse_points(spec)


def test_sweep_backward_range_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["sweep", "--scale", "desk", "--axis", "snr", "--points", "20:0:5", "--algos", "sbl"])
    assert code == 1
    assert "error: no sweep points given" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_evaluate_zero_samples_names_n_samples(capsys):
    code = main(["evaluate", "--scale", "desk", "--n-samples", "0", "--algos", "sbl"])
    assert code == 1
    assert "n_samples" in capsys.readouterr().err


def test_evaluate_short_delay_grid_is_an_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["evaluate", "--scale", "desk", "--grid-delay", "4", "--algos", "amp-sbl"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "grid_delay=4" in err and "n_subcarriers=8" in err
    assert list(tmp_path.iterdir()) == []


def test_config_file_with_bad_value_is_an_error(tmp_path, capsys):
    cfg_file = tmp_path / "f.json"
    cfg_file.write_text(json.dumps({"bandwidth": "4e9"}))
    assert main(["flops", "--config", str(cfg_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "bandwidth" in err


def _actions(command: str) -> dict:
    """Option dest -> action of one subcommand's parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def _choices(command: str) -> dict:
    """Option dest -> choices of one subcommand's parser."""
    return {dest: a.choices for dest, a in _actions(command).items() if a.choices is not None}


def test_every_config_field_has_a_flag():
    fields = dataclasses.fields(SystemConfig)
    assert set(_KEY_HELP) == {f.name for f in fields}
    for command in ("gen-data", "evaluate", "sweep", "flops"):
        actions = _actions(command)
        for f in fields:
            flag = actions[f.name]
            assert flag.help == _KEY_HELP[f.name] and flag.default is None, (command, f.name)
            assert flag.type is type(f.default), (command, f.name)


def test_flops_prints_every_table_row_once(capsys):
    assert set(SWEEP_ALGOS) <= set(PER_ITERATION_FLOPS)  # runnable algorithms have a cost row
    assert main(["flops", "--scale", "desk"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("per-iteration")) + 1
    rows = [line.split() for line in lines[start:lines.index("reconstruction FLOPs")]]
    assert [row[0] for row in rows] == list(PER_ITERATION_FLOPS)
    for algo, count in rows:
        assert int(count.replace(",", "")) == flops_per_iteration(algo, desk_config())


def test_parser_choices_and_defaults_come_from_the_library():
    train = _choices("train")
    assert tuple(train["e_step"]) == E_STEPS
    assert tuple(_choices("sweep")["axis"]) == SWEEP_AXES
    args = build_parser().parse_args(["train", "--data", "d", "--depth", "2"])
    for f in dataclasses.fields(TrainConfig):
        if f.name != "depth":
            assert getattr(args, f.name) == f.default, f.name


def _csv_header(path) -> list[str]:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[0].split(",")


def test_desk_round_trip(tmp_path):
    """gen-data, train, then evaluate and sweep with the trained net, at desk size."""
    data, run = tmp_path / "data", tmp_path / "run"
    assert main(["gen-data", "--scale", "desk", "--sizes", "8,4,4", "--out", str(data)]) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--depth", "2",
                 "--max-epochs", "1", "--batch-size", "4"]) == 0
    net = f"amp-sbl-unfolding={run / 'checkpoint.npz'}"
    common = ["--scale", "desk", "--net", net, "--n-samples", "2", "--iterations", "3", "--threads", "1"]
    eval_csv, sweep_csv = tmp_path / "eval.csv", tmp_path / "sweep.csv"
    assert main(["evaluate", *common, "--out", str(eval_csv)]) == 0
    assert main(["sweep", *common, "--axis", "snr", "--points", "0,10", "--out", str(sweep_csv)]) == 0
    assert "fail_rate" in _csv_header(eval_csv)
    assert "fail_rate" in _csv_header(sweep_csv)
    assert (run / "training_report.csv").is_file()


def test_resume_records_the_hash_of_its_config(tmp_path):
    """A resume under another noise level stores the hash of the config it stores."""
    data, run, resumed = tmp_path / "data", tmp_path / "run", tmp_path / "resumed"
    assert main(["gen-data", "--scale", "desk", "--sizes", "8,4,4", "--out", str(data)]) == 0
    train = ["train", "--data", str(data), "--max-epochs", "1", "--batch-size", "4"]
    assert main([*train, "--out", str(run), "--depth", "2"]) == 0
    assert main([*train, "--out", str(resumed), "--depth", "3", "--noise-var", "0.5",
                 "--resume", str(run / "checkpoint.npz")]) == 0
    _, meta, _ = load_container(resumed / "checkpoint.npz")
    cfg = SystemConfig.from_dict(meta["config"])
    assert cfg.noise_var == 0.5 and meta["n_stages"] == 2
    assert meta["config_hash"] == cfg.config_hash()
