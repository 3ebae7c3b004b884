import argparse
import dataclasses

import pytest

from squintsbl.cli import _UsageError, _parse_points, build_parser, main
from squintsbl.evaluation import SWEEP_AXES
from squintsbl.mstep import FEATURE_MODES
from squintsbl.sbl import E_STEPS
from squintsbl.training import LOSS_DOMAINS, TrainConfig


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


def _choices(command: str) -> dict:
    """Option dest -> choices of one subcommand's parser."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a.choices for a in sub.choices[command]._actions if a.choices is not None}


def test_parser_choices_and_defaults_come_from_the_library():
    train = _choices("train")
    assert tuple(train["e_step"]) == E_STEPS
    assert tuple(train["loss_domain"]) == LOSS_DOMAINS
    assert tuple(train["feature_mode"]) == FEATURE_MODES
    assert tuple(_choices("sweep")["axis"]) == SWEEP_AXES
    args = build_parser().parse_args(["train", "--data", "d", "--depth", "2"])
    for f in dataclasses.fields(TrainConfig):
        if f.name == "end_to_end":
            assert args.truncated is not f.default
        elif f.name != "depth":
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
