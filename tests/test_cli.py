import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import squintsbl
from squintsbl.cli import _KEY_HELP, _UsageError, _parse_points, build_parser, main
from squintsbl.config import SystemConfig, desk_config, provenance_line
from squintsbl.data_io import load_container, save_container
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
    assert lines[0] == provenance_line(desk_config())
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


def test_gen_data_prints_split_times_and_keeps_them_out_of_the_manifest(tmp_path, capsys):
    """Each split's line gives its generation wall time; two runs write the same manifest."""
    manifests = []
    for name in ("a", "b"):
        assert main(["gen-data", "--scale", "desk", "--sizes", "3,2,2", "--out", str(tmp_path / name)]) == 0
        manifests.append((tmp_path / name / "manifest.json").read_text())
    lines = capsys.readouterr().out.splitlines()
    for split, n in (("train", 3), ("val", 2), ("test", 2)):
        assert sum(re.match(rf"{split}: {n} samples in \d+\.\d+ s -> ", line) is not None
                   for line in lines) == 2
    assert manifests[0] == manifests[1]
    for entry in json.loads(manifests[0])["splits"].values():
        assert set(entry) == {"file", "n_samples"}


def test_gen_data_rejects_an_empty_split(tmp_path, capsys):
    assert main(["gen-data", "--scale", "desk", "--sizes", "3,0,2", "--out", str(tmp_path)]) == 1
    assert "split sizes must be positive" in capsys.readouterr().err


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
    for path in (eval_csv, sweep_csv, run / "training_report.csv"):
        assert path.read_text().splitlines()[0] == provenance_line(desk_config()), path.name


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


def test_train_on_dataset_missing_an_array_is_an_error(tmp_path, capsys):
    """A split file with no delay array ends train in error: and exit 1, not a traceback."""
    data = tmp_path / "data"
    assert main(["gen-data", "--scale", "desk", "--sizes", "4,2,2", "--out", str(data)]) == 0
    kind, meta, arrays = load_container(data / "val.npz")
    del arrays["delay"]
    save_container(data / "val.npz", kind, meta, arrays)
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--depth", "2",
                 "--max-epochs", "1", "--batch-size", "2"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'delay'" in err


@pytest.mark.parametrize("case, expected", [
    ("a list", "must hold a JSON object"),
    ("no config", "has no 'config' object"),
    ("no splits", "has no 'splits' object"),
    ("no val split", "has no split 'val'"),
    ("no test file", "split 'test' has no 'file'"),
], ids=["list", "no-config", "no-splits", "no-val-split", "no-test-file"])
def test_train_on_malformed_manifest_is_an_error(case, expected, tmp_path, capsys):
    """A manifest that lacks a part ends train in error: naming it and exit 1, not a traceback."""
    data = tmp_path / "data"
    assert main(["gen-data", "--scale", "desk", "--sizes", "4,2,2", "--out", str(data)]) == 0
    manifest = json.loads((data / "manifest.json").read_text())
    if case == "a list":
        manifest = [manifest]
    elif case == "no config":
        del manifest["config"]
    elif case == "no splits":
        del manifest["splits"]
    elif case == "no val split":
        del manifest["splits"]["val"]
    else:
        del manifest["splits"]["test"]["file"]
    (data / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["train", "--data", str(data), "--out", str(tmp_path / "run"), "--depth", "2",
                 "--max-epochs", "1", "--batch-size", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and expected in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("preset, expected", [({}, "1"), ({"OMP_NUM_THREADS": "2"}, None)],
                         ids=["clean-env", "omp-set"])
def test_package_import_defaults_to_one_blas_thread(preset, expected):
    """Importing the package sets one OpenBLAS thread unless a thread count is already chosen."""
    src = Path(squintsbl.__file__).resolve().parents[1]
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src), **preset}
    code = "import os, squintsbl; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(expected)
