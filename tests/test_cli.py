import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squintsbl
from squintsbl import evaluation
from squintsbl.cli import _KEY_HELP, _parse_points, build_parser, main
from squintsbl.config import SystemConfig, desk_config, provenance_line
from squintsbl.data_io import load_container, save_container
from squintsbl.evaluation import ALGORITHMS, SWEEP_AXES, Algorithm, flops_per_iteration, standard_operator
from squintsbl.mstep import MStepNet, save_checkpoint
from squintsbl.sbl import E_STEPS
from squintsbl.training import TrainConfig, generate_splits, train_layerwise


def test_parse_points_range_and_list():
    assert _parse_points("0:20:5") == [0.0, 5.0, 10.0, 15.0, 20.0]
    assert _parse_points("1, 2,4") == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("spec", ["20:0:5", ",", "0:10:0", "1:2"])
def test_parse_points_rejects_empty_or_malformed(spec):
    with pytest.raises(ValueError):
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
    for command in ("train", "evaluate", "sweep", "flops"):
        actions = _actions(command)
        for f in fields:
            flag = actions[f.name]
            assert flag.help == _KEY_HELP[f.name] and flag.default is None, (command, f.name)
            assert flag.type is type(f.default), (command, f.name)
    # one flag per key; --snr-db is the only second spelling
    config_flags = {f.name for f in fields} | {"help", "config", "scale", "snr_db"}
    assert set(_actions("flops")) == config_flags
    train_flags = {f.name for f in dataclasses.fields(TrainConfig)} | {"sizes", "out", "resume"}
    assert set(_actions("train")) == config_flags | train_flags


def _flops_rows(out: str) -> list[list[str]]:
    """The per-iteration rows `flops` printed, each [algo, count], then its reconstruction line."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("per-iteration")) + 1
    return [line.split() for line in lines[start:-1]] + [lines[-1]]


def test_flops_prints_every_table_row_once(capsys):
    assert main(["flops", "--scale", "desk"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == provenance_line(desk_config())
    *rows, reconstruction = _flops_rows(out)
    assert [row[0] for row in rows] == ["sbl", "sbl-unfolding", "amp-sbl", "amp-sbl-unfolding"]
    for algo, count in rows:
        assert int(count.replace(",", "")) == flops_per_iteration(algo, desk_config())
    assert reconstruction == "reconstruction FLOPs per estimate: 32,768"


def test_algorithm_names_come_from_the_table(capsys, monkeypatch):
    """A new ALGORITHMS entry is a flops row, part of evaluate's default list, and accepted by the harness."""
    table = {**ALGORITHMS, "sbl-copy": Algorithm("exact", "classic", lambda d: 7)}
    monkeypatch.setattr(evaluation, "ALGORITHMS", table)
    assert main(["flops", "--scale", "desk"]) == 0
    *rows, _ = _flops_rows(capsys.readouterr().out)
    assert rows[-1] == ["sbl-copy", "7"] and [row[0] for row in rows] == list(table)
    assert main(["evaluate", "--scale", "desk", "--n-samples", "1", "--n-iterations", "1"]) == 0
    # each line is "q=<n_uses> <algo>: NMSE ..."
    scored = [line.split(":")[0].split()[1] for line in capsys.readouterr().out.splitlines()]
    assert scored == [algo for algo, entry in table.items() if not entry.learned] == ["sbl", "amp-sbl", "sbl-copy"]


@pytest.mark.parametrize("name", ["sbl-af", "lista-reference"])
def test_evaluate_formula_only_name_is_an_error(name, capsys):
    assert main(["evaluate", "--scale", "desk", "--algos", name]) == 1
    assert capsys.readouterr().err.startswith(f"error: unknown algorithm '{name}'")


def test_parser_choices_and_defaults_come_from_the_library():
    train = _choices("train")
    assert tuple(train["e_step"]) == E_STEPS
    assert tuple(_choices("sweep")["axis"]) == SWEEP_AXES
    args = build_parser().parse_args(["train", "--depth", "2"])
    for f in dataclasses.fields(TrainConfig):
        if f.name != "depth":
            assert getattr(args, f.name) == f.default, f.name


def _csv_header(path) -> list[str]:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines[0].split(",")


@pytest.mark.parametrize("sizes, expected", [
    ("3,0,2", "split sizes must be positive"),
    ("3,x,2", "--sizes wants three integers, got '3,x,2'"),
    ("3,2", "--sizes wants train,val,test"),
], ids=["zero-size", "not-integers", "two-sizes"])
def test_train_rejects_bad_sizes(sizes, expected, tmp_path, capsys):
    """A malformed --sizes ends train with error: and exit 1, before any split is drawn or file written."""
    assert main(["train", "--scale", "desk", "--sizes", sizes, "--depth", "2", "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert list(tmp_path.iterdir()) == []


def test_train_writes_the_checkpoint_of_train_layerwise(tmp_path):
    """The command draws its splits from the config, as generate_splits does, and trains them
    unchanged, with either E-step."""
    cfg = desk_config()
    op = standard_operator(cfg)
    for e_step in ("amp", "exact"):
        run = tmp_path / e_step
        assert main(["train", "--scale", "desk", "--sizes", "8,4,4", "--depth", "2", "--max-epochs", "1",
                     "--batch-size", "4", "--e-step", e_step, "--out", str(run)]) == 0
        net, _ = train_layerwise(TrainConfig(depth=2, e_step=e_step, max_epochs=1, batch_size=4), cfg, op,
                                 generate_splits(cfg, (8, 4, 4)))
        save_checkpoint(net, run / "direct.npz", cfg)
        kind, meta, arrays = load_container(run / "checkpoint.npz")
        kind_ref, meta_ref, arrays_ref = load_container(run / "direct.npz")
        assert (kind, meta) == (kind_ref, meta_ref), e_step
        assert list(arrays) == list(arrays_ref), e_step
        for name in arrays:
            assert arrays[name].dtype == arrays_ref[name].dtype, (e_step, name)
            assert np.array_equal(arrays[name], arrays_ref[name]), (e_step, name)


def test_desk_round_trip(tmp_path):
    """train, then evaluate and sweep with the trained net, at desk size."""
    run = tmp_path / "run"
    assert main(["train", "--scale", "desk", "--sizes", "8,4,4", "--out", str(run), "--depth", "2",
                 "--max-epochs", "1", "--batch-size", "4"]) == 0
    net = f"amp-sbl-unfolding={run / 'checkpoint.npz'}"
    common = ["--scale", "desk", "--net", net, "--n-samples", "2", "--n-iterations", "3"]
    eval_csv, sweep_csv = tmp_path / "eval.csv", tmp_path / "sweep.csv"
    assert main(["evaluate", *common, "--out", str(eval_csv)]) == 0
    assert main(["sweep", *common, "--axis", "snr", "--points", "0,10", "--out", str(sweep_csv)]) == 0
    assert "fail_rate" in _csv_header(eval_csv)
    assert "fail_rate" in _csv_header(sweep_csv)
    for path, cfg in ((eval_csv, desk_config(n_iterations=3)), (sweep_csv, desk_config(n_iterations=3)),
                      (run / "training_report.csv", desk_config())):
        assert path.read_text().splitlines()[0] == provenance_line(cfg), path.name


def test_evaluate_is_a_one_point_sweep(tmp_path, capsys):
    """evaluate and sweep --axis q --points <n_uses>, with the same flags, print the same rows and write the
    same file."""
    run = tmp_path / "run"
    assert main(["train", "--scale", "desk", "--sizes", "8,4,4", "--out", str(run), "--depth", "3",
                 "--max-epochs", "1", "--batch-size", "4"]) == 0
    n_uses = desk_config().n_uses
    assert n_uses == 2
    common = ["--scale", "desk", "--net", f"amp-sbl-unfolding={run / 'checkpoint.npz'}", "--n-samples", "2",
              "--n-iterations", "4"]
    eval_csv, sweep_csv = tmp_path / "eval.csv", tmp_path / "sweep.csv"
    capsys.readouterr()
    assert main(["evaluate", *common, "--out", str(eval_csv)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert main(["sweep", *common, "--axis", "q", "--points", str(n_uses), "--out", str(sweep_csv)]) == 0
    assert capsys.readouterr().out.splitlines()[:-1] == printed[:-1]  # all but the "wrote" line
    assert eval_csv.read_bytes() == sweep_csv.read_bytes()
    lines = eval_csv.read_text().splitlines()
    assert lines[0] == provenance_line(desk_config(n_iterations=4))
    assert lines[1] == "axis,value,algo,iterations,n_samples,flops_total,nmse_db,fail_rate"
    iterations = {row[2]: int(row[3]) for row in (line.split(",") for line in lines[2:])}
    assert iterations == {"sbl": 4, "amp-sbl": 4, "amp-sbl-unfolding": 2 + 1}  # stages + 1


def test_resume_records_the_hash_of_its_config(tmp_path):
    """A resume under another noise level stores the hash of the config it stores."""
    run, resumed = tmp_path / "run", tmp_path / "resumed"
    train = ["train", "--scale", "desk", "--sizes", "8,4,4", "--max-epochs", "1", "--batch-size", "4"]
    assert main([*train, "--out", str(run), "--depth", "2"]) == 0
    assert main([*train, "--out", str(resumed), "--depth", "3", "--noise-var", "0.5",
                 "--resume", str(run / "checkpoint.npz")]) == 0
    _, meta, _ = load_container(resumed / "checkpoint.npz")
    cfg = SystemConfig.from_dict(meta["config"])
    assert cfg.noise_var == 0.5 and meta["n_stages"] == 2
    assert meta["config_hash"] == cfg.config_hash()


def test_train_with_snr_db_and_noise_var_is_an_error(tmp_path, capsys):
    """Two spellings of the noise level end train in error: and exit 1, before any split is drawn or file written."""
    assert main(["train", "--scale", "desk", "--out", str(tmp_path / "run"), "--depth", "2",
                 "--snr-db", "10", "--noise-var", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--snr-db and --noise-var" in err
    assert list(tmp_path.iterdir()) == []


def test_train_checkpoint_opens_with_plain_numpy(tmp_path):
    """A checkpoint is an .npz archive with its arrays under the usual names."""
    run = tmp_path / "run"
    assert main(["train", "--scale", "desk", "--sizes", "4,2,2", "--out", str(run), "--depth", "2",
                 "--max-epochs", "1", "--batch-size", "2"]) == 0
    cfg = desk_config()
    with np.load(run / "checkpoint.npz", allow_pickle=False) as npz:
        assert npz.files == ["stage0/w1", "stage0/b1", "stage0/w2", "stage0/b2", "__meta__"]
        header = json.loads(str(npz["__meta__"]))
    assert header["kind"] == "mstep-net" and header["meta"]["config_hash"] == cfg.config_hash()
    assert header["meta"]["config"]["rng_seed"] == cfg.rng_seed
    assert header["meta"]["n_stages"] == 1


@pytest.mark.parametrize("damage, expected", [
    ("truncated", "File is not a zip file"),
    ("old-format", "written before the .npz format, must be regenerated"),
], ids=["truncated", "old-format"])
def test_train_resuming_a_damaged_checkpoint_is_a_file_error(damage, expected, tmp_path, capsys):
    """A truncated --resume checkpoint, or one with the former SQSB0001 magic, ends train with file error: and exit 3."""
    cfg = desk_config()
    ck = tmp_path / "ck.npz"
    save_checkpoint(MStepNet.create(1, np.random.default_rng(0), cfg.config_hash()), ck, cfg)
    raw = ck.read_bytes()
    ck.write_bytes(raw[: len(raw) // 2] if damage == "truncated" else b"SQSB0001" + raw[:64])
    assert main(["train", "--scale", "desk", "--sizes", "4,2,2", "--out", str(tmp_path / "run"), "--depth", "3",
                 "--max-epochs", "1", "--batch-size", "2", "--resume", str(ck)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("file error:") and "ck.npz" in err and expected in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", [["evaluate"], ["sweep", "--axis", "snr", "--points", "10"]],
                         ids=["evaluate", "sweep"])
def test_net_for_a_classic_algorithm_is_an_error(command, tmp_path, capsys):
    """--net sbl=... is refused, not loaded and silently ignored."""
    cfg = desk_config(n_iterations=3)  # the config the command runs under, so no hash note precedes the error
    ck = tmp_path / "ck.npz"
    save_checkpoint(MStepNet.create(2, np.random.default_rng(0), cfg.config_hash()), ck, cfg)
    capsys.readouterr()
    assert main([*command, "--scale", "desk", "--net", f"sbl={ck}", "--algos", "sbl", "--n-samples", "2",
                 "--n-iterations", "3", "--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'sbl', which is not a learned algorithm" in err
    assert not (tmp_path / "out.csv").exists()


def test_malformed_checkpoint_is_an_error(tmp_path, capsys):
    """A checkpoint whose n_stages is a string ends evaluate with error: and exit 1, not a traceback."""
    ck = tmp_path / "ck.npz"
    save_checkpoint(MStepNet.create(1, np.random.default_rng(0)), ck)
    kind, meta, arrays = load_container(ck)
    save_container(ck, kind, {**meta, "n_stages": "1"}, arrays)
    assert main(["evaluate", "--scale", "desk", "--net", f"amp-sbl-unfolding={ck}", "--n-samples", "1"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {ck}: checkpoint n_stages must be a non-negative int, got '1'\n"


@pytest.mark.parametrize("case", ["str-weights", "repeated-algo"])
def test_bad_net_input_is_one_error_line(case, tmp_path, capsys):
    """A checkpoint with string weights, or a second --net for the same algorithm, ends evaluate with exit 1
    and exactly one error: line, before any scoring."""
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    for path in (a, b):
        save_checkpoint(MStepNet.create(1, np.random.default_rng(0), desk_config().config_hash()), path)
    if case == "str-weights":
        kind, meta, arrays = load_container(a)
        save_container(a, kind, meta, {**arrays, "stage0/w1": np.full(arrays["stage0/w1"].shape, "x")})
        nets = ["--net", f"amp-sbl-unfolding={a}"]
        expected = f"error: {a}: checkpoint stage 0: w1 has dtype <U1, expected a real floating type"
    else:
        nets = ["--net", f"amp-sbl-unfolding={a}", "--net", f"amp-sbl-unfolding={b}"]
        expected = "error: --net gives a network for 'amp-sbl-unfolding' twice"
    capsys.readouterr()
    assert main(["evaluate", "--scale", "desk", *nets, "--algos", "amp-sbl-unfolding", "--n-samples", "1"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", expected + "\n")


def test_classic_depth_is_the_config_n_iterations(tmp_path, capsys):
    """--n-iterations sets the classic depth, and the CSV's provenance hash records it; --iterations is gone."""
    out = tmp_path / "e.csv"
    with pytest.raises(SystemExit) as exc:
        main(["evaluate", "--scale", "desk", "--algos", "sbl", "--n-samples", "1", "--iterations", "3"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --iterations 3" in capsys.readouterr().err
    assert main(["evaluate", "--scale", "desk", "--algos", "sbl", "--n-samples", "1", "--n-iterations", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == provenance_line(desk_config(n_iterations=3)) != provenance_line(desk_config())
    assert lines[2].split(",")[2:4] == ["sbl", "3"]


@pytest.mark.parametrize("preset, expected", [({}, "1"), ({"OMP_NUM_THREADS": "2"}, None)],
                         ids=["clean-env", "omp-set"])
def test_package_import_defaults_to_one_blas_thread(preset, expected):
    """Importing the package sets one OpenBLAS thread unless a thread count is already chosen."""
    src = Path(squintsbl.__file__).resolve().parents[1]
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src), **preset}
    code = "import os, squintsbl; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == str(expected)


@pytest.mark.parametrize("command", [["evaluate", "--algos", "sbl,amp-sbl"],
                                     ["sweep", "--axis", "snr", "--points", "0,10", "--algos", "sbl"]],
                         ids=["evaluate", "sweep"])
def test_closed_stdout_still_writes_the_csv(command, tmp_path, monkeypatch, capsys):
    """A stdout whose writes raise BrokenPipeError stops the printing, not the run: exit 0, the CSV written."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: every write to the pipe raises BrokenPipeError
    out = tmp_path / "out.csv"
    with open(write_end, "w") as closed_stdout:
        monkeypatch.setattr(sys, "stdout", closed_stdout)
        assert main([*command, "--scale", "desk", "--n-samples", "2", "--n-iterations", "3", "--out", str(out)]) == 0
        # the first failed write pointed the descriptor at os.devnull
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
    assert out.read_text().splitlines()[0] == provenance_line(desk_config(n_iterations=3))
    assert capsys.readouterr().err == ""


def _run_into_closed_pipe(args: list[str], cwd) -> subprocess.CompletedProcess:
    """Run ``python args`` with stdout a pipe whose reader has gone, as `... | head -n 1` once head has left."""
    src = Path(squintsbl.__file__).resolve().parents[1]
    # stdout block-buffered, as by default, so that output left over from a failed write reaches the exit flush
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": str(src)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, *args], cwd=cwd, env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)


def test_sweep_into_a_closed_pipe_exits_cleanly(tmp_path):
    """As `squintsbl sweep ... | head -n 1` once head has left: exit 0, the CSV written, nothing on stderr."""
    proc = _run_into_closed_pipe(["-m", "squintsbl.cli", "sweep", "--scale", "desk", "--axis", "snr",
                                  "--points", "0:20:5", "--algos", "sbl", "--n-samples", "2", "--n-iterations", "3",
                                  "--out", "s.csv"], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len((tmp_path / "s.csv").read_text().splitlines()) == 2 + 5


def test_selftest_into_a_closed_pipe_exits_cleanly(tmp_path):
    """selftest prints through the same guard as sweep: exit 0 and nothing on stderr once stdout's reader has gone."""
    # one fast check: what is tested is the printing, not the checks
    code = ("import sys; from squintsbl import cli, selftest; "
            "selftest.CHECKS = (('hand instance', selftest.check_hand_instance),); sys.exit(cli.main(['selftest']))")
    proc = _run_into_closed_pipe(["-c", code], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
