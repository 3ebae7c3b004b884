"""Tests of the benchmark itself, at desk size.

    python3 -m pytest -q bench

Every workload goes through ``run.run_benchmark``, the code a full run
uses, with ``desk_config()`` geometry and a short timed phase.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

run.import_library()

import tracer  # noqa: E402
import workloads  # noqa: E402

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]


@pytest.fixture(scope="module")
def desk_results():
    return {
        (name, trace): run.run_benchmark(name, 5, 0.2, trace, scale="desk")
        for name in WORKLOAD_NAMES
        for trace in (False, True)
    }


def test_manifest_matches_workloads_and_units():
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_metric_present_with_unit(desk_results, name):
    for trace, units in ((False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)):
        result = desk_results[(name, trace)]
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_layer_self_times_within_traced_wall(desk_results, name):
    metrics = desk_results[(name, True)]["metrics"]
    wall = metrics["trace.wall_s"]["value"]
    self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
    assert 0.0 < self_total <= wall
    assert 0.0 < metrics["trace.coverage_pct"]["value"] <= 100.0


def test_layer_map_puts_work_where_expected(desk_results):
    eval_amp = desk_results[("eval-amp", True)]["metrics"]
    sweep = desk_results[("sweep-exact", True)]["metrics"]
    train = desk_results[("train", True)]["metrics"]
    # eight samples, thirty iterations each
    assert eval_amp["sbl.amp_e_step.calls"]["value"] == 240
    assert eval_amp["sbl.exact_e_step.calls"]["value"] == 0
    # three points, three samples, ten iterations; one assembly per point plus the setup's
    assert sweep["sbl.exact_e_step.calls"]["value"] == 90
    assert sweep["measurement.assemble.calls"]["value"] == 4
    # depth 3 only: two batches of 128, one optimizer step each
    assert train["training.steps"]["value"] == 2
    assert train["mstep.conv_backward.calls"]["value"] > 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_gate_rejects_perturbed_reference(monkeypatch, name):
    reference = run.load_reference()
    key = next(iter(reference["desk"][name]))
    reference["desk"][name][key]["nmse_db"] += 10 * reference["tolerance_db"]
    monkeypatch.setattr(run, "load_reference", lambda: reference)
    with pytest.raises(run.GateFailure, match="reference"):
        run.run_benchmark(name, reference["seed"], 0.0, False, scale="desk")


def test_gate_rejects_non_finite_and_changed_rounds():
    good = workloads.Outcome(wall_s=1.0, work=2, rows={"a": (-3.0, 2, 0)}, ratios=[0.4, 0.6])
    assert workloads.check_round(good, good, None, 1e-4) == []
    bad = workloads.Outcome(wall_s=1.0, work=2, rows={"a": (math.nan, 2, 1)}, ratios=[math.nan])
    assert workloads.check_round(bad, None, None, 1e-4)
    moved = workloads.Outcome(wall_s=1.0, work=2, rows={"a": (-3.0 + 1e-12, 2, 0)}, ratios=[0.4, 0.6])
    assert workloads.check_round(moved, good, None, 1e-4)
    unscored = workloads.Outcome(wall_s=1.0, work=2, rows={"a": (-3.0, 2, 0)}, ratios=[0.5])
    assert workloads.check_round(unscored, None, None, 1e-4)
    ref = {"a": {"nmse_db": -3.0, "fail_rate": 0.5}}
    assert workloads.check_round(good, None, ref, 1e-4)


def test_blown_up_estimate_counts_as_failed():
    out = workloads.Outcome(wall_s=1.0, work=3, rows={"a": (40.0, 3, 1)},
                            ratios=[0.5, 1e4, math.inf])
    assert (out.attempted, out.blowups, out.failed) == (3, 1, 2)
    assert out.mean_nmse() == 0.5


def test_tracer_self_time_and_restore():
    import types

    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    mod = types.SimpleNamespace()
    mod.inner = lambda: None
    mod.outer = lambda: mod.inner()
    original = mod.inner
    tr.wrap(mod, "inner", "inner")
    with tr.span("root"):
        mod.outer()
    tr.restore()
    assert mod.inner is original
    own = tracer.self_times(tr.spans)
    root, inner = tr.spans
    assert (root.duration, inner.duration) == (3.0, 1.0)
    assert (own[root.id], own[inner.id]) == (2.0, 1.0)
    assert [s.id for s in tracer.descendants(tr.spans, root.id)] == [inner.id]


def test_cli_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train", "--seed", "3", "--seconds", "0.2",
         "--trace", "0", "--scale", "desk"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(run.END_TO_END_UNITS)


def test_fails_without_library_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "eval-amp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
