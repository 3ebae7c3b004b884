import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squintsbl import evaluation
from squintsbl.config import default_config, desk_config, noise_var_from_snr_db
from squintsbl.evaluation import (
    ALGORITHMS,
    NMSE_FLOOR_DB,
    SweepRow,
    SweepResult,
    average_nmse_db,
    draw_eval_observations,
    flops_per_iteration,
    nmse,
    ratio_to_db,
    reconstruction_flops,
    run_sweep,
    run_tradeoff,
    score_algorithm,
    standard_operator,
)
from squintsbl.mstep import MStepNet

from conftest import crandn
from oracles import dense_phi


# ---- error metric -----------------------------------------------------------

def test_nmse_basic(rng):
    h = crandn(rng, 4, 6)
    lin, db = nmse(h, h)
    assert lin == 0.0
    assert db == NMSE_FLOOR_DB  # floored instead of -inf
    lin2, db2 = nmse(h, np.zeros_like(h))
    assert lin2 == pytest.approx(1.0)
    assert db2 == pytest.approx(0.0)


def test_nmse_scaling(rng):
    h = crandn(rng, 3, 5)
    lin, db = nmse(h, 0.9 * h)
    assert lin == pytest.approx(0.01)
    assert db == pytest.approx(-20.0)


def test_nmse_rejects_bad_inputs(rng):
    h = crandn(rng, 3, 5)
    with pytest.raises(ValueError):
        nmse(h, crandn(rng, 5, 3))
    with pytest.raises(ValueError):
        nmse(np.zeros((3, 5), dtype=complex), h)


def test_nmse_is_independent_of_memory_layout(desk_cfg, rng):
    """A C-ordered and a K-major (N fastest) channel give bit-identical ratios, in either argument."""
    shape = (desk_cfg.n_antennas, desk_cfg.n_subcarriers)
    layouts = (np.ascontiguousarray, np.asfortranarray)
    for _ in range(4):
        h, err = crandn(rng, *shape), 0.3 * crandn(rng, *shape)
        ratios = {nmse(lay_h(h), lay_e(h + err)) for lay_h in layouts for lay_e in layouts}
        assert len(ratios) == 1


def test_average_is_mean_of_ratios_then_db():
    # averaging in dB would give -15; the contract averages linear ratios
    ratios = [1e-1, 1e-2]
    expect = 10 * math.log10(np.mean(ratios))
    assert average_nmse_db(ratios) == pytest.approx(expect)
    assert average_nmse_db(ratios) != pytest.approx(-15.0)
    assert math.isnan(average_nmse_db([]))
    assert average_nmse_db([0.0]) == NMSE_FLOOR_DB


def test_ratio_to_db_floor():
    assert ratio_to_db(1e-30) == NMSE_FLOOR_DB
    assert ratio_to_db(1.0) == pytest.approx(0.0)


# ---- per-iteration cost model -----------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(1, 64), st.integers(1, 8), st.integers(1, 8), st.integers(1, 64),
       st.integers(1, 64), st.integers(1, 128))
def test_flops_expressions_symbolic(k, q, n_rf, g_a, g_d, n):
    """The table rows and reconstruction, written out independently from the config's sizes."""
    cfg = default_config(n_subcarriers=k, n_uses=q, n_rf=n_rf, grid_angular=g_a, grid_delay=g_d, n_antennas=n)
    km, g = k * q * n_rf, g_a * g_d
    assert {algo: entry.flops(cfg) for algo, entry in ALGORITHMS.items()} == {
        "sbl": 16 * km**2 * g,
        "sbl-unfolding": (16 * km**2 + 432) * g,
        "amp-sbl": (20 * km + 4) * g,
        "amp-sbl-unfolding": (20 * km + 432) * g,
    }
    assert reconstruction_flops(cfg) == 8 * k * g_a * n + 8 * k * g


def test_algorithm_table_steps():
    """Each entry names steps the solver runs; learned is read from the M-step."""
    assert {algo: (e.e_step, e.m_step, e.learned) for algo, e in ALGORITHMS.items()} == {
        "sbl": ("exact", "classic", False),
        "sbl-unfolding": ("exact", "learned", True),
        "amp-sbl": ("amp", "classic", False),
        "amp-sbl-unfolding": ("amp", "learned", True),
    }


def test_flops_unknown_names(desk_cfg):
    for name in ("who", "sbl-af", "lista-reference"):
        with pytest.raises(ValueError, match=f"unknown algorithm '{name}'"):
            flops_per_iteration(name, desk_cfg)


def test_flops_worked_values_default_config():
    cfg = default_config()
    assert flops_per_iteration("amp-sbl-unfolding", cfg) == 43_712_512
    assert flops_per_iteration("sbl", cfg) == 17_179_869_184
    assert flops_per_iteration("sbl-unfolding", cfg) - flops_per_iteration("sbl", cfg) == 1_769_472
    # per-tone angular synthesis 8 K G_A N plus delay mixing 8 K G
    assert reconstruction_flops(cfg) == 524_288 + 1_048_576
    assert reconstruction_flops(desk_config()) == 32_768


def test_classic_amp_iteration_flops():
    cfg = default_config()
    k, m, g = 32, 16, 4096
    assert flops_per_iteration("amp-sbl", cfg) == 20 * k * m * g + 4 * g


# ---- paired evaluation ------------------------------------------------------

def test_standard_operator_deterministic(desk_cfg):
    a = standard_operator(desk_cfg)
    b = standard_operator(desk_cfg)
    assert np.array_equal(dense_phi(a), dense_phi(b))
    assert np.array_equal(a.u, b.u) and np.array_equal(a.a, b.a)
    assert a.config == desk_cfg


def test_standard_operator_distinct_per_use_count(desk_cfg):
    a = standard_operator(desk_cfg)
    b = standard_operator(desk_cfg.replace(n_uses=1))
    assert dense_phi(a).shape[0] == 2 * dense_phi(b).shape[0]
    # combiner draw is keyed by the use count, not shared
    assert not np.array_equal(a.combiner.w[: b.combiner.w.shape[0]], b.combiner.w)


def test_draw_eval_observations_paired(desk_cfg, desk_op):
    (ha, ya), (hb, yb) = draw_eval_observations(desk_op, 0, 3), draw_eval_observations(desk_op, 0, 3)
    hc, yc = draw_eval_observations(desk_op, 1, 3)
    assert ha.shape == (3, desk_cfg.n_antennas, desk_cfg.n_subcarriers)
    assert ya.shape == (3, desk_op.shape[0])
    # a plain C-ordered stack: nmse's sums round the same in any layout
    assert ha.flags.c_contiguous
    assert np.array_equal(ya, yb)
    assert np.array_equal(ha, hb)
    assert not np.array_equal(ya[0], yc[0])
    assert not np.array_equal(ya[0], ya[1])


def test_score_algorithm_finite(desk_cfg, desk_op):
    hs, ys = draw_eval_observations(desk_op, 0, 4)
    db, fail = score_algorithm("sbl", desk_op, hs, ys, 5)
    assert np.isfinite(db)
    assert fail == 0.0


def test_score_algorithm_counts_divergence(desk_cfg, desk_op, monkeypatch):
    """A sample whose recursion diverges is a failure; the others are still scored.

    The E-step is made to return a non-finite mean for sample index 5 at
    iteration 2, so its iteration 3 fails.
    """
    from squintsbl import sbl

    hs, ys = draw_eval_observations(desk_op, 0, 6)
    expected, _ = score_algorithm("sbl", desk_op, hs[:5], ys[:5], 4)
    real, calls = sbl.exact_e_step, []

    def poisoned(op, r, sigma2, state, **kwargs):
        mu, tau, cache = real(op, r, sigma2, state, **kwargs)
        calls.append(None)
        return (np.full_like(mu, np.nan) if len(calls) == 5 * 4 + 2 else mu), tau, cache

    monkeypatch.setattr(sbl, "exact_e_step", poisoned)
    db, fail = score_algorithm("sbl", desk_op, hs, ys, 4)
    assert len(calls) == 5 * 4 + 2  # the failing sample's third E-step raised instead of returning
    assert fail == pytest.approx(1 / 6)
    # surviving samples still produce a finite average
    assert np.isfinite(db) and db == expected


def test_score_algorithm_counts_posterior_failure(desk_cfg, desk_op, monkeypatch):
    """A failed Cholesky fails its sample only; the others are still scored."""
    from squintsbl import sbl

    hs, ys = draw_eval_observations(desk_op, 0, 3)
    expected, _ = score_algorithm("sbl", desk_op, hs[[0, 2]], ys[[0, 2]], 2)
    original, calls = sbl.cho_factor, []

    def fail_second_call(a, **kwargs):
        # one factor per sample: iteration 1's flat prior is solved without one, so this is
        # sample 1, iteration 2
        calls.append(None)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("not positive definite")
        return original(a, **kwargs)

    monkeypatch.setattr(sbl, "cho_factor", fail_second_call)
    db, fail = score_algorithm("sbl", desk_op, hs, ys, 2)
    assert fail == pytest.approx(1 / 3)
    assert db == expected


def test_phase_rotation_invariance(desk_cfg, desk_op):
    """Rotating truth and measurement together leaves the error ratio alone."""
    hs, ys = draw_eval_observations(desk_op, 0, 1)
    phase = np.exp(1j * 1.1)
    for algo in ("sbl", "amp-sbl"):
        a, _ = score_algorithm(algo, desk_op, hs, ys, 5)
        b, _ = score_algorithm(algo, desk_op, hs * phase, ys * phase, 5)
        assert b == pytest.approx(a, abs=1e-9), algo


# ---- sweeps -----------------------------------------------------------------

def test_run_sweep_snr_axis(desk_cfg):
    res = run_sweep("snr", [0.0, 10.0], ["sbl"], desk_cfg, 3, n_iterations=4)
    assert res.axis == "snr"
    assert len(res.rows) == 2
    for row in res.rows:
        assert row.algo == "sbl"
        assert row.n_samples == 3
        assert 0.0 <= row.fail_rate <= 1.0
        assert row.flops_total > 0
    # worse SNR, worse NMSE
    by_val = {r.value: r.nmse_db for r in res.rows}
    assert by_val[0.0] > by_val[10.0]


def test_run_sweep_deterministic(desk_cfg):
    a = run_sweep("snr", [10.0], ["sbl", "amp-sbl"], desk_cfg, 2, n_iterations=3)
    b = run_sweep("snr", [10.0], ["sbl", "amp-sbl"], desk_cfg, 2, n_iterations=3)
    for ra, rb in zip(a.rows, b.rows):
        assert ra == rb


def test_run_sweep_q_axis_rebuilds_operator(desk_cfg):
    res = run_sweep("q", [1, 2], ["sbl"], desk_cfg, 2, n_iterations=3)
    flops = {r.value: r.flops_total for r in res.rows}
    # measurement count doubles with the use count, so cost rises
    assert flops[2] > flops[1]


def test_run_sweep_validation(desk_cfg):
    with pytest.raises(ValueError):
        run_sweep("bandwidth", [1.0], ["sbl"], desk_cfg, 2)
    with pytest.raises(ValueError):
        run_sweep("snr", [], ["sbl"], desk_cfg, 2)
    with pytest.raises(ValueError):
        run_sweep("snr", [10.0], ["nope"], desk_cfg, 2)
    with pytest.raises(ValueError):
        run_sweep("snr", [10.0], ["sbl"], desk_cfg, 0)
    with pytest.raises(ValueError):
        run_sweep("snr", [10.0], ["sbl-unfolding"], desk_cfg, 2)  # needs a net
    with pytest.raises(ValueError, match="whole number"):
        run_sweep("q", [2.0, 2.5], ["sbl"], desk_cfg, 2)  # 2.0 is fine, 2.5 is not


def test_missing_net_rejected_before_assembly(desk_cfg, monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("operator assembled before the network check")

    monkeypatch.setattr(evaluation, "standard_operator", no_assembly)
    net = MStepNet.create(2, np.random.default_rng(0))
    # a net for one learned algorithm only: the other's gap is found up front
    with pytest.raises(ValueError, match="no trained network supplied for 'amp-sbl-unfolding'"):
        run_sweep("snr", [10.0, 20.0], ["sbl", "sbl-unfolding", "amp-sbl-unfolding"], desk_cfg, 2,
                  nets={"sbl-unfolding": net})
    with pytest.raises(ValueError, match="no trained network"):
        _evaluate_point(["sbl", "amp-sbl-unfolding"], desk_cfg, 2)
    # networks are keyed by algorithm name only
    with pytest.raises(ValueError, match="no trained network"):
        run_sweep("snr", [10.0], ["sbl-unfolding"], desk_cfg, 2, nets={("sbl-unfolding", 10.0): net})


def _evaluate_point(algos, cfg, n_samples, **kwargs):
    """What ``evaluate`` runs: the one point q = n_uses."""
    return run_sweep("q", [cfg.n_uses], algos, cfg, n_samples, **kwargs)


def _sweep_one_point(algos, cfg, n_samples, **kwargs):
    return run_sweep("snr", [10.0], algos, cfg, n_samples, **kwargs)


def _no_assembly(*args, **kwargs):
    raise AssertionError("operator assembled before the request check")


@pytest.mark.parametrize("harness", [_evaluate_point, _sweep_one_point], ids=["tradeoff", "sweep"])
def test_negative_depth_rejected_before_assembly(harness, desk_cfg, monkeypatch):
    monkeypatch.setattr(evaluation, "standard_operator", _no_assembly)
    with pytest.raises(ValueError, match="n_iterations must be non-negative, got -1"):
        harness(["sbl"], desk_cfg, 1, n_iterations=-1)


@pytest.mark.parametrize("harness", [_evaluate_point, _sweep_one_point], ids=["tradeoff", "sweep"])
@pytest.mark.parametrize("name", ["sbl-af", "lista-reference"])
def test_formula_only_names_are_unknown_algorithms(harness, name, desk_cfg, monkeypatch):
    """Names with a FLOP formula and no estimator have no ALGORITHMS entry, so neither harness takes them."""
    monkeypatch.setattr(evaluation, "standard_operator", _no_assembly)
    with pytest.raises(ValueError, match=f"unknown algorithm '{name}'"):
        harness(["sbl", name], desk_cfg, 2)


@pytest.mark.parametrize("harness", [_evaluate_point, _sweep_one_point], ids=["tradeoff", "sweep"])
@pytest.mark.parametrize("algos, n_samples, net_names, n_workers, match", [
    (["sbl"], 0, ["amp-sbl-unfolding"], 1, "n_samples"),
    (["sbl", "nope"], 2, ["amp-sbl-unfolding"], 1, "unknown algorithm 'nope'"),
    (["sbl", "sbl-unfolding"], 2, ["amp-sbl-unfolding"], 1, "no trained network supplied for 'sbl-unfolding'"),
    (["sbl"], 2, ["amp-sbl-unfolding", "sbl"], 1, "'sbl', which is not a learned algorithm"),
    (["sbl", "amp-sbl", "sbl"], 2, [], 1, "algorithm 'sbl' is listed twice"),
    (["sbl"], 2, [], 2, r"n_workers must be 1 .*got 2"),
    ([], 2, [], 1, "no algorithms given"),
], ids=["zero-samples", "unknown-algo", "missing-net", "net-for-classic", "repeated-algo", "two-workers",
        "no-algos"])
def test_bad_request_rejected_before_assembly(harness, algos, n_samples, net_names, n_workers, match, desk_cfg,
                                              monkeypatch):
    """Both harnesses share one request check, run before any operator exists."""
    calls = []
    monkeypatch.setattr(evaluation, "standard_operator", lambda cfg: calls.append(cfg))
    nets = {name: MStepNet.create(2, np.random.default_rng(0)) for name in net_names}
    with pytest.raises(ValueError, match=match):
        harness(algos, desk_cfg, n_samples, nets=nets, n_workers=n_workers)
    assert calls == []


def test_sweep_csv_schema(desk_cfg, tmp_path):
    res = run_sweep("snr", [5.0], ["sbl"], desk_cfg, 2, n_iterations=3)
    out = tmp_path / "sweep.csv"
    res.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert f"seed={desk_cfg.rng_seed}" in lines[0]
    assert lines[1] == "axis,value,algo,iterations,n_samples,flops_total,nmse_db,fail_rate"
    row = next(csv.DictReader(lines[1:]))
    assert row["axis"] == "snr"
    assert float(row["value"]) == 5.0
    assert int(row["n_samples"]) == 2 and int(row["iterations"]) == 3
    float(row["nmse_db"])  # parses


def test_sweep_csv_nan_becomes_empty(desk_cfg, tmp_path):
    rows = [SweepRow(axis="snr", value=1.0, algo="amp-sbl", iterations=3, n_samples=4, flops_total=10,
                     nmse_db=float("nan"), fail_rate=1.0)]
    res = SweepResult(axis="snr", rows=rows, config=desk_cfg)
    out = tmp_path / "allfail.csv"
    res.write_csv(out)
    data = out.read_text().strip().splitlines()[2]
    assert data == "snr,1,amp-sbl,3,4,10,,1.0000"  # empty nmse field
    parsed = next(csv.DictReader(out.read_text().splitlines()[1:]))
    assert parsed["nmse_db"] == ""
    assert float(parsed["fail_rate"]) == 1.0


def test_snr_points_map_to_noise_var(desk_cfg):
    """Sweeping SNR moves only the noise level; combiner stays fixed."""
    res = run_sweep("snr", [0.0, 10.0], ["sbl"], desk_cfg, 2, n_iterations=2)
    assert noise_var_from_snr_db(0.0) == pytest.approx(1.0)
    # same channel truth at both points (paired across the axis by stream design)
    # verified indirectly: rows exist and differ only through noise
    assert len({r.value for r in res.rows}) == 2


# ---- the evaluate point -------------------------------------------------------

def test_run_tradeoff_rows(desk_cfg):
    """run_tradeoff, which the benchmark scores through, is the one-point sweep that evaluate runs."""
    rows = run_tradeoff(["amp-sbl", "sbl"], desk_cfg, 2, n_iterations=3)
    assert rows == run_sweep("q", [desk_cfg.n_uses], ["amp-sbl", "sbl"], desk_cfg, 2, n_iterations=3).rows
    assert [r.algo for r in rows] == ["amp-sbl", "sbl"]
    for row in rows:
        assert np.isfinite(row.nmse_db) and 0.0 <= row.fail_rate <= 1.0
        assert (row.axis, row.value, row.iterations, row.n_samples) == ("q", desk_cfg.n_uses, 3, 2)
        assert row.flops_total == 3 * flops_per_iteration(row.algo, desk_cfg) + reconstruction_flops(desk_cfg)
    assert rows[1].flops_total > rows[0].flops_total


def test_run_tradeoff_net_required(desk_cfg):
    with pytest.raises(ValueError):
        run_tradeoff(["sbl-unfolding"], desk_cfg, 2)


def test_run_tradeoff_validation(desk_cfg):
    with pytest.raises(ValueError, match="n_samples"):
        run_tradeoff(["sbl"], desk_cfg, 0)
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_tradeoff(["sbl", "nope"], desk_cfg, 2)


def test_tradeoff_learned_uses_net_stages(desk_cfg, desk_op):
    net = MStepNet.create(2, np.random.default_rng(0), desk_cfg.config_hash())
    rows = run_tradeoff(["amp-sbl-unfolding"], desk_cfg, 2, nets={"amp-sbl-unfolding": net})
    assert rows[0].iterations == 3  # stages + 1
