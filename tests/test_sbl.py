import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import get_blas_funcs

import squintsbl
from squintsbl.config import desk_config
from squintsbl.dictionaries import reconstruct_channel
from squintsbl.mstep import MStepNet
from squintsbl import sbl
from squintsbl.sbl import (
    E_STEPS,
    DivergenceError,
    EstimatorSpec,
    SblState,
    _check_step,
    _exact_backward,
    _hermitian,
    _posterior_solve,
    amp_e_step,
    classic_m_step,
    exact_e_step,
    init_state,
    run_estimator,
    start_state,
    step,
)
from squintsbl.channel import build_channel, draw_paths
from squintsbl.config import spawn_rng
from squintsbl.evaluation import ALGORITHMS, draw_eval_observations
from squintsbl.measurement import observe_and_transform, operator_from_matrix

from conftest import crandn
from oracles import dense_phi


def exact_posterior_oracle(phi, y, sigma2, gamma):
    """Information-form posterior, explicit inverse: the textbook formula."""
    g = phi.shape[1]
    sigma = np.linalg.inv(np.diag(1.0 / gamma) + phi.conj().T @ phi / sigma2)
    mu = sigma @ phi.conj().T @ y / sigma2
    return mu, np.real(np.diag(sigma))


def test_init_state(desk_cfg):
    g, m = desk_cfg.grid_total, desk_cfg.n_measurements
    for b in (1, 3):
        gamma = np.full((g, b), 0.5)
        st0 = init_state(gamma, m)
        assert st0.iteration == 0
        assert st0.mu.shape == (g, b) and st0.mu.dtype == complex and np.all(st0.mu == 0)
        assert st0.gamma is gamma
        assert np.array_equal(st0.tau_x, gamma) and st0.tau_x is not gamma
        assert st0.s.shape == (m, b) and st0.s.dtype == complex and np.all(st0.s == 0)


@pytest.mark.parametrize("shape", [(32,), (31, 1), (32, 1, 1)], ids=["vector", "short", "three-d"])
def test_start_state_refuses_anything_but_an_m_by_b_batch(desk_op, shape):
    """The estimator takes (M, B) batches only; the error says how to pass one vector."""
    assert desk_op.shape[0] == 32
    y = np.zeros(shape, dtype=complex)
    with pytest.raises(ValueError, match=r"\(M, B\) = \(32, B\) batch.*y\[:, None\]"):
        start_state(desk_op, y)
    with pytest.raises(ValueError, match=r"y\[:, None\]"):
        run_estimator(EstimatorSpec(n_iterations=1), desk_op, y, 0.1)


def test_exact_e_step_matches_dense_oracle(rng):
    from squintsbl.sbl import exact_e_step

    for _ in range(10):
        m = int(rng.integers(3, 20))
        g = int(rng.integers(m, 40))
        phi = crandn(rng, m, g) / np.sqrt(m)
        y = crandn(rng, m, 1)
        gamma = np.exp(rng.uniform(-3, 2, g))
        sigma2 = float(np.exp(rng.uniform(-4, 0)))
        op = operator_from_matrix(phi)
        mu, tau, _ = exact_e_step(op, y, sigma2, _state_with(gamma))
        mu0, tau0 = exact_posterior_oracle(phi, y[:, 0], sigma2, gamma)
        denom = np.linalg.norm(np.concatenate([mu0, tau0]))
        err = np.linalg.norm(np.concatenate([mu[:, 0] - mu0, tau[:, 0] - tau0])) / denom
        assert err < 1e-10


def test_exact_e_step_desk_operator_matches_dense_oracle(desk_cfg, desk_op, rng):
    """On the assembled operator, the block-form solve on r = U^H y is the
    posterior of y = Phi x + n; the cross-tone delay mixing is exercised."""
    phi = dense_phi(desk_op)
    g = desk_cfg.grid_total
    y = draw_eval_observations(desk_op, 0, 2)[1].T
    gamma = np.exp(rng.uniform(-3, 1, (g, 2)))
    state = SblState(iteration=0, mu=np.zeros((g, 2), dtype=complex), tau_x=gamma.copy(),
                     gamma=gamma, s=np.zeros_like(y))
    mu, tau, _ = exact_e_step(desk_op, desk_op.rotate(y), desk_cfg.noise_var, state)
    for j in range(2):
        mu0, tau0 = exact_posterior_oracle(phi, y[:, j], desk_cfg.noise_var, gamma[:, j])
        denom = np.linalg.norm(np.concatenate([mu0, tau0]))
        err = np.linalg.norm(np.concatenate([mu[:, j] - mu0, tau[:, j] - tau0])) / denom
        assert err < 1e-10


def test_exact_e_step_thin_rotation_matches_dense_oracle(rng):
    """With M > G the rotation U is M x G; the rotated solve is still exact."""
    phi = crandn(rng, 20, 12) / np.sqrt(20)
    y = crandn(rng, 20, 1)
    gamma = np.exp(rng.uniform(-3, 1, 12))
    op = operator_from_matrix(phi, rotate=True)
    assert op.shape == (12, 12)
    mu, tau, _ = exact_e_step(op, op.rotate(y), 0.2, _state_with(gamma))
    mu0, tau0 = exact_posterior_oracle(phi, y[:, 0], 0.2, gamma)
    assert np.linalg.norm(mu[:, 0] - mu0) <= 1e-10 * np.linalg.norm(mu0)
    assert np.max(np.abs(tau[:, 0] - tau0)) <= 1e-10 * np.max(tau0)


@pytest.fixture(params=["desk", "rotated"])
def flat_case(request, desk_cfg, desk_op):
    """(operator with orthogonal rows, its dense Phi, whitened data (M, 2), sigma^2)."""
    if request.param == "desk":
        return desk_op, dense_phi(desk_op), draw_eval_observations(desk_op, 0, 2)[1].T, desk_cfg.noise_var
    rng = np.random.default_rng(5)
    phi = crandn(rng, 12, 30) / np.sqrt(12)
    return operator_from_matrix(phi, rotate=True), phi, crandn(rng, 12, 2), 0.2


def _count_calls(monkeypatch, owner, name) -> list:
    """Patch ``owner.name`` with a pass-through that records each call; returns the record."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("c", [1.0, 0.37])
def test_exact_e_step_flat_prior_matches_general_path_and_oracle(flat_case, c, monkeypatch):
    """A flat gamma = c 1 on orthogonal rows is solved in closed form, with no Cholesky factor,
    to 1e-12 of the factored path and of the dense information-form posterior."""
    op, phi, y, sigma2 = flat_case
    assert op.orthogonal_rows
    r = op.rotate(y)
    gamma = np.full((op.shape[1], 2), c)
    general = exact_e_step(dataclasses.replace(op, orthogonal_rows=False), r, sigma2, init_state(gamma, len(r)))
    factors = _count_calls(monkeypatch, sbl, "cho_factor")
    mu, tau, cache = exact_e_step(op, r, sigma2, init_state(gamma, len(r)))
    assert factors == []
    assert np.linalg.norm(mu - general[0]) <= 1e-12 * np.linalg.norm(general[0])
    assert np.max(np.abs(tau - general[1])) <= 1e-12 * np.max(general[1])
    assert np.max(np.abs(cache["d"] - general[2]["d"])) <= 1e-12 * np.max(general[2]["d"])
    for j in range(2):
        mu0, tau0 = exact_posterior_oracle(phi, y[:, j], sigma2, gamma[:, j])
        assert np.linalg.norm(mu[:, j] - mu0) <= 1e-12 * np.linalg.norm(mu0)
        assert np.max(np.abs(tau[:, j] - tau0)) <= 1e-12 * np.max(tau0)


def test_exact_e_step_flat_prior_without_orthogonal_rows_is_factored(rng, monkeypatch):
    """An unrotated operator records no orthogonal rows, so gamma = 1 takes the factored path."""
    phi = crandn(rng, 8, 16) / np.sqrt(8)
    op = operator_from_matrix(phi)
    assert not op.orthogonal_rows
    factors = _count_calls(monkeypatch, sbl, "cho_factor")
    y = crandn(rng, 8, 1)
    mu, tau, _ = exact_e_step(op, y, 0.1, _state_with(np.ones(16)))
    assert len(factors) == 1
    mu0, tau0 = exact_posterior_oracle(phi, y[:, 0], 0.1, np.ones(16))
    assert np.linalg.norm(mu[:, 0] - mu0) <= 1e-10 * np.linalg.norm(mu0)
    assert np.max(np.abs(tau[:, 0] - tau0)) <= 1e-10 * np.max(tau0)


@pytest.mark.parametrize("c, sigma2", [(0.0, 0.0), (-1.0, 0.0)], ids=["zero", "negative"])
def test_exact_e_step_flat_prior_nonpositive_covariance_names_column(desk_op, rng, c, sigma2):
    """A flat column whose diagonal S has an entry s <= 0 fails as a failed Cholesky does,
    naming its column, and the closed form divides by no such entry."""
    m, g = desk_op.shape
    gamma = np.ones((g, 3))
    gamma[:, 1] = c
    state = SblState(iteration=3, mu=np.zeros((g, 3), dtype=complex), tau_x=gamma.copy(), gamma=gamma,
                     s=np.zeros((m, 3), dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match=r"posterior solve failed at iteration 4 in columns \[1\]: "
                           r"the flat-prior covariance") as exc:
            exact_e_step(desk_op, crandn(rng, m, 3), sigma2, state)
    assert exc.value.iteration == 4
    assert exc.value.columns == [1]


def _record_inverses(monkeypatch) -> list:
    """Patch ``sbl._posterior_solve`` with a pass-through that records, per call, whether it
    formed S^-1; returns the record."""
    formed, real = [], sbl._posterior_solve

    def recorded(*args, **kwargs):
        solved, s_inv = real(*args, **kwargs)
        formed.append(s_inv is not None)
        return solved, s_inv

    monkeypatch.setattr(sbl, "_posterior_solve", recorded)
    return formed


def test_exact_step_skips_the_variances_no_update_reads(desk_cfg, desk_op, monkeypatch):
    """Iteration 1 (flat) factors nothing, iteration 2 factors and inverts, and the last iteration
    solves for the mean alone: no inverse, no diag_quad, and no tau or d."""
    spec = EstimatorSpec(e_step="exact", m_step="classic", n_iterations=3)
    r, state = start_state(desk_op, draw_eval_observations(desk_op, 0, 2)[1].T)
    factors = _count_calls(monkeypatch, sbl, "cho_factor")
    inverses = _record_inverses(monkeypatch)
    quads = _count_calls(monkeypatch, desk_op, "diag_quad")
    counts, caches = [], []
    for _ in range(3):
        caches.append(step(spec, desk_op, r, desk_cfg.noise_var, state))
        counts.append({"cho_factor": len(factors), "inverses": sum(inverses), "diag_quad": len(quads)})
        for calls in (factors, inverses, quads):
            calls.clear()
    none = {"cho_factor": 0, "inverses": 0, "diag_quad": 0}
    assert counts == [none, {"cho_factor": 2, "inverses": 2, "diag_quad": 2}, {**none, "cho_factor": 2}]
    assert state.tau_x is None and caches[-1]["e"]["d"] is None
    assert all(cache["e"]["d"] is not None for cache in caches[:-1])


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "general"])
def test_mean_only_exact_e_step_gives_the_same_mean(desk_op, rng, flat):
    """Skipping the variances leaves the mean's arithmetic alone: the same bits."""
    m, g = desk_op.shape
    gamma = np.full((g, 2), 0.8) if flat else rng.uniform(0.1, 1.0, (g, 2))
    r = crandn(rng, m, 2)
    mu, tau, cache = exact_e_step(desk_op, r, 0.1, init_state(gamma, m))
    mu_only, tau_only, cache_only = exact_e_step(desk_op, r, 0.1, init_state(gamma, m), mean_only=True)
    assert np.array_equal(mu_only, mu) and np.array_equal(cache_only["u"], cache["u"])
    assert tau_only is None and cache_only["d"] is None and tau is not None


def test_exact_backward_of_a_mean_only_step(desk_cfg, desk_op, rng):
    """With zero g_tau, the mean-only cache gives the full cache's gradient; a nonzero g_tau,
    which it has no variances for, is an error."""
    r, state = start_state(desk_op, draw_eval_observations(desk_op, 0, 2)[1].T)
    state.gamma = rng.uniform(0.1, 1.0, state.gamma.shape)
    _, _, full = exact_e_step(desk_op, r, desk_cfg.noise_var, state)
    _, _, mean_only = exact_e_step(desk_op, r, desk_cfg.noise_var, state, mean_only=True)
    g_mu = crandn(rng, *state.gamma.shape)
    g_tau = np.zeros(state.gamma.shape)
    assert np.array_equal(_exact_backward(desk_op, mean_only, g_mu, g_tau),
                          _exact_backward(desk_op, full, g_mu, g_tau))
    g_tau[3, 1] = 1.0
    with pytest.raises(ValueError, match="mean-only"):
        _exact_backward(desk_op, mean_only, g_mu, g_tau)


def _state_with(gamma, m=None):
    """One-column start state under the prior ``gamma`` (G,)."""
    g = gamma.shape[0]
    return SblState(
        iteration=0,
        mu=np.zeros((g, 1), dtype=complex),
        tau_x=gamma.astype(float)[:, None].copy(),
        gamma=gamma.astype(float)[:, None].copy(),
        s=np.zeros((g if m is None else m, 1), dtype=complex),
    )


def test_exact_e_step_prior_collapse(rng):
    """gamma -> 0 pins the posterior for that coefficient at zero."""
    from squintsbl.sbl import exact_e_step

    phi = crandn(rng, 8, 16) / np.sqrt(8)
    y = crandn(rng, 8, 1)
    gamma = np.ones(16)
    gamma[3] = 1e-14
    op = operator_from_matrix(phi)
    mu, tau, _ = exact_e_step(op, y, 0.1, _state_with(gamma))
    assert abs(mu[3, 0]) < 1e-12
    assert tau[3, 0] < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_exact_posterior_variance_bounded_by_prior(seed):
    """Conditioning never inflates the variance: 0 <= tau <= gamma."""
    from squintsbl.sbl import exact_e_step

    r = np.random.default_rng(seed)
    m, g = 6, 14
    phi = (r.standard_normal((m, g)) + 1j * r.standard_normal((m, g))) / np.sqrt(m)
    y = (r.standard_normal(m) + 1j * r.standard_normal(m))[:, None]
    gamma = np.exp(r.uniform(-2, 2, g))
    op = operator_from_matrix(phi)
    _, tau, _ = exact_e_step(op, y, 0.3, _state_with(gamma))
    assert np.all(tau[:, 0] >= 0)
    assert np.all(tau[:, 0] <= gamma + 1e-12)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="amp_e_step shrinks with q / (1 + tau_q gamma), taking gamma as a precision")
def test_amp_e_step_fixed_point_is_the_exact_posterior_mean(rng):
    """Under a fixed non-unit gamma, iterated AMP reaches the exact posterior mean.

    With a Gaussian prior every AMP fixed point has the exact mean; the
    variance form gamma q / (gamma + tau_q) lands within ~1e-15 here, and
    today's precision form misses by more than half.  tau is not compared:
    on a finite Gaussian Phi, AMP's tau is not the exact marginal variance.
    """
    m, g, sigma2 = 64, 128, 0.1
    phi = crandn(rng, m, g)
    phi /= np.linalg.norm(phi, axis=0)
    gamma = rng.uniform(0.2, 3.0, (g, 1))
    y = phi @ (np.sqrt(gamma / 2) * crandn(rng, g, 1)) + np.sqrt(sigma2 / 2) * crandn(rng, m, 1)
    op = operator_from_matrix(phi)
    mu_exact = exact_e_step(op, y, sigma2, init_state(gamma, m))[0]
    state = init_state(gamma, m)
    for _ in range(200):
        state.mu, state.tau_x, state.s, _ = amp_e_step(op, y, sigma2, state)
    assert np.max(np.abs(state.mu - mu_exact)) <= 1e-10 * np.max(np.abs(mu_exact))


def test_amp_e_step_nonfinite_guard(rng):
    """A zero dictionary column makes the variance line blow up: flagged."""
    phi = crandn(rng, 4, 6)
    phi[:, 2] = 0.0
    op = operator_from_matrix(phi)
    state = _state_with(np.ones(6), m=4)
    with pytest.raises(DivergenceError, match=r"in columns \[0\]$") as exc:
        amp_e_step(op, crandn(rng, 4, 1), 0.1, state)
    assert exc.value.iteration == 1
    assert exc.value.columns == [0]


def test_amp_e_step_nonfinite_guard_names_columns(rng):
    """A NaN in one column's running estimate fails that column alone, by name."""
    op = operator_from_matrix(crandn(rng, 4, 6) / 2)
    mu = crandn(rng, 6, 3)
    mu[4, 1] = np.nan
    state = SblState(iteration=1, mu=mu, tau_x=np.ones((6, 3)), gamma=np.ones((6, 3)),
                     s=np.zeros((4, 3), dtype=complex))
    with pytest.raises(DivergenceError, match=r"non-finite \w+ at iteration 2 in columns \[1\]$") as exc:
        amp_e_step(op, crandn(rng, 4, 3), 0.1, state)
    assert exc.value.columns == [1]


def test_amp_e_step_magnitude_guard(rng):
    phi = crandn(rng, 4, 6) / 2
    op = operator_from_matrix(phi)
    state = _state_with(np.ones(6), m=4)
    state.mu[:] = 1e12  # absurd running estimate, tiny data
    r = crandn(rng, 4, 1) * 1e-6
    with pytest.raises(DivergenceError):
        amp_e_step(op, r, 0.1, state)


def test_amp_e_step_norm_guard_per_column(rng):
    """One runaway column trips the guard although the batch norm stays small."""
    phi = crandn(rng, 4, 6) / 2
    op = operator_from_matrix(phi)
    mu = np.zeros((6, 2), dtype=complex)
    mu[:, 0] = crandn(rng, 6)  # a unit-size estimate against near-zero data
    r = crandn(rng, 4, 2)
    r[:, 0] *= 1e-9
    state = SblState(iteration=2, mu=mu, tau_x=np.ones((6, 2)), gamma=np.ones((6, 2)),
                     s=np.zeros((4, 2), dtype=complex))
    with pytest.raises(DivergenceError, match=r"columns \[0\]") as exc:
        amp_e_step(op, r, 0.1, state)
    assert exc.value.iteration == 3
    assert exc.value.columns == [0]
    # the same column alone fails, the other alone passes
    one = SblState(iteration=2, mu=mu[:, 1:], tau_x=np.ones((6, 1)), gamma=np.ones((6, 1)),
                   s=np.zeros((4, 1), dtype=complex))
    amp_e_step(op, r[:, 1:], 0.1, one)
    one.mu = mu[:, :1]
    with pytest.raises(DivergenceError, match="blew up") as exc:
        amp_e_step(op, r[:, :1], 0.1, one)
    assert exc.value.columns == [0]


_CHECKED = ("p", "s", "q", "mu", "tau_x")


def _checked_arrays(rng, b):
    """Finite, well-scaled (5, b) arrays under the names the AMP E-step checks."""
    arrays = {name: crandn(rng, 5, b) for name in _CHECKED}
    arrays["tau_x"] = rng.uniform(0.1, 1.0, (5, b))
    return arrays


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", _CHECKED)
def test_check_step_names_nonfinite_array_and_columns(rng, name, bad):
    """A non-finite entry fails with the array's name and every failing column."""
    data = crandn(rng, 5, 4)
    arrays = _checked_arrays(rng, 4)
    arrays[name][2, 3] = bad
    arrays[name][0, 1] = bad
    with pytest.raises(DivergenceError) as exc:
        _check_step(7, data, **arrays)
    assert str(exc.value) == f"non-finite {name} at iteration 7 in columns [1, 3]"
    assert exc.value.columns == [1, 3] and exc.value.iteration == 7
    # a one-column batch names its column too
    one = _checked_arrays(rng, 1)
    one[name][4, 0] = bad
    with pytest.raises(DivergenceError) as exc:
        _check_step(2, data[:, :1], **one)
    assert str(exc.value) == f"non-finite {name} at iteration 2 in columns [0]"
    assert exc.value.columns == [0]


def test_check_step_passes_finite_entries_whose_sum_overflows(rng):
    """Finite entries can sum to inf; the per-column scan then finds nothing and the step passes."""
    data = crandn(rng, 5, 2)
    arrays = _checked_arrays(rng, 2)
    arrays["p"][:] = 0.0
    arrays["p"][0, 0] = arrays["p"][1, 0] = 1e308
    with np.errstate(over="ignore"):
        assert not np.isfinite(arrays["p"].sum())
    _check_step(1, data, **arrays)
    arrays["p"][3:, 1] = -1e308  # the sum is inf - inf = nan, still from finite entries
    _check_step(1, data, **arrays)


def _batch_and_column_states(rng, g, m, b):
    mu = crandn(rng, g, b)
    tau = rng.uniform(0.1, 1.0, (g, b))
    gamma = rng.uniform(0.5, 2.0, (g, b))
    s = crandn(rng, m, b)
    batch = SblState(iteration=0, mu=mu, tau_x=tau, gamma=gamma, s=s)
    cols = [SblState(iteration=0, mu=mu[:, i:i + 1].copy(), tau_x=tau[:, i:i + 1].copy(),
                     gamma=gamma[:, i:i + 1].copy(), s=s[:, i:i + 1].copy()) for i in range(b)]
    return batch, cols


def test_amp_e_step_batch_matches_columns(tiny_cfg, tiny_op, rng):
    """Column i of a three-column AMP step is the one-column step on column i."""
    g, m = tiny_cfg.grid_total, tiny_cfg.n_measurements
    batch, cols = _batch_and_column_states(rng, g, m, 3)
    r = crandn(rng, m, 3)
    mu_b, tau_b, s_b, _ = amp_e_step(tiny_op, r, 0.1, batch)
    for i, state in enumerate(cols):
        mu, tau, s, _ = amp_e_step(tiny_op, r[:, i:i + 1], 0.1, state)
        assert np.allclose(mu_b[:, i], mu[:, 0], atol=1e-13)
        assert np.allclose(tau_b[:, i], tau[:, 0], atol=1e-13)
        assert np.allclose(s_b[:, i], s[:, 0], atol=1e-13)


def test_exact_e_step_batch_matches_columns(tiny_cfg, tiny_op, rng):
    """Column i of a three-column exact step is the one-column step on column i."""
    g, m = tiny_cfg.grid_total, tiny_cfg.n_measurements
    batch, cols = _batch_and_column_states(rng, g, m, 3)
    y = crandn(rng, m, 3)
    mu_b, tau_b, _ = exact_e_step(tiny_op, y, 0.1, batch)
    for i, state in enumerate(cols):
        mu, tau, _ = exact_e_step(tiny_op, y[:, i:i + 1], 0.1, state)
        assert np.allclose(mu_b[:, i], mu[:, 0], atol=1e-10)
        assert np.allclose(tau_b[:, i], tau[:, 0], atol=1e-10)


@pytest.mark.parametrize("batch", [1, 3])
def test_exact_e_step_leaves_inputs_alone(tiny_cfg, tiny_op, rng, batch):
    """The in-place Cholesky and inverse write to buffers of their own, never to r, gamma or mu."""
    g, m = tiny_cfg.grid_total, tiny_cfg.n_measurements
    state, _ = _batch_and_column_states(rng, g, m, batch)
    r = crandn(rng, m, batch)
    given = [r.copy(), state.gamma.copy(), state.mu.copy()]
    mu, _, cache = exact_e_step(tiny_op, r, 0.1, state)
    for before, after in zip(given, (r, state.gamma, state.mu)):
        assert np.array_equal(before, after)
    # no S^-1 is cached: the backward rebuilds each column's from gamma and sigma^2
    assert not any(np.shape(x)[-2:] == (m, m) for x in cache.values())


def _general_exact_cache(desk_cfg, desk_op, rng):
    """The cache of a full exact E-step on two desk columns under a random (non-flat) prior."""
    r, state = start_state(desk_op, draw_eval_observations(desk_op, 0, 2)[1].T)
    state.gamma = rng.uniform(0.1, 1.0, state.gamma.shape)
    return exact_e_step(desk_op, r, desk_cfg.noise_var, state)[2]


def test_exact_backward_skips_the_variance_term_where_g_tau_is_zero(desk_cfg, desk_op, rng, monkeypatch):
    """A column with zero g_tau skips the d term and gets the full formula's gradient.

    The full formula forms S^-1 and the d term for every column, a zero
    one where g_tau is zero; ``==`` counts its signed zeros as equal.
    """
    cache = _general_exact_cache(desk_cfg, desk_op, rng)
    g_mu = crandn(rng, *cache["gamma"].shape)
    g_tau = rng.standard_normal(cache["gamma"].shape)
    g_tau[:, 0] = 0.0
    quads = []
    real_quad = desk_op.diag_quad
    monkeypatch.setattr(desk_op, "diag_quad", lambda k: quads.append(k) or real_quad(k))
    got = _exact_backward(desk_op, cache, g_mu, g_tau)
    assert len(quads) == 1  # column 1's d term only
    u, d, gamma = cache["u"], cache["d"], cache["gamma"]
    want = np.real(np.conj(g_mu) * u) + g_tau * (1.0 - 2.0 * gamma * d)
    a_vecs, ws = gamma * g_mu, g_tau * gamma * gamma
    for j in range(2):
        ta, s_inv = _posterior_solve(desk_op, gamma[:, j], cache["sigma2"], desk_op.forward(a_vecs[:, j]),
                                     inverse=True)
        hemm, = get_blas_funcs(("hemm",), (s_inv,))
        s_gram = hemm(1.0, s_inv, _hermitian(desk_op.gram(ws[:, j])), lower=True)
        k_w = hemm(1.0, s_inv, s_gram, side=1, lower=True)
        want[:, j] += real_quad(k_w) - np.real(u[:, j] * np.conj(ta))
    assert np.array_equal(got, want)


def test_exact_backward_inverts_s_only_where_g_tau_is_not_zero(desk_cfg, desk_op, rng, monkeypatch):
    """Every column is solved once; only the column with a nonzero g_tau forms S^-1, and the other
    reads A^H S^-1 A (gamma g_mu) from the Cholesky factor alone."""
    cache = _general_exact_cache(desk_cfg, desk_op, rng)
    g_mu = crandn(rng, *cache["gamma"].shape)
    g_tau = np.zeros(cache["gamma"].shape)
    g_tau[5, 1] = 1.0
    inverses = _record_inverses(monkeypatch)
    _exact_backward(desk_op, cache, g_mu, g_tau)
    assert inverses == [False, True]


def test_exact_e_step_cholesky_failure_is_divergence(rng):
    """A singular S (no noise, almost no prior mass) fails as a divergence."""
    phi = crandn(rng, 8, 16) / np.sqrt(8)
    gamma = np.zeros(16)
    gamma[:2] = 1.0  # rank 2 < 8 with sigma2 = 0
    state = _state_with(gamma)
    state.iteration = 4
    with pytest.raises(DivergenceError, match="posterior solve failed") as exc:
        exact_e_step(operator_from_matrix(phi), crandn(rng, 8, 1), 0.0, state)
    assert exc.value.iteration == 5
    assert exc.value.columns == [0]


def test_exact_e_step_nonfinite_data_is_divergence(rng):
    """NaN data reaches mu and fails as a divergence, not as an error from the solver."""
    r = crandn(rng, 8, 1)
    r[2, 0] = np.nan
    with pytest.raises(DivergenceError, match="non-finite mu at iteration 1"):
        exact_e_step(operator_from_matrix(crandn(rng, 8, 16)), r, 0.1, _state_with(np.ones(16)))


def test_exact_e_step_cholesky_failure_names_column(rng):
    """In a batch, the error names the one column whose S is singular."""
    phi = crandn(rng, 8, 16) / np.sqrt(8)
    gamma = np.ones((16, 3))
    gamma[2:, 1] = 0.0  # column 1: rank 2 < 8 with sigma2 = 0
    state = SblState(iteration=2, mu=np.zeros((16, 3), dtype=complex), tau_x=gamma.copy(),
                     gamma=gamma, s=np.zeros((8, 3), dtype=complex))
    with pytest.raises(DivergenceError, match=r"posterior solve failed at iteration 3 in columns \[1\]") as exc:
        exact_e_step(operator_from_matrix(phi), crandn(rng, 8, 3), 0.0, state)
    assert exc.value.iteration == 3
    assert exc.value.columns == [1]


def test_classic_m_step(rng):
    mu = crandn(rng, 9)
    tau = rng.uniform(0, 1, 9)
    g = classic_m_step(mu, tau)
    assert np.allclose(g, np.abs(mu) ** 2 + tau)
    assert np.all(g >= 0)


def test_estimator_spec_validation():
    EstimatorSpec()  # defaults fine
    with pytest.raises(ValueError):
        EstimatorSpec(e_step="magic")
    with pytest.raises(ValueError):
        EstimatorSpec(m_step="magic")
    with pytest.raises(ValueError):
        EstimatorSpec(n_iterations=-1)
    EstimatorSpec(n_iterations=0)  # zero is a legal no-op
    with pytest.raises(ValueError):
        EstimatorSpec(m_step="learned")  # needs a net
    net = MStepNet.create(2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        EstimatorSpec(m_step="learned", net=net, n_iterations=7)  # stage count mismatch
    EstimatorSpec(m_step="learned", net=net, n_iterations=3)


def _desk_obs(desk_cfg, desk_op, i=0):
    """One channel (N, K) and its whitened measurements as a one-column batch (M, 1)."""
    h = build_channel(desk_cfg, draw_paths(desk_cfg, spawn_rng(desk_cfg.rng_seed, "channel", 0, i)))
    return h, observe_and_transform(desk_op, h, spawn_rng(desk_cfg.rng_seed, "noise", 0, i))[:, None]


def test_run_estimator_exact_classic(desk_cfg, desk_op):
    h, y = _desk_obs(desk_cfg, desk_op)
    spec = EstimatorSpec(e_step="exact", m_step="classic", n_iterations=5)
    x_hat, trace = run_estimator(spec, desk_op, y, desk_cfg.noise_var, h_true=h[..., None])
    assert x_hat.shape == (desk_cfg.grid_total, 1)
    assert len(trace) == 5
    assert [t["iteration"] for t in trace] == list(range(1, 6))
    for t in trace:
        assert np.isfinite(t["nmse_db"])
        assert t["gamma_l1"] > 0
    # estimate explains some of the measurement
    h_hat = reconstruct_channel(desk_op.dicts, x_hat)[..., 0]
    assert np.linalg.norm(h_hat - h) < np.linalg.norm(h)


def test_trace_nmse_is_the_mean_of_per_sample_ratios(desk_cfg, desk_op):
    """On a 2-column batch the trace's NMSE is 10 log10 of the mean per-sample ratio, not of
    the error energy pooled over the batch."""
    hs, ys = draw_eval_observations(desk_op, 0, 2)
    hs[1] *= 3.0  # unequal channel energies, so pooling would weigh the samples unequally
    ys[1] *= 3.0
    spec = EstimatorSpec(e_step="exact", m_step="classic", n_iterations=3)
    x_hat, trace = run_estimator(spec, desk_op, ys.T, desk_cfg.noise_var, h_true=hs.transpose(1, 2, 0))
    err = [np.linalg.norm(reconstruct_channel(desk_op.dicts, x_hat[:, j]) - hs[j]) ** 2 for j in range(2)]
    ref = [np.linalg.norm(hs[j]) ** 2 for j in range(2)]
    mean_db = 10 * np.log10(np.mean(np.divide(err, ref)))
    pooled_db = 10 * np.log10(sum(err) / sum(ref))
    assert trace[-1]["nmse_db"] == pytest.approx(mean_db, abs=1e-10)
    assert abs(mean_db - pooled_db) > 0.01


@pytest.mark.parametrize("e_step", E_STEPS)
def test_run_estimator_on_a_dense_operator_without_config(rng, e_step):
    """A wrapped matrix carries no config; the estimator needs none."""
    op = operator_from_matrix(crandn(rng, 24, 40) / np.sqrt(24), rotate=True)
    assert op.config is None
    spec = EstimatorSpec(e_step=e_step, m_step="classic", n_iterations=4)
    x_hat, trace = run_estimator(spec, op, crandn(rng, 24, 2), 0.1)
    assert x_hat.shape == (40, 2) and np.all(np.isfinite(x_hat))
    assert len(trace) == 4 and np.isnan(trace[-1]["nmse_db"])


def test_run_estimator_amp_runs(desk_cfg, desk_op):
    _, y = _desk_obs(desk_cfg, desk_op, 1)
    spec = EstimatorSpec(e_step="amp", m_step="classic", n_iterations=3)
    x_hat, trace = run_estimator(spec, desk_op, y, desk_cfg.noise_var)
    assert np.all(np.isfinite(x_hat))
    assert len(trace) == 3
    assert np.isnan(trace[0]["nmse_db"])  # no truth supplied


def test_run_estimator_deterministic(desk_cfg, desk_op):
    _, y = _desk_obs(desk_cfg, desk_op, 2)
    spec = EstimatorSpec(e_step="exact", m_step="classic", n_iterations=4)
    a, _ = run_estimator(spec, desk_op, y, desk_cfg.noise_var)
    b, _ = run_estimator(spec, desk_op, y, desk_cfg.noise_var)
    assert np.array_equal(a, b)


def test_divergence_carries_partial_trace(desk_cfg, desk_op, monkeypatch):
    """A divergence reports where it happened and keeps the trace of the iterations before it.

    The E-step is made to return a non-finite mean at iteration 49; the
    variance update carries it into gamma, and iteration 50's E-step fails.
    """
    _, y = _desk_obs(desk_cfg, desk_op, 5)
    real = sbl.exact_e_step

    def poisoned(op, r, sigma2, state, **kwargs):
        mu, tau, cache = real(op, r, sigma2, state, **kwargs)
        return (np.full_like(mu, np.nan) if state.iteration == 48 else mu), tau, cache

    monkeypatch.setattr(sbl, "exact_e_step", poisoned)
    spec = EstimatorSpec(e_step="exact", m_step="classic", n_iterations=100)
    with pytest.raises(DivergenceError) as exc:
        run_estimator(spec, desk_op, y, desk_cfg.noise_var)
    assert exc.value.iteration == 50
    assert len(exc.value.trace) == 49



def _scaled_net(n_stages: int) -> MStepNet:
    net = MStepNet.create(n_stages, np.random.default_rng(1))
    for stage in net.stages:
        stage.w1 *= 1e-3
        stage.w2 *= 1e-3
    return net


@pytest.mark.parametrize("algo", list(ALGORITHMS))
def test_run_estimator_batch_columns_match_vector_calls(desk_cfg, desk_op, algo):
    """Column j of an (M, 3) run is the run on one measurement vector, y_j[:, None].

    The one-vector call is the one scoring makes.  Taken as a column of
    the batch's array instead, the same one-column batch gives the same
    bits.  A wider batch gives BLAS a matrix where a one-column run gives
    it a vector, and the two sum in different orders, so its columns
    match to rounding.
    """
    entry = ALGORITHMS[algo]
    net = _scaled_net(4) if entry.learned else None
    spec = EstimatorSpec(e_step=entry.e_step, m_step=entry.m_step, n_iterations=5, net=net)
    ys = draw_eval_observations(desk_op, 0, 3)[1]
    y = ys.T
    x_batch, trace = run_estimator(spec, desk_op, y, desk_cfg.noise_var)
    assert x_batch.shape == (desk_cfg.grid_total, 3)
    assert len(trace) == 5
    for j in range(3):
        x_vec, _ = run_estimator(spec, desk_op, ys[j][:, None], desk_cfg.noise_var)
        x_one, _ = run_estimator(spec, desk_op, y[:, j:j + 1], desk_cfg.noise_var)
        assert np.array_equal(x_one, x_vec)
        assert np.linalg.norm(x_batch[:, j] - x_vec[:, 0]) <= 1e-12 * np.linalg.norm(x_vec)


def test_step_runs_one_iteration(desk_cfg, desk_op):
    """One E-step, then the variance update except on the last iteration; the cache says which."""
    y = draw_eval_observations(desk_op, 0, 1)[1].T
    for m_step, net in (("classic", None), ("learned", _scaled_net(1))):
        spec = EstimatorSpec(e_step="amp", m_step=m_step, n_iterations=2, net=net)
        r, state = start_state(desk_op, y)
        gamma0 = state.gamma
        first = step(spec, desk_op, r, desk_cfg.noise_var, state)
        assert (first["it"], first["e_step"], state.iteration) == (1, "amp", 1)
        assert first["e"]["gamma"] is gamma0
        assert state.gamma.shape == gamma0.shape and state.gamma is not gamma0
        if m_step == "classic":
            assert np.array_equal(state.gamma, classic_m_step(state.mu, state.tau_x))
            assert "stage" not in first and "mu" not in first
        else:
            assert first["mu"] is state.mu and len(first["stage"]) == 2
        gamma1 = state.gamma
        last = step(spec, desk_op, r, desk_cfg.noise_var, state)
        assert last["it"] == 2 and "stage" not in last
        assert state.gamma is gamma1


_AMP_ONLY_RUN = """
import sys

import numpy as np

import squintsbl
from squintsbl.config import desk_config
from squintsbl.evaluation import ALGORITHMS, draw_eval_observations, standard_operator
from squintsbl.mstep import MStepNet
from squintsbl.sbl import EstimatorSpec, exact_e_step, run_estimator, start_state
from squintsbl.training import TrainConfig, generate_splits, train_layerwise

cfg = desk_config()
op = standard_operator(cfg)
y = draw_eval_observations(op, 0, 1)[1].T
net = MStepNet.create(2, np.random.default_rng(1))
for stage in net.stages:
    stage.w1 *= 1e-3
    stage.w2 *= 1e-3
algo = ALGORITHMS["amp-sbl-unfolding"]
run_estimator(EstimatorSpec(algo.e_step, algo.m_step, 3, net), op, y, cfg.noise_var)
train_layerwise(TrainConfig(depth=2, e_step="amp", max_epochs=1, batch_size=4), cfg, op,
                generate_splits(cfg, (8, 4, 4)))
print("scipy.linalg" in sys.modules)
r, state = start_state(op, y)
state.gamma = np.linspace(0.5, 1.5, op.shape[1])[:, None]
exact_e_step(op, r, cfg.noise_var, state)
print("scipy.linalg" in sys.modules)
"""


def test_amp_only_runs_never_import_scipy_linalg():
    """An AMP estimate and an AMP training epoch leave scipy.linalg unloaded; an exact solve loads it.

    A fresh interpreter, since the suite itself has long since imported it.
    """
    src = Path(squintsbl.__file__).resolve().parents[1]
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", _AMP_ONLY_RUN], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]
