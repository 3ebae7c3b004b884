import numpy as np
import pytest
from scipy.linalg import solve_triangular

from squintsbl.channel import ChannelRealization, build_channel, draw_paths
from squintsbl.config import default_config, desk_config, spawn_rng
from squintsbl.dictionaries import build_dictionaries, reconstruct_channel
from squintsbl.measurement import (
    assemble_operator,
    draw_combiner,
    observe_and_transform,
    operator_from_matrix,
    simulate_observation,
)

from conftest import crandn


def _comb(cfg, idx=0):
    return draw_combiner(cfg, spawn_rng(cfg.rng_seed, "pilot", idx))


def test_combiner_entries_and_shapes():
    cfg = default_config()
    c = _comb(cfg)
    m = cfg.n_uses * cfg.n_rf
    assert c.w.shape == (m, cfg.n_antennas)
    assert c.w_bar.shape == (m, cfg.n_antennas)
    assert c.n_uses == cfg.n_uses
    # one-bit phases scaled by 1/sqrt(N)
    assert np.allclose(np.abs(c.w), 1.0 / np.sqrt(cfg.n_antennas))
    assert np.all(np.isin(c.w * np.sqrt(cfg.n_antennas), [-1.0, 1.0]))


def test_combiner_whitening_identity():
    """Within each pilot use the whitened rows have identity covariance.

    Noise across uses is independent, so block-wise whitening is all the
    noise model needs; rows of different uses are not orthogonalized.
    """
    cfg = default_config()
    c = _comb(cfg)
    nrf = cfg.n_rf
    for q in range(cfg.n_uses):
        rows = c.w_bar[q * nrf:(q + 1) * nrf]
        gram = rows @ rows.conj().T
        assert np.allclose(gram, np.eye(nrf), atol=1e-10)
    # d reproduces w_bar from w
    assert np.allclose(solve_triangular(c.d, c.w, lower=True), c.w_bar, atol=1e-12)


def test_combiner_block_structure():
    """Whitening is per pilot use: d is block-diagonal over uses."""
    cfg = default_config()
    c = _comb(cfg)
    nrf = cfg.n_rf
    d = c.d.copy()
    for q in range(cfg.n_uses):
        d[q * nrf:(q + 1) * nrf, q * nrf:(q + 1) * nrf] = 0.0
    assert np.allclose(d, 0.0)


def test_combiner_reproducible_per_stream():
    cfg = default_config()
    a, b, c = _comb(cfg, 0), _comb(cfg, 0), _comb(cfg, 1)
    assert np.array_equal(a.w, b.w)
    assert not np.array_equal(a.w, c.w)


def test_operator_from_matrix_plain(rng):
    phi = crandn(rng, 6, 12)
    op = operator_from_matrix(phi)
    assert np.array_equal(op.phi, phi)
    assert np.array_equal(op.a, phi)
    assert np.allclose(op.u, np.eye(6))
    assert np.allclose(op.abs2_a, np.abs(phi) ** 2)
    assert np.allclose(op.abs2_a_t, (np.abs(phi) ** 2).T)


def test_operator_from_matrix_rotated(rng):
    phi = crandn(rng, 6, 12)
    op = operator_from_matrix(phi, rotate=True)
    # u unitary, u a == phi
    assert np.allclose(op.u.conj().T @ op.u, np.eye(6), atol=1e-12)
    assert np.allclose(op.u @ op.a, phi, atol=1e-12)


def test_assemble_operator_shape_and_blocks():
    cfg = desk_config()
    comb = _comb(cfg)
    dicts = build_dictionaries(cfg)
    op = assemble_operator(cfg, comb, dicts)
    m_tone = cfg.n_uses * cfg.n_rf
    assert op.phi.shape == (m_tone * cfg.n_subcarriers, cfg.grid_total)
    # row block k is kron(delay row k, whitened combiner times angular dict k)
    for k in (0, cfg.n_subcarriers - 1):
        block = op.phi[k * m_tone:(k + 1) * m_tone, :]
        expect = np.kron(dicts.delay_dict[k], comb.w_bar @ dicts.angular_dicts[k])
        assert np.allclose(block, expect, atol=1e-12)


def test_assemble_operator_is_rotated_matrix_operator(desk_op):
    """Assembly builds its rotation exactly as operator_from_matrix does."""
    ref = operator_from_matrix(desk_op.phi, rotate=True)
    for name in ("phi", "u", "a", "abs2_a", "abs2_a_t"):
        assert np.array_equal(getattr(desk_op, name), getattr(ref, name)), name
    assert desk_op.abs2_a_t.flags.c_contiguous


def test_assemble_operator_matches_channel_path(rng, desk_cfg, desk_op):
    """op.phi @ x equals combining the reconstructed channel tone by tone."""
    op = desk_op
    cfg = desk_cfg
    for _ in range(5):
        x = crandn(rng, cfg.grid_total)
        h = reconstruct_channel(op.dicts, x)
        direct = (op.combiner.w_bar @ h).ravel(order="F")
        assert np.allclose(op.phi @ x, direct, atol=1e-10)


def test_assemble_operator_config_mismatch():
    cfg = desk_config()
    comb = _comb(cfg)
    other = desk_config(n_subcarriers=4)
    dicts = build_dictionaries(other)
    with pytest.raises(ValueError):
        assemble_operator(cfg, comb, dicts)


def test_simulate_observation_fields(desk_cfg):
    cfg = desk_cfg
    comb = _comb(cfg)
    paths = draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, 0))
    chan = ChannelRealization(paths=paths, h=build_channel(cfg, paths))
    obs = simulate_observation(cfg, comb, chan, spawn_rng(cfg.rng_seed, "noise", 0, 0))
    m_tone = cfg.n_uses * cfg.n_rf
    assert obs.y.shape == (m_tone * cfg.n_subcarriers,)
    assert np.array_equal(obs.h, chan.h)


def test_observation_noise_level(desk_cfg):
    """Residual y - w_bar h has the configured per-entry variance."""
    cfg = desk_cfg
    comb = _comb(cfg)
    paths = draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, 1))
    chan = ChannelRealization(paths=paths, h=build_channel(cfg, paths))
    clean = (comb.w_bar @ chan.h).ravel(order="F")
    resid = []
    for i in range(500):
        obs = simulate_observation(cfg, comb, chan, spawn_rng(cfg.rng_seed, "noise", 1, i))
        resid.append(obs.y - clean)
    v = np.mean(np.abs(np.concatenate(resid)) ** 2)
    assert v == pytest.approx(cfg.noise_var, rel=0.05)


def test_observe_and_transform_consistency(desk_cfg, desk_op):
    cfg = desk_cfg
    paths = draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, 2))
    chan = ChannelRealization(paths=paths, h=build_channel(cfg, paths))
    obs = observe_and_transform(desk_op, chan, spawn_rng(cfg.rng_seed, "noise", 2, 0))
    ref = simulate_observation(cfg, desk_op.combiner, chan, spawn_rng(cfg.rng_seed, "noise", 2, 0))
    assert np.array_equal(obs.y, ref.y)
    assert np.array_equal(obs.h, ref.h)


def test_observation_determinism(desk_cfg, desk_op):
    cfg = desk_cfg
    paths = draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, 3))
    chan = ChannelRealization(paths=paths, h=build_channel(cfg, paths))
    a = observe_and_transform(desk_op, chan, spawn_rng(cfg.rng_seed, "noise", 3, 0))
    b = observe_and_transform(desk_op, chan, spawn_rng(cfg.rng_seed, "noise", 3, 0))
    assert np.array_equal(a.y, b.y)

