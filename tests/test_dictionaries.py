import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squintsbl.channel import build_channel, draw_paths, steering_vector
from squintsbl.config import default_config, desk_config, spawn_rng, subcarrier_freqs
from squintsbl.dictionaries import (
    FREQUENCY_DEPENDENT,
    FREQUENCY_INDEPENDENT,
    build_dictionaries,
    coeff_matrix,
    grid_points,
    reconstruct_channel,
    ridge_project,
    sparsity_score,
    synthesis_matrix,
)

from conftest import crandn


@given(st.integers(min_value=2, max_value=256))
def test_grid_points_layout(g):
    z = grid_points(g)
    assert z.shape == (g,)
    assert np.all(np.diff(z) > 0)
    assert z[0] > -1.0 and z[-1] <= 1.0
    # uniform with spacing 2/g
    assert np.allclose(np.diff(z), 2.0 / g)


def test_frequency_dependent_grids_scale_with_tone():
    cfg = desk_config()
    d = build_dictionaries(cfg, FREQUENCY_DEPENDENT)
    f = subcarrier_freqs(cfg)
    base = grid_points(cfg.grid_angular)
    for k in (0, cfg.n_subcarriers - 1):
        assert np.allclose(d.angular_grids[k], (f[k] / cfg.center_freq) * base)
        expect = steering_vector(cfg.n_antennas, d.angular_grids[k])
        assert np.allclose(d.angular_dicts[k], expect)
    # edge tones use different grids
    assert not np.allclose(d.angular_grids[0], d.angular_grids[-1])


def test_frequency_independent_grids_constant():
    cfg = desk_config()
    d = build_dictionaries(cfg, FREQUENCY_INDEPENDENT)
    base = grid_points(cfg.grid_angular)
    for k in range(cfg.n_subcarriers):
        assert np.allclose(d.angular_grids[k], base)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        build_dictionaries(desk_config(), "sideways")


def test_delay_dictionary_shape():
    cfg = desk_config()
    d = build_dictionaries(cfg)
    assert d.delay_dict.shape == (cfg.n_subcarriers, cfg.grid_delay)
    assert d.delay_grid.shape == (cfg.grid_delay,)
    # rows follow the steering convention on the delay grid
    expect = steering_vector(cfg.n_subcarriers, d.delay_grid)
    assert np.allclose(d.delay_dict, expect)


def test_coeff_matrix_vector_roundtrip(rng):
    cfg = desk_config()
    d = build_dictionaries(cfg)
    x = crandn(rng, cfg.grid_total)
    m = coeff_matrix(d, x)
    assert m.shape == (cfg.grid_angular, cfg.grid_delay)
    assert np.array_equal(m.ravel(order="F"), x)
    # column-major layout: vector index i maps to (i % GA, i // GA)
    i = 3 + 2 * cfg.grid_angular
    assert m[3, 2] == x[i]


def test_reconstruct_matches_synthesis_matrix(rng):
    cfg = desk_config()
    for mode in (FREQUENCY_DEPENDENT, FREQUENCY_INDEPENDENT):
        d = build_dictionaries(cfg, mode)
        s = synthesis_matrix(d)
        assert s.shape == (cfg.n_antennas * cfg.n_subcarriers, cfg.grid_total)
        x = crandn(rng, cfg.grid_total)
        h = reconstruct_channel(d, x)
        assert h.shape == (cfg.n_antennas, cfg.n_subcarriers)
        assert np.allclose(h.ravel(order="F"), s @ x, atol=1e-12)


def test_reconstruct_linear(rng):
    cfg = desk_config()
    d = build_dictionaries(cfg)
    x1, x2 = crandn(rng, cfg.grid_total), crandn(rng, cfg.grid_total)
    lhs = reconstruct_channel(d, 2.0 * x1 - 1j * x2)
    rhs = 2.0 * reconstruct_channel(d, x1) - 1j * reconstruct_channel(d, x2)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_on_grid_atom_recovered_by_projection():
    """A channel that is exactly one dictionary atom projects back onto it."""
    cfg = desk_config()
    d = build_dictionaries(cfg)
    i = 5 + 11 * cfg.grid_angular  # angular 5, delay 11
    e = np.zeros(cfg.grid_total, dtype=complex)
    e[i] = 1.0
    h = reconstruct_channel(d, e)
    x = ridge_project(d, h)
    assert np.argmax(np.abs(x)) == i
    # the coarse desk grids are coherent, so the atom shares energy with a
    # neighbor; it still dominates
    mags = np.sort(np.abs(x))
    assert abs(x[i]) > 0.45
    assert abs(x[i]) > 1.5 * mags[-3]


def test_ridge_project_near_inverse(rng):
    cfg = desk_config()
    d = build_dictionaries(cfg)
    x = crandn(rng, cfg.grid_total)
    h = reconstruct_channel(d, x)
    h2 = reconstruct_channel(d, ridge_project(d, h))
    # projector is ridge-regularized least squares onto the dictionary range
    assert np.linalg.norm(h2 - h) / np.linalg.norm(h) < 1e-3


def test_sparsity_score_range_and_invariance(rng):
    cfg = desk_config()
    d = build_dictionaries(cfg)
    paths = draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, 0))
    h = build_channel(cfg, paths)
    s = sparsity_score(d, h)
    assert 0.0 < s <= 1.0
    # scale invariant
    assert sparsity_score(d, 3.7 * h) == pytest.approx(s, rel=1e-9)
    with pytest.raises(ValueError):
        sparsity_score(d, np.zeros_like(h))


def test_single_atom_scores_near_one():
    cfg = desk_config()
    d = build_dictionaries(cfg)
    e = np.zeros(cfg.grid_total, dtype=complex)
    e[37] = 1.0
    h = reconstruct_channel(d, e)
    assert sparsity_score(d, h) > 0.9


def test_squint_matched_dictionary_scores_sparser():
    """Across squinted channels the tone-matched grids concentrate more energy.

    Needs the angular grid fine enough to resolve the squint shift, so the
    angular grid stays at its default size here.
    """
    cfg = default_config(n_subcarriers=16, grid_delay=32)
    fd = build_dictionaries(cfg, FREQUENCY_DEPENDENT)
    fi = build_dictionaries(cfg, FREQUENCY_INDEPENDENT)
    wins = 0
    n = 12
    for i in range(n):
        paths = draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, 100 + i))
        h = build_channel(cfg, paths)
        if sparsity_score(fd, h) > sparsity_score(fi, h):
            wins += 1
    assert wins >= int(0.8 * n)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_projection_linear(seed):
    cfg = desk_config()
    d = build_dictionaries(cfg)
    r = np.random.default_rng(seed)
    h1 = crandn(r, cfg.n_antennas, cfg.n_subcarriers)
    h2 = crandn(r, cfg.n_antennas, cfg.n_subcarriers)
    lhs = ridge_project(d, h1 + 2j * h2)
    rhs = ridge_project(d, h1) + 2j * ridge_project(d, h2)
    assert np.allclose(lhs, rhs, atol=1e-10)
