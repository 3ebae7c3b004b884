import numpy as np
import pytest
from hypothesis import given, strategies as st

from squintsbl import selftest
from squintsbl.channel import steering_vector
from squintsbl.config import desk_config, subcarrier_freqs
from squintsbl.dictionaries import (
    FREQUENCY_DEPENDENT,
    FREQUENCY_INDEPENDENT,
    build_dictionaries,
    coeff_matrix,
    grid_points,
    reconstruct_channel,
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


def test_squint_matched_dictionary_estimates_better():
    """Exact SBL on shared observations, once per dictionary: the matched one wins."""
    selftest.check_squint_dictionary()


def test_squint_check_fails_without_a_squint_unaware_side(monkeypatch):
    """With both operators squint-matched there is nothing to win, so the check must fail."""
    monkeypatch.setattr(selftest, "FREQUENCY_INDEPENDENT", FREQUENCY_DEPENDENT)
    with pytest.raises(AssertionError):
        selftest.check_squint_dictionary()
