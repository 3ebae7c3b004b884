import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import squintsbl
from squintsbl import selftest
from squintsbl.channel import steering_vector
from squintsbl.config import desk_config, subcarrier_freqs
from squintsbl.dictionaries import (
    FREQUENCY_DEPENDENT,
    FREQUENCY_INDEPENDENT,
    build_dictionaries,
    grid_points,
    reconstruct_adjoint,
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


def test_reconstruct_reads_coefficients_column_major():
    """Vector index i is pixel (i % G_A, i // G_A): angular atom i % G_A times delay atom i // G_A."""
    cfg = desk_config()
    d = build_dictionaries(cfg)
    x = np.zeros(cfg.grid_total, dtype=complex)
    x[3 + 2 * cfg.grid_angular] = 1.0
    h = reconstruct_channel(d, x)
    expect = (d.angular_dicts[:, :, 3] * d.delay_dict[:, 2:3]).T
    assert np.allclose(h, expect, rtol=0, atol=1e-15)


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


def test_reconstruct_batch_columns_match_vector_calls(rng):
    """(G, B) gives (N, K, B) and (N, K, B) gives (G, B), column for column.

    A one-column batch runs the same products as a vector and matches it
    bit for bit; a wider batch sums in another BLAS order.
    """
    cfg = desk_config()
    d = build_dictionaries(cfg)
    x = crandn(rng, cfg.grid_total, 3)
    h = crandn(rng, cfg.n_antennas, cfg.n_subcarriers, 3)
    batch, back = reconstruct_channel(d, x), reconstruct_adjoint(d, h)
    assert batch.shape == (cfg.n_antennas, cfg.n_subcarriers, 3)
    assert back.shape == (cfg.grid_total, 3)
    for j in range(3):
        single = reconstruct_channel(d, x[:, j])
        assert np.array_equal(single, reconstruct_channel(d, x[:, j:j + 1])[:, :, 0])
        assert np.allclose(batch[:, :, j], single, rtol=1e-14, atol=1e-14)
        single = reconstruct_adjoint(d, h[:, :, j])
        assert np.array_equal(single, reconstruct_adjoint(d, h[:, :, j:j + 1])[:, 0])
        assert np.allclose(back[:, j], single, rtol=1e-14, atol=1e-14)


def test_squint_check_fails_without_a_squint_unaware_side(monkeypatch):
    """With both operators squint-matched there is nothing to win, so the check must fail."""
    monkeypatch.setattr(selftest, "FREQUENCY_INDEPENDENT", FREQUENCY_DEPENDENT)
    with pytest.raises(AssertionError):
        selftest.check_squint_dictionary()


def test_squint_check_fails_under_optimize_flag():
    """``python -O`` strips ``assert`` statements; the check must fail there all the same."""
    code = ("from squintsbl import selftest\n"
            "selftest.FREQUENCY_INDEPENDENT = selftest.FREQUENCY_DEPENDENT\n"
            "selftest.check_squint_dictionary()\n")
    src = str(Path(squintsbl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode != 0
    assert "AssertionError: squint-matched dictionary won 0/8 pairs" in run.stderr
