import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from squintsbl.config import (
    SystemConfig,
    default_config,
    desk_config,
    noise_var_from_snr_db,
    spawn_rng,
    subcarrier_freqs,
)


def test_default_geometry():
    cfg = default_config()
    assert (cfg.n_antennas, cfg.n_rf, cfg.n_uses, cfg.n_subcarriers) == (32, 4, 4, 32)
    assert (cfg.grid_angular, cfg.grid_delay) == (64, 64)
    assert cfg.n_measurements == 32 * 4 * 4
    assert cfg.grid_total == 64 * 64
    assert cfg.n_paths == cfg.n_clusters * cfg.n_subpaths == 30
    assert cfg.noise_var == pytest.approx(0.1)
    assert cfg.snr_db == pytest.approx(10.0)
    assert cfg.center_freq == 28e9 and cfg.bandwidth == 4e9
    assert cfg.subcarrier_spacing == pytest.approx(4e9 / 32)


def test_desk_geometry():
    cfg = desk_config()
    assert (cfg.n_antennas, cfg.n_subcarriers, cfg.n_uses, cfg.n_rf) == (16, 8, 2, 2)
    assert (cfg.grid_angular, cfg.grid_delay) == (16, 16)
    assert cfg.n_measurements == 8 * 2 * 2
    assert cfg.grid_total == 256


def test_overrides_and_replace():
    cfg = default_config(n_subcarriers=16, noise_var=0.5)
    assert cfg.n_subcarriers == 16 and cfg.noise_var == 0.5
    cfg2 = cfg.replace(n_uses=2)
    assert cfg2.n_uses == 2 and cfg.n_uses == 4  # original untouched


@pytest.mark.parametrize("field,value", [
    ("n_antennas", 0),
    ("n_rf", -1),
    ("n_subcarriers", 0),
    ("noise_var", 0.0),
    ("noise_var", -0.1),
    ("bandwidth", -1.0),
    ("n_clusters", 0),
    ("grid_angular", 0),
    ("n_iterations", -2),
    ("noise_var", math.nan),
    ("noise_var", math.inf),
    ("angle_spread", math.nan),
    ("n_iterations", 2.5),
    ("rng_seed", 1.5),
    ("n_antennas", True),
    ("bandwidth", "4e9"),
])
def test_validation_rejects(field, value):
    with pytest.raises(ValueError):
        default_config(**{field: value})


def test_dict_roundtrip():
    cfg = default_config(rng_seed=7, angle_spread=0.01)
    assert SystemConfig.from_dict(cfg.to_dict()) == cfg


def test_from_dict_rejects_unknown_key():
    d = default_config().to_dict()
    d["bogus"] = 1
    with pytest.raises((ValueError, TypeError)):
        SystemConfig.from_dict(d)


def test_config_hash_stability_and_sensitivity():
    a = default_config()
    b = default_config()
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 12
    seen = {a.config_hash()}
    for over in ({"n_antennas": 16}, {"noise_var": 0.2}, {"rng_seed": 1},
                 {"center_freq": 29e9}, {"grid_delay": 32}):
        h = default_config(**over).config_hash()
        assert h not in seen
        seen.add(h)


def test_int_for_float_field_hashes_as_float():
    """noise_var=1 and noise_var=1.0 are one experiment with one hash."""
    a, b = default_config(noise_var=1), default_config(noise_var=1.0)
    assert a == b and a.config_hash() == b.config_hash()
    assert type(a.noise_var) is float and type(a.n_antennas) is int
    # the default hashes stay what they were before the conversion
    assert (default_config().config_hash(), desk_config().config_hash()) == ("1e669bf995cb", "7a19bd566d9b")
    from_file = SystemConfig.from_dict({**default_config().to_dict(), "bandwidth": 4_000_000_000})
    assert from_file.config_hash() == default_config().config_hash()


def test_snr_noise_var_inverse():
    assert noise_var_from_snr_db(10.0) == pytest.approx(0.1)
    assert noise_var_from_snr_db(0.0) == pytest.approx(1.0)
    assert noise_var_from_snr_db(-10.0) == pytest.approx(10.0)


@given(st.floats(min_value=-30, max_value=30))
def test_snr_roundtrip(snr_db):
    cfg = default_config(noise_var=noise_var_from_snr_db(snr_db))
    assert cfg.snr_db == pytest.approx(snr_db, abs=1e-9)


def test_subcarrier_freqs_layout():
    cfg = default_config()
    f = subcarrier_freqs(cfg)
    assert f.shape == (cfg.n_subcarriers,)
    # uniform spacing, centered on the carrier
    assert np.allclose(np.diff(f), cfg.subcarrier_spacing)
    assert np.mean(f) == pytest.approx(cfg.center_freq)
    assert f.max() - f.min() == pytest.approx(cfg.bandwidth - cfg.subcarrier_spacing)


def test_spawn_rng_streams_independent():
    a = spawn_rng(2024, "channel", 0, 3).standard_normal(8)
    b = spawn_rng(2024, "channel", 0, 3).standard_normal(8)
    c = spawn_rng(2024, "channel", 0, 4).standard_normal(8)
    d = spawn_rng(2024, "noise", 0, 3).standard_normal(8)
    e = spawn_rng(2025, "channel", 0, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_spawn_rng_rejects_unknown_stream():
    with pytest.raises(ValueError):
        spawn_rng(2024, "not-a-stream", 0)
