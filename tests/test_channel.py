import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squintsbl.channel import PathSet, build_channel, draw_paths, generate_dataset
from squintsbl.config import SPLIT_IDS, default_config, desk_config, spawn_rng, subcarrier_freqs

from oracles import channel_direct_form, channel_matrix_form, steering_vector


def test_steering_vector_normalization():
    for n in (4, 16, 32):
        a = steering_vector(n, 0.3)
        assert a.shape == (n,)
        # 1/n entries -> squared norm 1/n
        assert np.linalg.norm(a) ** 2 == pytest.approx(1.0 / n)
        assert np.allclose(np.abs(a), 1.0 / n)
        assert a[0] == pytest.approx(1.0 / n)


def test_steering_vector_phase_ramp():
    n, z = 8, -0.42
    a = steering_vector(n, z)
    ratios = a[1:] / a[:-1]
    assert np.allclose(ratios, np.exp(-1j * np.pi * z))


def test_steering_vector_grid_argument():
    z = np.array([-0.5, 0.0, 0.5])
    a = steering_vector(6, z)
    assert a.shape == (6, 3)
    for j, zj in enumerate(z):
        assert np.allclose(a[:, j], steering_vector(6, zj))


def _paths(cfg, seed=0):
    return draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, seed))


def test_draw_paths_shapes_and_ranges():
    cfg = default_config()
    p = _paths(cfg)
    n = cfg.n_paths
    for arr in (p.angle, p.delay, p.gain, p.delta_angle, p.delta_delay):
        assert arr.shape == (n,)
    assert p.mean_angle.shape == (cfg.n_clusters,)
    assert p.mean_delay.shape == (cfg.n_clusters,)
    assert np.all(p.delay >= 0)
    assert np.all(p.mean_delay <= cfg.max_mean_delay)


def test_draw_paths_reproducible():
    cfg = default_config()
    a = _paths(cfg, 5)
    b = _paths(cfg, 5)
    c = _paths(cfg, 6)
    assert np.array_equal(a.angle, b.angle)
    assert np.array_equal(a.gain, b.gain)
    assert not np.array_equal(a.angle, c.angle)


def test_cluster_spread_statistics():
    # raw subpath offsets should match the configured spreads within 10%
    cfg = default_config()
    d_ang, d_del = [], []
    for i in range(400):
        p = _paths(cfg, i)
        d_ang.append(p.delta_angle)
        d_del.append(p.delta_delay)
    assert np.std(np.concatenate(d_ang)) == pytest.approx(cfg.angle_spread, rel=0.10)
    assert np.std(np.concatenate(d_del)) == pytest.approx(cfg.delay_spread, rel=0.10)


def test_cluster_structure():
    cfg = default_config()
    p = _paths(cfg, 9)
    ang = p.angle.reshape(cfg.n_clusters, cfg.n_subpaths)
    dl = p.delay.reshape(cfg.n_clusters, cfg.n_subpaths)
    assert np.allclose(ang, p.mean_angle[:, None] + p.delta_angle.reshape(ang.shape))
    # delays are the clamped sums
    raw = p.mean_delay[:, None] + p.delta_delay.reshape(dl.shape)
    assert np.allclose(dl, np.maximum(raw, 0.0))


def _single_path(theta, tau):
    g = np.array([1.0 + 0.0j])
    return PathSet(
        gain=g, delay=np.array([tau]),
        angle=np.array([theta]), mean_angle=np.array([theta]),
        mean_delay=np.array([tau]), delta_angle=np.zeros(1),
        delta_delay=np.zeros(1),
    )


def test_build_channel_single_path_geometry():
    """One path, zero delay: every tone is a steering vector at the squinted angle."""
    cfg = default_config()
    theta = 0.7
    h = build_channel(cfg, _single_path(theta, 0.0))
    assert h.shape == (cfg.n_antennas, cfg.n_subcarriers)
    freqs = subcarrier_freqs(cfg)
    for k in (0, cfg.n_subcarriers // 2, cfg.n_subcarriers - 1):
        ratio = freqs[k] / cfg.center_freq
        expect = steering_vector(cfg.n_antennas, ratio * np.sin(theta))
        col = h[:, k] / h[0, k]
        assert np.allclose(col, expect / expect[0], atol=1e-12)
    # squint: edge tones point at different angles, so columns differ
    lo = h[:, 0] / np.linalg.norm(h[:, 0])
    hi = h[:, -1] / np.linalg.norm(h[:, -1])
    assert abs(np.vdot(lo, hi)) < 0.999


def test_build_channel_delay_phase():
    """One path at broadside: the delay shows up as a per-tone phase ramp."""
    cfg = default_config()
    tau = 5e-9
    h = build_channel(cfg, _single_path(0.0, tau))
    row = h[0, :]
    ratios = row[1:] / row[:-1]
    expect = np.exp(-2j * np.pi * cfg.subcarrier_spacing * tau)
    assert np.allclose(ratios, expect, atol=1e-12)


def test_build_channel_linear_in_gains():
    cfg = desk_config()
    p = _paths(cfg, 3)
    h1 = build_channel(cfg, p)
    p2 = PathSet(gain=2.5 * p.gain, delay=p.delay,
                 angle=p.angle, mean_angle=p.mean_angle, mean_delay=p.mean_delay,
                 delta_angle=p.delta_angle, delta_delay=p.delta_delay)
    h2 = build_channel(cfg, p2)
    assert np.allclose(h2, 2.5 * h1, atol=1e-12)


def test_matrix_form_matches_per_column():
    cfg = default_config()
    for i in range(3):
        p = _paths(cfg, 20 + i)
        a = build_channel(cfg, p)
        b = channel_matrix_form(cfg, p)
        assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-10


def _worst_direct_form_error(cfg, n_draws=50):
    """Largest |H - H_direct| over the largest |H_direct|, over seeded path sets."""
    worst = 0.0
    for i in range(n_draws):
        p = _paths(cfg, 300 + i)
        ref = channel_direct_form(cfg, p)
        h = build_channel(cfg, p)
        assert h.shape == ref.shape
        worst = max(worst, float(np.max(np.abs(h - ref)) / np.max(np.abs(ref))))
    return worst


@pytest.mark.parametrize("make_cfg", [desk_config, default_config], ids=["desk", "default"])
def test_build_channel_matches_direct_exponentials(make_cfg):
    """Phasor powers by doubling give the one-exponential-per-entry channel to rounding."""
    assert _worst_direct_form_error(make_cfg()) <= 1e-13


@pytest.mark.parametrize("overrides", [
    {"n_antennas": 1}, {"n_antennas": 3}, {"n_antennas": 24}, {"n_antennas": 256},
    {"n_clusters": 1, "n_subpaths": 1}, {"n_subcarriers": 1},
], ids=["N=1", "N=3", "N=24", "N=256", "one-path", "K=1"])
def test_build_channel_edges_match_direct_exponentials(overrides):
    """Array sizes that are not powers of two, one antenna, one path and one tone.

    Both forms round at O(N eps) in phase (the direct form's argument
    pi n psi, the doubling's squared phasors), so the bound grows with N
    past the default 32 antennas.
    """
    cfg = default_config(**overrides)
    assert _worst_direct_form_error(cfg) <= 1e-13 * max(1.0, cfg.n_antennas / 32)


def test_mean_energy_normalization():
    cfg = default_config()
    vals = []
    for i in range(1000):
        p = _paths(cfg, 1000 + i)
        h = build_channel(cfg, p)
        vals.append(np.linalg.norm(h) ** 2 / cfg.n_subcarriers)
    assert np.mean(vals) == pytest.approx(1.0, abs=0.1)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_channel_finite(seed):
    cfg = desk_config()
    h = build_channel(cfg, _paths(cfg, seed))
    assert np.all(np.isfinite(h))


def test_generate_dataset_split_streams():
    cfg = desk_config()
    tr = generate_dataset(cfg, 3, "train")
    va = generate_dataset(cfg, 3, "val")
    tr2 = generate_dataset(cfg, 3, "train")
    assert len(tr) == 3
    assert np.array_equal(tr[0], tr2[0])
    assert not np.array_equal(tr[0], va[0])
    with pytest.raises(ValueError):
        generate_dataset(cfg, 2, "nope")
    with pytest.raises(ValueError, match="val split: n_samples must be positive, got 0"):
        generate_dataset(cfg, 0, "val")


@pytest.mark.parametrize("split", sorted(SPLIT_IDS))
def test_generate_dataset_is_sample_major(split):
    """Row i is the i-th channel drawn on its own, as drawn (complex128)."""
    cfg = desk_config()
    h = generate_dataset(cfg, 3, split)
    assert h.shape == (3, cfg.n_antennas, cfg.n_subcarriers) and h.dtype == np.complex128
    for i in range(3):
        paths = draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", SPLIT_IDS[split], i))
        assert np.array_equal(h[i], build_channel(cfg, paths))
