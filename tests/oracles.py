"""Independent constructions kept only to cross-check the library."""

import numpy as np

from squintsbl.channel import PathSet, steering_vector
from squintsbl.config import SystemConfig


def channel_matrix_form(cfg: SystemConfig, paths: PathSet) -> np.ndarray:
    """Same channel as ``build_channel``, as one outer product per path plus a squint phase mask.

    H = sqrt(N / (N_c N_p)) * sum_p eq_gain_p
        (a_N(sin theta_p) c_K(2 eta tau_p)^T) * squint(theta_p)

    where c_K(z)_m = e^{-j pi m z} is the plain delay phase ramp (no
    1/K scaling; the per-tone construction fixes the normalization) and
    squint(theta)_{n,k} = e^{-j pi n sin(theta) (k - (K-1)/2) eta / f_c}.
    """
    n, k = cfg.n_antennas, cfg.n_subcarriers
    eta = cfg.subcarrier_spacing
    sin_t = np.sin(paths.angle)
    ant = np.arange(n)[:, None]                                  # (N, 1)
    tone = np.arange(k)[None, :] - (k - 1) / 2                   # (1, K)
    h = np.zeros((n, k), dtype=complex)
    for p in range(cfg.n_paths):
        spatial = steering_vector(n, sin_t[p])                   # (N,)
        delay_ramp = np.exp(-1j * np.pi * np.arange(k) * 2.0 * eta * paths.delay[p])
        squint = np.exp(-1j * np.pi * ant * sin_t[p] * tone * eta / cfg.center_freq)
        h += paths.eq_gain[p] * np.outer(spatial, delay_ramp) * squint
    return np.sqrt(n / cfg.n_paths) * h
