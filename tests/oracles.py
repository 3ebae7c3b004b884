"""Independent constructions kept only to cross-check the library."""

import numpy as np
from scipy.linalg import block_diag

from squintsbl.channel import PathSet
from squintsbl.config import SystemConfig, subcarrier_freqs
from squintsbl.selftest import _dense_phi as dense_phi  # noqa: F401  (re-exported for the tests)


def steering_vector(n: int, z) -> np.ndarray:
    """Array response [e^{-j pi m z} / n for m = 0..n-1], one exponential per entry.

    ``z`` may be a scalar (returns shape ``(n,)``) or a 1-D grid of
    arguments (returns shape ``(n, len(z))``).  The 1/n scaling gives
    each vector Euclidean norm 1/sqrt(n).
    """
    z = np.asarray(z, dtype=float)
    m = np.arange(n)
    if z.ndim == 0:
        return np.exp(-1j * np.pi * m * z) / n
    if z.ndim == 1:
        return np.exp(-1j * np.pi * np.outer(m, z)) / n
    raise ValueError(f"steering argument must be scalar or 1-D, got shape {z.shape}")


def channel_direct_form(cfg: SystemConfig, paths: PathSet) -> np.ndarray:
    """Same channel as ``build_channel``, with one exponential per antenna, path and tone.

    Column k is sqrt(N / (N_c N_p)) * sum_p gain_p e^{-j 2 pi f_k tau_p}
    a_N((f_k / f_c) sin(theta_p)), every a_N entry its own e^{-j pi n psi}.
    """
    n = cfg.n_antennas
    f = subcarrier_freqs(cfg)                                    # (K,)
    sin_t = np.sin(paths.angle)                                  # (P,)
    coeff = paths.gain[:, None] * np.exp(-2j * np.pi * np.outer(paths.delay, f))  # (P, K)
    psi = np.outer(sin_t, f / cfg.center_freq)                   # (P, K)
    responses = np.exp(-1j * np.pi * np.arange(n)[:, None, None] * psi[None, :, :]) / n
    return np.sqrt(n / cfg.n_paths) * np.einsum("pk,npk->nk", coeff, responses, optimize=True)


def channel_matrix_form(cfg: SystemConfig, paths: PathSet) -> np.ndarray:
    """Same channel as ``build_channel``, as one outer product per path plus a squint phase mask.

    H = sqrt(N / (N_c N_p)) * sum_p eq_gain_p
        (a_N(sin theta_p) c_K(2 eta tau_p)^T) * squint(theta_p)

    where eq_gain_p = gain_p e^{-j 2 pi f_1 tau_p} is the gain rotated by
    the first tone's delay phase, c_K(z)_m = e^{-j pi m z} is the plain
    delay phase ramp (no 1/K scaling; the per-tone construction fixes
    the normalization) and squint(theta)_{n,k} = e^{-j pi n sin(theta) (k - (K-1)/2) eta / f_c}.
    """
    n, k = cfg.n_antennas, cfg.n_subcarriers
    eta = cfg.subcarrier_spacing
    sin_t = np.sin(paths.angle)
    ant = np.arange(n)[:, None]                                  # (N, 1)
    tone = np.arange(k)[None, :] - (k - 1) / 2                   # (1, K)
    eq_gain = paths.gain * np.exp(-2j * np.pi * subcarrier_freqs(cfg)[0] * paths.delay)
    h = np.zeros((n, k), dtype=complex)
    for p in range(cfg.n_paths):
        spatial = steering_vector(n, sin_t[p])                   # (N,)
        delay_ramp = np.exp(-1j * np.pi * np.arange(k) * 2.0 * eta * paths.delay[p])
        squint = np.exp(-1j * np.pi * ant * sin_t[p] * tone * eta / cfg.center_freq)
        h += eq_gain[p] * np.outer(spatial, delay_ramp) * squint
    return np.sqrt(n / cfg.n_paths) * h


def dense_rotation(op) -> tuple[np.ndarray, np.ndarray]:
    """Expand an operator's per-tone factors into dense (U, A).

    U = blkdiag(u[0], ..., u[K-1]) and A stacks the tone row blocks
    kron(delay[k], a[k]).  A correct operator has orthonormal columns in
    U and U A = dense_phi(op), so A = U^H phi.
    """
    u = block_diag(*op.u)
    a = np.vstack([np.kron(op.delay[k], op.a[k]) for k in range(len(op.delay))])
    return u, a
