"""Clustered wideband channel simulation for a half-wavelength ULA.

The frequency-selective channel is a sum of N_c * N_p subpaths grouped
in clusters.  Each subpath has a complex gain, a delay, and an angle;
the array response at tone frequency f uses the squinted argument
(f / f_c) * sin(theta), so the spatial signature drifts across the
band instead of staying fixed at the carrier value.

``build_channel`` takes one complex exponential per path and tone, the
squint phasor z = e^{-j pi (f / f_c) sin(theta)}, and forms the array
response's entries z^n, n = 0..N-1, by repeated doubling instead of N
exponentials; then each tone's column is one (N x P) @ (P,) product with
the per-path delay coefficients.  The tests check it against the direct
N-exponential form and an independent outer-product-per-path form.
:func:`phasor_powers`, the doubling, also builds the dictionaries' array
responses from one exponential per grid point and tone; its phase error
grows as O(n eps) with the power n, as the direct exponential's does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SPLIT_IDS, SystemConfig, spawn_rng, subcarrier_freqs


@dataclass
class PathSet:
    """All random parameters of one channel draw.

    Per-subpath arrays have length N_c * N_p with subpath p belonging to
    cluster p // N_p.  ``delay`` is clamped at zero; the raw Laplacian
    offsets are kept so the configured spreads remain observable.
    """

    gain: np.ndarray          # complex, standard circular Gaussian
    delay: np.ndarray         # seconds, >= 0
    angle: np.ndarray         # radians
    mean_angle: np.ndarray    # per cluster
    mean_delay: np.ndarray    # per cluster
    delta_angle: np.ndarray   # per subpath, before adding the cluster mean
    delta_delay: np.ndarray   # per subpath, before clamping


def _laplace(rng: np.random.Generator, scale: float, size) -> np.ndarray:
    # scale 0 must degenerate to exactly zero offsets
    if scale == 0.0:
        return np.zeros(size)
    return rng.laplace(0.0, scale, size)


def draw_paths(cfg: SystemConfig, rng: np.random.Generator) -> PathSet:
    """Draw one clustered path set.

    Cluster means: angle uniform on [0, 2 pi), delay uniform on
    [0, max_mean_delay].  Subpath offsets are Laplacian with standard
    deviation angle_spread / delay_spread, i.e. scale sigma / sqrt(2).
    Negative delays are clamped to zero.
    """
    nc, npth = cfg.n_clusters, cfg.n_subpaths
    mean_angle = rng.uniform(0.0, 2.0 * np.pi, nc)
    mean_delay = rng.uniform(0.0, cfg.max_mean_delay, nc)
    delta_angle = _laplace(rng, cfg.angle_spread / np.sqrt(2.0), (nc, npth))
    delta_delay = _laplace(rng, cfg.delay_spread / np.sqrt(2.0), (nc, npth))
    angle = (mean_angle[:, None] + delta_angle).ravel()
    delay = np.maximum(mean_delay[:, None] + delta_delay, 0.0).ravel()
    p = cfg.n_paths
    gain = (rng.standard_normal(p) + 1j * rng.standard_normal(p)) / np.sqrt(2.0)
    return PathSet(
        gain=gain,
        delay=delay,
        angle=angle,
        mean_angle=mean_angle,
        mean_delay=mean_delay,
        delta_angle=delta_angle.ravel(),
        delta_delay=delta_delay.ravel(),
    )


def phasor_powers(z: np.ndarray, n: int) -> np.ndarray:
    """z^m for m = 0..n-1, stacked on a new leading axis, by repeated doubling.

    Row 0 is 1; each pass multiplies the filled block of rows by
    z^(2^b), b = 0, 1, ..., and squares that factor for the next pass,
    so ceil(log2 n) passes fill the n rows with one complex product per
    entry.  Each squaring doubles the factor's relative phase error, so
    z^m carries about m times z's rounding plus ~log2 n product
    roundings: the same O(m eps) as the direct exponential, whose phase
    argument pi m psi rounds at up to m ulps of pi psi.
    """
    out = np.empty((n,) + z.shape, dtype=complex)
    out[0] = 1.0
    filled = 1
    while filled < n:
        count = min(filled, n - filled)
        np.multiply(out[:count], z, out=out[filled:filled + count])
        filled += count
        z = z * z
    return out


def build_channel(cfg: SystemConfig, paths: PathSet) -> np.ndarray:
    """Channel matrix H (N x K), one squinted array response per tone.

    Column k is sqrt(N / (N_c N_p)) * sum_p gain_p e^{-j 2 pi f_k tau_p}
    a_N((f_k / f_c) sin(theta_p)).  The sqrt(N) factor cancels the
    1/sqrt(N) steering norm so E ||H||_F^2 = K.

    The K*P squint phasors z[k, p] = e^{-j pi (f_k / f_c) sin(theta_p)}
    are the only array-response exponentials; a_N's entries z^n come
    from :func:`phasor_powers`, N*K*P products in log2 N passes.  Against
    the direct N*K*P exponentials the largest entry differs by ~1.4e-14
    of the largest |H| at N = 32; both round at O(N eps) in phase.
    """
    n = cfg.n_antennas
    f = subcarrier_freqs(cfg)                                    # (K,)
    coeff = paths.gain[:, None] * np.exp(-2j * np.pi * np.outer(paths.delay, f))  # (P, K)
    z = np.exp(-1j * np.pi * np.outer(f / cfg.center_freq, np.sin(paths.angle)))  # (K, P)
    responses = phasor_powers(z, n).transpose(1, 0, 2)           # (K, N, P), unscaled
    h = np.matmul(responses, coeff.T[:, :, None])[:, :, 0].T     # (N, K)
    return np.sqrt(n / cfg.n_paths) / n * h


def generate_dataset(cfg: SystemConfig, n_samples: int, split: str = "train") -> np.ndarray:
    """Draw ``n_samples`` channels on the split's own seed substream, as an (n, N, K) array.

    Each sample gets an independent child stream keyed by (split, index),
    so a split is a pure function of (config, seed, split, size),
    reproducible regardless of generation order, and the three
    canonical splits never overlap.
    """
    split_id = SPLIT_IDS.get(split)
    if split_id is None:
        raise ValueError(f"unknown split {split!r}; expected one of {sorted(SPLIT_IDS)}")
    if n_samples < 1:
        raise ValueError(f"{split} split: n_samples must be positive, got {n_samples}")
    h = np.empty((n_samples, cfg.n_antennas, cfg.n_subcarriers), dtype=complex)
    for i in range(n_samples):
        h[i] = build_channel(cfg, draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", split_id, i)))
    return h
