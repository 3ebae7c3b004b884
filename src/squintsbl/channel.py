"""Clustered wideband channel simulation for a half-wavelength ULA.

The frequency-selective channel is a sum of N_c * N_p subpaths grouped
in clusters.  Each subpath has a complex gain, a delay, and an angle;
the array response at tone frequency f uses the squinted argument
(f / f_c) * sin(theta), so the spatial signature drifts across the
band instead of staying fixed at the carrier value.

``build_channel`` assembles each subcarrier column directly; the tests
cross-check it against an independent outer-product-per-path form.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import SPLIT_IDS, SystemConfig, spawn_rng, subcarrier_freqs
from .data_io import load_container, save_container


def steering_vector(n: int, z) -> np.ndarray:
    """Array response [e^{-j pi m z} / n for m = 0..n-1].

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


@dataclass
class PathSet:
    """All random parameters of one channel draw.

    Per-subpath arrays have length N_c * N_p with subpath p belonging to
    cluster p // N_p.  ``delay`` is clamped at zero; the raw Laplacian
    offsets are kept so the configured spreads remain observable.
    """

    gain: np.ndarray          # complex, standard circular Gaussian
    eq_gain: np.ndarray       # gain rotated by the first tone's delay phase
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
    f1 = subcarrier_freqs(cfg)[0]
    eq_gain = gain * np.exp(-2j * np.pi * f1 * delay)
    return PathSet(
        gain=gain,
        eq_gain=eq_gain,
        delay=delay,
        angle=angle,
        mean_angle=mean_angle,
        mean_delay=mean_delay,
        delta_angle=delta_angle.ravel(),
        delta_delay=delta_delay.ravel(),
    )


def build_channel(cfg: SystemConfig, paths: PathSet) -> np.ndarray:
    """Channel matrix H (N x K), one squinted array response per tone.

    Column k is sqrt(N / (N_c N_p)) * sum_p gain_p e^{-j 2 pi f_k tau_p}
    a_N((f_k / f_c) sin(theta_p)).  The sqrt(N) factor cancels the
    1/sqrt(N) steering norm so E ||H||_F^2 = K.
    """
    n = cfg.n_antennas
    f = subcarrier_freqs(cfg)                                    # (K,)
    sin_t = np.sin(paths.angle)                                  # (P,)
    coeff = paths.gain[:, None] * np.exp(-2j * np.pi * np.outer(paths.delay, f))  # (P, K)
    psi = np.outer(sin_t, f / cfg.center_freq)                   # (P, K)
    responses = np.exp(-1j * np.pi * np.arange(n)[:, None, None] * psi[None, :, :]) / n
    scale = np.sqrt(n / cfg.n_paths)
    return scale * np.einsum("pk,npk->nk", coeff, responses, optimize=True)


@dataclass
class ChannelRealization:
    paths: PathSet
    h: np.ndarray  # (N, K)


@dataclass
class Dataset:
    """A split of channel realizations plus the config that produced them."""

    split: str
    realizations: list[ChannelRealization]
    config: SystemConfig

    def __len__(self) -> int:
        return len(self.realizations)


def generate_dataset(cfg: SystemConfig, n_samples: int, split: str = "train") -> Dataset:
    """Draw ``n_samples`` channels on the split's own seed substream.

    Each sample gets an independent child stream keyed by (split, index),
    so datasets are reproducible regardless of generation order and the
    three canonical splits never overlap.  Stored matrices are complex64,
    matching the on-disk payload exactly.
    """
    split_id = SPLIT_IDS.get(split)
    if split_id is None:
        raise ValueError(f"unknown split {split!r}; expected one of {sorted(SPLIT_IDS)}")
    realizations = []
    for i in range(n_samples):
        rng = spawn_rng(cfg.rng_seed, "channel", split_id, i)
        paths = draw_paths(cfg, rng)
        h = build_channel(cfg, paths).astype(np.complex64)
        realizations.append(ChannelRealization(paths=paths, h=h))
    return Dataset(split=split, realizations=realizations, config=cfg)


# ---- persistence ------------------------------------------------------------

_DATASET_KIND = "channel-dataset"


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset container; H as complex64, then each PathSet field at full width."""
    meta = {
        "config": ds.config.to_dict(),
        "config_hash": ds.config.config_hash(),
        "split": ds.split,
        "n_samples": len(ds),
    }
    arrays = {"h": np.stack([r.h for r in ds.realizations]).astype(np.complex64)}
    for f in fields(PathSet):
        arrays[f.name] = np.stack([getattr(r.paths, f.name) for r in ds.realizations])
    save_container(path, _DATASET_KIND, meta, arrays)


def load_dataset(path, expect_config: SystemConfig | None = None) -> Dataset:
    """Read a dataset container; optionally insist on a matching config."""
    _, meta, arrays = load_container(path, expect_kind=_DATASET_KIND)
    cfg = SystemConfig.from_dict(meta["config"])
    if expect_config is not None and cfg != expect_config:
        raise ValueError(
            f"dataset config hash {cfg.config_hash()} does not match expected "
            f"{expect_config.config_hash()}"
        )
    realizations = []
    for i in range(meta["n_samples"]):
        paths = PathSet(**{f.name: arrays[f.name][i] for f in fields(PathSet)})
        realizations.append(ChannelRealization(paths=paths, h=arrays["h"][i]))
    return Dataset(split=meta["split"], realizations=realizations, config=cfg)

