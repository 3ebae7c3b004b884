"""Angular and delay dictionaries for the sparse channel representation.

The channel is expanded on a delay grid (shared by all tones) and an
angular grid that can either track each tone's frequency (scaled by
f_k / f_c, so squinted far-field responses stay on-grid across the
band) or stay fixed at the carrier value.  A coefficient matrix X of
shape (G_A, G_D) is vectorized column by column: entry m of the vector
is pixel (m mod G_A, m div G_A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .config import SystemConfig, subcarrier_freqs
from .channel import steering_vector

FREQUENCY_DEPENDENT = "frequency-dependent"
FREQUENCY_INDEPENDENT = "frequency-independent"
_MODES = (FREQUENCY_DEPENDENT, FREQUENCY_INDEPENDENT)


def grid_points(g: int) -> np.ndarray:
    """Symmetric grid -1 + (2i - 1) / g for i = 1..g; strictly increasing."""
    return (2.0 * np.arange(1, g + 1) - 1.0) / g - 1.0


@dataclass
class DictionarySet:
    """Delay and per-tone angular dictionaries under one grid mode.

    Immutable after construction; a ridge projector for the sparsity
    diagnostic is cached lazily since it is only needed there.
    """

    mode: str
    config: SystemConfig
    delay_grid: np.ndarray      # (G_D,)
    delay_dict: np.ndarray      # (K, G_D), columns steering_vector(K, grid)
    angular_grids: np.ndarray   # (K, G_A), row k is tone k's grid
    angular_dicts: np.ndarray   # (K, N, G_A), slab k is tone k's dictionary
    _projector: tuple | None = field(default=None, repr=False, compare=False)


def build_dictionaries(cfg: SystemConfig, mode: str = FREQUENCY_DEPENDENT) -> DictionarySet:
    if mode not in _MODES:
        raise ValueError(f"unknown dictionary mode {mode!r}; expected one of {_MODES}")
    base_a = grid_points(cfg.grid_angular)
    base_d = grid_points(cfg.grid_delay)
    f = subcarrier_freqs(cfg)
    if mode == FREQUENCY_DEPENDENT:
        angular_grids = np.outer(f / cfg.center_freq, base_a)
    else:
        angular_grids = np.tile(base_a, (cfg.n_subcarriers, 1))
    angular_dicts = np.stack(
        [steering_vector(cfg.n_antennas, angular_grids[k]) for k in range(cfg.n_subcarriers)]
    )
    return DictionarySet(
        mode=mode,
        config=cfg,
        delay_grid=base_d,
        delay_dict=steering_vector(cfg.n_subcarriers, base_d),
        angular_grids=angular_grids,
        angular_dicts=angular_dicts,
    )


def coeff_matrix(dicts: DictionarySet, x: np.ndarray) -> np.ndarray:
    """Unstack a coefficient vector to its (G_A, G_D) image."""
    return np.reshape(x, (dicts.config.grid_angular, dicts.config.grid_delay), order="F")


def reconstruct_channel(dicts: DictionarySet, x: np.ndarray) -> np.ndarray:
    """Synthesize H (N x K) from angular-delay coefficients.

    Column k is the tone-k angular dictionary applied to column k of
    X @ delay_dict^T.
    """
    x_mat = coeff_matrix(dicts, x)
    q = x_mat @ dicts.delay_dict.T                       # (G_A, K)
    return np.einsum("kng,gk->nk", dicts.angular_dicts, q, optimize=True)


def synthesis_matrix(dicts: DictionarySet) -> np.ndarray:
    """Dense map from coefficients to the stacked channel vector.

    Shape (K*N, G_A*G_D); row block k equals kron(delay_dict[k, :],
    angular_dicts[k]), consistent with column-stacked vectorization on
    both sides.
    """
    cfg = dicts.config
    blocks = [
        np.kron(dicts.delay_dict[k, :], dicts.angular_dicts[k])
        for k in range(cfg.n_subcarriers)
    ]
    return np.vstack(blocks)


def _ridge_projector(dicts: DictionarySet):
    # Factor (T^H T + lambda I) once; reused across many score calls.
    t = synthesis_matrix(dicts)
    gram = t.conj().T @ t
    lam = 1e-6 * np.trace(gram).real / gram.shape[0]
    gram[np.diag_indices_from(gram)] += lam
    return cho_factor(gram), t


def ridge_project(dicts: DictionarySet, h: np.ndarray) -> np.ndarray:
    """Ridge least-squares angular-delay coefficients of a channel matrix."""
    if dicts._projector is None:
        dicts._projector = _ridge_projector(dicts)
    factor, t = dicts._projector
    return cho_solve(factor, t.conj().T @ h.ravel(order="F"))


def sparsity_score(dicts: DictionarySet, h: np.ndarray) -> float:
    """Fraction of projected energy captured by the top 1% of coefficients.

    Higher means the dictionary concentrates the channel better.
    """
    x = ridge_project(dicts, h)
    power = np.abs(x) ** 2
    total = power.sum()
    if total == 0.0:
        raise ValueError("zero channel has no sparsity score")
    top = max(1, int(np.ceil(power.size / 100)))
    return float(np.sort(power)[-top:].sum() / total)
