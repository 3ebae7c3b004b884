"""Angular and delay dictionaries for the sparse channel representation.

The channel is expanded on a delay grid (shared by all tones) and an
angular grid that can either track each tone's frequency (scaled by
f_k / f_c, so squinted far-field responses stay on-grid across the
band) or stay fixed at the carrier value.  A coefficient matrix X of
shape (G_A, G_D) is vectorized column by column: entry m of the vector
is pixel (m mod G_A, m div G_A).

The map from coefficients to a tone-stacked vector whose tone-k rows are
kron(delay[k], blocks[k]) is written once, as :func:`synthesize` and its
transpose :func:`analyze`.  With the angular dictionaries as the blocks
it synthesizes the channel (:func:`reconstruct_channel` and its adjoint);
with the rotated combined dictionaries it is the sensing operator's
product.  :func:`error_ratios` is the one per-sample NMSE
||H_hat - H||^2 / ||H||^2.  Both serve inference, validation and the
training loss, for a vector (G,) or a batch (G, B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import SystemConfig, subcarrier_freqs
from .channel import phasor_powers

FREQUENCY_DEPENDENT = "frequency-dependent"
FREQUENCY_INDEPENDENT = "frequency-independent"
_MODES = (FREQUENCY_DEPENDENT, FREQUENCY_INDEPENDENT)


def grid_points(g: int) -> np.ndarray:
    """Symmetric grid -1 + (2i - 1) / g for i = 1..g; strictly increasing."""
    return (2.0 * np.arange(1, g + 1) - 1.0) / g - 1.0


@dataclass
class DictionarySet:
    """Delay and per-tone angular dictionaries under one grid mode.

    Immutable after construction.
    """

    mode: str
    config: SystemConfig
    delay_grid: np.ndarray      # (G_D,)
    delay_dict: np.ndarray      # (K, G_D), column d is the response e^{-j pi k z_d} / K
    angular_grids: np.ndarray   # (K, G_A), row k is tone k's grid
    angular_dicts: np.ndarray   # (K, N, G_A), slab k is tone k's dictionary


def build_dictionaries(cfg: SystemConfig, mode: str = FREQUENCY_DEPENDENT) -> DictionarySet:
    """Delay and per-tone angular dictionaries on ``mode``'s grids.

    Every atom is an array response e^{-j pi m z} / n, m = 0..n-1, on its
    grid point z: one exponential per grid point (and tone, for the
    angular atoms) raised to the powers m by
    :func:`~squintsbl.channel.phasor_powers`, in both modes.  The phase of
    entry m rounds at O(m eps), as the direct exponential's does; at the
    default size the atoms differ from n direct exponentials by at most
    1.7e-14 of the largest entry.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown dictionary mode {mode!r}; expected one of {_MODES}")
    base_a = grid_points(cfg.grid_angular)
    base_d = grid_points(cfg.grid_delay)
    f = subcarrier_freqs(cfg)
    if mode == FREQUENCY_DEPENDENT:
        angular_grids = np.outer(f / cfg.center_freq, base_a)
    else:
        angular_grids = np.tile(base_a, (cfg.n_subcarriers, 1))
    n, k = cfg.n_antennas, cfg.n_subcarriers
    angular = phasor_powers(np.exp(-1j * np.pi * angular_grids), n)   # (N, K, G_A), unscaled
    return DictionarySet(
        mode=mode,
        config=cfg,
        delay_grid=base_d,
        delay_dict=phasor_powers(np.exp(-1j * np.pi * base_d), k) / k,
        angular_grids=angular_grids,
        # tone-major slabs, scaled and laid out in one pass
        angular_dicts=np.multiply(angular.transpose(1, 0, 2), 1.0 / n, order="C"),
    )


def synthesize(delay: np.ndarray, blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the rows kron(delay[k], blocks[k]), k = 0..K-1, to x (G, .); returns (K * rows, .).

    ``delay`` is (K, G_D) and ``blocks`` (K, rows, G_A): one delay GEMM,
    then one batched per-tone product.
    """
    k, n_delay = delay.shape
    t = delay @ x.reshape(n_delay, -1)                       # (K, G_A * B)
    out = blocks @ t.reshape(k, blocks.shape[2], -1)         # (K, rows, B)
    return out.reshape((-1,) + x.shape[1:])


def analyze(delay: np.ndarray, blocks_t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Transpose of :func:`synthesize`, given blocks_t[k] = blocks[k]^T; pass conjugates for the adjoint."""
    k = delay.shape[0]
    z = blocks_t @ s.reshape(k, blocks_t.shape[2], -1)       # (K, G_A, B)
    out = delay.T @ z.reshape(k, -1)                         # (G_D, G_A * B)
    return out.reshape((-1,) + s.shape[1:])


def reconstruct_channel(dicts: DictionarySet, x: np.ndarray) -> np.ndarray:
    """Synthesize H from angular-delay coefficients: (G,) -> (N, K), (G, B) -> (N, K, B).

    Tone k is the tone-k angular dictionary applied to column k of
    X @ delay_dict^T, with X the (G_A, G_D) image of the coefficients:
    :func:`synthesize` with the angular dictionaries as the tone blocks.
    The result is a tone-major array seen as (N, K, .), not a copy.
    """
    k, n = dicts.angular_dicts.shape[:2]
    h = synthesize(dicts.delay_dict, dicts.angular_dicts, x).reshape((k, n) + x.shape[1:])
    return np.swapaxes(h, 0, 1)


def reconstruct_adjoint(dicts: DictionarySet, h: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`reconstruct_channel`: (N, K) -> (G,), (N, K, B) -> (G, B)."""
    blocks_t = np.swapaxes(dicts.angular_dicts, 1, 2).conj()
    s = np.swapaxes(h, 0, 1).reshape((-1,) + h.shape[2:])    # tone-major stack (K * N, .)
    return analyze(dicts.delay_dict.conj(), blocks_t, s)


def error_ratios(resid: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample NMSE ||resid||^2 / ||h||^2 of (N, K, B) batches, and ||h||^2, each (B,).

    ``resid`` is H_hat - H.  Each sample's squared norms are summed over
    a C-ordered copy of its (N, K) slab, so the ratios round the same
    whatever the memory layout of either input.  Raises ``ValueError``
    when a reference channel has zero norm, where the ratio is undefined.
    """
    ref = _sample_energy(h)
    if not np.all(ref > 0.0):
        raise ValueError("reference channel has zero norm; the ratio is undefined")
    return _sample_energy(resid) / ref, ref


def _sample_energy(z: np.ndarray) -> np.ndarray:
    """Squared norm of each sample of a (N, K, B) batch, (B,), in a fixed summation order."""
    flat = np.ascontiguousarray(np.moveaxis(z, -1, 0)).reshape(z.shape[-1], -1)
    return np.sum(np.abs(flat) ** 2, axis=1)


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
