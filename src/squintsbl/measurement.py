"""Pilot combining, noise whitening, and the stacked sensing operator.

Each of Q pilot uses applies a random one-bit analog combiner W_q
(n_rf x N, entries +-1/sqrt(N)) to every tone.  Combined noise has
per-use covariance sigma^2 W_q W_q^H, so measurements are pre-whitened
with the block Cholesky factor D: after scaling by D^{-1} the noise is
white again and every estimator can assume sigma^2 I.

The whitened sensing operator maps angular-delay coefficients to the
stacked measurement vector.  Its row block for tone k is
kron(delay_dict[k, :], W_bar @ angular_dicts[k]), which matches the
column-stacked coefficient ordering.  A one-time SVD gives the rotated
matrix A = U^H Phi for the message-passing posterior, which rotates its
own measurements r = U^H y.  Operators are rebuilt from the config.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .channel import ChannelRealization
from .config import SystemConfig
from .dictionaries import DictionarySet


@dataclass
class PilotCombiner:
    """Stacked one-bit combiner and its whitening factor.

    ``w`` is (Q*n_rf, N) with the per-use blocks stacked top to bottom.
    ``d`` is the lower-triangular block Cholesky factor of the noise
    Gram blkdiag(W_q W_q^H); ``w_bar = d^{-1} w`` is the whitened
    combiner actually used downstream.
    """

    w: np.ndarray
    d: np.ndarray
    w_bar: np.ndarray
    n_uses: int

    def block(self, q: int) -> np.ndarray:
        n_rf = self.w.shape[0] // self.n_uses
        return self.w[q * n_rf : (q + 1) * n_rf]


# Redraws allowed per pilot use before a combiner draw is a hard error.
_MAX_REDRAWS = 100


def draw_combiner(cfg: SystemConfig, rng: np.random.Generator) -> PilotCombiner:
    """Draw Q sign combiners and their whitening factor.

    A use whose Gram W_q W_q^H fails Cholesky (possible when rows
    coincide up to sign, certain when n_rf > N) is redrawn up to
    ``_MAX_REDRAWS`` times before a hard error.
    """
    n, n_rf, q_uses = cfg.n_antennas, cfg.n_rf, cfg.n_uses
    blocks_w, blocks_d = [], []
    for _ in range(q_uses):
        for _ in range(_MAX_REDRAWS + 1):
            w_q = (2.0 * rng.integers(0, 2, (n_rf, n)) - 1.0) / np.sqrt(n)
            gram = w_q @ w_q.T
            try:
                d_q = np.linalg.cholesky(gram)
            except np.linalg.LinAlgError:
                continue
            # guard against numerically singular factors that slip through
            if np.min(np.diag(d_q)) <= 1e-8 * np.sqrt(np.max(np.diag(gram))):
                continue
            break
        else:
            raise np.linalg.LinAlgError(
                f"combiner redraw failed {_MAX_REDRAWS} times; n_rf={n_rf} may exceed n_antennas={n}"
            )
        blocks_w.append(w_q)
        blocks_d.append(d_q)
    w = np.vstack(blocks_w)
    d = np.zeros((q_uses * n_rf, q_uses * n_rf))
    for q in range(q_uses):
        d[q * n_rf : (q + 1) * n_rf, q * n_rf : (q + 1) * n_rf] = blocks_d[q]
    w_bar = solve_triangular(d, w, lower=True)
    return PilotCombiner(w=w, d=d, w_bar=w_bar, n_uses=q_uses)


@dataclass
class MeasurementOperator:
    """Whitened sensing matrix and its rotated form.

    ``phi`` is (M, G) with M = K*Q*n_rf and G = G_A*G_D.  ``u`` holds the
    left singular vectors (M x M); ``a = u^H phi`` is the rotated matrix
    whose elementwise squared magnitudes are cached for the
    message-passing recursion (``abs2_a_t`` is the transpose, stored
    contiguous for fast products).
    """

    phi: np.ndarray
    u: np.ndarray
    a: np.ndarray
    abs2_a: np.ndarray
    abs2_a_t: np.ndarray
    config: SystemConfig | None = None
    combiner: PilotCombiner | None = None
    dicts: DictionarySet | None = None


def operator_from_matrix(phi: np.ndarray, rotate: bool = False) -> MeasurementOperator:
    """Wrap a dense matrix as an operator; :func:`assemble_operator` builds on it.

    With ``rotate`` false the rotated system is the matrix itself
    (u = I); with true the usual SVD rotation is applied.
    """
    phi = np.asarray(phi, dtype=complex)
    if rotate:
        u, _, _ = np.linalg.svd(phi, full_matrices=False)
        a = u.conj().T @ phi
    else:
        u = np.eye(phi.shape[0], dtype=complex)
        a = phi
    abs2 = np.abs(a) ** 2
    return MeasurementOperator(phi=phi, u=u, a=a, abs2_a=abs2, abs2_a_t=np.ascontiguousarray(abs2.T))


def assemble_operator(cfg: SystemConfig, comb: PilotCombiner, dicts: DictionarySet) -> MeasurementOperator:
    """Build the whitened operator and its SVD rotation."""
    if dicts.config.n_subcarriers != cfg.n_subcarriers or dicts.config.n_antennas != cfg.n_antennas:
        raise ValueError("dictionary geometry does not match the config")
    if comb.w.shape[1] != cfg.n_antennas:
        raise ValueError("combiner width does not match n_antennas")
    blocks = [
        np.kron(dicts.delay_dict[k, :], comb.w_bar @ dicts.angular_dicts[k])
        for k in range(cfg.n_subcarriers)
    ]
    op = operator_from_matrix(np.vstack(blocks), rotate=True)
    op.config, op.combiner, op.dicts = cfg, comb, dicts
    return op


@dataclass
class Observation:
    """One simulated measurement of one channel."""

    y: np.ndarray                 # whitened stacked measurements, (M,)
    h: np.ndarray                 # the underlying channel (N, K)


def simulate_observation(
    cfg: SystemConfig,
    comb: PilotCombiner,
    chan: ChannelRealization,
    rng: np.random.Generator,
) -> Observation:
    """Combine, add receiver noise, and whiten one channel realization.

    Noise is drawn per use and antenna with variance ``cfg.noise_var``;
    the combined vector per tone is whitened by the block factor so its
    covariance is sigma^2 I exactly.
    """
    n, q_uses, k = cfg.n_antennas, cfg.n_uses, cfg.n_subcarriers
    h = np.asarray(chan.h, dtype=complex)
    sigma = np.sqrt(cfg.noise_var / 2.0)
    noise = sigma * (rng.standard_normal((q_uses, n, k)) + 1j * rng.standard_normal((q_uses, n, k)))
    rows = [comb.block(q) @ (h + noise[q]) for q in range(q_uses)]
    y_tone = solve_triangular(comb.d, np.vstack(rows), lower=True)   # (Q*n_rf, K)
    return Observation(y=y_tone.ravel(order="F"), h=h)


def observe_and_transform(
    op: MeasurementOperator, chan: ChannelRealization, rng: np.random.Generator
) -> Observation:
    """Simulate one observation against an assembled operator's config and combiner."""
    return simulate_observation(op.config, op.combiner, chan, rng)
