"""Pilot combining, noise whitening, and the per-tone sensing operator.

Each of Q pilot uses applies a random one-bit analog combiner W_q
(n_rf x N, entries +-1/sqrt(N)) to every tone.  Combined noise has
per-use covariance sigma^2 W_q W_q^H, so measurements are pre-whitened
with the block Cholesky factor D: after scaling by D^{-1} the noise is
white again and every estimator can assume sigma^2 I.

The whitened sensing operator Phi maps angular-delay coefficients to the
stacked measurement vector.  Its row block for tone k is
kron(d_k, C_k), with d_k = delay_dict[k, :] and C_k = W_bar Psi_k, which
matches the column-stacked coefficient ordering.  Both posteriors run on
the rotated system r = U^H y, A = U^H Phi, where U holds Phi's left
singular vectors.  Row d_k samples a complex exponential of frequency k
at G_D delays spaced evenly over one period, so d_k and d_k' are
orthogonal unless G_D divides k - k'.  With G_D >= K every pair of tones
is orthogonal, and Phi Phi^H is block-diagonal with blocks
||d_k||^2 C_k C_k^H.  Up to the order of its singular values, Phi's SVD
therefore splits into K small SVDs C_k = U_k S_k V_k^H, U = blkdiag(U_k),
and A keeps the per-tone form kron(d_k, U_k^H C_k).  The operator stores
only those factors, never Phi or A themselves.  It applies A, A^H, |A|^2
and their transposes as one delay GEMM plus one batched per-tone
product.  For the exact posterior it builds the lower triangle of the
Hermitian M x M Gram A diag(w) A^H, and reads only the lower triangle of
a Hermitian X for the diagonal of A^H X A, both block by block.  A
layout with G_D < K is rejected.  Operators are rebuilt from the config.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_triangular

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
    """Factors of the rotated sensing matrix A = U^H Phi, tone by tone.

    Phi is (M, G) with M = K*m, m = Q*n_rf, and G = G_A*G_D; its tone-k
    row block is kron(delay[k], C_k).  The rotation is
    U = blkdiag(u[0], ..., u[K-1]), where an assembled operator's
    ``u[k]`` are m x m unitaries, and the rotated matrix A = U^H Phi has
    tone-k row block kron(delay[k], a[k]) with a[k] = u[k]^H C_k.
    Nothing of size M x G is stored: :meth:`rotate`, :meth:`forward`,
    :meth:`adjoint`, :meth:`forward_abs2` and :meth:`adjoint_abs2` apply
    U^H, A, A^H, |A|^2 and (|A|^2)^T from the factors to a (., B) batch
    or one column of it.  :meth:`gram` and :meth:`diag_quad` are the
    two products of the exact posterior, A diag(w) A^H and
    diag(A^H X A), on Hermitian M x M matrices stored as their lower
    triangles: ``gram`` builds only the lower triangle, and ``diag_quad``
    reads only the lower triangle of X.  Both take the delay rows to be
    DFT rows, as the delay dictionary's are.  A dense matrix is the case
    K = 1 with one delay bin, delay = [[1]].
    """

    u: np.ndarray            # (K, m, m) per-tone left singular vectors
    a: np.ndarray            # (K, m, G_A) rotated tone blocks u[k]^H C_k
    a_h: np.ndarray          # (K, G_A, m) their conjugate transposes
    abs2_a: np.ndarray       # (K, m, G_A) |a|^2
    delay: np.ndarray        # (K, G_D) delay dictionary rows d_k
    abs2_delay: np.ndarray   # (K, G_D) |d_k|^2
    config: SystemConfig | None = None
    combiner: PilotCombiner | None = None
    dicts: DictionarySet | None = None

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, columns) of A: rotated measurements by coefficients."""
        k, m, g_a = self.a.shape
        return k * m, self.delay.shape[1] * g_a

    def rotate(self, y: np.ndarray) -> np.ndarray:
        """U^H y: whitened measurements into the rotated basis."""
        k, m = self.u.shape[:2]
        r = np.swapaxes(self.u, 1, 2).conj() @ y.reshape(k, m, -1)
        return r.reshape((-1,) + y.shape[1:])

    def forward(self, x: np.ndarray) -> np.ndarray:
        """A x: coefficients (G, .) to rotated measurements (M, .)."""
        return _synthesize(self.delay, self.a, x)

    def adjoint(self, s: np.ndarray) -> np.ndarray:
        """A^H s: rotated measurements (M, .) to coefficients (G, .)."""
        return _analyze(self.delay.conj(), self.a_h, s)

    def forward_abs2(self, t: np.ndarray) -> np.ndarray:
        """|A|^2 t, elementwise squared magnitudes of A applied to t."""
        return _synthesize(self.abs2_delay, self.abs2_a, t)

    def adjoint_abs2(self, t: np.ndarray) -> np.ndarray:
        """(|A|^2)^T t."""
        return _analyze(self.abs2_delay, np.swapaxes(self.abs2_a, 1, 2), t)

    @cached_property
    def _delay_shifts(self) -> np.ndarray:
        """(K, G_D) row products delay[l, d] conj(delay[i, d]) by shift l - i >= 0.

        Row k of ``delay`` samples exp(-j pi k z) at the G_D delay points, a
        DFT row, so the product of rows l and i depends only on l - i and
        equals delay[l - i] conj(delay[0]).  Built on first use.
        """
        return self.delay * self.delay[0].conj()

    def gram(self, w: np.ndarray) -> np.ndarray:
        """Lower triangle of A diag(w) A^H (M x M) for real weights w (G,).

        Block (l, i) with l >= i is a[l] diag(T[l - i]) a[i]^H, where
        T[l - i, alpha] = sum_d delay[l, d] w[d, alpha] conj(delay[i, d])
        mixes the delay bins of angle alpha.  Each block column is one
        GEMM written into a zeroed Fortran-ordered array, so the strict
        upper triangle is exactly zero and LAPACK can factor the result in
        place with ``lower=True``.  The Hermitian upper half is never
        formed.  Cost is M^2 G_A / 2, not M^2 G.
        """
        k, m, g_a = self.a.shape
        t = self._delay_shifts @ w.reshape(-1, g_a)                    # (K, G_A)
        out = np.zeros((k * m, k * m), dtype=complex, order="F")
        upper = np.triu_indices(m, 1)
        for i in range(k):
            cols = slice(i * m, (i + 1) * m)
            np.matmul((self.a[i:] * t[:k - i, None, :]).reshape(-1, g_a), self.a_h[i],
                      out=out[i * m:, cols])
            out[cols, cols][upper] = 0.0
        return out

    def diag_quad(self, x: np.ndarray) -> np.ndarray:
        """diag(A^H X A) (G,) for a Hermitian M x M X given by its lower triangle.

        Only the lower triangle of ``x`` is read; its strict upper triangle
        may hold anything.  Entry (d, alpha) is the sum over tone pairs
        (i, l) of conj(delay[i, d]) delay[l, d] Q[i, l, alpha], with
        Q[i, l, alpha] = a[i][:, alpha]^H X_il a[l][:, alpha].  A Hermitian
        X has Q[i, l] = conj(Q[l, i]), so each pair l > i is taken from the
        lower block column i as Q[l, i] = a[l]^H X_li a[i], one GEMM per
        column.  The K diagonal m x m blocks are copied and made Hermitian;
        ``x`` is not written.  Cost is M^2 G_A / 2.
        """
        k, m, g_a = self.a.shape
        a_c = self.a.conj()
        tone = np.arange(k)[:, None] * m + np.arange(m)
        blocks = np.tril(x[tone[:, :, None], tone[:, None, :]])         # (K, m, m)
        blocks += np.swapaxes(np.tril(blocks, -1), 1, 2).conj()
        # q[s] sums Q[l, l - s] over the tone pairs at shift s = l - i
        q = np.zeros((k, g_a), dtype=complex)
        q[0] = np.einsum("kja,kja->a", a_c, blocks @ self.a)
        for i in range(k - 1):
            y = (x[(i + 1) * m:, i * m:(i + 1) * m] @ self.a[i]).reshape(k - 1 - i, m, g_a)
            y *= a_c[i + 1:]
            q[1:k - i] += y.sum(axis=1)
        q[1:] *= 2.0
        return (self._delay_shifts.conj().T @ q).real.reshape(-1)


def _synthesize(delay: np.ndarray, blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Apply the rows kron(delay[k], blocks[k]), k = 0..K-1, to x (G, .)."""
    k, n_delay = delay.shape
    t = delay @ x.reshape(n_delay, -1)                       # (K, G_A * B)
    out = blocks @ t.reshape(k, blocks.shape[2], -1)         # (K, m, B)
    return out.reshape((-1,) + x.shape[1:])


def _analyze(delay: np.ndarray, blocks_t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Transpose of :func:`_synthesize`, given blocks_t[k] = blocks[k]^T."""
    k = delay.shape[0]
    z = blocks_t @ s.reshape(k, blocks_t.shape[2], -1)       # (K, G_A, B)
    out = delay.T @ z.reshape(k, -1)                         # (G_D, G_A * B)
    return out.reshape((-1,) + s.shape[1:])


def _tone_operator(blocks: np.ndarray, delay: np.ndarray, u: np.ndarray) -> MeasurementOperator:
    """Operator whose tone-k rows are kron(delay[k], blocks[k]), rotated tone by tone by u[k]."""
    a = np.swapaxes(u, 1, 2).conj() @ blocks
    return MeasurementOperator(
        u=u, a=a,
        a_h=np.ascontiguousarray(np.swapaxes(a, 1, 2).conj()),
        abs2_a=np.abs(a) ** 2,
        delay=delay,
        abs2_delay=np.abs(delay) ** 2,
    )


def operator_from_matrix(phi: np.ndarray, rotate: bool = False) -> MeasurementOperator:
    """Wrap a dense matrix as an operator with one tone and one delay bin.

    With ``rotate`` false the rotation is the identity (A = phi); with
    true U holds the left singular vectors of phi's thin SVD.
    """
    phi = np.asarray(phi, dtype=complex)
    u = np.linalg.svd(phi, full_matrices=False)[0] if rotate else np.eye(phi.shape[0], dtype=complex)
    return _tone_operator(phi[None], np.ones((1, 1), dtype=complex), u[None])


def assemble_operator(cfg: SystemConfig, comb: PilotCombiner, dicts: DictionarySet) -> MeasurementOperator:
    """Build the whitened operator and its per-tone SVD rotation.

    Raises ``ValueError`` when ``grid_delay < n_subcarriers``: the delay
    rows are then not orthogonal and the per-tone SVD is not Phi's.
    """
    if dicts.config.n_subcarriers != cfg.n_subcarriers or dicts.config.n_antennas != cfg.n_antennas:
        raise ValueError("dictionary geometry does not match the config")
    if comb.w.shape[1] != cfg.n_antennas:
        raise ValueError("combiner width does not match n_antennas")
    if cfg.grid_delay < cfg.n_subcarriers:
        raise ValueError(
            f"grid_delay={cfg.grid_delay} is below n_subcarriers={cfg.n_subcarriers}; the per-tone "
            "rotation needs orthogonal delay rows, so grid_delay must be at least n_subcarriers"
        )
    tones = np.stack([comb.w_bar @ dicts.angular_dicts[k] for k in range(cfg.n_subcarriers)])
    # full U_k: square even when m > G_A, so the rotated system keeps all M rows
    op = _tone_operator(tones, dicts.delay_dict, np.linalg.svd(tones, full_matrices=True)[0])
    op.config, op.combiner, op.dicts = cfg, comb, dicts
    return op


def observe_and_transform(op: MeasurementOperator, h: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The whitened stacked measurements y (M,) of channel matrix ``h`` (N x K) through ``op``'s combiner.

    Noise is drawn per use and antenna with variance ``noise_var`` of
    ``op``'s config; the combined vector per tone is whitened by the
    block factor so its covariance is sigma^2 I exactly.
    """
    cfg, comb = op.config, op.combiner
    n, q_uses, k = cfg.n_antennas, cfg.n_uses, cfg.n_subcarriers
    sigma = np.sqrt(cfg.noise_var / 2.0)
    noise = sigma * (rng.standard_normal((q_uses, n, k)) + 1j * rng.standard_normal((q_uses, n, k)))
    rows = [comb.block(q) @ (h + noise[q]) for q in range(q_uses)]
    y_tone = solve_triangular(comb.d, np.vstack(rows), lower=True)   # (Q*n_rf, K)
    return y_tone.ravel(order="F")
