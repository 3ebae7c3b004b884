"""Sparse Bayesian estimators for the angular-delay coefficients.

Under the Gaussian prior x ~ CN(0, diag(gamma)) the posterior given
y = Phi x + n is Gaussian; iterating posterior moments (E-step) and a
per-coefficient variance update gamma = |mu|^2 + tau (M-step) is the
classic evidence-maximization recursion.  Each E-step has one
implementation, shared by inference and training:

* ``exact_e_step`` solves the M x M whitened system directly and is the
  reference posterior at any operator.
* ``amp_e_step`` is the low-cost message-passing recursion on the
  SVD-rotated system (r, A).  Its five update lines are kept exactly in
  their published order and form, including the use of gamma in the
  final shrinkage denominators.

Both take one vector or a (., B) batch and also return the cache their
backward pass (``_exact_backward``, ``_amp_backward``) reads.  Both fail
one way: non-finite values, a column whose norm runs away, or a failed
Cholesky raise :class:`DivergenceError` with the iteration index.

A learned convolutional variance update can replace the classic M-step
through :class:`EstimatorSpec`; see the companion network module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .config import SystemConfig
from .measurement import MeasurementOperator

E_STEPS = ("exact", "amp")
M_STEPS = ("classic", "learned")

# Estimate columns whose norm exceeds this many times the norm of their
# data column are treated as divergence even while still finite.
_MAGNITUDE_GUARD = 1e6


class DivergenceError(RuntimeError):
    """Non-finite or runaway values, or a failed posterior solve, in an estimator or training pass."""

    def __init__(self, message: str, iteration: int, trace: list | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.trace = trace if trace is not None else []


@dataclass
class SblState:
    """Mutable per-iteration state of an estimator run."""

    iteration: int
    mu: np.ndarray      # posterior mean, (G,) or (G, batch)
    tau_x: np.ndarray   # posterior marginal variances, same shape
    gamma: np.ndarray   # prior variances, same shape
    s: np.ndarray       # measurement-domain residual message, (M,) or (M, batch)


def init_state(cfg: SystemConfig) -> SblState:
    """Flat unit prior, zero mean, zero residual; tau starts at gamma."""
    g, m = cfg.grid_total, cfg.n_measurements
    gamma = np.ones(g)
    return SblState(
        iteration=0,
        mu=np.zeros(g, dtype=complex),
        tau_x=gamma.copy(),
        gamma=gamma,
        s=np.zeros(m, dtype=complex),
    )


def _check_step(it: int, data: np.ndarray, **arrays) -> None:
    """Raise :class:`DivergenceError` if any of ``arrays`` is non-finite
    or a column of ``arrays["mu"]`` runs away from its column of ``data``."""
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise DivergenceError(f"non-finite {name} at iteration {it}", iteration=it)
    mu = arrays["mu"]
    limit = _MAGNITUDE_GUARD * np.maximum(np.linalg.norm(data, axis=0), 1e-300)
    blown = np.linalg.norm(mu, axis=0) > limit
    if np.any(blown):
        where = f" in columns {np.flatnonzero(blown).tolist()}" if mu.ndim == 2 else ""
        raise DivergenceError(f"estimate norm blew up at iteration {it}{where}", iteration=it)


def exact_e_step(op: MeasurementOperator, y: np.ndarray, sigma2: float, state: SblState):
    """Posterior mean and marginal variances by direct solve.

    With C = diag(gamma) and S = Phi C Phi^H + sigma^2 I:
    mu = C Phi^H S^{-1} y and tau_i = gamma_i (1 - gamma_i d_i) with
    d = diag(Phi^H S^{-1} Phi).  Cost is one Cholesky of the M x M
    matrix S per column of ``y``; no explicit inverse is formed.
    Returns (mu, tau, cache for :func:`_exact_backward`).
    """
    it = state.iteration + 1
    phi = op.phi
    m, g = phi.shape
    ys, gammas = y.reshape(m, -1), state.gamma.reshape(g, -1)
    u = np.empty(gammas.shape, dtype=complex)
    d = np.empty(gammas.shape)
    lows = []
    for j in range(ys.shape[1]):
        s_mat = (phi * gammas[:, j]) @ phi.conj().T
        s_mat[np.diag_indices(m)] += sigma2
        try:
            low, _ = cho_factor(s_mat, lower=True)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise DivergenceError(f"posterior solve failed at iteration {it}: {exc}", iteration=it) from exc
        u[:, j] = phi.conj().T @ cho_solve((low, True), ys[:, j])
        b = solve_triangular(low, phi, lower=True)
        d[:, j] = np.einsum("mg,mg->g", b.conj(), b, optimize=True).real
        lows.append(low)
    gamma = state.gamma
    u, d = u.reshape(gamma.shape), d.reshape(gamma.shape)
    mu = gamma * u
    tau = np.maximum(gamma * (1.0 - gamma * d), 0.0)
    _check_step(it, y, mu=mu, tau_x=tau)
    return mu, tau, {"gamma": gamma, "u": u, "d": d, "lows": lows}


def _exact_backward(op: MeasurementOperator, cache, g_mu, g_tau, end_to_end: bool) -> np.ndarray:
    """d loss / d gamma through one exact E-step.

    Per column, B = L^-1 Phi gives Phi^H S^-1 Phi = B^H B.  ``cho_factor``
    leaves junk above the diagonal of L, so the solve must be triangular.
    """
    u, d, gamma = cache["u"], cache["d"], cache["gamma"]
    g_gamma = np.real(np.conj(g_mu) * u) + g_tau * (1.0 - 2.0 * gamma * d)
    if not end_to_end:
        return g_gamma
    g = len(u)
    us, a_vecs, ws = (x.reshape(g, -1) for x in (u, gamma * g_mu, g_tau * gamma * gamma))
    extra = np.empty(us.shape)
    for j, low in enumerate(cache["lows"]):
        b = solve_triangular(low, op.phi, lower=True)
        ta = b.conj().T @ (b @ a_vecs[:, j])
        k_w = (b * ws[:, j]) @ b.conj().T
        extra[:, j] = np.real(np.sum(np.conj(b) * (k_w @ b), axis=0)) - np.real(us[:, j] * np.conj(ta))
    return g_gamma + extra.reshape(g_gamma.shape)


def amp_e_step(op: MeasurementOperator, r: np.ndarray, sigma2: float, state: SblState):
    """One message-passing posterior update on the rotated system.

    The five lines, in order, with elementwise products and divisions:

        tau_p = |A|^2 tau_x
        p     = A mu - tau_p * s
        tau_s = 1 / (tau_p + sigma^2)
        s'    = tau_s * (r - p)
        tau_q = 1 / (|A^H|^2 tau_s)
        q     = mu + tau_q * (A^H s')
        mu'   = q / (1 + tau_q * gamma)
        tau'  = tau_q / (1 + tau_q * gamma)

    Works on single vectors or on (.., batch) stacks.  Returns
    (mu', tau', s', cache for :func:`_amp_backward`).
    """
    a, abs2_a, abs2_a_t = op.a, op.abs2_a, op.abs2_a_t
    mu, tau_x, gamma, s = state.mu, state.tau_x, state.gamma, state.s

    # non-finite intermediates become DivergenceError below, so let the
    # arithmetic produce them quietly instead of warning first
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau_p = abs2_a @ tau_x
        p = a @ mu - tau_p * s
        tau_s = 1.0 / (tau_p + sigma2)
        s_new = tau_s * (r - p)
        tau_q = 1.0 / (abs2_a_t @ tau_s)
        # A^H s' as conj(A^T conj(s')): a.conj() would copy all of A per call
        v = (a.T @ s_new.conj()).conj()
        q = mu + tau_q * v
        denom = 1.0 + tau_q * gamma
        mu_new = q / denom
        tau_new = tau_q / denom

    _check_step(state.iteration + 1, r, p=p, s=s_new, q=q, mu=mu_new, tau_x=tau_new)
    cache = {"r": r, "s0": s, "gamma": gamma, "p": p, "tau_p": tau_p, "tau_s": tau_s,
             "tau_q": tau_q, "v": v, "q": q, "denom": denom}
    return mu_new, tau_new, s_new, cache


def _amp_backward(op: MeasurementOperator, cache, g_mu1, g_tau1, g_s1, end_to_end: bool):
    """Gradients of one AMP E-step; returns (g_mu0, g_tau0, g_s0, g_gamma).

    Complex gradients follow the d/dRe + j d/dIm convention.
    """
    tau_q, q, gamma = cache["tau_q"], cache["q"], cache["gamma"]
    c = 1.0 / cache["denom"]
    c2 = c * c
    rmu = np.real(np.conj(g_mu1) * q)
    g_gamma = -tau_q * c2 * (rmu + tau_q * g_tau1)
    if not end_to_end:
        return None, None, None, g_gamma
    a = op.a
    g_q = g_mu1 * c
    g_tau_q = c2 * (g_tau1 - gamma * rmu) + np.real(np.conj(g_q) * cache["v"])
    g_mu0 = g_q.copy()
    g_s1_tot = g_s1 + a @ (g_q * tau_q)
    g_w = -g_tau_q * tau_q * tau_q
    g_tau_s = op.abs2_a @ g_w
    g_tau_s += np.real(np.conj(g_s1_tot) * (cache["r"] - cache["p"]))
    g_p = -cache["tau_s"] * g_s1_tot
    g_tau_p = -g_tau_s * cache["tau_s"] ** 2
    g_mu0 += (a.T @ g_p.conj()).conj()  # A^H g_p without copying A, as in the forward
    g_tau_p -= np.real(np.conj(g_p) * cache["s0"])
    g_s0 = -cache["tau_p"] * g_p
    g_tau0 = op.abs2_a_t @ g_tau_p
    return g_mu0, g_tau0, g_s0, g_gamma


def classic_m_step(mu: np.ndarray, tau_x: np.ndarray) -> np.ndarray:
    """Per-coefficient variance update gamma = |mu|^2 + tau."""
    return np.abs(mu) ** 2 + tau_x


@dataclass
class EstimatorSpec:
    """Which E-step, which M-step, and how many iterations.

    A learned M-step needs a network with one weight stage per
    iteration except the last (the final variance update would never be
    consumed, since the estimate is the last posterior mean).
    """

    e_step: str = "exact"
    m_step: str = "classic"
    n_iterations: int = 30
    net: object = None

    def __post_init__(self):
        if self.e_step not in E_STEPS:
            raise ValueError(f"e_step must be one of {E_STEPS}, got {self.e_step!r}")
        if self.m_step not in M_STEPS:
            raise ValueError(f"m_step must be one of {M_STEPS}, got {self.m_step!r}")
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be non-negative")
        if self.m_step == "learned":
            if self.net is None:
                raise ValueError("learned m_step requires a trained network")
            expected = max(self.n_iterations - 1, 0)
            if self.net.n_stages != expected:
                raise ValueError(
                    f"network has {self.net.n_stages} stages, depth {self.n_iterations} needs {expected}"
                )


def run_estimator(
    spec: EstimatorSpec,
    op: MeasurementOperator,
    y: np.ndarray,
    sigma2: float,
    h_true: np.ndarray | None = None,
):
    """Run the configured estimator; returns (x_hat, trace).

    ``y`` is the whitened measurement vector; the rotated form for the
    message-passing E-step is computed internally.  The trace has one
    dict per iteration with the running estimate quality (NMSE in dB if
    ``h_true`` is given, else NaN) and the l1 norm of gamma.  The
    variance update runs between iterations only; the returned estimate
    is the last posterior mean.  A divergence error propagates with the
    partial trace attached.
    """
    from .mstep import build_features, mstep_forward  # local import, cycle-free at call time

    cfg = op.config
    if cfg is None:
        raise ValueError("run_estimator needs an operator assembled from a config")
    state = init_state(cfg)
    r = op.u.conj().T @ y if spec.e_step == "amp" else None
    trace: list[dict] = []
    for it in range(1, spec.n_iterations + 1):
        try:
            if spec.e_step == "amp":
                state.mu, state.tau_x, state.s, _ = amp_e_step(op, r, sigma2, state)
            else:
                state.mu, state.tau_x, _ = exact_e_step(op, y, sigma2, state)
        except DivergenceError as err:
            err.trace = trace
            raise
        state.iteration = it
        if it < spec.n_iterations:
            if spec.m_step == "classic":
                state.gamma = classic_m_step(state.mu, state.tau_x)
            else:
                feats = build_features(state.mu, state.tau_x, cfg, mode=spec.net.feature_mode)
                state.gamma = mstep_forward(spec.net, it, feats, state.gamma)
        nmse_db = np.nan
        if h_true is not None and op.dicts is not None:
            from .dictionaries import reconstruct_channel

            h_hat = reconstruct_channel(op.dicts, state.mu)
            err_power = np.linalg.norm(h_hat - h_true) ** 2
            nmse_db = 10.0 * np.log10(max(err_power / np.linalg.norm(h_true) ** 2, 1e-12))
        trace.append(
            {"iteration": it, "nmse_db": float(nmse_db), "gamma_l1": float(np.sum(np.abs(state.gamma)))}
        )
    return state.mu, trace


def write_trace_csv(trace: list[dict], path, cfg: SystemConfig | None = None) -> None:
    """Per-iteration diagnostics as CSV (iteration, nmse_db, gamma_l1)."""
    import csv

    with open(path, "w", newline="") as fh:
        if cfg is not None:
            fh.write(f"# config_hash={cfg.config_hash()} seed={cfg.rng_seed}\n")
        writer = csv.writer(fh)
        writer.writerow(["iteration", "nmse_db", "gamma_l1"])
        for row in trace:
            writer.writerow([row["iteration"], repr(row["nmse_db"]), repr(row["gamma_l1"])])
