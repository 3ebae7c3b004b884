"""Sparse Bayesian estimators for the angular-delay coefficients.

Under the Gaussian prior x ~ CN(0, diag(gamma)) the posterior given
y = Phi x + n is Gaussian; iterating posterior moments (E-step) and a
per-coefficient variance update gamma = |mu|^2 + tau (M-step) is the
classic evidence-maximization recursion.  Each E-step has one
implementation, shared by inference and training:

* ``exact_e_step`` factors the M x M covariance S = A Gamma A^H +
  sigma^2 I of the SVD-rotated system (r, A), built block by block from
  the operator's per-tone factors, and is the reference posterior at any
  operator.  The rotation has orthonormal columns, so this is exactly
  the posterior of the whitened system (y, Phi).
* ``amp_e_step`` is the low-cost message-passing recursion on the same
  rotated system, with every product by A, A^H, |A|^2 or its transpose
  taken from the operator's per-tone factors.  Its final shrinkage
  divides by 1 + tau_q * gamma, which treats gamma as a prior
  *precision*.  Everywhere else here (``classic_m_step``,
  ``exact_e_step``, ``init_state``) and in the learned refiner gamma is
  a prior *variance*, whose shrinkage would be gamma * q / (gamma + tau_q).
  The mismatch is a known defect, kept as is for now: fixing it moves
  every stored AMP score.

Both take a (., B) batch of columns and also return the cache their
backward pass (``_exact_backward``, ``_amp_backward``) reads.  Both fail
one way: non-finite values, a column whose norm runs away, or a failed
Cholesky raise :class:`DivergenceError` with the iteration index and the
failing columns.

One iteration, the E-step and then the variance update, is :func:`step`
on (M, B) data; one measurement vector is the batch ``y[:, None]``.
``run_estimator`` and the training forward both loop over it; only the
latter keeps the iterations' backward caches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, get_blas_funcs, get_lapack_funcs

from . import mstep
from .dictionaries import reconstruct_channel
from .measurement import MeasurementOperator

E_STEPS = ("exact", "amp")
M_STEPS = ("classic", "learned")

# Estimate columns whose norm exceeds this many times the norm of their
# data column are treated as divergence even while still finite.
_MAGNITUDE_GUARD = 1e6


class DivergenceError(RuntimeError):
    """Non-finite or runaway values, or a failed posterior solve, in an estimator or training pass."""

    def __init__(self, message: str, iteration: int, trace: list | None = None,
                 columns: list[int] | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.trace = trace if trace is not None else []
        # failing batch columns; [] for a failure outside one estimator step
        self.columns = columns if columns is not None else []


@dataclass
class SblState:
    """Mutable per-iteration state of an estimator run."""

    iteration: int
    mu: np.ndarray      # posterior mean, (G, batch)
    tau_x: np.ndarray   # posterior marginal variances, same shape
    gamma: np.ndarray   # prior variances, same shape
    s: np.ndarray       # measurement-domain residual message, (M, batch)


def init_state(gamma: np.ndarray, n_meas: int) -> SblState:
    """Start state under the prior ``gamma``, (G, B): zero mean, tau at
    gamma, and a zero (n_meas, B) residual."""
    return SblState(
        iteration=0,
        mu=np.zeros(gamma.shape, dtype=complex),
        tau_x=gamma.copy(),
        gamma=gamma,
        s=np.zeros((n_meas, gamma.shape[1]), dtype=complex),
    )


def _check_step(it: int, data: np.ndarray, **arrays) -> None:
    """Raise :class:`DivergenceError` if any of ``arrays`` is non-finite
    or a column of ``arrays["mu"]`` runs away from its column of ``data``.

    A sum is finite only if every entry is, so each array is first summed
    in one pass; the per-column scan that names the failing columns runs
    only when a sum is not finite, which finite entries whose sum
    overflows can also cause.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for name, arr in arrays.items():
            if np.isfinite(arr.sum()):
                continue
            bad = ~np.all(np.isfinite(arr), axis=0)
            if np.any(bad):
                columns, where = _columns(np.flatnonzero(bad))
                raise DivergenceError(f"non-finite {name} at iteration {it}{where}", iteration=it,
                                      columns=columns)
    mu = arrays["mu"]
    limit = _MAGNITUDE_GUARD * np.maximum(np.linalg.norm(data, axis=0), 1e-300)
    blown = np.linalg.norm(mu, axis=0) > limit
    if np.any(blown):
        columns, where = _columns(np.flatnonzero(blown))
        raise DivergenceError(f"estimate norm blew up at iteration {it}{where}", iteration=it, columns=columns)


def _columns(failed) -> tuple[list[int], str]:
    """The failing column indices and the message suffix naming them."""
    columns = [int(j) for j in failed]
    return columns, f" in columns {columns}"


def exact_e_step(op: MeasurementOperator, r: np.ndarray, sigma2: float, state: SblState):
    """Posterior mean and marginal variances by direct solve, in the rotated basis.

    With C = diag(gamma) and S = A C A^H + sigma^2 I on the rotated data
    r = U^H y: mu = C A^H S^{-1} r and tau_i = gamma_i (1 - gamma_i d_i)
    with d = diag(A^H S^{-1} A).  Because Phi = U A with orthonormal
    columns in U, this is the posterior of y = Phi x + n exactly, for a
    thin U too.  S and S^{-1} are Hermitian, and only their lower
    triangles are built, factored and read: :meth:`~MeasurementOperator.gram`
    writes S's lower triangle into a Fortran-ordered buffer, the Cholesky
    factor and :func:`_cho_inverse` overwrite that buffer in place, and
    :meth:`~MeasurementOperator.diag_quad` reads the lower triangle of
    S^{-1}.  No upper half is mirrored.  Per column of ``r`` and iteration
    the cost is about M^2 G_A + M^3: M^2 G_A for S and for d, M^3 for the
    Cholesky factor of S and its explicit inverse.  No M x G matrix is
    formed.  Returns (mu, tau, cache for :func:`_exact_backward`); the
    cache holds gamma and sigma^2 but no S^{-1}, which the backward
    rebuilds per column (an M x M matrix per column would be 4.2 MB at
    the default size).
    """
    it = state.iteration + 1
    gamma = state.gamma
    u = np.empty(gamma.shape, dtype=complex)
    d = np.empty(gamma.shape)
    for j in range(r.shape[1]):
        try:
            factor = _cho_s(op, gamma[:, j], sigma2)
            # solve before potri overwrites the factor; cho_factor checked finiteness
            solved = cho_solve(factor, r[:, j], check_finite=False)
            s_inv = _cho_inverse(factor[0])
        except (np.linalg.LinAlgError, ValueError) as exc:
            columns, where = _columns([j])
            raise DivergenceError(f"posterior solve failed at iteration {it}{where}: {exc}",
                                  iteration=it, columns=columns) from exc
        u[:, j] = op.adjoint(solved)
        d[:, j] = op.diag_quad(s_inv)
    mu = gamma * u
    tau = np.maximum(gamma * (1.0 - gamma * d), 0.0)
    _check_step(it, r, mu=mu, tau_x=tau)
    return mu, tau, {"gamma": gamma, "sigma2": sigma2, "u": u, "d": d}


def _cho_s(op: MeasurementOperator, gamma: np.ndarray, sigma2: float):
    """Lower Cholesky factor of S = A diag(gamma) A^H + sigma^2 I, as ``cho_factor`` returns it.

    ``gram`` writes S's lower triangle into a Fortran-ordered buffer of
    its own, which the factor overwrites in place.
    """
    s_mat = op.gram(gamma)
    s_mat[np.diag_indices(len(s_mat))] += sigma2
    return cho_factor(s_mat, lower=True, overwrite_a=True)


def _cho_inverse(low: np.ndarray) -> np.ndarray:
    """Lower triangle of S^{-1} from the lower Cholesky factor of S.

    LAPACK's potri fills only the lower triangle and leaves the strict
    upper one as it found it; no mirror is built.  A Fortran-ordered
    ``low``, as ``cho_factor`` returns for a Fortran-ordered S, is
    overwritten in place.  Cost is about M^3.
    """
    potri, = get_lapack_funcs(("potri",), (low,))
    inv, info = potri(low, lower=True, overwrite_c=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"potri failed with info {info}")
    return inv


def _hermitian(low: np.ndarray) -> np.ndarray:
    """The Hermitian matrix whose lower triangle is ``low``'s.

    The strict upper triangle of ``low`` must be zero, as ``gram`` leaves
    it, so that adding the conjugate transpose fills it.
    """
    full = low.conj().T.copy()
    full += low
    diagonal = np.diag_indices(len(low))
    full[diagonal] = low[diagonal]
    return full


def _exact_backward(op: MeasurementOperator, cache, g_mu, g_tau) -> np.ndarray:
    """d loss / d gamma through one exact E-step.

    Per column, with K = A^H S^-1 A: the gradient reaches gamma through
    K gamma g_mu (``ta`` = A^H S^-1 A (gamma g_mu)) and through
    d = diag(K), whose derivative in direction w is
    diag(A^H S^-1 (A diag(w) A^H) S^-1 A).  Both use S^-1 and the
    operator's block products, never an M x G matrix.  S^-1 is rebuilt
    per column from the cached gamma and sigma^2 by the forward's own
    Gram, Cholesky and potri calls, so it is the forward's bit for bit,
    at about M^2 G_A + M^3 more per column; one column's is alive at a
    time.  It is a lower triangle, which BLAS hemv and hemm read as the
    Hermitian matrix it stands for; only the Gram is completed, once per
    column, to be their general operand.  A column whose g_tau weights
    w = g_tau gamma^2 are all zero, as every column's are at the last
    iteration, skips the d term, which is zero there: its Gram and its
    two M x M x M products.
    """
    u, d, gamma = cache["u"], cache["d"], cache["gamma"]
    g_gamma = np.real(np.conj(g_mu) * u) + g_tau * (1.0 - 2.0 * gamma * d)
    a_vecs, ws = gamma * g_mu, g_tau * gamma * gamma
    extra = np.empty(u.shape)
    for j in range(u.shape[1]):
        s_inv = _cho_inverse(_cho_s(op, gamma[:, j], cache["sigma2"])[0])
        hemv, hemm = get_blas_funcs(("hemv", "hemm"), (s_inv,))
        ta = op.adjoint(hemv(1.0, s_inv, op.forward(a_vecs[:, j]), lower=True))
        extra[:, j] = -np.real(u[:, j] * np.conj(ta))
        if np.any(ws[:, j]):
            s_gram = hemm(1.0, s_inv, _hermitian(op.gram(ws[:, j])), lower=True)
            k_w = hemm(1.0, s_inv, s_gram, side=1, lower=True)
            extra[:, j] += op.diag_quad(k_w)
    return g_gamma + extra


def amp_e_step(op: MeasurementOperator, r: np.ndarray, sigma2: float, state: SblState):
    """One message-passing posterior update on the rotated system.

    The eight lines, in order, with elementwise products and divisions:

        tau_p = |A|^2 tau_x
        p     = A mu - tau_p * s
        tau_s = 1 / (tau_p + sigma^2)
        s'    = tau_s * (r - p)
        tau_q = 1 / (|A^H|^2 tau_s)
        q     = mu + tau_q * (A^H s')
        mu'   = q / (1 + tau_q * gamma)
        tau'  = tau_q / (1 + tau_q * gamma)

    The last two take gamma as a precision; see the module docstring.

    Works on (., B) batches of columns.  The four products
    by A, A^H, |A|^2 and (|A|^2)^T cost about 20 K G_A (G_D + m) real
    FLOPs per column (m = M / K), the elementwise lines O(M + G).
    Returns (mu', tau', s', cache for :func:`_amp_backward`).
    """
    mu, tau_x, gamma, s = state.mu, state.tau_x, state.gamma, state.s

    # non-finite intermediates become DivergenceError below, so let the
    # arithmetic produce them quietly instead of warning first
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau_p = op.forward_abs2(tau_x)
        p = op.forward(mu) - tau_p * s
        tau_s = 1.0 / (tau_p + sigma2)
        s_new = tau_s * (r - p)
        tau_q = 1.0 / op.adjoint_abs2(tau_s)
        v = op.adjoint(s_new)
        q = mu + tau_q * v
        denom = 1.0 + tau_q * gamma
        mu_new = q / denom
        tau_new = tau_q / denom

    _check_step(state.iteration + 1, r, p=p, s=s_new, q=q, mu=mu_new, tau_x=tau_new)
    cache = {"r": r, "s0": s, "gamma": gamma, "p": p, "tau_p": tau_p, "tau_s": tau_s,
             "tau_q": tau_q, "v": v, "q": q, "denom": denom}
    return mu_new, tau_new, s_new, cache


def _amp_backward(op: MeasurementOperator, cache, g_mu1, g_tau1, g_s1):
    """Gradients of one AMP E-step; returns (g_mu0, g_tau0, g_s0, g_gamma).

    Complex gradients follow the d/dRe + j d/dIm convention.  The
    G-sized work is done in place in a few buffers, each freed as soon as
    it is read for the last time, in the same operation order as the
    plain expressions noted beside it, so the results are the same bits.
    The incoming gradients and the cache are not written to.
    """
    tau_q, q, gamma = cache["tau_q"], cache["q"], cache["gamma"]
    c = 1.0 / cache["denom"]
    c2 = c * c
    prod = np.conj(g_mu1)
    prod *= q
    rmu = prod.real                                     # Re(conj(g_mu1) q)
    g_gamma = tau_q * c2
    np.negative(g_gamma, out=g_gamma)
    work = tau_q * g_tau1
    work += rmu
    g_gamma *= work                                     # -tau_q c2 (rmu + tau_q g_tau1)
    np.multiply(gamma, rmu, out=work)
    np.subtract(g_tau1, work, out=work)
    work *= c2
    del c2
    g_q = g_mu1 * c
    del c
    np.conjugate(g_q, out=prod)
    prod *= cache["v"]
    g_tau_q = work
    g_tau_q += prod.real                                # c2 (g_tau1 - gamma rmu) + Re(conj(g_q) v)
    np.multiply(g_q, tau_q, out=prod)
    g_s1_tot = g_s1 + op.forward(prod)
    del prod
    g_w = g_tau_q
    np.negative(g_w, out=g_w)
    g_w *= tau_q
    g_w *= tau_q                                        # -g_tau_q tau_q tau_q
    g_tau_s = op.forward_abs2(g_w)
    del g_w, g_tau_q, work
    g_tau_s += np.real(np.conj(g_s1_tot) * (cache["r"] - cache["p"]))
    g_p = -cache["tau_s"] * g_s1_tot
    g_tau_p = -g_tau_s * cache["tau_s"] ** 2
    g_mu0 = g_q
    g_mu0 += op.adjoint(g_p)
    g_tau_p -= np.real(np.conj(g_p) * cache["s0"])
    g_s0 = -cache["tau_p"] * g_p
    g_tau0 = op.adjoint_abs2(g_tau_p)
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


def step(spec: EstimatorSpec, op: MeasurementOperator, r: np.ndarray, sigma2: float,
         state: SblState) -> dict:
    """Advance ``state`` by one unfolded iteration on ``r``, (M, B); return its backward cache.

    The E-step runs first, then, except on the last iteration, the
    variance update.  The cache holds ``"e_step"``, ``"it"`` (1-based)
    and ``"e"``, the E-step's cache; a learned update adds ``"mu"``, its
    features' posterior mean, and ``"stage"``, the refiner's cache.
    Dropping the cache frees the iteration's intermediates.
    """
    it = state.iteration + 1
    if spec.e_step == "amp":
        state.mu, state.tau_x, state.s, e_cache = amp_e_step(op, r, sigma2, state)
    else:
        state.mu, state.tau_x, e_cache = exact_e_step(op, r, sigma2, state)
    state.iteration = it
    cache = {"e_step": spec.e_step, "e": e_cache, "it": it}
    if it < spec.n_iterations:
        if spec.m_step == "classic":
            state.gamma = classic_m_step(state.mu, state.tau_x)
        else:
            # through the module attribute, so that a wrapper set on it sees every call
            state.gamma, cache["stage"] = mstep.mstep_forward(
                spec.net, it, state.mu, state.tau_x, state.gamma, op.config.grid_angular, op.config.grid_delay)
            cache["mu"] = state.mu
    return cache


def start_state(op: MeasurementOperator, y: np.ndarray) -> tuple[np.ndarray, SblState]:
    """The rotated data ``op.rotate(y)`` and the flat-prior start state, for y (M, B).

    Raises ``ValueError`` for an operator assembled without a config, or
    a ``y`` that is not an (M, B) batch; one vector is the batch ``y[:, None]``.
    """
    if op.config is None:
        raise ValueError("the estimator needs an operator assembled from a config")
    m, g = op.shape
    if y.ndim != 2 or y.shape[0] != m:
        raise ValueError(f"y must be an (M, B) = ({m}, B) batch, got shape {y.shape}; "
                         f"pass one measurement vector as y[:, None]")
    return op.rotate(y), init_state(np.ones((g, y.shape[1])), m)


def run_estimator(
    spec: EstimatorSpec,
    op: MeasurementOperator,
    y: np.ndarray,
    sigma2: float,
    h_true: np.ndarray | None = None,
):
    """Run the configured estimator on y (M, B); returns (x_hat, trace).

    ``y`` is whitened; ``x_hat``, (G, B), is the last posterior mean.
    Each iteration is one :func:`step`, whose cache is dropped.  The
    trace has one dict per iteration: the NMSE in dB against ``h_true``,
    (N, K, B) (NaN without it), and the l1 norm of gamma, both over the
    whole batch.  A divergence error carries the partial trace.
    """
    r, state = start_state(op, y)
    trace: list[dict] = []
    for it in range(1, spec.n_iterations + 1):
        try:
            step(spec, op, r, sigma2, state)
        except DivergenceError as err:
            err.trace = trace
            raise
        nmse_db = np.nan
        if h_true is not None and op.dicts is not None:
            h_hat = reconstruct_channel(op.dicts, state.mu)
            err_power = np.linalg.norm(h_hat - h_true) ** 2
            nmse_db = 10.0 * np.log10(max(err_power / np.linalg.norm(h_true) ** 2, 1e-12))
        trace.append(
            {"iteration": it, "nmse_db": float(nmse_db), "gamma_l1": float(np.sum(np.abs(state.gamma)))}
        )
    return state.mu, trace
