"""Built-in numerical checks, runnable from the command line.

Reduced-size versions of the package's key invariants.  Each check
re-derives its expected answer independently (dense posterior algebra,
per-tone pipelines, hand-worked numbers, finite differences, paired
estimates on two dictionaries) instead of comparing the code to itself,
so an installed copy can vouch for its own numerics without a test
harness.  Checks fail through ``np.testing``, never a bare ``assert``,
so they also fail under ``python -O``.  The pytest suite is larger and
stricter; with one BLAS thread on a 2-core x86 host the checks take
1.5-2.5 s, and the command 2-3 s with start-up.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy.linalg import block_diag

from .channel import build_channel, draw_paths
from .cli import _echo
from .config import default_config, desk_config, spawn_rng
from .dictionaries import (
    FREQUENCY_DEPENDENT,
    FREQUENCY_INDEPENDENT,
    build_dictionaries,
    reconstruct_channel,
    synthesis_matrix,
)
from .evaluation import (
    ALGORITHMS,
    average_nmse_db,
    draw_eval_observations,
    flops_per_iteration,
    nmse,
    reconstruction_flops,
    standard_operator,
)
from .measurement import assemble_operator, draw_combiner, observe_and_transform, operator_from_matrix
from .mstep import _PARAM_NAMES, init_stage, stage_backward, stage_forward
from .sbl import EstimatorSpec, SblState, _amp_backward, amp_e_step, exact_e_step, init_state, run_estimator


def _crandn(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _dense_phi(op) -> np.ndarray:
    """Whitened sensing matrix of an assembled operator, built from its parts.

    kron(I_K, W_bar) applied to the dense dictionary synthesis matrix;
    nothing of the operator's factors is read.
    """
    return np.kron(np.eye(op.config.n_subcarriers), op.combiner.w_bar) @ synthesis_matrix(op.dicts)


def _posterior_error(op, phi, y, sigma2, gamma) -> float:
    """Worst relative error of the exact E-step on the rotated data
    against the information-form posterior of y = phi x + n."""
    mu, tau, _ = exact_e_step(op, op.rotate(y[:, None]), sigma2, init_state(gamma[:, None], op.shape[0]))
    mu, tau = mu[:, 0], tau[:, 0]
    cov = np.linalg.inv(phi.conj().T @ phi / sigma2 + np.diag(1.0 / gamma))
    mu_ref = cov @ (phi.conj().T @ y) / sigma2
    tau_ref = np.diag(cov).real
    return max(float(np.linalg.norm(mu - mu_ref) / np.linalg.norm(mu_ref)),
               float(np.max(np.abs(tau - tau_ref)) / np.max(tau_ref)))


# ---- checks -----------------------------------------------------------------


def check_exact_posterior() -> str:
    """Direct solve against the dense information-form posterior.

    The dense instances have one tone and one delay bin; the desk
    operator's instances also exercise the cross-tone delay mixing of
    the block-form covariance and the per-tone rotation of the data.
    Two flat priors, gamma = c 1, run on operators with orthogonal rows,
    the desk operator and the SVD-rotated dense matrix of the same Phi,
    where the E-step solves the diagonal covariance in closed form.
    """
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(4, 17))
        g = int(rng.integers(6, 25))
        phi = _crandn(rng, (m, g)) / math.sqrt(m)
        gamma = rng.uniform(0.05, 2.0, g)
        sigma2 = float(rng.uniform(0.05, 1.0))
        worst = max(worst, _posterior_error(operator_from_matrix(phi), phi, _crandn(rng, (m,)), sigma2, gamma))
    op = standard_operator(desk_config())
    phi = _dense_phi(op)
    m, g = phi.shape
    for _ in range(5):
        gamma = np.exp(rng.uniform(-3.0, 1.0, g))
        sigma2 = float(rng.uniform(0.05, 1.0))
        worst = max(worst, _posterior_error(op, phi, _crandn(rng, (m,)), sigma2, gamma))
    for flat_op in (op, operator_from_matrix(phi, rotate=True)):
        np.testing.assert_(flat_op.orthogonal_rows, "an SVD-rotated operator records no orthogonal rows")
        gamma = np.full(g, rng.uniform(0.05, 2.0))
        sigma2 = float(rng.uniform(0.05, 1.0))
        worst = max(worst, _posterior_error(flat_op, phi, _crandn(rng, (m,)), sigma2, gamma))
    np.testing.assert_(worst < 1e-10, f"worst relative error {worst:.2e}")
    return f"20 dense, 5 desk-operator and 2 flat-prior instances, worst relative error {worst:.1e}"


def check_amp_fixed_point() -> str:
    """Message passing on an unstructured operator reaches the posterior."""
    rng = np.random.default_rng(11)
    m, g, sigma2 = 64, 128, 0.1
    passed, errs = 0, []
    for _ in range(5):
        phi = _crandn(rng, (m, g))
        phi /= np.linalg.norm(phi, axis=0, keepdims=True)
        gamma = np.ones(g)
        x = _crandn(rng, (g,))
        y = (phi @ x + math.sqrt(sigma2) * _crandn(rng, (m,)))[:, None]
        op = operator_from_matrix(phi)
        state = init_state(gamma[:, None], m)
        for _ in range(60):
            state.mu, state.tau_x, state.s, _ = amp_e_step(op, y, sigma2, state)
        # op is unrotated, so this flat prior takes the factored path, not the closed form
        mu_ref, _, _ = exact_e_step(op, y, sigma2, init_state(gamma[:, None], m))
        err = float(np.linalg.norm(state.mu - mu_ref) / np.linalg.norm(mu_ref))
        errs.append(err)
        passed += err < 1e-2
    np.testing.assert_(passed >= 4, f"{passed}/5 within 1e-2; errors {['%.1e' % e for e in errs]}")
    return f"{passed}/5 trials within 1e-2 of the direct posterior"


def check_hand_instance() -> str:
    """One message-passing update on a 2x3 instance worked by hand."""
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0j, 2.0]], dtype=complex)
    r = np.array([[1.0 + 1.0j], [2.0]], dtype=complex)
    op = operator_from_matrix(a)
    state = SblState(iteration=0, mu=np.zeros((3, 1), dtype=complex), tau_x=np.ones((3, 1)),
                     gamma=np.array([[1.0], [2.0], [4.0]]), s=np.zeros((2, 1), dtype=complex))
    mu, tau, s = (x[:, 0] for x in amp_e_step(op, r, 1.0, state)[:3])
    np.testing.assert_allclose(mu, [(1 + 1j) / 4, 2 / 15, 1 / 7], rtol=1e-14, atol=0)
    np.testing.assert_allclose(tau, [3 / 4, 2 / 5, 3 / 14], rtol=1e-14, atol=0)
    np.testing.assert_allclose(s, [(1 + 1j) / 3, 1 / 3], rtol=1e-14, atol=0)
    return "posterior mean, variances, and residual all match the worked values"


def check_operator_assembly() -> str:
    """Stacked sensing matrix and the operator's U A against the per-tone combine pipeline."""
    cfg = desk_config()
    op = standard_operator(cfg)
    phi = _dense_phi(op)
    u = block_diag(*op.u)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        x = _crandn(rng, (cfg.grid_total,))
        h = reconstruct_channel(op.dicts, x)
        y_direct = (op.combiner.w_bar @ h).ravel(order="F")
        for y_op in (phi @ x, u @ op.forward(x)):
            worst = max(worst, float(np.linalg.norm(y_op - y_direct) / np.linalg.norm(y_direct)))
    np.testing.assert_(worst < 1e-10, f"worst relative gap {worst:.2e}")
    return f"5 coefficient draws, worst relative gap {worst:.1e}"


def check_per_tone_rotation() -> str:
    """Per-tone rotation against the dense SVD of the stacked operator.

    The assembled U_k are eigenvectors of the Grams C_k C_k^H; the oracle
    is ``operator_from_matrix(rotate=True)``, whose U comes from a dense
    SVD of the whole Phi.  The two may differ in row order and phase;
    the AMP-SBL mean depends on neither.
    """
    cfg = desk_config()
    op = standard_operator(cfg)
    u = block_diag(*op.u)
    unitary_gap = float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))
    np.testing.assert_(unitary_gap < 1e-12, f"blkdiag(U_k) off unitary by {unitary_gap:.2e}")
    phi = _dense_phi(op)
    x = _crandn(np.random.default_rng(31), (cfg.grid_total, 3))
    ref = u.conj().T @ (phi @ x)
    fwd_gap = float(np.linalg.norm(op.forward(x) - ref) / np.linalg.norm(ref))
    np.testing.assert_(fwd_gap < 1e-12, f"forward off U^H Phi x by {fwd_gap:.2e}")
    dense = operator_from_matrix(phi, rotate=True)
    spec = EstimatorSpec(e_step="amp", m_step="classic", n_iterations=10)
    amp_gap = 0.0
    for y in draw_eval_observations(op, 0, 3)[1]:
        mu, _ = run_estimator(spec, op, y[:, None], cfg.noise_var)
        mu_ref, _ = run_estimator(spec, dense, y[:, None], cfg.noise_var)
        amp_gap = max(amp_gap, float(np.linalg.norm(mu - mu_ref) / np.linalg.norm(mu_ref)))
    np.testing.assert_(amp_gap < 1e-10, f"AMP-SBL mean off the dense-SVD run by {amp_gap:.2e}")
    return (f"unitary to {unitary_gap:.1e}, forward to {fwd_gap:.1e}, "
            f"10-iteration AMP-SBL mean to {amp_gap:.1e} on 3 draws")


def check_whitening() -> str:
    """Empirical covariance of ``observe_and_transform``'s output at h = 0 is sigma^2 I.

    With a zero channel the library's whitened measurements are its
    whitened noise alone, one m-vector per tone.  Their whole m x m
    covariance is checked: each pilot use's n_rf x n_rf block, its
    off-diagonal entries included, and the zero blocks across uses.
    """
    cfg = desk_config()
    op = standard_operator(cfg)
    m, k = cfg.n_uses * cfg.n_rf, cfg.n_subcarriers
    rng = np.random.default_rng(17)
    zero = np.zeros((cfg.n_antennas, k))
    white = np.hstack([observe_and_transform(op, zero, rng).reshape(k, m).T for _ in range(2500)])
    n_draws = white.shape[1]
    cov = white @ white.conj().T / n_draws
    target = cfg.noise_var * np.eye(m)
    gap = float(np.max(np.abs(cov - target)) / cfg.noise_var)
    np.testing.assert_(gap < 0.05, f"worst entrywise gap {gap:.3f} of sigma^2")
    return f"{n_draws} draws, worst entrywise gap {100 * gap:.1f}% of sigma^2"


def check_channel_normalization() -> str:
    """Mean squared channel norm per tone is one."""
    cfg = default_config()
    vals = []
    for i in range(1500):
        paths = draw_paths(cfg, spawn_rng(cfg.rng_seed, "eval-channel", 7777, i))
        h = build_channel(cfg, paths)
        vals.append(float(np.linalg.norm(h) ** 2) / cfg.n_subcarriers)
    mean = float(np.mean(vals))
    np.testing.assert_(abs(mean - 1.0) < 0.05, f"mean |H|^2/K = {mean:.4f}")
    return f"1500 draws, mean |H|^2/K = {mean:.4f}"


def check_stage_gradients() -> str:
    """Convolutional refiner backward against central differences."""
    rng = np.random.default_rng(23)
    stage = init_stage(rng)
    feats = rng.standard_normal((2, 2, 8, 8))
    gimg = rng.uniform(0.1, 1.0, (2, 8, 8))
    target = rng.standard_normal((2, 8, 8))

    def loss() -> float:
        out, _ = stage_forward(stage, feats, gimg)
        return 0.5 * float(np.sum((out - target) ** 2))

    out, cache = stage_forward(stage, feats, gimg)
    _, _, grads = stage_backward(stage, cache, out - target)
    h = 1e-6
    worst = 0.0
    for _ in range(30):
        name = str(rng.choice(_PARAM_NAMES))
        arr = getattr(stage, name)
        idx = tuple(int(rng.integers(0, s)) for s in arr.shape)
        arr[idx] += h
        up = loss()
        arr[idx] -= 2 * h
        down = loss()
        arr[idx] += h
        fd = (up - down) / (2 * h)
        an = float(getattr(grads, name)[idx])
        worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
    np.testing.assert_(worst < 1e-5, f"worst relative error {worst:.2e}")
    return f"30 parameter coordinates, worst relative error {worst:.1e}"


def check_recursion_gradients() -> str:
    """Hand-derived backward of the eight-line update against differences."""
    rng = np.random.default_rng(29)
    m, g, b, sigma2 = 6, 10, 2, 0.3
    phi = _crandn(rng, (m, g)) / math.sqrt(m)
    op = operator_from_matrix(phi)
    r = _crandn(rng, (m, b))
    mu = _crandn(rng, (g, b))
    tau = rng.uniform(0.2, 1.0, (g, b))
    s = _crandn(rng, (m, b))
    gamma = rng.uniform(0.2, 2.0, (g, b))
    gm = _crandn(rng, (g, b))
    gt = rng.standard_normal((g, b))
    gs = _crandn(rng, (m, b))

    def scalar(mu_, tau_, s_, gamma_) -> float:
        mu1, tau1, s1, _ = amp_e_step(op, r, sigma2, SblState(0, mu_, tau_, gamma_, s_))
        return float(np.sum(np.real(np.conj(gm) * mu1)) + np.sum(gt * tau1)
                     + np.sum(np.real(np.conj(gs) * s1)))

    _, _, _, cache = amp_e_step(op, r, sigma2, SblState(0, mu, tau, gamma, s))
    g_mu0, g_tau0, g_s0, g_gamma = _amp_backward(op, cache, gm, gt, gs)
    h = 1e-6
    worst = 0.0
    probes = (
        ("mu", mu, g_mu0, True), ("tau", tau, g_tau0, False),
        ("s", s, g_s0, True), ("gamma", gamma, g_gamma, False),
    )
    for _, arr, grad, is_complex in probes:
        for _ in range(4):
            if is_complex:
                d = _crandn(rng, arr.shape)
                an = float(np.sum(np.real(np.conj(grad) * d)))
            else:
                d = rng.standard_normal(arr.shape)
                an = float(np.sum(grad * d))
            args = {"mu": mu, "tau": tau, "s": s, "gamma": gamma}
            name = [n for n, a, _, _ in probes if a is arr][0]
            args[name] = arr + h * d
            up = scalar(args["mu"], args["tau"], args["s"], args["gamma"])
            args[name] = arr - h * d
            down = scalar(args["mu"], args["tau"], args["s"], args["gamma"])
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-9))
    np.testing.assert_(worst < 1e-5, f"worst relative error {worst:.2e}")
    return f"16 directional probes, worst relative error {worst:.1e}"


def check_complexity_table() -> str:
    """Worked values of every row of the complexity table, keyed by the steps it runs, and of reconstruction."""
    cfg = default_config()  # K m = 32 * 16 = 512 measurements, G = 4096, G_A = 64, N = 32
    worked = {
        ("exact", "classic"): 16 * 512**2 * 4096,
        ("exact", "learned"): (16 * 512**2 + 432) * 4096,
        ("amp", "classic"): (20 * 512 + 4) * 4096,
        ("amp", "learned"): (20 * 512 + 432) * 4096,
        "reconstruction": 8 * 32 * 64 * 32 + 8 * 32 * 4096,
    }
    got = {(e.e_step, e.m_step): flops_per_iteration(algo, cfg) for algo, e in ALGORITHMS.items()}
    got["reconstruction"] = reconstruction_flops(cfg)
    np.testing.assert_(got == worked, f"FLOPs {got}, worked values {worked}")
    return f"{len(ALGORITHMS)} algorithms and reconstruction match their worked values"


def check_squint_dictionary() -> str:
    """Exact SBL estimates squinted channels better on the squint-matched dictionary.

    Both operators share one combiner, so the observations are the same
    for both; only the angular grids differ.
    """
    # label 25 dB; E||H||_F^2 = K puts the whitened measurement SNR near 25 - 10 log10(32) = 10 dB
    # (9.7 dB measured over these 8 draws)
    cfg = default_config(n_subcarriers=16, grid_delay=32, noise_var=10 ** -2.5)
    comb = draw_combiner(cfg, spawn_rng(cfg.rng_seed, "pilot", cfg.n_uses))
    matched, unaware = (assemble_operator(cfg, comb, build_dictionaries(cfg, mode))
                        for mode in (FREQUENCY_DEPENDENT, FREQUENCY_INDEPENDENT))
    spec = EstimatorSpec(e_step="exact", m_step="classic", n_iterations=10)
    ratios = np.empty((8, 2))
    for i, (h, y) in enumerate(zip(*draw_eval_observations(matched, 0, 8))):
        for j, op in enumerate((matched, unaware)):
            x_hat, _ = run_estimator(spec, op, y[:, None], cfg.noise_var)
            ratios[i, j] = nmse(h, reconstruct_channel(op.dicts, x_hat)[..., 0])[0]
    wins = int(np.sum(ratios[:, 0] < ratios[:, 1]))
    gap = average_nmse_db(ratios[:, 1]) - average_nmse_db(ratios[:, 0])
    np.testing.assert_(wins >= 7 and gap >= 1.0,
                       f"squint-matched dictionary won {wins}/8 pairs, mean gap {gap:.2f} dB")
    return f"squint-matched dictionary won {wins}/8 pairs, mean NMSE {gap:.2f} dB lower"


CHECKS = (
    ("exact posterior solve", check_exact_posterior),
    ("message-passing fixed point", check_amp_fixed_point),
    ("eight-line update, hand instance", check_hand_instance),
    ("operator assembly vs per-tone pipeline", check_operator_assembly),
    ("per-tone rotation vs dense SVD", check_per_tone_rotation),
    ("noise whitening", check_whitening),
    ("channel normalization", check_channel_normalization),
    ("refiner gradients", check_stage_gradients),
    ("recursion gradients", check_recursion_gradients),
    ("complexity table", check_complexity_table),
    ("squint dictionary advantage", check_squint_dictionary),
)


def run(verbose: bool = True) -> int:
    """Run every check, printing as the CLI does; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        t0 = time.time()
        try:
            detail = fn()
        except Exception as exc:  # a failed check must not stop the rest
            failures += 1
            _echo(f"FAIL {name}: {exc}")
            continue
        if verbose:
            _echo(f"ok   {name}: {detail} ({time.time() - t0:.1f} s)")
    if failures:
        _echo(f"{failures} of {len(CHECKS)} checks failed")
    else:
        _echo(f"all {len(CHECKS)} checks passed")
    return failures
