import numpy as np
import pytest
from scipy.linalg import solve_triangular

from squintsbl.channel import build_channel, draw_paths
from squintsbl.config import default_config, desk_config, noise_var_from_snr_db, spawn_rng
from squintsbl.dictionaries import build_dictionaries, reconstruct_channel
from squintsbl.measurement import (
    assemble_operator,
    draw_combiner,
    observe_and_transform,
    operator_from_matrix,
)

from conftest import crandn
from oracles import dense_phi, dense_rotation


def _comb(cfg, idx=0):
    return draw_combiner(cfg, spawn_rng(cfg.rng_seed, "pilot", idx))


def test_combiner_entries_and_shapes():
    cfg = default_config()
    c = _comb(cfg)
    m = cfg.n_uses * cfg.n_rf
    assert c.w.shape == (m, cfg.n_antennas)
    assert c.w_bar.shape == (m, cfg.n_antennas)
    # one-bit phases scaled by 1/sqrt(N)
    assert np.allclose(np.abs(c.w), 1.0 / np.sqrt(cfg.n_antennas))
    assert np.all(np.isin(c.w * np.sqrt(cfg.n_antennas), [-1.0, 1.0]))


def test_combiner_whitening_identity():
    """Within each pilot use the whitened rows have identity covariance, and W_bar_q = D_q^{-1} W_q.

    Noise across uses is independent, so block-wise whitening is all the
    noise model needs; rows of different uses are not orthogonalized.
    """
    cfg = default_config()
    c = _comb(cfg)
    for w_q, w_bar_q in zip(np.split(c.w, cfg.n_uses), np.split(c.w_bar, cfg.n_uses)):
        assert np.allclose(w_bar_q @ w_bar_q.conj().T, np.eye(cfg.n_rf), atol=1e-10)
        d_q = np.linalg.cholesky(w_q @ w_q.T)
        assert np.allclose(solve_triangular(d_q, w_q, lower=True), w_bar_q, atol=1e-12)


def test_combiner_reproducible_per_stream():
    cfg = default_config()
    a, b, c = _comb(cfg, 0), _comb(cfg, 0), _comb(cfg, 1)
    assert np.array_equal(a.w, b.w)
    assert not np.array_equal(a.w, c.w)


def test_operator_from_matrix_plain(rng):
    phi = crandn(rng, 6, 12)
    op = operator_from_matrix(phi)
    u, a = dense_rotation(op)
    assert op.shape == phi.shape
    assert np.array_equal(u @ a, phi)
    assert np.array_equal(a, phi)
    assert np.allclose(u, np.eye(6))
    t = rng.uniform(0.1, 1.0, 12)
    assert np.allclose(op.forward_abs2(t), np.abs(phi) ** 2 @ t)
    assert np.allclose(op.adjoint_abs2(t[:6]), (np.abs(phi) ** 2).T @ t[:6])


def test_operator_from_matrix_rotated(rng):
    phi = crandn(rng, 6, 12)
    op = operator_from_matrix(phi, rotate=True)
    u, a = dense_rotation(op)
    # u unitary, u a == phi
    assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
    assert np.allclose(u @ a, phi, atol=1e-12)


def test_assemble_operator_shape_and_blocks():
    cfg = desk_config()
    comb = _comb(cfg)
    dicts = build_dictionaries(cfg)
    op = assemble_operator(cfg, comb, dicts)
    m_tone = cfg.n_uses * cfg.n_rf
    assert op.shape == dense_phi(op).shape == (m_tone * cfg.n_subcarriers, cfg.grid_total)
    # row block k of U A is kron(delay row k, whitened combiner times angular dict k)
    u, a = dense_rotation(op)
    phi = u @ a
    for k in (0, cfg.n_subcarriers - 1):
        block = phi[k * m_tone:(k + 1) * m_tone, :]
        expect = np.kron(dicts.delay_dict[k], comb.w_bar @ dicts.angular_dicts[k])
        assert np.allclose(block, expect, atol=1e-12)


def test_assemble_operator_is_rotated_matrix_operator(desk_op):
    """The per-tone rotation diagonalizes phi phi^H, as operator_from_matrix's SVD rotation does."""
    cfg = desk_op.config
    k, m = cfg.n_subcarriers, cfg.n_uses * cfg.n_rf
    # only per-tone factors: no M x M rotation, no M x G rotated matrix
    assert desk_op.u.shape == (k, m, m)
    assert desk_op.a.shape == desk_op.abs2_a.shape == (k, m, cfg.grid_angular)
    u, a = dense_rotation(desk_op)
    phi = dense_phi(desk_op)
    assert np.allclose(u.conj().T @ u, np.eye(k * m), atol=1e-12)
    assert np.allclose(u @ a, phi, atol=1e-12)
    # rows of A = U^H phi are orthogonal with the squared singular values as norms
    gram = a @ a.conj().T
    sv2 = np.linalg.svd(phi, compute_uv=False) ** 2
    assert np.allclose(gram, np.diag(np.diag(gram)), atol=1e-12 * sv2[0])
    assert np.allclose(np.sort(np.diag(gram).real)[::-1], sv2, rtol=1e-12)


@pytest.mark.parametrize("cfg", [default_config(), desk_config(n_rf=4, n_uses=4, grid_angular=8)],
                         ids=["default", "m>G_A"])
def test_assemble_operator_rotation_precision(cfg):
    """blkdiag(U_k) is unitary, A A^H diagonal, and its diagonal ||d_k||^2 S_k^2 to 1e-12.

    The singular values S_k of each tone block C_k come from an SVD, the
    oracle for the eigenvalues the rotation never returns.  The second
    layout has m = 16 rows per tone over 8 angles, so each U_k spans a
    null space of C_k^H as well.
    """
    op = assemble_operator(cfg, _comb(cfg), build_dictionaries(cfg))
    k, m, g_a = op.a.shape
    assert op.u.shape == (k, m, m)
    assert np.max(np.abs(np.swapaxes(op.u, 1, 2).conj() @ op.u - np.eye(m))) <= 1e-12
    # block (k, l) of A A^H is (d_k . conj(d_l)) a_k a_l^H
    rows = op.a.reshape(k * m, g_a)
    gram = np.kron(op.delay @ op.delay.conj().T, np.ones((m, m))) * (rows @ rows.conj().T)
    lam_max = np.max(gram.diagonal().real)
    assert np.max(np.abs(gram - np.diag(gram.diagonal()))) <= 1e-12 * lam_max
    tones = np.stack([op.combiner.w_bar @ psi for psi in op.dicts.angular_dicts])
    sv2 = np.zeros((k, m))
    sv2[:, :min(m, g_a)] = np.linalg.svd(tones, compute_uv=False) ** 2
    sv2 *= np.sum(np.abs(op.delay) ** 2, axis=1)[:, None]
    norms = np.sort(op.row_norms2.reshape(k, m), axis=1)[:, ::-1]
    assert np.max(np.abs(norms - sv2)) <= 1e-12 * lam_max


def _dense_products(op, phi):
    """The five products as dense matrices: U^H, A, A^H, |A|^2, |A|^2^T, with A = U^H phi."""
    u, _ = dense_rotation(op)
    a = u.conj().T @ phi
    abs2 = np.abs(a) ** 2
    return {"rotate": u.conj().T, "forward": a, "adjoint": a.conj().T,
            "forward_abs2": abs2, "adjoint_abs2": abs2.T}


@pytest.fixture(params=["desk", "plain", "rotated", "thin"])
def any_op(request, desk_op):
    """(operator, its dense Phi); "thin" is a rotated 20 x 12 matrix, so U is 20 x 12."""
    if request.param == "desk":
        return desk_op, dense_phi(desk_op)
    shape = (20, 12) if request.param == "thin" else (20, 36)
    phi = crandn(np.random.default_rng(13), *shape)
    return operator_from_matrix(phi, rotate=request.param != "plain"), phi


@pytest.mark.parametrize("batch", [(), (3,)])
def test_products_match_dense_oracle(any_op, batch):
    rng = np.random.default_rng(17)
    op, phi = any_op
    for name, dense in _dense_products(op, phi).items():
        n_in = dense.shape[1]
        if name.endswith("abs2"):
            v = rng.uniform(0.1, 1.0, (n_in,) + batch)
        else:
            v = crandn(rng, n_in, *batch)
        out = getattr(op, name)(v)
        ref = dense @ v
        assert out.shape == ref.shape, name
        assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref), name


def test_orthogonal_rows_record_and_row_norms(any_op):
    """The SVD-rotating constructors record orthogonal rows, and A A^H is then diag(row_norms2).

    An unrotated matrix records none, though its squared row norms are
    still the diagonal of A A^H.
    """
    op, phi = any_op
    u, _ = dense_rotation(op)
    a = u.conj().T @ phi
    gram = a @ a.conj().T
    scale = np.max(np.abs(gram))
    assert np.max(np.abs(op.row_norms2 - np.diag(gram).real)) <= 1e-12 * scale
    off_diagonal = np.max(np.abs(gram - np.diag(np.diag(gram))))
    assert op.orthogonal_rows == (off_diagonal <= 1e-12 * scale)


def test_gram_and_diag_quad_match_dense_oracle(any_op):
    """A diag(w) A^H and diag(A^H X A) from the factors equal the dense products.

    ``gram`` builds the lower triangle only, and its strict upper triangle
    is exactly zero, so LAPACK can factor it in place with ``lower=True``.
    """
    rng = np.random.default_rng(19)
    op, phi = any_op
    u, _ = dense_rotation(op)
    a = u.conj().T @ phi
    m, g = a.shape
    assert op.shape == (m, g)
    w = rng.uniform(0.0, 2.0, g)
    ref = np.tril((a * w) @ a.conj().T)
    out = op.gram(w)
    assert out.shape == (m, m) and out.flags.f_contiguous
    assert np.linalg.norm(np.tril(out) - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.all(np.triu(out, 1) == 0)
    x = crandn(rng, m, m)
    x = x + x.conj().T
    ref = np.real(np.einsum("mg,mn,ng->g", a.conj(), x, a))
    out = op.diag_quad(x)
    assert out.shape == (g,) and out.dtype == float
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


def test_diag_quad_reads_lower_triangle_only(any_op):
    """NaN above the diagonal of X changes nothing, and X is left as given."""
    rng = np.random.default_rng(23)
    op, _ = any_op
    m = op.shape[0]
    x = crandn(rng, m, m)
    x = x + x.conj().T
    ref = op.diag_quad(x)
    x[np.triu_indices(m, 1)] = np.nan
    given = x.copy()
    out = op.diag_quad(x)
    assert np.array_equal(out, ref)
    assert np.array_equal(x, given, equal_nan=True)


def test_assemble_operator_rejects_short_delay_grid(monkeypatch):
    """G_D < K breaks delay-row orthogonality; rejected before any decomposition."""
    cfg = desk_config(grid_delay=4)
    comb = _comb(cfg)
    dicts = build_dictionaries(cfg)

    def no_decomposition(*args, **kwargs):
        raise AssertionError("a decomposition ran before the layout check")

    for name in ("eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, no_decomposition)
    with pytest.raises(ValueError, match=r"grid_delay=4.*n_subcarriers=8"):
        assemble_operator(cfg, comb, dicts)
    monkeypatch.undo()
    # the boundary G_D = K is accepted and still exact
    edge = desk_config(grid_delay=8)
    op = assemble_operator(edge, _comb(edge), build_dictionaries(edge))
    u, a = dense_rotation(op)
    assert np.allclose(u @ a, dense_phi(op), atol=1e-12)
    gram = a @ a.conj().T
    assert np.allclose(gram, np.diag(np.diag(gram)), atol=1e-12 * np.max(np.abs(gram)))


def test_assemble_operator_matches_channel_path(rng, desk_cfg, desk_op):
    """Phi x and U A x equal combining the reconstructed channel tone by tone."""
    op = desk_op
    cfg = desk_cfg
    phi = dense_phi(op)
    u, _ = dense_rotation(op)
    for _ in range(5):
        x = crandn(rng, cfg.grid_total)
        h = reconstruct_channel(op.dicts, x)
        direct = (op.combiner.w_bar @ h).ravel(order="F")
        assert np.allclose(phi @ x, direct, atol=1e-10)
        assert np.allclose(u @ op.forward(x), direct, atol=1e-10)


def test_assemble_operator_config_mismatch():
    cfg = desk_config()
    comb = _comb(cfg)
    other = desk_config(n_subcarriers=4)
    dicts = build_dictionaries(other)
    with pytest.raises(ValueError, match=r"delay dictionary has shape \(4, 16\); the config gives \(8, 16\)"):
        assemble_operator(cfg, comb, dicts)


def test_assemble_operator_rejects_dictionaries_of_another_grid():
    """A 32 x 24 grid's dictionaries under the desk config would give 768 columns against G = 256."""
    cfg = desk_config()
    other = cfg.replace(grid_angular=32, grid_delay=24)
    with pytest.raises(ValueError, match=r"delay dictionary has shape \(8, 24\); the config gives \(8, 16\)"):
        assemble_operator(cfg, _comb(cfg), build_dictionaries(other))
    with pytest.raises(ValueError, match=r"angular dictionaries has shape \(8, 16, 32\)"):
        assemble_operator(cfg, _comb(cfg), build_dictionaries(cfg.replace(grid_angular=32)))


def test_assemble_operator_rejects_a_combiner_of_another_use_count():
    """A Q = 4 combiner under Q = 2 would give 64 rows against 32 measurements, and observe_and_transform
    would then group W_bar's rows into the wrong pilot uses."""
    cfg = desk_config()
    assert cfg.n_uses == 2
    comb = _comb(cfg.replace(n_uses=4))
    with pytest.raises(ValueError, match=r"combiner w_bar has shape \(8, 16\); the config gives \(4, 16\)"):
        assemble_operator(cfg, comb, build_dictionaries(cfg))


def test_simulate_observation_fields(desk_cfg, desk_op):
    cfg = desk_cfg
    h = build_channel(cfg, draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, 0)))
    y = observe_and_transform(desk_op, h, spawn_rng(cfg.rng_seed, "noise", 0, 0))
    m_tone = cfg.n_uses * cfg.n_rf
    assert y.shape == (m_tone * cfg.n_subcarriers,) and y.dtype == complex


def test_observation_noise_level(desk_cfg, desk_op):
    """Residual y - w_bar h has the configured per-entry variance."""
    cfg = desk_cfg
    h = build_channel(cfg, draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, 1)))
    clean = (desk_op.combiner.w_bar @ h).ravel(order="F")
    resid = []
    for i in range(500):
        y = observe_and_transform(desk_op, h, spawn_rng(cfg.rng_seed, "noise", 1, i))
        resid.append(y - clean)
    v = np.mean(np.abs(np.concatenate(resid)) ** 2)
    assert v == pytest.approx(cfg.noise_var, rel=0.05)


def test_observation_matches_dense_factor_solve(desk_cfg, desk_op):
    """y is D_q^{-1} (W_q (h + n_q)) per use, with D_q = chol(W_q W_q^T), for the noise the stream draws.

    Each W_q row has unit norm, so the noise level alone cannot tell
    whitened noise from W n; this oracle can.
    """
    cfg, comb = desk_cfg, desk_op.combiner
    n, q_uses, k = cfg.n_antennas, cfg.n_uses, cfg.n_subcarriers
    h = build_channel(cfg, draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, 2)))
    y = observe_and_transform(desk_op, h, spawn_rng(cfg.rng_seed, "noise", 2, 0))
    rng = spawn_rng(cfg.rng_seed, "noise", 2, 0)
    sigma = np.sqrt(cfg.noise_var / 2.0)
    noise = sigma * (rng.standard_normal((q_uses, n, k)) + 1j * rng.standard_normal((q_uses, n, k)))
    ref = np.vstack([solve_triangular(np.linalg.cholesky(w_q @ w_q.T), w_q @ (h + noise[q]), lower=True)
                     for q, w_q in enumerate(np.split(comb.w, q_uses))]).ravel(order="F")
    assert np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max()


def test_observation_determinism(desk_cfg, desk_op):
    cfg = desk_cfg
    h = build_channel(cfg, draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, 3)))
    a = observe_and_transform(desk_op, h, spawn_rng(cfg.rng_seed, "noise", 3, 0))
    b = observe_and_transform(desk_op, h, spawn_rng(cfg.rng_seed, "noise", 3, 0))
    assert np.array_equal(a, b)



@pytest.mark.parametrize("make_cfg", [desk_config, default_config])
def test_measurement_snr_is_label_minus_array_gain(make_cfg):
    """E||H||_F^2 = K leaves each antenna 1/N of the power the SNR label assumes."""
    cfg = make_cfg(noise_var=noise_var_from_snr_db(10.0))
    w_bar = _comb(cfg).w_bar
    channels = [build_channel(cfg, draw_paths(cfg, spawn_rng(cfg.rng_seed, "channel", 0, i))) for i in range(200)]
    power = np.mean([np.linalg.norm(w_bar @ h) ** 2 for h in channels]) / cfg.n_measurements
    snr_db = 10.0 * np.log10(power / cfg.noise_var)
    # measured -1.1 dB at N = 16 and -4.7 dB at N = 32; a unit-power-per-antenna channel would read ~10 dB
    assert abs(snr_db - (10.0 - 10.0 * np.log10(cfg.n_antennas))) < 1.5
