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
    assert c.n_uses == cfg.n_uses
    # one-bit phases scaled by 1/sqrt(N)
    assert np.allclose(np.abs(c.w), 1.0 / np.sqrt(cfg.n_antennas))
    assert np.all(np.isin(c.w * np.sqrt(cfg.n_antennas), [-1.0, 1.0]))


def test_combiner_whitening_identity():
    """Within each pilot use the whitened rows have identity covariance.

    Noise across uses is independent, so block-wise whitening is all the
    noise model needs; rows of different uses are not orthogonalized.
    """
    cfg = default_config()
    c = _comb(cfg)
    nrf = cfg.n_rf
    for q in range(cfg.n_uses):
        rows = c.w_bar[q * nrf:(q + 1) * nrf]
        gram = rows @ rows.conj().T
        assert np.allclose(gram, np.eye(nrf), atol=1e-10)
    # d reproduces w_bar from w
    assert np.allclose(solve_triangular(c.d, c.w, lower=True), c.w_bar, atol=1e-12)


def test_combiner_block_structure():
    """Whitening is per pilot use: d is block-diagonal over uses."""
    cfg = default_config()
    c = _comb(cfg)
    nrf = cfg.n_rf
    d = c.d.copy()
    for q in range(cfg.n_uses):
        d[q * nrf:(q + 1) * nrf, q * nrf:(q + 1) * nrf] = 0.0
    assert np.allclose(d, 0.0)


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
    """The per-tone rotation is an SVD rotation of phi, as operator_from_matrix's is."""
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
    """G_D < K breaks delay-row orthogonality; rejected before any SVD."""
    cfg = desk_config(grid_delay=4)
    comb = _comb(cfg)
    dicts = build_dictionaries(cfg)

    def no_svd(*args, **kwargs):
        raise AssertionError("SVD ran before the layout check")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
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
    with pytest.raises(ValueError):
        assemble_operator(cfg, comb, dicts)


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
