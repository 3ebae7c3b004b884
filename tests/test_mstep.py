import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from squintsbl import mstep
from squintsbl.config import desk_config
from squintsbl.data_io import load_container, save_container
from squintsbl.mstep import (
    HIDDEN_CHANNELS,
    KERNEL,
    ConvStage,
    MStepNet,
    adam_update,
    batch_features_backward,
    build_features,
    conv2d_same,
    conv2d_same_backward,
    image_to_vec,
    init_stage,
    load_checkpoint,
    mstep_forward,
    save_checkpoint,
    stage_backward,
    stage_forward,
    vec_to_image,
)
from squintsbl.sbl import classic_m_step

from conftest import crandn


# ---- layout -----------------------------------------------------------------

@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=4))
def test_vec_image_roundtrip(ga, gd, b):
    v = np.arange(ga * gd * b, dtype=float).reshape(ga * gd, b)
    img = vec_to_image(v, ga, gd)
    assert img.shape == (b, ga, gd)
    assert np.array_equal(image_to_vec(img), v)


def test_vec_image_layout():
    """Vector index i maps to angular i % GA, delay i // GA."""
    ga, gd = 3, 4
    v = np.arange(ga * gd, dtype=float).reshape(-1, 1)
    img = vec_to_image(v, ga, gd)
    for i in range(ga * gd):
        assert img[0, i % ga, i // ga] == i


# ---- convolution ------------------------------------------------------------

def naive_conv2d_same(x, w, b):
    """Direct quadruple loop with zero padding; the reference for the fast path."""
    n, cin, hh, ww = x.shape
    cout, _, kh, kw = w.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros((n, cout, hh, ww))
    for s in range(n):
        for co in range(cout):
            for i in range(hh):
                for j in range(ww):
                    acc = 0.0
                    for ci in range(cin):
                        for di in range(kh):
                            for dj in range(kw):
                                ii, jj = i + di - ph, j + dj - pw
                                if 0 <= ii < hh and 0 <= jj < ww:
                                    acc += x[s, ci, ii, jj] * w[co, ci, di, dj]
                    out[s, co, i, j] = acc + b[co]
    return out


# Both sides of the channel rule (C <= O gathers input windows, C > O
# projects first), 3x3, 1x1 and non-square 5x3 kernels, a non-square image.
conv_shapes = pytest.mark.parametrize("kernel", [(3, 3), (1, 1), (5, 3)], ids=["k3x3", "k1x1", "k5x3"])
conv_batches = pytest.mark.parametrize("batch", [1, 3], ids=["b1", "b3"])
conv_channels = pytest.mark.parametrize("cin,cout", [(2, 8), (8, 1), (3, 3)], ids=["2to8", "8to1", "3to3"])


@conv_channels
@conv_batches
@conv_shapes
def test_conv2d_same_matches_naive(rng, cin, cout, batch, kernel):
    x = rng.standard_normal((batch, cin, 5, 7))
    w = rng.standard_normal((cout, cin) + kernel)
    b = rng.standard_normal(cout)
    assert np.allclose(conv2d_same(x, w, b), naive_conv2d_same(x, w, b), atol=1e-12)


def test_conv2d_rejects_bad_shapes(rng):
    x = rng.standard_normal((1, 2, 6, 6))
    with pytest.raises(ValueError, match="odd kernel"):
        conv2d_same(x, rng.standard_normal((3, 2, 2, 2)), np.zeros(3))
    with pytest.raises(ValueError, match="odd kernel"):
        conv2d_same(x, rng.standard_normal((3, 2, 3, 4)), np.zeros(3))
    with pytest.raises(ValueError, match="channels"):
        conv2d_same(x, rng.standard_normal((3, 4, 3, 3)), np.zeros(3))


def test_conv2d_identity_kernel(rng):
    x = rng.standard_normal((1, 1, 6, 6))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 1, 1] = 1.0  # center tap passes the input through
    out = conv2d_same(x, w, np.zeros(1))
    assert np.allclose(out, x)


def test_conv2d_shift_kernel_interior(rng):
    """An off-center tap shifts the image; check away from the zero-padded rim."""
    x = rng.standard_normal((1, 1, 8, 8))
    w = np.zeros((1, 1, 3, 3))
    w[0, 0, 0, 1] = 1.0  # reads the row above
    out = conv2d_same(x, w, np.zeros(1))
    assert np.allclose(out[0, 0, 1:, :], x[0, 0, :-1, :])
    assert np.allclose(out[0, 0, 0, :], 0.0)


@pytest.mark.parametrize("cin", [1, 2], ids=["windows", "projection"])
@pytest.mark.parametrize("axis,step", [(0, 1), (0, -1), (1, 1), (1, -1)],
                         ids=["angular+1", "angular-1", "delay+1", "delay-1"])
def test_conv2d_one_hot_tap_moves_vector_entries(cin, axis, step):
    """On a G_A x G_D image of a coefficient vector, a one-hot angular tap moves entry m to m + step
    within its delay column, and a one-hot delay tap moves it to m + step * G_A; zeros come in at
    the grid's edge.  Both sides of the channel rule, on a non-square grid."""
    ga, gd = 5, 7
    v = np.arange(1.0, ga * gd + 1.0)[:, None]
    x = np.zeros((1, cin, ga, gd))
    x[:, 0] = vec_to_image(v, ga, gd)
    w = np.zeros((1, cin, 3, 3))
    tap = [1, 1]
    tap[axis] += step
    w[(0, 0) + tuple(tap)] = 1.0
    got = image_to_vec(conv2d_same(x, w, np.zeros(1))[:, 0])[:, 0]
    m = np.arange(ga * gd)
    index = (m % ga, m // ga)[axis] + step
    inside = (0 <= index) & (index < (ga, gd)[axis])
    want = np.where(inside, v[np.clip(m + step * (1, ga)[axis], 0, ga * gd - 1), 0], 0.0)
    assert np.array_equal(got, want)


@conv_channels
@conv_batches
@conv_shapes
def test_conv2d_backward_finite_difference(rng, cin, cout, batch, kernel):
    x = rng.standard_normal((batch, cin, 5, 7))
    w = rng.standard_normal((cout, cin) + kernel)
    b = rng.standard_normal(cout)
    g_out = rng.standard_normal((batch, cout, 5, 7))
    g_x, g_w, g_b = conv2d_same_backward(x, w, g_out)
    h = 1e-6

    def loss(xx, ww, bb):
        return float(np.sum(conv2d_same(xx, ww, bb) * g_out))

    for arr, grad in ((x, g_x), (w, g_w), (b, g_b)):
        flat, gflat = arr.ravel(), np.asarray(grad).ravel()
        for t in range(0, flat.size, max(1, flat.size // 10)):
            orig = flat[t]
            flat[t] = orig + h
            up = loss(x, w, b)
            flat[t] = orig - h
            dn = loss(x, w, b)
            flat[t] = orig
            fd = (up - dn) / (2 * h)
            assert abs(fd - gflat[t]) < 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("cin,cout", [(2, 8), (8, 1)], ids=["2to8", "8to1"])
def test_conv2d_backward_is_exact_adjoint(rng, cin, cout):
    """<conv(x, w, 0), g> = <x, g_x> = <w, g_w> at the default image size."""
    x = rng.standard_normal((2, cin, 64, 64))
    w = rng.standard_normal((cout, cin, 3, 3))
    g_out = rng.standard_normal((2, cout, 64, 64))
    g_x, g_w, _ = conv2d_same_backward(x, w, g_out)
    forward = np.vdot(conv2d_same(x, w, np.zeros(cout)), g_out)
    assert np.vdot(x, g_x) == pytest.approx(forward, rel=1e-12)
    assert np.vdot(w, g_w) == pytest.approx(forward, rel=1e-12)


# ---- blocks of images ----------------------------------------------------

@pytest.mark.parametrize("cin,cout", [(2, 8), (8, 1)], ids=["2to8", "8to1"])
def test_conv2d_backward_into_its_input(rng, cin, cout):
    """out=x writes g_x over the input and gives the fresh call's gradients bit for bit."""
    x = rng.standard_normal((3, cin, 9, 7))
    w = rng.standard_normal((cout, cin, 3, 3))
    g_out = rng.standard_normal((3, cout, 9, 7))
    want = conv2d_same_backward(x, w, g_out)
    got = conv2d_same_backward(x, w, g_out, out=x)
    assert got[0] is x
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def _traced_peak(run):
    """Traced peak bytes of ``run()`` and its result."""
    tracemalloc.start()
    try:
        result = run()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_stage_forward_allocates_no_hidden_layer(rng):
    """At B = 32 on 64x64 images the forward's traced peak exceeds its output by under 2 MiB:
    h1 and the convolutions' temporaries exist only at block size, and the cache holds no h1."""
    stage = init_stage(rng)
    feats = rng.standard_normal((32, 2, 64, 64))
    gamma = rng.uniform(0.1, 1.0, (32, 64, 64))
    hidden_bytes = 32 * HIDDEN_CHANNELS * 64 * 64 * feats.itemsize
    peak, (out, cache) = _traced_peak(lambda: stage_forward(stage, feats, gamma))
    assert all(a.nbytes < hidden_bytes for a in cache)
    assert peak - out.nbytes < 2 << 20


def test_stage_backward_allocates_no_hidden_gradient(rng):
    """At B = 32 on 64x64 images the backward's traced peak exceeds g_feats and g_gamma by under
    2 MiB: per block of images, g_h1 is written over the rebuilt h1, and no convolution temporary
    is of batch size."""
    stage = init_stage(rng)
    feats = rng.standard_normal((32, 2, 64, 64))
    _, cache = stage_forward(stage, feats, rng.uniform(0.1, 1.0, (32, 64, 64)))
    g_out = rng.standard_normal((32, 64, 64))
    peak, (g_feats, g_gamma, _) = _traced_peak(lambda: stage_backward(stage, cache, g_out))
    assert peak - g_feats.nbytes - g_gamma.nbytes < 2 << 20


def test_stage_blocks_match_one_block(rng, monkeypatch):
    """Five images in ragged blocks of two give the one-block output, g_feats and g_gamma bit for bit;
    the weight gradients, added up block by block, agree to 1e-12 relative."""
    stage = init_stage(rng)
    feats = rng.standard_normal((5, 2, 16, 16))
    gamma = rng.uniform(0.1, 1.0, (5, 16, 16))
    g_out = rng.standard_normal((5, 16, 16))

    def run():
        out, cache = stage_forward(stage, feats, gamma)
        return (out,) + stage_backward(stage, cache, g_out)

    def sizes():
        return [len(range(5)[blk]) for blk in mstep._stage_blocks(stage, feats)]

    assert sizes() == [5]
    whole = run()
    # per image: the hidden layer plus the g_feats correlation's padded hidden gradient and projection
    per_image = (2 * HIDDEN_CHANNELS + 2 * KERNEL * KERNEL) * 16 * 16 * feats.itemsize
    monkeypatch.setattr(mstep, "_BLOCK_BYTES", 2 * per_image - 1)
    assert sizes() == [1, 1, 1, 1, 1]
    monkeypatch.setattr(mstep, "_BLOCK_BYTES", 2 * per_image)
    assert sizes() == [2, 2, 1]
    blocked = run()
    for got, want in zip(blocked[:3], whole[:3]):
        assert np.array_equal(got, want)
    for name in ("w1", "b1", "w2", "b2"):
        got, want = getattr(blocked[3], name), getattr(whole[3], name)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_stage_threads_match_serial(rng):
    """Stages run from two threads at once, on different inputs, equal the serial results bit for bit."""
    stages = [init_stage(np.random.default_rng(seed)) for seed in (1, 2)]
    inputs = [(rng.standard_normal((6, 2, 64, 64)), rng.uniform(0.1, 1.0, (6, 64, 64)),
               rng.standard_normal((6, 64, 64))) for _ in stages]

    def run(k):
        feats, gamma, g_out = inputs[k]
        out, cache = stage_forward(stages[k], feats, gamma)
        g_feats, g_gamma, grads = stage_backward(stages[k], cache, g_out)
        return [out, g_feats, g_gamma, grads.w1, grads.b1, grads.w2, grads.b2]

    serial = [run(0), run(1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(run, [0, 1] * 3))
    for k, result in zip([0, 1] * 3, threaded):
        for got, want in zip(result, serial[k]):
            assert np.array_equal(got, want)


# ---- stages and network -----------------------------------------------------

def test_init_stage_shapes(rng):
    st0 = init_stage(rng)
    assert st0.w1.shape[1:] == (2, 3, 3)
    assert st0.w2.shape[:2] == (1, st0.w1.shape[0])
    assert np.all(st0.b1 == 0) and np.all(st0.b2 == 0)


def test_zero_weight_stage_is_identity(rng):
    """All-zero convs pass gamma through the residual connection untouched."""
    st0 = init_stage(rng)
    st0.w1[:] = 0; st0.b1[:] = 0; st0.w2[:] = 0; st0.b2[:] = 0
    feats = rng.standard_normal((2, 2, 5, 5))
    gamma = rng.uniform(0.1, 2.0, (2, 5, 5))
    out, _ = stage_forward(st0, feats, gamma)
    assert np.allclose(out, gamma)


def test_stage_forward_relu_clamps(rng):
    st0 = init_stage(rng)
    st0.w1[:] = 0; st0.w2[:] = 0
    st0.b2[:] = -5.0
    gamma = rng.uniform(0.1, 0.5, (1, 4, 4))
    out, _ = stage_forward(st0, np.zeros((1, 2, 4, 4)), gamma)
    assert np.all(out == 0.0)  # residual pushed negative, relu clamps


def test_stage_backward_finite_difference(rng):
    """Against central differences, on a square and on a non-square image."""
    for shape in ((6, 6), (6, 5)):
        st0 = init_stage(rng)
        feats = rng.standard_normal((2, 2) + shape)
        gamma = rng.uniform(0.5, 1.5, (2,) + shape)
        g_out = rng.standard_normal((2,) + shape)
        out, cache = stage_forward(st0, feats, gamma)
        g_feats, g_gamma, grads = stage_backward(st0, cache, g_out)
        h = 1e-6

        def loss():
            return float(np.sum(stage_forward(st0, feats, gamma)[0] * g_out))

        for arr, grad in ((st0.w1, grads.w1), (st0.b1, grads.b1),
                          (st0.w2, grads.w2), (st0.b2, grads.b2),
                          (feats, g_feats), (gamma, g_gamma)):
            flat, gflat = arr.ravel(), np.asarray(grad).ravel()
            for t in range(0, flat.size, max(1, flat.size // 8)):
                orig = flat[t]
                flat[t] = orig + h
                up = loss()
                flat[t] = orig - h
                dn = loss()
                flat[t] = orig
                fd = (up - dn) / (2 * h)
                assert abs(fd - gflat[t]) < 1e-5 * max(1.0, abs(fd)), shape


def test_network_create_and_append(rng):
    net = MStepNet.create(2, rng)
    assert net.n_stages == 2
    net.append_stage()
    assert net.n_stages == 3
    # new stage starts as a copy of the previous one, independently owned
    assert np.array_equal(net.stages[2].w1, net.stages[1].w1)
    net.stages[2].w1[0, 0, 0, 0] += 1.0
    assert not np.array_equal(net.stages[2].w1, net.stages[1].w1)


def test_network_copy_and_set_weights(rng):
    net = MStepNet.create(2, rng)
    w = net.copy_weights()
    net.stages[0].w1 += 1.0
    net.set_weights(w)
    other = MStepNet.create(3, rng)
    with pytest.raises(ValueError):
        net.set_weights(other.copy_weights())


def test_adam_first_step_closed_form(rng):
    """At t=1 with zero slots the update is -lr * g / (|g| + eps)."""
    net = MStepNet.create(1, rng)
    before = net.copy_weights()
    g = init_stage(rng)
    grads = [ConvStage(w1=g.w1.copy(), b1=np.ones_like(g.b1),
                       w2=g.w2.copy(), b2=np.ones_like(g.b2))]
    lr, eps = 1e-3, 1e-8
    adam_update(net, grads, 1, lr, eps=eps)
    for name, gval in (("w1", grads[0].w1), ("b1", grads[0].b1),
                       ("w2", grads[0].w2), ("b2", grads[0].b2)):
        old = getattr(before[0], name)
        new = getattr(net.stages[0], name)
        expect = old - lr * gval / (np.abs(gval) + eps)
        assert np.allclose(new, expect, atol=1e-12)


def test_adam_state_advances(rng):
    net = MStepNet.create(1, rng)
    g = init_stage(rng)
    grads = [ConvStage(w1=g.w1, b1=g.b1 + 1, w2=g.w2, b2=g.b2 + 1)]
    adam_update(net, grads, 1, 1e-3)
    w_after_1 = net.stages[0].w1.copy()
    adam_update(net, grads, 2, 1e-3)
    assert not np.array_equal(net.stages[0].w1, w_after_1)
    net.reset_optimizer()
    # slots cleared: the next step behaves like t=1 again
    net2 = MStepNet.create(1, np.random.default_rng(99))
    net2.set_weights(net.copy_weights())
    adam_update(net, grads, 1, 1e-3)
    adam_update(net2, grads, 1, 1e-3)
    assert np.allclose(net.stages[0].w1, net2.stages[0].w1)


# ---- features ---------------------------------------------------------------

def test_build_features_channels_sum_to_classic_update(rng):
    """The two channels are the classic update's terms, |mu|^2 and tau."""
    cfg = desk_config()
    ga, gd = cfg.grid_angular, cfg.grid_delay
    mu = crandn(rng, cfg.grid_total, 3)
    tau = rng.uniform(0, 1, (cfg.grid_total, 3))
    f = build_features(mu, tau, ga, gd)
    assert f.shape == (3, 2, ga, gd)
    assert np.array_equal(f[:, 0], vec_to_image(np.abs(mu) ** 2, ga, gd))
    assert np.array_equal(f[:, 1], vec_to_image(tau, ga, gd))
    assert np.allclose(image_to_vec(f.sum(axis=1)), classic_m_step(mu, tau))


def test_build_features_vector_is_batch_column(rng):
    cfg = desk_config()
    ga, gd = cfg.grid_angular, cfg.grid_delay
    mu = crandn(rng, cfg.grid_total, 3)
    tau = rng.uniform(0, 1, (cfg.grid_total, 3))
    batch = build_features(mu, tau, ga, gd)
    for i in range(3):
        single = build_features(mu[:, i:i + 1], tau[:, i:i + 1], ga, gd)
        assert single.shape == (1, 2, ga, gd)
        assert np.array_equal(single[0], batch[i])


def test_batch_features_backward_finite_difference(rng):
    ga = gd = 4
    g = ga * gd
    mu = crandn(rng, g, 2)
    tau = rng.uniform(0.1, 1.0, (g, 2))
    g_feats = np.random.default_rng(3).standard_normal((2, 2, ga, gd))
    g_mu, g_tau = batch_features_backward(g_feats, mu)
    h = 1e-7

    def loss(m, t):
        return float(np.sum(build_features(m, t, ga, gd) * g_feats))

    # Wirtinger convention: directional derivative along d is Re<g, d>
    r2 = np.random.default_rng(4)
    for _ in range(6):
        d_mu = r2.standard_normal(mu.shape) + 1j * r2.standard_normal(mu.shape)
        fd = (loss(mu + h * d_mu, tau) - loss(mu - h * d_mu, tau)) / (2 * h)
        an = float(np.sum(np.real(np.conj(g_mu) * d_mu)))
        assert abs(fd - an) < 1e-5 * max(1.0, abs(fd))
        d_tau = r2.standard_normal(tau.shape)
        fd_t = (loss(mu, tau + h * d_tau) - loss(mu, tau - h * d_tau)) / (2 * h)
        an_t = float(np.sum(g_tau * d_tau))
        assert abs(fd_t - an_t) < 1e-5 * max(1.0, abs(fd_t))


def test_mstep_forward_matches_stage(rng):
    """The learned update is features, then the iteration's stage, then gamma in its input shape.

    It equals the direct convolutions on the statistics' images, also on a
    grid with G_A != G_D.  A one-column call equals column 0 of a
    three-column call bit for bit.
    """
    for cfg in (desk_config(), desk_config(grid_angular=8)):
        ga, gd = cfg.grid_angular, cfg.grid_delay
        net = MStepNet.create(2, rng)
        mu = crandn(rng, cfg.grid_total, 3)
        tau = rng.uniform(0, 1, (cfg.grid_total, 3))
        gamma = rng.uniform(0.1, 1.0, (cfg.grid_total, 3))
        feats = np.stack([vec_to_image(np.abs(mu) ** 2, ga, gd), vec_to_image(tau, ga, gd)], axis=1)
        for it in (1, 2):
            stage = net.stages[it - 1]
            out, cache = mstep_forward(net, it, mu, tau, gamma, ga, gd)
            ref, ref_cache = stage_forward(stage, build_features(mu, tau, ga, gd), vec_to_image(gamma, ga, gd))
            assert out.shape == gamma.shape
            assert np.array_equal(out, image_to_vec(ref))
            assert all(np.array_equal(a, b) for a, b in zip(cache, ref_cache))
            hidden = np.maximum(naive_conv2d_same(feats, stage.w1, stage.b1), 0.0)
            direct = np.maximum(vec_to_image(gamma, ga, gd) + naive_conv2d_same(hidden, stage.w2, stage.b2)[:, 0], 0.0)
            assert np.allclose(vec_to_image(out, ga, gd), direct, rtol=1e-12, atol=1e-12), (ga, gd)
            single, _ = mstep_forward(net, it, mu[:, :1], tau[:, :1], gamma[:, :1], ga, gd)
            assert single.shape == (cfg.grid_total, 1)
            assert np.array_equal(single, out[:, :1])
        with pytest.raises(ValueError):
            mstep_forward(net, 3, mu, tau, gamma, ga, gd)


# ---- persistence ------------------------------------------------------------

def test_checkpoint_roundtrip(tmp_path, rng):
    cfg = desk_config()
    net = MStepNet.create(3, rng, config_hash=cfg.config_hash())
    path = tmp_path / "net.npz"
    save_checkpoint(net, path, cfg)
    back = load_checkpoint(path)
    assert back.n_stages == 3
    assert back.config_hash == cfg.config_hash()
    assert back.config == cfg.to_dict()
    save_checkpoint(net, path)
    assert load_checkpoint(path).config is None
    for a, b in zip(net.stages, back.stages):
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.b1, b.b1)
        assert np.array_equal(a.w2, b.w2)
        assert np.array_equal(a.b2, b.b2)


@pytest.mark.parametrize("name,value,message", [
    ("b1", np.zeros(5), r"stage 1: b1 has shape \(5,\), expected \(8,\)"),
    ("w2", np.zeros((2, 8, 3, 3)), r"stage 1: w2 has shape"),
    ("w1", np.zeros((8, 3, 3, 3)), r"stage 1: w1 has shape"),
    ("b2", np.zeros(2), r"stage 1: b2 has shape"),
    ("w1", np.pad([np.nan], (0, 143)).reshape(8, 2, 3, 3), r"stage 1: w1 has a non-finite entry$"),
], ids=["b1", "w2", "w1", "b2", "nan-w1"])
def test_checkpoint_rejects_bad_stage_shapes(tmp_path, rng, name, value, message):
    """A stage array of another shape, or holding a NaN, is refused with the path, stage and array."""
    net = MStepNet.create(2, rng)
    setattr(net.stages[1], name, value)
    path = tmp_path / "net.npz"
    save_checkpoint(net, path)
    with pytest.raises(ValueError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("name,dtype", [
    ("w1", "<U1"), ("w2", np.complex128), ("b1", np.bool_), ("b2", np.int64),
], ids=["str-weights", "complex-weights", "bool-bias", "int-bias"])
def test_checkpoint_rejects_arrays_that_are_not_real_floating(tmp_path, rng, name, dtype):
    """A weight of the right shape but not a real float would fail inside a convolution, or run a
    complex or integer refiner; it is refused with the path, stage, array and dtype."""
    net = MStepNet.create(2, rng)
    setattr(net.stages[1], name, np.zeros(getattr(net.stages[1], name).shape, dtype=dtype))
    path = tmp_path / "net.npz"
    save_checkpoint(net, path)
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value) == (f"{path}: checkpoint stage 1: {name} has dtype {np.dtype(dtype)}, "
                               "expected a real floating type")


def test_checkpoint_rejects_even_kernel(tmp_path, rng):
    net = MStepNet.create(1, rng)
    net.stages[0].w1 = np.zeros((8, 2, 4, 4))
    net.stages[0].w2 = np.zeros((1, 8, 4, 4))
    path = tmp_path / "net.npz"
    save_checkpoint(net, path)
    with pytest.raises(ValueError, match=r"stage 0: w1 has shape \(8, 2, 4, 4\), expected \(8, 2, 3, 3\)"):
        load_checkpoint(path)


def test_checkpoint_rejects_another_hidden_width(tmp_path, rng):
    """Only the refiner that init_stage builds loads; a 4-channel hidden layer is refused."""
    net = MStepNet.create(1, rng)
    net.stages[0].w1, net.stages[0].b1 = np.zeros((4, 2, 3, 3)), np.zeros(4)
    net.stages[0].w2 = np.zeros((1, 4, 3, 3))
    path = tmp_path / "net.npz"
    save_checkpoint(net, path)
    with pytest.raises(ValueError, match=r"stage 0: w1 has shape \(4, 2, 3, 3\), expected \(8, 2, 3, 3\)"):
        load_checkpoint(path)


def _rewrite(path, edit_meta=None, drop=None):
    """Re-save a checkpoint container with its metadata edited or an array dropped."""
    kind, meta, arrays = load_container(path)
    if edit_meta is not None:
        edit_meta(meta)
    arrays.pop(drop, None)
    save_container(path, kind, meta, arrays)


def test_checkpoint_missing_array_is_a_value_error(tmp_path, rng):
    path = tmp_path / "net.npz"
    save_checkpoint(MStepNet.create(2, rng), path)
    _rewrite(path, drop="stage1/b2")
    with pytest.raises(ValueError, match="stage1/b2"):
        load_checkpoint(path)


def test_checkpoint_missing_stage_count_is_a_value_error(tmp_path, rng):
    path = tmp_path / "net.npz"
    save_checkpoint(MStepNet.create(2, rng), path)
    _rewrite(path, edit_meta=lambda m: m.pop("n_stages"))
    with pytest.raises(ValueError, match="n_stages"):
        load_checkpoint(path)


@pytest.mark.parametrize("meta, extra, message", [
    ({"n_stages": "1"}, {}, "checkpoint n_stages must be a non-negative int, got '1'"),
    ({"n_stages": 1.0}, {}, "checkpoint n_stages must be a non-negative int, got 1.0"),
    ({"n_stages": True}, {}, "checkpoint n_stages must be a non-negative int, got True"),
    ({"n_stages": -1}, {}, "checkpoint n_stages must be a non-negative int, got -1"),
    ({"n_stages": 1}, {}, "checkpoint of 1 stages also holds stage1/b1, stage1/b2, stage1/w1, stage1/w2"),
    ({"n_stages": 0}, {}, "checkpoint of 0 stages also holds stage0/b1, stage0/b2, stage0/w1, stage0/w2, stage1/b1"),
    ({}, {"notes": np.zeros(1)}, "checkpoint of 2 stages also holds notes"),
    (["n_stages", "config_hash"], {}, "checkpoint metadata is a list, not an object"),
    ({"config": [1]}, {}, "checkpoint config is a list, not an object"),
], ids=["str-count", "float-count", "bool-count", "negative-count", "fewer-stages", "zero-stages", "stray-array",
        "list-meta", "list-config"])
def test_checkpoint_rejects_malformed_metadata(tmp_path, rng, meta, extra, message):
    """The metadata must be an object whose n_stages is a non-negative int naming exactly the stored stages."""
    path = tmp_path / "net.npz"
    save_checkpoint(MStepNet.create(2, rng), path)
    kind, stored, arrays = load_container(path)
    save_container(path, kind, {**stored, **meta} if isinstance(meta, dict) else meta, {**arrays, **extra})
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: {message}")
