import ast
import importlib
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from squintsbl import dictionaries, mstep, sbl, training
from squintsbl.mstep import MStepNet
from squintsbl.sbl import DivergenceError, EstimatorSpec, run_estimator
from squintsbl.training import (
    TrainConfig,
    TrainingDivergence,
    _batch_obs,
    _loss_and_grad,
    _prepare_split,
    generate_splits,
    test_nmse_db as nmse_of_net,
    train_layerwise,
    unroll_backward,
    unroll_forward,
    validate,
    write_report_csv,
)
from squintsbl.config import spawn_rng
from squintsbl.dictionaries import reconstruct_adjoint, reconstruct_channel
from squintsbl.evaluation import nmse

from conftest import crandn


def test_train_config_validation():
    TrainConfig(depth=4)
    TrainConfig(depth=4, lr_decay=1.0)
    for bad in (dict(depth=1), dict(depth=6, e_step="magic"),
                dict(depth=6, batch_size=0), dict(depth=6, max_epochs=0),
                dict(depth=6, learning_rate=0.0), dict(depth=6, lr_decay=0.0),
                dict(depth=6, lr_decay=-2.0), dict(depth=6, lr_decay=0.5),
                dict(depth=6, lr_decay=float("nan")), dict(depth=6, lr_decay=float("inf")),
                dict(depth=6, learning_rate=float("nan")),
                dict(depth=6, learning_rate=float("inf"))):
        with pytest.raises(ValueError):
            TrainConfig(**bad)


# ---- consistency lock: batched training path vs the inference estimator ----

def test_unroll_matches_run_estimator(tiny_cfg, tiny_op, rng):
    """Training forward and inference path agree bit for bit through a learned M-step."""
    net = MStepNet.create(2, np.random.default_rng(5))
    y = crandn(rng, tiny_cfg.n_measurements)
    for e_step in ("amp", "exact"):
        x_unroll, _ = unroll_forward(tiny_op, y[:, None], 0.1, net, 3, e_step)
        spec = EstimatorSpec(e_step=e_step, m_step="learned", n_iterations=3, net=net)
        x_run, _ = run_estimator(spec, tiny_op, y[:, None], 0.1)
        assert np.array_equal(x_unroll, x_run), e_step


def test_one_step_calls_e_step_and_update_through_module_attributes(tiny_cfg, tiny_op, rng, monkeypatch):
    """Wrappers set on ``sbl.amp_e_step`` and ``mstep.mstep_forward``, as a tracer sets them,
    see every iteration of inference and of the training forward alike."""
    calls = []

    def watch(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a: calls.append(name) or real(*a))

    watch(sbl, "amp_e_step")
    watch(mstep, "mstep_forward")
    net = MStepNet.create(2, np.random.default_rng(5))
    y = crandn(rng, tiny_cfg.n_measurements, 2)
    expected = ["amp_e_step", "mstep_forward"] * 2 + ["amp_e_step"]
    run_estimator(EstimatorSpec(e_step="amp", m_step="learned", n_iterations=3, net=net), tiny_op, y[:, :1], 0.1)
    assert calls == expected
    calls.clear()
    unroll_forward(tiny_op, y, 0.1, net, 3, "amp")
    assert calls == expected


def test_unroll_divergence_is_one_type(tiny_cfg, tiny_op, rng):
    """Training fails with the inference error type, carrying the iteration."""
    assert TrainingDivergence is DivergenceError
    net = MStepNet.create(1, np.random.default_rng(0))
    net.stages[0].w2[:] = 0.0
    net.stages[0].b2[:] = -1e9  # the refiner zeroes every variance
    obs = crandn(rng, tiny_cfg.n_measurements, 2)
    with pytest.raises(TrainingDivergence, match="posterior solve failed") as exc:
        unroll_forward(tiny_op, obs, 0.0, net, 2, "exact")
    assert exc.value.iteration == 2


def test_unroll_depth_needs_stages(tiny_cfg, tiny_op, rng):
    net = MStepNet.create(1, np.random.default_rng(0))
    obs = crandn(rng, tiny_cfg.n_measurements, 2)
    with pytest.raises(ValueError):
        unroll_forward(tiny_op, obs, 0.1, net, 4, "amp")


# ---- gradients through the unrolled graph -----------------------------------

def _linear_loss_grad(rng, shape):
    # L = sum Re(conj(t) x): the gradient in our convention is t itself
    return crandn(rng, *shape)


def _directional_fd(fun, arrs, direction_rng, h=1e-6, n_probes=6):
    """Yield (fd, analytic) pairs for random directions on listed arrays."""
    for arr, grad in arrs:
        for _ in range(n_probes):
            if np.iscomplexobj(arr):
                d = direction_rng.standard_normal(arr.shape) + 1j * direction_rng.standard_normal(arr.shape)
                an = float(np.sum(np.real(np.conj(grad) * d)))
            else:
                d = direction_rng.standard_normal(arr.shape)
                an = float(np.sum(grad * d))
            arr += h * d
            up = fun()
            arr -= 2 * h * d
            dn = fun()
            arr += h * d
            yield (up - dn) / (2 * h), an


@pytest.mark.parametrize("e_step", ["amp", "exact"])
def test_unrolled_gradients_finite_difference(tiny_cfg, tiny_op, e_step, rng):
    """Weight gradients through the full unrolled graph match central FD.

    Observations are model-consistent draws; structureless inputs push the
    message passing into magnitudes where the FD probe itself loses accuracy.
    """
    depth, b = 3, 2
    net = MStepNet.create(depth - 1, np.random.default_rng(11))
    _, va, _ = generate_splits(tiny_cfg, (2, b, 2))
    split = _prepare_split(va, "val", tiny_op, tiny_cfg.noise_var)
    obs = _batch_obs(split, np.arange(b), tiny_cfg.noise_var, None)
    t = _linear_loss_grad(np.random.default_rng(12), (tiny_cfg.grid_total, b))

    def loss():
        x, _ = unroll_forward(tiny_op, obs, 0.1, net, depth, e_step)
        return float(np.sum(np.real(np.conj(t) * x)))

    _, caches = unroll_forward(tiny_op, obs, 0.1, net, depth, e_step)
    grads = unroll_backward(tiny_op, caches, t, net)
    dr = np.random.default_rng(13)
    pairs = []
    for si, sg in enumerate(grads):
        st = net.stages[si]
        pairs += [(st.w1, sg.w1), (st.b1, sg.b1), (st.w2, sg.w2), (st.b2, sg.b2)]
    for fd, an in _directional_fd(loss, pairs, dr, n_probes=3):
        assert abs(fd - an) < 2e-5 * max(1.0, abs(fd))


def _array_refs(obj) -> list:
    """Weak references to every array reachable through dicts, lists and tuples of ``obj``."""
    if isinstance(obj, np.ndarray):
        return [weakref.ref(obj)]
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [ref for item in obj for ref in _array_refs(item)]
    return []


@pytest.mark.parametrize("e_step", ["amp", "exact"])
def test_unroll_backward_consumes_caches(tiny_cfg, tiny_op, rng, e_step):
    """The backward empties the cache list and frees every cached array by the time it returns."""
    net = MStepNet.create(2, np.random.default_rng(3))
    obs = crandn(rng, tiny_cfg.n_measurements, 3)
    x, caches = unroll_forward(tiny_op, obs, 0.1, net, 3, e_step)
    assert len(caches) == 3
    refs = _array_refs(caches)
    g_x = crandn(rng, *x.shape)
    g_x_before = g_x.copy()
    del x, obs
    grads = unroll_backward(tiny_op, caches, g_x, net)
    assert caches == []
    assert len(grads) == 2
    assert not [r for r in refs if r() is not None]
    assert np.array_equal(g_x, g_x_before)


@pytest.mark.parametrize("e_step", ["amp", "exact"])
def test_unroll_backward_skips_the_first_e_step(tiny_cfg, tiny_op, rng, monkeypatch, e_step):
    """The E-step backward runs depth - 1 times, and stage 1 builds no feature gradient: both lead only to
    the start state.  The weight gradients are those of a backward that builds every stage's."""
    calls = []
    for name in ("_amp_backward", "_exact_backward"):
        real = getattr(training, name)
        monkeypatch.setattr(training, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    input_grads = []
    real_conv_backward = mstep.conv2d_same_backward

    def conv_backward(*args, **kwargs):
        result = real_conv_backward(*args, **kwargs)
        input_grads.append(result[0] is not None)
        return result

    monkeypatch.setattr(mstep, "conv2d_same_backward", conv_backward)
    depth = 3
    net = MStepNet.create(depth - 1, np.random.default_rng(3))
    y = crandn(rng, tiny_cfg.n_measurements, 2)
    x, caches = unroll_forward(tiny_op, y, 0.1, net, depth, e_step)
    g_x = crandn(rng, *x.shape)
    grads = unroll_backward(tiny_op, caches, g_x, net)
    assert calls == [f"_{e_step}_backward"] * (depth - 1)
    assert len(grads) == depth - 1 and all(isinstance(g, mstep.ConvStage) for g in grads)
    # two convs per stage, stage depth - 1 first: only the last, stage 1's conv1, skips its input gradient
    assert input_grads == [True] * (2 * (depth - 1) - 1) + [False]

    real_stage_backward = training.stage_backward
    monkeypatch.setattr(training, "stage_backward", lambda *args, grad_input: real_stage_backward(*args))
    _, caches = unroll_forward(tiny_op, y, 0.1, net, depth, e_step)
    full = unroll_backward(tiny_op, caches, g_x, net)
    for got, want in zip(grads, full):
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("e_step", ["amp", "exact"])
def test_unroll_forward_keeps_only_the_first_stage_cache(desk_cfg, desk_op, rng, e_step):
    """Iteration 1's cache holds no E-step cache and no features' mean, which no backward reads:
    the weight gradients equal those of a forward that kept every entry, bit for bit."""
    depth, b = 3, 4
    net = MStepNet.create(depth - 1, np.random.default_rng(3))
    for stage in net.stages:
        stage.w1 *= 1e-3
        stage.w2 *= 1e-3
    _, va, _ = generate_splits(desk_cfg, (1, b, 1))
    y = _batch_obs(_prepare_split(va, "val", desk_op, desk_cfg.noise_var), np.arange(b), desk_cfg.noise_var, None)
    sigma2 = desk_cfg.noise_var
    x, caches = unroll_forward(desk_op, y, sigma2, net, depth, e_step)
    assert "e" not in caches[0] and "mu" not in caches[0] and "stage" in caches[0]
    assert all("e" in cache for cache in caches[1:])

    spec = EstimatorSpec(e_step=e_step, m_step="learned", n_iterations=depth, net=net)
    r, state = sbl.start_state(desk_op, y)
    full = [sbl.step(spec, desk_op, r, sigma2, state) for _ in range(depth)]
    assert "e" in full[0] and "mu" in full[0]
    assert np.array_equal(state.mu, x)
    g_x = crandn(rng, *x.shape)
    got = unroll_backward(desk_op, caches, g_x, net)
    want = unroll_backward(desk_op, full, g_x, net)
    for g, w in zip(got, want):
        for name in ("w1", "b1", "w2", "b2"):
            assert np.array_equal(getattr(g, name), getattr(w, name)), name


def test_training_holds_one_graph(tiny_cfg, tiny_op, monkeypatch):
    """No array of a batch's caches is alive when the next unrolled forward starts."""
    real = training.unroll_forward
    previous: list = []
    calls = []

    def watched(*args, **kwargs):
        alive = [r for r in previous if r() is not None]
        calls.append(len(alive))
        x_hat, caches = real(*args, **kwargs)
        previous[:] = _array_refs(caches)
        return x_hat, caches

    monkeypatch.setattr(training, "unroll_forward", watched)
    datasets = generate_splits(tiny_cfg, (24, 8, 8))
    tc = TrainConfig(depth=3, e_step="amp", batch_size=8, max_epochs=2)
    train_layerwise(tc, tiny_cfg, tiny_op, datasets)
    assert len(calls) >= 2 * 2 * 3  # two depths, two epochs, three batches
    assert calls == [0] * len(calls)


def test_validate_keeps_no_exact_caches(desk_cfg, desk_op):
    """Validation drops each iteration's S^-1 at once, so its peak does not grow with depth.

    At desk size one column's S^-1 is only as large as one hidden image of
    the refiner, so the depth is chosen where the bound says something:
    keeping all iterations' caches, as a backward would need, peaks near
    three times it.
    """
    b = 64
    _, va, _ = generate_splits(desk_cfg, (1, b, 1))
    split = _prepare_split(va, "val", desk_op, desk_cfg.noise_var)
    s_inv_bytes = desk_cfg.n_measurements ** 2 * np.dtype(complex).itemsize
    peaks = {}
    for depth in (4, 8):
        net = MStepNet.create(depth - 1, np.random.default_rng(1))
        for stage in net.stages:
            stage.w1 *= 1e-3
            stage.w2 *= 1e-3
        tc = TrainConfig(depth=depth, e_step="exact", batch_size=b)
        tracemalloc.start()
        try:
            validate(net, split, desk_op, desk_cfg.noise_var, tc, depth)
            peaks[depth] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[8] < s_inv_bytes * b * 8
    assert peaks[8] < 1.1 * peaks[4]


# ---- data preparation -------------------------------------------------------

def test_generate_splits(tiny_cfg):
    tr, va, te = generate_splits(tiny_cfg, (5, 3, 2))
    assert (len(tr), len(va), len(te)) == (5, 3, 2)
    assert tr.shape[1:] == (tiny_cfg.n_antennas, tiny_cfg.n_subcarriers) and tr.dtype == np.complex128
    assert not np.array_equal(tr[0], va[0])
    tr2, _, _ = generate_splits(tiny_cfg, (5, 3, 2))
    assert np.array_equal(tr[4], tr2[4])
    with pytest.raises(ValueError, match="test split: n_samples must be positive, got 0"):
        generate_splits(tiny_cfg, (5, 3, 0))


def test_prepare_split_contents(tiny_cfg, tiny_op):
    _, va, _ = generate_splits(tiny_cfg, (2, 3, 2))
    split = _prepare_split(va, "val", tiny_op, tiny_cfg.noise_var)
    assert split.h.shape == (tiny_cfg.n_antennas, tiny_cfg.n_subcarriers, 3)
    assert split.h.dtype == np.complex128 and np.array_equal(split.h[:, :, 2], va[2])
    # a view of the drawn channels, not a second copy
    assert np.shares_memory(split.h, va)
    assert split.noise is not None and split.noise.shape == split.y_clean.shape
    # clean measurements: whitened combiner applied per tone, stacked tone-major
    direct = (tiny_op.combiner.w_bar @ va[0]).ravel(order="F")
    assert np.allclose(split.y_clean[:, 0], direct, atol=1e-12)
    # fixed noise is reproducible
    split2 = _prepare_split(va, "val", tiny_op, tiny_cfg.noise_var)
    assert np.array_equal(split.noise, split2.noise)
    # the split name picks the noise: none fixed for train, a stream of its own for test
    assert _prepare_split(va, "train", tiny_op, tiny_cfg.noise_var).noise is None
    assert not np.array_equal(_prepare_split(va, "test", tiny_op, tiny_cfg.noise_var).noise, split.noise)


def test_batch_obs_noise_modes(tiny_cfg, tiny_op):
    _, va, _ = generate_splits(tiny_cfg, (2, 4, 2))
    split = _prepare_split(va, "val", tiny_op, tiny_cfg.noise_var)
    idx = np.arange(3)
    fixed1 = _batch_obs(split, idx, tiny_cfg.noise_var, None)
    fixed2 = _batch_obs(split, idx, tiny_cfg.noise_var, None)
    assert np.array_equal(fixed1, fixed2)
    assert np.array_equal(fixed1, split.y_clean[:, idx] + split.noise[:, idx])
    fresh = _batch_obs(split, idx, tiny_cfg.noise_var, spawn_rng(tiny_cfg.rng_seed, "noise", 9, 9, 0))
    assert not np.array_equal(fixed1, fresh)


def test_loss_and_grad_channel_domain(tiny_cfg, tiny_op, rng):
    _, va, _ = generate_splits(tiny_cfg, (2, 3, 2))
    split = _prepare_split(va, "val", tiny_op, tiny_cfg.noise_var)
    idx = np.arange(3)
    x = crandn(rng, tiny_cfg.grid_total, 3)
    loss, g_x = _loss_and_grad(x, split, idx, tiny_op.dicts)
    # loss is the mean normalized channel error of the reconstruction
    h_hat = reconstruct_channel(tiny_op.dicts, x)
    h = split.h[:, :, idx]
    per = np.sum(np.abs(h_hat - h) ** 2, axis=(0, 1)) / np.sum(np.abs(h) ** 2, axis=(0, 1))
    assert loss == pytest.approx(float(np.mean(per)))
    # gradient check along random directions
    dr = np.random.default_rng(41)

    def f():
        return _loss_and_grad(x, split, idx, tiny_op.dicts)[0]

    for fd, an in _directional_fd(f, [(x, g_x)], dr, h=1e-7, n_probes=4):
        assert abs(fd - an) < 1e-6 * max(1.0, abs(fd))


def test_reconstruct_adjoint_is_adjoint(tiny_cfg, tiny_op, rng):
    x = crandn(rng, tiny_cfg.grid_total, 2)
    r = crandn(rng, tiny_cfg.n_antennas, tiny_cfg.n_subcarriers, 2)
    lhs = np.sum(np.conj(r) * reconstruct_channel(tiny_op.dicts, x))
    rhs = np.sum(np.conj(reconstruct_adjoint(tiny_op.dicts, r)) * x)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---- the training loop ------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_training(tiny_cfg, tiny_op):
    datasets = generate_splits(tiny_cfg, (40, 12, 12))
    tc = TrainConfig(depth=3, e_step="amp", batch_size=16, max_epochs=3)
    net, report = train_layerwise(tc, tiny_cfg, tiny_op, datasets)
    return datasets, tc, net, report


def test_training_smoke(tiny_cfg, tiny_training):
    datasets, tc, net, report = tiny_training
    assert net.n_stages == 2
    assert [r.depth for r in report.stages] == [2, 3]
    for rec in report.stages:
        assert 1 <= len(rec.epochs) <= 3
        assert np.isfinite(rec.best_val)
        assert rec.best_epoch >= 1
    assert np.isfinite(report.final_test_nmse_db)
    assert report.wall_time_s > 0


def test_training_deterministic(tiny_cfg, tiny_op, tiny_training):
    datasets, tc, net, report = tiny_training
    net2, report2 = train_layerwise(tc, tiny_cfg, tiny_op, datasets)
    for a, b in zip(net.stages, net2.stages):
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.b2, b.b2)
    assert report2.final_test_nmse_db == report.final_test_nmse_db


def test_resume_appends_stages(tiny_cfg, tiny_op, tiny_training):
    datasets, tc, net, _ = tiny_training
    # target depth equal to what the checkpoint serves: nothing to add
    with pytest.raises(ValueError):
        train_layerwise(tc, tiny_cfg, tiny_op, datasets, initial_net=net)
    tc4 = TrainConfig(depth=4, e_step="amp", batch_size=16, max_epochs=2)
    resumed = MStepNet(stages=[s.copy() for s in net.stages], config_hash=net.config_hash)
    net4, report4 = train_layerwise(tc4, tiny_cfg, tiny_op, datasets, initial_net=resumed)
    assert net4.n_stages == 3
    assert [r.depth for r in report4.stages] == [4]


def test_validate_and_nmse_consistency(tiny_cfg, tiny_op, tiny_training):
    datasets, tc, net, report = tiny_training
    test_split = _prepare_split(datasets[2], "test", tiny_op, tiny_cfg.noise_var)
    again = nmse_of_net(net, test_split, tiny_op, tiny_cfg.noise_var, tc, tc.depth)
    assert again == pytest.approx(report.final_test_nmse_db, abs=1e-9)
    v = validate(net, test_split, tiny_op, tiny_cfg.noise_var, tc, tc.depth)
    # channel-domain loss is the linear-scale mean ratio of the same quantity
    assert 10 * np.log10(v) == pytest.approx(report.final_test_nmse_db, abs=1e-6)


def test_evaluator_matches_inference_path(tiny_cfg, tiny_op, tiny_training):
    """Training's test score equals the per-sample path that `evaluate` scores."""
    datasets, tc, net, _ = tiny_training
    sigma2 = tiny_cfg.noise_var
    split = _prepare_split(datasets[2], "test", tiny_op, sigma2)
    spec = EstimatorSpec(e_step=tc.e_step, m_step="learned", n_iterations=tc.depth, net=net)
    ratios = []
    for i in range(split.h.shape[-1]):
        x, _ = run_estimator(spec, tiny_op, (split.y_clean[:, i] + split.noise[:, i])[:, None], sigma2)
        ratios.append(nmse(split.h[:, :, i], reconstruct_channel(tiny_op.dicts, x)[..., 0])[0])
    expected = 10 * np.log10(np.mean(ratios))
    assert nmse_of_net(net, split, tiny_op, sigma2, tc, tc.depth) == pytest.approx(expected, abs=1e-9)


def test_report_csv(tiny_cfg, tiny_training, tmp_path):
    _, tc, _, report = tiny_training
    out = tmp_path / "report.csv"
    write_report_csv(report, out, tiny_cfg, tc)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("#") and "config_hash=" in lines[0]
    comments = [l for l in lines if l.startswith("#")]
    assert any("final_test_nmse_db=" in c for c in comments)
    rows = [l for l in lines if not l.startswith("#")]
    header = rows[0].split(",")
    for col in ("depth", "epoch", "train_loss", "val_loss", "lr", "event", "train_s", "val_s"):
        assert col in header
    n_epochs = sum(len(r.epochs) for r in report.stages)
    assert len(rows) == 1 + n_epochs
    for row in rows[1:]:
        cells = dict(zip(header, row.split(",")))
        assert float(cells["train_s"]) >= 0.0 and float(cells["val_s"]) >= 0.0
    records = [r for stage in report.stages for r in stage.epochs]
    assert all(r.train_s >= 0.0 and r.val_s >= 0.0 for r in records)
    assert sum(r.train_s + r.val_s for r in records) <= report.wall_time_s


def test_lr_decay_and_early_stop_bookkeeping(tiny_cfg, tiny_op):
    """Force a plateau: zero LR means val never improves after epoch 1."""
    datasets = generate_splits(tiny_cfg, (8, 4, 4))
    tc = TrainConfig(depth=2, e_step="amp", batch_size=8, max_epochs=10,
                     learning_rate=1e-30, lr_patience=2, stop_patience=4)
    net, report = train_layerwise(tc, tiny_cfg, tiny_op, datasets)
    rec = report.stages[0]
    events = [e.event for e in rec.epochs]
    assert events[0] == "best"
    assert "lr-decay" in events
    assert events[-1] == "early-stop"
    assert len(rec.epochs) == 5  # 1 best + stop_patience bad epochs
    # decayed learning rate is recorded
    assert rec.epochs[-1].lr < tc.learning_rate


def _bench_wraps() -> list:
    """The (module, name, span) triples of bench/run.py's ``WRAPS``, read without running it."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WRAPS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no WRAPS")


def test_bench_wraps_names_resolve():
    """Every function the benchmark tracer wraps exists, and training's bridge names are no second body."""
    wraps = _bench_wraps()
    assert len(wraps) > 20
    for module, name, _ in wraps:
        assert callable(getattr(importlib.import_module(f"squintsbl.{module}"), name)), (module, name)
    assert training.batch_features is mstep.build_features
    assert training.stage_forward is mstep.stage_forward
    assert training.reconstruct_batch is dictionaries.reconstruct_channel
