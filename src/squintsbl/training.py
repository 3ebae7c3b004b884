"""Layer-wise training of the unfolded estimators.

The unfolded network alternates an E-step (posterior statistics given the
variance parameters) with a learned variance refiner fed |mu|^2 and tau.
The E-steps and their backward passes are the solver module's, run on
(., B) batches, and the refiner output becomes the next gamma unchanged,
so training differentiates exactly what inference evaluates and fails the
same way, with :class:`DivergenceError` (here also ``TrainingDivergence``).
The loss is the mean per-sample channel error ||H_hat - H||^2 / ||H||^2,
and its gradient runs back through the whole unrolled graph.  Training
grows the depth one iteration at a time: the new stage starts as a copy
of the last one and the whole network is retrained after each append.
All gradients are hand-derived; complex gradients follow the
d/dRe + j d/dIm convention used by the conv backward.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .channel import Dataset, generate_dataset
from .config import SPLIT_IDS, SystemConfig, spawn_rng
from .dictionaries import DictionarySet
from .measurement import MeasurementOperator
from .mstep import (
    ConvStage,
    MStepNet,
    adam_update,
    batch_features,
    batch_features_backward,
    image_to_vec,
    stage_backward,
    stage_forward,
    vec_to_image,
)
from .sbl import E_STEPS, DivergenceError, _amp_backward, _exact_backward, amp_e_step, exact_e_step, init_state

logger = logging.getLogger(__name__)

# Training and inference fail the same way; the second name is kept for
# callers that catch training failures by it.
TrainingDivergence = DivergenceError


@dataclass
class TrainConfig:
    depth: int
    e_step: str = "amp"
    batch_size: int = 128
    learning_rate: float = 1e-3
    lr_decay: float = 10.0
    lr_patience: int = 4
    stop_patience: int = 10
    max_epochs: int = 200

    def __post_init__(self):
        if self.depth < 2:
            raise ValueError("depth must be at least 2")
        if self.e_step not in E_STEPS:
            raise ValueError(f"e_step must be one of {E_STEPS}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.lr_patience < 1 or self.stop_patience < 1:
            raise ValueError("patiences must be at least 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not self.lr_decay >= 1.0:
            raise ValueError("lr_decay must be at least 1 (the learning rate is divided by it)")


@dataclass
class EpochRecord:
    depth: int
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    event: str = ""


@dataclass
class StageRecord:
    depth: int
    epochs: list[EpochRecord] = field(default_factory=list)
    best_val: float = np.inf
    best_epoch: int = 0


@dataclass
class TrainReport:
    stages: list[StageRecord] = field(default_factory=list)
    final_test_nmse_db: float = np.nan
    wall_time_s: float = 0.0


def write_report_csv(report: TrainReport, path, cfg: SystemConfig | None = None,
                     train_cfg: TrainConfig | None = None) -> None:
    with open(path, "w") as f:
        if cfg is not None:
            f.write(f"# config_hash={cfg.config_hash()} seed={cfg.rng_seed}\n")
        if train_cfg is not None:
            f.write(f"# e_step={train_cfg.e_step} depth={train_cfg.depth}\n")
        f.write(f"# final_test_nmse_db={report.final_test_nmse_db:.6f}\n")
        f.write("depth,epoch,train_loss,val_loss,lr,event\n")
        for stage in report.stages:
            for r in stage.epochs:
                f.write(f"{r.depth},{r.epoch},{r.train_loss:.10e},"
                        f"{r.val_loss:.10e},{r.lr:.3e},{r.event}\n")


# ---- dataset plumbing -------------------------------------------------------

def generate_splits(cfg: SystemConfig, sizes: tuple[int, int, int] = (8000, 1000, 1000)):
    """Draw disjoint train/val/test channel sets (noise is drawn later)."""
    if any(s < 1 for s in sizes):
        raise ValueError("split sizes must be positive")
    return (
        generate_dataset(cfg, sizes[0], "train"),
        generate_dataset(cfg, sizes[1], "val"),
        generate_dataset(cfg, sizes[2], "test"),
    )


@dataclass
class _Split:
    """Precomputed per-split arrays: channels and clean measurements."""

    h: np.ndarray            # (N, K, B) complex128
    hnorm2: np.ndarray       # (B,)
    y_clean: np.ndarray      # (M, B)
    noise: np.ndarray | None  # fixed noise for val/test, None for train


def _prepare_split(ds: Dataset, op: MeasurementOperator, fixed_noise: bool,
                   sigma2: float) -> _Split:
    cfg = ds.config
    h = np.stack([r.h.astype(np.complex128) for r in ds.realizations], axis=-1)
    hnorm2 = np.sum(np.abs(h) ** 2, axis=(0, 1))
    m = cfg.n_uses * cfg.n_rf
    yc = np.einsum("mn,nkb->mkb", op.combiner.w_bar, h, optimize=True)
    y_clean = yc.reshape(m * cfg.n_subcarriers, -1, order="F")
    noise = None
    if fixed_noise:
        # one draw per sample, reused every evaluation (paired comparisons)
        split_id = SPLIT_IDS[ds.split]
        cols = []
        for i in range(h.shape[-1]):
            rng = spawn_rng(cfg.rng_seed, "eval-noise", split_id, i)
            cols.append(_complex_noise(rng, y_clean.shape[0], sigma2))
        noise = np.stack(cols, axis=-1)
    return _Split(h=h, hnorm2=hnorm2, y_clean=y_clean, noise=noise)


def _complex_noise(rng: np.random.Generator, n: int, sigma2: float) -> np.ndarray:
    scale = np.sqrt(sigma2 / 2.0)
    return scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))


# ---- reconstruction, batched ------------------------------------------------

def reconstruct_batch(dicts: DictionarySet, x: np.ndarray) -> np.ndarray:
    """(G, B) coefficients -> (N, K, B) channels."""
    cfg = dicts.config
    ga, gd = cfg.grid_angular, cfg.grid_delay
    x_img = x.reshape(ga, gd, -1, order="F")
    t = np.einsum("adb,kd->kab", x_img, dicts.delay_dict, optimize=True)
    return np.einsum("kna,kab->nkb", dicts.angular_dicts, t, optimize=True)


def reconstruct_adjoint(dicts: DictionarySet, r: np.ndarray) -> np.ndarray:
    """Adjoint of reconstruct_batch: (N, K, B) -> (G, B)."""
    cfg = dicts.config
    ga, gd = cfg.grid_angular, cfg.grid_delay
    t = np.einsum("kna,nkb->kab", dicts.angular_dicts.conj(), r, optimize=True)
    g_img = np.einsum("kab,kd->adb", t, dicts.delay_dict.conj(), optimize=True)
    return g_img.reshape(ga * gd, -1, order="F")


def _loss_and_grad(x_hat: np.ndarray, split: _Split, idx: np.ndarray, dicts: DictionarySet):
    """Mean of ||H_hat - H||^2 / ||H||^2 over the batch, and its gradient in x_hat."""
    resid = reconstruct_batch(dicts, x_hat) - split.h[:, :, idx]
    loss = float(np.mean(np.sum(np.abs(resid) ** 2, axis=(0, 1)) / split.hnorm2[idx]))
    g_h = resid * (2.0 / (len(idx) * split.hnorm2[idx]))[None, None, :]
    return loss, reconstruct_adjoint(dicts, g_h)


# ---- unrolled forward/backward ----------------------------------------------

def unroll_forward(op: MeasurementOperator, obs: np.ndarray, sigma2: float,
                   net: MStepNet, depth: int, e_step: str):
    """Run the depth-``depth`` unfolded estimator on a (·, B) batch.

    ``obs`` is the rotated observation r = U^H y, which both E-steps take.
    Returns the final posterior mean (G, B) and the cache list consumed
    by :func:`unroll_backward`.
    """
    if net.n_stages < depth - 1:
        raise ValueError(f"net has {net.n_stages} stages; depth {depth} needs {depth - 1}")
    cfg = op.config
    ga, gd = cfg.grid_angular, cfg.grid_delay
    state = init_state(np.ones((cfg.grid_total, obs.shape[1])), obs.shape[0])
    caches = []
    for it in range(1, depth + 1):
        if e_step == "amp":
            state.mu, state.tau_x, state.s, ec = amp_e_step(op, obs, sigma2, state)
        else:
            state.mu, state.tau_x, ec = exact_e_step(op, obs, sigma2, state)
        state.iteration = it
        step_cache = {"e_step": e_step, "e": ec, "it": it}
        if it < depth:
            feats = batch_features(state.mu, state.tau_x, ga, gd)
            gamma_img = vec_to_image(state.gamma, ga, gd)
            out_img, sc = stage_forward(net.stages[it - 1], feats, gamma_img)
            step_cache["mu"] = state.mu
            step_cache["stage"] = sc
            state.gamma = image_to_vec(out_img)
        caches.append(step_cache)
    return state.mu, caches


def unroll_backward(op: MeasurementOperator, caches, g_x: np.ndarray,
                    net: MStepNet) -> list[ConvStage]:
    """Backprop the whole unrolled estimator; returns per-stage weight gradients."""
    cfg = op.config
    ga, gd = cfg.grid_angular, cfg.grid_delay
    depth = len(caches)
    g_mu = g_x
    g_tau = np.zeros_like(g_x, dtype=float)
    g_s = np.zeros(op.shape[:1] + g_x.shape[1:], dtype=complex)
    g_gamma = None
    grads: list[ConvStage | None] = [None] * (depth - 1)
    for it in range(depth, 0, -1):
        cache = caches[it - 1]
        if it < depth:
            g_img = vec_to_image(g_gamma, ga, gd)
            g_feats, g_prev_img, sg = stage_backward(net.stages[it - 1], cache["stage"], g_img)
            grads[it - 1] = sg
            gm, gt = batch_features_backward(g_feats, cache["mu"])
            g_mu = g_mu + gm
            g_tau = g_tau + gt
            g_gamma_res = image_to_vec(g_prev_img)
        else:
            g_gamma_res = 0.0
        ec = cache["e"]
        if cache["e_step"] == "amp":
            g_mu, g_tau, g_s, gg = _amp_backward(op, ec, g_mu, g_tau, g_s)
        else:
            # the exact posterior depends on gamma alone, not on the previous mu, tau
            gg = _exact_backward(op, ec, g_mu, g_tau)
            g_mu = np.zeros_like(g_mu)
            g_tau = np.zeros_like(g_tau)
            g_s = np.zeros_like(g_s)
        g_gamma = gg + g_gamma_res
    return grads


# ---- training loop ----------------------------------------------------------

def _batch_obs(op: MeasurementOperator, split: _Split, idx, sigma2,
               rng: np.random.Generator | None):
    y = split.y_clean[:, idx]
    if rng is not None:
        noise = _complex_noise(rng, y.size, sigma2).reshape(y.shape, order="F")
    else:
        noise = split.noise[:, idx]
    return op.rotate(y + noise)


def _eval_ratios(net: MStepNet, split: _Split, op: MeasurementOperator,
                 sigma2: float, train_cfg: TrainConfig, depth: int) -> np.ndarray:
    """Per-sample ||H_hat - H||^2 / ||H||^2 over a split with its fixed noise."""
    n = split.h.shape[-1]
    ratios = []
    for lo in range(0, n, train_cfg.batch_size):
        idx = np.arange(lo, min(lo + train_cfg.batch_size, n))
        obs = _batch_obs(op, split, idx, sigma2, None)
        x_hat, _ = unroll_forward(op, obs, sigma2, net, depth, train_cfg.e_step)
        h_hat = reconstruct_batch(op.dicts, x_hat)
        err = np.sum(np.abs(h_hat - split.h[:, :, idx]) ** 2, axis=(0, 1))
        ratios.append(err / split.hnorm2[idx])
    return np.concatenate(ratios)


def validate(net: MStepNet, split: _Split, op: MeasurementOperator,
             sigma2: float, train_cfg: TrainConfig, depth: int) -> float:
    """Mean channel NMSE (linear) over a split with its fixed per-sample noise."""
    return float(np.mean(_eval_ratios(net, split, op, sigma2, train_cfg, depth)))


def test_nmse_db(net: MStepNet, split: _Split, op: MeasurementOperator,
                 sigma2: float, train_cfg: TrainConfig, depth: int) -> float:
    """Channel NMSE in dB (of the mean ratio) with fixed test noise."""
    return 10.0 * np.log10(np.mean(_eval_ratios(net, split, op, sigma2, train_cfg, depth)))


def train_layerwise(train_cfg: TrainConfig, sys_cfg: SystemConfig,
                    op: MeasurementOperator, datasets,
                    initial_net: MStepNet | None = None) -> tuple[MStepNet, TrainReport]:
    """Grow the net from depth 2 to ``train_cfg.depth``, retraining each time.

    Passing ``initial_net`` resumes from a checkpoint: its stages are
    kept as-is and training continues from the next depth, so a resumed
    run only ever appends stages.  Every stage is retrained here, so the
    returned net carries the hash of ``sys_cfg``.
    """
    t0 = time.time()
    sigma2 = sys_cfg.noise_var
    train_ds, val_ds, test_ds = datasets
    train = _prepare_split(train_ds, op, False, sigma2)
    val = _prepare_split(val_ds, op, True, sigma2)
    test = _prepare_split(test_ds, op, True, sigma2)

    if initial_net is None:
        net = MStepNet.create(1, spawn_rng(sys_cfg.rng_seed, "net-init", 0), sys_cfg.config_hash())
        first_depth = 2
    else:
        net = initial_net
        first_depth = net.n_stages + 2
        if first_depth > train_cfg.depth:
            raise ValueError(
                f"checkpoint already serves depth {net.n_stages + 1}; target depth {train_cfg.depth} adds no stages"
            )
        net.config_hash = sys_cfg.config_hash()
    report = TrainReport()
    n_train = train.h.shape[-1]
    for depth in range(first_depth, train_cfg.depth + 1):
        while net.n_stages < depth - 1:
            net.append_stage()
        net.reset_optimizer()
        record = StageRecord(depth=depth)
        lr = train_cfg.learning_rate
        best_weights = net.copy_weights()
        bad_lr = bad_stop = 0
        step = 0
        for epoch in range(1, train_cfg.max_epochs + 1):
            perm = spawn_rng(sys_cfg.rng_seed, "shuffle", depth, epoch).permutation(n_train)
            train_loss = 0.0
            for bi, lo in enumerate(range(0, n_train, train_cfg.batch_size)):
                idx = perm[lo:lo + train_cfg.batch_size]
                noise_rng = spawn_rng(sys_cfg.rng_seed, "noise", depth, epoch, bi)
                obs = _batch_obs(op, train, idx, sigma2, noise_rng)
                x_hat, caches = unroll_forward(op, obs, sigma2, net, depth, train_cfg.e_step)
                loss, g_x = _loss_and_grad(x_hat, train, idx, op.dicts)
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"non-finite loss at depth {depth}, epoch {epoch}, batch {bi}", iteration=depth)
                grads = unroll_backward(op, caches, g_x, net)
                step += 1
                adam_update(net, grads, step, lr)
                train_loss += loss * len(idx)
            train_loss /= n_train
            val_loss = validate(net, val, op, sigma2, train_cfg, depth)
            event = ""
            if val_loss < record.best_val:
                record.best_val = val_loss
                record.best_epoch = epoch
                best_weights = net.copy_weights()
                bad_lr = bad_stop = 0
                event = "best"
            else:
                bad_lr += 1
                bad_stop += 1
                if bad_stop >= train_cfg.stop_patience:
                    event = "early-stop"
                elif bad_lr >= train_cfg.lr_patience:
                    lr /= train_cfg.lr_decay
                    bad_lr = 0
                    event = "lr-decay"
            record.epochs.append(EpochRecord(depth, epoch, train_loss, val_loss, lr, event))
            logger.info("depth %d epoch %d train %.4e val %.4e lr %.1e %s",
                        depth, epoch, train_loss, val_loss, lr, event)
            if event == "early-stop":
                break
        net.set_weights(best_weights)
        report.stages.append(record)
    report.final_test_nmse_db = test_nmse_db(net, test, op, sigma2, train_cfg,
                                             train_cfg.depth)
    report.wall_time_s = time.time() - t0
    return net, report
