"""Layer-wise training of the unfolded estimators.

The unfolded network alternates an E-step (posterior statistics given the
variance parameters) with a learned variance refiner fed |mu|^2 and tau.
Each iteration is the solver module's one ``step`` on an (M, B) batch:
the training forward keeps its backward cache and validation drops it,
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

from .channel import generate_dataset
from .config import SPLIT_IDS, SystemConfig, complex_normal, provenance_line, spawn_rng
from .dictionaries import DictionarySet, error_ratios, reconstruct_adjoint, reconstruct_channel
from .measurement import MeasurementOperator
from .mstep import (
    ConvStage,
    MStepNet,
    adam_update,
    batch_features_backward,
    image_to_vec,
    stage_backward,
    vec_to_image,
)
from .sbl import (
    E_STEPS,
    DivergenceError,
    EstimatorSpec,
    _amp_backward,
    _exact_backward,
    run_estimator,
    start_state,
    step,
)

# bench/run.py's WRAPS looks these three names up on this module.  Each is
# a binding of the single implementation, kept until ROADMAP item 2 drops it.
from .dictionaries import reconstruct_channel as reconstruct_batch  # noqa: F401
from .mstep import build_features as batch_features, stage_forward  # noqa: F401

logger = logging.getLogger(__name__)

# Training and inference fail the same way; the second name is kept for
# callers that catch training failures by it.
TrainingDivergence = DivergenceError


@dataclass
class TrainConfig:
    """Training settings; each field becomes a ``train`` flag, with the help line in its metadata
    where it has one."""

    depth: int = field(metadata={"help": "unrolled iteration count (>= 2)"})
    e_step: str = "amp"
    batch_size: int = 128
    learning_rate: float = 1e-3
    lr_decay: float = field(default=10.0, metadata={
        "help": "divide the learning rate by this (>= 1) after --lr-patience flat epochs"})
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
        if not 0.0 < self.learning_rate < float("inf"):
            raise ValueError("learning_rate must be positive and finite")
        if not 1.0 <= self.lr_decay < float("inf"):
            raise ValueError("lr_decay must be finite and at least 1 (the learning rate is divided by it)")


@dataclass
class EpochRecord:
    depth: int
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    train_s: float  # wall time of the epoch's training steps
    val_s: float    # wall time of its validation pass
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


def write_report_csv(report: TrainReport, path, cfg: SystemConfig, train_cfg: TrainConfig) -> None:
    with open(path, "w") as f:
        f.write(provenance_line(cfg) + "\n")
        f.write(f"# e_step={train_cfg.e_step} depth={train_cfg.depth}\n")
        f.write(f"# final_test_nmse_db={report.final_test_nmse_db:.6f}\n")
        f.write("depth,epoch,train_loss,val_loss,lr,event,train_s,val_s\n")
        for stage in report.stages:
            for r in stage.epochs:
                f.write(f"{r.depth},{r.epoch},{r.train_loss:.10e},"
                        f"{r.val_loss:.10e},{r.lr:.3e},{r.event},{r.train_s:.4f},{r.val_s:.4f}\n")


# ---- dataset plumbing -------------------------------------------------------

def generate_splits(cfg: SystemConfig, sizes: tuple[int, int, int]):
    """Draw disjoint train/val/test channel sets, each (n, N, K) (noise is drawn later)."""
    return (
        generate_dataset(cfg, sizes[0], "train"),
        generate_dataset(cfg, sizes[1], "val"),
        generate_dataset(cfg, sizes[2], "test"),
    )


@dataclass
class _Split:
    """Precomputed per-split arrays: channels and clean measurements."""

    h: np.ndarray            # (N, K, B), a transposed view of the drawn (n, N, K) channels
    y_clean: np.ndarray      # (M, B)
    noise: np.ndarray | None  # fixed noise for val/test, None for train


def _prepare_split(channels: np.ndarray, split: str, op: MeasurementOperator, sigma2: float) -> _Split:
    """The split's arrays from its (n, N, K) channels; val and test also get their fixed noise."""
    cfg = op.config
    h = channels.transpose(1, 2, 0)
    m = cfg.n_uses * cfg.n_rf
    yc = np.einsum("mn,nkb->mkb", op.combiner.w_bar, h, optimize=True)
    y_clean = yc.reshape(m * cfg.n_subcarriers, -1, order="F")
    noise = None
    if split != "train":
        # one draw per sample, reused every evaluation (paired comparisons)
        split_id = SPLIT_IDS[split]
        cols = []
        for i in range(h.shape[-1]):
            rng = spawn_rng(cfg.rng_seed, "eval-noise", split_id, i)
            cols.append(complex_normal(rng, y_clean.shape[0], sigma2))
        noise = np.stack(cols, axis=-1)
    return _Split(h=h, y_clean=y_clean, noise=noise)


# ---- unrolled forward/backward ----------------------------------------------

def _loss_and_grad(x_hat: np.ndarray, split: _Split, idx: np.ndarray, dicts: DictionarySet):
    """Mean of ||H_hat - H||^2 / ||H||^2 over the batch, and its gradient in x_hat."""
    h = split.h[:, :, idx]
    resid = reconstruct_channel(dicts, x_hat) - h
    ratios, hnorm2 = error_ratios(resid, h)
    resid *= 2.0 / (len(idx) * hnorm2)                       # the gradient in H_hat
    return float(np.mean(ratios)), reconstruct_adjoint(dicts, resid)


def unroll_forward(op: MeasurementOperator, y: np.ndarray, sigma2: float,
                   net: MStepNet, depth: int, e_step: str):
    """Run the depth-``depth`` unfolded estimator on an (M, B) batch and keep its graph.

    ``y`` is whitened, as :func:`run_estimator` takes it, and every
    iteration is the same :func:`~squintsbl.sbl.step`.  Returns the final
    posterior mean (G, B) and the steps' caches for :func:`unroll_backward`.
    Iteration 1 keeps only its stage's cache: the backward ends at that
    stage's weight gradients, so its E-step cache ``"e"`` and features'
    mean ``"mu"`` are dropped as soon as the step returns.  At the
    default size and B = 128 every later AMP iteration holds about 49 MB,
    so the graph is about (depth - 1) x 49 MB (445 MB at depth 10); the
    stage keeps no hidden layer, which its backward rebuilds, and its
    cached output is the memory of the refined gamma that the next
    E-step's cache keeps, not a copy of it.  An exact
    iteration keeps only gamma, sigma^2, u and d, and the backward
    rebuilds each column's S^-1.
    """
    spec = EstimatorSpec(e_step=e_step, m_step="learned", n_iterations=depth, net=net)
    r, state = start_state(op, y)
    caches = [step(spec, op, r, sigma2, state)]
    if depth > 1:
        del caches[0]["e"], caches[0]["mu"]
    caches += [step(spec, op, r, sigma2, state) for _ in range(depth - 1)]
    return state.mu, caches


def unroll_backward(op: MeasurementOperator, caches: list, g_x: np.ndarray,
                    net: MStepNet) -> list[ConvStage]:
    """Backprop the whole unrolled estimator; returns per-stage weight gradients.

    ``caches`` is the list from :func:`unroll_forward`.  It is consumed:
    each iteration's cache is popped before its backward runs and freed
    once that backward is done, so the list is empty on return and the
    graph shrinks as the backward proceeds.  ``g_x`` is not written to.
    The backward ends at the first stage's weight gradients: iteration 1's
    features and E-step lead only to the flat-prior start state, which
    has no weights, so their backward, and that stage's feature gradient,
    are never computed, and :func:`unroll_forward` keeps no cache for them.
    Within an iteration, each gradient is freed once read: the incoming
    gamma gradient once the stage backward has taken it, the stage's
    g_feats once the features backward has, that backward's g_mu and
    g_tau once added in, and the stage's gamma-gradient image once
    flattened, all before the same iteration's E-step backward, which
    sets the backward's peak.
    """
    ga, gd = op.a.shape[2], op.delay.shape[1]
    depth = len(caches)
    g_mu = g_x
    g_tau = np.zeros_like(g_x, dtype=float)
    g_s = np.zeros(op.shape[:1] + g_x.shape[1:], dtype=complex)
    g_gamma = None
    grads: list[ConvStage | None] = [None] * (depth - 1)
    while caches:
        cache = caches.pop()
        it = cache["it"]
        if it < depth:
            g_feats, g_prev_img, grads[it - 1] = stage_backward(
                net.stages[it - 1], cache["stage"], vec_to_image(g_gamma, ga, gd), grad_input=it > 1)
            del g_gamma
            if it == 1:
                break
            gm, gt = batch_features_backward(g_feats, cache["mu"])
            del g_feats
            # after the last E-step's backward, g_mu and g_tau are this loop's own arrays
            g_mu += gm
            g_tau += gt
            del gm, gt
            g_gamma_res = image_to_vec(g_prev_img)
            del g_prev_img
        else:
            g_gamma_res = 0.0
        amp, ec = cache["e_step"] == "amp", cache["e"]
        del cache  # the stage's part of the graph is freed here, before the E-step backward
        if amp:
            g_mu, g_tau, g_s, gg = _amp_backward(op, ec, g_mu, g_tau, g_s)
        else:
            # the exact posterior depends on gamma alone, not on the previous mu, tau
            gg = _exact_backward(op, ec, g_mu, g_tau)
            g_mu = np.zeros_like(g_mu)
            g_tau = np.zeros_like(g_tau)
            g_s = np.zeros_like(g_s)
        del ec
        g_gamma = gg + g_gamma_res
    return grads


# ---- training loop ----------------------------------------------------------

def _batch_obs(split: _Split, idx, sigma2, rng: np.random.Generator | None) -> np.ndarray:
    """Whitened measurements (M, len(idx)): fresh noise from ``rng``, else the split's fixed noise."""
    y = split.y_clean[:, idx]
    if rng is not None:
        return y + complex_normal(rng, y.size, sigma2).reshape(y.shape, order="F")
    return y + split.noise[:, idx]


def _eval_ratios(net: MStepNet, split: _Split, op: MeasurementOperator,
                 sigma2: float, train_cfg: TrainConfig, depth: int) -> np.ndarray:
    """Per-sample ||H_hat - H||^2 / ||H||^2 over a split with its fixed noise.

    :func:`run_estimator` scores each batch and keeps no backward cache.
    """
    spec = EstimatorSpec(e_step=train_cfg.e_step, m_step="learned", n_iterations=depth, net=net)
    n = split.h.shape[-1]
    ratios = []
    for lo in range(0, n, train_cfg.batch_size):
        idx = np.arange(lo, min(lo + train_cfg.batch_size, n))
        x_hat, _ = run_estimator(spec, op, _batch_obs(split, idx, sigma2, None), sigma2)
        h = split.h[:, :, idx]
        ratios.append(error_ratios(reconstruct_channel(op.dicts, x_hat) - h, h)[0])
    return np.concatenate(ratios)


def validate(net: MStepNet, split: _Split, op: MeasurementOperator,
             sigma2: float, train_cfg: TrainConfig, depth: int) -> float:
    """Mean channel NMSE (linear) over a split with its fixed per-sample noise."""
    return float(np.mean(_eval_ratios(net, split, op, sigma2, train_cfg, depth)))


def test_nmse_db(net: MStepNet, split: _Split, op: MeasurementOperator,
                 sigma2: float, train_cfg: TrainConfig, depth: int) -> float:
    """Channel NMSE in dB (of the mean ratio) with fixed test noise."""
    return 10.0 * np.log10(np.mean(_eval_ratios(net, split, op, sigma2, train_cfg, depth)))


def _batch_gradients(net: MStepNet, split: _Split, idx: np.ndarray, op: MeasurementOperator,
                     sigma2: float, rng: np.random.Generator, depth: int, e_step: str):
    """Loss and per-stage weight gradients of one training batch with fresh noise.

    The gradients are None when the loss is not finite.  No array of the
    batch's graph outlives this call: the backward consumes the caches,
    and the rest dies with this frame.
    """
    y = _batch_obs(split, idx, sigma2, rng)
    x_hat, caches = unroll_forward(op, y, sigma2, net, depth, e_step)
    loss, g_x = _loss_and_grad(x_hat, split, idx, op.dicts)
    del x_hat
    if not np.isfinite(loss):
        return loss, None
    return loss, unroll_backward(op, caches, g_x, net)


def first_depth(initial_net: MStepNet | None, depth: int) -> int:
    """First depth that growing ``initial_net`` (None: a new net) to ``depth`` trains; ValueError if none."""
    first = 2 if initial_net is None else initial_net.n_stages + 2
    if first > depth:
        raise ValueError(f"checkpoint already serves depth {first - 1}; target depth {depth} adds no stages")
    return first


def train_layerwise(train_cfg: TrainConfig, sys_cfg: SystemConfig,
                    op: MeasurementOperator, datasets,
                    initial_net: MStepNet | None = None) -> tuple[MStepNet, TrainReport]:
    """Grow the net from depth 2 to ``train_cfg.depth``, retraining each time.

    ``datasets`` holds the train, val and test channels of
    :func:`generate_splits`, in that order, drawn under ``sys_cfg``.
    Passing ``initial_net`` resumes from a checkpoint: its stages are
    kept as-is and training continues from the next depth, so a resumed
    run only ever appends stages.  Every stage is retrained here, so the
    returned net carries the hash of ``sys_cfg``.
    """
    t0 = time.perf_counter()
    start_depth = first_depth(initial_net, train_cfg.depth)
    sigma2 = sys_cfg.noise_var
    train_h, val_h, test_h = datasets
    train = _prepare_split(train_h, "train", op, sigma2)
    val = _prepare_split(val_h, "val", op, sigma2)
    test = _prepare_split(test_h, "test", op, sigma2)

    if initial_net is None:
        net = MStepNet.create(1, spawn_rng(sys_cfg.rng_seed, "net-init", 0), sys_cfg.config_hash())
    else:
        net = initial_net
        net.config_hash = sys_cfg.config_hash()
    report = TrainReport()
    n_train = train.h.shape[-1]
    for depth in range(start_depth, train_cfg.depth + 1):
        while net.n_stages < depth - 1:
            net.append_stage()
        net.reset_optimizer()
        record = StageRecord(depth=depth)
        lr = train_cfg.learning_rate
        best_weights = net.copy_weights()
        bad_lr = bad_stop = 0
        step = 0
        for epoch in range(1, train_cfg.max_epochs + 1):
            t_epoch = time.perf_counter()
            perm = spawn_rng(sys_cfg.rng_seed, "shuffle", depth, epoch).permutation(n_train)
            train_loss = 0.0
            for bi, lo in enumerate(range(0, n_train, train_cfg.batch_size)):
                idx = perm[lo:lo + train_cfg.batch_size]
                noise_rng = spawn_rng(sys_cfg.rng_seed, "noise", depth, epoch, bi)
                loss, grads = _batch_gradients(net, train, idx, op, sigma2, noise_rng, depth,
                                               train_cfg.e_step)
                if grads is None:
                    raise DivergenceError(
                        f"non-finite loss at depth {depth}, epoch {epoch}, batch {bi}", iteration=depth)
                step += 1
                adam_update(net, grads, step, lr)
                train_loss += loss * len(idx)
            train_loss /= n_train
            t_val = time.perf_counter()
            val_loss = validate(net, val, op, sigma2, train_cfg, depth)
            train_s, val_s = t_val - t_epoch, time.perf_counter() - t_val
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
            record.epochs.append(EpochRecord(depth, epoch, train_loss, val_loss, lr, train_s, val_s, event))
            logger.info("depth %d epoch %d train %.4e val %.4e lr %.1e time %.2f s train + %.2f s val %s",
                        depth, epoch, train_loss, val_loss, lr, train_s, val_s, event)
            if event == "early-stop":
                break
        net.set_weights(best_weights)
        report.stages.append(record)
    report.final_test_nmse_db = test_nmse_db(net, test, op, sigma2, train_cfg,
                                             train_cfg.depth)
    report.wall_time_s = time.perf_counter() - t0
    return net, report
