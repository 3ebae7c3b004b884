"""Learned convolutional variance update for unfolded estimators.

Each unfolded iteration owns a small residual refiner: the posterior
statistics |mu|^2 and tau, the two terms of the classic update
gamma = |mu|^2 + tau, are reshaped to a two-channel angular-delay
image, passed through conv(3x3, 2->8) + ReLU + conv(3x3, 8->1), and the
result is added to the previous variance image before a final ReLU:

    gamma_new = relu(gamma_prev + conv2(relu(conv1(features))))

Inference and training both run it as :func:`mstep_forward`, on a batch
(G, B) of statistics.  Everything here is plain numpy with hand-derived
backward passes, so gradients are exact up to floating point and
verifiable by finite differences.

Convolutions use zero padding and keep the image size.  Each is one
batched matrix product on the side of the layer with fewer channels.
When the input has no more channels than the output (C <= O, the 2->8
layer), the kh*kw shifted slices of the padded input are copied into a
(C*kh*kw, H*W) array per image and multiplied by the (O, C*kh*kw)
kernel.  Otherwise (the 8->1 layer) the (O*kh*kw, C) kernel multiplies
the padded input, and the kh*kw shifted slices of that product are
summed.  Either way a layer costs about O*C*kh*kw multiply-adds per
pixel.  The backward pass uses the same two forms, recomputing the slices
instead of keeping them from the forward pass.

A convolution takes every image it is given in one pass, so its
temporaries grow with its batch.  The refiner stage is the one place
that blocks the batch: its forward and backward walk it in blocks of as
many images as keep one block's hidden layer and convolution
temporaries within ``_BLOCK_BYTES`` (1 MiB), at least one: one image at
64x64 with 8 hidden channels, 15 at 16x16.  Each convolution runs per
block, so neither the hidden layer nor a convolution temporary ever
exists at batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import SystemConfig
from .data_io import load_container, save_container

HIDDEN_CHANNELS = 8
KERNEL = 3


# ---- image/vector layout ----------------------------------------------------

def vec_to_image(v: np.ndarray, ga: int, gd: int) -> np.ndarray:
    """Coefficient vectors (G, B) to images (B, G_A, G_D).

    Vector entry m maps to pixel (m mod G_A, m div G_A), matching the
    column-stacked coefficient matrix.
    """
    return v.T.reshape(v.shape[1], gd, ga).swapaxes(1, 2)


def image_to_vec(img: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec_to_image`; returns (G, B)."""
    return img.swapaxes(1, 2).reshape(img.shape[0], -1).T


# ---- convolution with hand-written backward ---------------------------------

def _check_conv_shapes(x: np.ndarray, w: np.ndarray) -> None:
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError(f"need x (B, C, H, W) and w (O, C, kh, kw), got {x.shape} and {w.shape}")
    if w.shape[2] % 2 == 0 or w.shape[3] % 2 == 0:
        raise ValueError(f"same-size convolution needs an odd kernel, got {w.shape[2]}x{w.shape[3]}")
    if x.shape[1] != w.shape[1]:
        raise ValueError(f"input has {x.shape[1]} channels, the kernel expects {w.shape[1]}")


# Budget for one block of a refiner stage: its hidden layer and the
# temporaries of the convolutions it runs (see _stage_blocks).  A block
# is as many images as fit in it, at least one.
_BLOCK_BYTES = 1 << 20


def _block_images(n: int, per_image: int) -> int:
    """Images per block, out of ``n``, when each needs ``per_image`` bytes of temporaries."""
    return max(1, min(n, _BLOCK_BYTES // per_image))


def _padded(x: np.ndarray, kh: int, kw: int, dtype) -> np.ndarray:
    """Images x, as ``dtype``, with a zero border of kh // 2 rows and kw // 2 columns on each side."""
    n, c, h, wd = x.shape
    xp = np.zeros((n, c, h + kh - 1, wd + kw - 1), dtype=dtype)
    xp[:, :, kh // 2:kh // 2 + h, kw // 2:kw // 2 + wd] = x
    return xp


def _windows(xp: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """The kh*kw shifted h x w slices of padded images xp, copied out as (B, C*kh*kw, h*w)."""
    n, c, hp, wp = xp.shape
    h, wd = hp - kh + 1, wp - kw + 1
    cols = np.empty((n, c, kh, kw, h, wd), dtype=xp.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + h, j:j + wd]
    return cols.reshape(n, -1, h * wd)


def _correlate(x: np.ndarray, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-padded same-size correlation without bias; x (B,C,H,W), w (O,C,kh,kw).

    One batched GEMM over all B images, on the side with fewer channels:
    for C <= O the (O, C*kh*kw) kernel times the shifted input slices,
    written into ``out``; for C > O the (O*kh*kw, C) kernel times the
    padded input, whose shifted slices are then summed into ``out``.
    The padded input and the windows or projection are temporaries of
    batch size: callers that need them small pass few images.
    """
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    dtype = np.result_type(x, w)
    xp = _padded(x, kh, kw, dtype)
    if out is None:
        out = np.empty((n, o, h, wd), dtype=dtype)
    if c <= o:
        np.matmul(w.reshape(o, -1), _windows(xp, kh, kw), out=out.reshape(n, o, -1))
        return out
    proj = np.matmul(w.transpose(0, 2, 3, 1).reshape(-1, c), xp.reshape(n, c, -1))
    proj = proj.reshape((n, o, kh, kw) + xp.shape[2:])
    out[...] = 0.0
    for i in range(kh):
        for j in range(kw):
            out += proj[:, :, i, j, i:i + h, j:j + wd]
    return out


def conv2d_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zero-padded same-size correlation; x (B,C,H,W), w (O,C,kh,kw), odd kh and kw."""
    _check_conv_shapes(x, w)
    out = _correlate(x, w)
    out += b[:, None, None]
    return out


def conv2d_same_backward(x: np.ndarray, w: np.ndarray, grad_out: np.ndarray,
                         out: np.ndarray | None = None, grad_input: bool = True):
    """Gradients of a same-size correlation: returns (g_x, g_w, g_b).

    g_w is one batched GEMM over all B images, whose per-image products
    are summed over the images in batch order: ``grad_out`` times the
    input windows when C <= O, or, when C > O, a padded canvas holding
    ``grad_out`` at each of the kh*kw offsets times the padded input.
    g_x is :func:`_correlate` of ``grad_out`` with the flipped,
    transposed kernel, written into ``out`` if given; it comes after
    every read of ``x``, so ``out`` may be ``x``.  With
    ``grad_input=False`` it is not computed and None is returned in its
    place.
    """
    _check_conv_shapes(x, w)
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    xp = _padded(x, kh, kw, np.result_type(x, grad_out))
    if c <= o:
        prod = np.matmul(grad_out.reshape(n, o, -1), _windows(xp, kh, kw).transpose(0, 2, 1))
    else:
        canvas = np.zeros((n, o, kh, kw) + xp.shape[2:], dtype=xp.dtype)
        for i in range(kh):
            for j in range(kw):
                canvas[:, :, i, j, i:i + h, j:j + wd] = grad_out
        prod = np.matmul(canvas.reshape(n, o * kh * kw, -1), xp.reshape(n, c, -1).transpose(0, 2, 1))
    grad_w = prod.sum(axis=0)
    if c <= o:
        grad_w = grad_w.reshape(w.shape)
    else:
        grad_w = grad_w.reshape(o, kh, kw, c).transpose(0, 3, 1, 2)
    grad_b = grad_out.sum(axis=(0, 2, 3))
    if not grad_input:
        return None, grad_w, grad_b
    grad_x = _correlate(grad_out, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), out)
    return grad_x, grad_w, grad_b


# ---- network container ------------------------------------------------------

@dataclass
class ConvStage:
    """Weights of one iteration's refiner, or their gradients."""

    w1: np.ndarray  # (hidden, 2, 3, 3)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (1, hidden, 3, 3)
    b2: np.ndarray  # (1,)

    def copy(self) -> "ConvStage":
        return ConvStage(**{name: getattr(self, name).copy() for name in _PARAM_NAMES})


_PARAM_NAMES = tuple(f.name for f in fields(ConvStage))


def init_stage(rng: np.random.Generator) -> ConvStage:
    """He-initialized filters, zero biases."""
    w1 = rng.standard_normal((HIDDEN_CHANNELS, 2, KERNEL, KERNEL)) * np.sqrt(2.0 / (2 * KERNEL * KERNEL))
    w2 = rng.standard_normal((1, HIDDEN_CHANNELS, KERNEL, KERNEL)) * np.sqrt(
        2.0 / (HIDDEN_CHANNELS * KERNEL * KERNEL)
    )
    return ConvStage(w1=w1, b1=np.zeros(HIDDEN_CHANNELS), w2=w2, b2=np.zeros(1))


class MStepNet:
    """Per-iteration refiner weights plus optimizer slots.

    A depth-L unfolded estimator holds L-1 stages: the variance update
    after the final iteration would never be consumed.  ``config_hash``
    names the system config the net was trained under; ``config``, that
    config as a dict, is known only for a net loaded from a checkpoint
    that stored it, and is None otherwise.
    """

    def __init__(self, stages: list[ConvStage], config_hash: str = "", config: dict | None = None):
        self.stages = stages
        self.config_hash = config_hash
        self.config = config
        self.reset_optimizer()

    @property
    def n_stages(self) -> int:
        return len(self.stages)

    @classmethod
    def create(cls, n_stages: int, rng: np.random.Generator, config_hash: str = "") -> "MStepNet":
        return cls([init_stage(rng) for _ in range(n_stages)], config_hash)

    def append_stage(self) -> None:
        """Grow by one iteration, seeding it with the last stage's weights."""
        if not self.stages:
            raise ValueError("cannot copy from an empty network")
        self.stages.append(self.stages[-1].copy())
        self.reset_optimizer()

    def reset_optimizer(self) -> None:
        self.adam_m = [{n: np.zeros_like(getattr(s, n)) for n in _PARAM_NAMES} for s in self.stages]
        self.adam_v = [{n: np.zeros_like(getattr(s, n)) for n in _PARAM_NAMES} for s in self.stages]

    def copy_weights(self) -> list[ConvStage]:
        return [s.copy() for s in self.stages]

    def set_weights(self, stages: list[ConvStage]) -> None:
        if len(stages) != len(self.stages):
            raise ValueError("stage count mismatch")
        self.stages = [s.copy() for s in stages]


def adam_update(net: MStepNet, grads: list[ConvStage], step: int, lr: float,
                beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """In-place Adam with bias correction; ``step`` starts at 1."""
    if len(grads) != net.n_stages:
        raise ValueError("need one gradient set per stage")
    for stage, g, m, v in zip(net.stages, grads, net.adam_m, net.adam_v):
        for name in _PARAM_NAMES:
            g_t = getattr(g, name)
            m[name] = beta1 * m[name] + (1.0 - beta1) * g_t
            v[name] = beta2 * v[name] + (1.0 - beta2) * g_t * g_t
            m_hat = m[name] / (1.0 - beta1**step)
            v_hat = v[name] / (1.0 - beta2**step)
            getattr(stage, name)[...] -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---- features ---------------------------------------------------------------

def build_features(mu: np.ndarray, tau_x: np.ndarray, ga: int, gd: int) -> np.ndarray:
    """Features (B, 2, G_A, G_D) from (G, B) statistics.

    Channel 0 is the posterior mean power |mu|^2 and channel 1 the
    posterior variance tau: the two terms of the classic update.
    """
    return np.stack([vec_to_image(np.abs(mu) ** 2, ga, gd), vec_to_image(tau_x, ga, gd)], axis=1)


def batch_features_backward(g_feats: np.ndarray, mu: np.ndarray):
    """Pull feature gradients back onto (mu, tau); returns (g_mu, g_tau).

    Complex gradients follow the d/dRe + j d/dIm convention.
    """
    # both images are copied out before the product: built in the product's wake instead, g_tau
    # raised the train benchmark's peak RSS from 285 to 311 MB with the same bits
    g0 = image_to_vec(g_feats[:, 0])
    g_tau = image_to_vec(g_feats[:, 1])
    return 2.0 * g0 * mu, g_tau


# ---- one refiner stage, forward and backward --------------------------------

def _hidden(stage: ConvStage, feats: np.ndarray) -> np.ndarray:
    """The hidden layer relu(conv1(feats)), its ReLU applied in place on the conv output.

    The forward and the backward both build it here, so the backward's
    rebuild is the forward's h1 bit for bit.
    """
    h1 = conv2d_same(feats, stage.w1, stage.b1)
    np.maximum(h1, 0.0, out=h1)
    return h1


def _stage_blocks(stage: ConvStage, feats: np.ndarray):
    """Slices of the batch in blocks of as many images as fit in ``_BLOCK_BYTES``, at least one.

    An image of H x W pixels is charged (2*hidden + C_in*kh*kw)*H*W
    values: its hidden layer (hidden channels), plus the largest
    temporaries of the stage's convolutions, those of g_feats in the
    backward: the zero-bordered hidden gradient (hidden channels) and
    its projection onto the C_in input channels at each of the kh*kw
    offsets.  At 8 hidden channels, 2 inputs and a 3x3 kernel that is
    34 values per pixel: one float64 image per block at 64x64, 15 at
    16x16.
    """
    n, c_in, h, wd = feats.shape
    hidden, _, kh, kw = stage.w1.shape
    itemsize = np.result_type(feats, stage.w1).itemsize
    nb = _block_images(n, (2 * hidden + c_in * kh * kw) * h * wd * itemsize)
    return [slice(lo, lo + nb) for lo in range(0, n, nb)]


def stage_forward(stage: ConvStage, feats: np.ndarray, gamma_img: np.ndarray):
    """Apply one stage to (B, 2, G_A, G_D) features and (B, G_A, G_D) gamma.

    Returns the new gamma image and the cache needed for backprop:
    (feats, gamma_new).  The batch runs in the blocks of
    :func:`_stage_blocks`, each block's conv1, ReLU, conv2, residual and
    ReLU in turn, written into one output array.  So the hidden layer h1
    and the convolutions' temporaries exist only at block size (about
    1 MiB), never at batch size (h1 alone is 32 MiB at B = 128 and the default
    size).  h1 is freed once conv2 has read it, and
    :func:`stage_backward` rebuilds it from feats.  Every operation is
    per image, so the result does not depend on the blocking.  Both
    ReLUs and the residual are applied in place on the conv outputs,
    whose pre-activation values are never read again: the backward takes
    each ReLU's mask from its output, since relu(z) > 0 exactly where
    z > 0.  The cached gamma_new is the returned array itself, so the
    cache holds no extra copy of it; callers must not write into it.
    """
    out = np.empty(gamma_img.shape, dtype=np.result_type(feats, stage.w1, stage.w2))
    for blk in _stage_blocks(stage, feats):
        ob = out[blk]
        np.add(conv2d_same(_hidden(stage, feats[blk]), stage.w2, stage.b2)[:, 0], gamma_img[blk], out=ob)
        np.maximum(ob, 0.0, out=ob)
    return out, (feats, out)


def stage_backward(stage: ConvStage, cache, g_gamma_new: np.ndarray, grad_input: bool = True):
    """Backprop one stage; returns (g_feats, g_gamma_prev, weight gradients as a ConvStage).

    ``g_gamma_new`` is not written to.  The cache (feats, gamma_new) is
    read, not written.  The batch runs in the forward's blocks: per
    block, the hidden layer h1 is rebuilt from feats, one conv more than
    the forward, and the hidden gradient is written over it once its
    ReLU mask is taken.  So the backward's hidden arrays and convolution
    temporaries are of block size (about 1 MiB), never of batch size.  Each
    block's g_feats is written into its slice of one array, and the
    weight gradients are added up block by block: g_feats and
    g_gamma_prev do not depend on the blocking, the weight gradients
    only to rounding.  With ``grad_input=False`` g_feats, one conv of
    the hidden gradient, is not computed and is None: the first stage's
    features lead only to the start state.
    """
    feats, out = cache
    g_pre2 = g_gamma_new * (out > 0)
    g_feats = np.empty(feats.shape, dtype=np.result_type(feats, stage.w1)) if grad_input else None
    grads = {name: np.zeros_like(getattr(stage, name)) for name in _PARAM_NAMES}
    for blk in _stage_blocks(stage, feats):
        h1 = _hidden(stage, feats[blk])
        mask = h1 > 0
        g_h1, g_w2, g_b2 = conv2d_same_backward(h1, stage.w2, g_pre2[blk, None], out=h1)
        g_h1 *= mask
        _, g_w1, g_b1 = conv2d_same_backward(feats[blk], stage.w1, g_h1, grad_input=grad_input,
                                             out=None if g_feats is None else g_feats[blk])
        for name, g in zip(_PARAM_NAMES, (g_w1, g_b1, g_w2, g_b2)):
            grads[name] += g
    return g_feats, g_pre2, ConvStage(**grads)


def mstep_forward(net: MStepNet, iteration: int, mu: np.ndarray, tau_x: np.ndarray,
                  gamma: np.ndarray, ga: int, gd: int):
    """The learned variance update of 1-based ``iteration`` on (G, B) statistics.

    Builds the features of ``mu`` and ``tau_x``, applies the iteration's
    stage with ``gamma`` as the residual, and returns the refined gamma,
    (G, B), together with the stage's cache for :func:`stage_backward`.
    """
    if not 1 <= iteration <= net.n_stages:
        raise ValueError(f"iteration {iteration} outside 1..{net.n_stages}")
    feats = build_features(mu, tau_x, ga, gd)
    out, cache = stage_forward(net.stages[iteration - 1], feats, vec_to_image(gamma, ga, gd))
    return image_to_vec(out), cache


# ---- persistence ------------------------------------------------------------

_NET_KIND = "mstep-net"


def save_checkpoint(net: MStepNet, path, cfg: SystemConfig | None = None) -> None:
    meta = {"n_stages": net.n_stages, "config_hash": net.config_hash}
    if cfg is not None:
        meta["config"] = cfg.to_dict()
    arrays = {}
    for i, stage in enumerate(net.stages):
        for name in _PARAM_NAMES:
            arrays[f"stage{i}/{name}"] = getattr(stage, name)
    save_container(path, _NET_KIND, meta, arrays)


def _check_stage(path, i: int, params: dict) -> None:
    """Each stage must be the refiner :func:`init_stage` builds: real floating, finite arrays of a
    (2 -> HIDDEN_CHANNELS -> 1) net with KERNEL x KERNEL filters."""
    for name, arr in params.items():
        if not np.issubdtype(arr.dtype, np.floating):
            raise ValueError(f"{path}: checkpoint stage {i}: {name} has dtype {arr.dtype}, "
                             "expected a real floating type")
        if not np.isfinite(arr).all():
            raise ValueError(f"{path}: checkpoint stage {i}: {name} has a non-finite entry")
    hidden, k = HIDDEN_CHANNELS, KERNEL
    expected = {"w1": (hidden, 2, k, k), "b1": (hidden,), "w2": (1, hidden, k, k), "b2": (1,)}
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise ValueError(f"{path}: checkpoint stage {i}: {name} has shape {params[name].shape}, "
                             f"expected {shape}")


def load_checkpoint(path) -> MStepNet:
    """Read a network that :func:`save_checkpoint` wrote.

    Raises ``ValueError`` naming ``path`` unless the metadata is an
    object with a ``config_hash``, an ``n_stages`` that is a
    non-negative int (not a bool) and, if present, a ``config`` that is an
    object, and the arrays are exactly
    ``stage{i}/{w1,b1,w2,b2}`` for ``i < n_stages``, each real floating,
    finite and of the shape :func:`init_stage` builds.  A file that is not a
    readable checkpoint container raises :class:`ContainerError`.
    """
    _, meta, arrays = load_container(path, expect_kind=_NET_KIND)
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: checkpoint metadata is a {type(meta).__name__}, not an object")
    for key in ("n_stages", "config_hash"):
        if key not in meta:
            raise ValueError(f"{path}: checkpoint has no {key!r} entry")
    n_stages = meta["n_stages"]
    if type(n_stages) is not int or n_stages < 0:
        raise ValueError(f"{path}: checkpoint n_stages must be a non-negative int, got {n_stages!r}")
    config = meta.get("config")
    if config is not None and not isinstance(config, dict):
        raise ValueError(f"{path}: checkpoint config is a {type(config).__name__}, not an object")
    stages = []
    for i in range(n_stages):
        missing = [f"stage{i}/{name}" for name in _PARAM_NAMES if f"stage{i}/{name}" not in arrays]
        if missing:
            raise ValueError(f"{path}: checkpoint has no {', '.join(missing)} array")
        params = {name: arrays.pop(f"stage{i}/{name}") for name in _PARAM_NAMES}
        _check_stage(path, i, params)
        stages.append(ConvStage(**params))
    if arrays:
        raise ValueError(f"{path}: checkpoint of {n_stages} stages also holds {', '.join(sorted(arrays))}")
    return MStepNet(stages, meta["config_hash"], config)
