"""Estimator scoring, complexity accounting, and the sweep harness.

:func:`run_sweep` is the one harness: it scores every algorithm at each
point of an SNR or pilot-use axis, and ``evaluate`` is its one-point
case at the configured use count.  Every row is a :class:`SweepRow`,
and :meth:`SweepResult.write_csv` writes them all under one schema:
``axis,value,algo,iterations,n_samples,flops_total,nmse_db,fail_rate``.

NMSE always means the per-sample ratio ||H - H_hat||_F^2 / ||H||_F^2.
Harnesses average the linear ratios over samples first and convert to
dB last, so the reported number is the mean error energy fraction, and
a single lucky reconstruction cannot drag the average toward -inf.

Complexity numbers are symbolic real-FLOP expressions evaluated over
the configured dimensions.  Each estimator has one entry in
``ALGORITHMS``, which gives its E-step, its M-step and its cost per
iteration, so every row a harness writes has both an NMSE and a cost.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .channel import build_channel, draw_paths
from .config import SystemConfig, noise_var_from_snr_db, provenance_line, spawn_rng
from .dictionaries import build_dictionaries, reconstruct_channel
from .measurement import MeasurementOperator, assemble_operator, draw_combiner, observe_and_transform
from .sbl import DivergenceError, EstimatorSpec, run_estimator

NMSE_FLOOR_DB = -120.0

SWEEP_AXES = ("snr", "q")

SWEEP_CSV_COLUMNS = ("axis", "value", "algo", "iterations", "n_samples", "flops_total", "nmse_db", "fail_rate")


# ---- scoring ----------------------------------------------------------------


def ratio_to_db(ratio: float) -> float:
    """dB value of a linear error ratio, floored to keep files finite."""
    if ratio <= 10.0 ** (NMSE_FLOOR_DB / 10.0):
        return NMSE_FLOOR_DB
    return 10.0 * math.log10(ratio)


def nmse(h_true: np.ndarray, h_hat: np.ndarray) -> tuple[float, float]:
    """Squared-error ratio of one estimate, as (linear, dB)."""
    h_true = np.asarray(h_true)
    h_hat = np.asarray(h_hat)
    if h_true.shape != h_hat.shape:
        raise ValueError(f"shape mismatch: truth {h_true.shape} vs estimate {h_hat.shape}")
    ref = float(np.linalg.norm(h_true) ** 2)
    if ref <= 0.0:
        raise ValueError("reference channel has zero norm; the ratio is undefined")
    ratio = float(np.linalg.norm(h_hat - h_true) ** 2) / ref
    return ratio, ratio_to_db(ratio)


def average_nmse_db(ratios) -> float:
    """Mean of linear per-sample ratios, then dB.

    The expectation sits outside the ratio, so averaging happens in the
    linear domain.  An empty collection (every sample failed) gives NaN.
    """
    arr = np.asarray(list(ratios), dtype=float)
    if arr.size == 0:
        return math.nan
    return ratio_to_db(float(arr.mean()))


# ---- complexity model -------------------------------------------------------


@dataclass(frozen=True)
class FlopsDims:
    """The five integers every complexity expression is written over."""

    k: int       # subcarriers
    m: int       # stacked measurements per tone, n_uses * n_rf
    g: int       # angular-delay grid size, grid_angular * grid_delay
    g_a: int     # angular grid size alone
    n: int       # antennas

    @classmethod
    def from_config(cls, cfg: SystemConfig) -> "FlopsDims":
        return cls(
            k=cfg.n_subcarriers,
            m=cfg.n_uses * cfg.n_rf,
            g=cfg.grid_total,
            g_a=cfg.grid_angular,
            n=cfg.n_antennas,
        )


@dataclass(frozen=True)
class Algorithm:
    """One estimator: the E-step and M-step the solver module runs, and its real FLOPs per iteration."""

    e_step: str
    m_step: str
    flops: Callable[[FlopsDims], int]

    @property
    def learned(self) -> bool:
        return self.m_step == "learned"


# Every estimator the harnesses run, in the order ``squintsbl flops``
# prints them.  Classic AMP-SBL's message-passing products cost 20 real
# FLOPs per measurement-grid product, its update |mu|^2 + tau four per
# grid point, and the learned refiner 432 per grid point.
# This is the paper's dense-product complexity model, which multiplies
# by the full M x G sensing matrix; it is not this implementation's cost.
# The per-tone operator runs an exact E-step in about M^2 G_A + M^3 and
# an AMP E-step in about 20 K G_A (G_D + m) per column (see the E-step
# docstrings in the solver module).  The values stay as the paper's so
# that tradeoff plots place every row on the same scale.
ALGORITHMS: Mapping[str, Algorithm] = {
    "sbl": Algorithm("exact", "classic", lambda d: 16 * (d.k * d.m) ** 2 * d.g),
    "sbl-unfolding": Algorithm("exact", "learned", lambda d: (16 * (d.k * d.m) ** 2 + 432) * d.g),
    "amp-sbl": Algorithm("amp", "classic", lambda d: (20 * d.k * d.m + 4) * d.g),
    "amp-sbl-unfolding": Algorithm("amp", "learned", lambda d: (20 * d.k * d.m + 432) * d.g),
}


def flops_per_iteration(algo: str, cfg: SystemConfig) -> int:
    """Per-iteration real-FLOP count of ``algo`` at the configured sizes."""
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo!r}; known: {sorted(ALGORITHMS)}")
    return int(ALGORITHMS[algo].flops(FlopsDims.from_config(cfg)))


def reconstruction_flops(cfg: SystemConfig) -> int:
    """Cost of mapping the sparse estimate back to the channel: per-tone
    angular synthesis plus the delay-grid mixing."""
    d = FlopsDims.from_config(cfg)
    return 8 * d.k * d.g_a * d.n + 8 * d.k * d.g


# ---- sweep harness ----------------------------------------------------------


def standard_operator(cfg: SystemConfig) -> MeasurementOperator:
    """Assemble the measurement operator the harnesses evaluate against,
    on the frequency-dependent (squint-matched) dictionaries.

    The combiner stream is keyed by the use count, so every Q gets its
    own combiner draw while a fixed Q stays reproducible across runs.
    """
    comb = draw_combiner(cfg, spawn_rng(cfg.rng_seed, "pilot", cfg.n_uses))
    dicts = build_dictionaries(cfg)
    return assemble_operator(cfg, comb, dicts)


def draw_eval_observations(
    op: MeasurementOperator, point_index: int, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Fresh channels and noise for one sweep point, sample-major: (hs (n, N, K), ys (n, M)).

    Streams are keyed by (point, sample), so every point sees new data
    but all algorithms at the point consume byte-identical observations.
    """
    cfg = op.config
    # (n, N, K) but K-major in memory, as build_channel returns each channel: nmse's norms sum in
    # memory order, so the scores round by it
    hs = np.empty((n_samples, cfg.n_subcarriers, cfg.n_antennas), dtype=complex).transpose(0, 2, 1)
    ys = np.empty((n_samples, op.shape[0]), dtype=complex)
    for i in range(n_samples):
        hs[i] = build_channel(cfg, draw_paths(cfg, spawn_rng(cfg.rng_seed, "eval-channel", point_index, i)))
        ys[i] = observe_and_transform(op, hs[i], spawn_rng(cfg.rng_seed, "sweep-noise", point_index, i))
    return hs, ys


def _point_config(cfg: SystemConfig, axis: str, value) -> SystemConfig:
    if axis == "snr":
        return cfg.replace(noise_var=noise_var_from_snr_db(float(value)))
    if axis == "q":
        if not float(value).is_integer():
            raise ValueError(f"pilot use count must be a whole number, got {value!r}")
        return cfg.replace(n_uses=int(value))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def score_algorithm(
    algo: str,
    op: MeasurementOperator,
    hs: np.ndarray,
    ys: np.ndarray,
    n_iterations: int,
    net=None,
) -> tuple[float, float]:
    """(average NMSE in dB, failure rate) of one algorithm over shared data.

    ``hs`` (n, N, K) and ``ys`` (n, M) are the channels and whitened
    measurements of :func:`draw_eval_observations`.  A raised divergence
    (a non-finite or runaway E-step, or a failed posterior solve) or a
    non-finite result counts as a failure and is excluded from the
    average; with zero survivors the NMSE is NaN.  Samples are scored one
    after another on the calling thread, each as a one-column batch.
    """
    entry = ALGORITHMS[algo]
    spec = EstimatorSpec(e_step=entry.e_step, m_step=entry.m_step, n_iterations=n_iterations, net=net)

    ratios = []
    for h, y in zip(hs, ys):
        try:
            x_hat, _ = run_estimator(spec, op, y[:, None], op.config.noise_var)
        except DivergenceError:
            continue
        ratio = nmse(h, reconstruct_channel(op.dicts, x_hat)[..., 0])[0]
        if math.isfinite(ratio):
            ratios.append(ratio)
    return average_nmse_db(ratios), (len(ys) - len(ratios)) / len(ys)


def _csv_float(x: float) -> str:
    """Four decimals, or an empty field for NaN (no score)."""
    return "" if math.isnan(x) else f"{x:.4f}"


@dataclass
class SweepRow:
    """One algorithm at one point: its depth, total FLOPs, average NMSE (NaN if every sample failed)
    and failure rate, in the order of the CSV columns."""

    axis: str
    value: float
    algo: str
    iterations: int
    n_samples: int
    flops_total: int
    nmse_db: float
    fail_rate: float


@dataclass
class SweepResult:
    """Per-point, per-algorithm scores along one axis."""

    axis: str
    rows: list[SweepRow]
    config: SystemConfig

    def write_csv(self, path) -> None:
        """The config's provenance line, then one row per point and algorithm; nmse_db is empty
        when every sample failed."""
        with open(path, "w", newline="") as fh:
            fh.write(provenance_line(self.config) + "\n")
            writer = csv.writer(fh)
            writer.writerow(SWEEP_CSV_COLUMNS)
            for row in self.rows:
                writer.writerow([
                    row.axis,
                    f"{row.value:g}",
                    row.algo,
                    row.iterations,
                    row.n_samples,
                    row.flops_total,
                    _csv_float(row.nmse_db),
                    _csv_float(row.fail_rate),
                ])


def run_sweep(
    axis: str,
    points: Sequence,
    algos: Sequence[str],
    cfg: SystemConfig,
    n_samples: int,
    nets: Mapping | None = None,
    n_iterations: int | None = None,
    n_workers: int = 1,
    progress: Callable[[SweepRow], None] | None = None,
) -> SweepResult:
    """Score estimators along an SNR (dB) or pilot-use axis.

    Each point draws fresh channels and noise; all algorithms at the
    point are scored on the identical observation list, so differences
    between rows at one point are paired.  The operator is reassembled
    per point since the measurement matrix depends on the use count;
    moving only the noise level replays the same combiner draw.
    ``evaluate`` is the one point ``axis="q"``, ``points=[cfg.n_uses]``.

    ``nets`` maps each learned algorithm's name to the trained weights
    it runs with at every point.  ``n_iterations`` is the depth of every
    classic algorithm (None: ``cfg.n_iterations``); a learned one runs
    its network's stage count plus one.  ``progress`` is called with
    each row as it is scored.

    Raises ``ValueError``, before any operator is assembled, for an
    unknown axis, an empty ``points`` or ``algos``, ``n_samples < 1``,
    ``n_iterations < 0``, ``n_workers`` other than 1, an algorithm not
    in ``ALGORITHMS`` or one listed twice, a learned algorithm with no
    entry in ``nets``, a network under a name that is not a learned
    algorithm, or a point whose config is invalid, such as a use count
    that is not a whole number.
    """
    axis = axis.lower()
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    points = list(points)
    if not points:
        raise ValueError("no sweep points given")
    if not algos:
        raise ValueError("no algorithms given")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if n_iterations is not None and n_iterations < 0:
        raise ValueError(f"n_iterations must be non-negative, got {n_iterations}")
    if n_workers != 1:
        raise ValueError(f"n_workers must be 1 (samples are scored one at a time), got {n_workers!r}")
    nets = nets or {}
    learned = sorted(algo for algo, entry in ALGORITHMS.items() if entry.learned)
    for i, algo in enumerate(algos):
        if algo in algos[:i]:
            raise ValueError(f"algorithm {algo!r} is listed twice")
        if algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algo!r}; expected one of {sorted(ALGORITHMS)}")
        if algo in learned and algo not in nets:
            raise ValueError(f"no trained network supplied for {algo!r}")
    for name in nets:
        if name not in learned:
            raise ValueError(f"a network was supplied for {name!r}, which is not a learned algorithm; "
                             f"learned: {learned}")
    point_cfgs = [_point_config(cfg, axis, value) for value in points]

    classic_depth = cfg.n_iterations if n_iterations is None else n_iterations
    rows: list[SweepRow] = []
    for pi, (value, cfg_point) in enumerate(zip(points, point_cfgs)):
        op = standard_operator(cfg_point)
        hs, ys = draw_eval_observations(op, pi, n_samples)
        for algo in algos:
            net = nets[algo] if ALGORITHMS[algo].learned else None
            n_iter = classic_depth if net is None else net.n_stages + 1
            nmse_db, fail_rate = score_algorithm(algo, op, hs, ys, n_iter, net)
            flops = flops_per_iteration(algo, cfg_point) * n_iter + reconstruction_flops(cfg_point)
            row = SweepRow(axis, float(value), algo, n_iter, n_samples, flops, nmse_db, fail_rate)
            rows.append(row)
            if progress is not None:
                progress(row)
        del op, hs, ys  # freed before the next point assembles its own
    return SweepResult(axis=axis, rows=rows, config=cfg)


def run_tradeoff(
    algos: Sequence[str],
    cfg: SystemConfig,
    n_samples: int,
    nets: Mapping | None = None,
    n_iterations: int | None = None,
    n_workers: int = 1,
) -> list[SweepRow]:
    """The rows of ``evaluate``: a one-point pilot-use sweep at ``cfg.n_uses``.

    bench/workloads.py scores through this name; it is kept until ROADMAP
    item 2 moves the benchmark to :func:`run_sweep`.
    """
    return run_sweep("q", [cfg.n_uses], algos, cfg, n_samples, nets, n_iterations, n_workers).rows
