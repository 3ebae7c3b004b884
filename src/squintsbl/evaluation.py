"""Estimator scoring, complexity accounting, and sweep drivers.

NMSE always means the per-sample ratio ||H - H_hat||_F^2 / ||H||_F^2.
Harnesses average the linear ratios over samples first and convert to
dB last, so the reported number is the mean error energy fraction, and
a single lucky reconstruction cannot drag the average toward -inf.

Complexity numbers are symbolic real-FLOP expressions evaluated over
the configured dimensions.  Two reference-only rows are kept in the
table so tradeoff plots can place known baselines on the complexity
axis without those algorithms being implemented here.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .channel import ChannelRealization, build_channel, draw_paths
from .config import SystemConfig, noise_var_from_snr_db, provenance_line, spawn_rng
from .dictionaries import build_dictionaries, reconstruct_channel
from .measurement import (
    MeasurementOperator,
    Observation,
    assemble_operator,
    draw_combiner,
    observe_and_transform,
)
from .sbl import DivergenceError, EstimatorSpec, run_estimator

NMSE_FLOOR_DB = -120.0

SWEEP_AXES = ("snr", "q")

# Estimator variants the sweep harness can actually run, as
# (e_step, m_step) pairs understood by the solver module.
SWEEP_ALGOS: Mapping[str, tuple[str, str]] = {
    "sbl": ("exact", "classic"),
    "sbl-unfolding": ("exact", "learned"),
    "amp-sbl": ("amp", "classic"),
    "amp-sbl-unfolding": ("amp", "learned"),
}
_LEARNED = {algo for algo, (_, m_step) in SWEEP_ALGOS.items() if m_step == "learned"}


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


# Real FLOPs for one estimator iteration.  The first four rows are the
# implemented angular-delay estimators; the last two are reference
# positions for the tradeoff plane (not implemented in this package);
# ``squintsbl flops`` prints every row of this table and the next.
# Classic AMP-SBL's message-passing products cost 20 real FLOPs per
# measurement-grid product, and its update |mu|^2 + tau four per grid point.
# This is the paper's dense-product complexity model, which multiplies
# by the full M x G sensing matrix; it is not this implementation's cost.
# The per-tone operator runs an exact E-step in about M^2 G_A + M^3 and
# an AMP E-step in about 20 K G_A (G_D + m) per column (see the E-step
# docstrings in the solver module).  The values stay as the paper's so
# that tradeoff plots place every row on the same scale.
PER_ITERATION_FLOPS: Mapping[str, Callable[[FlopsDims], int]] = {
    "sbl": lambda d: 16 * (d.k * d.m) ** 2 * d.g,
    "sbl-unfolding": lambda d: (16 * (d.k * d.m) ** 2 + 432) * d.g,
    "amp-sbl": lambda d: (20 * d.k * d.m + 4) * d.g,
    "amp-sbl-unfolding": lambda d: (20 * d.k * d.m + 432) * d.g,
    "sbl-af": lambda d: 16 * d.k * d.m ** 2 * d.g_a,
    "lista-reference": lambda d: 4 * d.k * ((4 * d.m + 256) * d.n + 32768),
}

# Mapping the estimated sparse vector back to an antenna-frequency
# channel: per-tone angular synthesis for both families, plus the
# delay-grid mixing that only the angular-delay family performs.
RECONSTRUCTION_FLOPS: Mapping[str, Callable[[FlopsDims], int]] = {
    "AF": lambda d: 8 * d.k * d.g_a * d.n,
    "AD": lambda d: 8 * d.k * d.g_a * d.n + 8 * d.k * d.g,
}


def flops_per_iteration(algo: str, cfg: SystemConfig) -> int:
    """Per-iteration real-FLOP count of ``algo`` at the configured sizes."""
    if algo not in PER_ITERATION_FLOPS:
        raise ValueError(f"unknown algorithm {algo!r}; known: {sorted(PER_ITERATION_FLOPS)}")
    return int(PER_ITERATION_FLOPS[algo](FlopsDims.from_config(cfg)))


def reconstruction_flops(family: str, cfg: SystemConfig) -> int:
    """Cost of mapping the sparse estimate back to the channel ("AF" or "AD")."""
    family = family.upper()
    if family not in RECONSTRUCTION_FLOPS:
        raise ValueError(f"unknown estimator family {family!r}; known: {sorted(RECONSTRUCTION_FLOPS)}")
    return int(RECONSTRUCTION_FLOPS[family](FlopsDims.from_config(cfg)))


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
) -> list[Observation]:
    """Fresh channels and noise for one sweep point.

    Streams are keyed by (point, sample), so every point sees new data
    but all algorithms at the point consume byte-identical observations.
    """
    cfg = op.config
    out = []
    for i in range(n_samples):
        paths = draw_paths(cfg, spawn_rng(cfg.rng_seed, "eval-channel", point_index, i))
        chan = ChannelRealization(paths=paths, h=build_channel(cfg, paths))
        out.append(observe_and_transform(op, chan, spawn_rng(cfg.rng_seed, "sweep-noise", point_index, i)))
    return out


def _point_config(cfg: SystemConfig, axis: str, value) -> SystemConfig:
    if axis == "snr":
        return cfg.replace(noise_var=noise_var_from_snr_db(float(value)))
    if axis == "q":
        if not float(value).is_integer():
            raise ValueError(f"pilot use count must be a whole number, got {value!r}")
        return cfg.replace(n_uses=int(value))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def _check_request(algos: Sequence[str], n_samples: int, nets: Mapping, known: Mapping) -> None:
    """Raise ``ValueError`` for a request neither harness can score.

    Both harnesses call this before they assemble an operator, so a bad
    request fails at once: ``n_samples < 1``, a name not in ``known``,
    or a learned algorithm with no network under its name in ``nets``.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    for algo in algos:
        if algo not in known:
            raise ValueError(f"unknown algorithm {algo!r}; expected one of {sorted(known)}")
        if algo in _LEARNED and algo not in nets:
            raise ValueError(f"no trained network supplied for {algo!r}")


def score_algorithm(
    algo: str,
    op: MeasurementOperator,
    observations: Sequence[Observation],
    n_iterations: int,
    net=None,
    n_workers: int = 1,
) -> tuple[float, float]:
    """(average NMSE in dB, failure rate) of one algorithm over shared data.

    A raised divergence (a non-finite or runaway E-step, or a failed
    posterior solve) or a non-finite result counts as a failure and is
    excluded from the average; with zero survivors the NMSE is NaN.
    Samples are independent, so ``n_workers`` threads may score them in
    parallel; the reduction is ordered, so results do not depend on the
    worker count.
    """
    e_step, m_step = SWEEP_ALGOS[algo]
    spec = EstimatorSpec(e_step=e_step, m_step=m_step, n_iterations=n_iterations, net=net)

    def one(obs: Observation):
        try:
            x_hat, _ = run_estimator(spec, op, obs.y, op.config.noise_var)
        except DivergenceError:
            return None
        ratio = nmse(obs.h, reconstruct_channel(op.dicts, x_hat))[0]
        return ratio if math.isfinite(ratio) else None

    if n_workers > 1:
        with ThreadPoolExecutor(max_workers=min(n_workers, len(observations))) as pool:
            results = list(pool.map(one, observations))
    else:
        results = [one(obs) for obs in observations]
    ratios = [r for r in results if r is not None]
    failures = sum(1 for r in results if r is None)
    return average_nmse_db(ratios), failures / len(observations)


def _score_point(algos: Sequence[str], cfg: SystemConfig, point_index: int, n_samples: int,
                 nets: Mapping, n_iterations: int | None, n_workers: int):
    """Score runnable ``algos`` on one shared draw at ``cfg``.

    Assembles the operator, draws the point's observations, then yields
    ``(algo, iterations, total FLOPs, NMSE dB, failure rate)`` as each
    algorithm in ``algos`` finishes.  A classic algorithm runs
    ``n_iterations`` (None: ``cfg.n_iterations``), a learned one its
    network's stage count plus one.
    """
    op = standard_operator(cfg)
    observations = draw_eval_observations(op, point_index, n_samples)
    classic_depth = cfg.n_iterations if n_iterations is None else n_iterations
    for algo in algos:
        net = nets[algo] if algo in _LEARNED else None
        n_iter = classic_depth if net is None else net.n_stages + 1
        nmse_db, fail_rate = score_algorithm(algo, op, observations, n_iter, net, n_workers)
        flops = flops_per_iteration(algo, cfg) * n_iter + reconstruction_flops("AD", cfg)
        yield algo, n_iter, flops, nmse_db, fail_rate


def _csv_float(x: float) -> str:
    """Four decimals, or an empty field for NaN (no score)."""
    return "" if math.isnan(x) else f"{x:.4f}"


@dataclass
class SweepRow:
    axis: str
    value: float
    algo: str
    nmse_db: float
    n_samples: int
    flops_total: int
    fail_rate: float


@dataclass
class SweepResult:
    """Per-point, per-algorithm scores along one axis."""

    axis: str
    rows: list[SweepRow]
    config: SystemConfig

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(provenance_line(self.config) + "\n")
            writer = csv.writer(fh)
            writer.writerow(["axis", "value", "algo", "nmse_db", "n_samples", "flops_total", "fail_rate"])
            for row in self.rows:
                writer.writerow([
                    row.axis,
                    f"{row.value:g}",
                    row.algo,
                    _csv_float(row.nmse_db),
                    row.n_samples,
                    row.flops_total,
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

    ``nets`` maps each learned algorithm's name to the trained weights
    it runs with at every point.  ``n_iterations`` is the depth of every
    classic algorithm (None: ``cfg.n_iterations``); learned depths
    always come from the network's stage count.

    Raises ``ValueError``, before any operator is assembled, for an
    unknown axis, an empty ``points``, ``n_samples < 1``, an algorithm
    the harness cannot run, a learned algorithm with no entry in
    ``nets``, or a point whose config is invalid, such as a use count
    that is not a whole number.
    """
    axis = axis.lower()
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")
    points = list(points)
    if not points:
        raise ValueError("no sweep points given")
    nets = nets or {}
    _check_request(algos, n_samples, nets, SWEEP_ALGOS)
    point_cfgs = [_point_config(cfg, axis, value) for value in points]
    rows: list[SweepRow] = []
    for pi, (value, cfg_point) in enumerate(zip(points, point_cfgs)):
        for algo, _, flops, nmse_db, fail_rate in _score_point(
                algos, cfg_point, pi, n_samples, nets, n_iterations, n_workers):
            row = SweepRow(axis, float(value), algo, nmse_db, n_samples, flops, fail_rate)
            rows.append(row)
            if progress is not None:
                progress(row)
    return SweepResult(axis=axis, rows=rows, config=cfg)


# ---- complexity/performance tradeoff ----------------------------------------


@dataclass
class TradeoffRow:
    algo: str
    flops: int
    nmse_db: float
    iterations: int
    fail_rate: float = math.nan


def run_tradeoff(
    algos: Sequence[str],
    cfg: SystemConfig,
    n_samples: int,
    nets: Mapping | None = None,
    n_iterations: int | None = None,
    n_workers: int = 1,
) -> list[TradeoffRow]:
    """Total-cost versus accuracy points at the configured operating point.

    Runnable algorithms are scored over fresh shared samples.  A
    reference-only name from the complexity table yields its
    per-iteration cost with an empty NMSE, which is enough to place it
    on the complexity axis of a tradeoff plot.

    Raises ``ValueError``, before the operator is assembled, for
    ``n_samples < 1``, for a name that is neither runnable nor in the
    complexity table, and for a learned algorithm with no entry in
    ``nets``.
    """
    nets = nets or {}
    _check_request(algos, n_samples, nets, PER_ITERATION_FLOPS)
    runnable = [algo for algo in algos if algo in SWEEP_ALGOS]
    scored = {}
    if runnable:
        for algo, n_iter, flops, nmse_db, fail_rate in _score_point(
                runnable, cfg, 0, n_samples, nets, n_iterations, n_workers):
            scored[algo] = TradeoffRow(algo, flops, nmse_db, n_iter, fail_rate)
    return [scored[algo] if algo in scored else TradeoffRow(algo, flops_per_iteration(algo, cfg), math.nan, 1)
            for algo in algos]


def write_tradeoff_csv(rows: Sequence[TradeoffRow], path, cfg: SystemConfig) -> None:
    """One row per algorithm; a reference-only row leaves nmse_db and fail_rate empty."""
    with open(path, "w", newline="") as fh:
        fh.write(provenance_line(cfg) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["algo", "flops", "nmse_db", "iterations", "fail_rate"])
        for row in rows:
            writer.writerow([
                row.algo,
                row.flops,
                _csv_float(row.nmse_db),
                row.iterations,
                _csv_float(row.fail_rate),
            ])
