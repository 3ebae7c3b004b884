"""The three benchmark workloads and the output gate.

Each workload drives one public library entry point the way the matching
CLI subcommand does (``evaluate`` -> ``run_tradeoff``, ``sweep`` ->
``run_sweep``, ``train`` -> ``train_layerwise``), in one process with one
scoring worker.  The benchmark seed becomes ``SystemConfig.rng_seed``;
the library only ever sees the generated config and the inputs built
from it.

A round is one timed call of the entry point.  Every round of a run
repeats the same call on the same inputs, so all rounds must give the
same scores; the first round's scores are the run's quality result.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

from squintsbl import evaluation
from squintsbl.config import SystemConfig, default_config, desk_config, spawn_rng
from squintsbl.evaluation import run_sweep, run_tradeoff, standard_operator
from squintsbl.mstep import MStepNet
from squintsbl.training import TrainConfig, TrainingDivergence, generate_splits, train_layerwise

SCALES: dict[str, Callable[..., SystemConfig]] = {"default": default_config, "desk": desk_config}
SCORING_WORKERS = 1

# Only the refined path: classic AMP-SBL oscillates on this operator and
# diverged on 3 of 296 default-size samples over seeds 1-37 (seeds 13, 21
# and 34) without the library's norm guard catching it, and a workload
# whose estimates fail at some seeds cannot hold a fixed failure count.
# Eight estimates keep a round near 5 s, so 20 s holds 4 or more rounds.
EVAL_ALGOS = ("amp-sbl-unfolding",)
EVAL_SAMPLES = 8
SWEEP_POINTS = (0.0, 10.0, 20.0)
SWEEP_SAMPLES = 3
SWEEP_ITERATIONS = 10
TRAIN_SPLITS = (256, 128, 128)
TRAIN_CONFIG = dict(depth=3, e_step="amp", batch_size=128, max_epochs=1)

# He-initialized refiner stages push the variances far off on the first
# iteration: at the default size an unscaled depth-30 net diverged on
# 4 of 4 samples, and a from-scratch depth-3 training run ended anywhere
# between -0.1 and +23 dB test NMSE depending on the seed.  Scaling the
# filters starts every stage close to "keep gamma", which runs every conv
# without failing.
REFINER_SCALE = 1e-3

# An estimate whose error energy exceeds ten times the channel's has
# diverged even though the library scored it: classic AMP-SBL does this
# (seed 13, sample 5: NMSE 1.4e7) while staying under the library's own
# norm guard.  Such estimates count as failed and stay out of the NMSE
# mean.
BLOWUP_NMSE = 10.0


@dataclass
class Outcome:
    """Scores and cost of one round.

    ``rows`` maps a gate key (an algorithm, a sweep point, the test
    split) to (nmse_db, attempted, failed) as the library reported it.
    ``ratios`` holds the linear NMSE of every estimate the library
    scored, in order.  ``work`` counts the units behind ``samples_per_s``.
    """

    wall_s: float
    work: int
    rows: dict[str, tuple[float, int, int]] = field(default_factory=dict)
    ratios: list[float] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(a for _, a, _ in self.rows.values())

    @property
    def blowups(self) -> int:
        return sum(1 for r in self.ratios if math.isfinite(r) and r > BLOWUP_NMSE)

    @property
    def failed(self) -> int:
        return sum(f for _, _, f in self.rows.values()) + self.blowups

    def mean_nmse(self) -> float:
        """Mean linear NMSE over the estimates that neither failed nor blew up."""
        kept = [r for r in self.ratios if math.isfinite(r) and r <= BLOWUP_NMSE]
        return math.fsum(kept) / len(kept) if kept else math.nan


@dataclass(frozen=True)
class Workload:
    """Inputs built once per run (timed as ``setup_s``) and one round on them.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name: str
    setup: Callable[[SystemConfig], object]
    run: Callable[[SystemConfig, object], Outcome]


def scaled_refiner(cfg: SystemConfig, n_stages: int) -> MStepNet:
    net = MStepNet.create(n_stages, spawn_rng(cfg.rng_seed, "net-init", 0), config_hash=cfg.config_hash())
    for stage in net.stages:
        stage.w1 *= REFINER_SCALE
        stage.w2 *= REFINER_SCALE
    return net


def _fail_count(fail_rate: float, n: int) -> int:
    return round(fail_rate * n)


@contextmanager
def scored_ratios():
    """Record the linear NMSE of every estimate the evaluation module scores."""
    original = evaluation.nmse
    ratios: list[float] = []

    def recording(h_true, h_hat):
        result = original(h_true, h_hat)
        ratios.append(result[0])
        return result

    evaluation.nmse = recording
    try:
        yield ratios
    finally:
        evaluation.nmse = original


def _run_eval_amp(cfg: SystemConfig, _state) -> Outcome:
    nets = {"amp-sbl-unfolding": scaled_refiner(cfg, cfg.n_iterations - 1)}
    with scored_ratios() as ratios:
        t0 = time.perf_counter()
        rows = run_tradeoff(list(EVAL_ALGOS), cfg, EVAL_SAMPLES, nets=nets, n_workers=SCORING_WORKERS)
        wall = time.perf_counter() - t0
    out = Outcome(wall_s=wall, work=EVAL_SAMPLES * len(rows), ratios=ratios)
    for row in rows:
        out.rows[row.algo] = (row.nmse_db, EVAL_SAMPLES, _fail_count(row.fail_rate, EVAL_SAMPLES))
    return out


def _run_sweep_exact(cfg: SystemConfig, _state) -> Outcome:
    with scored_ratios() as ratios:
        t0 = time.perf_counter()
        result = run_sweep("snr", list(SWEEP_POINTS), ["sbl"], cfg, SWEEP_SAMPLES,
                           n_iterations=SWEEP_ITERATIONS, n_workers=SCORING_WORKERS)
        wall = time.perf_counter() - t0
    out = Outcome(wall_s=wall, work=SWEEP_SAMPLES * len(result.rows), ratios=ratios)
    for row in result.rows:
        out.rows[f"snr={row.value:g}"] = (row.nmse_db, row.n_samples, _fail_count(row.fail_rate, row.n_samples))
    return out


def _setup_operator(cfg: SystemConfig):
    return standard_operator(cfg), None


def _setup_train(cfg: SystemConfig):
    return standard_operator(cfg), generate_splits(cfg, TRAIN_SPLITS)


def _run_train(cfg: SystemConfig, state) -> Outcome:
    op, datasets = state
    train_cfg = TrainConfig(**TRAIN_CONFIG)
    # Resuming from one scaled stage makes train_layerwise train depth 3.
    initial = scaled_refiner(cfg, 1)
    n_train = len(datasets[0])
    t0 = time.perf_counter()
    try:
        _, report = train_layerwise(train_cfg, cfg, op, datasets, initial_net=initial)
    except TrainingDivergence:
        return Outcome(wall_s=time.perf_counter() - t0, work=0, rows={"test": (math.nan, 1, 1)})
    wall = time.perf_counter() - t0
    epochs = sum(len(stage.epochs) for stage in report.stages)
    db = float(report.final_test_nmse_db)
    return Outcome(wall_s=wall, work=epochs * n_train, rows={"test": (db, 1, 0)}, ratios=[10.0 ** (db / 10.0)])


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "eval-amp",
            _setup_operator,
            _run_eval_amp,
        ),
        Workload(
            "sweep-exact",
            _setup_operator,
            _run_sweep_exact,
        ),
        Workload(
            "train",
            _setup_train,
            _run_train,
        ),
    )
}


# ---- output gate ------------------------------------------------------------


def check_round(outcome: Outcome, first: Outcome | None, reference: dict | None, tol_db: float) -> list[str]:
    """Problems with one round's scores; an empty list passes.

    Every key that has a success must carry a finite NMSE.  A repeated
    round must match the first exactly.  With a reference (the stored
    scores at the reference seed), every key must match within
    ``tol_db`` and with the same failure count.
    """
    problems = []
    for key, (db, attempted, failed) in outcome.rows.items():
        if failed < attempted and not math.isfinite(db):
            problems.append(f"{key}: non-finite NMSE {db!r} over {attempted - failed} successful estimates")
    scored = sum(1 for r in outcome.ratios if math.isfinite(r))
    succeeded = sum(a - f for _, a, f in outcome.rows.values())
    if scored != succeeded:
        problems.append(f"{scored} finite per-estimate scores for {succeeded} successful estimates")
    if first is not None and (outcome.rows, outcome.ratios) != (first.rows, first.ratios):
        problems.append(f"round scores {outcome.rows} differ from the first round's {first.rows}")
    if reference is not None:
        if set(reference) != set(outcome.rows):
            problems.append(f"keys {sorted(outcome.rows)} differ from reference keys {sorted(reference)}")
        for key, ref in reference.items():
            if key not in outcome.rows:
                continue
            db, attempted, failed = outcome.rows[key]
            if not abs(db - ref["nmse_db"]) <= tol_db:
                problems.append(f"{key}: NMSE {db!r} dB, reference {ref['nmse_db']!r} dB (tolerance {tol_db} dB)")
            if failed / attempted != ref["fail_rate"]:
                problems.append(f"{key}: fail rate {failed / attempted}, reference {ref['fail_rate']}")
    return problems


def reference_rows(outcome: Outcome) -> dict:
    """The stored form of a round's scores, as :func:`check_round` reads it."""
    return {key: {"nmse_db": db, "fail_rate": failed / attempted}
            for key, (db, attempted, failed) in outcome.rows.items()}
