"""Benchmark of the squintsbl library: end-to-end metrics or a per-layer trace.

Run from the root of a source checkout:

    python3 bench/run.py --workload eval-amp --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory, never from
an installed copy; without it the run exits with code 2.  Each run

1. runs ``squintsbl.selftest`` in a child process and the workload once
   at desk size with the reference seed, checking the scores stored in
   ``reference.json`` (both outside the timed phase);
2. builds the workload's inputs ``SETUP_REPEATS`` times and reports the
   median build time as ``setup_s``;
3. repeats the workload's entry point for at least ``--seconds`` seconds;
4. checks every round (finite NMSE, identical to the first round, and
   the stored scores when ``--seed`` is the reference seed);
5. prints a provenance line, then as its last line one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the timed rounds alternate untraced and traced; the
traced ones wrap the public function of each layer where its caller looks
it up and report per-layer self times and call counts instead of the
end-to-end metrics.  Per-layer values cover one setup plus one round.
A failed check prints the reason to stderr and exits with code 1 and no
result line.  Spans and provenance are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_FILE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 2024
SETUP_REPEATS = 3
# One BLAS thread: on a 2-core host the AMP rounds and operator builds
# spread less between runs, and the exact E-step ran faster, than with two.
BLAS_THREADS = 1
# glibc raises its mmap and trim thresholds as large blocks are freed, so
# whether an E-step's temporaries page-faulted on every call depended on
# the process's allocation history: eval-amp rounds came out either ~4.8 s
# or ~7.2 s.  Fixed thresholds serve every block under 32 MiB from the heap
# and keep up to 1 GiB of freed heap mapped, whatever ran before.  train
# keeps glibc's defaults: with these its peak RSS jumped between 1130 and
# 1164 MB from run to run instead of staying at 1101 MB.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_THRESHOLDS = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 1 << 30))
MALLOC_PINNED = ("eval-amp",)
SELFTEST_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "nmse": "ratio",
    "peak_rss_mb": "MB",
}

# (module, global name the caller looks up, span name).  A name bound in
# two modules is wrapped in both, because each caller sees its own copy.
WRAPS = (
    ("evaluation", "assemble_operator", "measurement.assemble"),
    ("evaluation", "observe_and_transform", "measurement.observe"),
    ("evaluation", "draw_paths", "channel.draw"),
    ("evaluation", "build_channel", "channel.draw"),
    ("channel", "draw_paths", "channel.draw"),
    ("channel", "build_channel", "channel.draw"),
    ("evaluation", "score_algorithm", "evaluation.score"),
    ("evaluation", "run_estimator", "sbl.run_estimator"),
    ("evaluation", "reconstruct_channel", "dictionaries.reconstruct"),
    ("sbl", "amp_e_step", "sbl.amp_e_step"),
    ("sbl", "exact_e_step", "sbl.exact_e_step"),
    ("mstep", "build_features", "mstep.features"),
    ("mstep", "mstep_forward", "mstep.forward"),
    ("mstep", "stage_forward", "mstep.stage"),
    ("mstep", "conv2d_same", "mstep.conv"),
    ("mstep", "conv2d_same_backward", "mstep.conv_backward"),
    ("training", "batch_features", "mstep.features"),
    ("training", "batch_features_backward", "mstep.features"),
    ("training", "stage_forward", "mstep.stage"),
    ("training", "stage_backward", "mstep.stage"),
    ("training", "adam_update", "mstep.adam"),
    ("training", "unroll_forward", "training.unroll_forward"),
    ("training", "unroll_backward", "training.unroll_backward"),
    ("training", "reconstruct_batch", "training.loss"),
    ("training", "reconstruct_adjoint", "training.loss"),
    ("training", "validate", "training.eval_passes"),
    ("training", "test_nmse_db", "training.eval_passes"),
)
E_STEP_SPANS = ("sbl.amp_e_step", "sbl.exact_e_step")
CALL_COUNTS = ("measurement.assemble", "sbl.amp_e_step", "sbl.exact_e_step", "mstep.forward",
               "mstep.conv", "mstep.conv_backward")
SELF_TIMES = ("measurement.assemble", "measurement.observe", "channel.draw", "sbl.amp_e_step",
              "sbl.exact_e_step", "sbl.run_estimator", "mstep.forward", "mstep.conv",
              "mstep.conv_backward", "mstep.stage", "mstep.features", "mstep.adam",
              "training.unroll_forward", "training.unroll_backward", "training.loss",
              "dictionaries.reconstruct", "evaluation.score")
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in CALL_COUNTS},
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    "measurement.operator_mb": "MB",
    "sbl.e_step.wasted_share": "fraction",
    "training.eval_passes_s": "s",
    "training.steps": "count",
    "trace.overhead_pct": "%",
    "trace.coverage_pct": "%",
    "trace.wall_s": "s",
}


class GateFailure(RuntimeError):
    """The program's outputs failed a check; the run reports no numbers."""


def pin_environment(workload: str | None = None) -> bool:
    """Fix the BLAS pool size and, for some workloads, the allocator thresholds.

    Call before numpy is imported.  Returns whether allocator thresholds
    were set (only glibc has them).
    """
    n = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    if workload not in MALLOC_PINNED:
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    return all(mallopt(param, value) == 1 for param, value in MALLOC_THRESHOLDS)


def import_library():
    """Import squintsbl from this checkout's ``src/``; exit 2 if it is absent."""
    if not (SRC / "squintsbl" / "__init__.py").is_file():
        print(f"bench: no library source at {SRC / 'squintsbl'}; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import squintsbl

    if Path(squintsbl.__file__).resolve().parent != (SRC / "squintsbl").resolve():
        print(f"bench: imported squintsbl from {squintsbl.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return squintsbl


def run_selftest() -> None:
    code = "import sys; from squintsbl import selftest; sys.exit(1 if selftest.run(verbose=True) else 0)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=SELFTEST_TIMEOUT_S)
    if proc.returncode != 0:
        raise GateFailure(f"selftest failed (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def operator_mb(op) -> float:
    """Megabytes of the numpy arrays an operator holds, nested objects included."""
    import dataclasses

    import numpy as np

    seen, total, todo = set(), 0, [op]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif dataclasses.is_dataclass(obj):
            todo.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))
    return total / 1e6


def provenance(cfg, args) -> dict:
    import numpy as np
    import scipy
    from workloads import SCORING_WORKERS

    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "config_hash": cfg.config_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": BLAS_THREADS,
        "malloc_thresholds_pinned": args.malloc_pinned,
        "nproc": len(os.sched_getaffinity(0)),
        "scoring_workers": SCORING_WORKERS,
    }


@contextmanager
def layers_traced(tracer, modules: dict):
    """Wrap every layer function of ``WRAPS`` for the duration of the block."""
    try:
        for mod, attr, name in WRAPS:
            tracer.wrap(modules[mod], attr, name)
        yield
    finally:
        tracer.restore()


def reference_check(workload, reference: dict) -> None:
    """Run the workload once at desk size and the reference seed; compare scores."""
    from workloads import SCALES, check_round

    cfg = SCALES["desk"](rng_seed=reference["seed"])
    outcome = workload.run(cfg, workload.setup(cfg))
    problems = check_round(outcome, None, reference["desk"][workload.name], reference["tolerance_db"])
    if problems:
        raise GateFailure("desk reference check: " + "; ".join(problems))


def timed_setups(workload, cfg, repeats: int):
    times, state = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        state = workload.setup(cfg)
        times.append(time.perf_counter() - t0)
    return state, times


def layer_metrics(tracer, roots: list, op, untraced_walls: list[float], traced_walls: list[float]) -> dict:
    """Per-layer values over the setup root plus the mean traced round."""
    from tracer import descendants, self_times

    own = self_times(tracer.spans)
    setup_root, round_roots = roots[0], roots[1:]

    def totals(root_ids):
        """Per-name (calls, self_s, inclusive_s) summed over the roots, then averaged."""
        acc: dict[str, list[float]] = {}
        covered = wall = 0.0
        for rid in root_ids:
            wall += tracer.spans[rid].duration
            for sp in descendants(tracer.spans, rid):
                entry = acc.setdefault(sp.name, [0.0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += own[sp.id]
                entry[2] += sp.duration
                covered += own[sp.id]
        n = len(root_ids)
        return {k: [v / n for v in vals] for k, vals in acc.items()}, covered / n, wall / n

    setup_acc, setup_cov, setup_wall = totals([setup_root])
    round_acc, round_cov, round_wall = totals(round_roots)

    def value(name: str, i: int) -> float:
        return setup_acc.get(name, [0.0] * 3)[i] + round_acc.get(name, [0.0] * 3)[i]

    e_steps = wasted = 0
    for sp in tracer.spans:
        if sp.name == "sbl.run_estimator":
            inner = sum(1 for c in descendants(tracer.spans, sp.id) if c.name in E_STEP_SPANS)
            e_steps += inner
            if sp.error == "DivergenceError":
                wasted += inner
    wall = setup_wall + round_wall
    metrics = {f"{name}.calls": value(name, 0) for name in CALL_COUNTS}
    metrics.update({f"{name}.self_s": value(name, 1) for name in SELF_TIMES})
    metrics.update({
        "measurement.operator_mb": operator_mb(op),
        "sbl.e_step.wasted_share": wasted / e_steps if e_steps else 0.0,
        "training.eval_passes_s": value("training.eval_passes", 2),
        "training.steps": value("mstep.adam", 0),
        "trace.overhead_pct": 100.0 * (statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0),
        "trace.coverage_pct": 100.0 * (setup_cov + round_cov) / wall,
        "trace.wall_s": wall,
    })
    return metrics


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool, scale: str = "default",
                  log=None) -> dict:
    """Set up, measure and check one run; returns the result with its extras.

    The keys ``correct``, ``attempted``, ``failed`` and ``metrics`` form
    the printed result line; ``rounds`` and ``spans`` go to the record file.
    Raises :class:`GateFailure` if a check fails.
    """
    import squintsbl.channel
    import squintsbl.evaluation
    import squintsbl.mstep
    import squintsbl.sbl
    import squintsbl.training
    from tracer import Tracer
    from workloads import SCALES, WORKLOADS, check_round

    modules = {m.__name__.rsplit(".", 1)[1]: m for m in (
        squintsbl.channel, squintsbl.evaluation, squintsbl.mstep, squintsbl.sbl, squintsbl.training)}
    workload = WORKLOADS[workload_name]
    reference = load_reference()
    reference_check(workload, reference)
    cfg = SCALES[scale](rng_seed=seed)
    expected = reference[scale][workload_name] if seed == reference["seed"] else None

    tracer = Tracer()
    roots: list[int] = []
    if trace:
        with layers_traced(tracer, modules), tracer.span("setup") as root:
            state = workload.setup(cfg)
        roots.append(root.id)
        setup_times = [root.duration]
    else:
        state, setup_times = timed_setups(workload, cfg, SETUP_REPEATS)

    outcomes, traced_flags = [], []
    t_start = time.perf_counter()
    while not outcomes or time.perf_counter() - t_start < seconds or (trace and not any(traced_flags)):
        traced = trace and len(outcomes) % 2 == 1
        if traced:
            with layers_traced(tracer, modules), tracer.span("round") as root:
                outcome = workload.run(cfg, state)
            roots.append(root.id)
        else:
            outcome = workload.run(cfg, state)
        problems = check_round(outcome, outcomes[0] if outcomes else None, expected, reference["tolerance_db"])
        if problems:
            raise GateFailure(f"round {len(outcomes) + 1}: " + "; ".join(problems))
        outcomes.append(outcome)
        traced_flags.append(traced)
        if log:
            log(f"round {len(outcomes)}{' traced' if traced else ''}: {outcome.wall_s:.3f} s, "
                f"{outcome.work} units, rows {outcome.rows}")

    first = outcomes[0]
    untraced = [o for o, t in zip(outcomes, traced_flags) if not t]
    if trace:
        traced_walls = [o.wall_s for o, t in zip(outcomes, traced_flags) if t]
        values = layer_metrics(tracer, roots, state[0], [o.wall_s for o in untraced], traced_walls)
        units = PER_LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "samples_per_s": statistics.median(o.work / o.wall_s for o in untraced),
            "nmse": first.mean_nmse(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    for name, v in values.items():
        if not math.isfinite(v):
            raise GateFailure(f"metric {name} is {v!r}")
    return {
        "correct": True,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "setup_times_s": setup_times,
        "rounds": [{"wall_s": o.wall_s, "work": o.work, "traced": t, "rows": o.rows, "ratios": o.ratios}
                   for o, t in zip(outcomes, traced_flags)],
        "nmse_db": 10.0 * math.log10(first.mean_nmse()),
        "spans": tracer.records(),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("eval-amp", "sweep-exact", "train"))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, required=True, help="minimum length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("default", "desk"), default="default",
                   help="desk runs the same workloads at desk_config() geometry")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    args.malloc_pinned = pin_environment(args.workload)
    import_library()
    sys.path.insert(0, str(BENCH_DIR))

    def log(msg):
        print(f"bench: {msg}", file=sys.stderr, flush=True)

    try:
        run_selftest()
        result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, log)
    except GateFailure as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        return 1
    from workloads import SCALES

    prov = provenance(SCALES[args.scale](rng_seed=args.seed), args)
    if args.trace:
        prov["trace_overhead_pct"] = result["metrics"]["trace.overhead_pct"]["value"]
    record = {"provenance": prov, **result}
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": prov, "nmse_db": result["nmse_db"], "record": str(out.relative_to(ROOT))}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
