"""Command-line front end: training, evaluation, sweeps, the complexity table and the self checks.

Subcommands share one convention for system parameters: every config
key has a flag of the same name, and precedence is flag > config file >
built-in default.  ``train`` draws its channel splits from that config
and its seed, so a run needs no data files.  All output files embed the
config hash and the seed, so results stay traceable to the exact setup
that produced them.

Exit codes: 0 success, 1 usage or validation error, 2 numerical
failure (a divergence outside the contexts where it is an expected
outcome), 3 file errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import re
import sys
import time
import typing
from pathlib import Path


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1, and that reads any word starting
    with a minus and a digit, such as ``-10:30:0.2`` or ``-10,0,10``, as a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes only plain negative numbers such as -10 or -0.5 as values
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    from .config import SystemConfig

    g = p.add_argument_group("system configuration (flag > file > default)")
    g.add_argument("--config", metavar="FILE", help="JSON file of config keys")
    g.add_argument("--scale", choices=("default", "desk"), default="default",
                   help="baseline geometry before overrides")
    kinds = typing.get_type_hints(SystemConfig)
    for f in dataclasses.fields(SystemConfig):
        kind = kinds[f.name]
        g.add_argument(f"--{f.name.replace('_', '-')}", type=kind, default=None,
                       metavar="N" if kind is int else "X", help=f.metadata.get("help"))
    g.add_argument("--snr-db", type=float, default=None, metavar="DB",
                   help="sets noise-var to 10^(-snr/10)")


def _build_config(args):
    """Flags over the --config file over the --scale baseline; ``SystemConfig.from_dict`` checks every key."""
    from .config import SystemConfig, desk_config, noise_var_from_snr_db

    values = desk_config().to_dict() if args.scale == "desk" else {}
    if args.config:
        try:
            file_vals = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {args.config}: {exc}") from exc
        if not isinstance(file_vals, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        values.update(file_vals)

    for f in dataclasses.fields(SystemConfig):
        value = getattr(args, f.name)
        if value is not None:
            values[f.name] = value
    if args.snr_db is not None:
        if args.noise_var is not None:
            raise ValueError("--snr-db and --noise-var are two spellings of the same key; give one")
        values["noise_var"] = noise_var_from_snr_db(args.snr_db)
    return SystemConfig.from_dict(values)


def _parse_points(text: str) -> list[float]:
    s = text.strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError("point range must be start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("point step must be positive")
        # start + i * step rounds once per point; a running sum drifts (0 came out as -2e-15)
        vals, i = [], 0
        while start + i * step <= stop + 1e-9 * max(1.0, step):
            vals.append(start + i * step)
            i += 1
        if not vals:
            raise ValueError("no sweep points given")
        return vals
    vals = [float(p) for p in s.split(",") if p.strip()]
    if not vals:
        raise ValueError("no sweep points given")
    return vals


def _classic_algos() -> list[str]:
    """The algorithms ``evaluate`` and ``sweep`` run when --algos is not given."""
    from .evaluation import ALGORITHMS

    return [algo for algo, entry in ALGORITHMS.items() if not entry.learned]


def _parse_algos(text: str | None, nets: dict) -> list[str]:
    if text:
        return [a.strip() for a in text.split(",") if a.strip()]
    classic = _classic_algos()
    return classic + sorted(a for a in nets if a not in classic)


def _load_nets(entries, cfg) -> dict:
    from .mstep import load_checkpoint

    nets = {}
    for entry in entries or []:
        algo, sep, path = entry.partition("=")
        if not sep or not algo or not path:
            raise ValueError(f"--net wants ALGO=PATH, got {entry!r}")
        if algo in nets:
            raise ValueError(f"--net gives a network for {algo!r} twice")
        net = load_checkpoint(path)
        if not _trained_under(net, cfg):
            print(f"note: network for {algo!r} was trained under config {net.config_hash}, "
                  f"evaluating under {cfg.config_hash()}", file=sys.stderr)
        nets[algo] = net
    return nets


def _trained_under(net, cfg) -> bool:
    """Whether ``net`` was trained under ``cfg``, leaving ``n_iterations`` out.

    That field is the depth of the classic estimators; a learned net runs
    its stage count plus one iterations whatever it says.  A checkpoint
    that stored no config is compared by its hash, which covers every field.
    """
    if net.config is None:
        return net.config_hash == cfg.config_hash()
    ours = cfg.to_dict()
    return ({k: v for k, v in net.config.items() if k != "n_iterations"}
            == {k: v for k, v in ours.items() if k != "n_iterations"})


def _echo(text: str) -> None:
    """Print a line; once stdout is closed (``| head``), point it at os.devnull so the run goes on."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ---- subcommands ------------------------------------------------------------


def _parse_sizes(text: str | None, scale: str) -> tuple[int, int, int]:
    """The train,val,test split sizes --sizes gives, or the scale's defaults."""
    if not text:
        return (2000, 250, 250) if scale == "desk" else (8000, 1000, 1000)
    try:
        sizes = tuple(int(s) for s in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--sizes wants three integers, got {text!r}") from exc
    if len(sizes) != 3:
        raise ValueError("--sizes wants train,val,test")
    if any(n < 1 for n in sizes):
        raise ValueError("split sizes must be positive")
    return sizes


def _cmd_train(args) -> int:
    from .evaluation import standard_operator
    from .mstep import load_checkpoint, save_checkpoint
    from .training import TrainConfig, first_depth, generate_splits, train_layerwise, write_report_csv

    cfg = _build_config(args)
    sizes = _parse_sizes(args.sizes, args.scale)
    train_cfg = TrainConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)})
    initial = load_checkpoint(args.resume) if args.resume else None
    # a checkpoint with no stage to add, and a bad geometry, are rejected before any channel is drawn
    first_depth(initial, train_cfg.depth)
    op = standard_operator(cfg)
    start = time.perf_counter()
    datasets = generate_splits(cfg, sizes)
    _echo(f"drew {'/'.join(map(str, sizes))} train/val/test channels in {time.perf_counter() - start:.2f} s "
          f"(config {cfg.config_hash()} seed {cfg.rng_seed})")
    net, report = train_layerwise(train_cfg, cfg, op, datasets, initial_net=initial)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(net, out / "checkpoint.npz", cfg)
    write_report_csv(report, out / "training_report.csv", cfg, train_cfg)
    _echo(f"trained depth {train_cfg.depth} ({net.n_stages} stages, {train_cfg.e_step} E-step) "
          f"in {report.wall_time_s:.0f} s; test NMSE {report.final_test_nmse_db:.2f} dB")
    _echo(f"checkpoint: {out / 'checkpoint.npz'}")
    _echo(f"report:     {out / 'training_report.csv'}")
    return 0


def _cmd_score(args) -> int:
    """``evaluate`` and ``sweep``: score at each point, print a line per row and write the CSV.

    ``evaluate`` is the one point ``q`` = the config's ``n_uses``, and
    writes its CSV only when ``--out`` is given.
    """
    from .evaluation import run_sweep

    cfg = _build_config(args)
    nets = _load_nets(args.net, cfg)
    algos = _parse_algos(args.algos, nets)
    if args.command == "evaluate":
        axis, points, out = "q", [cfg.n_uses], args.out
    else:
        axis, points, out = args.axis, _parse_points(args.points), args.out or f"sweep_{args.axis}.csv"

    def progress(row):
        nm = "n/a" if math.isnan(row.nmse_db) else f"{row.nmse_db:.2f} dB"
        _echo(f"{row.axis}={row.value:g} {row.algo}: NMSE {nm} over {row.n_samples} samples "
              f"({row.iterations} iterations, {row.flops_total} FLOPs), fail rate {row.fail_rate:.2f}")

    result = run_sweep(axis, points, algos, cfg, args.n_samples, nets=nets, progress=progress)
    if out:
        result.write_csv(out)
        _echo(f"wrote {out}")
    return 0


def _cmd_flops(args) -> int:
    from .config import provenance_line
    from .evaluation import ALGORITHMS, flops_per_iteration, reconstruction_flops

    cfg = _build_config(args)
    _echo(provenance_line(cfg))
    _echo(f"per-iteration FLOPs of the paper's dense-product model (not this implementation's cost) "
          f"at K={cfg.n_subcarriers}, m={cfg.n_uses * cfg.n_rf} per tone, G={cfg.grid_total}, "
          f"G_A={cfg.grid_angular}, N={cfg.n_antennas}")
    for algo in ALGORITHMS:
        _echo(f"  {algo:<20} {flops_per_iteration(algo, cfg):>16,}")
    _echo(f"reconstruction FLOPs per estimate: {reconstruction_flops(cfg):,}")
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    failures = selftest.run(verbose=True)
    return 0 if failures == 0 else 2


# ---- parser -----------------------------------------------------------------


def build_parser() -> _Parser:
    from .evaluation import SWEEP_AXES, SWEEP_CSV_COLUMNS
    from .sbl import E_STEPS
    from .training import TrainConfig

    parser = _Parser(prog="squintsbl",
                     description="Wideband hybrid-array channel estimation toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("train", help="layer-wise training of the learned variance update",
                       description="Draw the train/val/test channel splits from the config's seed, then "
                       "grow the unfolded estimator from depth 2 to --depth, retraining the |mu|^2, "
                       "tau -> gamma refiner end to end on the mean channel NMSE after each added stage.")
    _add_config_flags(p)
    p.add_argument("--sizes", metavar="TR,VA,TE", help="split sizes (default 8000,1000,1000; desk 2000,250,250)")
    p.add_argument("--out", default="run", metavar="DIR", help="output directory")
    train_types = typing.get_type_hints(TrainConfig)
    for f in dataclasses.fields(TrainConfig):
        required = f.default is dataclasses.MISSING
        p.add_argument(f"--{f.name.replace('_', '-')}", type=train_types[f.name], required=required,
                       default=None if required else f.default,
                       choices=E_STEPS if f.name == "e_step" else None, help=f.metadata.get("help"))
    p.add_argument("--resume", metavar="CKPT", help="existing checkpoint to append stages to")
    p.set_defaults(func=_cmd_train)

    csv_help = (f"columns {','.join(SWEEP_CSV_COLUMNS)}; flops_total is the paper's dense-product model, "
                "not this implementation's cost")

    def add_scoring_flags(p, n_samples: int, out_help: str) -> None:
        p.add_argument("--algos", metavar="LIST",
                       help=f"comma list (default: {','.join(_classic_algos())} plus any --net)")
        p.add_argument("--n-samples", type=int, default=n_samples)
        p.add_argument("--net", action="append", metavar="ALGO=PATH", help="checkpoint for a learned algorithm")
        p.add_argument("--out", metavar="CSV", help=f"{out_help}: {csv_help}")
        p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evaluate", help="score estimators at one operating point",
                       description="Score estimators at the configured operating point: the one-point "
                       "sweep --axis q --points <n-uses>, which prints and writes the same rows.")
    _add_config_flags(p)
    add_scoring_flags(p, 200, "also write the CSV")

    p = sub.add_parser("sweep", help="score estimators along an SNR or pilot-use axis")
    _add_config_flags(p)
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--points", required=True, metavar="SPEC",
                   help="comma list (-10,0,10) or start:stop:step (-10:30:5)")
    add_scoring_flags(p, 50, "output file (default sweep_<axis>.csv)")

    p = sub.add_parser("flops", help="print the complexity table at the configured sizes")
    _add_config_flags(p)
    p.set_defaults(func=_cmd_flops)

    p = sub.add_parser("selftest", help="run the built-in numerical checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    from .sbl import DivergenceError

    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.command in ("train", "selftest") else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
