"""Command-line entry points.

Subcommands: `run` executes an experiment config (expanding an alpha/beta
grid when one is present), `eval` measures clean and robust accuracy of a
checkpoint on a CSV dataset, `landscape` exports a 2-D loss grid, and
`flatness` compares a directory of per-task checkpoints on per-task data.
Exit codes: 0 success, 2 configuration problems, 3 numeric aborts.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .attacks import AttackConfig, parse_rational
from .data import load_csv_dataset
from .errors import (ArgumentError, ConfigurationError, Error, IntegrityError,
                     NumericError, ParseError)
from .metrics import accuracy, flatness_forgetting, landscape_grid, robust_accuracy
from .runner import expand_grid, load_checkpoint, load_config, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    for tag, sub in expand_grid(cfg):
        report = run_experiment(sub)
        prefix = "" if tag == "single" else f"[{tag}] "
        bwt = "undefined" if report.r_bwt is None else _fmt(report.r_bwt)
        print(f"{prefix}method={report.method} clean={_fmt(report.final_clean_acc)} "
              f"robust={_fmt(report.final_robust_acc)} r_bwt={bwt} "
              f"-> {sub.output_dir}")
    return EXIT_OK


def _eval_attack(args, clamp) -> AttackConfig:
    epsilon = parse_rational(args.epsilon)
    step = parse_rational(args.step) if args.step is not None else epsilon / 4.0
    restarts = 5 if args.attack == "aa-proxy" else 1
    return AttackConfig(epsilon=epsilon, step_size=step, n_steps=20,
                        random_start=True, clamp_range=clamp,
                        n_restarts=restarts, seed=args.seed)


def _cmd_eval(args) -> int:
    net = load_checkpoint(args.checkpoint)
    ds = load_csv_dataset(args.dataset)
    cfg = _eval_attack(args, ds.value_range)
    clean = accuracy(net, ds)
    robust = robust_accuracy(net, ds, cfg)
    print(f"clean_acc={_fmt(clean)}")
    print(f"robust_acc={_fmt(robust)} attack={args.attack}")
    return EXIT_OK


def _cmd_landscape(args) -> int:
    net = load_checkpoint(args.checkpoint)
    ds = load_csv_dataset(args.dataset)
    if not 0 <= args.index < len(ds):
        raise ArgumentError(f"example index {args.index} outside dataset of {len(ds)}")
    epsilon = parse_rational(args.epsilon)
    cfg = AttackConfig(epsilon=epsilon, step_size=epsilon / 4.0, n_steps=20,
                       random_start=True, clamp_range=ds.value_range,
                       seed=args.seed)
    grid = landscape_grid(net, ds.inputs[args.index], int(ds.labels[args.index]),
                          cfg, args.extent, args.n)
    lines = [f"# extent={_fmt(args.extent)} n={args.n} direction_seed={args.seed}"]
    for row in grid:
        lines.append(",".join(_fmt(v) for v in row))
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {args.n}x{args.n} grid -> {args.out}")
    return EXIT_OK


def _cmd_flatness(args) -> int:
    stems = sorted(p.with_suffix("") for p in Path(args.checkpoints).glob("*.manifest"))
    if len(stems) < 2:
        raise ArgumentError("need at least two checkpoints (task_001, task_002, ...)")
    models = [load_checkpoint(str(stem)) for stem in stems]
    csvs = sorted(Path(args.datasets).glob("*.csv"))
    if len(csvs) < len(models) - 1:
        raise ArgumentError(f"need {len(models) - 1} per-task datasets, "
                            f"found {len(csvs)}")
    testsets = [load_csv_dataset(str(p)) for p in csvs[: len(models) - 1]]
    report = flatness_forgetting(models, testsets, subsample=args.subsample,
                                 seed=args.seed)
    print(f"gf={_fmt(report.gf)}")
    print("hf=unavailable" if report.hf is None else f"hf={_fmt(report.hf)}")
    for i, g in enumerate(report.per_task_gf):
        h = "" if report.per_task_hf is None else f" hf={_fmt(report.per_task_hf[i])}"
        print(f"task {i + 1}: gf={_fmt(g)}{h}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustcl",
        description="Adversarially robust class-incremental learning lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a CSV dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--attack", choices=("pgd20", "aa-proxy"), default="pgd20")
    p.add_argument("--epsilon", default="8/255")
    p.add_argument("--step", default=None)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("landscape", help="export a 2-D loss-landscape grid")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--extent", type=_finite, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", default="8/255")
    p.add_argument("--out", default="landscape.csv")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=_cmd_landscape)

    p = sub.add_parser("flatness", help="gradient/Hessian drift across checkpoints")
    p.add_argument("--checkpoints", required=True)
    p.add_argument("--datasets", required=True)
    p.add_argument("--subsample", type=int, default=64)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=_cmd_flatness)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericError as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigurationError, ArgumentError, ParseError, IntegrityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
