"""Command line entry point.

Subcommands: run (train a configured sweep), cost (accounting tables),
regret (noisy online-optimization study), verify (built-in consistency
checks).  Every key=value argument goes through bench.apply_overrides, the
parser run uses, and every file through bench._write_csv or
bench._write_json, the writers run uses.  Failures print a one-line JSON
error record to stderr and exit nonzero (2 for bad configuration, 1
otherwise).
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bench import (ConfigError, LayerSpec, PRESET_NAMES, _build_section,
                    _write_csv, _write_json, apply_overrides, config_from_dict,
                    config_to_dict, cost_comparison, cost_report, preset)
from .runtime import RegretConfig, regret_experiment
from .verify import verify_all

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airsplit",
        description="Split learning over reciprocal MIMO channels, simulated.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one configured sweep")
    p_run.add_argument("config",
                       help=f"preset name ({', '.join(PRESET_NAMES)}) or a JSON file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="replace the config's seed list with this one seed")
    p_run.add_argument("--out-dir", default=None,
                       help="artifact directory (default out/<config name>)")
    p_run.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE", help="config override, repeatable")

    p_cost = sub.add_parser("cost", help="per-design cost accounting")
    p_cost.add_argument("sizes", nargs="+", metavar="KEY=VALUE",
                        help="layer sizes, e.g. n_i=6 n_o=6 n_t=4 n_r=4 r=3")
    p_cost.add_argument("--out-dir", default=None,
                        help="also write cost.csv and comparison.csv here")

    p_reg = sub.add_parser("regret", help="average-regret decay under noisy steps")
    p_reg.add_argument("--seed", type=int, default=None)
    p_reg.add_argument("--out-dir", default=None,
                       help="write regret_curves.csv and regret_summary.json here")
    p_reg.add_argument("--override", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="RegretConfig field override, repeatable")

    sub.add_parser("verify", help="run the built-in consistency checks")
    return parser


def _load_run_config(args):
    if args.config in PRESET_NAMES:
        record = config_to_dict(preset(args.config))
    else:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(
                f"config: {args.config!r} is neither a preset nor a file")
        with open(path) as fh:
            record = json.load(fh)
    record = apply_overrides(record, args.override)
    cfg = config_from_dict(record)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seeds=(args.seed,))
    return cfg


def _cmd_run(args) -> int:
    from .bench import run_experiment
    cfg = _load_run_config(args)
    out_dir = Path(args.out_dir) if args.out_dir else Path("out") / cfg.name
    summary = run_experiment(cfg, out_dir)
    ok = [row for row in summary if row["status"] == "ok"]
    failed = [row for row in summary if row["status"] != "ok"]
    print(f"{len(ok)} runs finished, {len(failed)} failed; artifacts in {out_dir}")
    for row in ok:
        print(f"  r={row['r']} snr={row['snr_db']} seed={row['seed']}: "
              f"eval accuracy {row['eval_accuracy']:.4f}")
    for row in failed:
        failed_run = row["status"].startswith("failed:")
        detail = f" at step {row['steps']}: {row['message']}" if failed_run else ""
        print(f"  r={row['r']} snr={row['snr_db']} seed={row['seed']}: "
              f"{row['status']}{detail}")
    return 0 if not failed else 1


def _cmd_cost(args) -> int:
    spec = _build_section(LayerSpec, apply_overrides({}, args.sizes), "sizes")
    rows = cost_report(spec)
    comp = cost_comparison(spec.r)
    width = max(len(f"{row.kind} {row.side}/{row.form}") for row in rows)
    print(f"{'design'.ljust(width)}  parameters        macs  transmissions")
    for row in rows:
        name = f"{row.kind} {row.side}/{row.form}"
        print(f"{name.ljust(width)}  {row.parameters:10d}  {row.macs:10d}  "
              f"{row.transmissions:13d}")
    print()
    print("algorithm     transmission      channel estimation")
    for row in comp:
        bound = "<= " if row.transmission_bound else "   "
        ebound = "<= " if row.estimation_bound else "   "
        print(f"{row.algorithm:12s}  {bound}{row.transmission_factor:<12.6g}  "
              f"{ebound}{row.estimation_factor:<.6g}")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        header = ("kind", "side", "form", "parameters", "macs", "transmissions")
        _write_csv(out / "cost.csv", header,
                   [[getattr(row, k) for k in header] for row in rows])
        header = ("algorithm", "transmission_factor", "transmission_bound",
                  "estimation_factor", "estimation_bound")
        _write_csv(out / "comparison.csv", header,
                   [[getattr(row, k) for k in header] for row in comp])
    return 0


def _cmd_regret(args) -> int:
    record = apply_overrides({}, args.override)
    if args.seed is not None:
        record["seed"] = args.seed
    cfg = _build_section(RegretConfig, record, "regret")
    if isinstance(cfg.sigmas, list):
        cfg = dataclasses.replace(cfg, sigmas=tuple(float(s) for s in cfg.sigmas))
    result = regret_experiment(cfg)
    for i, sigma in enumerate(cfg.sigmas):
        print(f"sigma={sigma}: slope {result.slopes[i]:+.3f}, "
              f"final avg regret {result.final[i]:.6g}")
    print(f"ratio (largest vs smallest positive sigma): "
          f"measured {result.measured_ratio:.3f}, "
          f"predicted {result.predicted_ratio:.3f}")
    if result.diverged:
        print("warning: the iterates diverged; results are unreliable")
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        mean_curve = result.avg_regret.mean(axis=1)
        _write_csv(out / "regret_curves.csv", ("t", *(f"sigma_{s}" for s in cfg.sigmas)),
                   [(int(t), *col) for t, col in zip(result.ts, mean_curve.T)])
        _write_json(out / "regret_summary.json", {
            "sigmas": list(cfg.sigmas),
            "slopes": [float(s) for s in result.slopes],
            "final": [float(v) for v in result.final],
            "measured_ratio": result.measured_ratio,
            "predicted_ratio": result.predicted_ratio,
            "c0": result.c0,
            "c1": result.c1,
            "diameter": result.diameter,
            "grad_bound": result.grad_bound,
            "diverged": result.diverged,
        })
        print(f"artifacts in {out}")
    return 1 if result.diverged else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "cost":
            return _cmd_cost(args)
        if args.command == "regret":
            return _cmd_regret(args)
        if args.command == "verify":
            failures = verify_all()
            return 0 if failures == 0 else 1
    except ConfigError as exc:
        record = {"error": "config", "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 2
    except Exception as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
