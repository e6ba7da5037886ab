"""Command line interface.

Subcommands: run, sample, sweep, traces-gen, report. The output directory
root comes from $PLEXSIM_RESULTS (default ./results); --out overrides per
invocation. Validation errors, and a run that fails with a ``ValueError`` or
a ``SimulationError``, go to stderr prefixed with "error: " and exit 2.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from .config import TracesConfig, config_from_dict, load_config
from .runner import build_membership_from_config, build_world, deal_shards, run_experiment
from .sampler import SampleSchedule
from .simnet import SimulationError
from .traces import synth_device_profiles, synth_latency_matrix, write_latency_csv, write_profiles_csv

SWEEPABLE = {
    "sample_size": int,
    "success_fraction": float,
    "n": int,
    "gl_timeout_s": float,
    "protocol_seed": int,
}


def _results_root() -> Path:
    return Path(os.environ.get("PLEXSIM_RESULTS", "results"))


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def cmd_run(args: argparse.Namespace) -> int:
    base_dir = Path(args.config).parent
    try:
        cfg = load_config(args.config)
        if args.validate:
            # The dataset and trace checks run here, the partition's in the deal.
            deal_shards(cfg, build_world(cfg, base_dir), 0)
    except ValueError as exc:
        return _fail(str(exc))
    if args.validate:
        print(f"ok {cfg.config_hash()} {args.config}")
        return 0
    out = Path(args.out) if args.out else _results_root() / Path(args.config).stem
    try:
        summary = run_experiment(cfg, out, base_dir=base_dir)
    except (ValueError, SimulationError) as exc:
        return _fail(str(exc))
    _warn_empty_repetitions(summary)
    print(f"wrote {out}/summary.json")
    for target, entry in summary["cross_seed"].items():
        print(
            f"target {target}: tta_s={_fmt(entry['tta_s_mean'])} "
            f"cta_bytes={_fmt(entry['cta_bytes_mean'])} rta_s={_fmt(entry['rta_s_mean'])} "
            f"not_reached={entry['not_reached']}"
        )
    return 0


def _warn_empty_repetitions(summary: dict) -> None:
    for rep in summary["reps"]:
        if rep["final_accuracy"] is None:
            print(f"warning: repetition {rep['rep']} recorded no accuracy point", file=sys.stderr)


def _fmt(v) -> str:
    if v is None:
        return "n/a"
    return f"{v:.6g}"


def cmd_sample(args: argparse.Namespace) -> int:
    if args.count < 1:
        return _fail(f"--count must be >= 1, got {args.count}")
    try:
        cfg = load_config(args.config)
        membership, _ = build_membership_from_config(cfg, Path(args.config).parent)
        schedule = SampleSchedule(cfg.sample_size, membership)
        for k in range(args.round, args.round + args.count):
            agg = schedule.aggregator(k)
            up = membership.profile(agg).uplink_bps
            print(f"round {k} participants: {' '.join(schedule.participants(k))}")
            print(f"round {k} aggregator: {agg} (uplink {up:.1f} B/s)")
    except ValueError as exc:
        return _fail(str(exc))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.param not in SWEEPABLE:
        return _fail(f"unsupported sweep parameter {args.param!r}; pick from {sorted(SWEEPABLE)}")
    try:
        cfg = load_config(args.config)
        values = [SWEEPABLE[args.param](v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        return _fail(str(exc))
    if not values:
        return _fail("no sweep values given")
    out_root = Path(args.out) if args.out else _results_root() / f"{Path(args.config).stem}-sweep"
    rows = []
    for v in values:
        try:
            swept = config_from_dict({**cfg.canonical_dict(), args.param: v})
            out = out_root / f"{args.param}-{v}"
            summary = run_experiment(swept, out, base_dir=Path(args.config).parent)
        except (ValueError, SimulationError) as exc:
            return _fail(str(exc))
        _warn_empty_repetitions(summary)
        stats = [r["round_stats"] for r in summary["reps"] if r["round_stats"]]
        mean_dur = sum(s["mean"] for s in stats) / len(stats) if stats else None
        target = repr(cfg.targets[0])
        entry = summary["cross_seed"][target]
        rows.append(
            {
                args.param: v,
                "mean_round_duration_s": mean_dur,
                "tta_s": entry["tta_s_mean"],
                "cta_bytes": entry["cta_bytes_mean"],
                "rta_s": entry["rta_s_mean"],
                "not_reached": entry["not_reached"],
            }
        )
    header = list(rows[0].keys())
    print(",".join(header))
    for row in rows:
        print(",".join(_fmt(row[h]) if not isinstance(row[h], int) else str(row[h]) for h in header))
    with open(out_root / "sweep.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=header)
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {out_root}/sweep.csv")
    return 0


def cmd_traces_gen(args: argparse.Namespace) -> int:
    try:
        latency = synth_latency_matrix(args.cities, args.seed, args.median_rtt_ms, args.rtt_sigma)
        profiles = synth_device_profiles(
            args.n, args.seed, args.uplink_median, args.downlink_median, args.step_median, args.sigma
        )
    except ValueError as exc:
        return _fail(str(exc))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_latency_csv(out / "latency.csv", latency)
    write_profiles_csv(out / "profiles.csv", profiles)
    print(f"wrote {out}/latency.csv ({args.cities} cities) and {out}/profiles.csv ({args.n} devices)")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    rows = []
    for d in args.dirs:
        summary_path = Path(d) / "summary.json"
        if not summary_path.exists():
            return _fail(f"no summary.json under {d}")
        try:
            with open(summary_path) as fh:
                summary = json.load(fh)
            finals = [r["final_accuracy"] for r in summary["reps"] if r["final_accuracy"] is not None]
            cross = summary["cross_seed"]
            if not isinstance(cross, dict) or not cross:
                return _fail(f"{summary_path} is not a plexsim summary (cross_seed is not a non-empty object)")
            for target, entry in cross.items():
                rows.append(
                    {
                        "experiment": str(d),
                        "algorithm": summary["algorithm"],
                        "config_hash": summary["config_hash"],
                        "target": target,
                        "tta_s": entry["tta_s_mean"],
                        "cta_bytes": entry["cta_bytes_mean"],
                        "rta_s": entry["rta_s_mean"],
                        "not_reached": entry["not_reached"],
                        "final_accuracy_mean": sum(finals) / len(finals) if finals else None,
                    }
                )
        except ValueError as exc:  # json.JSONDecodeError is one
            return _fail(f"{summary_path} is not valid JSON: {exc}")
        except (KeyError, TypeError) as exc:
            return _fail(f"{summary_path} is not a plexsim summary ({type(exc).__name__}: {exc})")
    header = list(rows[0].keys())
    print(",".join(header))
    for row in rows:
        print(",".join("n/a" if row[h] is None else str(row[h]) for h in header))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=header)
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plexsim",
        description="Trace-driven simulator for serverless federated learning",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run one experiment config")
    p.add_argument("config")
    p.add_argument("--out", help="output directory (default $PLEXSIM_RESULTS/<config stem>)")
    p.add_argument("--validate", action="store_true", help="validate the config and exit")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sample", help="print the participant set and aggregator of a round")
    p.add_argument("config")
    p.add_argument("--round", "-k", type=int, required=True)
    p.add_argument("--count", type=int, default=1, help="how many consecutive rounds to print")
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("sweep", help="run the config once per value of one parameter")
    p.add_argument("config")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sweep)

    tr = TracesConfig()
    p = sub.add_parser("traces-gen", help="generate synthetic latency and device traces")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--cities", type=int, default=tr.cities)
    p.add_argument("--seed", type=int, default=tr.seed)
    p.add_argument("--median-rtt-ms", type=float, default=tr.median_rtt_ms)
    p.add_argument("--rtt-sigma", type=float, default=tr.rtt_sigma)
    p.add_argument("--uplink-median", type=float, default=tr.uplink_median_bps)
    p.add_argument("--downlink-median", type=float, default=tr.downlink_median_bps)
    p.add_argument("--step-median", type=float, default=tr.sec_per_step_median)
    p.add_argument("--sigma", type=float, default=tr.profile_sigma)
    p.set_defaults(fn=cmd_traces_gen)

    p = sub.add_parser("report", help="tabulate summaries from experiment directories")
    p.add_argument("dirs", nargs="+")
    p.add_argument("--out", help="also write the table as CSV")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
