"""Command-line orchestration: dataset generation, runs, sweeps, oracle suites.

Exit codes: 0 success, 2 usage error, 3 numeric failure. Outputs are plain
delimited text and line-delimited JSON records so any plotting tool can
consume them; this tool emits plot data, not plots.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import tasks, training, transport, validate
from .config import RunConfig, parse_set_overrides
from .errors import NumericError
from .training import load_checkpoint, save_checkpoint

USAGE_EXIT = 2
NUMERIC_EXIT = 3


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fisherflow",
        description="Flow-policy refinement runs, ablations and oracle validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic offline dataset")
    p.add_argument("--task", required=True)
    p.add_argument("--size", type=int, default=8192)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=("bandit", "chain"), default="bandit")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_gen_data)

    for name, handler in (("train", cmd_train), ("sweep-teps", cmd_sweep_teps),
                          ("ablate-metric", cmd_ablate_metric)):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--seed", type=int, default=None, help="single seed (excludes --seeds)")
        p.add_argument("--seeds", default=None, help="comma-separated seed list")
        p.add_argument("--out", default=None)
        p.set_defaults(handler=handler)

    p = sub.add_parser("validate", help="run the analytic oracle suites")
    p.add_argument("--list", action="store_true", help="enumerate suites without running")
    p.add_argument("--suite", action="append", default=[], help="run only named suites")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("export-plots", help="dump sample clouds and value heatmaps")
    p.add_argument("--run", required=True, help="directory written by `train`")
    p.add_argument("--out", default=None)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--grid", default="-4.5,4.5,121", help="lo,hi,points per action axis")
    p.set_defaults(handler=cmd_export_plots)
    return parser


def load_run_config(args) -> RunConfig:
    overrides = parse_set_overrides(args.set)
    if args.out is not None:
        overrides["out"] = args.out
    if args.seed is not None and args.seeds is not None:
        raise ValueError("--seed and --seeds are mutually exclusive")
    if args.seeds is not None:
        overrides["seeds"] = args.seeds
    if args.seed is not None:
        overrides["seeds"] = str(args.seed)
    cfg = RunConfig.load(args.config, overrides) if args.config else RunConfig.from_entries(overrides)
    if not cfg.seeds:
        raise ValueError("no seeds given")
    check_no_repeats("seeds", cfg.seeds)
    return cfg


def check_no_repeats(name, values):
    """A repeated seed or arm value would train the same run twice and count it as two."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{name} repeats {', '.join(map(repr, repeated))}")


def check_fisher_t_eps(values):
    """Every perturbed time the fisher metric will run at must lie inside (0, 1)."""
    bad = [t for t in values if not 0.0 < t < 1.0]
    if bad:
        raise ValueError(f"t_eps must lie strictly inside (0, 1), got {', '.join(map(repr, bad))}")


def resolve_dataset(cfg: RunConfig, task):
    if cfg.data_file:
        return tasks.load_dataset(cfg.data_file)
    return tasks.make_dataset(task, cfg.data_size, cfg.data_seed, cfg.data_mode, cfg.data_noise)


def cmd_gen_data(args) -> int:
    task = tasks.make_task(args.task)
    dataset = tasks.make_dataset(task, args.size, args.seed, args.mode, args.noise)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tasks.save_dataset(dataset, out)
    print(f"wrote {len(dataset)} rows to {out}")
    return 0


def report_row(run_id, seed, metric, t_eps, final) -> dict:
    return {
        "run_id": run_id,
        "seed": int(seed),
        "metric": metric,
        "t_eps": float(t_eps),
        "mean_refined_value": final["mean_refined_value"],
        "final_constraint": final["final_constraint"],
        "final_lambda": final["final_lambda"],
    }


REPORT_COLUMNS = ("run_id", "seed", "metric", "t_eps", "mean_refined_value",
                  "final_constraint", "final_lambda")


def write_report(rows, path):
    with open(path, "w") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_cell(row[c]) for c in REPORT_COLUMNS) + "\n")


def _cell(value):
    return repr(value) if isinstance(value, float) else str(value)


def _aggregate(rows, key_fields):
    groups = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in key_fields), []).append(row)
    out = []
    for key, members in sorted(groups.items()):
        vals = np.array([m["mean_refined_value"] for m in members])
        entry = dict(zip(key_fields, key))
        entry.update(mean=float(vals.mean()), std=float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
                     runs=len(vals))
        out.append(entry)
    return out


def _run_arms(cfg: RunConfig, task, dataset, seed, arms):
    """Yield one run per arm (training overrides) of one seed, in order.

    Analytic-Q arms replay one base stream recorded for the seed; learned-
    critic arms sample live.
    """
    train = replace(cfg.train, seed=int(seed))
    base = training.BaseStream.record(train, dataset, task) if train.analytic_q else None
    for overrides in arms:
        yield training.run_refinement(replace(train, **overrides), dataset, task, base=base)


def _prepare_out(cfg: RunConfig, default_name) -> Path:
    out = Path(cfg.out) if cfg.out else Path(default_name)
    out.mkdir(parents=True, exist_ok=True)
    cfg.out = str(out)
    (out / "config.txt").write_text(cfg.to_text())
    return out


def cmd_train(args) -> int:
    cfg = load_run_config(args)
    if len(cfg.seeds) > 1:
        raise ValueError(f"train runs one seed, got {len(cfg.seeds)}; "
                         "ablate-metric and sweep-teps take several")
    check_fisher_t_eps([cfg.train.t_eps] if cfg.train.metric == "fisher" else [])
    task = tasks.make_task(cfg.task)
    dataset = resolve_dataset(cfg, task)
    out = _prepare_out(cfg, "run")
    [seed] = cfg.seeds
    [result] = _run_arms(cfg, task, dataset, seed, [{}])
    with open(out / "metrics.jsonl", "w") as fh:
        for row in result.log:
            fh.write(json.dumps(row) + "\n")
    save_checkpoint(result, cfg.task, out / "checkpoint.json")
    row = report_row("train", seed, cfg.train.metric, cfg.train.t_eps, result.final)
    write_report([row], out / "report.csv")
    (out / "final.json").write_text(json.dumps(result.final, sort_keys=True))
    print(f"run complete: mean refined value {result.final['mean_refined_value']:.4f} "
          f"(base {result.final['mean_base_value']:.4f}), "
          f"constraint {result.final['final_constraint']:.4f}, "
          f"lambda {result.final['final_lambda']:.4f}")
    print(f"artifacts in {out}")
    return 0


def cmd_sweep_teps(args) -> int:
    cfg = load_run_config(args)
    if not cfg.sweep_t_eps:
        raise ValueError("sweep.t_eps lists no values")
    check_no_repeats("sweep.t_eps", cfg.sweep_t_eps)
    check_fisher_t_eps(cfg.sweep_t_eps)
    task = tasks.make_task(cfg.task)
    dataset = resolve_dataset(cfg, task)
    out = _prepare_out(cfg, "sweep_teps")
    done = {}
    for seed in cfg.seeds:
        arms = [dict(t_eps=float(t_eps), metric="fisher") for t_eps in cfg.sweep_t_eps]
        for t_eps, result in zip(cfg.sweep_t_eps, _run_arms(cfg, task, dataset, seed, arms)):
            done[t_eps, seed] = report_row(f"teps_{t_eps:g}", seed, "fisher", t_eps, result.final)
            print(f"t_eps={t_eps:g} seed={seed}: {done[t_eps, seed]['mean_refined_value']:.4f}")
    # seeds run in the outer loop (one base stream at a time); report rows stay t_eps-major
    rows = [done[t_eps, seed] for t_eps in cfg.sweep_t_eps for seed in cfg.seeds]
    write_report(rows, out / "report.csv")
    agg = _aggregate(rows, ("t_eps",))
    with open(out / "aggregate.csv", "w") as fh:
        fh.write("t_eps,mean,std,runs\n")
        for entry in agg:
            fh.write(f"{entry['t_eps']!r},{entry['mean']!r},{entry['std']!r},{entry['runs']}\n")
    for entry in agg:
        print(f"t_eps={entry['t_eps']:g}: {entry['mean']:.4f} +- {entry['std']:.4f} "
              f"({entry['runs']} runs)")
    return 0


def cmd_ablate_metric(args) -> int:
    cfg = load_run_config(args)
    check_fisher_t_eps([cfg.train.t_eps])
    task = tasks.make_task(cfg.task)
    dataset = resolve_dataset(cfg, task)
    out = _prepare_out(cfg, "ablate_metric")
    rows, deltas = [], []
    metrics = ("fisher", "isotropic")
    for seed in cfg.seeds:
        pair = {}
        arms = [dict(metric=metric) for metric in metrics]
        for metric, result in zip(metrics, _run_arms(cfg, task, dataset, seed, arms)):
            rows.append(report_row(f"{metric}_{seed}", seed, metric, cfg.train.t_eps,
                                   result.final))
            pair[metric] = rows[-1]["mean_refined_value"]
        deltas.append(pair["fisher"] - pair["isotropic"])
        print(f"seed {seed}: fisher {pair['fisher']:.4f} isotropic {pair['isotropic']:.4f} "
              f"delta {deltas[-1]:+.4f}")
    write_report(rows, out / "report.csv")
    agg = _aggregate(rows, ("metric",))
    deltas = np.array(deltas)
    with open(out / "aggregate.csv", "w") as fh:
        fh.write("metric,mean,std,runs\n")
        for entry in agg:
            fh.write(f"{entry['metric']},{entry['mean']!r},{entry['std']!r},{entry['runs']}\n")
        fh.write(f"delta,{float(deltas.mean())!r},"
                 f"{float(deltas.std(ddof=1)) if len(deltas) > 1 else 0.0!r},{len(deltas)}\n")
    print(f"aggregate delta (fisher - isotropic): {deltas.mean():+.4f}")
    return 0


def cmd_validate(args) -> int:
    suites = validate.all_suites()
    if args.list:
        for name, fn in suites:
            print(f"{name}: {fn.__doc__.strip().splitlines()[0]}")
        return 0
    selected = suites
    if args.suite:
        wanted = set(args.suite)
        unknown = wanted - {name for name, _ in suites}
        if unknown:
            raise ValueError(f"unknown suite(s): {sorted(unknown)}")
        selected = [(n, f) for n, f in suites if n in wanted]
    failures = 0
    for name, fn in selected:
        outcome = fn()
        status = "PASS" if outcome.passed else "FAIL"
        print(f"[{status}] {name}: {outcome.detail}")
        failures += not outcome.passed
    if failures:
        print(f"{failures} suite(s) failed", file=sys.stderr)
        return NUMERIC_EXIT
    return 0


def _parse_plot_grid(text) -> transport.GridSpec:
    """`lo,hi,points` per action axis, with finite lo < hi and points >= 2."""
    try:
        lo, hi, points = text.split(",")
        lo, hi, points = float(lo), float(hi), int(points)
        ok = np.isfinite(lo) and np.isfinite(hi) and lo < hi and points >= 2
    except ValueError:
        ok = False
    if not ok:
        raise ValueError("--grid expects lo,hi,points with finite lo < hi and points >= 2, "
                         f"got {text!r}")
    return transport.GridSpec((lo,) * 2, (hi,) * 2, (points,) * 2)


def cmd_export_plots(args) -> int:
    run_dir = Path(args.run)
    ckpt = run_dir / "checkpoint.json"
    if not ckpt.exists():
        raise ValueError(f"no checkpoint found under {run_dir}")
    if args.samples < 1:
        raise ValueError(f"--samples must be >= 1, got {args.samples}")
    grid = _parse_plot_grid(args.grid)
    task, tmap = load_checkpoint(ckpt)
    out = Path(args.out) if args.out else run_dir
    out.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(0)
    states = task.sample_states(rng, args.samples)
    z = rng.standard_normal((args.samples, task.action_dim))
    base = tmap.base_policy.sample(states, z)
    refined = base + tmap.residual(states, base)
    behavioral = task.sample_behavioral(None, rng, args.samples)
    np.savetxt(out / "samples_base.csv", base, delimiter=",", header="a1,a2", comments="")
    np.savetxt(out / "samples_refined.csv", refined, delimiter=",", header="a1,a2", comments="")
    np.savetxt(out / "samples_behavioral.csv", behavioral, delimiter=",", header="a1,a2",
               comments="")

    pts = grid.mesh()
    values, _ = task.q_value(None, pts)
    density = task.density().density(pts)
    header = "a1,a2,q_value,behavioral_density"
    table = np.column_stack([pts, values, density])
    np.savetxt(out / "value_heatmap.csv", table, delimiter=",", header=header, comments="")
    print(f"wrote {args.samples} samples per cloud and a "
          f"{grid.points[0]}x{grid.points[1]} heatmap to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
