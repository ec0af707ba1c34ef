"""Command-line orchestration: dataset generation, runs, sweeps, oracle suites.

Exit codes: 0 success, 2 usage or file error, 3 numeric failure. Outputs
are plain delimited text and line-delimited JSON records so any plotting
tool can consume them; this tool emits plot data, not plots.
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
    except (ValueError, OSError) as exc:
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
    if args.seed is not None and args.seeds is not None:
        raise ValueError("--seed and --seeds are mutually exclusive")
    overrides = parse_set_overrides(args.set)
    for key, value in (("out", args.out), ("seeds", args.seeds), ("seeds", args.seed)):
        if value is not None:
            overrides[key] = str(value)
    # config.txt cuts a line at '#' and a value at a line break, so neither could be re-read
    for key, text in overrides.items():
        if "#" in text or "".join(text.splitlines()) != text:
            raise ValueError(f"{key} {text!r} holds '#' or a line break, which config.txt "
                             "cannot carry")
    cfg = RunConfig.load(args.config, overrides) if args.config else RunConfig.from_entries(overrides)
    if not cfg.seeds:
        raise ValueError("no seeds given")
    negative = [seed for seed in cfg.seeds if seed < 0]
    if negative:
        raise ValueError(f"seeds must be non-negative, got {', '.join(map(repr, negative))}")
    check_no_repeats("seeds", cfg.seeds)
    return cfg


def check_no_repeats(name, values):
    """A repeated seed or arm value would train the same run twice and count it as two."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"{name} repeats {', '.join(map(repr, repeated))}")


def resolve_dataset(cfg: RunConfig, task):
    if not cfg.data_file:
        return tasks.make_dataset(task, cfg.data_size, cfg.data_seed, cfg.data_mode, cfg.data_noise)
    dataset = tasks.load_dataset(cfg.data_file)
    made_for = dataset.meta.get("task")
    if made_for in tasks.TASK_NAMES and made_for != task.name:
        raise ValueError(f"{cfg.data_file} was generated for task {made_for!r}, not {task.name!r}")
    return dataset


def cmd_gen_data(args) -> int:
    task = tasks.make_task(args.task)
    dataset = tasks.make_dataset(task, args.size, args.seed, args.mode, args.noise)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    tasks.save_dataset(dataset, out)
    print(f"wrote {len(dataset)} rows to {out}")
    return 0


REPORT_COLUMNS = ("run_id", "seed", "metric", "t_eps", "mean_refined_value",
                  "final_constraint", "final_lambda")
SUMMARY_COLUMNS = ("mean", "std", "runs")


def write_report(rows, path, columns=REPORT_COLUMNS):
    """CSV of `columns` per row: floats by repr, every other value by str."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = (row[c] for c in columns)
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in cells) + "\n")


def _summary(values) -> dict:
    """Mean, ddof-1 std (0 for a single value) and count of `values`."""
    vals = np.array(values)
    return {"mean": float(vals.mean()),
            "std": float(vals.std(ddof=1)) if len(vals) > 1 else 0.0, "runs": len(vals)}


def _aggregate(rows, key):
    """One summary of mean_refined_value per value of `key`, in sorted key order."""
    groups = {}
    for row in rows:
        groups.setdefault(row[key], []).append(row["mean_refined_value"])
    return [{key: value, **_summary(members)} for value, members in sorted(groups.items())]


def _drive(args, default_name, arms_of, run_id, on_run, arm_major=False):
    """The one run driver: every seed runs every arm of `arms_of(cfg)` (training overrides).

    Every arm's RefineConfig checks and its fit to the data (`check_data`)
    run before config.txt. Each seed's arms replay one base stream, and
    `on_run(rows, result)` follows each run. Only report rows are kept, seed-
    major or, with `arm_major`, arm-major. Returns (cfg, out, rows).
    """
    cfg = load_run_config(args)
    arms = [replace(cfg.train, **overrides) for overrides in arms_of(cfg)]
    task = tasks.make_task(cfg.task)
    dataset = resolve_dataset(cfg, task)
    for arm in arms:
        training.check_data(arm, dataset, task)
    out = Path(cfg.out or default_name)
    out.mkdir(parents=True, exist_ok=True)
    cfg.out = str(out)
    (out / "config.txt").write_text(cfg.to_text())
    rows = []
    for seed in cfg.seeds:
        configs = [replace(arm, seed=seed) for arm in arms]
        for config, result in zip(configs, training.run_arms(configs, dataset, task)):
            rows.append({"run_id": run_id(config), "seed": config.seed, "metric": config.metric,
                         "t_eps": float(config.t_eps),
                         **{name: result.final[name] for name in REPORT_COLUMNS[4:]}})
            on_run(rows, result)
    if arm_major:
        rows = [row for k in range(len(arms)) for row in rows[k::len(arms)]]
    write_report(rows, out / "report.csv")
    return cfg, out, rows


def cmd_train(args) -> int:
    def one_seed(cfg):
        if len(cfg.seeds) > 1:
            raise ValueError(f"train runs one seed, got {len(cfg.seeds)}; "
                             "ablate-metric and sweep-teps take several")
        return [{}]

    kept = []
    cfg, out, _ = _drive(args, "run", one_seed, lambda config: "train",
                         lambda rows, result: kept.append(result))
    [result] = kept
    (out / "metrics.jsonl").write_text("".join(json.dumps(row) + "\n" for row in result.log))
    save_checkpoint(result, cfg.task, out / "checkpoint.json")
    (out / "final.json").write_text(json.dumps(result.final, sort_keys=True))
    print(f"run complete: mean refined value {result.final['mean_refined_value']:.4f} "
          f"(base {result.final['mean_base_value']:.4f}), "
          f"constraint {result.final['final_constraint']:.4f}, "
          f"lambda {result.final['final_lambda']:.4f}")
    print(f"artifacts in {out}")
    return 0


def cmd_sweep_teps(args) -> int:
    def sweep(cfg):
        if not cfg.sweep_t_eps:
            raise ValueError("sweep.t_eps lists no values")
        check_no_repeats("sweep.t_eps", cfg.sweep_t_eps)
        return [dict(t_eps=float(t_eps), metric="fisher") for t_eps in cfg.sweep_t_eps]

    def progress(rows, result):
        row = rows[-1]
        print(f"t_eps={row['t_eps']:g} seed={row['seed']}: {row['mean_refined_value']:.4f}")

    _, out, rows = _drive(args, "sweep_teps", sweep, lambda config: f"teps_{config.t_eps:g}",
                          progress, arm_major=True)
    agg = _aggregate(rows, "t_eps")
    write_report(agg, out / "aggregate.csv", ("t_eps", *SUMMARY_COLUMNS))
    for entry in agg:
        print(f"t_eps={entry['t_eps']:g}: {entry['mean']:.4f} +- {entry['std']:.4f} "
              f"({entry['runs']} runs)")
    return 0


def cmd_ablate_metric(args) -> int:
    def progress(rows, result):
        if rows[-1]["metric"] == "isotropic":
            fisher, isotropic = (row["mean_refined_value"] for row in rows[-2:])
            print(f"seed {rows[-1]['seed']}: fisher {fisher:.4f} isotropic {isotropic:.4f} "
                  f"delta {fisher - isotropic:+.4f}")

    _, out, rows = _drive(args, "ablate_metric",
                          lambda cfg: [dict(metric="fisher"), dict(metric="isotropic")],
                          lambda config: f"{config.metric}_{config.seed}", progress)
    values = [row["mean_refined_value"] for row in rows]
    delta = {"metric": "delta", **_summary(np.subtract(values[0::2], values[1::2]))}
    write_report([*_aggregate(rows, "metric"), delta], out / "aggregate.csv",
                 ("metric", *SUMMARY_COLUMNS))
    print(f"aggregate delta (fisher - isotropic): {delta['mean']:+.4f}")
    return 0


def cmd_validate(args) -> int:
    suites = validate.all_suites()
    if args.list:
        for name, fn in suites:
            print(f"{name}: {fn.__doc__.strip().splitlines()[0]}")
        return 0
    unknown = set(args.suite) - {name for name, _ in suites}
    if unknown:
        raise ValueError(f"unknown suite(s): {sorted(unknown)}")
    selected = [(n, f) for n, f in suites if not args.suite or n in args.suite]
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
    """`lo,hi,points` per action axis; `GridSpec` refuses a bad range or point count."""
    try:
        lo, hi, points = text.split(",")
        return transport.GridSpec((float(lo),) * 2, (float(hi),) * 2, (int(points),) * 2)
    except ValueError:
        raise ValueError("--grid expects lo,hi,points with finite lo < hi and points >= 2, "
                         f"got {text!r}") from None


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
    states, base = training.evaluation_inputs(tmap.base_policy, task, args.samples, rng)
    refined = tmap.action_map(states)(base)
    behavioral = task.sample_behavioral(rng, args.samples)
    for name, cloud in (("base", base), ("refined", refined), ("behavioral", behavioral)):
        np.savetxt(out / f"samples_{name}.csv", cloud, delimiter=",", header="a1,a2", comments="")

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
