"""Command-line surface: synthetic-graph generation, self-training runs,
hyperparameter sweeps, and report emission.

Exit codes: 0 success, 2 configuration/input error, 3 runtime failure.
A JSON config file can seed any run/sweep option; explicit flags win.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import statistics
import sys
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .graph import graph_homophily, load_graph_dir, make_partition, save_graph_dir
from .model import TrainConfig
from .orchestrator import RunConfig, VARIANTS, bin_csv_rows, run_self_training, stage_csv_rows
from .synth import BIAS_MODES, SynthConfig, generate_graph, sample_training_set

SWEEP_GRIDS = {
    "lambda_s": [round(1.3 + 0.2 * i, 1) for i in range(8)],
    "lambda_d": [round(0.07 + 0.01 * i, 2) for i in range(8)],
    "delta_h": [round(0.1 * (i + 1), 1) for i in range(9)],
}


def _field_defaults(cls) -> dict:
    return {f.name: f.default for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


def _option(field_name: str) -> str:
    """Run option (flag and config-file key) of a RunConfig field."""
    return "k" if field_name == "k_per_stage" else field_name


_CONFIG_DEFAULTS = _field_defaults(RunConfig)  # every RunConfig field but the nested train
_TRAIN_DEFAULTS = _field_defaults(TrainConfig)
_RUN_DEFAULTS = {
    **{_option(name): value for name, value in _CONFIG_DEFAULTS.items()}, **_TRAIN_DEFAULTS,
    # options that are no RunConfig or TrainConfig field
    "repeat": 1, "label_rate": 0.02, "bias_mode": "representative", "val_fraction": 0.05,
    "jobs": 1, "graph": None, "out": None,
}
_NONE_DEFAULT_TYPES = {"k": int, "graph": str, "out": str}


def _check_config_value(key: str, value):
    """Type of one --config value: that of its default; an int passes for a float."""
    if value is None and _RUN_DEFAULTS[key] is None:
        return value
    expected = _NONE_DEFAULT_TYPES.get(key, type(_RUN_DEFAULTS[key]))
    allowed = (int, float) if expected is float else expected
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValueError(f"config key {key!r} must be {expected.__name__}, got {value!r}")
    return float(value) if expected is float else value


def _add_run_options(p: argparse.ArgumentParser) -> None:
    d = _RUN_DEFAULTS
    p.add_argument("--config", help="JSON file with option defaults (flags override)")
    p.add_argument("--graph", help="graph directory (edges.csv/features.csv/labels.csv)")
    p.add_argument("--out", help="output directory")
    p.add_argument("--variant", help=f"comma list from {','.join(VARIANTS)} (default {d['variant']})")
    p.add_argument("--repeat", type=int, help=f"number of seeds per variant (default {d['repeat']})")
    p.add_argument("--seed", type=int, help=f"base seed (default {d['seed']})")
    p.add_argument("--label-rate", type=float, dest="label_rate",
                   help=f"labeled fraction (default {d['label_rate']})")
    p.add_argument("--bias-mode", dest="bias_mode", choices=BIAS_MODES,
                   help=f"training-set bias mode (default {d['bias_mode']})")
    p.add_argument("--val-fraction", type=float, dest="val_fraction",
                   help=f"validation fraction (default {d['val_fraction']})")
    p.add_argument("--stages", type=int, help=f"max self-training stages (default {d['stages']})")
    p.add_argument("--k", type=int, help="pseudo-nodes per stage (default: labeled-set size)")
    p.add_argument("--delta-c", type=float, dest="delta_c",
                   help=f"confidence threshold (default {d['delta_c']})")
    p.add_argument("--delta-h", type=float, dest="delta_h",
                   help=f"heterophily threshold (default {d['delta_h']})")
    p.add_argument("--lambda-s", type=float, dest="lambda_s",
                   help=f"homophily-consistency weight (default {d['lambda_s']})")
    p.add_argument("--lambda-d", type=float, dest="lambda_d",
                   help=f"pseudo-head loss weight (default {d['lambda_d']})")
    p.add_argument("--n-bins", type=int, dest="n_bins", help=f"homophily bins (default {d['n_bins']})")
    p.add_argument("--hop", type=int, help=f"multi-hop order (default {d['hop']})")
    p.add_argument("--hidden", type=int, help=f"model width (default {d['hidden']})")
    p.add_argument("--epochs", type=int, help=f"training epochs per stage (default {d['epochs']})")
    p.add_argument("--learning-rate", type=float, dest="learning_rate",
                   help=f"Adam step (default {d['learning_rate']})")
    p.add_argument("--weight-decay", type=float, dest="weight_decay",
                   help=f"L2 strength (default {d['weight_decay']})")
    p.add_argument("--jobs", type=int,
                   help=f"runs in parallel, one core each (default {d['jobs']})")


def _merge_options(args: argparse.Namespace) -> dict:
    opts = dict(_RUN_DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config) as f:
            loaded = json.load(f)
        unknown = set(loaded) - set(_RUN_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        opts.update({key: _check_config_value(key, value) for key, value in loaded.items()})
    for key in _RUN_DEFAULTS:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            opts[key] = flag_val
    if not opts["graph"]:
        raise ValueError("--graph is required (flag or config file)")
    if not opts["out"]:
        raise ValueError("--out is required (flag or config file)")
    if opts["jobs"] < 1:
        raise ValueError(f"jobs must be >= 1, got {opts['jobs']}")
    if opts["repeat"] < 1:
        raise ValueError(f"repeat must be >= 1, got {opts['repeat']}")
    if not 0 < opts["label_rate"] < 1:
        raise ValueError(f"label_rate must lie in (0, 1), got {opts['label_rate']}")
    if not 0 <= opts["val_fraction"] < 1:
        raise ValueError(f"val_fraction must lie in [0, 1), got {opts['val_fraction']}")
    return opts


def _variants(opts: dict) -> list:
    """The names in the ``variant`` option's comma list; RunConfig checks each."""
    variants = [v.strip() for v in opts["variant"].split(",") if v.strip()]
    if not variants:
        raise ValueError("--variant names no variant")
    return variants


def _run_config(opts: dict, variant: str, seed: int, **overrides) -> RunConfig:
    fields = {name: opts[_option(name)] for name in _CONFIG_DEFAULTS}
    fields.update(variant=variant, seed=seed, **overrides)
    train = TrainConfig(**{name: opts[name] for name in _TRAIN_DEFAULTS})
    return RunConfig(train=train, **fields)


def build_partition(graph, label_rate: float, bias_mode: str, n_bins: int,
                    seed: int, val_fraction: float):
    """Seeded labeled/validation split; the labeled set follows the bias mode."""
    labeled = sample_training_set(graph, label_rate, bias_mode, n_bins, seed)
    remaining = np.setdiff1d(np.arange(graph.n, dtype=np.int64), labeled)
    n_val = int(np.floor(val_fraction * graph.n))
    rng = np.random.default_rng([seed, 1])
    validation = np.sort(rng.choice(remaining, size=min(n_val, remaining.size), replace=False))
    return make_partition(graph.n, labeled, validation)


def _single_run(job):
    graph, opts, cfg = job
    partition = build_partition(graph, opts["label_rate"], opts["bias_mode"],
                                cfg.n_bins, cfg.seed, opts["val_fraction"])
    return run_self_training(graph, partition, cfg)


def _execute_runs(graph, opts, configs):
    jobs = [(graph, opts, cfg) for cfg in configs]
    if opts["jobs"] > 1:
        with ProcessPoolExecutor(max_workers=opts["jobs"]) as pool:
            return list(pool.map(_single_run, jobs))
    return [_single_run(job) for job in jobs]


def _sanitize(obj):
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sanitize(v) for v in obj]
    return obj


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", newline="\n") as f:
        json.dump(_sanitize(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="\n") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _aggregate_rows(reports):
    """One row per variant: mean/stdev of ACC, TPV, NPV, PPV across seeds."""
    header = ["variant", "n_seeds", "acc_mean", "acc_std", "tpv_mean", "tpv_std",
              "npv_mean", "npv_std", "ppv_mean", "ppv_std", "acc_backbone_mean"]
    by_variant = {}
    for rep in reports:
        by_variant.setdefault(rep["variant"], []).append(rep)
    rows = []
    for variant in sorted(by_variant):
        group = by_variant[variant]

        def stats(key):
            vals = [r["bin_report"][key] for r in group]
            mean = statistics.fmean(vals)
            std = statistics.stdev(vals) if len(vals) > 1 else 0.0
            return mean, std

        acc = stats("acc_st")
        tpv = stats("tpv")
        npv = stats("npv")
        ppv = stats("ppv")
        back = stats("acc_backbone")
        rows.append([variant, len(group), acc[0], acc[1], tpv[0], tpv[1],
                     npv[0], npv[1], ppv[0], ppv[1], back[0]])
    return header, rows


def _write_run_outputs(out_dir: Path, reports) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    dicts = []
    for rep in reports:
        payload = rep.to_dict()
        dicts.append(payload)
        doc = dict(payload)
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
        _write_json(out_dir / f"run_{rep.variant}_{rep.seed}.json", doc)

    header, rows = _aggregate_rows(dicts)
    _write_csv(out_dir / "aggregate.csv", header, rows)

    stage_header, bin_header = [], []
    stage_rows, bin_rows = [], []
    for rep in reports:
        stage_header, r_s = stage_csv_rows(rep)
        bin_header, r_b = bin_csv_rows(rep)
        stage_rows.extend(r_s)
        bin_rows.extend(r_b)
    _write_csv(out_dir / "stages.csv", stage_header, stage_rows)
    _write_csv(out_dir / "bins.csv", bin_header, bin_rows)


def cmd_generate(args) -> int:
    hist = [float(v) for v in args.target_histogram.split(",")]
    cfg = SynthConfig(n=args.n, classes=args.classes, feature_dim=args.feature_dim,
                      mean_degree=args.mean_degree, target_histogram=np.array(hist),
                      separation=args.separation, seed=args.seed)
    graph = generate_graph(cfg)
    out = Path(args.out)
    save_graph_dir(graph, out)
    meta = {
        "config": {"n": cfg.n, "classes": cfg.classes, "feature_dim": cfg.feature_dim,
                   "mean_degree": cfg.mean_degree, "target_histogram": hist,
                   "separation": cfg.separation, "seed": cfg.seed},
        "measured": {"n_edges": graph.n_edges, "graph_homophily": graph_homophily(graph),
                     "mean_degree": float(np.mean(graph.degrees))},
    }
    _write_json(out / "meta.json", meta)
    print(f"wrote graph with {graph.n} nodes, {graph.n_edges} edges, "
          f"homophily {meta['measured']['graph_homophily']:.3f} to {out}")
    return 0


def cmd_run(args) -> int:
    opts = _merge_options(args)
    graph = load_graph_dir(opts["graph"])
    variants = _variants(opts)
    configs = [_run_config(opts, v, opts["seed"] + i)
               for v in variants for i in range(opts["repeat"])]
    reports = _execute_runs(graph, opts, configs)
    _write_run_outputs(Path(opts["out"]), reports)
    print(f"wrote {len(reports)} run reports to {opts['out']}")
    return 0


def cmd_sweep(args) -> int:
    opts = _merge_options(args)
    if args.param not in SWEEP_GRIDS:
        raise ValueError(f"unknown sweep param {args.param!r}; expected one of {sorted(SWEEP_GRIDS)}")
    values = ([float(v) for v in args.values.split(",")] if args.values is not None
              else SWEEP_GRIDS[args.param])
    graph = load_graph_dir(opts["graph"])
    variants = _variants(opts)

    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    header = None
    all_rows = []
    for value in values:
        configs = [_run_config(opts, v, opts["seed"] + i, **{args.param: value})
                   for v in variants for i in range(opts["repeat"])]
        reports = _execute_runs(graph, opts, configs)
        header, rows = _aggregate_rows([r.to_dict() for r in reports])
        for row in rows:
            all_rows.append([args.param, value] + row)
    _write_csv(out_dir / "sweep.csv", ["param", "value"] + header, all_rows)
    print(f"wrote sweep over {args.param} ({len(values)} values) to {out_dir / 'sweep.csv'}")
    return 0


def cmd_report(args) -> int:
    run_dir = Path(args.runs)
    files = sorted(run_dir.glob("run_*.json"))
    if not files:
        raise ValueError(f"no run_*.json files under {run_dir}")
    dicts = []
    for path in files:
        with open(path) as f:
            dicts.append(json.load(f))
    header, rows = _aggregate_rows(dicts)
    out = Path(args.out) if args.out else run_dir / "aggregate.csv"
    _write_csv(out, header, rows)
    print(" ".join(header))
    for row in rows:
        print(" ".join(f"{v:.4f}" if isinstance(v, float) else str(v) for v in row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hcgst",
                                     description="Homophily-consistent graph self-training")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = _field_defaults(SynthConfig)
    g = sub.add_parser("generate", help="generate a synthetic labeled graph directory")
    g.add_argument("--n", type=int, default=synth["n"])
    g.add_argument("--classes", type=int, default=synth["classes"])
    g.add_argument("--feature-dim", type=int, dest="feature_dim", default=synth["feature_dim"])
    g.add_argument("--mean-degree", type=float, dest="mean_degree", default=synth["mean_degree"])
    g.add_argument("--target-histogram", dest="target_histogram",
                   default=",".join(f"{v:g}" for v in SynthConfig().target_histogram),
                   help="comma list of relative bin masses for node homophily targets")
    g.add_argument("--separation", type=float, default=synth["separation"])
    g.add_argument("--seed", type=int, default=synth["seed"])
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="run self-training variants over seeds")
    _add_run_options(r)
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="sweep one hyperparameter over a value grid")
    _add_run_options(s)
    s.add_argument("--param", required=True, help="one of lambda_s, lambda_d, delta_h")
    s.add_argument("--values", help="comma list overriding the default grid")
    s.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="re-aggregate run_*.json files into aggregate.csv")
    p.add_argument("--runs", required=True, help="directory containing run_*.json")
    p.add_argument("--out", help="aggregate CSV path (default <runs>/aggregate.csv)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"runtime failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
