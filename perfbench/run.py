#!/usr/bin/env python3
"""Benchmark for hcgst: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload hcgst-5k --seed 0 --seconds 45 --trace 0

Workloads (see README.md for why each exists; BENCHMARK.json lists the
first two):
  hcgst-5k      set-up: `hcgst generate --n 5000`; timed: one `hcgst run`
                (hcgst variant, heterophily-biased labels, 2 stages)
  analyze-20k   set-up: `hcgst generate --n 20000`; timed: load, k-hop views,
                true and estimated homophily, binning, candidates, three samplers
  variants-500  set-up: the acceptance fixture graph; timed: one `hcgst run`
                over all seven variants
  hcgst-20k     as hcgst-5k at 20k nodes: the ROADMAP headline run, one
                iteration per invocation

The set-up and the timed iterations each run in a worker process of their
own (worker.py). Set-up repeats ``setup_repeats`` times and reports the
median; timed iterations repeat until they fill ``--seconds`` as closely as
whole iterations can (and at least ``min_iterations`` times), and report the
median. With ``--trace 1`` the workers wrap hcgst's public functions
(tracing.py) and the per-layer metrics are printed instead of the end-to-end
ones. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Artifacts (per-run records, spans,
repeat digests) go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 170.0     # the whole invocation must end within 180 s
CHECK_RESERVE_S = 20.0  # time kept back for the output checks after the iterations

VARIANTS = ["hcgst", "st_confidence", "no_selection", "no_multihop", "no_dualhead",
            "backbone_only", "cmd_only"]

# variants-500 and hcgst-20k are for runs by hand: on a shared 2-core host
# the seven-variant sweep's timings spread too much between runs, and a
# default 20k run (41-62 s) allows one iteration per invocation.
WORKLOADS = {
    "hcgst-5k": {"task": "cli_run", "graph": "generate_cli", "n": 5000, "setup_repeats": 5,
                 "min_iterations": 2, "variants": ["hcgst"]},
    "variants-500": {"task": "cli_run", "graph": "fixture", "n": 500, "setup_repeats": 40,
                     "min_iterations": 2, "variants": VARIANTS},
    "analyze-20k": {"task": "analyze", "graph": "generate_cli", "n": 20000, "setup_repeats": 2,
                    "min_iterations": 2, "override": 400, "check_nodes": 200},
    "hcgst-20k": {"task": "cli_run", "graph": "generate_cli", "n": 20000, "setup_repeats": 1,
                  "min_iterations": 1, "variants": ["hcgst"]},
}

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Output quality is the same on every run of a seed but differs between seeds
# (test_acc IQR ~17% of its median on variants-500, train_kl ~70% on hcgst-20k),
# so it is compared seed by seed: printed on every run, and reported as the
# per-layer metrics quality.test_acc and quality.train_kl.
QUALITY = {"test_acc": "fraction", "train_kl": "nats"}

PER_LAYER = [
    "model.train_s", "model.epochs", "model.epoch_ms", "model.step_s", "model.grad_s",
    "model.forward_s", "model.forward_calls",
    "selection.candidates_s", "selection.candidates", "selection.pgd_s", "selection.pgd_iters",
    "selection.pgd_calls", "selection.pgd_moved", "selection.topk_s",
    "metrics.cmd_grad_s", "metrics.cmd_grad_calls", "metrics.kl_grad_s", "metrics.report_s",
    "homophily.estimate_s", "homophily.estimate_calls", "homophily.bins_s",
    "graph.true_profile_s", "graph.khop_s", "graph.khop_calls", "graph.load_s", "graph.save_s",
    "synth.generate_s", "synth.sample_s", "pseudolabel.route_s",
    "orchestrator.stages", "orchestrator.self_s", "cli.partition_s", "cli.self_s",
    "trace.other_s", "trace.run_s", "trace.spans",
]
SETUP_LAYERS = ("synth.generate_s", "graph.save_s")


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "fraction" if name == "selection.pgd_moved" else "count"


def runs_per_iteration(spec) -> int:
    return len(spec["variants"]) if spec["task"] == "cli_run" else 1


def code_hash(spec) -> str:
    """Hash of the workload spec and of the library and benchmark sources:
    repeat digests are only compared between runs of the same code."""
    h = hashlib.sha256(json.dumps(spec, sort_keys=True).encode())
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Invocation:
    """State of one benchmark invocation: its jobs, results and failures."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.spec = WORKLOADS[workload]
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.work = OUT / "work" / self.tag
        self.spans_dir = OUT / "spans" / self.tag
        self.start = time.monotonic()
        self.harness_errors = []
        self.env = None

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def worker(self, task: str, seconds: float = 0.0):
        """Run one worker; return (result dict or None, error text)."""
        result_path = self.work / f"{task}.json"
        job = {"task": task, "spec": self.spec, "seed": self.seed, "trace": self.trace,
               "seconds": seconds, "budget_s": self.remaining() - CHECK_RESERVE_S,
               "graph_dir": str(self.work / "graph"), "out_dir": str(self.work / "runs"),
               "result": str(result_path), "spans": str(self.spans_dir / f"{task}.csv")}
        cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), json.dumps(job)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return None, f"{task} worker timed out"
        if proc.returncode != 0 or not result_path.exists():
            return None, f"{task} worker exited {proc.returncode}: {proc.stderr[-2000:]}"
        result = json.loads(result_path.read_text())
        self.env = self.env or result["env"]
        if self.trace:
            self._check_trace(task, result)
        return result, ""

    def _check_trace(self, task, result):
        layers = result["layers"]
        if result["unrestored"]:
            self.harness_errors.append(f"{task}: not restored: {result['unrestored']}")
        total = tracing.bucket_total(layers)
        if abs(total - layers["trace.run_s"]) > 1e-6 * max(1.0, layers["trace.run_s"]):
            self.harness_errors.append(f"{task}: self times sum to {total}, "
                                       f"traced run_s is {layers['trace.run_s']}")


def _digest_failures(digests, store: Path) -> list:
    """Per iteration, the run ids whose output differs from the first
    iteration's or from an earlier invocation of the same code and seed."""
    if not digests or not digests[0]:
        return [set() for _ in digests]
    reference = digests[0]
    if store.exists():
        stored = json.loads(store.read_text())
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(reference, sort_keys=True))
        stored = reference
    return [{k for k, v in d.items() if v != reference.get(k) or v != stored.get(k)}
            for d in digests]


def benchmark(workload: str, seed: int, seconds: float, trace: bool):
    """Run set-up and timed iterations; return (summary dict, correct flag)."""
    inv = Invocation(workload, seed, trace)
    shutil.rmtree(inv.work, ignore_errors=True)
    shutil.rmtree(inv.spans_dir, ignore_errors=True)
    inv.work.mkdir(parents=True)
    if trace:
        inv.spans_dir.mkdir(parents=True)
    per_iter = runs_per_iteration(inv.spec)
    errors = []

    setup, err = inv.worker("setup")
    result = None
    if setup is None:
        errors.append(err)
    else:
        result, err = inv.worker(inv.spec["task"], seconds)
        if result is None:
            errors.append(err)

    n_iter = len(result["run_s"]) if result else 1
    attempted = per_iter * n_iter
    failed = attempted if result is None else 0
    if result is not None:
        store = OUT / "digests" / f"{workload}-seed{seed}-{code_hash(inv.spec)}.json"
        mismatched = _digest_failures(result["digests"], store)
        for run in result["runs"]:
            if run["id"] in mismatched[run["iteration"]]:
                run["failures"].append("output differs from a repeat with the same seed")
            if run["failures"]:
                failed += 1
                errors.append(f"iteration {run['iteration']} {run['id']}: "
                              + "; ".join(run["failures"]))

    quality = result["quality"] if result else {}
    metrics = {}
    if setup and quality:
        if trace:
            metrics = _layer_metrics(setup, result, n_iter, inv.spec["setup_repeats"])
            metrics.update({f"quality.{k}": v for k, v in quality.items()})
        else:
            metrics = {
                "setup_s": statistics.median(setup["setup_s"]),
                "run_s": statistics.median(result["run_s"]),
                "cpu_s": statistics.median(result["cpu_s"]),
                "peak_rss_mb": result["peak_rss_mb"],
            }
    errors += inv.harness_errors
    units = metric_units(trace)
    correct = failed == 0 and not errors and set(metrics) == set(units)
    summary = {
        "workload": workload, "seed": seed, "graph_seed": 7 + seed, "trace": trace,
        "seconds": seconds, "env": inv.env, "iterations": n_iter,
        "setup_s": setup["setup_s"] if setup else [],
        "run_s": result["run_s"] if result else [], "cpu_s": result["cpu_s"] if result else [],
        "quality": quality, "metrics": metrics, "attempted": attempted, "failed": failed,
        "errors": errors,
    }
    shutil.rmtree(inv.work, ignore_errors=True)
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{inv.tag}.json").write_text(json.dumps(summary, indent=2))
    return summary, correct


def _layer_metrics(setup, result, n_iter, setup_repeats) -> dict:
    """Per-layer metrics per iteration (per set-up for the set-up layers)."""
    layers = result["layers"]
    out = {}
    for k in PER_LAYER:
        total = layers.get(k, 0)
        exact_count = layer_unit(k) == "count" and total % n_iter == 0
        out[k] = total // n_iter if exact_count else total / n_iter
    for k in SETUP_LAYERS:
        out[k] = setup["layers"][k] / setup_repeats
    epochs = layers["epoch_ms_samples"]
    out["model.epoch_ms"] = statistics.median(epochs) if epochs else 0.0
    calls = layers["selection.pgd_calls"]
    out["selection.pgd_moved"] = layers["selection.pgd_moved_calls"] / calls if calls else 0.0
    return out


def metric_units(trace: bool) -> dict:
    if trace:
        return {**{k: layer_unit(k) for k in PER_LAYER},
                **{f"quality.{k}": unit for k, unit in QUALITY.items()}}
    return END_TO_END


def report(summary, correct) -> None:
    print(f"workload {summary['workload']}  seed {summary['seed']} "
          f"(graph seed {summary['graph_seed']}, run seed {summary['seed']})  "
          f"trace {int(summary['trace'])}  iterations {summary['iterations']}")
    print("env " + json.dumps(summary["env"] or {}, sort_keys=True))
    for err in summary["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    units = metric_units(summary["trace"])
    for name, value in summary["metrics"].items():
        print(f"{name:26s} {value:.6g} {units[name]}")
    if not summary["trace"]:
        for name, value in summary["quality"].items():
            print(f"{name:26s} {value:.6g} {QUALITY[name]}")
    print(f"{'fail_rate':26s} {summary['failed'] / summary['attempted']:.6g} fraction "
          f"({summary['failed']} of {summary['attempted']} runs)")
    line = {"correct": correct, "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in summary["metrics"].items()}}
    print(json.dumps(line))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hcgst" / "__init__.py").is_file():
        print(f"error: no hcgst sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    summary, correct = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    report(summary, correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
