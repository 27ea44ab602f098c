#!/usr/bin/env python3
"""Interleaved before/after runs of the benchmark in two checkouts.

    python3 tools/bench_pairs.py BASE CHANGE --workload hcgst-5k --pairs 10 --out BENCH.json

Pair i runs ``perfbench/run.py --workload W --seed i`` once in each checkout,
the base first in even pairs and the change first in odd ones, so a slow
phase of the machine does not always fall on the same side. Each checkout
runs its own perfbench and sources. Prints every pair's metric values, then
per metric the medians and quartiles of both sides, how many pairs the
change won (a win is a lower value, as for every end-to-end metric of
BENCHMARK.json, and ties count for neither) and, for a metric whose base
values are all positive, the median, minimum and maximum of the per-pair
ratio change/base, and whether the pairs show a gain (see :func:`gain`).
Each metric that the base checkout's BENCHMARK.json lists under
``end_to_end`` with a bound also gets a verdict against that bound (see
:func:`verdict`). Writes the same to ``--out``, adding to the workloads an
existing file already holds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark invocation; its last output line parsed, plus the exit code."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": proc.stderr[-2000:]}
    result["exit"] = proc.returncode
    return result


def quartiles(values) -> tuple:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def read_bounds(checkout: Path) -> dict:
    """Bound of each lower-is-better end-to-end metric in the checkout's BENCHMARK.json,
    by name; empty when the file is absent."""
    path = checkout / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text()).get("end_to_end", [])
            if "bound" in m and m.get("better", "lower") == "lower"}


def verdict(base, change, bound: float) -> str:
    """``worse`` when the change's median is above the base median times (1 + bound);
    else ``unresolved`` when the base's interquartile range exceeds bound times its
    median, unless every change value is below every base value; else ``within``."""
    q1, med, q3 = quartiles(base)
    if statistics.median(change) > med * (1 + bound):
        return "worse"
    if q3 - q1 > bound * med and not max(change) < min(base):
        return "unresolved"
    return "within"


def gain(base, change) -> str:
    """``met`` when there are at least 10 pairs, the change wins at least 9 in 10 of them
    (a lower value; ties count for neither) and the base median minus the change median
    exceeds the base's q3 - q1; else ``not met``. Fewer pairs leave the base's quartiles
    too close together to judge a gap by."""
    wins = sum(c < b for b, c in zip(base, change))
    q1, med, q3 = quartiles(base)
    return "met" if (len(base) >= 10 and 10 * wins >= 9 * len(base)
                     and med - statistics.median(change) > q3 - q1) else "not met"


def summarize(pairs, bounds: dict) -> dict:
    """Per metric present on both sides of every pair: quartiles of each side, the change's wins,
    where every base value is positive the median and range of the ratios change/base, the
    :func:`gain` and, where ``bounds`` names the metric, its bound and :func:`verdict`."""
    names = set.intersection(*(set(p[side]["metrics"]) for p in pairs for side in SIDES))
    out = {}
    for name in sorted(names):
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        wins = sum(c < b for b, c in zip(values["base"], values["change"]))
        entry = {"unit": pairs[0]["base"]["metrics"][name]["unit"], "change_wins": wins,
                 "pairs": len(pairs)}
        for side in SIDES:
            q1, med, q3 = quartiles(values[side])
            entry[side] = {"median": med, "q1": q1, "q3": q3}
        if all(b > 0 for b in values["base"]):
            ratios = [c / b for b, c in zip(values["base"], values["change"])]
            entry["ratio"] = {"median": statistics.median(ratios), "min": min(ratios),
                              "max": max(ratios)}
        entry["gain"] = gain(values["base"], values["change"])
        if name in bounds:
            entry["bound"] = bounds[name]
            entry["verdict"] = verdict(values["base"], values["change"], bounds[name])
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.base, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")

    checkouts = {"base": args.base, "change": args.change}
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": i, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, i)
        pairs.append(pair)
        print(f"pair {i} (seed {i}, {order[0]} first): " + "  ".join(
            f"{side} correct={pair[side]['correct']} failed={pair[side]['failed']}"
            f"/{pair[side]['attempted']}" for side in SIDES), flush=True)
        for name in sorted(pair["base"]["metrics"]):
            if name in pair["change"]["metrics"]:
                b, c = (pair[side]["metrics"][name]["value"] for side in SIDES)
                print(f"  {name:26s} base {b:.6g}  change {c:.6g}", flush=True)

    summary = summarize(pairs, read_bounds(args.base))
    print(f"{args.workload}: {args.pairs} pairs")
    for name, s in summary.items():
        b, c, r = s["base"], s["change"], s.get("ratio")
        print(f"  {name:26s} base {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"change wins {s['change_wins']}/{s['pairs']}"
              + (f"  ratio {r['median']:.4g} [{r['min']:.4g}, {r['max']:.4g}]" if r else "")
              + f"  gain {s['gain']}"
              + (f"  {s['verdict']} (bound {s['bound']:g})" if "verdict" in s else ""))

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc.setdefault("host", {"machine": platform.machine(), "cpus": os.cpu_count(),
                            "python": platform.python_version()})
    doc.setdefault("workloads", {})[args.workload] = {"pairs": pairs, "summary": summary}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(p[side]["correct"] for p in pairs for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
