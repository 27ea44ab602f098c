#!/usr/bin/env python3
"""Run ``hcgst run`` in two checkouts on the same graphs and compare their outputs.

    python3 tools/compare_runs.py BASE CHANGE --n 5000 --seeds 0-4 [--stages 2] [--fixture]
                                  [--variant hcgst,backbone_only]

For each seed s, the base checkout writes a graph with graph seed 7 + s: by
``hcgst generate --n N``, or with ``--fixture`` by the settings of the
acceptance-test fixture (``--n 500 --fixture`` is that fixture). Each checkout
then runs ``hcgst run --variant LIST --bias-mode heterophily_biased
--stages S --seed s`` on it with its own sources (``--variant``, default
``hcgst``), recording each variant's picks of every ``top_k`` call. Per seed
it prints whether the outputs are byte-identical (each variant's run JSON
without ``generated_at``, ``stages.csv``, ``bins.csv`` and
``aggregate.csv``), per variant ``test_acc``, ``final_kl_true`` and
``best_stage`` of both sides, and per stage the picks only one side made.
Before the seeds it prints ``help: identical`` or ``help: differs`` for the
``hcgst run --help`` and ``hcgst sweep --help`` texts of the two checkouts,
and each checkout's line count of ``src/hcgst/*.py`` (as ``wc -l`` counts).
Exits 0 when the help texts and every seed are byte-identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

OUTPUTS = ("stages.csv", "bins.csv", "aggregate.csv")
SIDES = ("base", "change")

# Run in a fresh interpreter with one checkout's sources first on the path:
#   python -c CHILD SRC graph N SEED FIXTURE OUT   writes a graph directory
#   python -c CHILD SRC help COMMAND               prints `hcgst COMMAND --help`
#   python -c CHILD SRC run PICKS ARGS...          runs `hcgst run ARGS`, top_k's picks per variant to PICKS
CHILD = r"""
import json, sys
src, mode, *rest = sys.argv[1:]
sys.path.insert(0, src)
from hcgst import cli, graph, orchestrator, synth
if mode == "help":
    cli.main([*rest, "--help"])
if mode == "graph":
    n, seed, fixture, out = rest
    if fixture == "0":
        sys.exit(cli.main(["generate", "--n", n, "--seed", seed, "--out", out]))
    cfg = synth.SynthConfig(n=int(n), classes=4, feature_dim=16, mean_degree=8,
                            target_histogram=[2, 2, 1.5, 1.5, 1, 1, 0.7, 0.7, 0.5, 0.5],
                            separation=1.2, cross_structure=0.85, seed=int(seed))
    graph.save_graph_dir(synth.generate_graph(cfg), out)
    sys.exit(0)
picks_path, *argv = rest
picks, top_k, run = {}, orchestrator.top_k, cli.run_self_training

def recording_run(graph, partition, cfg):
    picks[cfg.variant] = []
    return run(graph, partition, cfg)

def recording_top_k(*args, **kwargs):
    chosen = top_k(*args, **kwargs)
    picks[next(reversed(picks))].append(chosen.tolist())
    return chosen

cli.run_self_training = recording_run
orchestrator.top_k = recording_top_k
code = cli.main(["run", *argv])
if code == 0:
    with open(picks_path, "w") as f:
        json.dump(picks, f)
sys.exit(code)
"""


def parse_seeds(text: str) -> list:
    """'0-4' or '0,2,5' or '0-2,7' as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _child(checkout: Path, *args) -> str:
    """The child's stdout."""
    cmd = [sys.executable, "-c", CHILD, str(checkout / "src"), *map(str, args)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def source_lines(checkout: Path) -> int:
    """Newlines in ``src/hcgst/*.py``, the total ``wc -l`` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "hcgst").glob("*.py"))


def run_side(checkout: Path, graph: Path, seed: int, stages: int, variants: list, out: Path) -> dict:
    """One ``hcgst run`` of ``variants``; its comparable output texts, and per
    variant its run report and picks per stage."""
    picks = out.with_name(out.name + "-picks.json")
    _child(checkout, "run", picks, "--graph", graph, "--out", out, "--variant", ",".join(variants),
           "--bias-mode", "heterophily_biased", "--stages", stages, "--seed", seed)
    reports, texts = {}, {}
    for variant in variants:
        report = reports[variant] = json.loads((out / f"run_{variant}_{seed}.json").read_text())
        report.pop("generated_at")
        texts[f"run JSON {variant}"] = json.dumps(report, indent=2, sort_keys=True)
    texts.update({name: (out / name).read_text() for name in OUTPUTS})
    return {"texts": texts, "reports": reports, "picks": json.loads(picks.read_text())}


def pick_lines(base_picks, change_picks) -> list:
    """One line per stage where the two sides picked differently."""
    lines = []
    for stage in range(max(len(base_picks), len(change_picks))):
        b = base_picks[stage] if stage < len(base_picks) else []
        c = change_picks[stage] if stage < len(change_picks) else []
        if b == c:
            continue
        only_b, only_c = sorted(set(b) - set(c)), sorted(set(c) - set(b))
        if not only_b and not only_c:
            lines.append(f"stage {stage + 1} picks: same set of {len(b)}, different order")
        else:
            lines.append(f"stage {stage + 1} picks: {len(only_b)} only in base {only_b}, "
                         f"{len(only_c)} only in change {only_c}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--n", type=int, default=5000, help="graph nodes (default 5000)")
    parser.add_argument("--seeds", default="0-4", help="run seeds, e.g. 0-4 or 0,3 (default 0-4)")
    parser.add_argument("--stages", type=int, default=2, help="self-training stages (default 2)")
    parser.add_argument("--fixture", action="store_true",
                        help="the acceptance-test fixture's graph settings")
    parser.add_argument("--variant", default="hcgst",
                        help="comma list of variants to run and compare (default hcgst)")
    parser.add_argument("--work", type=Path, help="directory for graphs and outputs (default: temporary)")
    args = parser.parse_args(argv)
    for checkout in (args.base, args.change):
        if not (checkout / "src" / "hcgst").is_dir():
            parser.error(f"{checkout} has no src/hcgst")

    checkouts = (args.base, args.change)
    helps = [[_child(checkout, "help", command) for command in ("run", "sweep")] for checkout in checkouts]
    identical_all = helps[0] == helps[1]
    print("help: " + ("identical" if identical_all else "differs"))
    print("src/hcgst lines: " + "  ".join(f"{side} {source_lines(checkout)}"
                                          for side, checkout in zip(SIDES, checkouts)), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        variants = [v.strip() for v in args.variant.split(",")]
        for seed in parse_seeds(args.seeds):
            graph = work / f"graph-{seed}"
            _child(args.base, "graph", args.n, 7 + seed, int(args.fixture), graph)
            sides = {side: run_side(checkout, graph, seed, args.stages, variants, work / f"{side}-{seed}")
                     for side, checkout in zip(SIDES, checkouts)}
            differ = [name for name in sides["base"]["texts"]
                      if sides["base"]["texts"][name] != sides["change"]["texts"][name]]
            identical_all &= not differ
            print(f"seed {seed}: " + ("byte-identical" if not differ
                                      else "differs in " + ", ".join(differ)), flush=True)
            for variant in variants:
                for key in ("test_acc", "final_kl_true", "best_stage"):
                    b, c = (sides[side]["reports"][variant][key] for side in SIDES)
                    print(f"  {variant} {key:13s} base {b:.6g}  change {c:.6g}")
                for line in pick_lines(*(sides[side]["picks"][variant] for side in SIDES)):
                    print(f"  {variant} {line}")
    return 0 if identical_all else 1


if __name__ == "__main__":
    sys.exit(main())
