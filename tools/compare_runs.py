#!/usr/bin/env python3
"""Run ``hcgst run`` in two checkouts on the same graphs and compare their outputs.

    python3 tools/compare_runs.py BASE CHANGE --n 5000 --seeds 0-4 [--stages 2] [--fixture]
                                  [--variant hcgst,backbone_only]

Each checkout is a black box: its ``hcgst`` command line runs in a fresh
interpreter with the checkout's ``src`` first on the path. For each seed s,
each checkout writes a graph with graph seed 7 + s: by ``hcgst generate --n
N``, or with ``--fixture`` by the settings of the acceptance-test fixture
(``--n 500 --fixture`` is that fixture). Per seed it prints ``graph
identical`` or ``graph differs in`` the files whose bytes differ
(``edges.csv``, ``features.csv``, ``labels.csv`` and ``meta.json``, which
only ``generate`` writes). Each checkout then runs ``hcgst run --variant LIST
--bias-mode heterophily_biased --stages S --seed s`` on the base checkout's
graph (``--variant``, default ``hcgst``). Per seed it prints whether the
outputs are byte-identical (each variant's run JSON without
``generated_at``, ``stages.csv``, ``bins.csv`` and ``aggregate.csv``). Under a
``differs in`` line it lists the first 10 fields where each differing run JSON
differs, with both values and, for two floats of one sign up to 2^20 ulp
apart, how many ulp. Per variant it prints ``test_acc``, ``final_kl_true`` and
``best_stage`` of both sides, and per stage the picks only one side made, as
the run JSON's ``stages[].selected`` lists them. Before the seeds it prints ``help:
identical`` or ``help: differs`` for the ``hcgst run --help``, ``hcgst sweep
--help`` and ``hcgst generate --help`` texts of the two checkouts, and each
checkout's line count of ``src/hcgst/*.py`` (as ``wc -l`` counts). Exits 0
when the help texts, every graph and every seed's outputs are
byte-identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

OUTPUTS = ("stages.csv", "bins.csv", "aggregate.csv")
GRAPH_FILES = ("edges.csv", "features.csv", "labels.csv", "meta.json")
SIDES = ("base", "change")
FIELD_LINES = 10  # differing fields listed per run JSON
MISSING = "<missing>"  # the value of a key or list entry that one side lacks
ULPS_SHOWN = 1 << 20  # floats further apart differ in value, not in rounding

# Each snippet puts a checkout's SRC first on the path (`python -m` with PYTHONPATH
# would put the working directory ahead of it).
#   python -c CLI SRC ARGS...          runs `hcgst ARGS`
#   python -c FIXTURE SRC N SEED OUT   writes the fixture graph; no `generate` flag sets
#                                      its cross_structure
SRC_FIRST = "import sys; sys.path.insert(0, sys.argv.pop(1))\n"
CLI = SRC_FIRST + "from hcgst import cli; sys.exit(cli.main(sys.argv[1:]))"
FIXTURE = SRC_FIRST + r"""from hcgst import graph, synth
n, seed, out = sys.argv[1:]
cfg = synth.SynthConfig(n=int(n), classes=4, feature_dim=16, mean_degree=8,
                        target_histogram=[2, 2, 1.5, 1.5, 1, 1, 0.7, 0.7, 0.5, 0.5],
                        separation=1.2, cross_structure=0.85, seed=int(seed))
graph.save_graph_dir(synth.generate_graph(cfg), out)
"""


def parse_seeds(text: str) -> list:
    """'0-4' or '0,2,5' or '0-2,7' as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def _child(checkout: Path, code: str, *args) -> str:
    """The stdout of snippet ``code`` run on the checkout's sources with ``args``."""
    cmd = [sys.executable, "-c", code, str(checkout / "src"), *map(str, args)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd[3:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return proc.stdout


def source_lines(checkout: Path) -> int:
    """Newlines in ``src/hcgst/*.py``, the total ``wc -l`` prints."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "hcgst").glob("*.py"))


def graph_differences(a: Path, b: Path) -> list:
    """The names in GRAPH_FILES whose bytes differ between graph directories
    ``a`` and ``b``; a file neither has (the fixture's meta.json) does not."""
    def read(path):
        return path.read_bytes() if path.exists() else None
    return [name for name in GRAPH_FILES if read(a / name) != read(b / name)]


def json_differences(base, change, path: str = "") -> list:
    """(path, base value, change value) for each leaf where two parsed JSON values
    differ, in document order: ``stages[1].global_mean_est_h`` is that key of the
    second stage. A key or list entry that one side lacks reads as MISSING there."""
    if isinstance(base, dict) and isinstance(change, dict):
        keys = list(base) + [key for key in change if key not in base]
        return [diff for key in keys
                for diff in json_differences(base.get(key, MISSING), change.get(key, MISSING),
                                             f"{path}.{key}" if path else key)]
    if isinstance(base, list) and isinstance(change, list):
        return [diff for i in range(max(len(base), len(change)))
                for diff in json_differences(base[i] if i < len(base) else MISSING,
                                             change[i] if i < len(change) else MISSING, f"{path}[{i}]")]
    if base == change and type(base) is type(change):
        return []
    return [(path, base, change)]


def ulps(a, b):
    """How many doubles apart two finite floats of one sign are, else None."""
    if not (isinstance(a, float) and isinstance(b, float) and math.isfinite(a) and math.isfinite(b)
            and (a < 0) == (b < 0)):
        return None
    bits = [struct.unpack("<q", struct.pack("<d", abs(x)))[0] for x in (a, b)]
    return abs(bits[0] - bits[1])


def field_lines(base, change) -> list:
    """One line per differing field of two run reports, at most FIELD_LINES and a count of the rest."""
    diffs = json_differences(base, change)
    lines = []
    for path, b, c in diffs[:FIELD_LINES]:
        apart = ulps(b, c)
        shown = apart is not None and apart <= ULPS_SHOWN
        lines.append(f"{path}: base {b!r}  change {c!r}" + (f"  ({apart} ulp)" if shown else ""))
    if len(diffs) > FIELD_LINES:
        lines.append(f"... and {len(diffs) - FIELD_LINES} more fields")
    return lines


def run_side(checkout: Path, graph: Path, seed: int, stages: int, variants: list, out: Path) -> dict:
    """One ``hcgst run`` of ``variants``; its comparable output texts, and per
    variant its run report."""
    _child(checkout, CLI, "run", "--graph", graph, "--out", out, "--variant", ",".join(variants),
           "--bias-mode", "heterophily_biased", "--stages", stages, "--seed", seed)
    reports, texts = {}, {}
    for variant in variants:
        report = reports[variant] = json.loads((out / f"run_{variant}_{seed}.json").read_text())
        report.pop("generated_at")
        texts[f"run JSON {variant}"] = json.dumps(report, indent=2, sort_keys=True)
    texts.update({name: (out / name).read_text() for name in OUTPUTS})
    return {"texts": texts, "reports": reports}


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
    variants = [v.strip() for v in args.variant.split(",")]
    if "" in variants:
        parser.error(f"--variant {args.variant!r} has an empty entry")
    for checkout in (args.base, args.change):
        if not (checkout / "src" / "hcgst").is_dir():
            parser.error(f"{checkout} has no src/hcgst")

    checkouts = (args.base, args.change)
    helps = [[_child(checkout, CLI, command, "--help") for command in ("run", "sweep", "generate")]
             for checkout in checkouts]
    identical_all = helps[0] == helps[1]
    print("help: " + ("identical" if identical_all else "differs"))
    print("src/hcgst lines: " + "  ".join(f"{side} {source_lines(checkout)}"
                                          for side, checkout in zip(SIDES, checkouts)), flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for seed in parse_seeds(args.seeds):
            graphs = [work / f"{side}-graph-{seed}" for side in SIDES]
            for checkout, graph in zip(checkouts, graphs):
                if args.fixture:
                    _child(checkout, FIXTURE, args.n, 7 + seed, graph)
                else:
                    _child(checkout, CLI, "generate", "--n", args.n, "--seed", 7 + seed, "--out", graph)
            graph_differ = graph_differences(*graphs)
            identical_all &= not graph_differ
            print(f"seed {seed}: " + ("graph identical" if not graph_differ
                                      else "graph differs in " + ", ".join(graph_differ)), flush=True)
            sides = {side: run_side(checkout, graphs[0], seed, args.stages, variants, work / f"{side}-{seed}")
                     for side, checkout in zip(SIDES, checkouts)}
            differ = [name for name in sides["base"]["texts"]
                      if sides["base"]["texts"][name] != sides["change"]["texts"][name]]
            identical_all &= not differ
            print(f"seed {seed}: " + ("byte-identical" if not differ
                                      else "differs in " + ", ".join(differ)), flush=True)
            for variant in variants:
                if f"run JSON {variant}" in differ:
                    for line in field_lines(*(sides[side]["reports"][variant] for side in SIDES)):
                        print(f"  run JSON {variant}: {line}")
            for variant in variants:
                reports = [sides[side]["reports"][variant] for side in SIDES]
                for key in ("test_acc", "final_kl_true", "best_stage"):
                    print(f"  {variant} {key:13s} base {reports[0][key]:.6g}  change {reports[1][key]:.6g}")
                for line in pick_lines(*([s["selected"] for s in r["stages"]] for r in reports)):
                    print(f"  {variant} {line}")
    return 0 if identical_all else 1


if __name__ == "__main__":
    sys.exit(main())
